"""Oracles for the checks that the duality layer trusts instead of re-running.

Each value below is built so that it holds by a proof in a docstring of
``tdk.tduality_core`` or ``tdk.duality_group``, and is no longer checked at
run time.  Each is held here to the check it replaced:

- ``dualize`` returns its triple unvalidated: ``validate_triple`` accepts it;
- the shear of ``act_on_triple`` builds one canonical triple with dual chern
  zhat + B c from the trusted normal form, unvalidated and with no closedness
  re-check of zhat + B c or of its flux: ``validate_triple`` accepts it, and
  ``torsor_difference`` to the canonical triple of (zhat + B c, beta) is
  zero in H^3 of the base;
- ``_normal_form`` reads zhat and beta off the representative without
  re-testing them: every zhat_i is closed and d beta = -sum_i c_i . zhat_i,
  so ``_pairing_primitive`` finds a primitive (the re-solve that
  ``_dual_chern`` no longer makes);
- ``validate_triple`` reports both fluxes closed without a test, as no
  ``Pair`` holds a flux that is not closed: ``check-triple`` refuses one;
- ``act_on_chern`` solves no pairing: sum_i c_i . chat_i is kept as a
  cochain by every generator of O(n, n; Z) with n <= 3 and by random words,
  on cocycles drawn over a basis of ker d_2; it refuses a cochain that is
  not closed, or one of another length.

The random pairs come from ``pairs()`` of ``tests/test_theorems.py``, over
its builtins.  Those have no degree-4 cochains, so there beta is closed and
the pairing is zero.  Listed pairs over Heisenberg x T^2 have a pairing that
is a nonzero coboundary, so beta is not closed.  Random pairs over that base
or over T^2 x T^2 are not drawn: some of them stall in a Smith form whose
coefficients grow, in ``pairs()`` itself or in ``validate_triple`` (see
CHANGES.md).
"""

import itertools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tdk import tduality_core  # noqa: E402
from tdk.cli import run  # noqa: E402
from tdk.duality_group import (  # noqa: E402
    act_on_chern,
    act_on_triple,
    flip_element,
    generators,
    shear_element,
)
from tdk.errors import InputError  # noqa: E402
from tdk.exact_linalg import _sum_terms, dense_vector, kernel_basis  # noqa: E402
from tdk.fixtures import PAIR_NAMES, named_pair  # noqa: E402
from tdk.serialize import dumps, triple_to_doc  # noqa: E402
from tdk.space_model import Cocycle, builtin_space, product_model  # noqa: E402
from tdk.tduality_core import (  # noqa: E402
    Pair,
    _normal_form,
    _pairing_primitive,
    dualize,
    extract_dual_chern,
    is_dualizable,
    torsor_difference,
    validate_triple,
)
from tdk.torus_bundle import build_bundle  # noqa: E402
from test_skipped_work import _pairing_total  # noqa: E402
from test_theorems import pairs  # noqa: E402

T2 = builtin_space("torus", {"k": 2})
HEISENBERG = builtin_space("heisenberg", {"k": 1})
T2xT2, HxT2 = product_model(T2, T2), product_model(HEISENBERG, T2)


def assert_trusted_normal_form(pair, zhat, beta):
    """zhat closed, and beta a primitive of the pairing: d beta = -sum_i c_i . zhat_i."""
    base, chern = pair.base, pair.bundle.chern
    assert all(base.is_closed(2, z) for z in zhat)
    pairing = dense_vector(_pairing_total(base, chern, zhat), base.dim(4))
    assert base.d(3, beta) == [-x for x in pairing]
    assert _pairing_primitive(base, chern, zhat) is not None


def assert_valid_dual(t, pair, zhat):
    """``t`` joins ``pair`` to the bundle with chern cocycles ``zhat`` and
    passes every item of ``validate_triple``."""
    assert t.side.bundle is pair.bundle
    assert [list(z) for z in t.dual.bundle.chern] == zhat
    report = validate_triple(t)
    assert report.ok, report.failures()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs())
def test_dualize_builds_a_triple_that_passes_validation(pair):
    ok, report = is_dualizable(pair)
    if not ok:
        return
    zhat, beta = _normal_form(pair, report)
    assert_trusted_normal_form(pair, zhat, beta)
    assert extract_dual_chern(pair)[1]["representatives"] == zhat
    assert_valid_dual(dualize(pair), pair, zhat)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs(), st.data())
def test_a_shear_of_a_dual_builds_the_canonical_triple_of_the_sheared_chern(pair, data):
    ok, report = is_dualizable(pair)
    if not ok:
        return
    n, chern, base = pair.bundle.n, pair.bundle.chern, pair.base
    zhat, beta = _normal_form(pair, report)
    # an antisymmetric B (as columns), one weight per shear generator of
    # ``extract_dual_chern``, and zhat + B c
    B, zhat_new = [{} for _ in range(n)], [list(z) for z in zhat]
    for i, j in itertools.combinations(range(n), 2):
        b = data.draw(st.integers(-2, 2))
        B[j][i], B[i][j] = b, -b
        zhat_new[i] = [x + b * y for x, y in zip(zhat_new[i], chern[j])]
        zhat_new[j] = [x - b * y for x, y in zip(zhat_new[j], chern[i])]
    sheared = act_on_triple(shear_element(n, B), dualize(pair))
    assert_trusted_normal_form(pair, zhat_new, beta)
    assert_valid_dual(sheared, pair, zhat_new)
    canonical = tduality_core._canonical_triple(pair.bundle, zhat_new, beta)
    delta = torsor_difference(sheared, canonical)
    assert base.cohomology(3).is_zero(delta.vector)


# basis indices of degree 2 on Heisenberg x T^2: 0 = x1x2, 1 = x.x1, 3 = y.x1,
# 4 = y.x2; (x.x1).(y.x2) = +-xy.x1x2 = d(+-z.x1x2) is a nonzero coboundary
@pytest.mark.parametrize("chern, chern_hat", [((1,), (4,)), ((1, 3), (4, 0))])
def test_dualize_builds_a_valid_triple_whose_beta_is_not_closed(chern, chern_hat):
    c = [HxT2.basis_vector(2, i) for i in chern]
    zhat = [HxT2.basis_vector(2, i) for i in chern_hat]
    beta = _pairing_primitive(HxT2, c, zhat)
    assert not HxT2.is_closed(3, beta)
    m = build_bundle(HxT2, c)
    pair = Pair(m, Cocycle(3, m.normal_form_vector(zhat, beta)))
    ok, report = is_dualizable(pair)
    assert ok
    zhat, beta = _normal_form(pair, report)
    assert_trusted_normal_form(pair, zhat, beta)
    assert_valid_dual(dualize(pair), pair, zhat)


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_dualize_calls_no_validate_triple(monkeypatch, name):
    pair = named_pair(name)
    ok, report = is_dualizable(pair)
    if not ok:
        return
    zhat, beta = _normal_form(pair, report)

    def refused(t):
        raise AssertionError("dualize validated the triple it built")

    monkeypatch.setattr(tduality_core, "validate_triple", refused)
    dualize(pair)


@pytest.mark.parametrize("field", ["flux", "flux_hat"])
def test_check_triple_refuses_a_flux_that_is_not_closed(tmp_path, field):
    # over T^3 with chern (x1 x2, 0) on both sides, d(x3 y1 y2) is not zero
    m = build_bundle(builtin_space("torus", {"k": 3}), [[1, 0, 0], [0, 0, 0]])
    t = dualize(Pair(m, Cocycle(3, m.element_vector(2, 0, (0,)))))
    assert [list(z) for z in t.dual.bundle.chern] == [list(z) for z in m.chern]
    units = ([int(i == j) for i in range(m.dim(3))] for j in range(m.dim(3)))
    doc = triple_to_doc(t)
    doc[field] = [str(x) for x in next(v for v in units if not m.is_closed(3, v))]
    path = tmp_path / "triple.json"
    path.write_text(dumps(doc))
    refusal = (2, {"error": "flux cocycle is not closed"})
    assert run(["check-triple", "--triple", str(path)]) == refusal


# ---------------------------------------------------------------------------
# the group action keeps the pairing as a cochain

# the degree-4 pairing vanishes on the first four bases, not on the products
ONN_BASES = {
    "torus2": T2,
    "torus3": builtin_space("torus", {"k": 3}),
    "surface2": builtin_space("surface", {"genus": 2}),
    "heisenberg": HEISENBERG,
    "torus2xtorus2": T2xT2,
    "heisenbergxtorus2": HxT2,
}


def _cocycle_basis(base):
    """A basis of ker d_2: the unit cochains in order where d_2 = 0, as on every base but
    Heisenberg x T^2, which has two degree-2 cochains that are not closed."""
    return kernel_basis(base.d_columns(2), base.dim(3))


def _cocycle(base, basis, coefficients):
    return dense_vector(_sum_terms(zip(coefficients, basis)), base.dim(2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ONN_BASES))
def test_every_generator_keeps_the_pairing_cochain(name, n):
    base, rng = ONN_BASES[name], random.Random(f"{name}:{n}")
    Z = _cocycle_basis(base)
    c, chat = ([_cocycle(base, Z, [rng.randint(-2, 2) for _ in Z]) for _ in range(n)]
               for _ in range(2))
    for g in generators(n):
        c_new, chat_new = act_on_chern(g, base, c, chat)
        assert _pairing_total(base, c_new, chat_new) == _pairing_total(base, c, chat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ONN_BASES)), st.integers(1, 3), st.data())
def test_random_words_keep_the_pairing_cochain(name, n, data):
    base = ONN_BASES[name]
    word = data.draw(st.lists(st.sampled_from(generators(n)), min_size=1, max_size=5))
    g = word[0]
    for h in word[1:]:
        g = g.compose(h)
    Z = _cocycle_basis(base)
    coefficients = st.lists(st.integers(-2, 2), min_size=len(Z), max_size=len(Z))
    c, chat = ([_cocycle(base, Z, data.draw(coefficients)) for _ in range(n)] for _ in range(2))
    c_new, chat_new = act_on_chern(g, base, c, chat)
    assert _pairing_total(base, c_new, chat_new) == _pairing_total(base, c, chat)


@pytest.mark.parametrize("side", ["c", "chat"])
def test_act_on_chern_refuses_a_cochain_that_is_not_closed(side):
    # basis cochain 5 of degree 2 on Heisenberg x T^2 has a nonzero coboundary
    assert not HxT2.is_closed(2, HxT2.basis_vector(2, 5))
    data = {"c": [HxT2.zero_vector(2)], "chat": [HxT2.zero_vector(2)]}
    data[side] = [HxT2.basis_vector(2, 5)]
    with pytest.raises(InputError, match=f"^{side} cocycle 0 is not closed$"):
        act_on_chern(flip_element(1), HxT2, data["c"], data["chat"])


@pytest.mark.parametrize("side", ["c", "chat"])
@pytest.mark.parametrize("length", [3, 11])
def test_act_on_chern_refuses_a_cochain_of_another_length(side, length):
    data = {"c": [[0] * 10, [0] * 10], "chat": [[0] * 10, [0] * 10]}
    data[side][1] = [0] * length
    with pytest.raises(InputError, match=f"^{side} cocycle 1 has length {length}, expected 10$"):
        act_on_chern(flip_element(2), HxT2, data["c"], data["chat"])
