"""Oracles for the shortcuts of a bundle model that builds each thing once, on first use.

Each shortcut is held to the full computation that it skips, over random
bundles (T^3, surfaces of genus <= 4 and the Heisenberg manifold, n <= 2):

- page subquotients take their containment as proved: every slot's
  denominator passes the reference containment test
  (``matrices.reference_contains``) on the lattices that the slot is built
  from, which are Z_r^p and the denominator of its definition, and every
  slot's d_r passes the reference well-definedness test
  (``matrices.reference_well_defined``);
- ``filtration_report`` tests a class for zero by one solve against
  ``d_factor(k - 1)``: it agrees with ``total_cohomology(k).is_zero`` on
  random closed cochains;
- every build certifies d o d = 0 by the terms (A), (B) and (C) of the
  ``torus_bundle`` module docstring, on base data, and the doubled model
  skips the terms its two halves certified.  The oracle builds the same
  model with that certificate switched off and runs the total
  ``DgRingModel.check_d_squared``, which writes every d_k.  Both give the
  same verdict and the same ModelError text, for plain and doubled builds,
  over random bases that break d o d, Leibniz against a chern cocycle, or
  commutativity and associativity, and a base that breaks one cross term
  is refused.

Cost guards check that a build writes no d_k and no labels, that a triple
builds only the degrees of its doubled model that it reads, that a bundle
over a point with n = 16 answers ``is_dualizable`` from d_2 and d_3 alone,
and that repeated questions factor nothing again.
"""

import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import tdk.exact_linalg as exact_linalg  # noqa: E402
import tdk.space_model as space_model  # noqa: E402
import tdk.torus_bundle as torus_bundle  # noqa: E402
from matrices import reference_contains, reference_well_defined  # noqa: E402
from tdk.errors import ModelError  # noqa: E402
from tdk.exact_linalg import compose, kernel_basis, mat_vec, subquotient  # noqa: E402
from tdk.space_model import Cocycle, DgRingModel, builtin_space, product_model  # noqa: E402
from tdk.duality_group import (  # noqa: E402
    act_on_triple,
    flip_element,
    gl_element,
    shear_element,
)
from tdk.serialize import triple_from_doc, triple_to_doc  # noqa: E402
from tdk.tduality_core import (  # noqa: E402
    Pair,
    Triple,
    dualize,
    gauge_action,
    h3_action,
    is_dualizable,
    validate_triple,
)
from tdk.torus_bundle import BundleModel, ChernVector, build_bundle  # noqa: E402

BASES = (
    ("torus", {"k": 3}),
    ("surface", {"genus": 0}),
    ("surface", {"genus": 1}),
    ("surface", {"genus": 2}),
    ("surface", {"genus": 3}),
    ("surface", {"genus": 4}),
    ("heisenberg", {"k": 1}),
    ("heisenberg", {"k": 2}),
)

COEFF = st.integers(-3, 3)


def _chern(draw, base, n):
    # every degree-2 cochain on these bases is closed
    return [draw(st.lists(COEFF, min_size=base.dim(2), max_size=base.dim(2))) for _ in range(n)]


@st.composite
def bundles(draw):
    base = builtin_space(*draw(st.sampled_from(BASES)))
    return build_bundle(base, _chern(draw, base, draw(st.integers(1, 2))))


@st.composite
def halves(draw):
    """Two bundles with n <= 2 over one builtin base."""
    base = builtin_space(*draw(st.sampled_from(BASES)))
    n = draw(st.integers(1, 2))
    return build_bundle(base, _chern(draw, base, n)), build_bundle(base, _chern(draw, base, n))


def _vector(draw, length):
    return draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length))


# ---------------------------------------------------------------------------
# page subquotients: the denominator lies in the numerator


def _boundaries(m, r, p, q):
    """Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}, the denominator of slot (r, p, q)."""
    inner = m.z_lattice(r - 1, p - r + 1, q + r - 2)
    return m.z_lattice(r - 1, p + 1, q - 1) + compose(m.d_columns(p + q - 1), inner)


def _slots(m):
    """(r, p, q) of the slots of pages 1 to stable + 2 with p + q in -1..D + 1.

    p runs from -1, or lower past the stable page, where d_r of a slot with
    p < 0 can land on a target with p + r <= D.
    """
    for r in range(1, m.stable_page + 3):
        for p in range(min(-1, m.base.D - r - 1), m.base.D + 2):
            for k in range(-1, m.D + 2):
                yield r, p, k - p


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bundles())
def test_every_page_slot_passes_the_containment_check(m):
    built = []  # the (ambient, Z, B) of each subquotient that a slot builds

    def recorded(amb, Z, B):
        built.append((amb, Z, B))
        return subquotient(amb, Z, B)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torus_bundle, "subquotient", recorded)
        for r, p, q in _slots(m):
            k = p + q
            page = m._page_subquotient(r, p, q)
            amb, Z, B = built.pop()
            assert reference_contains(amb, Z, B)
            if not 0 <= k <= m.D:
                assert page.group.is_trivial()
                continue
            rr = min(r, m.stable_page)
            assert amb.ngens == m.dim(k) and not amb.rels
            assert (Z, B) == (m.z_lattice(rr, p, q), _boundaries(m, rr, p, q))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bundles())
def test_every_page_differential_is_well_defined(m):
    for r, p, q in _slots(m):
        assert reference_well_defined(m.ss_page(r, p, q).d_out)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([("torus", {"k": 3}), ("heisenberg", {"k": 1}), ("surface", {"genus": 2})]),
       st.data())
def test_every_differential_past_the_stable_page_is_zero(base, data):
    base = builtin_space(*base)
    m = build_bundle(base, _chern(data.draw, base, data.draw(st.integers(1, 2))))
    s = m.stable_page
    for r, p, q in _slots(m):
        if r > s:
            d_out = m.ss_page(r, p, q).d_out
            assert not any(d_out.matrix), (r, p, q)
            assert d_out.source.is_trivial() or d_out.target.is_trivial(), (r, p, q)


# ---------------------------------------------------------------------------
# the zero test by d_factor


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bundles(), st.data())
def test_zero_test_by_d_factor_matches_total_cohomology(m, data):
    for k in range(m.D + 1):
        H = m.total_cohomology(k)
        cycles = kernel_basis(m.d_columns(k), m.dim(k + 1))
        exact = m.d(k - 1, _vector(data.draw, m.dim(k - 1)))
        # random cocycles, and each generator of H^k: once, and times its order
        candidates = [mat_vec(cycles, _vector(data.draw, len(cycles)), m.dim(k))]
        orders = list(H.group.torsion) + [0] * H.group.rank
        for g, order in zip(H.generator_vectors(), orders):
            candidates += [g, [order * x for x in g]]
        for cocycle in candidates:
            v = [x + y for x, y in zip(cocycle, exact)]
            expected = H.is_zero(v)
            assert (m.d_factor(k - 1).solve(v) is not None) == expected
            assert m.filtration_report(Cocycle(k, v)).is_zero == expected


def test_filtration_report_factors_nothing_twice(monkeypatch):
    T3 = builtin_space("torus", {"k": 3})
    m = build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 2)])
    flux = Cocycle(3, m.normal_form_vector([T3.basis_vector(2, 1), T3.zero_vector(2)]))
    first = m.filtration_report(flux)
    calls = []
    snf = torus_bundle.smith_normal_form

    def counted(*args):
        calls.append(args)
        return snf(*args)

    for module in (exact_linalg, space_model, torus_bundle):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    again = m.filtration_report(flux)
    assert calls == []
    assert (again.p, again.leading, again.representative) == (
        first.p, first.leading, first.representative)


def test_z_lattices_of_one_block_are_one_object():
    T3 = builtin_space("torus", {"k": 3})
    m = build_bundle(T3, [T3.basis_vector(2, 0)])
    # past the stable page, and at q - 1 with p + 1, the lattice is the same block
    assert m.z_lattice(m.stable_page, 1, 1) is m.z_lattice(m.stable_page + 3, 1, 1)
    assert m.z_lattice(0, 2, 0) is m.z_lattice(-1, 2, 0)


# ---------------------------------------------------------------------------
# the doubled model


def _by_total_scan(base, chern, split=None):
    """The bundle built with its certificate switched off, then certified by the
    total ``DgRingModel.check_d_squared`` with the build's error text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BundleModel, "_certify", lambda self: None)
        m = BundleModel(base, ChernVector(base, chern), split)
    try:
        DgRingModel.check_d_squared(m)
    except ModelError as err:
        raise ModelError(f"total model of the bundle is invalid: {err}") from None
    return m


def _doubled_by_full_check(side, dual):
    """The doubled model built as any bundle and certified by the total scan."""
    return _by_total_scan(side.base, list(side.chern) + list(dual.chern), side.n)


def _verdict(build):
    try:
        return build()
    except ModelError as err:
        return str(err)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(halves())
def test_doubled_model_is_the_bundle_of_both_chern_lists(data):
    side, dual = data
    doubled = BundleModel.doubled(side, dual)
    full = _doubled_by_full_check(side, dual)
    doubled.check_d_squared()
    assert doubled.basis == full.basis
    assert doubled.diff_shapes == full.diff_shapes
    for k in range(full.D + 1):
        assert doubled.d_columns(k) == full.d_columns(k)


def _products(draw, dims):
    """Random structure constants for every non-unit pair of a base with these dims."""
    D = len(dims) - 1
    product = {}
    for i in range(1, D + 1):
        for j in range(1, D + 1 - i):
            for a in range(dims[i]):
                for b in range(dims[j]):
                    if dims[i + j] and draw(st.booleans()):
                        c = draw(st.integers(0, dims[i + j] - 1))
                        product[(i, a, j, b)] = {c: draw(st.sampled_from((-2, -1, 1, 2)))}
    return product


@st.composite
def free_bases(draw):
    """A base of degree 4 or 5 with d = 0 and random, maybe non-commuting, products."""
    dims = draw(st.sampled_from(([1, 0, 2, 0, 1], [1, 0, 3, 0, 2], [1, 1, 2, 2, 1, 1])))
    basis = [[f"e{k}_{a}" if k else "1" for a in range(d)] for k, d in enumerate(dims)]
    return DgRingModel(basis, {}, _products(draw, dims))


def _columns(draw, rows, cols, first=0):
    """Random sparse columns of a rows x cols matrix, the columns before ``first`` zero."""
    entries = st.dictionaries(st.integers(0, rows - 1), st.sampled_from((-2, -1, 1, 2)))
    return [{} if c < first or not rows else draw(entries) for c in range(cols)]


@st.composite
def broken_bases(draw):
    """A base of degree 4 or 5 that may break (A), (B) and (C), with closed e2_0, e2_1.

    d is zero, lives in one degree (so d o d = 0 holds and only Leibniz
    against a chern cocycle, (B), can fail besides (C)), or is random in
    every degree below the top (so (A) can fail too); products are none,
    or random and maybe neither commutative nor associative, as in
    ``free_bases``.  d_2 is zero on e2_0 and e2_1, so every base has two
    closed degree-2 elements for the chern cocycles (:func:`_closed_chern`).
    """
    dims = draw(st.sampled_from(([1, 1, 3, 1, 2], [1, 1, 3, 2, 1, 1], [1, 0, 3, 1, 2, 1])))
    D = len(dims) - 1
    degrees = {"none": (), "one": (draw(st.integers(1, D - 1)),), "all": range(1, D)}
    diff = {
        k: _columns(draw, dims[k + 1], dims[k], 2 if k == 2 else 0)
        for k in degrees[draw(st.sampled_from(tuple(degrees)))]
    }
    product = _products(draw, dims) if draw(st.booleans()) else {}
    basis = [[f"e{k}_{a}" if k else "1" for a in range(d)] for k, d in enumerate(dims)]
    return DgRingModel(basis, {k: c for k, c in diff.items() if c}, product)


def _closed_chern(draw, base, n):
    """n random cochains on the degree-2 basis elements that d kills, so closed."""
    closed = [not col for col in base.d_columns(2)]
    return [[draw(COEFF) if c else 0 for c in closed] for _ in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(broken_bases(), st.data())
def test_certificate_agrees_with_the_total_scan_on_broken_bases(base, data):
    chern = _closed_chern(data.draw, base, data.draw(st.integers(1, 3)))
    got = _verdict(lambda: build_bundle(base, chern))
    want = _verdict(lambda: _by_total_scan(base, chern))
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(free_bases(), broken_bases()), st.data())
def test_doubled_certificate_agrees_with_check_d_squared(base, data):
    n_side, n_dual = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    try:
        side = build_bundle(base, _closed_chern(data.draw, base, n_side))
        dual = build_bundle(base, _closed_chern(data.draw, base, n_dual))
    except ModelError:
        assume(False)  # a half fails its own certificate
    got = _verdict(lambda: BundleModel.doubled(side, dual))
    want = _verdict(lambda: _doubled_by_full_check(side, dual))
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want


def test_doubled_certificate_on_a_valid_base_of_degree_4():
    T2 = builtin_space("torus", {"k": 2})
    base = product_model(T2, T2)
    side = build_bundle(base, [base.basis_vector(2, a) for a in (0, 5)])
    dual = build_bundle(base, [base.basis_vector(2, a) for a in (2, 3)])
    doubled = BundleModel.doubled(side, dual)
    doubled.check_d_squared()
    assert doubled.d_columns(3) == _doubled_by_full_check(side, dual).d_columns(3)


def _cross_breaking_base():
    """u, v (deg 2), w (deg 4) with u v = w but v u = 0: graded commutativity fails.

    A bundle with one of u, v alone certifies, as nothing meets the broken
    pair; the doubled model has the cross term (1.u).v = w != 0 = (1.v).u.
    """
    basis = [["1"], [], ["u", "v"], [], ["w"]]
    return DgRingModel(basis, {}, {(2, 0, 2, 1): {0: 1}})


def test_doubled_model_refuses_a_base_that_breaks_a_cross_term():
    base = _cross_breaking_base()
    with pytest.raises(ModelError, match="graded commutativity fails"):
        base.validate()
    side, dual = (build_bundle(base, [z]) for z in ([1, 0], [0, 1]))
    side, dual = (Pair(m, Cocycle(3, m.zero_vector(3))) for m in (side, dual))
    message = "total model of the bundle is invalid: d\\(d\\(x\\)\\) != 0 for basis element 'y1yh1'"
    with pytest.raises(ModelError, match=message):
        BundleModel.doubled(side.bundle, dual.bundle)
    with pytest.raises(ModelError, match=message):
        Triple(side, dual)
    with pytest.raises(ModelError, match=message):
        _doubled_by_full_check(side.bundle, dual.bundle)


def _n2_triple():
    """The dual of a pair over T^3 with two nonzero chern cocycles and a flux in F^2."""
    T3 = builtin_space("torus", {"k": 3})
    m = build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)])
    return dualize(Pair(m, Cocycle(3, m.element_vector(2, 2, (0,)))))


def _verbs():
    """Each verb that builds a triple from another, with its doubled-model builds."""
    T3 = builtin_space("torus", {"k": 3})
    x1, x2 = T3.basis_vector(1, 0), T3.basis_vector(1, 1)
    return {
        "triple_from_doc": (lambda t, doc: triple_from_doc(doc), 1),
        "h3_action": (lambda t, doc: h3_action(t, Cocycle(3, T3.basis_vector(3, 0))), 0),
        "gauge_action": (lambda t, doc: gauge_action(t, [x1, x2], [x2, x1]), 0),
        "flip": (lambda t, doc: act_on_triple(flip_element(2), t), 1),
        "shear": (lambda t, doc: act_on_triple(shear_element(2, [{1: 1}, {0: -1}]), t), 1),
        "gl": (lambda t, doc: act_on_triple(gl_element(2, [{0: 1}, {0: 1, 1: 1}]), t), 1),
    }


@pytest.mark.parametrize("verb", sorted(_verbs()))
def test_each_verb_builds_one_triple_and_at_most_one_doubled_model(monkeypatch, verb):
    t = _n2_triple()
    doc = triple_to_doc(t)
    act, doubled_builds = _verbs()[verb]
    built = {"triples": 0, "doubled": 0}
    fill, doubled = Triple._fill, BundleModel.doubled.__func__

    def counted_fill(self, *args):  # both doors of Triple fill its fields here
        built["triples"] += 1
        fill(self, *args)

    def counted_doubled(cls, side, dual):
        built["doubled"] += 1
        return doubled(cls, side, dual)

    monkeypatch.setattr(Triple, "_fill", counted_fill)
    monkeypatch.setattr(BundleModel, "doubled", classmethod(counted_doubled))
    out = act(t, doc)
    assert built == {"triples": 1, "doubled": doubled_builds}
    assert validate_triple(out).ok


def test_triple_builds_only_the_degrees_of_its_doubled_model_that_it_reads():
    T3 = builtin_space("torus", {"k": 3})
    m = build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    assert validate_triple(t).ok
    assert sorted(t.doubled._dcols) == [2]  # d_2 for the correspondence equation
    assert "basis" not in vars(t.doubled)  # no labels


@pytest.mark.parametrize(
    "name, params, n",
    [("torus", {"k": 3}, 2), ("surface", {"genus": 2}, 2), ("heisenberg", {"k": 1}, 2),
     ("point", {}, 6)],
)
def test_a_build_writes_no_differential_and_no_labels(name, params, n):
    base = builtin_space(name, params)
    chern = [base.basis_vector(2, i % base.dim(2)) if base.dim(2) else [] for i in range(n)]
    m = build_bundle(base, chern)
    doubled = BundleModel.doubled(m, build_bundle(base, chern))
    for model in (m, doubled):
        assert model._dcols == {}
        assert "basis" not in vars(model)


def test_is_dualizable_over_a_point_with_16_circles_reads_d2_and_d3():
    point = builtin_space("point")
    seconds = []
    for _ in range(3):  # the best of three, as a timer would take it
        start = time.perf_counter()
        m = build_bundle(point, [[]] * 16)
        ok, report = is_dualizable(Pair(m, Cocycle(3, m.zero_vector(3))))
        seconds.append(time.perf_counter() - start)
        assert ok and report.is_zero
        assert sorted(m._dcols) == [2, 3]
    assert min(seconds) < 0.1
