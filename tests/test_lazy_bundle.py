"""Oracles for the shortcuts of a bundle model that builds each thing once, on first use.

Each shortcut is held to the full computation that it skips, over random
bundles (T^3, surfaces of genus <= 4 and the Heisenberg manifold, n <= 2):

- page subquotients skip the containment check (``contained=True``): every
  slot built with the check raises nothing and has the same generators and
  relations;
- ``filtration_report`` tests a class for zero by one solve against
  ``d_factor(k - 1)``: it agrees with ``total_cohomology(k).is_zero`` on
  random closed cochains;
- the doubled model certifies d o d = 0 from its two halves and the cross
  terms: it agrees with ``check_d_squared`` on the same chern list, error
  text included, also over random bases of degree 4 and 5 whose products
  need not commute, and a base that breaks one cross term is refused.

Cost guards check that a triple builds only the degrees of its doubled
model that it reads, and that repeated questions factor nothing again.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import tdk.exact_linalg as exact_linalg  # noqa: E402
import tdk.space_model as space_model  # noqa: E402
import tdk.torus_bundle as torus_bundle  # noqa: E402
from tdk.errors import ModelError  # noqa: E402
from tdk.exact_linalg import (  # noqa: E402
    FgAbelianGroup,
    compose,
    kernel_basis,
    mat_vec,
    subquotient,
)
from tdk.space_model import Cocycle, DgRingModel, builtin_space, product_model  # noqa: E402
from tdk.tduality_core import Pair, Triple, dualize, validate_triple  # noqa: E402
from tdk.torus_bundle import BundleModel, build_bundle  # noqa: E402

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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bundles())
def test_every_page_slot_passes_the_containment_check(m):
    for r in range(1, m.stable_page + 2):
        for p in range(-1, m.base.D + 2):
            for q in range(-1, m.n + 2):
                k = p + q
                page = m._page_subquotient(r, p, q)
                if not 0 <= k <= m.D:
                    assert page.group.is_trivial()
                    continue
                rr = min(r, m.stable_page)
                checked = subquotient(
                    FgAbelianGroup(m.dim(k)), m.z_lattice(rr, p, q), _boundaries(m, rr, p, q)
                )
                assert checked.gens == page.gens
                assert checked.group.rels == page.group.rels


def test_subquotient_still_checks_unless_told():
    amb = FgAbelianGroup(2)
    with pytest.raises(exact_linalg.SubgroupContainmentError):
        subquotient(amb, [{0: 2}], [{0: 1}])
    assert subquotient(amb, [{0: 2}], [{0: 4}], contained=True).invariants() == (0, (2,))


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


def _doubled_by_full_check(side, dual):
    """The doubled model built and certified as any bundle, by ``check_d_squared``."""
    labels = side.labels + [f"yh{i + 1}" for i in range(dual.n)]
    return build_bundle(side.base, list(side.chern) + list(dual.chern), labels=labels)


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
    return DgRingModel(basis, {}, _products(draw, dims), check=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(free_bases(), st.data())
def test_doubled_certificate_agrees_with_check_d_squared(base, data):
    n_side, n_dual = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    try:
        side = build_bundle(base, _chern(data.draw, base, n_side))
        dual = build_bundle(base, _chern(data.draw, base, n_dual))
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
    return DgRingModel(basis, {}, {(2, 0, 2, 1): {0: 1}}, check=False)


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


def test_triple_builds_only_the_degrees_of_its_doubled_model_that_it_reads():
    T3 = builtin_space("torus", {"k": 3})
    m = build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    assert validate_triple(t).ok
    assert sorted(t.doubled._dcols) == [2]  # d_2 for the correspondence equation
    assert "basis" not in vars(t.doubled)  # no labels
