"""Bundle models, their cohomology, filtration, and spectral sequence.

Frozen expected values are the classical answers for the spaces the models
realize: S^3 and the lens spaces L(k,1) for circle bundles over S^2 (the
degree-k Euler class complex  Z -> Z -(x k)-> Z -> Z  computed by hand), the
3-torus for the trivial circle bundle over T^2, and the degree-k nilmanifolds
over T^2 with H^2 = Z^2 + Z/k.
"""

import inspect
import re

import pytest

from tdk.errors import InputError, NotInSubgroupError
from matrices import array, scaled
from tdk.exact_linalg import GroupHom, compose, dense_vector, subquotient
from tdk.serialize import space_to_doc
from tdk.space_model import Cocycle, DgRingModel, builtin_space, parse_space, product_model
from tdk.torus_bundle import BundleModel, build_bundle

S2 = builtin_space("sphere", {"k": 2})
T2 = builtin_space("torus", {"k": 2})
T3 = builtin_space("torus", {"k": 3})
S1 = builtin_space("sphere", {"k": 1})


def circle_bundle_over_s2(k):
    return build_bundle(S2, [scaled(k, S2.basis_vector(2, 0))])


def nilmanifold(k):
    vol = T2.basis_vector(2, 0)
    return build_bundle(T2, [scaled(k, vol)])


# ---------------------------------------------------------------------------
# building


def test_chern_vector_guards():
    with pytest.raises(InputError):
        build_bundle(S2, [Cocycle(1, [0])])
    with pytest.raises(InputError):
        build_bundle(S2, [[1, 2]])  # wrong length
    with pytest.raises(InputError):
        build_bundle(S2, [])


def test_fiber_labels_are_primed_off_the_base_labels_and_round_trip():
    # T^2 whose generators carry the fiber's default labels
    base = DgRingModel([["1"], ["y1", "y2"], ["y1y2"]], {}, T2.product)
    m = build_bundle(base, [base.basis_vector(2, 0)] * 2)
    assert "basis" not in vars(m)  # the build makes no labels
    assert m.labels == ["y1", "y2"]
    assert m.basis[1] == ["y1'", "y2'", "y1", "y2"]
    assert m.basis[2][0] == "y1'y2'"
    labels = [x for level in m.basis for x in level]
    assert len(set(labels)) == len(labels)
    back = parse_space(space_to_doc(m))
    assert back.basis == m.basis
    assert back.betti() == m.betti()


@pytest.mark.parametrize("basis, first, second", [
    ([["1"], ["x", "x"]], (1, 0, ()), (1, 1, ())),  # two degree-1 elements read x
    ([["1"], ["x"], ["x"]], (1, 0, ()), (2, 0, ())),  # so do elements of degrees 1 and 2
])
def test_a_base_that_repeats_a_label_is_refused_on_first_read(basis, first, second):
    # a base model built directly, not parsed, may repeat a label
    base = DgRingModel(basis, {}, {})
    m = build_bundle(base, [base.zero_vector(2)] * 2)
    assert "basis" not in vars(m)  # the build makes no labels
    with pytest.raises(InputError, match=re.escape(f"{first} and {second} share the label")):
        m.basis


def test_the_doubled_model_labels_its_two_halves_from_its_split():
    side = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    dual = build_bundle(T2, [T2.basis_vector(2, 0)])
    doubled = BundleModel.doubled(side, dual)
    assert (side.split, side.labels) == (None, ["y1", "y2"])
    assert (doubled.split, doubled.labels) == (2, ["y1", "y2", "yh1"])
    assert doubled.basis[1][:3] == ["y1", "y2", "yh1"]
    assert doubled.basis[2][:3] == ["y1y2", "y1yh1", "y2yh1"]


def test_each_construction_has_one_route():
    from tdk.tduality_core import Triple, dualize

    assert list(inspect.signature(dualize).parameters) == ["pair"]
    assert list(inspect.signature(Triple).parameters) == ["side", "dual", "w"]
    assert list(inspect.signature(build_bundle).parameters) == ["base", "chern", "check"]
    assert list(inspect.signature(BundleModel).parameters) == ["base", "chern"]
    defaults = inspect.signature(BundleModel).parameters.values()
    assert [p.name for p in defaults if p.default is not p.empty] == []
    assert not hasattr(Triple, "with_data")


def test_nonclosed_chern_rejected():
    # in the nilmanifold model itself, z has degree 1; promote a non-closed
    # degree-2 check via a two-step model: d(a) = b with a in degree 2
    from tdk.space_model import DgRingModel

    M = DgRingModel([["1"], [], ["a"], ["b"]], {2: [[1]]}, {})
    with pytest.raises(InputError, match="^chern cocycle 0 is not closed$"):
        build_bundle(M, [M.basis_vector(2, 0)])


def test_total_model_d_squared_checked():
    m = circle_bundle_over_s2(3)
    for k in range(m.D - 1):
        comp = array(m.d_columns(k + 1), m.dim(k + 2)).dot(array(m.d_columns(k), m.dim(k + 1)))
        assert all(x == 0 for x in comp.flat)


def test_basis_ordered_by_filtration():
    m = nilmanifold(2)
    for k in range(m.D + 1):
        degs = [p for (p, _, _) in m.elements[k]]
        assert degs == sorted(degs)


# ---------------------------------------------------------------------------
# total cohomology: Hopf, lens spaces, nilmanifolds, Kuenneth


def test_hopf_bundle_gives_s3():
    m = circle_bundle_over_s2(1)
    assert [m.total_cohomology(k).invariants() for k in range(4)] == [
        (1, ()),
        (0, ()),
        (0, ()),
        (1, ()),
    ]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_lens_spaces(k):
    m = circle_bundle_over_s2(k)
    assert m.total_cohomology(1).invariants() == (0, ())
    assert m.total_cohomology(2).invariants() == (0, (k,))
    assert m.total_cohomology(3).invariants() == (1, ())


def test_trivial_circle_bundle_over_t2_is_t3():
    m = build_bundle(T2, [T2.zero_vector(2)])
    assert [m.total_cohomology(k).invariants()[0] for k in range(4)] == [1, 3, 3, 1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nilmanifold_h2(k):
    m = nilmanifold(k)
    expected = (2, ()) if k == 1 else (2, (k,))
    assert m.total_cohomology(2).invariants() == expected
    assert m.total_cohomology(1).invariants() == (2, ())
    assert m.total_cohomology(3).invariants() == (1, ())


def test_cohomology_and_total_cohomology_share_one_memo():
    m = build_bundle(T3, [T3.basis_vector(2, 0)])
    assert m.cohomology(3) is m.total_cohomology(3)
    assert m.total_cohomology(2) is m.cohomology(2)


def test_kuenneth_for_zero_chern():
    # H^k(total) matches the product model base x torus in every degree
    base = product_model(S2, S1)  # S^2 x S^1
    m = build_bundle(base, [base.zero_vector(2), base.zero_vector(2)])
    prod = product_model(base, builtin_space("torus", {"k": 2}), truncation=m.D)
    for k in range(m.D + 1):
        got = m.total_cohomology(k).invariants()
        want = prod.cohomology(k).invariants() if k <= prod.D else (0, ())
        assert got == want


# ---------------------------------------------------------------------------
# spectral sequence


def test_hopf_transgression_and_e3():
    m = circle_bundle_over_s2(1)
    e01 = m.ss_page(2, 0, 1)
    e20 = m.ss_page(2, 2, 0)
    assert e01.invariants() == (1, ())
    assert e20.invariants() == (1, ())
    y = m.element_vector(0, 0, (0,))
    image = e01.apply_d(y)
    expected = e20.reduce(m.pullback_to_total(Cocycle(2, m.chern[0])).vector)
    assert image == expected and image != e20.group.zero_nf()
    assert m.ss_page(3, 0, 1).invariants() == (0, ())


def test_transgression_formula_on_many_models():
    models = [
        circle_bundle_over_s2(1),
        circle_bundle_over_s2(2),
        nilmanifold(1),
        nilmanifold(3),
        build_bundle(T3, [T3.basis_vector(2, 0)]),
        build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
    ]
    for m in models:
        e01 = m.ss_page(2, 0, 1)
        e20 = m.ss_page(2, 2, 0)
        for i in range(m.n):
            y = m.element_vector(0, 0, (i,))
            assert e01.apply_d(y) == e20.reduce(
                m.pullback_to_total(Cocycle(2, m.chern[i])).vector
            )


def test_leibniz_on_page_two():
    models = [
        build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
        build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)]),
        build_bundle(S2, [S2.basis_vector(2, 0), scaled(2, S2.basis_vector(2, 0))]),
    ]
    for m in models:
        e02 = m.ss_page(2, 0, 2)
        e21 = m.ss_page(2, 2, 1)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                yij = m.element_vector(0, 0, (i, j))
                # d2(y_i y_j) = z_i (x) y_j - z_j (x) y_i
                zi = m.chern[i]
                zj = m.chern[j]
                expected_vec = m.zero_vector(3)
                for a in range(m.base.dim(2)):
                    if zi[a]:
                        expected_vec[m.index[3][(2, a, (j,))]] += zi[a]
                    if zj[a]:
                        expected_vec[m.index[3][(2, a, (i,))]] -= zj[a]
                assert e02.apply_d(yij) == e21.reduce(expected_vec)


def test_trivial_n2_bundle_over_s1_slot_survives():
    m = build_bundle(S1, [S1.zero_vector(2), S1.zero_vector(2)])
    e12 = m.ss_page(2, 1, 2)
    assert e12.invariants() == (1, ())
    d_in = m.ss_page(2, 1 - 2, 2 + 2 - 1).d_out
    assert e12.d_out.is_zero_hom() and d_in.is_zero_hom()
    assert m.infinity_page(1, 2).invariants() == (1, ())


def test_t3_base_transgression_nonzero():
    m = build_bundle(T3, [T3.basis_vector(2, 0)])  # d2(y) = [x1 x2]
    e01 = m.ss_page(2, 0, 1)
    y = m.element_vector(0, 0, (0,))
    assert e01.apply_d(y) != e01.d_out.target.zero_nf()


def test_dr_squared_zero_and_next_page_is_homology():
    m = nilmanifold(2)
    for r in [1, 2, 3]:
        for p in range(0, m.base.D + 1):
            for q in range(0, m.n + 1):
                page = m.ss_page(r, p, q)
                d_in = m.ss_page(r, p - r, q + r - 1).d_out
                # d_r o d_r = 0 where composable
                assert d_in.target.ngens == page.d_out.source.ngens
                comp = GroupHom(d_in.source, page.d_out.target,
                                compose(page.d_out.matrix, d_in.matrix))
                assert comp.is_zero_hom()
                # E_{r+1} = ker d_r / im d_r, slot by slot
                ker = page.d_out.kernel()
                nxt = subquotient(page.group, ker.gens, d_in.matrix)
                assert (
                    nxt.invariants()
                    == m.ss_page(r + 1, p, q).invariants()
                )


def test_convergence_matches_filtration_graded():
    for m in [circle_bundle_over_s2(2), nilmanifold(2)]:
        for k in range(min(m.D, 4) + 1):
            H = m.total_cohomology(k)
            for p in range(0, k + 1):
                # F^p H^k / F^{p+1} H^k via class coordinates
                def step(pp):
                    lattice = m.z_lattice(m.stable_page, pp, k - pp)
                    cols = [H.coords(dense_vector(col, m.dim(k))) for col in lattice]
                    return [{i: x for i, x in enumerate(c) if x} for c in cols]

                graded = subquotient(H.group, step(p), step(p + 1))
                assert graded.invariants() == m.infinity_page(p, k - p).invariants()


# ---------------------------------------------------------------------------
# filtration reports


def test_filtration_of_hopf_generator():
    m = circle_bundle_over_s2(1)
    gen = m.element_vector(2, 0, (0,))  # v2 . y
    for k in [1, 2, 5]:
        rep = m.filtration_report(Cocycle(3, scaled(k, gen)))
        assert not rep.is_zero and rep.p == 2
        base_rep = m.filtration_report(Cocycle(3, gen))
        assert rep.leading == tuple(k * x for x in base_rep.leading)
        assert rep.leading != (0,)


def test_filtration_of_volume_class_over_s1():
    m = build_bundle(S1, [S1.zero_vector(2), S1.zero_vector(2)])
    vol = m.element_vector(1, 0, (0, 1))  # x . y1 y2
    rep = m.filtration_report(Cocycle(3, vol))
    assert rep.p == 1
    assert not rep.is_zero
    assert m.infinity_page(1, 2).invariants() == (1, ())


def test_filtration_of_zero_class():
    m = circle_bundle_over_s2(2)
    rep = m.filtration_report(Cocycle(3, m.zero_vector(3)))
    assert rep.is_zero and rep.p is None
    # an exact cocycle is also the zero class
    some = m.basis_vector(2, 0)
    rep2 = m.filtration_report(Cocycle(3, m.d(2, some)))
    assert rep2.is_zero


def test_filtration_report_rejects_nonclosed():
    # the check, not a later step, refuses: callers that prove closedness skip it
    m = nilmanifold(1)
    y = m.element_vector(0, 0, (0,))
    with pytest.raises(InputError, match=r"^filtration_report needs a closed cochain$"):
        m.filtration_report(Cocycle(1, y))


# ---------------------------------------------------------------------------
# pullback and fiber restriction


def test_pullback_exactness_on_nilmanifold():
    m = nilmanifold(1)
    vol = Cocycle(2, T2.basis_vector(2, 0))
    pulled = m.pullback_to_total(vol)
    assert m.total_cohomology(2).is_zero(pulled.vector)


def test_pullback_injective_for_trivial_bundle():
    m = build_bundle(T2, [T2.zero_vector(2)])
    for k in range(3):
        H = T2.cohomology(k)
        for gen in H.generator_vectors():
            pulled = m.pullback_to_total(Cocycle(k, gen))
            assert not m.total_cohomology(k).is_zero(pulled.vector)


def test_fiber_restriction_picks_monomials():
    m = build_bundle(S1, [S1.zero_vector(2), S1.zero_vector(2)])
    v = [x + y for x, y in zip(m.element_vector(0, 0, (0, 1)), m.element_vector(1, 0, (1,)))]
    out = m.fiber_restriction(Cocycle(2, v))
    assert list(out) == [1]  # only the y1y2 monomial, base terms dropped
    assert m.monomials(2) == [(0, 1)]


# ---------------------------------------------------------------------------
# Gysin sequence consistency for circle bundles


@pytest.mark.parametrize("k", [2, 3])
def test_gysin_exactness(k):
    from tdk.exact_linalg import induced_hom

    m = circle_bundle_over_s2(k)
    base = m.base

    def cup_c(deg):
        return induced_hom(
            base.cohomology(deg),
            base.cohomology(deg + 2),
            lambda v, deg=deg: base.mul(deg, v, 2, m.chern[0]),
        )

    def pull(deg):
        return induced_hom(
            base.cohomology(deg),
            m.total_cohomology(deg),
            lambda v, deg=deg: m.pullback(deg, v),
        )

    def integrate(deg):
        def fn(v):
            out = base.zero_vector(deg - 1)
            for i, (p, a, S) in enumerate(m.elements[deg]):
                if S == (0,) and v[i]:
                    out[a] += (-1) ** p * v[i]
            return out

        return induced_hom(m.total_cohomology(deg), base.cohomology(deg - 1), fn)

    def contains(sub, x):
        try:
            sub.reduce(x)
        except NotInSubgroupError:
            return False
        return True

    def same_subgroup(a, b):
        return all(contains(b, g) for g in a.generator_vectors()) and all(
            contains(a, g) for g in b.generator_vectors()
        )

    for deg in range(1, 4):
        p_star = pull(deg)
        p_shriek = integrate(deg)
        # exactness at H^deg(F): ker(integrate) = im(pullback)
        assert same_subgroup(p_shriek.kernel(), p_star.image())
        if deg >= 2:
            # exactness at H^deg(B): ker(pullback) = im(cup with c)
            assert same_subgroup(p_star.kernel(), cup_c(deg - 2).image())
