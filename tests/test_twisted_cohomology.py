"""Twisted complexes, the duality transformation, and its isomorphism property.

Dimension fixtures derived by hand: over Q a k-fold (k != 0) degree-3 twist on
the S^3 model kills everything (multiplication H^0 -> H^3 is a rational
isomorphism), the untwisted S^3 has one class per parity, and S^2 x S^1
twisted by its degree-3 generator keeps exactly H^2 (even) and H^1 (odd).

``t_transform`` builds N . exp(-w) once over Z, grouped by side-fiber
monomial, multiplies each side element by the one group that reaches
y_1 ... y_n, and returns N . T.  Its oracle is ``reference_t_blocks``, which
walks x, w . x, w . (w . x), ... with dense basis-vector products and
Fraction coefficients.  ``assert_squares_to_zero`` is the D o D = 0 check
that TwistedComplex proves instead of running.
``verify_iso`` reads the rank of each induced map off one block matrix; its
oracle is ``reference_verify_iso``, a copy of the kernel-based loop it
replaced, on dense matrices.
"""

import functools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdk import twisted_cohomology
from tdk.errors import InputError
import numpy as np

from matrices import array, columns, scaled, vec, zeros
from tdk.exact_linalg import compose, dense_vector, kernel_basis, matrix_rank, smith_normal_form
from tdk.fixtures import PAIR_NAMES, named_pair
from tdk.space_model import Cocycle, DgRingModel, builtin_space
from tdk.tduality_core import (
    Pair,
    Triple,
    dualize,
    gauge_action,
    h3_action,
    is_dualizable,
    validate_triple,
)
from tdk.torus_bundle import build_bundle
from tdk.twisted_cohomology import (
    IsoReport,
    TMap,
    TwistedComplex,
    rational_kernel,
    rational_rank,
    t_transform,
    twisted_dims,
    verify_iso,
)

S2 = builtin_space("sphere", {"k": 2})
S3 = builtin_space("sphere", {"k": 3})
T2 = builtin_space("torus", {"k": 2})
T3 = builtin_space("torus", {"k": 3})
PT = builtin_space("point")


def s3_bundle():
    return build_bundle(S2, [S2.basis_vector(2, 0)])


def trivial_over(base, n=1):
    return build_bundle(base, [base.zero_vector(2)] * n)


# ---------------------------------------------------------------------------
# rational linear algebra helpers


def test_rational_rank_and_kernel():
    M = columns([[2, 4], [1, 2]])
    assert rational_rank([{0: 2, 1: 1}, {0: 4, 1: 2}]) == 1
    K = rational_kernel(M, 2)
    assert len(K) == 1
    v = K[0]
    assert 2 * v.get(0, 0) + 4 * v.get(1, 0) == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_block_rank_is_rank_d_plus_rank_of_t_on_ker_d_beside_b(data):
    """rank [[D, 0], [T, B]] = rank D + rank [T . ker D | B], the identity of verify_iso."""
    a, p, c, q = (data.draw(st.integers(0, 4)) for _ in range(4))

    def draw(rows, cols):
        return [[data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]

    D, T, B = draw(a, p), draw(c, p), draw(c, q)
    block = [row + [0] * q for row in D] + [t + b for t, b in zip(T, B)]
    block_columns = [{r: row[j] for r, row in enumerate(block) if row[j]} for j in range(p + q)]
    D, T, B = columns(D, p), array(columns(T, p), c), array(columns(B, q), c)
    TK = T.dot(array(kernel_basis(D, a), p))
    TK_B = columns(np.hstack([TK, B]), TK.shape[1] + q)
    want = smith_normal_form(D, a).rank + smith_normal_form(TK_B, c).rank
    assert matrix_rank(block_columns) == want


# ---------------------------------------------------------------------------
# twisted dimensions


def test_s3_twisted_dims():
    m = s3_bundle()
    gen = m.element_vector(2, 0, (0,))
    assert twisted_dims(m, m.zero_vector(3)) == (1, 1)
    for k in [1, 2, 5, -3]:
        assert twisted_dims(m, scaled(k, gen)) == (0, 0)


def test_s2xs1_twisted_dims():
    m = trivial_over(S2)
    gen = m.element_vector(2, 0, (0,))
    assert twisted_dims(m, m.zero_vector(3)) == (2, 2)
    assert twisted_dims(m, gen) == (1, 1)


def test_twisted_complex_requires_closed_degree3():
    m = trivial_over(T2)
    with pytest.raises(InputError):
        twisted_dims(m, Cocycle(2, m.zero_vector(2)))


def test_twisted_complex_refuses_a_twist_that_is_not_closed():
    m = build_bundle(T3, [T3.basis_vector(2, 0), T3.zero_vector(2)])
    z = next(
        m.basis_vector(3, j) for j in range(m.dim(3))
        if not m.is_closed(3, m.basis_vector(3, j))
    )
    with pytest.raises(InputError, match="twisting cocycle must be closed of degree 3"):
        twisted_dims(m, z)


def test_lens_space_twisted_dims():
    m = build_bundle(S2, [scaled(2, S2.basis_vector(2, 0))])  # L(2,1)
    gen = m.element_vector(2, 0, (0,))
    # untwisted: rational Betti of L(2,1) = (1,0,0,1)
    assert twisted_dims(m, m.zero_vector(3)) == (1, 1)
    assert twisted_dims(m, gen) == (0, 0)


# ---------------------------------------------------------------------------
# the transformation


def test_point_base_transformation_is_parity_swapping_iso():
    t = dualize(Pair(trivial_over(PT), Cocycle(3, trivial_over(PT).zero_vector(3))))
    tm = t_transform(t)
    assert tm.parity_shift == 1
    assert tm.is_chain_map()
    report = verify_iso(t)
    assert report.ok
    assert report.dims_side == (1, 1) and report.dims_dual == (1, 1)


def test_hopf_zero_flux_duality():
    # (S^3, 0) <-> (S^2 x S^1, generator): (1,1) on both sides, parities swap
    pair = Pair(s3_bundle(), Cocycle(3, s3_bundle().zero_vector(3)))
    m = s3_bundle()
    pair = Pair(m, Cocycle(3, m.zero_vector(3)))
    t = dualize(pair)
    # the dual side is the trivial bundle with one unit of flux
    assert all(x == 0 for x in t.dual.bundle.chern[0])
    assert not t.dual.bundle.total_cohomology(3).is_zero(t.dual.flux.vector)
    report = verify_iso(t)
    assert report.ok
    assert report.dims_side == (1, 1) and report.dims_dual == (1, 1)


def test_hopf_flux_duality_rationally_trivial():
    for k in [1, 2, 3]:
        m = s3_bundle()
        t = dualize(Pair(m, Cocycle(3, scaled(k, m.element_vector(2, 0, (0,))))))
        report = verify_iso(t)
        assert report.ok
        assert report.dims_side == (0, 0) and report.dims_dual == (0, 0)


def test_chain_identity_exact_on_shipped_triples():
    triples = [
        dualize(Pair(s3_bundle(), Cocycle(3, scaled(2, s3_bundle().element_vector(2, 0, (0,)))))),
        dualize(
            Pair(trivial_over(T2), Cocycle(3, trivial_over(T2).element_vector(2, 0, (0,))))
        ),
        dualize(Pair(trivial_over(T3), Cocycle(3, trivial_over(T3).zero_vector(3)))),
        dualize(
            Pair(
                build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
                Cocycle(
                    3,
                    scaled(2, build_bundle(
                        T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]
                    ).element_vector(2, 0, (1,))),
                ),
            )
        ),
    ]
    for t in triples:
        tm = t_transform(t)
        defect = tm.chain_defect()
        for par in (0, 1):
            assert all(not col for col in defect[par])
        assert verify_iso(t).ok


def test_t3_to_nilmanifold_iso():
    m = trivial_over(T2)
    for k in [1, 2]:
        t = dualize(Pair(m, Cocycle(3, scaled(k, m.element_vector(2, 0, (0,))))))
        report = verify_iso(t)
        assert report.ok
        # twisted dimensions match across the duality with a parity swap (n=1)
        ds, dd = report.dims_side, report.dims_dual
        assert ds == (dd[1], dd[0])


def test_corrupted_w_reported_with_reason():
    m = s3_bundle()
    t = dualize(Pair(m, Cocycle(3, m.element_vector(2, 0, (0,)))))
    bad = Triple(t.side, t.dual, scaled(2, t.w))
    with pytest.raises(InputError):
        t_transform(bad)


def test_h3_action_preserves_duality_and_euler_characteristic():
    # the twisted dimensions themselves move with the twist class (they must:
    # an S^3 base with zero vs. generator twist gives (2,2) vs. (0,0)); what
    # is invariant is the twisted Euler characteristic on each side, and the
    # duality matching between the two sides of the acted triple
    m = trivial_over(T3)
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    alpha = Cocycle(3, T3.basis_vector(3, 0))
    moved = h3_action(t, alpha)
    assert validate_triple(moved).ok

    def euler(pair):
        e, o = twisted_dims(pair.bundle, pair.flux.vector)
        return e - o

    assert euler(t.side) == euler(moved.side)
    assert euler(t.dual) == euler(moved.dual)
    report = verify_iso(moved)
    assert report.ok
    shift = t.n % 2
    ds, dd = report.dims_side, report.dims_dual
    assert ds == (dd[shift], dd[1 - shift])


def _perturbed(tm):
    """tm with 1 added to one entry of N . T that the target differential reads."""
    for par in (0, 1):
        dcols = tm.target.D_from[(par + tm.parity_shift) % 2]
        block = tm.blocks[par]
        for i in range(len(dcols)):
            if block and dcols[i]:
                blocks = {p: [dict(col) for col in b] for p, b in tm.blocks.items()}
                blocks[par][0][i] = blocks[par][0].get(i, 0) + 1
                return TMap(tm.source, tm.target, tm.parity_shift, blocks, tm.scale)
    raise AssertionError("no entry of T reaches the target differential")


def test_perturbed_transformation_is_not_a_chain_map(monkeypatch):
    m = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    bad = _perturbed(t_transform(t))
    assert not bad.is_chain_map()
    assert any(any(col for col in d) for d in bad.chain_defect().values())

    unperturbed = twisted_cohomology.t_transform
    monkeypatch.setattr(twisted_cohomology, "t_transform", lambda t: _perturbed(unperturbed(t)))
    report = verify_iso(t)
    assert report == reference_verify_iso(t)
    assert not report.ok
    assert report.chain_ok is False
    assert report.reason == "chain-map identity fails at the cochain level"


def test_n2_triple_transformation():
    m = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    tm = t_transform(t)
    assert tm.parity_shift == 0
    assert tm.is_chain_map()
    assert verify_iso(t).ok


# ---------------------------------------------------------------------------
# oracle: the Fraction-based transformation that t_transform replaced


def _reference_left_mult(m, deg_z, z, k):
    """Matrix of x -> z . x from degree k to degree k + deg_z, one basis vector at a time."""
    out = zeros(m.dim(k + deg_z), m.dim(k))
    for j in range(m.dim(k)):
        col = m.mul(deg_z, z, k, m.basis_vector(k, j))
        for i in range(m.dim(k + deg_z)):
            out[i, j] = col[i]
    return out


def _reference_integration(t, k):
    """C^k(doubled) -> C^{k-n}(dual side): coefficient of y_1 ... y_n."""
    n = t.n
    dual = t.dual.bundle
    out = zeros(dual.dim(k - n), t.doubled.dim(k))
    full = tuple(range(n))
    for col, (p, a, M) in enumerate(t.doubled.basis_elements(k)):
        if M[:n] != full:
            continue
        T = tuple(i - n for i in M[n:])
        out[dual.index[k - n][(p, a, T)], col] = -1 if (n * p) % 2 else 1
    return out


def reference_t_blocks(t, side, dual):
    """The blocks of T with Fraction entries, laid out as in ``side`` and ``dual``."""
    n = t.n
    doubled = t.doubled
    lw = {k: _reference_left_mult(doubled, 2, t.w, k) for k in range(doubled.D + 1)}
    blocks = {}
    for par in (0, 1):
        tgt_par = (par + n) % 2
        out = zeros(dual.dims[tgt_par], side.dims[par])
        for k in side.degrees[par]:
            src_off = side.offsets[par][k]
            embed = t.embed_side_matrix(k)
            for j in range(t.side.bundle.dim(k)):
                cur = vec(dense_vector(embed[j], doubled.dim(k)))
                deg, mfac = k, 0
                while deg <= doubled.D:
                    if 0 <= deg - n <= t.dual.bundle.D:
                        scalar = Fraction((-1) ** mfac, math.factorial(mfac))
                        proj = _reference_integration(t, deg).dot(cur)
                        off = dual.offsets[tgt_par][deg - n]
                        for i, x in enumerate(proj):
                            if x:
                                out[off + i, src_off + j] += scalar * x
                    if deg + 2 > doubled.D:
                        break
                    cur = lw[deg].dot(cur)
                    deg += 2
                    mfac += 1
                    if not any(cur):
                        break
        blocks[par] = out
    return blocks


def assert_squares_to_zero(complex_):
    """D o D = 0 by ``compose``: the check that TwistedComplex leaves to its proof."""
    for par in (0, 1):
        assert not any(compose(complex_.D_from[1 - par], complex_.D_from[par]))


def assert_matches_reference(t):
    tm = t_transform(t)
    assert_squares_to_zero(tm.source)
    assert_squares_to_zero(tm.target)
    assert tm.scale == math.factorial(t.doubled.D // 2)
    ref = reference_t_blocks(t, tm.source, tm.target)
    for par in (0, 1):
        block = array(tm.blocks[par], tm.target.dims[(par + tm.parity_shift) % 2])
        assert block.shape == ref[par].shape
        for got, want in zip(block.flat, ref[par].flat):
            assert got == tm.scale * want
    for cols in [*tm.blocks.values(), *tm.source.D_from.values(), *tm.target.D_from.values()]:
        assert all(type(x) is int for col in cols for x in col.values())
    return tm


DUALIZABLE = [name for name in PAIR_NAMES if is_dualizable(named_pair(name))[0]]


@pytest.mark.parametrize("name", DUALIZABLE)
def test_t_transform_is_scale_times_reference_on_fixture_pairs(name):
    t = dualize(named_pair(name))
    assert_matches_reference(t)
    assert verify_iso(t) == reference_verify_iso(t)


@pytest.mark.parametrize("name", DUALIZABLE)
def test_verify_iso_ranks_m_with_no_smith_form_on_fixture_duals(monkeypatch, name):
    from tdk import exact_linalg

    t = dualize(named_pair(name))
    factored, ranked = [], []

    def counted_snf(columns, rows):
        factored.append((columns, rows))
        return smith_normal_form(columns, rows)

    def counted_rank(columns):
        before = len(factored)
        rank = rational_rank(columns)
        if sys._getframe(1).f_code.co_name == "verify_iso":  # a rank of M
            ranked.append(len(factored) - before)
        return rank

    monkeypatch.setattr(exact_linalg, "smith_normal_form", counted_snf)
    monkeypatch.setattr(twisted_cohomology, "rational_rank", counted_rank)
    assert verify_iso(t).ok
    assert ranked == [0, 0]


def test_verify_iso_ranks_m_as_if_t_were_not_divided(monkeypatch):
    """Each rank of M equals that of the undivided M, on T blocks with a common factor.

    Source and target are one twisted complex over S^2 with d y1 = d y2 = x.
    T keeps parity and is 2 times the identity on even cochains, so the even
    induced map is bijective and ``verify_iso`` goes on to the odd block.
    There T sends y1 to 4 y1 and y2 to 2 y1 first: M then holds the
    docstring's counterexample, whose rank a per-column division would
    drop.  Random odd blocks with a common factor follow.
    """
    m = build_bundle(S2, [S2.basis_vector(2, 0)] * 2)
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    C = TwistedComplex(m, m.zero_vector(3))
    assert C.D_from[1][:2] == [{2: 1}, {2: 1}]  # d y1 = d y2 = x
    rng = random.Random(0)
    odd_blocks = [[{0: 4}, {0: 2}] + [{}] * (C.dims[1] - 2)] + [
        [
            {r: g * x for r in range(2) if (x := rng.randint(-2, 2))}  # rank-deficient T
            for _ in range(C.dims[1])
        ]
        for g in (rng.choice([1, 2, 3, 6]) for _ in range(20))
    ]
    ranked = []

    def counted_rank(columns):
        rank = rational_rank(columns)
        if sys._getframe(1).f_code.co_name == "verify_iso":  # a rank of M
            ranked.append(rank)
        return rank

    monkeypatch.setattr(twisted_cohomology, "rational_rank", counted_rank)
    monkeypatch.setattr(TMap, "is_chain_map", lambda self: True)  # ranks for any T
    for odd in odd_blocks:
        blocks = {0: [{i: 2} for i in range(C.dims[0])], 1: odd}
        monkeypatch.setattr(twisted_cohomology, "t_transform",
                            lambda t: TMap(C, C, 0, blocks, 1))
        ranked.clear()
        verify_iso(t)
        want = []
        for par in (0, 1):
            below = C.dims[1 - par]
            M = [
                {**d_col, **{below + r: x for r, x in t_col.items()}}
                for d_col, t_col in zip(C.D_from[par], blocks[par])
            ] + [{below + r: x for r, x in col.items()} for col in C.D_from[1 - par]]
            want.append(matrix_rank(M))
        assert ranked == want


def test_verify_iso_matches_the_reference_on_h3_acted_triples():
    acted = 0
    for name in DUALIZABLE:
        t = dualize(named_pair(name))
        for v in t.base.cohomology(3).generator_vectors():  # none over S^2, T^2 or a point
            moved = h3_action(t, Cocycle(3, [2 * x for x in v]))
            assert validate_triple(moved).ok
            assert verify_iso(moved) == reference_verify_iso(moved)
            acted += 1
    assert acted == 3


def gauge_acted_triple(n, psis, psihats):
    """A gauge action over T^3 on the dual of a zero-flux bundle, by the degree-1
    basis classes of these indices (3 is zero); its w is not the standard one."""
    m = build_bundle(T3, [T3.basis_vector(2, 0)] + [T3.zero_vector(2)] * (n - 1))
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    x = [T3.basis_vector(1, i) for i in range(3)] + [T3.zero_vector(1)]
    return gauge_action(t, [x[i] for i in psis], [x[i] for i in psihats])


GAUGE_CASES = {
    "gauge_n1": (1, [0], [1]),
    "gauge_n1_hat_only": (1, [3], [2]),
    "gauge_n2": (2, [0, 2], [1, 3]),
    "gauge_n2_both": (2, [1, 0], [2, 1]),
}


@pytest.mark.parametrize("name", sorted(GAUGE_CASES))
def test_t_transform_is_scale_times_reference_on_a_gauge_acted_triple(name):
    moved = gauge_acted_triple(*GAUGE_CASES[name])
    assert moved.w != moved.standard_w()
    assert validate_triple(moved).ok
    assert_matches_reference(moved)
    assert verify_iso(moved).ok


@pytest.mark.parametrize("name", sorted(GAUGE_CASES))
def test_verify_iso_matches_the_reference_on_gauge_acted_triples(name):
    moved = gauge_acted_triple(*GAUGE_CASES[name])
    assert verify_iso(moved) == reference_verify_iso(moved)
    psis = [[2 * x for x in T3.basis_vector(1, i % 3)] for i in range(moved.n)]
    psihats = [[2 * x for x in T3.basis_vector(1, (i + 1) % 3)] for i in range(moved.n)]
    twice = gauge_action(moved, psis, psihats)
    assert verify_iso(twice) == reference_verify_iso(twice)


def test_t_transform_over_a_point_with_8_circles_takes_under_80_ms():
    seconds = []
    for _ in range(3):  # the best of three, each on a fresh triple
        m = trivial_over(PT, 8)
        t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
        start = time.perf_counter()
        t_transform(t)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.08


# ---------------------------------------------------------------------------
# Hori's formula as an oracle: with w = sum_i y_i yh_i, (-w)^m / m! is
# (-1)^m times the sum over m-element sets I of prod_(i in I) y_i yh_i, so
# exp(-w) b y_S reaches y_1 ... y_n in exactly one term, from I = S^c.  N . T
# therefore sends the side element b y_S to +-N b yh_(S^c) and nowhere else.


SIGMA2 = builtin_space("surface", {"genus": 2})
HEIS1 = builtin_space("heisenberg", {"k": 1})
HEIS2 = builtin_space("heisenberg", {"k": 2})
# bundles besides the fixture pairs': (base, chern as the index of a degree-2
# basis element or None for zero, flux as {(p, a, S): coeff})
HORI_BUNDLES = {
    "t3_n2": (T3, [0, 1], {(2, 2, (0,)): 1}),
    "surface2_n2": (SIGMA2, [0, None], {(2, 0, (1,)): 1}),
    "heisenberg1_n2": (HEIS1, [1, 2], {(2, 1, (1,)): 1, (3, 0, ()): 1}),
    "t3_n2_trivial": (T3, [None, None], {(2, 0, (0,)): 1, (2, 1, (1,)): 1, (3, 0, ()): 1}),
    "surface2_n2_trivial": (SIGMA2, [None, None], {(2, 0, (0,)): 1}),
    "heisenberg2_n2_trivial": (HEIS2, [None, None], {(2, 2, (0,)): 1}),
    "t2_n3": (T2, [0, None, None], {(2, 0, (1,)): 1}),
}


def hori_pair(name):
    """The fixture pair of this name, or the pair that ``HORI_BUNDLES`` describes."""
    if name not in HORI_BUNDLES:
        return named_pair(name)
    base, chern, flux = HORI_BUNDLES[name]
    chern = [base.zero_vector(2) if a is None else base.basis_vector(2, a) for a in chern]
    m = build_bundle(base, chern)
    vec = m.zero_vector(3)
    for e, x in flux.items():
        vec[m.index[3][e]] += x
    return Pair(m, Cocycle(3, vec))


@pytest.mark.parametrize("name", DUALIZABLE + sorted(HORI_BUNDLES))
def test_t_transform_follows_horis_formula_for_the_standard_w(name):
    t = dualize(hori_pair(name))
    assert t.w == t.standard_w()
    tm = t_transform(t)
    assert tm.scale == math.factorial(t.doubled.D // 2)
    n, dual_index = t.n, t.dual.bundle.index
    for par in (0, 1):
        offsets = tm.target.offsets[(par + n) % 2]
        columns_of = iter(tm.blocks[par])
        for k in tm.source.degrees[par]:
            for p, a, S in t.side.bundle.elements[k]:
                rest = tuple(i for i in range(n) if i not in S)
                deg = p + len(rest)
                row = offsets[deg] + dual_index[deg][(p, a, rest)]
                col = next(columns_of)
                assert list(col) == [row] and abs(col[row]) == tm.scale, (p, a, S)


CP2 = DgRingModel([["1"], [], ["b"], [], ["b2"]], {}, {(2, 0, 2, 0): {0: 1}})


@pytest.mark.parametrize("c, dims", [(0, (3, 3)), (1, (1, 1))])
def test_t_transform_over_cp2_with_w_plus_base_class(c, dims):
    # w + pi*(b) is still a correspondence cochain, and (w + pi*(b))^2 / 2
    # carries b . b / 2: T has half-integer entries, N . T does not
    m = build_bundle(CP2, [[c]])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    w = [x + y for x, y in zip(t.w, t.doubled.element_vector(2, 0, ()))]
    t = Triple(t.side, t.dual, w)
    assert validate_triple(t).ok
    tm = assert_matches_reference(t)
    ref = reference_t_blocks(t, tm.source, tm.target)
    assert any(Fraction(x).denominator == 2 for b in ref.values() for x in b.flat)
    assert tm.is_chain_map()
    report = verify_iso(t)
    assert report.ok and report.chain_ok
    assert report.dims_side == dims


# ---------------------------------------------------------------------------
# oracle: the kernel-based rank loop that verify_iso replaced


def reference_verify_iso(t):
    """verify_iso with a kernel basis of D_side, the product T . K and a stacked rank."""
    tm = twisted_cohomology.t_transform(t)
    dims_side = tm.source.cohomology_dims()
    dims_dual = tm.target.cohomology_dims()
    report = functools.partial(IsoReport, dims_side=dims_side, dims_dual=dims_dual)
    if not tm.is_chain_map():
        return report(ok=False, chain_ok=False,
                      reason="chain-map identity fails at the cochain level")
    for par in (0, 1):
        tgt = (par + tm.parity_shift) % 2
        block = array(tm.blocks[par], tm.target.dims[tgt])
        d_dual = array(tm.target.D_from[1 - tgt], tm.target.dims[tgt])
        K = kernel_basis(tm.source.D_from[par], tm.source.dims[1 - par])
        TK = block.dot(array(K, tm.source.dims[par]))
        TK_B = columns(np.hstack([TK, d_dual]), TK.shape[1] + d_dual.shape[1])
        induced_rank = (smith_normal_form(TK_B, tm.target.dims[tgt]).rank
                        - smith_normal_form(tm.target.D_from[1 - tgt], tm.target.dims[tgt]).rank)
        if induced_rank != dims_side[par]:
            return report(ok=False, chain_ok=True,
                          reason=f"induced map not injective on parity {par}")
        if induced_rank != dims_dual[tgt]:
            return report(ok=False, chain_ok=True,
                          reason=f"induced map not surjective on parity {par}")
    return report(ok=True, chain_ok=True, reason="")


def _zero_map(source, target, parity_shift):
    """The zero chain map between two twisted complexes."""
    blocks = {par: [{} for _ in range(source.dims[par])] for par in (0, 1)}
    return TMap(source=source, target=target, parity_shift=parity_shift, blocks=blocks, scale=1)


def test_zero_map_between_nonzero_twisted_cohomologies_is_not_injective(monkeypatch):
    t = dualize(Pair(s3_bundle(), Cocycle(3, s3_bundle().zero_vector(3))))
    tm = t_transform(t)
    zero = _zero_map(tm.source, tm.target, tm.parity_shift)
    monkeypatch.setattr(twisted_cohomology, "t_transform", lambda t: zero)
    report = verify_iso(t)
    assert report == reference_verify_iso(t)
    assert (report.dims_side, report.dims_dual) == ((1, 1), (1, 1))
    assert not report.ok and report.chain_ok
    assert report.reason == "induced map not injective on parity 0"


def test_zero_map_onto_nonzero_twisted_cohomology_is_not_surjective(monkeypatch):
    m = s3_bundle()
    source = TwistedComplex(m, scaled(2, m.element_vector(2, 0, (0,))))
    target = TwistedComplex(m, m.zero_vector(3))
    zero = _zero_map(source, target, 1)
    monkeypatch.setattr(twisted_cohomology, "t_transform", lambda t: zero)
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    report = verify_iso(t)
    assert report == reference_verify_iso(t)
    assert (report.dims_side, report.dims_dual) == ((0, 0), (1, 1))
    assert not report.ok and report.chain_ok
    assert report.reason == "induced map not surjective on parity 0"

