"""Twisted complexes, the duality transformation, and its isomorphism property.

Dimension fixtures derived by hand: over Q a k-fold (k != 0) degree-3 twist on
the S^3 model kills everything (multiplication H^0 -> H^3 is a rational
isomorphism), the untwisted S^3 has one class per parity, and S^2 x S^1
twisted by its degree-3 generator keeps exactly H^2 (even) and H^1 (odd).
"""

import dataclasses
from fractions import Fraction

import pytest

from tdk import twisted_cohomology
from tdk.errors import InputError
from tdk.exact_linalg import intvec
from tdk.space_model import Cocycle, builtin_space
from tdk.tduality_core import (
    Pair,
    Triple,
    dualize,
    h3_action,
    validate_triple,
)
from tdk.torus_bundle import build_bundle
from tdk.twisted_cohomology import (
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
    from tdk.exact_linalg import intmat

    M = intmat([[2, 4], [1, 2]])
    assert rational_rank(M) == 1
    K = rational_kernel(M)
    assert K.shape[1] == 1
    v = K[:, 0]
    assert 2 * v[0] + 4 * v[1] == 0


# ---------------------------------------------------------------------------
# twisted dimensions


def test_s3_twisted_dims():
    m = s3_bundle()
    gen = m.element_vector(2, 0, (0,))
    assert twisted_dims(m, m.zero_vector(3)) == (1, 1)
    for k in [1, 2, 5, -3]:
        assert twisted_dims(m, k * gen) == (0, 0)


def test_s2xs1_twisted_dims():
    m = trivial_over(S2)
    gen = m.element_vector(2, 0, (0,))
    assert twisted_dims(m, m.zero_vector(3)) == (2, 2)
    assert twisted_dims(m, gen) == (1, 1)


def test_twisted_complex_requires_closed_degree3():
    m = trivial_over(T2)
    with pytest.raises(InputError):
        twisted_dims(m, Cocycle(2, m.zero_vector(2)))


def test_lens_space_twisted_dims():
    m = build_bundle(S2, [2 * S2.basis_vector(2, 0)])  # L(2,1)
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
        t = dualize(Pair(m, Cocycle(3, k * m.element_vector(2, 0, (0,)))))
        report = verify_iso(t)
        assert report.ok
        assert report.dims_side == (0, 0) and report.dims_dual == (0, 0)


def test_chain_identity_exact_on_shipped_triples():
    triples = [
        dualize(Pair(s3_bundle(), Cocycle(3, 2 * s3_bundle().element_vector(2, 0, (0,))))),
        dualize(
            Pair(trivial_over(T2), Cocycle(3, trivial_over(T2).element_vector(2, 0, (0,))))
        ),
        dualize(Pair(trivial_over(T3), Cocycle(3, trivial_over(T3).zero_vector(3)))),
        dualize(
            Pair(
                build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
                Cocycle(
                    3,
                    2
                    * build_bundle(
                        T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]
                    ).element_vector(2, 0, (1,)),
                ),
            )
        ),
    ]
    for t in triples:
        tm = t_transform(t)
        defect = tm.chain_defect()
        for par in (0, 1):
            assert all(x == 0 for x in defect[par].flat)
        assert verify_iso(t).ok


def test_t3_to_nilmanifold_iso():
    m = trivial_over(T2)
    for k in [1, 2]:
        t = dualize(Pair(m, Cocycle(3, k * m.element_vector(2, 0, (0,)))))
        report = verify_iso(t)
        assert report.ok
        # twisted dimensions match across the duality with a parity swap (n=1)
        ds, dd = report.dims_side, report.dims_dual
        assert ds == (dd[1], dd[0])


def test_corrupted_w_reported_with_reason():
    m = s3_bundle()
    t = dualize(Pair(m, Cocycle(3, m.element_vector(2, 0, (0,)))))
    bad = Triple(t.side, t.dual, 2 * t.w, doubled=t.doubled)
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
    """tm with 1/2 added to one T entry that the target differential reads."""
    for par in (0, 1):
        dmat = tm.target.D_from[(par + tm.parity_shift) % 2]
        block = tm.blocks[par]
        for i in range(block.shape[0]):
            if block.shape[1] and any(x != 0 for x in dmat[:, i]):
                blocks = {p: b.copy() for p, b in tm.blocks.items()}
                blocks[par][i, 0] += Fraction(1, 2)
                return dataclasses.replace(tm, blocks=blocks)
    raise AssertionError("no entry of T reaches the target differential")


def test_perturbed_transformation_is_not_a_chain_map(monkeypatch):
    m = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    bad = _perturbed(t_transform(t))
    assert not bad.is_chain_map()
    assert any(any(x != 0 for x in d.flat) for d in bad.chain_defect().values())

    unperturbed = twisted_cohomology.t_transform
    monkeypatch.setattr(twisted_cohomology, "t_transform", lambda t: _perturbed(unperturbed(t)))
    report = verify_iso(t)
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
