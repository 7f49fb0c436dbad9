"""Oracles for reusing one Smith factorization across many right-hand sides.

The list-based elimination kernel factors each matrix once; callers then
solve against the stored ``SmithForm``.  These properties pin that shortcut
to independent references: sympy's Smith normal form for the invariants,
the defining identities for the transforms, and a fresh one-shot ``solve``
for every reused solve.  ``invariant_factors``, which splits off unit pivots
before it calls the kernel, is held to the same two diagonals.  Matrices
include empty shapes and zero rows and
columns; entries stay small because the pivot rule lets coefficients of the
transforms grow quickly on dense matrices.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdk.exact_linalg import (
    eye,
    intmat,
    intvec,
    invariant_factors,
    mat_eq,
    smith_normal_form,
    solve,
    zeros,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def int_matrices(draw, max_side=5, entries=st.integers(-5, 5)):
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    # zero out a whole row and a whole column now and then
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return intmat(rows, rows=m, cols=n) if m and n else zeros(m, n)


# sparse +-1 matrices, the shape of simplicial coboundaries
sign_matrices = int_matrices(max_side=8, entries=st.sampled_from([0, 0, 0, 1, -1]))
matrices = st.one_of(int_matrices(), sign_matrices)


@SETTINGS
@given(matrices)
def test_diagonal_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m, n = M.shape
    sf = smith_normal_form(M)
    if min(m, n) == 0:
        assert sf.diagonal == []
        return
    S = sympy_snf(sympy.Matrix(M.tolist()), domain=sympy.ZZ)
    assert sf.diagonal == [abs(int(S[i, i])) for i in range(min(m, n))]


@SETTINGS
@given(matrices)
def test_invariant_factors_match_both_smith_forms(M):
    """The unit-pivot elimination gives the nonzero Smith diagonal."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m, n = M.shape
    got = invariant_factors([{r: int(M[r, c]) for r in range(m) if M[r, c]} for c in range(n)])
    assert got == [d for d in smith_normal_form(M).diagonal if d]
    if min(m, n):
        S = sympy_snf(sympy.Matrix(M.tolist()), domain=sympy.ZZ)
        assert got == [abs(int(S[i, i])) for i in range(min(m, n)) if S[i, i]]


@SETTINGS
@given(matrices)
def test_transforms_and_inverses(M):
    m, n = M.shape
    sf = smith_normal_form(M)
    for name in ("U", "D", "V", "Uinv", "Vinv"):
        assert getattr(sf, name).ndim == 2
    assert sf.D.shape == (m, n)
    assert mat_eq(sf.U.dot(M).dot(sf.V), sf.D)
    assert mat_eq(sf.U.dot(sf.Uinv), eye(m))
    assert mat_eq(sf.V.dot(sf.Vinv), eye(n))


@SETTINGS
@given(matrices, st.data())
def test_reused_solve_matches_fresh_solve(M, data):
    m, n = M.shape
    sf = smith_normal_form(M)
    small = st.integers(-4, 4)
    for _ in range(6):
        if n and data.draw(st.booleans()):
            # solvable by construction
            x = intvec(data.draw(st.lists(small, min_size=n, max_size=n)))
            b = M.dot(x) if m else intvec([], length=0)
        else:
            b = intvec(data.draw(st.lists(small, min_size=m, max_size=m)), length=m)
        reused, fresh = sf.solve(b), solve(M, b)
        if fresh is None:
            assert reused is None
        else:
            assert reused is not None and reused.tolist() == fresh.tolist()
            assert M.dot(reused).tolist() == b.tolist()


# U and V fix every particular solution and normal-form coordinate that
# reaches a report, so the pivot rule (first entry of least absolute value,
# row-major) is pinned on matrices whose pivots are not all units.
FROZEN = [
    ([[4, 6], [3, 2]], [1, 10], [[0, 1], [1, 2]], [[1, -2], [-1, 3]]),
    (
        [[0, 6, 4], [9, 0, 3], [2, 8, 0]],
        [1, 2, 162],
        [[0, 1, -4], [2, -2, 9], [3, -4, 18]],
        [[1, -3, 158], [0, 0, 1], [0, 1, -42]],
    ),
    (
        [[2, 0, 1], [0, 2, 1], [3, 3, 0]],
        [1, 1, 12],
        [[1, 0, 0], [1, -1, 1], [3, -3, 2]],
        [[0, 0, 1], [0, 1, -5], [1, 0, -2]],
    ),
]


@pytest.mark.parametrize("M, diagonal, U, V", FROZEN)
def test_pivot_order_is_frozen(M, diagonal, U, V):
    sf = smith_normal_form(intmat(M))
    assert sf.diagonal == diagonal
    assert sf.U.tolist() == U
    assert sf.V.tolist() == V
