"""Oracles for reusing one Smith factorization across many right-hand sides.

The sparse-row elimination kernel factors each matrix once; callers then
solve against the stored ``SmithForm``.  These properties pin that shortcut
to independent references: sympy's Smith normal form for the invariants,
the defining identities for the transforms, and a fresh one-shot ``solve``
for every reused solve.  ``invariant_factors``, which splits off unit pivots
before it calls the kernel, is held to the same two diagonals, and
``matrix_rank``, which counts its factors, to sympy's rank; a one-row or
one-column leftover of its unit pivots, which it reads as a gcd, to both
Smith diagonals.  The pivot path itself is held to
``matrices.reference_smith``, the dense kernel the
sparse one replaced: the same diagonal, U and V on every draw.  Matrices
include empty shapes and zero rows and columns; entries stay small because the pivot rule lets coefficients of the
transforms grow quickly on dense matrices.  Each is drawn as its sparse
columns and its row count, the form ``tdk`` takes; the checks multiply the
numpy views of the factors.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from matrices import array, columns, reference_smith, vec
from tdk import exact_linalg
from tdk.errors import DimensionError
from tdk.exact_linalg import (
    _block_factors,
    identity,
    invariant_factors,
    matrix_rank,
    smith_normal_form,
    solve,
    unimodular_inverse,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


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
    cols = [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(n)]
    return cols, m


# sparse +-1 matrices, the shape of simplicial coboundaries
sign_matrices = int_matrices(max_side=8, entries=st.sampled_from([0, 0, 0, 1, -1]))
matrices = st.one_of(int_matrices(), sign_matrices)


@SETTINGS
@given(matrices)
def test_diagonal_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    cols, m = M
    n = len(cols)
    M = array(cols, m)
    sf = smith_normal_form(cols, m)
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

    columns, m = M
    n = len(columns)
    M = array(columns, m)
    got = invariant_factors(columns)
    assert got == [d for d in smith_normal_form(columns, m).diagonal if d]
    if min(m, n):
        S = sympy_snf(sympy.Matrix(M.tolist()), domain=sympy.ZZ)
        assert got == [abs(int(S[i, i])) for i in range(min(m, n)) if S[i, i]]
    assert matrix_rank(columns) == (sympy.Matrix(M.tolist()).rank() if min(m, n) else 0)


@SETTINGS
@given(matrices)
def test_transforms_and_inverses(M):
    cols, m = M
    n = len(cols)
    sf = smith_normal_form(cols, m)
    for name in ("U", "D", "V"):
        assert getattr(sf, name).ndim == 2
    Uinv = array(sf.Uinv, m)
    Vinv = array(unimodular_inverse(columns(sf.V)), n)
    assert Uinv.ndim == 2 and Vinv.ndim == 2
    assert sf.D.shape == (m, n)
    assert np.array_equal(sf.U.dot(array(cols, m)).dot(sf.V), sf.D)
    assert np.array_equal(sf.U.dot(Uinv), array(identity(m), m))
    assert np.array_equal(sf.V.dot(Vinv), array(identity(n), n))


@SETTINGS
@given(matrices, st.data())
def test_reused_solve_matches_fresh_solve(M, data):
    cols, m = M
    n = len(cols)
    M = array(cols, m)
    sf = smith_normal_form(cols, m)
    small = st.integers(-4, 4)
    for _ in range(6):
        if n and data.draw(st.booleans()):
            # solvable by construction
            x = vec(data.draw(st.lists(small, min_size=n, max_size=n)))
            b = M.dot(x).tolist() if m else []
        else:
            b = data.draw(st.lists(small, min_size=m, max_size=m))
        reused, fresh = sf.solve(b), solve(cols, b)
        if fresh is None:
            assert reused is None
        else:
            assert reused is not None and reused == fresh
            assert M.dot(vec(reused)).tolist() == b


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
    sf = smith_normal_form(columns(M), len(M))
    assert sf.diagonal == diagonal
    assert sf.U.tolist() == U
    assert sf.V.tolist() == V


# matrices with no unit entry, so that every pivot comes from the least-|v|
# search and the divisibility fold runs; small sides keep coefficients small
unitless_matrices = int_matrices(max_side=4, entries=st.sampled_from([0, 2, -2, 3, -3, 4, -4]))
empty_matrices = st.one_of(
    st.integers(0, 5).map(lambda n: ([{} for _ in range(n)], 0)),
    st.integers(0, 5).map(lambda m: ([], m)),
    # rows but only empty columns, which ``smith_normal_form`` returns at once
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda mn: ([{}] * mn[1], mn[0])),
)


@st.composite
def stored_zero_matrices(draw):
    """A matrix of ``matrices`` whose columns also store zeros: {r: 0} is no entry."""
    cols, m = draw(matrices)
    stored = []
    for col in cols:
        zeros = draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else set()
        stored.append({**{r: 0 for r in zeros - col.keys()}, **col})
    return stored, m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(matrices, unitless_matrices, empty_matrices, stored_zero_matrices()))
@example((columns(FROZEN[0][0]), 2))
@example((columns(FROZEN[1][0]), 3))
@example((columns(FROZEN[2][0]), 3))
@example(([{}, {}], 3))
@example(([{0: 0}, {1: 0}], 2))
@example(([{0: 0, 1: 2}, {1: 0}, {0: 3}], 2))
def test_pivot_path_matches_the_dense_reference(M):
    """The sparse kernel takes the dense kernel's steps: same diagonal, U and V."""
    cols, m = M
    diagonal, U, V = reference_smith(cols, m)
    sf = smith_normal_form(cols, m)
    assert sf.diagonal == diagonal
    assert sf.U.tolist() == U
    assert sf._V == V


def test_a_matrix_without_entries_keeps_its_shape_checks():
    for cols in ([], [{}], [{}, {}, {}]):
        with pytest.raises(DimensionError, match="^a matrix has no -1 rows$"):
            smith_normal_form(cols, -1)
    # a stored zero outside the rows is still refused
    with pytest.raises(DimensionError, match="^column 1 has an entry in row 2, outside 0..1$"):
        smith_normal_form([{}, {2: 0}], 2)
    sf = smith_normal_form([{}, {}], 3)
    assert (sf.diagonal, sf._U, sf._V) == ([0, 0], [{0: 1}, {1: 1}, {2: 1}], [{0: 1}, {1: 1}])


@st.composite
def lines(draw):
    """A single row or a single column with nonzero entries, either sign, as sparse rows.

    Its entries sit at scattered indices, as a leftover of unit pivots does."""
    entries = draw(st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=6))
    at = draw(st.lists(st.integers(0, 30), min_size=len(entries), max_size=len(entries),
                       unique=True))
    if draw(st.booleans()):
        return [dict(zip(at, entries))], 1, max(at) + 1  # one row
    column = draw(st.integers(0, 30))
    rows = [{} for _ in range(max(at) + 1)]
    for r, x in zip(at, entries):
        rows[r][column] = x
    return rows, max(at) + 1, column + 1  # one column, amid empty rows


@SETTINGS
@given(lines())
@example(([{24: 2, 23: 2, 17: 2, 15: -2}], 1, 25))  # d_1 of the m = 3 Klein grid
@example(([{3: -6}, {}, {3: -4}, {3: 9}], 4, 4))
def test_a_single_row_or_column_is_read_as_its_gcd(line):
    """One factor, the gcd of the entries, and no Smith form is taken for it."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rows, m, n = line
    dense = [[row.get(c, 0) for c in range(n)] for row in rows[:m]]
    cols = [{r: x[c] for r, x in enumerate(dense) if x[c]} for c in range(n)]
    want = [d for d in smith_normal_form(cols, m).diagonal if d]
    S = sympy_snf(sympy.Matrix(dense), domain=sympy.ZZ)
    assert want == [abs(int(S[i, i])) for i in range(min(m, n)) if S[i, i]]
    calls = []
    original = exact_linalg.smith_normal_form
    exact_linalg.smith_normal_form = lambda *a: calls.append(a) or original(*a)
    try:
        got = _block_factors(rows)
    finally:
        exact_linalg.smith_normal_form = original
    assert got == want and len(got) == 1
    assert calls == []
