"""Smith normal form, solving, and presented abelian groups.

The independent oracle used throughout is the determinantal-divisor formula:
d_1 * ... * d_k equals the gcd of all k x k minors.  It shares no code with
the pivoting reduction in tdk.exact_linalg.  Matrices are written here as
lists of rows and handed to ``tdk`` as sparse columns (``matrices.columns``);
products are checked on numpy object arrays.
"""

import itertools
import random

import numpy as np
import pytest

from matrices import array, columns, mat_eq, vec
from tdk.errors import DimensionError, InputError, NotInSubgroupError
from tdk.exact_linalg import (
    FgAbelianGroup,
    GroupHom,
    _unit_pivots,
    identity,
    invariant_factors,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
    solve,
    subquotient,
    unimodular_inverse,
)


def eye(n):
    return array(identity(n), n)


# ---------------------------------------------------------------------------
# oracle: invariant factors via gcds of k x k minors


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _gcd_of_minors(mat, k):
    import math

    m, n = len(mat), len(mat[0]) if mat else 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            sub = [[mat[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, _det(sub))
    return g


def oracle_invariant_factors(mat):
    """All invariant factors d_1 | d_2 | ... (including 1s), by minor gcds."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = _gcd_of_minors(mat, k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def check_snf_contract(mat):
    M = array(columns(mat), len(mat))
    sf = smith_normal_form(columns(mat), len(mat))
    # U M V = D exactly
    assert mat_eq(sf.U.dot(M).dot(sf.V), sf.D)
    # tracked inverses are exact
    assert mat_eq(sf.U.dot(array(sf.Uinv, M.shape[0])), eye(M.shape[0]))
    assert mat_eq(sf.V.dot(array(unimodular_inverse(columns(sf.V)), M.shape[1])), eye(M.shape[1]))
    # D diagonal, chain, nonzero entries positive
    m, n = sf.D.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sf.D[i, j] == 0
    diag = sf.diagonal
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(d >= 0 for d in diag)
    return [d for d in diag if d != 0]


def test_snf_identity():
    assert check_snf_contract([[1, 0], [0, 1]]) == [1, 1]


def test_snf_spec_example():
    # frozen from the minors oracle: gcd of entries 2, |det| = 8 -> diag(2, 4)
    mat = [[2, 4], [6, 8]]
    assert oracle_invariant_factors(mat) == [2, 4]
    assert check_snf_contract(mat) == [2, 4]


def test_snf_zero_1x1():
    sf = smith_normal_form(columns([[0]]), 1)
    assert sf.D[0, 0] == 0
    assert check_snf_contract([[0]]) == []


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        sf = smith_normal_form([{}] * shape[1], shape[0])
        assert sf.D.shape == shape


def test_snf_refuses_a_negative_row_count():
    with pytest.raises(DimensionError):
        smith_normal_form([], -1)


def test_snf_matches_minor_oracle_randomized():
    rng = random.Random(20260810)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        expected = [d for d in oracle_invariant_factors(mat) if d != 0]
        assert check_snf_contract(mat) == expected


def test_snf_huge_entries():
    big = 10**40
    mat = [[2 * big, 4 * big], [6 * big, 8 * big]]
    assert check_snf_contract(mat) == [2 * big, 4 * big]


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = columns([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        assert len(kernel_basis(M, m)) + matrix_rank(M) == n


def test_rank_reads_past_explicit_zero_entries():
    # row 0 pivots on column 0 and meets the stored zero of column 1, which row 1 lacks
    assert matrix_rank([{0: 1, 1: 1}, {0: 0}]) == 1
    assert matrix_rank([{0: 0}, {1: 0}]) == 0


# ---------------------------------------------------------------------------
# solve


def test_solve_trivial_cases():
    x = solve(columns([[2]]), [4])
    assert x is not None and x[0] == 2
    assert solve(columns([[2]]), [3]) is None


def test_solve_spec_example():
    M = [[2, 4], [6, 8]]
    x = solve(columns(M), [2, 6])
    assert x is not None
    assert (array(columns(M), 2).dot(vec(x)) == vec([2, 6])).all()
    # direct check of the spec's stated witness
    assert (array(columns(M), 2).dot(vec([1, 0])) == vec([2, 6])).all()


def test_solve_randomized_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        M = array(columns(rows), m)
        xs = vec([rng.randint(-3, 3) for _ in range(n)])
        b = M.dot(xs)
        x = solve(columns(rows), b)
        assert x is not None
        assert (M.dot(vec(x)) == b).all()


def test_solve_unsolvable_congruence():
    # 2Z + 4Z cannot hit an odd number
    assert solve(columns([[2, 4]]), [3]) is None


# ---------------------------------------------------------------------------
# kernel and cokernel: kernel_basis, and the group presented by M's columns


def test_kernel_of_sum_map():
    K = kernel_basis(columns([[1, 1]]), 1)
    assert len(K) == 1
    v = K[0]
    assert sorted([v.get(0, 0), v.get(1, 0)]) == [-1, 1]
    # inclusion composed with M is zero
    assert array(columns([[1, 1]]), 1).dot(array(K, 2))[0, 0] == 0


def test_kernel_of_an_entry_free_matrix_is_the_identity_with_no_smith_form(monkeypatch):
    from tdk import exact_linalg

    def refused(columns, rows):
        raise AssertionError("an entry-free matrix was factored")

    for cols, rows in [([], 0), ([], 3), ([{}] * 3, 0), ([{}] * 4, 5)]:
        want = exact_linalg.smith_normal_form(cols, rows)._V[:]  # what the old path returned
        monkeypatch.setattr(exact_linalg, "smith_normal_form", refused)
        assert kernel_basis(cols, rows) == want == identity(len(cols))
        monkeypatch.undo()
    monkeypatch.setattr(exact_linalg, "smith_normal_form", refused)
    for cols in ([], [{}, {}]):
        with pytest.raises(DimensionError):
            kernel_basis(cols, -1)


def test_cokernel_cyclic():
    for k in [1, 2, 5, 12]:
        G = FgAbelianGroup(1, columns([[k]]))
        assert G.invariants() == ((0, ()) if k == 1 else (0, (k,)))


def test_cokernel_spec_example():
    G = FgAbelianGroup(2, columns([[2, 4], [6, 8]]))
    assert G.invariants() == (0, (2, 4))


def test_cokernel_projection_surjective_with_kernel_im():
    M = columns([[2, 0], [0, 3]])
    G = FgAbelianGroup(2, M)
    # projection kills exactly the image
    assert G.is_zero(array(M, 2).dot(vec([1, 1])))
    assert not G.is_zero([1, 0])


# ---------------------------------------------------------------------------
# FgAbelianGroup


def test_group_reduce_section_roundtrip():
    G = FgAbelianGroup(3, columns([[2, 0], [0, 0], [0, 3]]))
    assert G.invariants() == (1, (6,))  # Z/2 + Z/3 + Z = Z/6 + Z
    for nf in [(0, 0), (1, 0), (5, -2), (3, 7)]:
        canonical = G.reduce(G.section(nf))
        assert canonical == (nf[0] % 6, nf[1])


def nf_add(G, ra, rb):
    k = len(G.torsion)
    tor = tuple((x + y) % d for x, y, d in zip(ra[:k], rb[:k], G.torsion))
    free = tuple(x + y for x, y in zip(ra[k:], rb[k:]))
    return tor + free


def test_group_reduce_additive():
    G = FgAbelianGroup(3, columns([[2, 0], [0, 3], [0, 0]]))
    assert G.invariants() == (1, (6,))  # Z/2 + Z/3 + Z normalizes to Z/6 + Z
    rng = random.Random(5)
    for _ in range(20):
        a = vec([rng.randint(-9, 9) for _ in range(3)])
        b = vec([rng.randint(-9, 9) for _ in range(3)])
        assert G.reduce(a + b) == nf_add(G, G.reduce(a), G.reduce(b))


def test_invariant_factors_drop_ones():
    G = FgAbelianGroup(2, columns([[1, 0], [0, 6]]))
    assert G.invariants() == (0, (6,))


def test_unit_pivots_drop_stored_zeros_and_leave_the_rows_in_order():
    # row 1 holds only a stored zero, so it is not loaded; row 2 pivots at column 2
    rows = [{0: 0, 1: 2}, {1: 0}, {2: 1, 3: 0}, {0: 3, 1: 1, 4: 5}]
    pivots, left = _unit_pivots(rows)
    assert pivots == [2, 1]
    assert left == [{4: -10, 0: -6}]  # row 0 less 2 times row 3, with no stored zero


def test_invariant_factors_leave_their_columns_unchanged():
    cols = [{0: 1, 1: 0}, {0: 2, 1: 4}]
    assert invariant_factors(cols) == [1, 4]
    assert cols == [{0: 1, 1: 0}, {0: 2, 1: 4}]


def test_group_refuses_a_negative_generator_count():
    with pytest.raises(DimensionError):
        FgAbelianGroup(-1)


# ---------------------------------------------------------------------------
# GroupHom


def test_hom_kernel_image_cokernel():
    Z = FgAbelianGroup(1)
    f = GroupHom(Z, Z, columns([[6]]))
    assert f.kernel().invariants() == (0, ())
    assert f.image().invariants() == (1, ())
    assert FgAbelianGroup(1, f.matrix).invariants() == (0, (6,))


def test_hom_kernel_with_torsion_target():
    Z = FgAbelianGroup(1)
    Z6 = FgAbelianGroup(1, columns([[6]]))
    proj = GroupHom(Z, Z6, columns([[1]]))
    ker = proj.kernel()
    assert ker.invariants() == (1, ())
    assert ker.reduce([6]) in {(1,), (-1,)}  # 6 generates the kernel 6Z
    with pytest.raises(NotInSubgroupError):
        ker.reduce([3])


# ---------------------------------------------------------------------------
# subquotient


def test_subquotient_cyclic():
    Z = FgAbelianGroup(1)
    sq = subquotient(Z, identity(1), columns([[5]]))
    assert sq.invariants() == (0, (5,))


def test_subquotient_self_is_trivial():
    Z2 = FgAbelianGroup(2)
    M = columns([[1, 2], [3, 4]])
    sq = subquotient(Z2, M, M)
    assert sq.group.invariants() == (0, ())


def test_subquotient_spec_example():
    Z2 = FgAbelianGroup(2)
    sq = subquotient(Z2, identity(2), columns([[2, 0], [0, 3]]))
    assert sq.invariants() == (0, (6,))


def test_subquotient_reduce_additive_and_membership():
    Z2 = FgAbelianGroup(2)
    sq = subquotient(Z2, columns([[2, 0], [0, 1]]), columns([[4], [0]]))
    # subgroup 2Z + Z, quotient by 4Z in the first slot: Z/2 + Z
    assert sq.invariants() == (1, (2,))
    with pytest.raises(NotInSubgroupError):
        sq.reduce([1, 0])
    a, b = vec([2, 3]), vec([4, -1])
    ra, rb, rab = sq.reduce(a), sq.reduce(b), sq.reduce(a + b)
    assert rab[0] == (ra[0] + rb[0]) % 2 and rab[1] == ra[1] + rb[1]


def test_subquotient_inside_torsion_ambient():
    # ambient Z/12, numerator 2Z/12 = Z/6, denominator 6Z/12 = Z/2: quotient Z/3
    amb = FgAbelianGroup(1, columns([[12]]))
    sq = subquotient(amb, columns([[2]]), columns([[6]]))
    assert sq.invariants() == (0, (3,))
    assert sq.reduce([2]) != sq.group.zero_nf()
    assert sq.is_zero([6])
    # reduction only depends on the ambient class: 14 = 2 mod 12
    assert sq.reduce([14]) == sq.reduce([2])


# ---------------------------------------------------------------------------
# exact input: every outside vector is read by operator.index, never truncated


def test_int_vector_reads_ints_and_numpy_integers_exactly():
    import numpy as np

    from tdk.exact_linalg import int_vector

    got = int_vector(np.array([3, -2, 10**30], dtype=object))
    assert got == [3, -2, 10**30] and all(type(x) is int for x in got)
    got = int_vector(np.array([1, 2], dtype=np.int64))
    assert got == [1, 2] and all(type(x) is int for x in got)
    with pytest.raises(InputError, match=r"^v: entry 1 is 2\.0, not an integer$"):
        int_vector([1, 2.0], "v")


def test_float_chern_entry_is_refused_not_truncated():
    from tdk.space_model import builtin_space
    from tdk.torus_bundle import build_bundle

    S2 = builtin_space("sphere", {"k": 2})
    # int(1.9) == 1 would build the Hopf bundle
    with pytest.raises(InputError, match=r"chern cocycle 0: entry 0 is 1\.9, not an integer"):
        build_bundle(S2, [[1.9]])


def test_float_cocycle_entries_are_refused_not_truncated():
    from tdk.space_model import Cocycle

    with pytest.raises(InputError, match=r"cocycle: entry 0 is 0\.5, not an integer"):
        Cocycle(3, [0.5, 2.7])
    assert Cocycle(3, [0, 2]).vector == (0, 2)
