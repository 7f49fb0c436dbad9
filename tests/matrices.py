"""Dense test data to and from the sparse columns that ``tdk`` takes.

Tests write small matrices as lists of rows and check products with numpy
object arrays; ``tdk`` itself takes every matrix as a list of sparse
columns {row: coeff}.  ``reference_smith`` keeps the dense Smith kernel as
an oracle for the pivot path of the sparse one.  ``reference_contains``
and ``reference_well_defined`` test the two preconditions of the group
layer that ``tdk`` proves instead of checking.
"""

import numpy as np

from tdk.errors import DimensionError
from tdk.exact_linalg import compose, dense_vector, smith_normal_form


def columns(rows, width=None):
    """The sparse columns of the matrix with these rows (lists of ints, or a 2-d array).

    ``width`` gives the column count of a matrix with no rows.
    """
    rows = [[int(x) for x in row] for row in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(width)]


def array(cols, rows):
    """The numpy object array with these sparse columns and this many rows."""
    out = np.zeros((rows, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        for i, x in col.items():
            out[i, j] = x
    return out


def vec(values):
    """A numpy object vector, for products with ``array``."""
    return np.array([int(x) for x in values] or [], dtype=object)


def zeros(rows, cols):
    """The zero numpy object array of this shape."""
    return np.zeros((rows, cols), dtype=object)


def mat_eq(a, b):
    """Equal shapes and entries, for numpy arrays."""
    return a.shape == b.shape and (a == b).all()


def scaled(k, v):
    """k times the dense vector v, as a list."""
    return [k * x for x in v]


# ---------------------------------------------------------------------------
# the preconditions of ``subquotient`` and ``GroupHom``


def reference_contains(amb, Z, B):
    """Whether every column of B lies in im(Z) plus the relations of ``amb``.

    ``subquotient(amb, Z, B)`` requires it: one solve per column of B
    against the Smith form of [Z | relations].
    """
    factored = smith_normal_form(list(Z) + amb.rels, amb.ngens)
    return all(factored.solve(dense_vector(col, amb.ngens)) is not None for col in B)


def reference_well_defined(hom):
    """Whether ``hom`` sends every relation of its source to zero in its target.

    ``GroupHom`` requires it: each relation's image, reduced in the target.
    """
    rows = hom.target.ngens
    return all(hom.target.is_zero(dense_vector(img, rows))
               for img in compose(hom.matrix, hom.source.rels))


# ---------------------------------------------------------------------------
# the dense Smith kernel, kept as an oracle


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _nonzeros(row, start=0):
    return [(j, row[j]) for j in range(start, len(row)) if row[j]]


def _axpy(dst, src_nonzeros, q):
    """dst += q * src, with src given by its nonzero entries."""
    for j, v in src_nonzeros:
        dst[j] += q * v


def reference_smith(columns, rows):
    """(diagonal, U, V) of the dense Smith kernel that ``tdk`` shipped first.

    A test oracle for the frozen pivot path: the elimination is kept as it
    was, on lists of Python ints, and U comes back as its dense rows and V
    as its sparse columns.  ``smith_normal_form`` must take the same steps.
    """
    m, n = rows, len(columns)
    A = [[0] * n for _ in range(m)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            if not 0 <= r < m:
                raise DimensionError(f"column {c} has an entry in row {r}, outside 0..{m - 1}")
            A[r][c] = x
    U = _identity_rows(m)
    Vc = _identity_rows(n)  # columns of V

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        # rows above t are zero in every column >= t
        for r in range(t, m):
            row = A[r]
            row[i], row[j] = row[j], row[i]
        Vc[i], Vc[j] = Vc[j], Vc[i]

    def pivot_position():
        # first entry of least absolute value, row-major; a unit ends the scan
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    v = abs(v)
                    if v == 1:
                        return i, j
                    if best is None or v < best[0]:
                        best = (v, i, j)
        return None if best is None else best[1:]

    t = 0
    while t < min(m, n):
        found = pivot_position()
        if found is None:
            break
        pi, pj = found
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)

        while True:
            dirty = False
            pivot_row = None  # nonzeros of A[t] and U[t], taken when first needed
            for i in range(t + 1, m):
                a = A[i][t]
                if a == 0:
                    continue
                q = a // A[t][t]
                if q:
                    if pivot_row is None:
                        pivot_row = (_nonzeros(A[t], t), _nonzeros(U[t]))
                    _axpy(A[i], pivot_row[0], -q)
                    _axpy(U[i], pivot_row[1], -q)
                if A[i][t] != 0:  # remainder becomes the smaller pivot
                    row_swap(i, t)
                    pivot_row = None
                    dirty = True
            pivot_col = None  # nonzeros of column t of A and of V
            for j in range(t + 1, n):
                a = A[t][j]
                if a == 0:
                    continue
                q = a // A[t][t]
                if q:
                    if pivot_col is None:
                        pivot_col = (
                            [(r, A[r][t]) for r in range(t, m) if A[r][t]],
                            _nonzeros(Vc[t]),
                        )
                    for r, v in pivot_col[0]:
                        A[r][j] -= q * v
                    _axpy(Vc[j], pivot_col[1], -q)
                if A[t][j] != 0:
                    col_swap(j, t)
                    pivot_col = None
                    dirty = True
            if dirty:
                continue
            # enforce the divisibility chain: fold in any non-multiple
            p = A[t][t]
            if p in (1, -1):  # a unit divides every entry
                break
            fold = next(
                (
                    i
                    for i in range(t + 1, m)
                    if any(A[i][j] % p for j in range(t + 1, n))
                ),
                None,
            )
            if fold is None:
                break
            _axpy(A[t], _nonzeros(A[fold], t), 1)
            _axpy(U[t], _nonzeros(U[fold]), 1)

        if A[t][t] < 0:
            A[t][t] = -A[t][t]  # the rest of row t is zero
            U[t] = [-x for x in U[t]]
        t += 1

    diagonal = [A[i][i] for i in range(min(m, n))]
    V = [{r: x for r, x in enumerate(col) if x} for col in Vc]
    return diagonal, U, V
