"""Exact integer matrix algebra and finitely generated abelian groups.

A matrix is a list of sparse columns, one dict {row: coeff} of Python ints
per column, so all arithmetic is arbitrary precision; where the columns do
not fix it, the row count is passed alongside (an empty matrix keeps its
shape that way).  A dense vector is a list of ints; ``int_vector`` is the
one reader of vectors from callers, and ``_sum_terms``, ``mat_vec`` and
``compose`` do the arithmetic.  There is one elimination kernel:
``smith_normal_form`` moves the matrix to sparse rows, eliminates there
with U as sparse rows and V as sparse columns, and returns a
:class:`SmithForm` with unimodular U, V such that U M V is diagonal with a
divisibility chain.  The rest of the module (solving, kernels, presented
groups, subquotients) is built on top of it.

Trivial work is skipped where its answer is known.  A matrix whose columns
hold no entry (an empty matrix, or a zero block of a differential) is not
eliminated: its Smith form is the zero diagonal with identity U and V,
which is what the elimination returns for it.  ``kernel_basis`` of such a
matrix takes no Smith form at all: its kernel is the identity columns, so
a zero block of ``BundleModel._kernel_block`` or a zero numerator matrix
under the page subquotients costs no factorization.  An image with no
entry is zero in every group, so ``is_zero_hom`` does not reduce it.  The
calls left on entry-free matrices are ``Subquotient._membership``,
``FgAbelianGroup._snf`` and ``DgRingModel.d_factor``, which keep the
factorization they return.

The group layer takes its callers' word where they hold a proof.
``subquotient`` does not test that its denominator lies in its numerator,
and ``GroupHom`` does not test that relations land in relations: each
caller in ``tdk`` states in its docstring why its data meets that
precondition, and the test suite holds each of them to a reference check
(``tests/matrices.py``).  Untrusted data meets the library where it is
read, in ``parse_space`` and the ``serialize`` readers, and is validated
there.

Invariant factors alone need no U or V.  ``_unit_pivots`` eliminates the
+-1 pivots of a matrix given by its sparse rows, each a unimodular step that
splits off a factor 1; sparse +-1 coboundaries mostly vanish that way
(Dumas, Heckenbach, Saunders & Welker 2003), and the small block that is
left goes to ``smith_normal_form``, of which only the diagonal is read.  It
consumes the rows it is given, so it copies nothing: ``invariant_factors``
hands it a transpose of its columns, and ``cochain_invariants`` the rows of
each d_k that its caller builds fresh.  Permuting rows or columns is
unimodular, so the order in which a caller numbers them changes no factor,
only the fill-in; a simplicial complex numbers its faces as it finds them,
which keeps the fill-in small.  ``matrix_rank`` counts those factors, so a
rank builds no U or V for the unit pivots.  Cohomology has two routines on
top of that: ``cochain_invariants`` gives the isomorphism type of every H^k
from one elimination per differential d_top..d_1, with H^0 read off a
count of components that its caller proves, and ``cochain_cohomology`` builds
H^k = ker d_k / im d_{k-1} as a :class:`Subquotient` for callers that need
classes, representatives or reductions.

``cochain_invariants`` also clears across degrees, as Chen & Kerber's
"twist" (2011) does for persistent homology: it runs the degrees from top
to bottom, and the pivot columns of d_k's unit phase are rows of d_{k-1}
that it never loads.  Under its precondition d o d = 0 this keeps every
invariant factor of d_{k-1}: a pivot row of d_k is, at its pivot, a
Z-combination z of rows of d_k with z_p = +-1 and zeros at the earlier
pivot columns, and z d_{k-1} = 0 writes row p of d_{k-1} through the rows
that are kept (the full proof is in ``cochain_invariants``).  d_0 is never
eliminated, nor written by a simplicial complex: its factors are units and
its rank is #vertices - #components, so only d_top..d_1 are loaded.  A
one-row or one-column leftover is read as the gcd of its entries.

Factor once, solve many: a matrix that meets several right-hand sides is
factored once and each right-hand side goes through ``SmithForm.solve``,
which reads only its nonzero entries.  ``solve(M, b)`` is the one-shot form.
``Subquotient`` keeps the factored membership matrix, so every reduction,
lift check and induced map against one subquotient shares a single
factorization.

A subquotient im(Z)/im(B) builds its presentation on first read.  Its group
holds the ambient and the lists Z and B; the relation lattice, the kernel
of [Z | B | ambient relations] cut to the rows of Z, and that lattice's
Smith form are built when ``reduce``, ``section`` or ``rels`` is first
read.  The invariants often need neither.  A Z with no entry gives the
zero group.  And when the caller proves that the columns of Z are a basis
of a saturated lattice L of a free ambient Z^N (``cochain_cohomology``,
``BundleModel._page_subquotient``), the invariants are read off B alone:
Z^N / L is free, so the exact sequence 0 -> L/im B -> Z^N/im B -> Z^N/L -> 0
splits, and L/im B has the torsion of Z^N / im B, the factors >= 2 of
``invariant_factors(B)``, and rank len(Z) - rank B.  The relations' Smith
diagonal, padded with zeros to len(Z), is then rank B - #torsion ones, the
torsion and len(Z) - rank B zeros, which is ``invariant_factors(B)``
followed by zeros; a later ``reduce`` reads the same positions of it.  So a
page slot on the stable page, whose d_r is zero and whose image has no
entry, builds no relation lattice at all.

The pivot order is part of the contract, because U and V fix every particular
solution and every normal-form coordinate that reaches a report: at step t
the pivot is the first entry of least absolute value in a row-major scan of
the remaining block.  A unit entry ends the scan early and skips the
divisibility fold, which changes no pivot.

The benchmark tracer (``benchmark/tracing.py``) relies on two things here.
``SmithForm.U``, ``.D`` and ``.V`` read as 2-dimensional object arrays of
the tracer's array library (it reads their ``shape``, ``size``, ``max()``
and ``min()``): views that ``_view`` builds on first read, the one place
the package imports that library.  And the module-level names
``smith_normal_form``, ``solve``, ``subquotient`` and ``kernel_basis`` are
what it wraps.  The same tracer reads ``cache_info()`` from the cohomology
and page methods of the models, which memoise per instance
(``space_model.memoised``), so a model's results are freed with the model.

Values are immutable after construction and safe to share across threads;
the parts built on first use are deterministic.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

from .errors import DimensionError, InputError, NotInSubgroupError

__all__ = [
    "int_vector",
    "dense_vector",
    "identity",
    "transpose",
    "mat_vec",
    "compose",
    "unimodular_inverse",
    "SmithForm",
    "smith_normal_form",
    "matrix_rank",
    "solve",
    "kernel_basis",
    "FgAbelianGroup",
    "GroupHom",
    "Subquotient",
    "subquotient",
    "induced_hom",
    "invariant_factors",
    "cochain_invariants",
    "cochain_cohomology",
]


# ---------------------------------------------------------------------------
# vectors and matrices


def int_vector(data, where=None):
    """The entries of a sequence of integers as a list of ints.

    Each entry is read by ``operator.index``, so ints and other integer
    types (anything with ``__index__``) pass and floats, strings and
    fractions do not: the InputError names the first entry that is not an
    integer, at ``where``.  Data that is not a sequence at all (None, an
    int) is an InputError at ``where`` too, and so is an iterator, spent
    by then, whose entries are not all integers.
    """
    try:
        return list(map(operator.index, data))
    except TypeError:
        try:
            spent = iter(data) is data  # an iterator is spent past the entry that failed
        except TypeError:
            raise InputError(f"{data!r} is not a sequence of integers", where) from None
        for i, x in enumerate(() if spent else data):
            if not hasattr(type(x), "__index__"):
                raise InputError(f"entry {i} is {x!r}, not an integer", where) from None
        raise InputError("an entry is not an integer", where) from None


def _sum_terms(pairs):
    """Sum of coeff * terms over (coeff, sparse vector) pairs, as a sparse vector.

    A sparse vector (a column, or a cochain) is a dict {index: coeff}; the
    result stores no zero entries.
    """
    out = {}
    for x, terms in pairs:
        for c, y in terms.items():
            out[c] = out.get(c, 0) + x * y
    return {c: y for c, y in out.items() if y}


def dense_vector(terms, length):
    """The sparse vector {index: coeff} as a list of ints of this length."""
    out = [0] * length
    for i, x in terms.items():
        out[i] = x
    return out


def identity(n):
    """The n x n identity matrix."""
    return [{i: 1} for i in range(n)]


def transpose(columns, rows):
    """The transpose of the matrix with these columns and this many rows."""
    out = [{} for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            out[r][c] = x
    return out


def mat_vec(columns, x, rows):
    """M x as a list of ``rows`` ints, for the dense vector x; reads its nonzero entries only."""
    return dense_vector(_sum_terms((v, col) for v, col in zip(x, columns) if v), rows)


def compose(A, B):
    """The matrix A B, for A and B given as sparse columns."""
    return [_sum_terms((x, A[r]) for r, x in col.items()) for col in B]


def _restrict(columns, rows):
    """The top ``rows`` rows of the matrix with these columns."""
    return [{r: x for r, x in col.items() if r < rows} for col in columns]


def _add_to(dst, src, q):
    """dst += q * src, for sparse vectors and q != 0; drops the entries that cancel."""
    for j, v in src.items():
        y = dst.get(j, 0) + q * v
        if y:
            dst[j] = y
        else:
            del dst[j]


def _view(shape, entries):
    """An object array of this shape with these (row, column, value) entries.

    Only the benchmark tracer reads these views (see the module docstring),
    so the array library is imported here, on first use, and nowhere else.
    """
    import numpy as np

    out = np.zeros(shape, dtype=object)
    for i, j, x in entries:
        out[i, j] = x
    return out


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm:
    """U M V == D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0.

    ``shape`` is the (rows, columns) of M.  U is kept as its rows and V as
    its columns, sparse dicts as the kernel left them; ``Uinv`` (sparse
    columns) and the sparse columns of U that ``solve`` reads are built on
    first use.
    ``U``, ``D`` and ``V`` are object arrays (``_view``) built on first
    read, only for the benchmark tracer: nothing in ``tdk`` reads them, and
    they go when the tracer reads its sizes from ``tdk`` itself (ROADMAP
    item 1).
    """

    def __init__(self, shape, diagonal, U_rows, V_columns):
        self.shape = shape
        self._diagonal = diagonal
        self._U = U_rows
        self._V = V_columns

    @property
    def diagonal(self):
        return list(self._diagonal)

    @property
    def rank(self):
        return sum(1 for d in self._diagonal if d != 0)

    @cached_property
    def U(self):
        m = self.shape[0]
        return _view((m, m), ((i, j, x) for i, row in enumerate(self._U) for j, x in row.items()))

    @cached_property
    def D(self):
        return _view(self.shape, ((i, i, d) for i, d in enumerate(self._diagonal)))

    @cached_property
    def V(self):
        n = self.shape[1]
        return _view((n, n), ((r, c, x) for c, col in enumerate(self._V) for r, x in col.items()))

    @cached_property
    def _U_columns(self):
        return transpose(self._U, self.shape[0])

    @cached_property
    def Uinv(self):
        return unimodular_inverse(self._U_columns)

    def solve(self, b):
        """One integer solution x of M x == b, as a list of ints, or None when unsolvable over Z.

        Unsolvability is decided exactly: in Smith coordinates the system
        splits into congruences c_i = d_i * y_i, so either some d_i fails to
        divide c_i or a zero row meets a nonzero c_i.
        """
        b = int_vector(b)
        if len(b) != self.shape[0]:
            raise DimensionError(f"solve: got rhs of length {len(b)}, expected {self.shape[0]}")
        c = _sum_terms((x, self._U_columns[j]) for j, x in enumerate(b) if x)
        diag = self._diagonal
        y = []
        for i, ci in c.items():
            d = diag[i] if i < len(diag) else 0
            if d == 0 or ci % d:
                return None
            y.append((ci // d, self._V[i]))
        return dense_vector(_sum_terms(y), self.shape[1])


def unimodular_inverse(W):
    """The inverse of the square matrix W, if unimodular: from P W Q == I, W^-1 == Q P.

    Raises InputError when W is not invertible over the integers.
    """
    n = len(W)
    sf = smith_normal_form(W, n)
    if sf.diagonal != [1] * n:
        raise InputError("block is not invertible over the integers")
    return compose(sf._V, sf._U_columns)


def _pivot(A, t):
    """The least (|v|, i, j) over the entries A[i][j] = v with i >= t, as (i, j), or None.

    A row with a unit ends the search: no later entry is less.
    """
    best = None
    for i in range(t, len(A)):
        if A[i]:
            v, j = min(zip(map(abs, A[i].values()), A[i]))
            if v == 1:
                return i, j
            if best is None or v < best[0]:
                best = v, i, j
    return None if best is None else best[1:]


def _swap_columns(rows, i, j):
    """Swap columns i and j of these sparse rows."""
    for row in rows:
        x, y = row.pop(i, 0), row.pop(j, 0)
        if x:
            row[j] = x
        if y:
            row[i] = y


def smith_normal_form(columns, rows):
    """Diagonalize the integer matrix with these columns and this many rows.

    Returns a :class:`SmithForm`.  The nonzero diagonal entries are positive
    and each divides the next; U, V have determinant +-1.

    A and U are eliminated as sparse rows {column: coeff} and V as sparse
    columns {row: coeff}; none of them stores a zero.  The steps are those of
    the pivot contract in the module docstring, so U and V are those of a
    dense elimination by that rule, and nothing depends on dict order: the
    pivot is an explicit minimum (``_pivot``), and a pass visits its rows
    and columns in index order.

    A pass lists its rows once, up front: the rows below t with an entry in
    column t.  That list is the one a scan of every row would meet, because
    handling row i (one row operation, then perhaps the swap of rows i and
    t) changes rows i and t and no other, so a later row has an entry in
    column t when the scan reaches it iff it had one when the pass began.
    By the same argument for columns, the column phase lists once the
    columns right of t with an entry in row t, and keeps the rows with an
    entry in column t until its next column swap.
    """
    m, n = rows, len(columns)
    if m < 0:
        raise DimensionError(f"a matrix has no {m} rows")
    if not any(columns):  # no entry to check or eliminate: what the loop returns at t = 0
        return SmithForm((m, n), [0] * min(m, n), identity(m), identity(n))
    A = [{} for _ in range(m)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            if not 0 <= r < m:
                raise DimensionError(f"column {c} has an entry in row {r}, outside 0..{m - 1}")
            if x:
                A[r][c] = x
    U = identity(m)  # its rows
    V = identity(n)  # its columns
    # at step t, rows below t are zero left of column t, and rows above t
    # are zero from column t on
    for t in range(min(m, n)):
        found = _pivot(A, t)
        if found is None:
            break
        i, j = found
        A[i], A[t] = A[t], A[i]
        U[i], U[t] = U[t], U[i]
        if j != t:
            _swap_columns(A[t:], j, t)
            V[j], V[t] = V[t], V[j]

        while True:
            dirty = False
            for i in [i for i in range(t + 1, m) if t in A[i]]:
                q = A[i][t] // A[t][t]
                if q:
                    _add_to(A[i], A[t], -q)
                    _add_to(U[i], U[t], -q)
                if t in A[i]:  # remainder becomes the smaller pivot
                    A[i], A[t] = A[t], A[i]
                    U[i], U[t] = U[t], U[i]
                    dirty = True
            pivot_col = None  # the rows with an entry in column t, with that entry
            for j in sorted(j for j in A[t] if j > t):
                q = A[t][j] // A[t][t]
                if q:
                    if pivot_col is None:
                        pivot_col = [(row, row[t]) for row in A[t:] if t in row]
                    for row, v in pivot_col:
                        y = row.get(j, 0) - q * v
                        if y:
                            row[j] = y
                        else:
                            del row[j]
                    _add_to(V[j], V[t], -q)
                if j in A[t]:
                    _swap_columns(A[t:], j, t)
                    V[j], V[t] = V[t], V[j]
                    pivot_col = None
                    dirty = True
            if dirty:
                continue
            # enforce the divisibility chain: fold in any non-multiple
            p = A[t][t]
            if p in (1, -1):  # a unit divides every entry
                break
            # a clean pass left rows below t zero in column t
            fold = next((i for i in range(t + 1, m) if any(x % p for x in A[i].values())), None)
            if fold is None:
                break
            _add_to(A[t], A[fold], 1)
            _add_to(U[t], U[fold], 1)

        if A[t][t] < 0:
            A[t][t] = -A[t][t]  # the rest of row t is zero
            U[t] = {j: -x for j, x in U[t].items()}

    return SmithForm((m, n), [A[i].get(i, 0) for i in range(min(m, n))], U, V)


def matrix_rank(columns):
    """Rank of the matrix with these sparse columns {row: coeff}, over Z and over Q."""
    return len(invariant_factors(columns))


def solve(M, b):
    """One integer solution x of M x == b, or None when unsolvable over Z.

    M is given by its columns and has as many rows as b has entries.  It is
    factored once for this one right-hand side; with several right-hand
    sides, call ``smith_normal_form(M, rows).solve`` on each instead.
    """
    return smith_normal_form(M, len(b)).solve(b)


def kernel_basis(M, rows):
    """Columns forming a basis of the (saturated) integer kernel lattice of M.

    A matrix with no entry is not factored: its kernel is all of Z^columns,
    the identity columns that its Smith form's V would give.
    """
    if rows < 0:
        raise DimensionError(f"a matrix has no {rows} rows")
    if not any(M):
        return identity(len(M))
    sf = smith_normal_form(M, rows)
    return sf._V[sf.rank :]


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def _check_rows(columns, rows, what):
    """Raise DimensionError unless every entry of these columns lies in rows 0..rows-1."""
    for c, col in enumerate(columns):
        if any(not 0 <= r < rows for r in col):
            raise DimensionError(f"{what} column {c} has an entry outside rows 0..{rows - 1}")


class FgAbelianGroup:
    """Z^ngens modulo the column span of a relation matrix, given by its columns.

    Normal-form coordinates list the torsion slots first (in invariant-factor
    order, entries taken mod d_i) followed by the free slots.  ``reduce`` maps
    ambient coordinates to normal form, ``section`` picks a representative,
    and reduce(section(x)) == x for every normal form x.

    The group of a subquotient (:meth:`_of_lattice`) builds ``rels`` and
    their Smith form on first read: ``reduce`` and ``section`` read them,
    and so does a caller that reads ``rels``.  Its invariants need neither
    where ``subquotient`` proves that they can be read off B.
    """

    _read_off = False  # set by :meth:`_of_lattice` for a diagonal that B gives

    def __init__(self, ngens, rels=None):
        self.ngens = operator.index(ngens)
        if self.ngens < 0:
            raise DimensionError(f"a group has no {self.ngens} generators")
        self.rels = [] if rels is None else list(rels)
        _check_rows(self.rels, self.ngens, "relation")

    @classmethod
    def _of_lattice(cls, amb, Z, B, read_off):
        """im(Z)/im(B) inside ``amb``, on the columns of Z, with its relations built on first read.

        It holds the ambient and the two lists, nothing of whoever made
        them.  ``read_off`` is ``subquotient``'s proof that
        :func:`_read_off_diagonal` gives the relations' padded Smith
        diagonal; the invariants then read it, unless the Smith form of the
        relations is built by then.
        """
        group = cls.__new__(cls)
        group.ngens = len(Z)
        group._lattice = amb, Z, B
        group._read_off = read_off
        return group

    @cached_property
    def rels(self):
        """The relations of a group of :meth:`_of_lattice`, built on first read (``_relations``)."""
        return _relations(*self._lattice)

    @cached_property
    def _snf(self):
        return smith_normal_form(self.rels, self.ngens)

    @cached_property
    def _diag_full(self):
        if self._read_off and "_snf" not in vars(self):
            return _read_off_diagonal(*self._lattice)
        d = self._snf.diagonal
        return [d[i] if i < len(d) else 0 for i in range(self.ngens)]

    @cached_property
    def _torsion_pos(self):
        return [i for i, d in enumerate(self._diag_full) if d >= 2]

    @cached_property
    def _free_pos(self):
        return [i for i, d in enumerate(self._diag_full) if d == 0]

    @property
    def rank(self):
        return len(self._free_pos)

    @property
    def torsion(self):
        return tuple(self._diag_full[i] for i in self._torsion_pos)

    def invariants(self):
        return (self.rank, self.torsion)

    @property
    def nf_length(self):
        return len(self._torsion_pos) + len(self._free_pos)

    def zero_nf(self):
        return (0,) * self.nf_length

    def reduce(self, x):
        x = int_vector(x)
        if len(x) != self.ngens:
            raise DimensionError(
                f"vector of length {len(x)} in group with {self.ngens} generators"
            )
        y = _sum_terms((v, self._snf._U_columns[j]) for j, v in enumerate(x) if v)
        tor = tuple(y.get(i, 0) % self._diag_full[i] for i in self._torsion_pos)
        free = tuple(y.get(i, 0) for i in self._free_pos)
        return tor + free

    def section(self, nf):
        nf = int_vector(nf)
        if len(nf) != self.nf_length:
            raise DimensionError(
                f"normal form of length {len(nf)}, expected {self.nf_length}"
            )
        y = [0] * self.ngens
        for slot, i in enumerate(self._torsion_pos + self._free_pos):
            y[i] = nf[slot]
        return mat_vec(self._snf.Uinv, y, self.ngens)

    def is_zero(self, x):
        return self.reduce(x) == self.zero_nf()

    def generator_vectors(self):
        """Ambient representatives of the normal-form unit vectors."""
        out = []
        for s in range(self.nf_length):
            nf = [0] * self.nf_length
            nf[s] = 1
            out.append(self.section(nf))
        return out

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return "FgAbelianGroup(" + (" + ".join(parts) if parts else "0") + ")"


class GroupHom:
    """Homomorphism between presented groups, by its matrix on ambient generators.

    ``matrix`` has one column per source generator, its image in target
    coordinates.  Precondition, not checked: the map is well defined, that
    is ``matrix`` sends every relation of the source into the span of the
    target's relations.  ``induced_hom`` states what its callers prove for
    it.
    """

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = list(matrix)
        if len(self.matrix) != source.ngens:
            raise DimensionError(
                f"hom matrix has {len(self.matrix)} columns, expected {source.ngens}"
            )
        _check_rows(self.matrix, target.ngens, "hom matrix")

    def is_zero_hom(self):
        rows = self.target.ngens
        return all(not col or self.target.is_zero(dense_vector(col, rows)) for col in self.matrix)

    def kernel(self):
        """ker as a subquotient of the source group.

        Its denominator is the source's own relations, which lie in the
        numerator plus the relations of the ambient source by definition.
        """
        K = kernel_basis(self.matrix + self.target.rels, self.target.ngens)
        return subquotient(self.source, _restrict(K, self.source.ngens), self.source.rels)

    def image(self):
        """im as a subquotient of the target group, over the empty denominator."""
        return subquotient(self.target, self.matrix, [])

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# subquotients


class Subquotient:
    """im(Z)/im(B) inside an ambient presented group, with a reduction map.

    ``gens`` columns are ambient-coordinate generators; ``group`` presents the
    quotient on those generators.  ``reduce`` takes ambient coordinates of a
    member to quotient normal form and is additive, so differences of classes
    (torsor computations) can be taken in normal form.  Nothing is factored
    at construction: the membership matrix [Z | ambient relations] on the
    first ``coords``, and the group's relations on the first ``reduce`` or
    ``generator_vectors`` (``subquotient``); ``invariants`` builds neither
    when ``subquotient`` could read them off B.
    """

    def __init__(self, ambient, gens, group):
        self.ambient = ambient
        self.gens = gens
        self.group = group

    @cached_property
    def _membership(self):
        return smith_normal_form(self.gens + self.ambient.rels, self.ambient.ngens)

    def coords(self, x):
        """One expression of x over the generators, as ambient-presentation coords."""
        sol = self._membership.solve(x)
        if sol is None:
            raise NotInSubgroupError("vector is not a member of the subgroup")
        return sol[: len(self.gens)]

    def reduce(self, x):
        return self.group.reduce(self.coords(x))

    def is_zero(self, x):
        return self.reduce(x) == self.group.zero_nf()

    def generator_vectors(self):
        return [mat_vec(self.gens, v, self.ambient.ngens) for v in self.group.generator_vectors()]

    def invariants(self):
        return self.group.invariants()

    def __repr__(self):
        return f"Subquotient({self.group!r})"


def induced_hom(src: Subquotient, tgt: Subquotient, fn) -> GroupHom:
    """GroupHom between subquotient groups induced by fn on ambient vectors.

    fn takes and returns dense vectors and is additive.  It must send the
    numerator of ``src`` into the numerator of ``tgt``, and the denominator
    of ``src`` plus its ambient relations into the denominator of ``tgt``
    plus its ambient relations.  The first is certified here: a generator
    whose image is not in the numerator raises NotInSubgroupError from the
    membership solve.  The second is the caller's to prove, and it makes
    the map well defined: a relation lambda of ``src.group`` has Z lambda in
    that denominator, so fn(Z lambda) is in ``tgt``'s, and the matrix sends
    lambda to coordinates of fn(Z lambda) over ``tgt.gens`` modulo the
    ambient relations, which is a relation of ``tgt.group`` (see
    ``subquotient``).
    """
    rows = src.ambient.ngens
    cols = []
    for col in src.gens:
        lam = tgt.coords(fn(dense_vector(col, rows)))
        cols.append({i: x for i, x in enumerate(lam) if x})
    return GroupHom(src.group, tgt.group, cols)


def _relations(amb, Z, B):
    """The lattice of every lambda with Z lambda in im(B) plus the relations of ``amb``, as columns."""
    K = kernel_basis(Z + B + amb.rels, amb.ngens)
    return _restrict(K, len(Z))


def _read_off_diagonal(amb, Z, B):
    """The Smith diagonal of ``_relations(amb, Z, B)`` padded with zeros to len(Z), read off B.

    Only where ``subquotient`` proves it: len(Z) ones for a Z with no entry,
    and otherwise the invariant factors of B followed by zeros.
    """
    if not any(Z):
        return [1] * len(Z)
    factors = invariant_factors(B)
    return factors + [0] * (len(Z) - len(factors))


def subquotient(amb, Z, B, _saturated=False):
    """im(Z)/im(B) inside ``amb``, for Z and B matrices (as columns) on its generators.

    Precondition, not checked: im(B) lies in im(Z) plus the relations of
    ``amb``.  The group is presented on the columns of Z, with relations
    the lattice of all coefficient vectors lambda for which Z lambda lies
    in im(B) plus those relations (``_relations``), built on first read of
    ``reduce``, ``section`` or ``rels``.  Every caller in ``tdk`` proves the
    precondition in its docstring: ``cochain_cohomology``,
    ``BundleModel._page_subquotient``, ``GroupHom.kernel`` and ``image``,
    and ``tduality_core.extension_report``'s torsor; a zero group has no B.

    The invariants are known without the relations in two cases (module
    docstring), where the group reads its padded Smith diagonal off B
    (``_read_off_diagonal``) on the first read of its invariants:

    - a Z with no entry gives the zero group, over any ambient: every lambda
      is a relation, so the diagonal is len(Z) ones;
    - ``_saturated`` is the caller's proof that the columns of Z are a basis
      of a saturated lattice L of Z^ngens, and over a free ambient the
      diagonal is the invariant factors of B followed by zeros.  Only
      ``cochain_cohomology`` and ``BundleModel._page_subquotient`` pass it,
      and each names its proof.
    """
    Z, B = list(Z), list(B)
    read_off = not any(Z) or _saturated and not amb.rels
    return Subquotient(ambient=amb, gens=Z, group=FgAbelianGroup._of_lattice(amb, Z, B, read_off))


def _unit_pivots(rows, cleared=()):
    """Split the +-1 pivots off the matrix with these sparse rows, consuming them.

    ``rows`` lists the rows {column: coeff} by index.  The list and its
    dicts are eliminated in place, so a caller hands over rows that nothing
    else reads; a stored zero is dropped, as it is no entry.  Rows whose
    index is in ``cleared`` are not loaded.  Returns (pivots, left): the
    pivot column of each unit factor split off, in pivot order, and the
    loaded rows that did not pivot, in index order, some of them emptied.
    See ``invariant_factors`` for the steps and the pivot rule.  Any
    numbering of the rows and columns gives the same factors, since a
    permutation is unimodular; it sets only the fill-in.
    """
    where = {}  # column -> rows with a nonzero entry in it
    for r, row in enumerate(rows):
        if row and 0 in row.values():
            rows[r] = row = {c: x for c, x in row.items() if x}
        if not row or r in cleared:
            rows[r] = None
            continue
        for c in row:
            hit = where.get(c)
            if hit is None:
                where[c] = {r}
            else:
                hit.add(r)
    pivots = []
    for r, row in enumerate(rows):
        if row is None:
            continue
        p = None
        for c, x in row.items():
            if x == 1 or x == -1:
                n = len(where[c])
                if p is None or n < fewest or n == fewest and c < p:
                    p, fewest = c, n
        if p is None:
            continue
        sign = row.pop(p)
        for c in row:
            where[c].discard(r)
        others = where.pop(p)
        others.discard(r)
        for r2 in others:
            other = rows[r2]
            q = other.pop(p) * sign
            for c, x in row.items():
                if c in other:
                    y = other[c] - q * x
                    if y:
                        other[c] = y
                    else:
                        del other[c]
                        where[c].discard(r2)
                else:
                    other[c] = -q * x
                    where[c].add(r2)
        rows[r] = None
        pivots.append(p)
    return pivots, [row for row in rows if row is not None]


def _block_factors(rows):
    """Nonzero Smith diagonal of the rows that ``_unit_pivots`` leaves.

    A single row or a single column has one invariant factor, the gcd of
    its entries: Euclid's steps on them are unimodular and end in that gcd
    and zeros.  Only a wider block goes to ``smith_normal_form``.
    """
    left = [row for row in rows if row]
    if not left:
        return []
    columns = {c for row in left for c in row}
    if len(left) == 1 or len(columns) == 1:
        return [math.gcd(*(x for row in left for x in row.values()))]
    block = transpose(left, max(columns) + 1)
    return [d for d in smith_normal_form([col for col in block if col], len(left)).diagonal if d]


def invariant_factors(columns):
    """Nonzero Smith diagonal d_1 | d_2 | ... of the matrix with these columns.

    ``columns`` lists the columns as sparse dicts {row: coeff}; they are
    read, not changed, as the elimination runs on a transpose of them.
    Row by row, a +-1 entry becomes a pivot: adding multiples of the pivot
    row clears the rest of its column, column operations then clear the
    rest of the row, and the unit splits off as a factor 1.  Both are
    unimodular, so the invariant factors do not change.  A row's pivot is
    its unit entry in the column with the fewest entries (least index on
    ties), which limits fill-in.  What is left goes to
    ``smith_normal_form``, unless it is a single row or column, whose one
    factor is the gcd of its entries; only the diagonal is read, so the
    pivot rule of that kernel fixes nothing here.  Each step only adds
    multiples of one row to others, so every row left is a Z-combination of
    the rows given; ``cochain_invariants`` builds its clearing on that.

    The order of the rows and of the columns changes no factor: permuting
    either is multiplying by a permutation matrix, which is unimodular.  So
    a caller of the kernel may number rows and columns as suits the
    elimination, as ``SimplicialComplex`` does for ``cochain_invariants``.
    """
    rows = 1 + max((max(col) for col in columns if col), default=-1)
    pivots, left = _unit_pivots(transpose(columns, rows))
    return [1] * len(pivots) + _block_factors(left)


def cochain_invariants(top, dim, rows, components):
    """[(rank, torsion)] of H^k for k = 0..top, one elimination per differential d_top..d_1.

    ``dim(k)`` is the rank of the degree-k cochains and ``rows(k)`` the
    differential d_k out of them as fresh sparse rows {column: coeff}, one
    per basis element of degree k + 1, which the elimination consumes; it is
    read for k >= 1 only.  ``components`` is the rank of H^0 = ker d_0,
    which the caller proves.  With r_k the rank of d_k and e_i >= 2 the
    invariant factors of d_{k-1},

        H^k = Z^(dim C^k - r_k - r_{k-1}) + sum_i Z/e_i.

    Proof: ker d_k is saturated (C^k / ker d_k embeds in the free C^{k+1})
    and, as d o d = 0, contains im d_{k-1}.  So C^k / im d_{k-1} splits as
    H^k plus the free C^k / ker d_k, its torsion is that of H^k, and by the
    Smith form of d_{k-1} that torsion is sum_i Z/e_i; ranks add up as stated.
    None of it depends on how the bases are ordered, as long as the columns
    of d_k and the rows of d_{k-1} number the basis of C^k alike.

    d_0 is not eliminated: its invariant factors are dim C^0 - components
    ones.  A caller proves that with one of two facts.  A simplicial d_0 is
    the transpose of the oriented incidence matrix of the 1-skeleton, a
    graph; that matrix is totally unimodular, so every nonzero invariant
    factor is 1, and its rank is #vertices - #components, which
    ``SimplicialComplex`` counts by union-find over the edges.  A ring
    model has C^0 = Z.1 and d(1) = 0, so d_0 = 0 and components = 1.

    Clearing (Chen & Kerber's twist, for cochains): the degrees run from top
    down to 1, and the pivot columns of d_k's unit phase are rows of d_{k-1}
    (both index the basis of C^k) that are never loaded.  Dropping them
    keeps the invariant factors of d_{k-1}.  Proof: when row r of d_k pivots
    at column p, its current value z is a Z-combination of rows of d_k, so
    z d_{k-1} = 0 by d o d = 0; z_p = +-1, and z is zero at every earlier
    pivot column, which the earlier pivots cleared from all rows left.  So
    row p of d_{k-1} is a Z-combination of its rows at non-pivot columns
    and at later pivot columns.  By induction from the last pivot, every
    cleared row of d_{k-1} is a Z-combination of the kept rows; subtracting
    those combinations is unimodular and leaves the cleared rows zero.  The
    proof uses the pivots' sequence and nothing of the order in which rows
    and columns are numbered, so any numbering of the bases keeps it.  The
    pivots of d_1 would clear rows of d_0, which is never written.

    The precondition d o d = 0 is not checked here, and clearing rests on it
    as much as the formula does.  It holds by construction for simplicial
    complexes, ``DgRingModel.validate`` certifies it for parsed ``dgring``
    documents, and ``BundleModel``'s certificate, which checks the terms of
    d o d on the base, for every bundle build.  Callers that
    need classes, representatives or reductions use ``cochain_cohomology``
    instead.
    """
    factors = [None] * (top + 1)
    pivots = ()
    for k in range(top, 0, -1):
        pivots, left = _unit_pivots(rows(k), set(pivots))
        factors[k] = [1] * len(pivots) + _block_factors(left)
    factors[0] = [1] * (dim(0) - components)
    out = []
    for k in range(top + 1):
        below = factors[k - 1] if k else []
        rank = dim(k) - len(factors[k]) - len(below)
        out.append((rank, tuple(e for e in below if e >= 2)))
    return out


def cochain_cohomology(k, top, dim, d_columns):
    """H^k = ker d_k / im d_{k-1} of a cochain complex in degrees 0..top.

    ``dim(k)`` is the rank of the degree-k cochains and ``d_columns(k)`` the
    differential out of them, as sparse columns.  Outside 0..top the group is zero.

    The containment im d_{k-1} in ker d_k, ``subquotient``'s precondition,
    is proved: d_k d_{k-1} = 0, so each column of d_{k-1} lies in
    ker d_k, and the kernel basis spans the whole integer lattice ker d_k (the
    last columns of V in the Smith form of d_k), so each such column is an
    integer combination of it.  d o d = 0 is the precondition of
    ``cochain_invariants`` too; simplicial complexes have it by construction,
    parsed models by ``DgRingModel.validate`` and bundles by the certificate
    that ``BundleModel`` runs on base data at every build.

    The numerator is saturated, which lets ``subquotient`` read the
    invariants off d_{k-1} with no relation lattice: ``kernel_basis`` gives
    a basis of ker d_k, and ker d_k is saturated in the free C^k, as
    C^k / ker d_k embeds in the free C^{k+1}.
    """
    if not 0 <= k <= top:
        return subquotient(FgAbelianGroup(0), [], [])
    B = d_columns(k - 1) if k >= 1 else []
    Z = kernel_basis(d_columns(k), dim(k + 1))
    return subquotient(FgAbelianGroup(dim(k)), Z, B, _saturated=True)
