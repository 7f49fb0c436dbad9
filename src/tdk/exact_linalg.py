"""Exact integer matrix algebra and finitely generated abelian groups.

Matrices passed in and out are 2-dimensional numpy arrays with
``dtype=object`` holding Python ints, so all arithmetic is arbitrary
precision.  There is one elimination kernel: ``smith_normal_form`` copies
the matrix into lists of Python ints, eliminates there, and returns a
:class:`SmithForm` with unimodular U, V such that ``U @ M @ V`` is diagonal
with a divisibility chain.  The rest of the module (solving, kernels,
cokernels, presented groups, subquotients) is built on top of it.

Invariant factors alone need no U or V.  ``invariant_factors`` takes a
matrix as sparse columns and first eliminates its +-1 pivots on sparse rows,
each a unimodular step that splits off a factor 1; sparse +-1 coboundaries
mostly vanish that way (Dumas, Heckenbach, Saunders & Welker 2003), and the
small block that is left goes to ``smith_normal_form``, of which only the
diagonal is read.  Cohomology has two routines on top of that:
``cochain_invariants`` gives the isomorphism type of every H^k from one
``invariant_factors`` per differential, and ``cochain_cohomology`` builds
H^k = ker d_k / im d_{k-1} as a :class:`Subquotient` for callers that need
classes, representatives or reductions.

Model differentials are stored only as sparse columns, one dict
{row: coeff} per source basis element.  ``dense_matrix`` turns such columns
into an object matrix; it is the one place a dense differential is built,
and only callers that eliminate or multiply whole matrices ask for it.

Factor once, solve many: a matrix that meets several right-hand sides is
factored once and each right-hand side goes through ``SmithForm.solve``.
``solve(M, b)`` is the one-shot form.  ``Subquotient`` keeps the factored
membership matrix, so every reduction, lift check and induced map against
one subquotient shares a single factorization.

The pivot order is part of the contract, because U and V fix every particular
solution and every normal-form coordinate that reaches a report: at step t
the pivot is the first entry of least absolute value in a row-major scan of
the remaining block.  A unit entry ends the scan early and skips the
divisibility fold, which changes no pivot.

The benchmark tracer (``benchmark/tracing.py``) relies on two things here:
``SmithForm.U``, ``.D`` and ``.V`` are 2-dimensional numpy arrays (it reads
their ``shape``, ``size``, ``max()`` and ``min()``), and the module-level
names ``smith_normal_form``, ``solve``, ``subquotient`` and ``kernel_basis``
are what it wraps.  The same tracer reads ``cache_info()`` from the
``lru_cache``s on the cohomology and page methods of the models, so those
caches stay as they are.

Values are immutable after construction and safe to share across threads;
the parts built on first use are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, InputError, NotInSubgroupError, SubgroupContainmentError

__all__ = [
    "intmat",
    "intvec",
    "zeros",
    "eye",
    "hstack",
    "mat_eq",
    "unimodular_inverse",
    "dense_matrix",
    "SmithForm",
    "smith_normal_form",
    "matrix_rank",
    "solve",
    "kernel_basis",
    "Kernel",
    "kernel",
    "cokernel",
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
# matrix helpers


def intmat(data, rows=None, cols=None):
    """Build an object-dtype integer matrix; shape hints cover the empty cases."""
    if isinstance(data, np.ndarray) and data.ndim == 2:
        if not data.size:
            return zeros(*data.shape)
        data = data.tolist()
    data = [list(map(int, row)) for row in data]
    if not data or not any(len(r) for r in data):
        r = rows if rows is not None else len(data)
        c = cols if cols is not None else 0
        return zeros(r, c)
    a = np.array(data, dtype=object)
    if a.ndim != 2:
        raise DimensionError("matrix data is not rectangular")
    return a


def intvec(data, length=None):
    if isinstance(data, np.ndarray):
        data = data.tolist()
    vals = list(map(int, data))
    if not vals:
        return np.zeros(length if length is not None else 0, dtype=object) + 0
    return np.array(vals, dtype=object)


def zeros(r, c):
    return np.zeros((r, c), dtype=object) + 0


def eye(n):
    m = zeros(n, n)
    for i in range(n):
        m[i, i] = 1
    return m


def hstack(blocks):
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("hstack of no blocks")
    return np.hstack(blocks)


def mat_eq(a, b):
    return a.shape == b.shape and all(
        a[i, j] == b[i, j] for i in range(a.shape[0]) for j in range(a.shape[1])
    )


def dense_matrix(columns, rows):
    """The object matrix with ``rows`` rows whose columns are these sparse dicts {row: coeff}."""
    out = [[0] * len(columns) for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            out[r][c] = x
    return _array(out, rows, len(columns))


def _array(rows, r, c):
    """Object matrix from r row lists of length c."""
    return np.array(rows, dtype=object) if r and c else zeros(r, c)


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


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm:
    """U @ M @ V == D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0.

    ``D`` and the inverses ``Uinv`` and ``Vinv`` are built on first use.
    """

    def __init__(self, shape, diagonal, U, V):
        self.shape = shape
        self._diagonal = diagonal
        self.U = U
        self.V = V

    @property
    def diagonal(self):
        return list(self._diagonal)

    @property
    def rank(self):
        return sum(1 for d in self._diagonal if d != 0)

    @cached_property
    def D(self):
        out = zeros(*self.shape)
        for i, d in enumerate(self._diagonal):
            out[i, i] = d
        return out

    @cached_property
    def Uinv(self):
        return unimodular_inverse(self.U)

    @cached_property
    def Vinv(self):
        return unimodular_inverse(self.V)

    def solve(self, b):
        """One integer solution x of M @ x == b, or None when unsolvable over Z.

        Unsolvability is decided exactly: in Smith coordinates the system
        splits into congruences c_i = d_i * y_i, so either some d_i fails to
        divide c_i or a zero row meets a nonzero c_i.
        """
        m, n = self.shape
        b = intvec(b, length=m)
        if b.shape[0] != m:
            raise DimensionError(f"solve: got rhs of length {b.shape[0]}, expected {m}")
        # right-hand sides are mostly sparse: multiply by the needed columns only
        nz = np.flatnonzero(b)
        c = self.U[:, nz].dot(b[nz]).tolist()
        y = [0] * n
        diag = self._diagonal
        for i, ci in enumerate(c):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if ci != 0:
                    return None
            else:
                if ci % d != 0:
                    return None
                y[i] = ci // d
        nz = [i for i, yi in enumerate(y) if yi]
        return self.V[:, nz].dot(np.array([y[i] for i in nz], dtype=object))


def unimodular_inverse(W):
    """The inverse of a unimodular W: from P @ W @ Q == I, W^-1 == Q @ P.

    Raises InputError when W is not invertible over the integers.
    """
    sf = smith_normal_form(W)
    if sf.diagonal != [1] * W.shape[0]:
        raise InputError("block is not invertible over the integers")
    return sf.V.dot(sf.U)


def smith_normal_form(M):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns a :class:`SmithForm`.  The nonzero diagonal entries are positive
    and each divides the next; U, V have determinant +-1.
    """
    A = intmat(M)
    m, n = A.shape
    A = A.tolist()
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
    V = _array(Vc, n, n).T
    return SmithForm((m, n), diagonal, _array(U, m, m), V)


def matrix_rank(M):
    return smith_normal_form(M).rank


def solve(M, b):
    """One integer solution x of M @ x == b, or None when unsolvable over Z.

    Factors M once for this one right-hand side; with several right-hand
    sides, call ``smith_normal_form(M).solve`` on each instead.
    """
    return smith_normal_form(M).solve(b)


def kernel_basis(M):
    """Columns form a basis of the (saturated) integer kernel lattice of M."""
    sf = smith_normal_form(M)
    return sf.V[:, sf.rank :].copy()


@dataclass(frozen=True)
class Kernel:
    """Kernel of an integer matrix as a free group plus its inclusion."""

    group: "FgAbelianGroup"
    inclusion: np.ndarray  # cols(M) x rank, columns span ker(M)


def kernel(M):
    B = kernel_basis(M)
    return Kernel(group=FgAbelianGroup(B.shape[1]), inclusion=B)


def cokernel(M):
    """Z^rows / column span of M; the group's ``reduce`` is the projection."""
    A = intmat(M)
    return FgAbelianGroup(A.shape[0], A)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FgAbelianGroup:
    """Z^ngens modulo the column span of a relation matrix.

    Normal-form coordinates list the torsion slots first (in invariant-factor
    order, entries taken mod d_i) followed by the free slots.  ``reduce`` maps
    ambient coordinates to normal form, ``section`` picks a representative,
    and reduce(section(x)) == x for every normal form x.
    """

    def __init__(self, ngens, rels=None):
        self.ngens = int(ngens)
        if rels is None:
            rels = zeros(self.ngens, 0)
        self.rels = intmat(rels)
        if self.rels.shape[0] != self.ngens:
            raise DimensionError(
                f"relation matrix has {self.rels.shape[0]} rows, expected {ngens}"
            )

    @cached_property
    def _snf(self):
        return smith_normal_form(self.rels)

    @cached_property
    def _diag_full(self):
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

    def is_trivial(self):
        return self.nf_length == 0

    def zero_nf(self):
        return (0,) * self.nf_length

    def reduce(self, x):
        x = intvec(x, length=self.ngens)
        if x.shape[0] != self.ngens:
            raise DimensionError(
                f"vector of length {x.shape[0]} in group with {self.ngens} generators"
            )
        y = self._snf.U.dot(x)
        tor = tuple(int(y[i]) % self._diag_full[i] for i in self._torsion_pos)
        free = tuple(int(y[i]) for i in self._free_pos)
        return tor + free

    def section(self, nf):
        nf = tuple(int(v) for v in nf)
        if len(nf) != self.nf_length:
            raise DimensionError(
                f"normal form of length {len(nf)}, expected {self.nf_length}"
            )
        y = np.zeros(self.ngens, dtype=object) + 0
        k = len(self._torsion_pos)
        for slot, i in enumerate(self._torsion_pos):
            y[i] = nf[slot]
        for slot, i in enumerate(self._free_pos):
            y[i] = nf[k + slot]
        return self._snf.Uinv.dot(y)

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
    """Homomorphism between presented groups, as a matrix on ambient generators.

    Well-definedness (relations land in relations) is checked at construction.
    """

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = intmat(matrix, rows=target.ngens, cols=source.ngens)
        if self.matrix.shape != (target.ngens, source.ngens):
            raise DimensionError(
                f"hom matrix {self.matrix.shape}, expected "
                f"{(target.ngens, source.ngens)}"
            )
        for j in range(self.source.rels.shape[1]):
            img = self.matrix.dot(self.source.rels[:, j])
            if not self.target.is_zero(img):
                raise SubgroupContainmentError(
                    f"relation column {j} is not sent into the target relations"
                )

    def apply(self, x):
        return self.matrix.dot(intvec(x, length=self.source.ngens))

    def compose(self, other):
        """self after other."""
        if other.target.ngens != self.source.ngens:
            raise DimensionError("composition dimension mismatch")
        return GroupHom(other.source, self.target, self.matrix.dot(other.matrix))

    def is_zero_hom(self):
        return all(
            self.target.is_zero(self.matrix[:, j])
            for j in range(self.matrix.shape[1])
        )

    def kernel(self):
        """ker as a subquotient of the source group."""
        stacked = hstack([self.matrix, self.target.rels])
        K = kernel_basis(stacked)
        L = K[: self.source.ngens, :]
        return subquotient(self.source, L, self.source.rels)

    def image(self):
        return subquotient(self.target, self.matrix, zeros(self.target.ngens, 0))

    def cokernel(self):
        return subquotient(self.target, eye(self.target.ngens), self.matrix)

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# subquotients


class Subquotient:
    """im(Z)/im(B) inside an ambient presented group, with a reduction map.

    ``gens`` columns are ambient-coordinate generators; ``group`` presents the
    quotient on those generators.  ``reduce`` takes ambient coordinates of a
    member to quotient normal form and is additive, so differences of classes
    (torsor computations) can be taken in normal form.
    """

    def __init__(self, ambient, gens, group):
        self.ambient = ambient
        self.gens = gens
        self.group = group

    @cached_property
    def _membership(self):
        return smith_normal_form(hstack([self.gens, self.ambient.rels]))

    def coords(self, x):
        """One expression of x over the generators, as ambient-presentation coords."""
        x = intvec(x, length=self.ambient.ngens)
        sol = self._membership.solve(x)
        if sol is None:
            raise NotInSubgroupError("vector is not a member of the subgroup")
        return sol[: self.gens.shape[1]]

    def reduce(self, x):
        return self.group.reduce(self.coords(x))

    def contains(self, x):
        try:
            self.reduce(x)
            return True
        except NotInSubgroupError:
            return False

    def is_zero(self, x):
        return self.reduce(x) == self.group.zero_nf()

    def generator_vectors(self):
        return [self.gens.dot(v) for v in self.group.generator_vectors()]

    def invariants(self):
        return self.group.invariants()

    def __repr__(self):
        return f"Subquotient({self.group!r})"


def _as_matrix(x, ngens):
    if isinstance(x, GroupHom):
        if x.target.ngens != ngens:
            raise DimensionError("hom target does not match the ambient group")
        return x.matrix
    return intmat(x, rows=ngens)


def induced_hom(src: Subquotient, tgt: Subquotient, fn) -> GroupHom:
    """GroupHom between subquotient groups induced by fn on ambient vectors.

    fn must send the numerator of ``src`` into the numerator of ``tgt`` and
    denominators into denominators; both are certified by the membership
    solve and the GroupHom well-definedness check.
    """
    cols = [tgt.coords(fn(src.gens[:, j])) for j in range(src.gens.shape[1])]
    mat = zeros(tgt.group.ngens, src.group.ngens)
    for j, lam in enumerate(cols):
        for i in range(tgt.group.ngens):
            mat[i, j] = lam[i]
    return GroupHom(src.group, tgt.group, mat)


def subquotient(amb, Z, B):
    """im(Z)/im(B) inside ``amb``; raises when im(B) is not inside im(Z).

    Z and B may be GroupHoms into ``amb`` or plain matrices on its ambient
    generators.  The violation certificate names the first offending column.
    """
    MZ = _as_matrix(Z, amb.ngens)
    MB = _as_matrix(B, amb.ngens)
    a = MZ.shape[1]
    K = kernel_basis(hstack([MZ, MB, amb.rels]))
    sq = Subquotient(ambient=amb, gens=MZ, group=FgAbelianGroup(a, K[:a, :]))
    for j in range(MB.shape[1]):
        if sq._membership.solve(MB[:, j]) is None:
            raise SubgroupContainmentError(
                f"generator column {j} of the denominator lies outside the "
                f"numerator subgroup: {MB[:, j].tolist()}"
            )
    return sq


def invariant_factors(columns):
    """Nonzero Smith diagonal d_1 | d_2 | ... of the matrix with these columns.

    ``columns`` lists the columns as sparse dicts {row: coeff}.  Row by row,
    a +-1 entry becomes a pivot: adding multiples of the pivot row clears
    the rest of its column, column operations then clear the rest of the
    row, and the unit splits off as a factor 1.  Both are unimodular, so
    the invariant factors do not change.  A row's pivot is its unit entry
    in the column with the fewest entries (least index on ties), which
    limits fill-in.  What is left goes to ``smith_normal_form``; only its
    diagonal is read, so the pivot rule of that kernel fixes nothing here.
    """
    rows = {}
    for c, col in enumerate(columns):
        for r, x in col.items():
            rows.setdefault(r, {})[c] = x
    where = {}  # column -> rows with a nonzero entry in it
    for r, row in rows.items():
        for c in row:
            where.setdefault(c, set()).add(r)
    units = 0
    for r in sorted(rows):
        row = rows[r]
        pivots = [c for c, x in row.items() if x in (1, -1)]
        if not pivots:
            continue
        p = min(pivots, key=lambda c: (len(where[c]), c))
        sign = row[p]
        for r2 in where[p] - {r}:
            other = rows[r2]
            q = other[p] * sign
            for c, x in row.items():
                y = other.get(c, 0) - q * x
                if y:
                    if c not in other:
                        where[c].add(r2)
                    other[c] = y
                else:
                    del other[c]
                    where[c].discard(r2)
        for c in row:
            where[c].discard(r)
        del rows[r]
        units += 1
    left = [rows[r] for r in sorted(rows) if rows[r]]
    if not left:
        return [1] * units
    cols = sorted({c for row in left for c in row})
    block = [[row.get(c, 0) for c in cols] for row in left]
    return [1] * units + [d for d in smith_normal_form(block).diagonal if d]


def cochain_invariants(top, dim, columns):
    """[(rank, torsion)] of H^k for k = 0..top, one elimination per differential.

    ``dim(k)`` is the rank of the degree-k cochains and ``columns(k)`` the
    differential d_k out of them as sparse columns.  With r_k the rank of
    d_k and e_i >= 2 the invariant factors of d_{k-1},

        H^k = Z^(dim C^k - r_k - r_{k-1}) + sum_i Z/e_i.

    Proof: ker d_k is saturated (C^k / ker d_k embeds in the free C^{k+1})
    and, as d o d = 0, contains im d_{k-1}.  So C^k / im d_{k-1} splits as
    H^k plus the free C^k / ker d_k, its torsion is that of H^k, and by the
    Smith form of d_{k-1} that torsion is sum_i Z/e_i; ranks add up as stated.

    The precondition d o d = 0 is not checked here.  It holds by construction
    for simplicial complexes, ``DgRingModel.validate`` certifies it for parsed
    ``dgring`` documents, and ``check_d_squared`` for every bundle build.
    Callers that need classes, representatives or reductions use
    ``cochain_cohomology`` instead.
    """
    factors = [invariant_factors(columns(k)) for k in range(top + 1)]
    out = []
    for k in range(top + 1):
        below = factors[k - 1] if k else []
        rank = dim(k) - len(factors[k]) - len(below)
        out.append((rank, tuple(e for e in below if e >= 2)))
    return out


def cochain_cohomology(k, top, dim, d_matrix, cycles=None, boundaries=None):
    """H^k = ker d_k / im d_{k-1} of a cochain complex in degrees 0..top.

    ``dim(k)`` is the rank of the degree-k cochains and ``d_matrix(k)`` the
    differential out of them.  Outside 0..top the group is zero.  The
    spectral-sequence pages pass other degree-k lattices as ``cycles`` and
    ``boundaries``, callables run only when k is in range.
    """
    if not 0 <= k <= top:
        return subquotient(FgAbelianGroup(0), zeros(0, 0), zeros(0, 0))
    Z = cycles() if cycles else kernel_basis(d_matrix(k))
    if boundaries:
        B = boundaries()
    else:
        B = d_matrix(k - 1) if k >= 1 else zeros(dim(k), 0)
    return subquotient(FgAbelianGroup(dim(k)), Z, B)
