"""Rational twisted cohomology and the duality transformation between sides.

The twisted complex of a bundle model with a degree-3 flux z is its cochain
model over Q, graded by total parity, with differential D = d + (z . ) given
by left multiplication.  Coefficients are rational only; integral torsion
refinements are out of scope and flagged in reports.

Every matrix here is a list of sparse integer columns {row: coeff}, and
every rank over Q is their Z-rank, ``len(invariant_factors(columns))``.

D o D = 0 holds without a check, as the bundle model is an associative,
graded-commutative ring over a validated base: d o d = 0 is certified at
every bundle build; z is checked closed, so by Leibniz d(z . x) = -z . dx;
and z . (z . x) = (z . z) . x with z . z = 0, as graded commutativity gives
2 z . z = 0 on a free Z-module.

The transformation attached to a triple is realized on the doubled model as

    T(omega) = integrate_over_side_fiber( exp(-w) . p*(omega) ),

where p* includes the side model, exp(-w) is the finite exponential of the
correspondence cochain (nilpotent, so a polynomial), and the fiber
integration extracts the coefficient of y_1 ^ ... ^ y_n with the sign
(-1)^(n.|b|) of moving the base factor out front.  With these conventions
the chain identity  D_dual o T = (-1)^n . T o D_side  holds entry-exactly,
and T drops total degree by n.  T is linear in omega, so exp(-w) is built
once, as w^m = w^(m-1) . w, with its terms grouped by side-fiber monomial:
b . y_S reaches y_1 ... y_n only through the group of the complement of S.

Everything is computed over Z, on sparse cochains.  The m-th term
(-w)^m / m! of exp(-w) can be nonzero only for 2m <= D, the top degree of
the doubled model, so with N = (D // 2)! each N . (-1)^m / m! is an integer
and :class:`TMap` holds the integer matrix N . T.  The chain identity is
linear in T, so N . T satisfies it iff T does; and N != 0 scales images
without changing any rank, so the induced maps on twisted cohomology are
bijective iff those of T are.  Reports are unchanged: they still state
rational coefficients, and their dimensions are over Q.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .errors import InputError, Record
from .exact_linalg import _sum_terms, compose, int_vector, kernel_basis, matrix_rank
from .space_model import Cocycle, _terms
from .tduality_core import Triple, validate_triple
from .torus_bundle import BundleModel

__all__ = [
    "TwistedComplex",
    "TMap",
    "IsoReport",
    "twisted_dims",
    "t_transform",
    "verify_iso",
]


# ---------------------------------------------------------------------------
# rational linear algebra, through the integer elimination kernel
#
# Every rank here goes through ``rational_rank``, which ``benchmark/tracing.py``
# wraps to time it.  Nothing calls ``rational_kernel``; it stays only because
# that tracer lists it, and goes when the tracer stops patching names.


def rational_rank(columns):
    """Rank over Q of the integer matrix with these sparse columns (equal to its Z-rank)."""
    return matrix_rank(columns)


def rational_kernel(M, rows):
    """Integer columns spanning ker(M) over Q."""
    return kernel_basis(M, rows)


# ---------------------------------------------------------------------------
# twisted complexes


class TwistedComplex:
    """Parity-graded rational complex with D = d + (z . ); ``D_from[par]`` holds D out of par.

    z is checked closed, and D o D = 0 then holds by the module docstring's proof.
    """

    def __init__(self, bundle: BundleModel, z):
        self.bundle = bundle
        z = int_vector(z, "twisting cocycle")
        if not bundle.is_closed(3, z):
            raise InputError("twisting cocycle must be closed of degree 3")
        self.z = z
        self.degrees = {par: list(range(par, bundle.D + 1, 2)) for par in (0, 1)}
        self.offsets, self.dims = {}, {}
        for par, degrees in self.degrees.items():
            starts = list(itertools.accumulate((bundle.dim(k) for k in degrees), initial=0))
            self.offsets[par] = dict(zip(degrees, starts))
            self.dims[par] = starts[-1]
        self.D_from = {par: self._columns(par) for par in (0, 1)}

    def _columns(self, par):
        """D out of this parity as sparse columns: d lands in degree k + 1, z . in k + 3.

        Past the top degree both parts are empty, so their offsets are never read.
        """
        z = _terms(self.z, self.bundle.dim(3))
        rows = self.offsets[1 - par]
        cols = []
        for k in self.degrees[par]:
            for j, dcol in enumerate(self.bundle.d_columns(k)):
                col = {rows[k + 1] + r: x for r, x in dcol.items()}
                for r, x in self.bundle.mul_terms(3, z, k, {j: 1}).items():
                    col[rows[k + 3] + r] = x
                cols.append(col)
        return cols

    @cached_property
    def ranks(self):
        """Q-ranks of D out of parity 0 and out of parity 1."""
        return rational_rank(self.D_from[0]), rational_rank(self.D_from[1])

    def cohomology_dims(self):
        r01, r10 = self.ranks
        return (self.dims[0] - r01 - r10, self.dims[1] - r10 - r01)


def twisted_dims(m: BundleModel, z):
    """Q-dimensions (even, odd) of the flux-twisted cohomology."""
    if isinstance(z, Cocycle):
        if z.degree != 3:
            raise InputError("twist has degree 3")
        z = z.vector
    return TwistedComplex(m, z).cohomology_dims()


# ---------------------------------------------------------------------------
# the transformation attached to a triple


class TMap(Record):
    """Blocks of the transformation between the two twisted complexes.

    ``blocks`` holds the integer matrices scale . T, where ``scale`` is the
    N of the module docstring; T itself is blocks / scale over Q.  It maps
    each source parity to sparse columns into parity + ``parity_shift``.
    """

    _fields = ("source", "target", "parity_shift", "blocks", "scale")

    def chain_defect(self):
        """D_dual o T - (-1)^n T o D_side per source parity, as sparse columns; empty when valid."""
        n_sign = -1 if self.parity_shift % 2 else 1
        out = {}
        for par in (0, 1):
            lhs = compose(self.target.D_from[(par + self.parity_shift) % 2], self.blocks[par])
            rhs = compose(self.blocks[1 - par], self.source.D_from[par])
            out[par] = [_sum_terms(((1, a), (-n_sign, b))) for a, b in zip(lhs, rhs)]
        return out

    def is_chain_map(self):
        """The chain identity, entry-exactly; scale . T meets it iff T does."""
        return not any(any(defect) for defect in self.chain_defect().values())


def t_transform(t: Triple) -> TMap:
    """The degree -n transformation realized on the doubled model, times N.

    N . exp(-w) is built once and grouped by side-fiber monomial.  A side
    element b . y_S is multiplied by the group of the complement of S only,
    so each product term integrates to one entry of the dual index, with the
    sign (-1)^(n.p) of its base degree p.
    """
    report = validate_triple(t)
    if not report.ok:
        raise InputError(f"transformation needs a valid triple: {report.failures()}")

    n = t.n
    side = TwistedComplex(t.side.bundle, t.side.flux.vector)
    dual = TwistedComplex(t.dual.bundle, t.dual.flux.vector)
    doubled, dual_index = t.doubled, t.dual.bundle.index
    scale = math.factorial(doubled.D // 2)
    w = _terms(t.w, doubled.dim(2))
    groups = {}  # side-fiber monomial -> {2m: its terms of (-1)^m (N / m!) . w^m}
    power, m = {0: 1}, 0  # w^0, the unit in degree 0
    while power:
        coeff = (-1) ** m * (scale // math.factorial(m))
        for i, x in power.items():
            mono = tuple(j for j in doubled.elements[2 * m][i][2] if j < n)
            groups.setdefault(mono, {}).setdefault(2 * m, {})[i] = coeff * x
        if 2 * m + 2 > doubled.D:
            break
        power = doubled.mul_terms(2 * m, power, 2, w)
        m += 1

    blocks = {}
    for par in (0, 1):
        offsets = dual.offsets[(par + n) % 2]
        cols = blocks[par] = []
        for k in side.degrees[par]:
            for p, a, S in t.side.bundle.elements[k]:
                x = {doubled.index[k][(p, a, S)]: 1}
                col = {}
                rest = tuple(i for i in range(n) if i not in S)
                for deg, group in groups.get(rest, {}).items():
                    low = k + deg - n  # the degree of every term of this product's integral
                    terms = doubled.basis_elements(k + deg)
                    for i, y in doubled.mul_terms(deg, group, k, x).items():
                        q, b, M = terms[i]
                        row = offsets[low] + dual_index[low][(q, b, tuple(j - n for j in M[n:]))]
                        col[row] = -y if n * q % 2 else y
                cols.append(col)
    return TMap(source=side, target=dual, parity_shift=n % 2, blocks=blocks, scale=scale)


# ---------------------------------------------------------------------------
# isomorphism verification


class IsoReport(Record):
    _fields = ("ok", "chain_ok", "dims_side", "dims_dual", "reason")

    def __bool__(self):
        return self.ok


def verify_iso(t: Triple) -> IsoReport:
    """True iff the induced maps on twisted cohomology are bijections.

    The chain identity is checked entry-exactly first; a failure there is
    reported as the reason without attempting rank computations.

    The induced map [x] -> [Tx] out of source parity p has rank
    rank [T . ker D | B] - rank B, with D = D_side out of p on X and B =
    D_dual into the target parity on Y.  That is rank M - rank D - rank B
    for M = [[D, 0], [T, B]] on X + Y, so no kernel basis is needed, as
    rank M = rank D + rank [T . ker D | B].  Proof: ker M = {(x, y) : Dx = 0,
    Tx + By = 0} is the kernel of (x, y) -> Tx + By on ker D + Y, whose image
    the columns of [T . ker D | B] span; so dim ker M = dim ker D + dim Y -
    rank [T . ker D | B], and rank M = dim X + dim Y - dim ker M.  rank D and
    rank B are already known from the twisted dimensions, and scaling T by N
    changes no rank.

    Before the rank, the T block is divided by the gcd g of all its entries,
    which keeps rank M: multiplying the rows of T and B by 1/g and then the
    columns of B by g is invertible over Q, and turns [[D, 0], [T, B]] into
    [[D, 0], [T / g, B]].  On the standard w every entry of N . T is +-N
    (Hori's formula), so T / g has +-1 entries, which the rank takes as unit
    pivots with no Smith form.  The division must be one g for the whole
    block: dividing each column of T by its own content is not a row and
    column scaling, and can change the rank.  With D = [1 1] and T = [2 1]
    (B empty), M = [[1, 1], [2, 1]] has rank 2, but [[1, 1], [1, 1]] has
    rank 1.
    """
    tm = t_transform(t)
    dims_side = tm.source.cohomology_dims()
    dims_dual = tm.target.cohomology_dims()
    chain_ok = tm.is_chain_map()
    reason = "" if chain_ok else "chain-map identity fails at the cochain level"
    for par in (0, 1) if chain_ok else ():
        tgt = (par + tm.parity_shift) % 2
        below = tm.source.dims[1 - par]  # rows of D; the rows of T and B follow
        g = math.gcd(*(x for col in tm.blocks[par] for x in col.values())) or 1
        M = [
            {**d_col, **{below + r: x // g for r, x in t_col.items()}}
            for d_col, t_col in zip(tm.source.D_from[par], tm.blocks[par])
        ] + [{below + r: x for r, x in col.items()} for col in tm.target.D_from[1 - tgt]]
        induced_rank = rational_rank(M) - tm.source.ranks[par] - tm.target.ranks[1 - tgt]
        if induced_rank != dims_side[par]:
            reason = f"induced map not injective on parity {par}"
        elif induced_rank != dims_dual[tgt]:
            reason = f"induced map not surjective on parity {par}"
        if reason:
            break
    return IsoReport(ok=not reason, chain_ok=chain_ok, dims_side=dims_side,
                     dims_dual=dims_dual, reason=reason)
