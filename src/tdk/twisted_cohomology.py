"""Rational twisted cohomology and the duality transformation between sides.

The twisted complex of a bundle model with a degree-3 flux z is its cochain
model over Q, graded by total parity, with differential D = d + (z . ) given
by left multiplication.  Coefficients are rational only; integral torsion
refinements are out of scope and flagged in reports.

The transformation attached to a triple is realized on the doubled model as

    T(omega) = integrate_over_side_fiber( exp(-w) . p*(omega) ),

where p* includes the side model, exp(-w) is the finite exponential of the
correspondence cochain (nilpotent, so a polynomial), and the fiber
integration extracts the coefficient of y_1 ^ ... ^ y_n with the sign
(-1)^(n.|b|) of moving the base factor out front.  With these conventions
the chain identity  D_dual o T = (-1)^n . T o D_side  holds entry-exactly,
and T drops total degree by n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError, ModelError
from .exact_linalg import intmat, intvec, kernel_basis, matrix_rank, zeros
from .space_model import Cocycle
from .tduality_core import Triple
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


def _integral(M):
    """M with each row scaled by the lcm of its denominators: same Q-row space."""
    rows = []
    for row in M.tolist():
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    return intmat(rows, rows=M.shape[0], cols=M.shape[1])


def rational_rank(M):
    """Rank over Q of a matrix of ints and Fractions (equal to its Z-rank)."""
    return matrix_rank(_integral(M))


def rational_kernel(M):
    """Integer columns spanning ker(M) over Q."""
    return kernel_basis(_integral(M))


def _hcat(blocks):
    blocks = [b for b in blocks if b.shape[1]]
    if not blocks:
        return zeros(0, 0)
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# twisted complexes


def _left_mult_matrix(m: BundleModel, deg_z, z, k):
    """Matrix of x -> z . x from degree k to degree k + deg_z."""
    out = zeros(m.dim(k + deg_z), m.dim(k))
    for j in range(m.dim(k)):
        col = m.mul(deg_z, z, k, m.basis_vector(k, j))
        for i in range(m.dim(k + deg_z)):
            out[i, j] = col[i]
    return out


class TwistedComplex:
    """Parity-graded rational complex with differential D = d + (z . )."""

    def __init__(self, bundle: BundleModel, z):
        self.bundle = bundle
        z = intvec(z, length=bundle.dim(3))
        if not bundle.total.is_closed(3, z):
            raise InputError("twisting cocycle must be closed of degree 3")
        self.z = z
        self.degrees = {0: [], 1: []}
        for k in range(bundle.D + 1):
            self.degrees[k % 2].append(k)
        self.offsets = {}
        self.dims = {}
        for par in (0, 1):
            off = {}
            pos = 0
            for k in self.degrees[par]:
                off[k] = pos
                pos += bundle.dim(k)
            self.offsets[par] = off
            self.dims[par] = pos
        self.D_from = {par: self._build_d(par) for par in (0, 1)}
        for par in (0, 1):
            comp = self.D_from[1 - par].dot(self.D_from[par])
            if any(x != 0 for x in comp.flat):
                raise ModelError("twisted differential does not square to zero")

    def _build_d(self, par):
        m = self.bundle
        out = zeros(self.dims[1 - par], self.dims[par])
        for k in self.degrees[par]:
            base = self.offsets[par][k]
            dm = m.total.d_matrix(k)
            if k + 1 <= m.D:
                r0 = self.offsets[1 - par][k + 1]
                out[r0 : r0 + m.dim(k + 1), base : base + m.dim(k)] = dm
            if k + 3 <= m.D:
                lz = _left_mult_matrix(m, 3, self.z, k)
                r0 = self.offsets[1 - par][k + 3]
                out[r0 : r0 + m.dim(k + 3), base : base + m.dim(k)] += lz
        return out

    def pack(self, k, vec):
        par = k % 2
        out = zeros(self.dims[par], 1)[:, 0]
        off = self.offsets[par][k]
        for i, x in enumerate(vec):
            out[off + i] = x
        return out

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


def _integration_matrix(t: Triple, k):
    """C^k(doubled) -> C^{k-n}(dual side): coefficient of y_1 ... y_n."""
    n = t.n
    doubled = t.doubled
    dual = t.dual.bundle
    out = zeros(dual.dim(k - n), doubled.dim(k))
    full = tuple(range(n))
    for col, (p, a, M) in enumerate(doubled.basis_elements(k)):
        if M[:n] != full:
            continue
        T = tuple(i - n for i in M[n:])
        sign = -1 if (n * p) % 2 else 1
        out[dual.index[k - n][(p, a, T)], col] = sign
    return out


@dataclass
class TMap:
    """Blocks of the transformation between the two twisted complexes."""

    source: TwistedComplex
    target: TwistedComplex
    parity_shift: int
    blocks: dict  # parity of source -> matrix into parity + shift

    def chain_defect(self):
        """D_dual o T - (-1)^n T o D_side, per source parity; zero when valid."""
        return self._defect(self.blocks)

    def _defect(self, blocks):
        n_sign = -1 if self.parity_shift % 2 else 1
        out = {}
        for par in (0, 1):
            lhs = self.target.D_from[(par + self.parity_shift) % 2].dot(blocks[par])
            rhs = blocks[1 - par].dot(self.source.D_from[par])
            out[par] = lhs - n_sign * rhs
        return out

    def is_chain_map(self):
        """The chain identity, tested on integers.

        Both blocks are scaled by the lcm of all their denominators.  The
        identity is linear in the blocks, so the integer defect is zero iff
        the rational one is.
        """
        scale = math.lcm(*(x.denominator for b in self.blocks.values() for x in b.flat))
        scaled = {
            par: intmat([[int(x * scale) for x in row] for row in b.tolist()],
                        rows=b.shape[0], cols=b.shape[1])
            for par, b in self.blocks.items()
        }
        return all(not any(defect.flat) for defect in self._defect(scaled).values())


def t_transform(t: Triple) -> TMap:
    """The degree -n transformation realized on the doubled model.

    Columns are computed as fiber integrals of exp(-w) times the included
    cochain; the exponential terminates by nilpotency of the degree-2
    correspondence cochain.
    """
    from .tduality_core import validate_triple

    report = validate_triple(t)
    if not report.ok:
        raise InputError(f"transformation needs a valid triple: {report.failures()}")

    n = t.n
    side = TwistedComplex(t.side.bundle, t.side.flux.vector)
    dual = TwistedComplex(t.dual.bundle, t.dual.flux.vector)
    doubled = t.doubled

    lw = {
        k: _left_mult_matrix(doubled, 2, t.w, k) for k in range(doubled.D + 1)
    }

    blocks = {}
    for par in (0, 1):
        tgt_par = (par + n) % 2
        out = zeros(dual.dims[tgt_par], side.dims[par])
        for k in side.degrees[par]:
            src_off = side.offsets[par][k]
            embed = t.embed_side_matrix(k)
            for j in range(t.side.bundle.dim(k)):
                cur = embed[:, j].copy()
                deg = k
                mfac = 0
                col = zeros(dual.dims[tgt_par], 1)[:, 0]
                while deg <= doubled.D:
                    if deg - n >= 0 and (deg - n) <= t.dual.bundle.D:
                        scalar = Fraction((-1) ** mfac, math.factorial(mfac))
                        proj = _integration_matrix(t, deg).dot(cur)
                        if any(x != 0 for x in proj):
                            off = dual.offsets[tgt_par].get(deg - n)
                            if off is None:
                                raise ModelError("parity bookkeeping is broken")
                            for i, x in enumerate(proj):
                                if x:
                                    col[off + i] += scalar * x
                    if deg + 2 > doubled.D:
                        break
                    cur = lw[deg].dot(cur)
                    deg += 2
                    mfac += 1
                    if all(x == 0 for x in cur):
                        break
                out[:, src_off + j] = col
        blocks[par] = out
    return TMap(source=side, target=dual, parity_shift=n % 2, blocks=blocks)


# ---------------------------------------------------------------------------
# isomorphism verification


@dataclass
class IsoReport:
    ok: bool
    chain_ok: bool
    dims_side: tuple
    dims_dual: tuple
    reason: str

    def __bool__(self):
        return self.ok


def verify_iso(t: Triple) -> IsoReport:
    """True iff the induced maps on twisted cohomology are bijections.

    The chain identity is checked entry-exactly first; a failure there is
    reported as the reason without attempting rank computations.
    """
    tm = t_transform(t)
    dims_side = tm.source.cohomology_dims()
    dims_dual = tm.target.cohomology_dims()
    if not tm.is_chain_map():
        return IsoReport(
            ok=False,
            chain_ok=False,
            dims_side=dims_side,
            dims_dual=dims_dual,
            reason="chain-map identity fails at the cochain level",
        )
    n = tm.parity_shift
    for par in (0, 1):
        tgt = (par + n) % 2
        K = rational_kernel(tm.source.D_from[par])
        image_in_tgt = tm.target.D_from[1 - tgt]
        TK = tm.blocks[par].dot(K) if K.shape[1] else zeros(tm.target.dims[tgt], 0)
        rank_TKB = rational_rank(_hcat([TK, image_in_tgt]))
        induced_rank = rank_TKB - tm.target.ranks[1 - tgt]
        h_src = dims_side[par]
        h_tgt = dims_dual[tgt]
        if induced_rank != h_src:
            return IsoReport(
                ok=False,
                chain_ok=True,
                dims_side=dims_side,
                dims_dual=dims_dual,
                reason=f"induced map not injective on parity {par}",
            )
        if induced_rank != h_tgt:
            return IsoReport(
                ok=False,
                chain_ok=True,
                dims_side=dims_side,
                dims_dual=dims_dual,
                reason=f"induced map not surjective on parity {par}",
            )
    return IsoReport(
        ok=True,
        chain_ok=True,
        dims_side=dims_side,
        dims_dual=dims_dual,
        reason="",
    )
