"""Koszul-type cochain models of principal torus bundles.

``build_bundle`` tensors a base ring model with an exterior algebra on fiber
generators y_1..y_n and twists the differential by the chosen degree-2
cocycles: d(b (x) y_S) = (db) (x) y_S + (-1)^|b| sum_i eps(i,S) (b.z_i) (x) y_{S-i}.
The result, a :class:`BundleModel`, is the total-space model itself: one
:class:`DgRingModel` that also holds the bundle data and the memoised pages.
It is filtered by base degree, which drives the spectral-sequence pages
(computed by the standard zig-zag approximants Z_r = {x in F^p : dx in
F^{p+r}}, entirely with integer lattices) and the filtration reports that
decide dualizability downstream.  The basis of each degree is sorted by base
degree, so F^p is a basis suffix and Z_r is the kernel of one block of d_k:
the columns of F^p C^k against the rows of C^{k+1} below base degree p + r.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError
from .exact_linalg import (
    FgAbelianGroup,
    GroupHom,
    Subquotient,
    cochain_cohomology,
    eye,
    hstack,
    induced_hom,
    intvec,
    kernel_basis,
    solve,
    zeros,
)
from .space_model import Cocycle, DgRingModel, memoised, shuffle_sign

__all__ = [
    "ChernVector",
    "BundleModel",
    "SSPage",
    "FiltrationReport",
    "build_bundle",
]


class ChernVector:
    """The n degree-2 cocycles on the base that classify the bundle."""

    def __init__(self, base: DgRingModel, cocycles):
        self.base = base
        self.cocycles = []
        for i, z in enumerate(cocycles):
            if isinstance(z, Cocycle):
                if z.degree != 2:
                    raise InputError(f"chern cocycle {i} has degree {z.degree}, expected 2")
                vec = z.vector
            else:
                vec = intvec(z, length=base.dim(2))
            if vec.shape[0] != base.dim(2):
                raise InputError(
                    f"chern cocycle {i} has length {vec.shape[0]}, "
                    f"expected {base.dim(2)}"
                )
            if not base.is_closed(2, vec):
                raise InputError(f"chern cocycle {i} is not closed")
            self.cocycles.append(vec)
        self.n = len(self.cocycles)
        if self.n < 1:
            raise InputError("a torus bundle needs at least one fiber circle")

    def __iter__(self):
        return iter(self.cocycles)

    def __getitem__(self, i):
        return self.cocycles[i]


def _eps(i, S):
    return -1 if sum(1 for j in S if j < i) % 2 else 1


class BundleModel(DgRingModel):
    """Total-space model of a principal T^n-bundle, filtered by base degree.

    The model is itself a :class:`DgRingModel`.  Its basis in total degree k
    lists triples (p, a, S) with p + |S| = k, ordered by base degree p, then
    base index, then the fiber monomial; so each filtration step F^p is a
    basis suffix.  The differential is the sparse columns that
    :meth:`_koszul_columns` writes at build time, and the product is the
    Koszul rule (:meth:`_koszul_product`): :meth:`mul_basis` memoises the
    pairs that ring arithmetic asks for, and ``product`` tabulates all pairs
    on each read (serialization, the full :meth:`DgRingModel.validate`) and
    stores them nowhere.  The ring is graded-commutative by construction once
    the base is valid; its Leibniz rule rests on the chern cocycles, which
    :class:`ChernVector` checks are closed.  The one check at build time is
    the d o d = 0 certificate, which also catches a base that breaks Leibniz
    against a chern cocycle.
    """

    def __init__(self, base: DgRingModel, chern: ChernVector, labels=None):
        if chern.base is not base:
            raise InputError("chern cocycles live in a different base model")
        self.base = base
        self.chern = chern
        self.n = chern.n
        self.labels = list(labels) if labels else [f"y{i + 1}" for i in range(self.n)]
        if len(self.labels) != self.n:
            raise InputError("one fiber label per fiber circle")

        self.elements = [  # per total degree: list of (p, a, S)
            [
                (p, a, S)
                for p in range(min(k, base.D) + 1)
                for a in range(base.dim(p))
                for S in itertools.combinations(range(self.n), k - p)
            ]
            for k in range(base.D + self.n + 1)
        ]
        self.index = [{e: i for i, e in enumerate(level)} for level in self.elements]

        def label(p, a, S):
            b = base.basis[p][a]
            mono = "".join(self.labels[i] for i in S)
            if not S:
                return b
            if p == 0 and a == 0:
                return mono
            return f"{b}.{mono}"

        basis = [[label(*e) for e in level] for level in self.elements]
        super().__init__(basis, {}, {}, check=False)
        self._memo = {}
        products = {}  # (p, a, i) -> b_a . z_i, shared by all degrees of one build
        self._dcols = {k: self._koszul_columns(k, products) for k in range(self.D)}
        try:
            self.check_d_squared()
        except ModelError as err:
            raise ModelError(f"total model of the bundle is invalid: {err}")

    @property
    def total(self):
        """The model itself.  Kept only because ``benchmark/workloads.py`` reads ``model.total``."""
        return self

    # -- construction --------------------------------------------------------

    def _koszul_columns(self, k, products):
        """d_k of the total model as sparse columns, by the rule in the module docstring.

        The two sums land in base degrees p + 1 and p + 2, so no entry is written twice.
        ``products`` memoises b_a . z_i by (p, a, i) across the degrees of one build.
        """
        base = self.base
        chern = [{z: int(x) for z, x in enumerate(c) if x} for c in self.chern]
        rows = self.index[k + 1]
        cols = []
        for p, a, S in self.elements[k]:
            col = {rows[(p + 1, a2, S)]: x for a2, x in base.d_columns(p)[a].items()}
            sign = -1 if p % 2 else 1
            for i in S:
                bz = products.get((p, a, i))
                if bz is None:
                    bz = products[(p, a, i)] = base.mul_terms(p, {a: 1}, 2, chern[i])
                rest = tuple(j for j in S if j != i)
                for a2, x in bz.items():
                    col[rows[(p + 2, a2, rest)]] = sign * _eps(i, S) * x
            cols.append(col)
        return cols

    def _koszul_product(self, k1, n1, k2, n2):
        """Structure constants of basis elements n1 (deg k1) times n2 (deg k2), not memoised.

        (b1 (x) y_S1)(b2 (x) y_S2) = (-1)^(|S1| |b2|) shuffle(S1, S2) (b1 b2) (x) y_(S1 u S2).
        """
        if k1 + k2 > self.D:
            return {}
        p1, a1, S1 = self.elements[k1][n1]
        p2, a2, S2 = self.elements[k2][n2]
        merged, sign = shuffle_sign(S1, S2)
        if merged is None:
            return {}
        if len(S1) % 2 and p2 % 2:
            sign = -sign
        level = self.index[k1 + k2]
        return {
            level[(p1 + p2, a3, merged)]: sign * x
            for a3, x in self.base.mul_basis(p1, a1, p2, a2).items()
        }

    def mul_basis(self, i, a, j, b):
        """The Koszul product of basis element a (deg i) and b (deg j), memoised."""
        key = (i, a, j, b)
        if key not in self._memo:
            self._memo[key] = self._koszul_product(*key)
        return self._memo[key]

    @property
    def product(self):
        """Every nonzero product of two non-unit basis elements, tabulated on each read."""
        product = {}
        for k1 in range(self.D + 1):
            for k2 in range(self.D + 1 - k1):
                for n1 in range(self.dim(k1)):
                    for n2 in range(self.dim(k2)):
                        if (k1 == 0 and n1 == 0) or (k2 == 0 and n2 == 0):
                            continue
                        table = self._koszul_product(k1, n1, k2, n2)
                        if table:
                            product[(k1, n1, k2, n2)] = table
        return product

    # -- basic structure ------------------------------------------------------

    def basis_elements(self, k):
        return self.elements[k] if 0 <= k <= self.D else []

    def monomials(self, fdeg):
        return list(itertools.combinations(range(self.n), fdeg))

    def element_vector(self, p, a, S):
        k = p + len(S)
        v = self.zero_vector(k)
        v[self.index[k][(p, a, tuple(sorted(S)))]] = 1
        return v

    def normal_form_vector(self, zhat, beta=None):
        """sum_i zhat_i . y_i + pi*(beta) in C^3; ``beta`` None means zero.

        The leading-part representative of a flux with dual chern cocycles
        zhat (degree 2 on the base) and base part beta (degree 3).
        """
        base = self.base
        rep = self.zero_vector(3)
        for i, z in enumerate(zhat):
            for a in range(base.dim(2)):
                if z[a]:
                    rep[self.index[3][(2, a, (i,))]] += z[a]
        if beta is not None:
            for a in range(base.dim(3)):
                if beta[a]:
                    rep[self.index[3][(3, a, ())]] += beta[a]
        return rep

    def chern_classes(self):
        """Normal forms of the chern cocycles in H^2 of the base."""
        H2 = self.base.cohomology(2)
        return [H2.reduce(z) for z in self.chern]

    # -- maps to and from the base and fiber ----------------------------------

    def pullback_matrix(self, k):
        mat = zeros(self.dim(k), self.base.dim(k))
        for a in range(self.base.dim(k)):
            mat[self.index[k][(k, a, ())], a] = 1
        return mat

    def pullback_to_total(self, coc: Cocycle) -> Cocycle:
        """b -> b (x) y_empty; a ring map and a chain map."""
        if coc.degree > self.base.D:
            raise InputError("cocycle degree exceeds the base model")
        return Cocycle(coc.degree, self.pullback_matrix(coc.degree).dot(coc.vector))

    def fiber_restriction(self, z: Cocycle):
        """Coefficients of the pure fiber monomials, positive base degrees dropped."""
        k = z.degree
        monos = self.monomials(k)
        out = np.zeros(len(monos), dtype=object) + 0
        vec = intvec(z.vector, length=self.dim(k))
        for m_i, S in enumerate(monos):
            idx = self.index[k].get((0, 0, S))
            if idx is not None:
                out[m_i] = vec[idx]
        return out

    # -- cohomology and the spectral sequence ---------------------------------

    @memoised
    def total_cohomology(self, k):
        """H^k of the total space as a subquotient of degree-k cochains."""
        return cochain_cohomology(k, self.D, self.dim, self.d_matrix)

    def cohomology(self, k):
        """H^k from :meth:`total_cohomology`: one memo, and one span in ``benchmark/tracing.py``."""
        return self.total_cohomology(k)

    def _step_start(self, k, p):
        """Index of the first basis element of C^k with base degree >= p.

        ``elements[k]`` is sorted by base degree, so F^p C^k is the basis
        suffix that starts here.
        """
        return bisect_left(self.elements[k], (p,))

    @property
    def stable_page(self):
        return max(self.base.D, self.n) + 1

    @memoised
    def z_lattice(self, r, p, q):
        """Basis of Z_r^{p,q} = {x in F^p C^{p+q} : dx in F^{p+r}} in C^{p+q}.

        F^p C^k is the basis suffix from ``start`` and F^{p+r} C^{k+1} the one
        from ``low``, so the condition asks that the block d_k[:low, start:]
        kills x: Z_r is that block's kernel, padded by ``start`` zero rows.
        With no rows below p + r (r <= 0, or k = D) Z_r is all of F^p C^k.
        The lattice depends only on (p, p + q); the q index is bookkeeping.
        """
        k = p + q
        if k < 0 or k > self.D:
            return zeros(0, 0)
        r = min(r, self.stable_page)
        start = self._step_start(k, p)
        low = self._step_start(k + 1, p + r) if r > 0 and k < self.D else 0
        if low:
            K = kernel_basis(self.d_matrix(k)[:low, start:])
        else:
            K = eye(self.dim(k) - start)
        lattice = zeros(self.dim(k), K.shape[1])
        lattice[start:, :] = K
        return lattice

    @memoised
    def _page_subquotient(self, r, p, q):
        """E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}).

        Slots with q > n, q < 0 or p < 0 come out trivial by themselves.
        """
        r = min(r, self.stable_page)
        d = self.d_matrix

        def boundaries():
            inner = self.z_lattice(r - 1, p - r + 1, q + r - 2)
            return hstack([self.z_lattice(r - 1, p + 1, q - 1), d(p + q - 1).dot(inner)])

        return cochain_cohomology(
            p + q, self.D, self.dim, d,
            cycles=lambda: self.z_lattice(r, p, q), boundaries=boundaries,
        )

    @memoised
    def ss_page(self, r, p, q):
        """Slot (p, q) of page r with d_r out of it; d_r into it is
        ``ss_page(r, p - r, q + r - 1).d_out``.

        d_r needs no special case for an empty target: for x in Z_r^{p,q},
        dx lies in F^{p+r} and d(dx) = 0, so dx is in Z_r^{p+r,q-r+1}, the
        target's numerator; when that lattice has no generators, dx = 0 and
        the membership solve returns the empty vector.
        """
        if r < 1:
            raise InputError("spectral-sequence pages start at r = 1")
        sq = self._page_subquotient(r, p, q)
        d_out = induced_hom(
            sq, self._page_subquotient(r, p + r, q - r + 1), lambda v: self.d(p + q, v)
        )
        return SSPage(
            r=r,
            p=p,
            q=q,
            group=sq.group,
            sq=sq,
            d_out=d_out,
            is_infinity=r >= self.stable_page,
        )

    def infinity_page(self, p, q):
        return self.ss_page(self.stable_page, p, q)

    # -- filtration of classes -------------------------------------------------

    def filtration_report(self, z: Cocycle) -> "FiltrationReport":
        """Maximal p with [z] in F^p H^k, plus the leading part at infinity."""
        k = z.degree
        vec = intvec(z.vector, length=self.dim(k))
        if not self.is_closed(k, vec):
            raise InputError("filtration_report needs a closed cochain")
        if self.total_cohomology(k).is_zero(vec):
            return FiltrationReport(
                degree=k, is_zero=True, p=None, leading=(), representative=vec * 0
            )
        bmat = self.d_matrix(k - 1)  # d_{-1} is the zero map into C^0
        for p in range(min(k, self.base.D), -1, -1):
            Kp = self.z_lattice(self.stable_page, p, k - p)
            sol = solve(hstack([Kp, bmat]), vec)
            if sol is not None:
                rep = Kp.dot(sol[: Kp.shape[1]])
                leading = self._page_subquotient(self.stable_page, p, k - p).reduce(rep)
                return FiltrationReport(
                    degree=k, is_zero=False, p=p, leading=leading, representative=rep
                )
        raise ModelError("closed nonzero class fell out of the filtration")

    def __repr__(self):
        return f"BundleModel(n={self.n}, base={self.base!r})"


@dataclass
class SSPage:
    """One (r, p, q) slot of the spectral sequence with d_r out of it.

    ``d_out`` maps this slot to (p + r, q - r + 1); the differential into the
    slot is the ``d_out`` of slot (p - r, q + r - 1) of the same page.
    """

    r: int
    p: int
    q: int
    group: FgAbelianGroup
    sq: Subquotient
    d_out: GroupHom
    is_infinity: bool

    def invariants(self):
        return self.group.invariants()

    def reduce(self, vec):
        """Class of a member cochain vector in this slot's group."""
        return self.sq.reduce(vec)

    def apply_d(self, vec):
        """d_r of the class of ``vec``, as a normal form in the target slot."""
        lam = self.group.section(self.sq.reduce(vec))
        return self.d_out.target.reduce(self.d_out.matrix.dot(lam))


@dataclass
class FiltrationReport:
    """Maximal filtration step of a class and its leading-part coordinates."""

    degree: int
    is_zero: bool
    p: int | None
    leading: tuple
    representative: np.ndarray

    def in_step(self, p):
        return self.is_zero or (self.p is not None and self.p >= p)


# ---------------------------------------------------------------------------
# construction


def build_bundle(base: DgRingModel, chern, labels=None, check=None) -> BundleModel:
    """Total-space model from a base model and chern cocycles.

    The chern cocycles are checked closed and the total differential is
    certified to square to zero; the ring axioms hold by construction.
    ``check`` has no effect: every build runs the same certificate.  It is
    still accepted because ``benchmark/workloads.py`` passes it.
    """
    if not isinstance(chern, ChernVector):
        chern = ChernVector(base, chern)
    return BundleModel(base, chern, labels=labels)
