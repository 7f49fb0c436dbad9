"""Koszul-type cochain models of principal torus bundles.

``build_bundle`` tensors a base ring model with an exterior algebra on fiber
generators y_1..y_n and twists the differential by the chosen degree-2
cocycles: d(b (x) y_S) = (db) (x) y_S + (-1)^|b| sum_i eps(i,S) (b.z_i) (x) y_{S-i}.
The resulting total model is filtered by base degree, which drives the
spectral-sequence pages (computed by the standard zig-zag approximants
Z_r = {x in F^p : dx in F^{p+r}}, entirely with integer lattices) and the
filtration reports that decide dualizability downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, ModelError, NotInSubgroupError
from .exact_linalg import (
    FgAbelianGroup,
    GroupHom,
    Subquotient,
    cochain_cohomology,
    hstack,
    intvec,
    kernel_basis,
    solve,
    zeros,
)
from .space_model import Cocycle, DgRingModel

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


def _shuffle_sign(S, T):
    if set(S) & set(T):
        return None, 0
    inv = sum(1 for s in S for t in T if s > t)
    return tuple(sorted(S + T)), (-1) ** inv


class _KoszulRing(DgRingModel):
    """The total ring of a :class:`BundleModel`, multiplied by the Koszul rule.

    Structure constants come from :meth:`BundleModel.mul_basis`, memoised per
    model, and the differential's columns from :meth:`BundleModel._koszul_columns`.
    The explicit ``product`` table is tabulated from the same rule only when
    something reads it: serialization and the full :meth:`DgRingModel.validate`.
    It calls :meth:`BundleModel.mul_basis` directly, so the memo keeps only the
    pairs that ring arithmetic asked for, not every pair of the basis.
    """

    def __init__(self, bundle, basis):
        super().__init__(basis, {}, {}, check=False)
        del self.product  # derived on first read, see the property below
        self._bundle = bundle
        self._memo = {}
        products = {}  # (p, a, i) -> b_a . z_i, shared by all degrees of one build
        self._dcols = {k: bundle._koszul_columns(k, products) for k in range(self.D)}

    def mul_basis(self, i, a, j, b):
        key = (i, a, j, b)
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = self._bundle.mul_basis(i, a, j, b)
        return table

    @cached_property
    def product(self):
        product = {}
        for k1 in range(self.D + 1):
            for k2 in range(self.D + 1 - k1):
                for n1 in range(self.dim(k1)):
                    for n2 in range(self.dim(k2)):
                        if (k1 == 0 and n1 == 0) or (k2 == 0 and n2 == 0):
                            continue
                        table = self._bundle.mul_basis(k1, n1, k2, n2)
                        if table:
                            product[(k1, n1, k2, n2)] = table
        return product


class BundleModel:
    """Total-space model of a principal T^n-bundle, filtered by base degree.

    The basis of total degree k lists triples (p, a, S) with p + |S| = k,
    ordered by base degree p, then base index, then the fiber monomial; so
    each filtration step F^p is a basis suffix.  The total model is itself a
    DgRingModel whose product is the Koszul rule (:meth:`mul_basis`): a
    graded-commutative ring by construction once the base is valid.  Its
    Leibniz rule then rests on the chern cocycles, which :class:`ChernVector`
    checks are closed; the one check at build time is the d o d = 0
    certificate, which also catches a base that breaks Leibniz against a
    chern cocycle.
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
        self.D = base.D + self.n

        self.elements = []  # per total degree: list of (p, a, S)
        for k in range(self.D + 1):
            level = []
            for p in range(min(k, base.D) + 1):
                fdeg = k - p
                if fdeg > self.n:
                    continue
                for a in range(base.dim(p)):
                    for S in itertools.combinations(range(self.n), fdeg):
                        level.append((p, a, S))
            self.elements.append(level)
        self.index = [
            {e: i for i, e in enumerate(level)} for level in self.elements
        ]

        def label(p, a, S):
            b = base.basis[p][a]
            mono = "".join(self.labels[i] for i in S)
            if not S:
                return b
            if p == 0 and a == 0:
                return mono
            return f"{b}.{mono}"

        basis = [[label(*e) for e in level] for level in self.elements]
        self.total = _KoszulRing(self, basis)
        try:
            self.total.check_d_squared()
        except ModelError as err:
            raise ModelError(f"total model of the bundle is invalid: {err}")

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

    def mul_basis(self, k1, n1, k2, n2):
        """Structure constants of basis elements n1 (deg k1) times n2 (deg k2).

        (b1 (x) y_S1)(b2 (x) y_S2) = (-1)^(|S1| |b2|) shuffle(S1, S2) (b1 b2) (x) y_(S1 u S2).
        """
        if k1 + k2 > self.D:
            return {}
        p1, a1, S1 = self.elements[k1][n1]
        p2, a2, S2 = self.elements[k2][n2]
        merged, sign = _shuffle_sign(S1, S2)
        if merged is None:
            return {}
        if len(S1) % 2 and p2 % 2:
            sign = -sign
        level = self.index[k1 + k2]
        return {
            level[(p1 + p2, a3, merged)]: sign * x
            for a3, x in self.base.mul_basis(p1, a1, p2, a2).items()
        }

    # -- basic structure ------------------------------------------------------

    def dim(self, k):
        return len(self.elements[k]) if 0 <= k <= self.D else 0

    def basis_elements(self, k):
        return self.elements[k] if 0 <= k <= self.D else []

    def d(self, k, vec):
        return self.total.d(k, vec)

    def mul(self, i, u, j, v):
        return self.total.mul(i, u, j, v)

    def zero_vector(self, k):
        return np.zeros(self.dim(k), dtype=object) + 0

    def basis_vector(self, k, idx):
        return self.total.basis_vector(k, idx)

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

    @lru_cache(maxsize=None)
    def total_cohomology(self, k):
        """H^k of the total space as a subquotient of degree-k cochains."""
        return cochain_cohomology(k, self.D, self.dim, self.total.d_matrix)

    def filtration_indices(self, k, p):
        return [i for i, (bp, _, _) in enumerate(self.elements[k]) if bp >= p]

    def filtration_inclusion(self, k, p):
        idxs = self.filtration_indices(k, p)
        mat = zeros(self.dim(k), len(idxs))
        for c, i in enumerate(idxs):
            mat[i, c] = 1
        return mat

    @property
    def stable_page(self):
        return max(self.base.D, self.n) + 1

    @lru_cache(maxsize=None)
    def z_lattice(self, r, p, q):
        """Basis of Z_r^{p,q} = {x in F^p C^{p+q} : dx in F^{p+r}} in C^{p+q}.

        The lattice depends only on (p, p + q); the q index is bookkeeping.
        """
        k = p + q
        if k < 0 or k > self.D:
            return zeros(0, 0)
        r = min(r, self.stable_page)
        if r <= 0:
            return self.filtration_inclusion(k, p)
        incl = self.filtration_inclusion(k, p)
        if k == self.D:
            return incl
        dmat = self.total.d_matrix(k).dot(incl)
        low = [
            i
            for i, (bp, _, _) in enumerate(self.elements[k + 1])
            if bp < p + r
        ]
        if not low:
            return incl
        proj = dmat[low, :]
        K = kernel_basis(proj)
        return incl.dot(K)

    @lru_cache(maxsize=None)
    def _page_subquotient(self, r, p, q):
        """E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}).

        Slots with q > n, q < 0 or p < 0 come out trivial by themselves.
        """
        r = min(r, self.stable_page)
        d = self.total.d_matrix

        def boundaries():
            inner = self.z_lattice(r - 1, p - r + 1, q + r - 2)
            return hstack([self.z_lattice(r - 1, p + 1, q - 1), d(p + q - 1).dot(inner)])

        return cochain_cohomology(
            p + q, self.D, self.dim, d,
            cycles=lambda: self.z_lattice(r, p, q), boundaries=boundaries,
        )

    def _page_hom(self, r, p, q):
        """d_r out of slot (p, q) as a GroupHom between page groups."""
        src = self._page_subquotient(r, p, q)
        tgt = self._page_subquotient(r, p + r, q - r + 1)
        k = p + q
        cols = []
        for j in range(src.group.ngens):
            if not tgt.group.ngens:
                cols.append(intvec([], length=0))
                continue
            # page ambients carry no relations, so the target's factored
            # membership matrix is its generator matrix
            try:
                cols.append(tgt.coords(self.d(k, src.gens[:, j])))
            except NotInSubgroupError:
                raise ModelError(
                    "spectral-sequence differential left its target lattice; "
                    "the filtration bookkeeping is inconsistent"
                )
        mat = zeros(tgt.group.ngens, src.group.ngens)
        for j, lam in enumerate(cols):
            for i in range(tgt.group.ngens):
                mat[i, j] = lam[i]
        return GroupHom(src.group, tgt.group, mat)

    @lru_cache(maxsize=None)
    def ss_page(self, r, p, q):
        if r < 1:
            raise InputError("spectral-sequence pages start at r = 1")
        sq = self._page_subquotient(r, p, q)
        return SSPage(
            r=r,
            p=p,
            q=q,
            group=sq.group,
            sq=sq,
            d_out=self._page_hom(r, p, q),
            d_in=self._page_hom(r, p - r, q + r - 1),
            is_infinity=r >= self.stable_page,
        )

    def infinity_page(self, p, q):
        return self.ss_page(self.stable_page, p, q)

    # -- filtration of classes -------------------------------------------------

    def filtration_report(self, z: Cocycle) -> "FiltrationReport":
        """Maximal p with [z] in F^p H^k, plus the leading part at infinity."""
        k = z.degree
        vec = intvec(z.vector, length=self.dim(k))
        if not self.total.is_closed(k, vec):
            raise InputError("filtration_report needs a closed cochain")
        if self.total_cohomology(k).is_zero(vec):
            return FiltrationReport(
                degree=k, is_zero=True, p=None, leading=(), representative=vec * 0
            )
        bmat = self.total.d_matrix(k - 1)  # d_{-1} is the zero map into C^0
        for p in range(min(k, self.base.D), -1, -1):
            Kp = self.z_lattice(self.stable_page, p, k - p)
            sol = solve(hstack([Kp, bmat]), vec)
            if sol is not None:
                rep = Kp.dot(sol[: Kp.shape[1]])
                page = self.infinity_page(p, k - p)
                leading = page.sq.reduce(rep)
                return FiltrationReport(
                    degree=k, is_zero=False, p=p, leading=leading, representative=rep
                )
        raise ModelError("closed nonzero class fell out of the filtration")

    def __repr__(self):
        return f"BundleModel(n={self.n}, base={self.base!r})"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


@dataclass
class SSPage:
    """One (r, p, q) slot of the spectral sequence with its differentials."""

    r: int
    p: int
    q: int
    group: FgAbelianGroup
    sq: Subquotient
    d_out: GroupHom
    d_in: GroupHom
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
