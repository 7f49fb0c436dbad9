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

A model builds what it reads on first use and keeps it: the basis
elements and index of each degree, each list of fiber monomials, each d_k,
the basis labels, each Z_r block, the Smith form of each d_k and of each
filtration solve.  So a triple, which reads its doubled model in degrees 2
and 3 only, never builds the other degrees of it, and a build itself builds
none.

The one d o d = 0 certificate, on the base.  Write d = d_B + delta, with d_B
the base differential on b and delta the sum over i in S.  On x = b (x) y_S,
with |b| = p, d(d(x)) has three parts:

  (A) d_B d_B b (x) y_S, in base degree p + 2 with monomial S;
  (B) sum_i +-(d(b.z_i) - (db).z_i) (x) y_{S-i}, in base degree p + 3;
  (C) sum_{i<j in S} +-((b.z_i).z_j - (b.z_j).z_i) (x) y_{S-i-j}, in base
      degree p + 4: the two orders of a pair come with the signs
      eps(i,S) eps(j,S-i) and eps(j,S) eps(i,S-j), which are opposite.

Each part, and each i or pair {i, j} in it, lands on basis elements that no
other part reaches, so d(d(x)) = 0 iff every term of (A), (B) and (C) is
zero.  A term names a base element b of degree p and a tuple T of fiber
indices: T = () in (A), (i,) in (B), (i, j) in (C).  It does not depend on
S, so it fails for every x = b (x) y_S with S containing T, the least of
which in the order below is b (x) y_T.  ``check_d_squared`` on
the total model scans x by total degree, then base degree, base index and
monomial, which is the order of the keys (p + |S|, p, b, S), and a term that
is not zero by degree has p + |T| <= D - 2, inside the scanned degrees.  So
the first x it would name is b (x) y_T for the least key (p + |T|, p, b, T)
over the failing terms, and :meth:`BundleModel._certify` checks the terms on
the base alone and raises the scan's ModelError for that x, with no d_k of
the total model built.

The doubled model has the chern list L + Lhat of two bundles over one base
that were each certified at build.  Both lists are closed, so it is built
through :meth:`BundleModel._proven`, which tests no closedness; its
``split`` is the length of L.  The terms whose indices lie inside L or
inside Lhat are the terms of those two builds, so they are skipped, which
leaves (C) for i in L and j in Lhat: the n^2 cross terms
(b.z_i).zhat_j = (b.zhat_j).z_i.  They land in base degree p + 4, so only
bases of degree 4 or more have any.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cached_property

from .errors import InputError, ModelError, Record, require
from .exact_linalg import (
    FgAbelianGroup,
    GroupHom,
    _sum_terms,
    cochain_cohomology,
    compose,
    induced_hom,
    int_vector,
    kernel_basis,
    mat_vec,
    smith_normal_form,
    subquotient,
)
from .space_model import Cocycle, DgRingModel, memoised, shuffle_sign

__all__ = [
    "BundleModel",
    "SSPage",
    "FiltrationReport",
    "build_bundle",
]


def _read_chern(base: DgRingModel, cocycles, name="chern"):
    """The n degree-2 cocycles on ``base`` that classify a bundle, as lists of ints.

    Each is a :class:`Cocycle` of degree 2 or a sequence of integers of the
    length of C^2(base), and each is tested closed; at least one is needed.
    ``name`` starts the message that names a cocycle: ``chern cocycle 1 is
    not closed``.
    """
    out = []
    for i, z in enumerate(cocycles):
        if isinstance(z, Cocycle):
            if z.degree != 2:
                raise InputError(f"{name} cocycle {i} has degree {z.degree}, expected 2")
            z = z.vector
        vec = int_vector(z, f"{name} cocycle {i}")
        if len(vec) != base.dim(2):
            raise InputError(f"{name} cocycle {i} has length {len(vec)}, expected {base.dim(2)}")
        if not base.is_closed(2, vec):
            raise InputError(f"{name} cocycle {i} is not closed")
        out.append(vec)
    if not out:
        raise InputError("a torus bundle needs at least one fiber circle")
    return out


def _spells_monomial(text, fiber):
    """Whether ``text`` is fiber[i1] + fiber[i2] + ... for some i1 < i2 < ..., one term at least."""
    todo, seen = [(0, 0)], set()  # (position in text, least index of the next term)
    while todo:
        pos, low = todo.pop()
        for i in range(low, len(fiber)):
            if text.startswith(fiber[i], pos):
                end = pos + len(fiber[i])
                if end == len(text):
                    return True
                if (end, i + 1) not in seen:
                    seen.add((end, i + 1))
                    todo.append((end, i + 1))
    return False


def _meets_fiber(basis, fiber):
    """Whether a base label is one that these fiber labels write for a (p, a, S) with S nonempty.

    ``basis`` is the base's labels by degree.  Such a label is a fiber
    monomial, or b.m for the label b of a base element other than (0, 0) and
    a fiber monomial m; ``BundleModel._label`` writes no other.
    """
    others = {x for bs in basis[1:] for x in bs} | set(basis[0][1:])
    for bs in basis:
        for x in bs:
            b, dot, m = x.rpartition(".")  # no fiber label has a dot
            if _spells_monomial(x, fiber) or dot and b in others and _spells_monomial(m, fiber):
                return True
    return False


class _Levels(dict):
    """Lists keyed by degree, each made by ``make(k)`` on its first read and kept.

    A read of a made degree is the dict lookup itself, with no Python call;
    only a miss reaches ``__missing__``.  ``make`` must not refer to the
    model that holds the levels, so that the model is freed without the
    cyclic collector.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, k):
        value = self[k] = self.make(k)
        return value


class BundleModel(DgRingModel):
    """Total-space model of a principal T^n-bundle, filtered by base degree.

    The model is itself a :class:`DgRingModel`.  Its basis in total degree k,
    ``elements[k]``, lists triples (p, a, S) with p + |S| = k, ordered by
    base degree p, then base index, then the fiber monomial; so each
    filtration step F^p is a basis suffix.  ``index[k]`` maps each triple to
    its position.  Both are built for a degree on its first read, as is the
    list of fiber monomials of each size (:class:`_Levels`): the doubled
    model has 4^n dim(base) basis elements in all, and a verb reads only a
    few degrees of it.  ``dim(k)`` is counted at build, as the sum over p of
    dim C^p(base) . binom(n, k - p), so it builds no degree.  The
    differential is the sparse columns that :meth:`_koszul_columns` writes
    for each degree on its first read, and the product is the Koszul rule,
    applied term by term by :meth:`mul_terms` with nothing memoised but the
    fiber shuffle signs; ``product`` tabulates all pairs on each read
    (serialization, the full :meth:`DgRingModel.validate`) and stores them
    nowhere.  The ring is
    graded-commutative by construction once the base is valid; its Leibniz
    rule rests on the chern cocycles being closed.  ``chern`` is the list of
    them, each a list of ints.

    The model has two doors.  ``BundleModel(base, chern)`` reads the chern
    cocycles through :func:`_read_chern`, which checks each one and tests it
    closed.  :meth:`_proven` takes lists of ints that its caller proves
    closed and tests no closedness; its callers are :meth:`doubled`,
    ``_canonical_triple`` of ``tduality_core`` and ``_act_gl`` of
    ``duality_group``, and each names its proof.  Both doors run the
    d o d = 0 certificate of :meth:`_certify`, on base data only, which also
    catches a base that was never validated and breaks Leibniz against a
    chern cocycle.  The fiber circles are labelled y1..yn.  Only
    :meth:`doubled` passes ``split``, the number of side circles: the
    circles from there on are labelled yh1.., and the certificate skips the
    terms of the two halves (module docstring).
    """

    def __init__(self, base: DgRingModel, chern):
        self._build(base, _read_chern(base, chern), None)

    @classmethod
    def _proven(cls, base: DgRingModel, chern, split=None) -> "BundleModel":
        """The bundle of chern cocycles, lists of ints on ``base``, that the caller proves closed.

        No closedness is tested.  The d o d = 0 certificate still runs, as
        it guards a base that was never validated.
        """
        m = cls.__new__(cls)
        m._build(base, chern, split)
        return m

    def _build(self, base, chern, split):
        self.base = base
        self.chern = chern
        self.n = len(chern)
        self.split = split
        side = self.n if split is None else split
        self.labels = [f"y{i + 1}" for i in range(side)] + [
            f"yh{i + 1}" for i in range(self.n - side)
        ]

        n, top, D = self.n, base.D, base.D + self.n
        dims = [base.dim(p) for p in range(top + 1)]
        monomials = _Levels(lambda q: list(itertools.combinations(range(n), q)))

        def level(k):  # the (p, a, S) of degree k, sorted
            if not 0 <= k <= D:
                raise IndexError(f"degree {k} is outside 0..{D}")
            return [(p, a, S) for p in range(max(k - n, 0), min(k, top) + 1)
                    for a in range(dims[p]) for S in monomials[k - p]]

        self.elements = elements = _Levels(level)
        self.index = _Levels(lambda k: dict(zip(elements[k], range(len(elements[k])))))
        self._monomials = monomials
        self._dims = [0] * (D + 1)  # dim C^p(base) . binom(n, q) summed over p + q = k
        binomials = [math.comb(n, q) for q in range(n + 1)]
        for p, x in enumerate(dims):
            for k, c in enumerate(binomials, p):
                self._dims[k] += x * c
        # the state of DgRingModel.__init__ but for the labels and the
        # differential, which ``basis`` and ``d_columns`` build on first read
        self.D = D
        self._dshape, self._dcols, self._product, self.meta = {}, {}, {}, {}
        self._shuffles = {}  # (S1, S2) -> shuffle_sign(S1, S2), filled on first use
        self._chern_terms = [{z: x for z, x in enumerate(c) if x} for c in chern]
        self._bz = {}  # (p, a, i) -> b_a . z_i, shared by all degrees
        self._certify()

    @classmethod
    def doubled(cls, side: "BundleModel", dual: "BundleModel") -> "BundleModel":
        """The correspondence space of two bundles over one base: fibers y_1.. then yh_1..

        Its chern list is the side's followed by the dual's, split after the
        side's.  Each list is closed, as each bundle came through one of the
        two doors, so the model is built through the proven one.  Both halves
        were certified at their build, so the certificate checks only the
        cross terms (module docstring).
        """
        if dual.base is not side.base:
            raise InputError("the two bundles live over different bases")
        return cls._proven(side.base, side.chern + dual.chern, split=side.n)

    @property
    def total(self):
        """The model itself.  Kept only because ``benchmark/workloads.py`` reads ``model.total``."""
        return self

    # -- construction --------------------------------------------------------

    @cached_property
    def basis(self):
        """The labels of each degree: ``b.y1y2``, or the base or fiber part alone.

        Each is written by :attr:`_label`.  A fiber part reads back to one
        monomial and follows the last dot, so two elements that share a
        label come from a base that repeats one, and they raise.
        """
        label = self._label
        levels = [self.elements[k] for k in range(self.D + 1)]
        basis, seen = [[label(*e) for e in level] for level in levels], {}
        for e, x in zip(itertools.chain(*levels), itertools.chain(*basis)):
            if seen.setdefault(x, e) != e:
                raise InputError(f"basis elements (p, a, S) = {seen[x]} and {e} share the label "
                                 f"{x!r} (fiber labels {self.labels})")
        return basis

    @cached_property
    def _label(self):
        """The label of (p, a, S) in :attr:`basis`, as a function, decided on base labels alone.

        While a label with a fiber part repeats a base label, every fiber
        label is primed (``y1`` becomes ``y1'``), as ``product_model`` primes
        its second factor.  Each round lengthens every label with a fiber
        part and no base label, so the rounds end.  Every (p, a, S) is a
        basis element, so a round primes iff some base label is a fiber
        monomial (the label of (0, 0, S)) or a base label other than that of
        (0, 0), a dot and a fiber monomial: :func:`_meets_fiber` asks it of
        each base label, and no label of the model is written.
        """
        base, fiber = self.base, self.labels
        while _meets_fiber(base.basis, fiber):
            fiber = [y + "'" for y in fiber]

        def label(p, a, S):
            b = base.basis[p][a]
            mono = "".join(fiber[i] for i in S)
            if not S:
                return b
            if p == 0 and a == 0:
                return mono
            return f"{b}.{mono}"

        return label

    def dim(self, k):
        return self._dims[k] if 0 <= k <= self.D else 0

    @property
    def diff_shapes(self):
        """{k: (rows, columns) of d_k} for every degree k < D, built or not."""
        return {k: (self.dim(k + 1), self.dim(k)) for k in range(self.D)}

    def d_columns(self, k):
        """d_k as sparse columns, written by :meth:`_koszul_columns` on the first read."""
        cols = self._dcols.get(k)
        if cols is None:
            if not 0 <= k < self.D:
                return [{}] * self.dim(k)
            cols = self._dcols[k] = self._koszul_columns(k)
        return cols

    def _chern_product(self, p, a, i):
        """b_a . z_i for the base basis element a of degree p, memoised; {} past the base's top."""
        if p + 2 > self.base.D:
            return {}
        bz = self._bz.get((p, a, i))
        if bz is None:
            bz = self._bz[(p, a, i)] = self.base.mul_terms(p, {a: 1}, 2, self._chern_terms[i])
        return bz

    def _koszul_columns(self, k):
        """d_k of the total model as sparse columns, by the rule in the module docstring.

        The two sums land in base degrees p + 1 and p + 2, so no entry is written twice.
        S is sorted, so for i at position t of S, eps(i, S) = (-1)^t and S - i
        is S without its entry t; both are listed once per monomial.
        """
        base = self.base
        rows = self.index[k + 1]
        removals = {}  # S -> [(i, eps(i, S), S - i)]
        cols = []
        for p, a, S in self.elements[k]:
            col = {rows[(p + 1, a2, S)]: x for a2, x in base.d_columns(p)[a].items()}
            sign = -1 if p % 2 else 1
            terms = removals.get(S)
            if terms is None:
                terms = removals[S] = [
                    (i, -1 if t % 2 else 1, S[:t] + S[t + 1:]) for t, i in enumerate(S)
                ]
            for i, eps, rest in terms:
                for a2, x in self._chern_product(p, a, i).items():
                    col[rows[(p + 2, a2, rest)]] = sign * eps * x
            cols.append(col)
        return cols

    def _certify(self):
        """Raise the ModelError of the total ``check_d_squared`` unless d o d = 0, on the base.

        Each term (A), (B), (C) of the module docstring is checked, but on
        the doubled model only the cross terms, whose fiber indices T lie on
        both sides of ``split``.  A failing term of base element a in degree
        p is keyed (p + |T|, p, a, T), and the least key names the element
        that the total scan names first.  Its label is written by
        :attr:`_label` alone, so a refusal lists no degree of the model.
        """
        base, bz, fiber = self.base, self._chern_product, range(self.n)
        terms = [()] + [(i,) for i in fiber] + list(itertools.combinations(fiber, 2))
        if self.split is not None:
            terms = [T for T in terms if len({i < self.split for i in T}) == 2]

        def times(u, p, i):  # the base cochain u of degree p, times z_i
            return _sum_terms((x, bz(p, c, i)) for c, x in u.items())

        def fails(p, a, db, T):  # the term (B) or (C) of b_a in degree p, with indices T
            if len(T) == 1:
                return base.d_terms(p + 2, bz(p, a, *T)) != times(db, p + 1, *T)
            i, j = T
            return p < base.D - 3 and times(bz(p, a, i), p + 2, j) != times(bz(p, a, j), p + 2, i)

        failed = [(p, p, a, ()) for p, a in base.d_squared_failures()] if () in terms else []
        for p in range(base.D - 2):  # (B) lands in base degree p + 3, (C) in p + 4
            for a, db in enumerate(base.d_columns(p)):
                failed += [(p + len(T), p, a, T) for T in terms if T and fails(p, a, db, T)]
        if failed:
            k, p, a, T = min(failed)
            names = [x for bs in base.basis for x in bs]
            if len(set(names)) == len(names):
                x = self._label(p, a, T)
            else:  # a base that repeats a label: ``basis`` raises, as it names the two elements
                x = self.basis[k][self.index[k][(p, a, T)]]
            raise ModelError(f"total model of the bundle is invalid: d(d(x)) != 0 "
                             f"for basis element {x!r} in degree {k}")

    def mul_terms(self, i, u, j, v):
        """Product of the sparse cochains u (deg i) and v (deg j), by the Koszul rule.

        (b1 (x) y_S1)(b2 (x) y_S2) = (-1)^(|S1| |b2|) shuffle(S1, S2) (b1 b2) (x) y_(S1 u S2),
        term by term: the shuffle of each pair of monomials is looked up in a
        per-model dict, and the base structure constants of b1 b2 are added
        at their index in degree i + j.  The sum is that of
        ``DgRingModel.mul_terms`` over the basis pairs, in the same order.
        """
        if i + j > self.D:
            return {}
        left, right, level = self.elements[i], self.elements[j], self.index[i + j]
        base_product, shuffles = self.base.mul_basis, self._shuffles
        out = {}
        for a, x in u.items():
            p1, a1, S1 = left[a]
            for b, y in v.items():
                p2, a2, S2 = right[b]
                shuffle = shuffles.get((S1, S2))
                if shuffle is None:
                    shuffle = shuffles[(S1, S2)] = shuffle_sign(S1, S2)
                merged, sign = shuffle
                if merged is None:
                    continue
                if len(S1) % 2 and p2 % 2:
                    sign = -sign
                xy, p = sign * x * y, p1 + p2
                for a3, z in base_product(p1, a1, p2, a2).items():
                    c = level[(p, a3, merged)]
                    out[c] = out.get(c, 0) + xy * z
        return {c: z for c, z in out.items() if z}

    def mul_basis(self, i, a, j, b):
        """The Koszul product of basis element a (deg i) and b (deg j)."""
        return self.mul_terms(i, {a: 1}, j, {b: 1})

    @property
    def product(self):
        """Every nonzero product of two non-unit basis elements, tabulated on each read.

        A pair whose fiber monomials meet is zero by the Koszul rule; a test
        on their bitmasks skips it, so only pairs of disjoint monomials reach
        :meth:`mul_basis` and its shuffle memo.
        """
        masks = [[sum(1 << i for i in S) for _, _, S in self.elements[k]]
                 for k in range(self.D + 1)]
        product = {}
        for k1 in range(self.D + 1):
            for k2 in range(self.D + 1 - k1):
                for n1, mask1 in enumerate(masks[k1]):
                    for n2, mask2 in enumerate(masks[k2]):
                        if mask1 & mask2 or (k1 == 0 and n1 == 0) or (k2 == 0 and n2 == 0):
                            continue
                        table = self.mul_basis(k1, n1, k2, n2)
                        if table:
                            product[(k1, n1, k2, n2)] = table
        return product

    # -- basic structure ------------------------------------------------------

    def basis_elements(self, k):
        return self.elements[k] if 0 <= k <= self.D else []

    def monomials(self, fdeg):
        return self._monomials[fdeg]

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
        """The inclusion b -> b (x) y_empty of base degree-k cochains, as columns."""
        return [{self.index[k][(k, a, ())]: 1} for a in range(self.base.dim(k))]

    def pullback(self, k, vec):
        """The base degree-k cochain ``vec`` pulled back to the total model, as a list."""
        return mat_vec(self.pullback_matrix(k), int_vector(vec), self.dim(k))

    def pullback_to_total(self, coc: Cocycle) -> Cocycle:
        """b -> b (x) y_empty; a ring map and a chain map."""
        if require(coc, Cocycle, "coc").degree > self.base.D:
            raise InputError("cocycle degree exceeds the base model")
        return Cocycle(coc.degree, self.pullback(coc.degree, coc.vector))

    def fiber_restriction(self, z: Cocycle):
        """Coefficients of the pure fiber monomials, positive base degrees dropped."""
        k = z.degree
        vec = z.vector
        out = []
        for S in self.monomials(k):
            idx = self.index[k].get((0, 0, S))
            out.append(0 if idx is None else vec[idx])
        return out

    # -- cohomology and the spectral sequence ---------------------------------

    @memoised
    def total_cohomology(self, k):
        """H^k of the total space as a subquotient of degree-k cochains."""
        return cochain_cohomology(k, self.D, self.dim, self.d_columns)

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
        """Basis of Z_r^{p,q} = {x in F^p C^{p+q} : dx in F^{p+r}} in C^{p+q}, as columns.

        F^p C^k is the basis suffix from ``start`` and F^{p+r} C^{k+1} the one
        from ``low``, so the condition asks that the block of d_k on the
        columns from ``start`` and the rows below ``low`` kills x: Z_r is
        that block's kernel (:meth:`_kernel_block`).  The lattice depends
        only on the block; the q index is bookkeeping, and different r often
        give one block.
        """
        k = p + q
        if k < 0 or k > self.D:
            return []
        r = min(r, self.stable_page)
        start = self._step_start(k, p)
        low = self._step_start(k + 1, p + r) if r > 0 and k < self.D else 0
        return self._kernel_block(k, start, low)

    @memoised
    def _kernel_block(self, k, start, low):
        """Kernel of d_k on the columns from ``start`` and the rows below ``low``, in C^k.

        The block's kernel is shifted down by ``start`` rows.  With no rows
        (r <= 0, or k = D, or no basis element below p + r) it is all of F^p C^k.
        """
        if not low:
            return [{i: 1} for i in range(start, self.dim(k))]
        block = [{i: x for i, x in col.items() if i < low} for col in self.d_columns(k)[start:]]
        return [{start + i: x for i, x in col.items()} for col in kernel_basis(block, low)]

    @memoised
    def _page_subquotient(self, r, p, q):
        """E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}).

        Slots with q > n, q < 0 or p < 0 come out trivial by themselves.  The
        denominator lies in the numerator by construction, which is
        ``subquotient``'s precondition: Z_{r-1}^{p+1} lies in Z_r^p, as
        F^{p+1} lies in F^p and its condition dx in F^{p+1+r-1} is the same
        one (for r - 1 <= 0 it holds too, as d keeps each F^s); and for x in
        Z_{r-1}^{p-r+1}, dx lies in F^{p-r+1+r-1} = F^p with d(dx) = 0 in
        F^{p+r}, by d o d = 0, which every build certifies.
        ``tests/test_lazy_bundle.py`` checks every slot against a reference
        containment test.

        The numerator is a basis of a saturated lattice of the free C^k, so
        ``subquotient`` reads the slot's invariants off the boundaries and
        builds its relations only for a ``reduce`` (``tests/test_lazy_presentation.py``
        holds both to the relations).  ``z_lattice`` gives either an identity
        suffix, a basis of the coordinate lattice F^p C^k, or a
        ``_kernel_block`` kernel: a basis of the kernel lattice of the block,
        shifted into F^p C^k.  Both are saturated: if m x lies in one for an
        integer m != 0, then x is zero where m x is, so x lies in F^p C^k,
        and the block kills x as it kills m x.
        """
        r = min(r, self.stable_page)
        k = p + q
        if not 0 <= k <= self.D:
            return subquotient(FgAbelianGroup(0), [], [])
        inner = self.z_lattice(r - 1, p - r + 1, q + r - 2)
        boundaries = self.z_lattice(r - 1, p + 1, q - 1) + compose(self.d_columns(k - 1), inner)
        Z = self.z_lattice(r, p, q)
        return subquotient(FgAbelianGroup(self.dim(k)), Z, boundaries, _saturated=True)

    @memoised
    def ss_page(self, r, p, q):
        """Slot (p, q) of page r with d_r out of it; d_r into it is
        ``ss_page(r, p - r, q + r - 1).d_out``.

        Below the stable page s, d_r needs no special case for an empty
        target: for x in Z_r^{p,q}, dx lies in F^{p+r} and d(dx) = 0, so dx
        is in Z_r^{p+r,q-r+1}, the target's numerator; when that lattice has
        no generators, dx = 0 and the membership solve returns the empty
        vector.

        d_r is well defined, the precondition of ``GroupHom`` that
        ``induced_hom`` leaves to its caller.  For r < s, d sends the
        source's denominator Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1} into
        d Z_{r-1}^{p+1}, by d o d = 0, and that is a part of the target's
        denominator, built from the same lattice.

        From page s on, d_r is the zero map by degree, written with no
        solve; both slots are read on page s.  For p >= 0 the target lies in
        F^{p+s} C = 0, as s > D.  For p < 0 the source is zero: F^{p+1} and
        F^p are all of C, so the source's numerator Z_s^p and the part
        Z_{s-1}^{p+1} of its denominator are one lattice, {x : dx in F^{p+s}}.
        ``tests/test_lazy_bundle.py`` checks every slot's d_r against a
        reference well-definedness test.
        """
        if r < 1:
            raise InputError("spectral-sequence pages start at r = 1")
        sq = self._page_subquotient(r, p, q)
        target = self._page_subquotient(r, p + r, q - r + 1)
        if r >= self.stable_page:
            d_out = GroupHom(sq.group, target.group, [{}] * sq.group.ngens)
        else:
            d_out = induced_hom(sq, target, lambda v: self.d(p + q, v))
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
        """Maximal p with [z] in F^p H^k, and a representative in Z_infinity^p.

        z is closed, so [z] = 0 iff z lies in im d_{k-1}: one solve against
        ``d_factor(k - 1)``, with no H^k built.  [z] lies in F^p H^k iff
        z = x + d y with x in Z_infinity^p; each step's matrix is factored once
        per model (:meth:`_step_factor`).  The leading part at infinity is
        built on its first read (:attr:`FiltrationReport.leading`), so a
        caller that reads only the step builds no E_infinity slot.  The
        report refers to this model and the model never to the report,
        which is why nothing here is memoised.  A caller that holds a proof
        that z is closed calls :meth:`_filtration_report`, which skips the test.
        """
        if not self.is_closed(require(z, Cocycle, "z").degree, z.vector):
            raise InputError("filtration_report needs a closed cochain")
        return self._filtration_report(z)

    def _filtration_report(self, z: Cocycle) -> "FiltrationReport":
        """:meth:`filtration_report` of a cochain z that the caller proves closed."""
        k = z.degree
        vec = list(z.vector)
        if self.d_factor(k - 1).solve(vec) is not None:  # d_{-1} is the zero map into C^0
            return FiltrationReport(
                degree=k, is_zero=True, p=None, representative=[0] * len(vec), model=self
            )
        for p in range(min(k, self.base.D), -1, -1):
            sol = self._step_factor(k, p).solve(vec)
            if sol is not None:
                rep = mat_vec(self.z_lattice(self.stable_page, p, k - p), sol, len(vec))
                return FiltrationReport(
                    degree=k, is_zero=False, p=p, representative=rep, model=self
                )
        raise ModelError("closed nonzero class fell out of the filtration")

    @memoised
    def _step_factor(self, k, p):
        """Smith form of [Z_infinity^{p,k-p} | d_{k-1}], the matrix of the step-p solve."""
        Kp = self.z_lattice(self.stable_page, p, k - p)
        return smith_normal_form(Kp + self.d_columns(k - 1), self.dim(k))

    def __repr__(self):
        return f"BundleModel(n={self.n}, base={self.base!r})"


class SSPage(Record):
    """One (r, p, q) slot of the spectral sequence with d_r out of it.

    ``d_out`` maps this slot to (p + r, q - r + 1); the differential into the
    slot is the ``d_out`` of slot (p - r, q + r - 1) of the same page.
    """

    _fields = ("r", "p", "q", "group", "sq", "d_out", "is_infinity")

    def invariants(self):
        return self.group.invariants()

    def reduce(self, vec):
        """Class of a member cochain vector in this slot's group."""
        return self.sq.reduce(vec)

    def apply_d(self, vec):
        """d_r of the class of ``vec``, as a normal form in the target slot."""
        lam = self.group.section(self.sq.reduce(vec))
        return self.d_out.target.reduce(mat_vec(self.d_out.matrix, lam, self.d_out.target.ngens))


class FiltrationReport(Record):
    """Maximal filtration step of a class in the filtration of ``model``.

    ``representative`` is a cochain in F^p of the class, as a list of ints.
    ``leading``, its coordinates in E_infinity^{p,k-p}, is built on first
    read: only ``tdk dualizable`` and the self-test read it.
    """

    _fields = ("degree", "is_zero", "p", "representative", "model")

    @cached_property
    def leading(self):
        """The class of ``representative`` in E_infinity^{p,k-p}; () for the zero class."""
        if self.is_zero:
            return ()
        m, p = self.model, self.p
        return m._page_subquotient(m.stable_page, p, self.degree - p).reduce(self.representative)

    def in_step(self, p):
        return self.is_zero or (self.p is not None and self.p >= p)


# ---------------------------------------------------------------------------
# construction


def build_bundle(base: DgRingModel, chern, check=None) -> BundleModel:
    """Total-space model from a base model and chern cocycles, fibers labelled y1..yn.

    The public door of :class:`BundleModel`: the chern cocycles are checked
    closed and the total differential is certified to square to zero by
    :meth:`BundleModel._certify`, on base data alone, so no d_k of the total
    model is built; the ring axioms hold by construction.  ``check`` has no
    effect: every build runs the same certificate.  It is still accepted
    because ``benchmark/workloads.py`` passes it.
    """
    return BundleModel(base, chern)
