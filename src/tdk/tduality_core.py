"""Duals of torus bundles with 3-form flux: decision, construction, classification.

A :class:`Pair` is a bundle model together with a closed degree-3 flux
cocycle on its total space.  A :class:`Triple` joins two pairs over the same
base through a degree-2 correspondence cochain w on the doubled model
(fiber T^{2n}, chern cocycles of both sides) subject to three exact
conditions: dw = phat*(zhat) - p*(z), prescribed leading parts on both
sides, and the fiberwise normalization of w modulo classes pulled from either
factor.

Twist bookkeeping is additive: a twist is its representative cocycle, a
morphism of twists is a degree-2 cochain m with dm = source - target, and
composition is addition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InputError,
    ModelError,
    NotDualizableError,
    TripleMismatchError,
)
from .exact_linalg import (
    _sum_terms,
    compose,
    dense_vector,
    induced_hom,
    int_vector,
    kernel_basis,
    mat_vec,
    solve,
    subquotient,
)
from .space_model import Cocycle, _terms
from .torus_bundle import BundleModel, FiltrationReport, build_bundle

__all__ = [
    "Pair",
    "Triple",
    "TripleReport",
    "ExtensionReport",
    "is_dualizable",
    "extract_dual_chern",
    "dualize",
    "validate_triple",
    "h3_action",
    "torsor_difference",
    "gauge_shift",
    "gauge_action",
    "extension_report",
]


@dataclass(frozen=True)
class Pair:
    """A bundle model with a closed degree-3 flux cocycle on its total space."""

    bundle: BundleModel
    flux: Cocycle

    def __post_init__(self):
        if self.flux.degree != 3:
            raise InputError(f"flux has degree {self.flux.degree}, expected 3")
        if len(self.flux.vector) != self.bundle.dim(3):
            raise InputError(
                f"flux vector has length {len(self.flux.vector)}, "
                f"expected {self.bundle.dim(3)}"
            )
        if not self.bundle.is_closed(3, self.flux.vector):
            raise InputError("flux cocycle is not closed")

    @property
    def base(self):
        return self.bundle.base

    def chern_classes(self):
        return self.bundle.chern_classes()


class Triple:
    """Two pairs over one base joined by a correspondence cochain.

    The doubled model carries fiber generators y_1..y_n (side) and
    yh_1..yh_n (dual side); ``w`` is a degree-2 cochain there.  Passing
    ``w=None`` selects the standard correspondence sum_i y_i yh_i.
    """

    def __init__(self, side: Pair, dual: Pair, w=None, doubled: BundleModel | None = None):
        if side.base is not dual.base:
            raise TripleMismatchError("the two sides live over different bases")
        if side.bundle.n != dual.bundle.n:
            raise TripleMismatchError("the two sides have different fiber dimensions")
        self.side = side
        self.dual = dual
        self.n = side.bundle.n
        self.base = side.base
        if doubled is None:
            doubled = BundleModel.doubled(side.bundle, dual.bundle)
        self.doubled = doubled
        if w is None:
            w = self.standard_w()
        self.w = int_vector(w, "correspondence cochain")
        if len(self.w) != doubled.dim(2):
            raise InputError(
                f"correspondence cochain has length {len(self.w)}, "
                f"expected {doubled.dim(2)}"
            )

    def standard_w(self):
        w = self.doubled.zero_vector(2)
        for i in range(self.n):
            w[self.doubled.index[2][(0, 0, (i, i + self.n))]] = 1
        return w

    # -- embeddings into the doubled model ------------------------------------

    def embed_side_matrix(self, k):
        """The inclusion of the side model's degree-k cochains, as columns."""
        index = self.doubled.index
        return [{index[k][e]: 1} for e in self.side.bundle.basis_elements(k)]

    def embed_dual_matrix(self, k):
        """The inclusion of the dual model's degree-k cochains, fiber indices shifted by n."""
        n, index = self.n, self.doubled.index
        return [
            {index[k][(p, a, tuple(t + n for t in T))]: 1}
            for p, a, T in self.dual.bundle.basis_elements(k)
        ]

    def correspondence_defect(self):
        """dw - (phat* zhat - p* z), as a list; all zero on a valid triple."""
        rows = self.doubled.dim(3)
        dual = mat_vec(self.embed_dual_matrix(3), self.dual.flux.vector, rows)
        side = mat_vec(self.embed_side_matrix(3), self.side.flux.vector, rows)
        return [x - y + z for x, y, z in zip(self.doubled.d(2, self.w), dual, side)]

    def with_data(self, side=None, dual=None, w=None):
        return Triple(
            side if side is not None else self.side,
            dual if dual is not None else self.dual,
            w if w is not None else self.w,
            doubled=self.doubled
            if (side is None or side.bundle is self.side.bundle)
            and (dual is None or dual.bundle is self.dual.bundle)
            else None,
        )

    def __repr__(self):
        return f"Triple(n={self.n}, base={self.base!r})"


# ---------------------------------------------------------------------------
# dualizability and normal form


def is_dualizable(pair: Pair):
    """Flux class lies in the second filtration step; certificate attached."""
    report = pair.bundle.filtration_report(pair.flux)
    return report.in_step(2), report


def _normal_form(pair: Pair, report: FiltrationReport):
    """Write the flux class as sum_i zhat_i . y_i + beta with zhat_i closed.

    ``report`` is the filtration report of the flux, from :func:`is_dualizable`.
    Returns (zhat list, beta, representative) where the representative is a
    closed cocycle in filtration step 2 cohomologous to the given flux.
    """
    if not report.in_step(2):
        raise NotDualizableError(
            f"flux class sits in filtration step {report.p}, needs at least 2", report
        )
    m = pair.bundle
    base = m.base
    if report.is_zero:
        rep = m.zero_vector(3)
    else:
        rep = report.representative
    zhat = [base.zero_vector(2) for _ in range(m.n)]
    beta = base.zero_vector(3)
    for i, coeff in enumerate(rep):
        if coeff == 0:
            continue
        p, a, S = m.elements[3][i]
        if p == 2 and len(S) == 1:
            zhat[S[0]][a] += coeff
        elif p == 3 and not S:
            beta[a] += coeff
        else:
            raise ModelError("filtration representative escaped step 2")
    for i, z in enumerate(zhat):
        if not base.is_closed(2, z):
            raise ModelError("dual chern candidate is not closed")
    return zhat, beta, rep


def _pairing_primitive(base, cs, chs):
    """A base cochain beta with d(beta) = -sum_i cs_i . chs_i, or None.

    None means that the degree-4 pairing of the two lists of degree-2
    cocycles is not exact.
    """
    total = _sum_terms(
        (-1, base.mul_terms(2, _terms(a, base.dim(2)), 2, _terms(b, base.dim(2))))
        for a, b in zip(cs, chs)
    )
    return base.d_factor(3).solve(dense_vector(total, base.dim(4)))


def extract_dual_chern(pair: Pair):
    """A representative dual chern vector and its antisymmetric-shear ambiguity.

    The representative satisfies sum_i c_i . chat_i = 0 in H^4 of the base;
    the full set of dual chern data is {chat + B c : B antisymmetric}.
    """
    return _dual_chern(pair, is_dualizable(pair)[1])


def _dual_chern(pair: Pair, report: FiltrationReport):
    """:func:`extract_dual_chern` from the flux's filtration report."""
    zhat, beta, _ = _normal_form(pair, report)
    base = pair.base
    H2 = base.cohomology(2)
    classes = [H2.reduce(z) for z in zhat]
    if _pairing_primitive(base, pair.bundle.chern, zhat) is None:
        raise ModelError("dual chern representative violates the degree-4 relation")
    ambiguity = []
    n = pair.bundle.n
    cherns = list(pair.bundle.chern)
    for i in range(n):
        for j in range(i + 1, n):
            shift = [base.zero_vector(2) for _ in range(n)]
            shift[i] = cherns[j]
            shift[j] = [-x for x in cherns[i]]
            ambiguity.append([H2.reduce(s) for s in shift])
    return classes, {"representatives": zhat, "shear_generators": ambiguity}


def dualize(pair: Pair, choice=None) -> Triple:
    """Construct the canonical extension of a dualizable pair to a triple.

    The flux is brought to the normal form sum_i zhat_i . y_i + beta; the dual
    side is the bundle with chern cocycles zhat, dual flux
    sum_i z_i . yh_i + beta (the base part carries over unchanged, which makes
    the double dual the identity on the nose), and w = sum_i y_i yh_i.

    ``choice`` may fix the dual chern representatives and base part:
    {"chern_hat": [...], "beta": [...]}; they must reproduce the flux class.
    """
    m = pair.bundle
    base = m.base
    if choice is not None:
        zhat = [int_vector(z, f"chern_hat[{i}]") for i, z in enumerate(choice["chern_hat"])]
        beta = int_vector(choice.get("beta", base.zero_vector(3)), "beta")
        if len(zhat) != m.n:
            raise InputError("need one dual chern cocycle per fiber circle")
        for i, z in enumerate(zhat):
            if not base.is_closed(2, z):
                raise InputError(f"chosen dual chern cocycle {i} is not closed")
        rep = m.normal_form_vector(zhat, beta)
        if not m.is_closed(3, rep):
            raise InputError("chosen normal form is not a cocycle")
        H3 = m.total_cohomology(3)
        if H3.reduce(rep) != H3.reduce(pair.flux.vector):
            raise InputError("chosen normal form does not represent the flux class")
    else:
        zhat, beta, rep = _normal_form(pair, is_dualizable(pair)[1])

    side = Pair(m, Cocycle(3, rep))
    dual_bundle = build_bundle(base, zhat)
    dual = Pair(dual_bundle, Cocycle(3, dual_bundle.normal_form_vector(m.chern, beta)))

    t = Triple(side, dual)
    report = validate_triple(t)
    if not report.ok:
        raise ModelError(f"constructed triple failed validation: {report.failures()}")
    return t


# ---------------------------------------------------------------------------
# validation


@dataclass
class TripleReport:
    items: dict

    @property
    def ok(self):
        return all(flag for flag, _ in self.items.values())

    def failures(self):
        return {k: msg for k, (flag, msg) in self.items.items() if not flag}

    def __bool__(self):
        return self.ok


def _leading_part_matches(bundle: BundleModel, flux: Cocycle, other_chern):
    """[flux] lies in step 2 with leading part sum_i y_i (x) [other_chern_i]."""
    beta = _pairing_primitive(bundle.base, bundle.chern, other_chern)
    if beta is None:
        return False, "no closed cocycle has the required leading part"
    expected = bundle.normal_form_vector(other_chern, beta)
    if not bundle.is_closed(3, expected):
        return False, "internal: expected leading representative not closed"
    diff = Cocycle(3, [x - y for x, y in zip(flux.vector, expected)])
    report = bundle.filtration_report(diff)
    if report.in_step(3):
        return True, "leading part matches"
    return False, f"leading parts differ (difference sits in step {report.p})"


def validate_triple(t: Triple) -> TripleReport:
    """Itemized exact check of every triple condition; never raises."""
    items = {}
    side_closed = t.side.bundle.is_closed(3, t.side.flux.vector)
    dual_closed = t.dual.bundle.is_closed(3, t.dual.flux.vector)
    items["side_flux_closed"] = (side_closed, "d z = 0")
    items["dual_flux_closed"] = (dual_closed, "d zhat = 0")

    if side_closed:
        items["side_leading_part"] = _leading_part_matches(
            t.side.bundle, t.side.flux, list(t.dual.bundle.chern)
        )
    else:
        items["side_leading_part"] = (False, "flux not closed")
    if dual_closed:
        items["dual_leading_part"] = _leading_part_matches(
            t.dual.bundle, t.dual.flux, list(t.side.bundle.chern)
        )
    else:
        items["dual_leading_part"] = (False, "dual flux not closed")

    defect = t.correspondence_defect()
    items["correspondence_equation"] = (
        all(x == 0 for x in defect),
        "dw = phat*(zhat) - p*(z)",
    )

    items["fiber_condition"] = _fiber_condition(t)

    items["quadratic_relation"] = (
        _pairing_primitive(t.base, t.side.bundle.chern, t.dual.bundle.chern) is not None,
        "sum_i c_i . chat_i = 0 in H^4 of the base",
    )
    return TripleReport(items)


def _fiber_condition(t: Triple):
    """w restricted to the fiber equals sum_i y_i yh_i modulo either factor.

    Classes pulled from either factor span the pure monomials y_i y_j and
    yh_i yh_j, so the condition reads only the mixed ones: the coefficient of
    y_i yh_j is 1 when j = i and 0 otherwise.
    """
    n = t.n
    restricted = t.doubled.fiber_restriction(Cocycle(2, t.w))
    ok = all(
        restricted[m_i] == (1 if j == i + n else 0)
        for m_i, (i, j) in enumerate(t.doubled.monomials(2))
        if i < n <= j
    )
    return ok, "fiberwise class of w is sum_i y_i yh_i modulo both factors"


# ---------------------------------------------------------------------------
# torsor structure


def h3_action(t: Triple, alpha: Cocycle) -> Triple:
    """Shift both fluxes by the pullback of a base degree-3 cocycle."""
    base = t.base
    if alpha.degree != 3:
        raise InputError("the torsor acts by degree-3 base classes")
    vec = alpha.vector
    if not base.is_closed(3, vec):
        raise InputError("action class is not closed")

    def moved(pair):
        shift = pair.bundle.pullback(3, vec)
        return Pair(pair.bundle, Cocycle(3, [x + y for x, y in zip(pair.flux.vector, shift)]))

    return t.with_data(side=moved(t.side), dual=moved(t.dual))


def _require_same_bundles(t1: Triple, t2: Triple):
    if t1.base is not t2.base or t1.n != t2.n:
        raise TripleMismatchError("triples live over different bases")
    for z1, z2 in zip(t1.side.bundle.chern, t2.side.bundle.chern):
        if any(a != b for a, b in zip(z1, z2)):
            raise TripleMismatchError("side bundles differ")
    for z1, z2 in zip(t1.dual.bundle.chern, t2.dual.bundle.chern):
        if any(a != b for a, b in zip(z1, z2)):
            raise TripleMismatchError("dual bundles differ")


def torsor_difference(t1: Triple, t2: Triple) -> Cocycle:
    """The unique base class delta with t1 isomorphic to t2 + delta.

    Solves the combined integer system
        z1 - z2    = pi* delta + d a
        zh1 - zh2  = pihat* delta + d ahat
        w1 - w2    = -p* a + phat* ahat + d tau
    over (delta in the closed degree-3 base lattice, a, ahat, tau); a failure
    to solve means the triples are not over the same orbit data.
    """
    _require_same_bundles(t1, t2)
    base = t1.base
    F = t1.side.bundle
    Fh = t1.dual.bundle
    Dm = t1.doubled

    K3 = kernel_basis(base.d_columns(3), base.dim(4))
    off2, off3 = F.dim(3), F.dim(3) + Fh.dim(3)  # the row blocks start at 0, off2, off3

    def stack(*parts):
        """One column from (row offset, sign, column) parts."""
        return {off + r: sign * x for off, sign, col in parts for r, x in col.items()}

    pulled = zip(compose(F.pullback_matrix(3), K3), compose(Fh.pullback_matrix(3), K3))
    block = (
        [stack((0, 1, a), (off2, 1, b)) for a, b in pulled]
        + [stack((0, 1, d), (off3, -1, e))
           for d, e in zip(F.d_columns(2), t1.embed_side_matrix(2))]
        + [stack((off2, 1, d), (off3, 1, e))
           for d, e in zip(Fh.d_columns(2), t1.embed_dual_matrix(2))]
        + [stack((off3, 1, d)) for d in Dm.d_columns(1)]
    )
    rhs = [
        x - y
        for a, b in ((t1.side.flux.vector, t2.side.flux.vector),
                     (t1.dual.flux.vector, t2.dual.flux.vector),
                     (t1.w, t2.w))
        for x, y in zip(a, b)
    ]
    sol = solve(block, rhs)
    if sol is None:
        raise TripleMismatchError(
            "no base class relates the triples; the data are not in one orbit"
        )
    return Cocycle(3, mat_vec(K3, sol, base.dim(3)))


# ---------------------------------------------------------------------------
# gauge action of bundle automorphisms


def _substitute_fiber(m_old: BundleModel, m_new: BundleModel, vec, k, images):
    """Push a degree-k vector through y_i -> images[i] (vectors in C^1(new)).

    The base part is carried over unchanged; fiber monomials are expanded by
    multiplying the generator images in ascending order.
    """
    images = [_terms(v, m_new.dim(1)) for v in images]
    out = []
    for idx, coeff in enumerate(vec):
        if coeff == 0:
            continue
        p, a, S = m_old.elements[k][idx]
        acc = {m_new.index[p][(p, a, ())]: 1}
        deg = p
        for i in S:
            acc = m_new.mul_terms(deg, acc, 1, images[i])
            deg += 1
        out.append((coeff, acc))
    return dense_vector(_sum_terms(out), m_new.dim(k))


def gauge_images(m: BundleModel, shifts):
    """Images y_i + pi*(shift_i) of the fiber generators, as C^1 vectors."""
    images = []
    for i in range(m.n):
        v = m.pullback(1, shifts[i])
        v[m.index[1][(0, 0, (i,))]] += 1
        images.append(v)
    return images


def gauge_action(t: Triple, psis, psihats) -> Triple:
    """Apply the bundle automorphisms given by psi, psihat in H^1(B, Z^n)."""
    base = t.base
    psis = [int_vector(p, "psi") for p in psis]
    psihats = [int_vector(p, "psihat") for p in psihats]
    if len(psis) != t.n or len(psihats) != t.n:
        raise InputError("need one degree-1 class per fiber circle on each side")
    for v in psis + psihats:
        if not base.is_closed(1, v):
            raise InputError("gauge classes must be closed")

    F, Fh, Dm = t.side.bundle, t.dual.bundle, t.doubled
    z_new = _substitute_fiber(F, F, t.side.flux.vector, 3, gauge_images(F, psis))
    zh_new = _substitute_fiber(Fh, Fh, t.dual.flux.vector, 3, gauge_images(Fh, psihats))
    w_new = _substitute_fiber(Dm, Dm, t.w, 2, gauge_images(Dm, psis + psihats))
    return t.with_data(
        side=Pair(F, Cocycle(3, z_new)),
        dual=Pair(Fh, Cocycle(3, zh_new)),
        w=w_new,
    )


def gauge_shift(t: Triple, psis, psihats) -> Cocycle:
    """The base class chat . [psi] + c . [psihat] produced by the gauge action."""
    base = t.base
    pairs = list(zip(t.dual.bundle.chern, psis)) + list(zip(t.side.bundle.chern, psihats))
    out = _sum_terms(
        (1, base.mul_terms(2, _terms(z, base.dim(2)), 1, _terms(psi, base.dim(1))))
        for z, psi in pairs
    )
    return Cocycle(3, dense_vector(out, base.dim(3)))


# ---------------------------------------------------------------------------
# extensions of a fixed pair


@dataclass
class ExtensionReport:
    dualizable: bool
    certificate: FiltrationReport
    dual_chern: list | None
    ambiguity: dict | None
    torsor_group: object
    crosscheck_group: object

    @property
    def torsor_invariants(self):
        return self.torsor_group.invariants()

    @property
    def crosscheck_invariants(self):
        return self.crosscheck_group.invariants()

    @property
    def agree(self):
        return self.torsor_invariants == self.crosscheck_invariants


def extension_report(pair: Pair) -> ExtensionReport:
    """Existence, dual chern data, and the extension torsor of a pair.

    The torsor group ker(pi*)/im(C), with C(a) = sum_i c_i . a_i, is computed
    from the pullback and the base ring; independently, the image of the page-3
    differential out of slot (0, 2) must have the same invariant factors.
    """
    m = pair.bundle
    base = m.base
    ok, report = is_dualizable(pair)
    dual_chern = None
    ambiguity = None
    if ok:
        dual_chern, ambiguity = _dual_chern(pair, report)

    H3B = base.cohomology(3)
    pull = induced_hom(H3B, m.total_cohomology(3), lambda v: m.pullback(3, v))
    ker = pull.kernel()

    H1B = base.cohomology(1)
    img_cols = []
    for i in range(m.n):
        for g in H1B.generator_vectors():
            img_cols.append(H3B.coords(base.mul(2, m.chern[i], 1, g)))
    imC = [{i: x for i, x in enumerate(c) if x} for c in img_cols]
    torsor = subquotient(H3B.group, ker.gens, imC)

    page = m.ss_page(3, 0, 2)
    cross = page.d_out.image()

    return ExtensionReport(
        dualizable=ok,
        certificate=report,
        dual_chern=dual_chern,
        ambiguity=ambiguity,
        torsor_group=torsor,
        crosscheck_group=cross,
    )
