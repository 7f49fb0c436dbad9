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

What is built here is trusted, not re-checked.  The base is graded
commutative on the nose, so two degree-2 cochains commute:
sum_i zhat_i . c_i = sum_i c_i . zhat_i.  In a bundle model with
d y_i = c_i, a degree-3 cochain sum_i zhat_i . y_i + beta has
d = sum_i d(zhat_i) . y_i + (sum_i zhat_i . c_i + d beta): its components at
(3, ., (i,)) are d(zhat_i), and at (4, ., ()) the pairing plus d beta.  So
such a cochain is closed iff every zhat_i is closed and beta is a primitive
of the pairing, d beta = -sum_i c_i . zhat_i.  The flux normal form
(:func:`_normal_form`), the canonical triple (:func:`_canonical_triple`)
and the expected leading parts of :func:`validate_triple` all rest on this
identity.

Each record has two doors.  The public ones, ``Pair(bundle, flux)`` and
``Triple(side, dual, w=None)``, check everything: a Pair tests its flux
closed, and a Triple builds the doubled model of its two bundles itself.
``Pair._proven`` and ``Triple._proven`` take data whose proof their caller
holds and check nothing; each call names that proof.  Their callers are
:func:`_canonical_triple` (this docstring's identity), :func:`h3_action`
and :func:`gauge_action` (chain maps of the side and dual models), and the
flip and GL actions of ``duality_group`` (isomorphisms of the bundle
models).  Each triple is built once, from the models its caller holds:
:func:`dualize` and the shear of ``duality_group`` through
:func:`_canonical_triple`, and every other construction with the doubled
model and w that it already has.
"""

from __future__ import annotations

from .errors import (
    FrozenRecord,
    InputError,
    NotDualizableError,
    Record,
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


class Pair(FrozenRecord):
    """A bundle model with a closed degree-3 flux cocycle on its total space.

    ``Pair(bundle, flux)`` checks the degree, the length and that the flux
    is closed.  :meth:`_proven` checks nothing (module docstring).
    """

    _fields = ("bundle", "flux")

    @classmethod
    def _proven(cls, bundle, flux):
        """The pair of a degree-3 flux of the right length that the caller proves closed."""
        pair = cls.__new__(cls)
        pair.__dict__.update(bundle=bundle, flux=flux)
        return pair

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


class Triple:
    """Two pairs over one base joined by a correspondence cochain.

    The doubled model carries fiber generators y_1..y_n (side) and
    yh_1..yh_n (dual side); ``w`` is a degree-2 cochain there.  Passing
    ``w=None`` selects the standard correspondence sum_i y_i yh_i.
    ``Triple(side, dual, w)`` checks that the two sides share a base and a
    fiber dimension and that w is an integer cochain of the right length,
    and builds the doubled model of the two bundles.  :meth:`_proven` takes
    the doubled model from its caller and checks nothing (module
    docstring).  A caller that changes the data of a triple builds a new
    one with the models it keeps.
    """

    def __init__(self, side: Pair, dual: Pair, w=None):
        if side.base is not dual.base:
            raise TripleMismatchError("the two sides live over different bases")
        if side.bundle.n != dual.bundle.n:
            raise TripleMismatchError("the two sides have different fiber dimensions")
        self._fill(side, dual, w, BundleModel.doubled(side.bundle, dual.bundle))
        self.w = int_vector(self.w, "correspondence cochain")
        if len(self.w) != self.doubled.dim(2):
            raise InputError(
                f"correspondence cochain has length {len(self.w)}, "
                f"expected {self.doubled.dim(2)}"
            )

    @classmethod
    def _proven(cls, side: Pair, dual: Pair, w, doubled: BundleModel):
        """The triple of two pairs over one base with one fiber dimension, on
        ``doubled``, their doubled model; w is None or a list of ints of its degree 2."""
        t = cls.__new__(cls)
        t._fill(side, dual, w, doubled)
        return t

    def _fill(self, side, dual, w, doubled):
        self.side, self.dual, self.doubled = side, dual, doubled
        self.n, self.base = side.bundle.n, side.base
        self.w = self.standard_w() if w is None else w

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

    def __repr__(self):
        return f"Triple(n={self.n}, base={self.base!r})"


# ---------------------------------------------------------------------------
# dualizability and normal form


def is_dualizable(pair: Pair):
    """Flux class lies in the second filtration step; certificate attached.

    The flux of a Pair is closed, so its report is not re-tested.
    """
    report = pair.bundle._filtration_report(pair.flux)
    return report.in_step(2), report


def _normal_form(pair: Pair, report: FiltrationReport):
    """Write the flux class as sum_i zhat_i . y_i + beta with zhat_i closed.

    ``report`` is the filtration report of the flux, from :func:`is_dualizable`.
    Returns (zhat list, beta), read off the report's representative, a
    closed cocycle in filtration step 2 cohomologous to the given flux.

    Nothing is re-checked.  The representative lies in F^2 C^3, whose basis
    elements are (2, a, (i,)) and (3, a, ()) only, so every coefficient is
    read into zhat or beta, and ``normal_form_vector(zhat, beta)`` gives the
    representative back.  It is closed, so by the identity of the module
    docstring every zhat_i is closed and beta is a primitive of the pairing
    sum_i c_i . zhat_i.
    """
    if not report.in_step(2):
        raise NotDualizableError(
            f"flux class sits in filtration step {report.p}, needs at least 2", report
        )
    m = pair.bundle
    base = m.base
    zhat = [base.zero_vector(2) for _ in range(m.n)]
    beta = base.zero_vector(3)
    for i, coeff in enumerate(report.representative):
        if coeff == 0:
            continue
        p, a, S = m.elements[3][i]
        if p == 2:
            zhat[S[0]][a] += coeff
        else:
            beta[a] += coeff
    return zhat, beta


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
    """:func:`extract_dual_chern` from the flux's filtration report.

    The relation sum_i c_i . chat_i = 0 in H^4 is not solved for: the beta of
    the same normal form is a primitive of the pairing (:func:`_normal_form`).
    """
    zhat, _ = _normal_form(pair, report)
    base = pair.base
    H2 = base.cohomology(2)
    classes = [H2.reduce(z) for z in zhat]
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


def _canonical_triple(m: BundleModel, zhat, beta) -> Triple:
    """The triple of side flux sum_i zhat_i . y_i + beta on ``m``, built once.

    Its dual side is the bundle with chern cocycles zhat and dual flux
    sum_i c_i . yh_i + beta, for the chern cocycles c_i of ``m`` (the base
    part carries over unchanged, which makes the double dual the identity on
    the nose), and w = sum_i y_i yh_i, on the doubled model of the two.

    Precondition, proved by each caller: every zhat_i is closed and
    d beta = -sum_i c_i . zhat_i.  :func:`dualize` reads them off a
    Z_infinity representative (:func:`_normal_form`).  The shear of
    ``duality_group`` passes zhat + B c and beta + delta for a valid
    triple's zhat and beta, B antisymmetric and delta a closed base
    cocycle: zhat + B c is closed as c and zhat are, d(beta + delta) =
    d beta, and sum_i c_i . (B c)_i = sum_{i,j} B_ij c_i . c_j is zero, as
    B_ij = -B_ji and degree-2 cochains commute.  So the side flux is closed
    (module docstring), and each item of :func:`validate_triple` holds:

    - the dual flux sum_i c_i . yh_i + beta is closed, by the same identity
      with the two lists exchanged, as degree-2 products commute;
    - each leading part differs from the expected normal form by
      pi*(beta - beta') for another primitive beta', a pulled-back closed
      cochain, which lies in F^3;
    - d(y_i yh_i) = c_i . yh_i - zhat_i . y_i, so for w = sum_i y_i yh_i,
      dw is the dual flux minus the side flux, both pulled back to the
      doubled model: their beta parts cancel;
    - w restricts to sum_i y_i yh_i on the fiber;
    - beta witnesses the quadratic relation.

    The triple is valid by construction, so it is returned unvalidated, and
    both pairs and the triple are built through the proven doors, with the
    doubled model of ``m`` and the dual bundle.
    """
    side = Pair._proven(m, Cocycle(3, m.normal_form_vector(zhat, beta)))
    dual_bundle = build_bundle(m.base, zhat)
    dual = Pair._proven(dual_bundle, Cocycle(3, dual_bundle.normal_form_vector(m.chern, beta)))
    return Triple._proven(side, dual, None, BundleModel.doubled(m, dual_bundle))


def dualize(pair: Pair) -> Triple:
    """Construct the canonical extension of a dualizable pair to a triple.

    The flux is brought to the normal form sum_i zhat_i . y_i + beta
    (:func:`_normal_form`), whose dual side is the bundle with chern
    cocycles zhat: the triple of :func:`_canonical_triple`.
    """
    return _canonical_triple(pair.bundle, *_normal_form(pair, is_dualizable(pair)[1]))


# ---------------------------------------------------------------------------
# validation


class TripleReport(Record):
    _fields = ("items",)

    @property
    def ok(self):
        return all(flag for flag, _ in self.items.values())

    def failures(self):
        return {k: msg for k, (flag, msg) in self.items.items() if not flag}

    def __bool__(self):
        return self.ok


def _leading_part_matches(bundle: BundleModel, flux: Cocycle, other_chern, beta):
    """[flux] lies in step 2 with leading part sum_i y_i (x) [other_chern_i].

    ``beta`` is ``_pairing_primitive(bundle.base, bundle.chern, other_chern)``,
    which is the same for either order of the two lists.  The expected normal
    form sum_i other_chern_i . y_i + beta is closed without a check: the
    chern cocycles of a bundle are checked closed when it is built, and beta
    solves the pairing (module docstring).  So the difference of the flux
    of a Pair and that form is closed, and its report is not re-tested.
    """
    if beta is None:
        return False, "no closed cocycle has the required leading part"
    expected = bundle.normal_form_vector(other_chern, beta)
    diff = Cocycle(3, [x - y for x, y in zip(flux.vector, expected)])
    report = bundle._filtration_report(diff)
    if report.in_step(3):
        return True, "leading part matches"
    return False, f"leading parts differ (difference sits in step {report.p})"


def validate_triple(t: Triple) -> TripleReport:
    """Itemized exact check of every triple condition; never raises.

    Both fluxes are closed without a check: a :class:`Pair` refuses a flux
    that is not closed, and neither a Pair nor its cocycle can be changed
    afterwards.  Both leading parts and the quadratic relation solve one
    pairing, as sum_i chat_i . c_i is sum_i c_i . chat_i (module docstring).
    """
    items = {}
    side_chern, dual_chern = list(t.side.bundle.chern), list(t.dual.bundle.chern)
    side_beta = _pairing_primitive(t.base, side_chern, dual_chern)
    items["side_flux_closed"] = (True, "d z = 0")
    items["dual_flux_closed"] = (True, "d zhat = 0")
    items["side_leading_part"] = _leading_part_matches(
        t.side.bundle, t.side.flux, dual_chern, side_beta
    )
    items["dual_leading_part"] = _leading_part_matches(
        t.dual.bundle, t.dual.flux, side_chern, side_beta
    )

    defect = t.correspondence_defect()
    items["correspondence_equation"] = (
        all(x == 0 for x in defect),
        "dw = phat*(zhat) - p*(z)",
    )

    items["fiber_condition"] = _fiber_condition(t)

    items["quadratic_relation"] = (
        side_beta is not None,
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
    """Shift both fluxes by the pullback of a base degree-3 cocycle.

    alpha is checked closed, and pi* is a chain map, so each shifted flux
    is closed and each Pair is built through the proven door; the triple
    keeps t's bundles, so it keeps t's doubled model and w.
    """
    base = t.base
    if alpha.degree != 3:
        raise InputError("the torsor acts by degree-3 base classes")
    vec = alpha.vector
    if not base.is_closed(3, vec):
        raise InputError("action class is not closed")

    def moved(pair):
        flux = [x + y for x, y in zip(pair.flux.vector, pair.bundle.pullback(3, vec))]
        return Pair._proven(pair.bundle, Cocycle(3, flux))

    return Triple._proven(moved(t.side), moved(t.dual), t.w, t.doubled)


def _require_same_bundles(t1: Triple, t2: Triple):
    if t1.base is not t2.base or t1.n != t2.n:
        raise TripleMismatchError("triples live over different bases")
    if t1.side.bundle.chern.cocycles != t2.side.bundle.chern.cocycles:
        raise TripleMismatchError("side bundles differ")
    if t1.dual.bundle.chern.cocycles != t2.dual.bundle.chern.cocycles:
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
    return _torsor_class(t1, t2.side.flux.vector, t2.dual.flux.vector, t2.w)


def _torsor_class(t1: Triple, z2, zh2, w2) -> Cocycle:
    """:func:`torsor_difference` of t1 and the triple (z2, zh2, w2) on t1's own models."""
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
        for a, b in ((t1.side.flux.vector, z2), (t1.dual.flux.vector, zh2), (t1.w, w2))
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


def _gauge_classes(t: Triple, psis, psihats):
    """psi and psihat as integer vectors; each is one closed degree-1 base cocycle per circle."""
    psis = [int_vector(p, "psi") for p in psis]
    psihats = [int_vector(p, "psihat") for p in psihats]
    if len(psis) != t.n or len(psihats) != t.n:
        raise InputError("need one degree-1 class per fiber circle on each side")
    for v in psis + psihats:
        if not t.base.is_closed(1, v):
            raise InputError("gauge classes must be closed")
    return psis, psihats


def gauge_action(t: Triple, psis, psihats) -> Triple:
    """Apply the bundle automorphisms given by psi, psihat in H^1(B, Z^n).

    Each psi_i is checked closed, so y_i -> y_i + pi*(psi_i) extends to a
    ring map of the model (:func:`_substitute_fiber`) that commutes with d,
    as it does on generators: d(y_i + pi*(psi_i)) = c_i = d(y_i).
    So each new flux is closed and each Pair is built through the proven
    door; the triple keeps t's bundles, so it keeps t's doubled model.
    """
    psis, psihats = _gauge_classes(t, psis, psihats)

    F, Fh, Dm = t.side.bundle, t.dual.bundle, t.doubled
    z_new = _substitute_fiber(F, F, t.side.flux.vector, 3, gauge_images(F, psis))
    zh_new = _substitute_fiber(Fh, Fh, t.dual.flux.vector, 3, gauge_images(Fh, psihats))
    w_new = _substitute_fiber(Dm, Dm, t.w, 2, gauge_images(Dm, psis + psihats))
    side, dual = Pair._proven(F, Cocycle(3, z_new)), Pair._proven(Fh, Cocycle(3, zh_new))
    return Triple._proven(side, dual, w_new, Dm)


def gauge_shift(t: Triple, psis, psihats) -> Cocycle:
    """The base class chat . [psi] + c . [psihat] produced by the gauge action."""
    base = t.base
    psis, psihats = _gauge_classes(t, psis, psihats)
    pairs = list(zip(t.dual.bundle.chern, psis)) + list(zip(t.side.bundle.chern, psihats))
    out = _sum_terms(
        (1, base.mul_terms(2, _terms(z, base.dim(2)), 1, _terms(psi, base.dim(1))))
        for z, psi in pairs
    )
    return Cocycle(3, dense_vector(out, base.dim(3)))


# ---------------------------------------------------------------------------
# extensions of a fixed pair


class ExtensionReport(Record):
    _fields = ("dualizable", "certificate", "dual_chern", "ambiguity", "torsor_group",
               "crosscheck_group")

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

    Both groups rest on proofs, not checks.  pi* is a chain map, so it
    sends boundaries to boundaries and ``pull`` is well defined (see
    ``induced_hom``).  The torsor's denominator lies in its numerator, as
    ``subquotient`` requires: for a closed g of degree 1, the Leibniz rule
    and d(y_i) = pi*(c_i) give pi*(c_i g) = d(y_i pi*(g)), a boundary.  So
    the coordinates lambda of c_i g over the generators of H^3(B) have
    ``pull.matrix`` lambda among the relations of H^3 of the total space,
    and ``ker.gens`` spans every such lambda (``GroupHom.kernel``).
    ``tests/test_skipped_work.py`` checks both against reference tests.
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
