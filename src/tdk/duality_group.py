"""The integral duality group O(n,n,Z) and its action on bundle data.

Elements are 2n x 2n integer matrices, given by their sparse columns like
every matrix of ``tdk``, preserving the split quadratic form
q(a_1..a_n, b_1..b_n) = sum_i a_i b_i on Z^{2n}.  Membership is decided by
the exact matrix criterion (bilinear part plus diagonal), never by attempted
factorization.  The action on triples is implemented for the generator
families: the flip exchanging both sides, antisymmetric shears moving the
dual chern data by B.c, and GL(n,Z) blocks substituting fiber coordinates.
General words act by composing generator actions.
"""

from __future__ import annotations

from .errors import FrozenRecord, InputError, UnsupportedElementError
from .exact_linalg import (
    _sum_terms,
    compose,
    dense_vector,
    identity,
    int_vector,
    solve,
    transpose,
    unimodular_inverse,
)
from .space_model import Cocycle, _terms
from .tduality_core import (
    Pair,
    Triple,
    _canonical_triple,
    _substitute_fiber,
    _torsor_class,
)
from .torus_bundle import BundleModel, build_bundle

__all__ = [
    "OnnElement",
    "is_onn",
    "q_value",
    "generators",
    "flip_element",
    "shear_element",
    "gl_element",
    "act_on_chern",
    "act_on_triple",
]


def q_value(v):
    """The split form q(sum a_i e_i + b_i ehat_i) = sum a_i b_i."""
    v = int_vector(v)
    if len(v) % 2:
        raise InputError("q is defined on even-dimensional vectors")
    n = len(v) // 2
    return sum(v[i] * v[n + i] for i in range(n))


def _columns(g):
    """The columns of a square matrix g, without stored zeros; InputError unless square."""
    g = [{r: x for r, x in col.items() if x} for col in g]
    if any(not 0 <= r < len(g) for col in g for r in col):
        raise InputError("group elements are square matrices")
    return g


def is_onn(g) -> bool:
    """Exact membership test for the matrix with columns g.

    g is a member iff g^T A g has the bilinear part and diagonal of A.

    A is the matrix with the identity in the upper-right n x n block; two
    integer quadratic forms agree iff the symmetrizations and diagonals of
    their Gram matrices agree.  Entry (i, j) of g^T A g is the pairing
    sum_{k < n} g_ki g_(n+k)j of columns i and j.
    """
    g = _columns(g)
    size = len(g)
    if size % 2:
        raise InputError("group elements have even size 2n")
    n = size // 2

    def M(i, j):
        return sum(x * g[j].get(n + k, 0) for k, x in g[i].items() if k < n)

    sym_ok = all(
        M(i, j) + M(j, i) == (1 if abs(i - j) == n else 0)
        for i in range(size)
        for j in range(size)
    )
    diag_ok = all(M(i, i) == 0 for i in range(size))
    return sym_ok and diag_ok


class OnnElement(FrozenRecord):
    """A validated member of O(n,n,Z); ``matrix`` is its list of 2n sparse columns.

    It is unimodular without a check: ``is_onn`` proves g^T H g = H for the
    split form H, and det H = +-1, so det(g)^2 = 1.
    """

    _fields = ("n", "matrix")

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"n is {self.n}, expected a nonnegative integer")
        object.__setattr__(self, "matrix", _columns(self.matrix))
        if len(self.matrix) != 2 * self.n:
            raise InputError(
                f"matrix of size {len(self.matrix)}, expected {2 * self.n}"
            )
        if not is_onn(self.matrix):
            raise InputError("matrix does not preserve the split form")

    def compose(self, other: "OnnElement") -> "OnnElement":
        if self.n != other.n:
            raise InputError("cannot compose elements of different size")
        return OnnElement(self.n, compose(self.matrix, other.matrix))

    def blocks(self):
        """The n x n blocks (top-left, top-right, bottom-left, bottom-right), as columns."""
        n = self.n

        def block(cols, low):
            return [{r - low: x for r, x in col.items() if low <= r < low + n} for col in cols]

        left, right = self.matrix[:n], self.matrix[n:]
        return block(left, 0), block(right, 0), block(left, n), block(right, n)


def flip_element(n) -> OnnElement:
    return OnnElement(n, [{n + i: 1} for i in range(n)] + [{i: 1} for i in range(n)])


def factor_flip_element(n, i) -> OnnElement:
    g = identity(2 * n)
    g[i], g[n + i] = {n + i: 1}, {i: 1}
    return OnnElement(n, g)


def shear_element(n, B) -> OnnElement:
    """[[I, 0], [B, I]] for antisymmetric B (columns); sends (c, chat) to (c, chat + B c)."""
    B = [{r: x for r, x in col.items() if x} for col in B]
    if len(B) != n or transpose(B, n) != [{r: -x for r, x in col.items()} for col in B]:
        raise InputError("shear block must be antisymmetric")
    return OnnElement(n, [{j: 1, **{n + r: x for r, x in col.items()}} for j, col in enumerate(B)]
                      + identity(2 * n)[n:])


def gl_element(n, G) -> OnnElement:
    """diag(G, G^{-T}) for G in GL(n,Z), given as columns."""
    Ginv_T = transpose(unimodular_inverse(G), n)
    return OnnElement(n, list(G) + [{n + r: x for r, x in col.items()} for col in Ginv_T])


def generators(n) -> list:
    """Standard generating family: flips, antisymmetric shears, GL(n,Z) blocks."""
    if n < 1:
        raise InputError("n must be at least 1")
    gens = [flip_element(n)]
    gens += [factor_flip_element(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B = [{} for _ in range(n)]
            B[j][i] = 1
            B[i][j] = -1
            gens.append(shear_element(n, B))
    # GL(n,Z) block generators: transvection, transposition, sign flip
    if n >= 2:
        E = identity(n)
        E[1] = {0: 1, 1: 1}
        gens.append(gl_element(n, E))
        P = identity(n)
        P[0], P[1] = {1: 1}, {0: 1}
        gens.append(gl_element(n, P))
    S = identity(n)
    S[0] = {0: -1}
    gens.append(gl_element(n, S))
    return gens


# ---------------------------------------------------------------------------
# action on chern data


def _combine(rows, vectors, length):
    """[sum_j M_ij vectors[j] for each row i of M], for M given by its rows as sparse dicts."""
    vectors = [_terms(v, length) for v in vectors]
    return [dense_vector(_sum_terms((x, vectors[j]) for j, x in row.items()), length)
            for row in rows]


def act_on_chern(g: OnnElement, base, c, chat):
    """Apply g to stacked chern data; the degree-4 pairing is preserved.

    c and chat are length-n lists of degree-2 cocycle vectors on ``base``;
    a vector of another length, or one that is not closed, is an
    InputError, as it is for ``ChernVector``.  The pairing is kept as a
    cochain, not only in H^4, so nothing is solved.
    With v = c + chat and v' = g v, sum_i c'_i . chat'_i is
    sum_{j,k} M_jk v_j . v_k, where M = g^T A g is the matrix of ``is_onn``.
    ``is_onn`` proves M_jj = 0 and M_jk + M_kj = [|j - k| = n], and degree-2
    cochains of the graded-commutative base commute, v_j . v_k = v_k . v_j.
    So the sum is sum_{j < k} (M_jk + M_kj) v_j . v_k = sum_i c_i . chat_i.
    """
    n = g.n
    c = [int_vector(v, "c") for v in c]
    chat = [int_vector(v, "chat") for v in chat]
    if len(c) != n or len(chat) != n:
        raise InputError(f"need {n} chern cocycles on each side")
    length = base.dim(2)
    for name, side in (("c", c), ("chat", chat)):
        for i, v in enumerate(side):
            if len(v) != length:
                raise InputError(f"{name} cocycle {i} has length {len(v)}, expected {length}")
            if not base.is_closed(2, v):
                raise InputError(f"{name} cocycle {i} is not closed")
    out = _combine(transpose(g.matrix, 2 * n), c + chat, length)
    return out[:n], out[n:]


# ---------------------------------------------------------------------------
# action on triples (generator families)


def _classify(g: OnnElement):
    n = g.n
    A, C, B, D = g.blocks()  # top-left, top-right, bottom-left, bottom-right
    I = identity(n)
    # a block is zero iff none of its columns has an entry
    if not any(A) and not any(D) and B == I and C == I:
        return ("flip",)
    if A == I and D == I and not any(C):
        return ("shear", B)
    if not any(B) and not any(C):
        return ("gl", A)
    return None


def _flux_base_part(t: Triple):
    """beta with z ~ sum_i zhat_i y_i + pi*(beta); needs a valid triple."""
    m = t.side.bundle
    lead = m.normal_form_vector(t.dual.bundle.chern)
    rest = [x - y for x, y in zip(t.side.flux.vector, lead)]
    sol = solve(m.pullback_matrix(3) + m.d_columns(2), rest)
    if sol is None:
        raise InputError("triple flux does not have the required leading part")
    return sol[: t.base.dim(3)]


def act_on_triple(g: OnnElement, t: Triple) -> Triple:
    """Act by a generator-family element; the result passes validation.

    Supported: the flip (sides exchanged, w transposed), antisymmetric shears
    (dual chern moved by B.c), and GL(n,Z) blocks (fiber substitution).  Any
    other element raises; compose generator actions instead.
    """
    if g.n != t.n:
        raise InputError("group element size does not match the fiber dimension")
    kind = _classify(g)
    if kind is None:
        raise UnsupportedElementError(
            "only flip, shear, and GL-block generators act directly; "
            "decompose general words and compose the actions"
        )
    if kind[0] == "flip":
        return _act_flip(t)
    if kind[0] == "shear":
        return _act_shear(t, kind[1])
    return _act_gl(t, kind[1])


def _act_flip(t: Triple) -> Triple:
    """The sides exchanged and w carried to the new doubled model, negated.

    The two pairs are t's, so they share a base and a fiber dimension, and
    ``doubled`` is their doubled model in the new order: the triple is
    built through the proven door.
    """
    n = t.n
    doubled = BundleModel.doubled(t.dual.bundle, t.side.bundle)
    images = [doubled.element_vector(0, 0, ((i + n) % (2 * n),)) for i in range(2 * n)]
    w_new = _substitute_fiber(t.doubled, doubled, t.w, 2, images)
    return Triple._proven(t.dual, t.side, [-x for x in w_new], doubled)


def _act_shear(t: Triple, B) -> Triple:
    """The canonical triple with dual chern zhat + B c, moved by the torsor class of t.

    t's flux is sum_i zhat_i . y_i + beta plus a coboundary
    (:func:`_flux_base_part`), so that normal form is closed, and zhat and
    beta meet the precondition of :func:`_canonical_triple`.  t is t0 + delta
    for the canonical triple t0 of (zhat, beta).  t0's data are written on
    t's own models, where :func:`_torsor_class` reads them, so t0 is never
    built.  The result, t0's shear (the canonical triple of
    (zhat + B c, beta)) moved by delta, is the canonical triple of
    (zhat + B c, beta + delta): ``h3_action`` adds pi*(delta) to the base
    part of either flux and leaves w.  So one triple is built.
    """
    m = t.side.bundle
    beta = _flux_base_part(t)
    zhat = list(t.dual.bundle.chern)
    t0_fluxes = m.normal_form_vector(zhat, beta), t.dual.bundle.normal_form_vector(m.chern, beta)
    delta = _torsor_class(t, *t0_fluxes, t.standard_w())
    shift = _combine(transpose(B, t.n), m.chern, t.base.dim(2))
    zhat_new = [[x + y for x, y in zip(zh, sh)] for zh, sh in zip(zhat, shift)]
    return _canonical_triple(m, zhat_new, [x + y for x, y in zip(beta, delta.vector)])


def _act_gl(t: Triple, G) -> Triple:
    """The fiber coordinates substituted by G: y = G^{-1} y' and yh = G^T yh'.

    The new chern cocycles are c' = G c and chat' = G^{-T} chat, so
    d(sum_k (G^{-1})_ik y'_k) = sum_k (G^{-1})_ik c'_k = c_i = d(y_i), and
    likewise d(sum_k G_ki yh'_k) = chat_i.  Each substitution is then a ring
    map that commutes with d (see ``gauge_action``): it sends the closed
    fluxes of t to closed fluxes, so both pairs and the triple, on the
    doubled model of the two new bundles, are built through the proven doors.
    """
    base = t.base
    n = t.n
    Ginv = unimodular_inverse(G)
    # the rows of G^T are the columns of G, and those of G^{-T} the columns of G^{-1}
    G_rows, Ginv_rows = transpose(G, n), transpose(Ginv, n)
    chern_new = _combine(G_rows, t.side.bundle.chern, base.dim(2))
    chern_hat_new = _combine(Ginv, t.dual.bundle.chern, base.dim(2))

    side_new = build_bundle(base, chern_new)
    dual_new = build_bundle(base, chern_hat_new)
    doubled = BundleModel.doubled(side_new, dual_new)

    # old fiber generators in the new coordinates: y = G^{-1} y', yh = G^T yh'
    def images(m, rows, shift=0):
        gens = [m.element_vector(0, 0, (i + shift,)) for i in range(n)]
        return _combine(rows, gens, m.dim(1))

    z_new = _substitute_fiber(
        t.side.bundle, side_new, t.side.flux.vector, 3, images(side_new, Ginv_rows)
    )
    zh_new = _substitute_fiber(
        t.dual.bundle, dual_new, t.dual.flux.vector, 3, images(dual_new, G)
    )
    doubled_images = images(doubled, Ginv_rows) + images(doubled, G, n)
    w_new = _substitute_fiber(t.doubled, doubled, t.w, 2, doubled_images)
    side = Pair._proven(side_new, Cocycle(3, z_new))
    return Triple._proven(side, Pair._proven(dual_new, Cocycle(3, zh_new)), w_new, doubled)
