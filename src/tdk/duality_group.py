"""The integral duality group O(n,n,Z) and its action on bundle data.

Elements are 2n x 2n integer matrices preserving the split quadratic form
q(a_1..a_n, b_1..b_n) = sum_i a_i b_i on Z^{2n}.  Membership is decided by
the exact matrix criterion (bilinear part plus diagonal), never by attempted
factorization.  The action on triples is implemented for the generator
families: the flip exchanging both sides, antisymmetric shears moving the
dual chern data by B.c, and GL(n,Z) blocks substituting fiber coordinates.
General words act by composing generator actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError, UnsupportedElementError
from .exact_linalg import eye, intmat, intvec, smith_normal_form, solve, unimodular_inverse, zeros
from .space_model import Cocycle
from .tduality_core import (
    Pair,
    Triple,
    _pairing_primitive,
    _substitute_fiber,
    dualize,
    h3_action,
    torsor_difference,
)
from .torus_bundle import build_bundle

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
    v = intvec(v)
    if v.shape[0] % 2:
        raise InputError("q is defined on even-dimensional vectors")
    n = v.shape[0] // 2
    return sum(int(v[i]) * int(v[n + i]) for i in range(n))


def is_onn(g) -> bool:
    """Exact membership test: g^T A g has the bilinear part and diagonal of A.

    A is the matrix with the identity in the upper-right n x n block; two
    integer quadratic forms agree iff the symmetrizations and diagonals of
    their Gram matrices agree.
    """
    g = intmat(g)
    rows, cols = g.shape
    if rows != cols:
        raise InputError("group elements are square matrices")
    if rows % 2:
        raise InputError("group elements have even size 2n")
    n = rows // 2
    A = zeros(rows, rows)
    for i in range(n):
        A[i, n + i] = 1
    M = g.T.dot(A).dot(g)
    sym_ok = all(
        M[i, j] + M[j, i] == A[i, j] + A[j, i]
        for i in range(rows)
        for j in range(rows)
    )
    diag_ok = all(M[i, i] == 0 for i in range(rows))
    return sym_ok and diag_ok


@dataclass(frozen=True)
class OnnElement:
    """A validated member of O(n,n,Z)."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", intmat(self.matrix))
        if self.matrix.shape != (2 * self.n, 2 * self.n):
            raise InputError(
                f"matrix shape {self.matrix.shape}, expected {(2 * self.n,) * 2}"
            )
        if not is_onn(self.matrix):
            raise InputError("matrix does not preserve the split form")
        # unimodularity follows; assert it
        product = 1
        for d in smith_normal_form(self.matrix).diagonal:
            product *= d
        if product != 1:
            raise ModelError("form-preserving matrix is not unimodular")

    def compose(self, other: "OnnElement") -> "OnnElement":
        if self.n != other.n:
            raise InputError("cannot compose elements of different size")
        return OnnElement(self.n, self.matrix.dot(other.matrix))

    def blocks(self):
        n = self.n
        g = self.matrix
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]


def flip_element(n) -> OnnElement:
    g = zeros(2 * n, 2 * n)
    for i in range(n):
        g[i, n + i] = 1
        g[n + i, i] = 1
    return OnnElement(n, g)


def factor_flip_element(n, i) -> OnnElement:
    g = eye(2 * n)
    g[i, i] = 0
    g[n + i, n + i] = 0
    g[i, n + i] = 1
    g[n + i, i] = 1
    return OnnElement(n, g)


def shear_element(n, B) -> OnnElement:
    """[[I, 0], [B, I]] for antisymmetric B; sends (c, chat) to (c, chat + B c)."""
    B = intmat(B, rows=n, cols=n)
    if any(B[i, j] != -B[j, i] for i in range(n) for j in range(n)):
        raise InputError("shear block must be antisymmetric")
    g = eye(2 * n)
    for i in range(n):
        for j in range(n):
            g[n + i, j] = B[i, j]
    return OnnElement(n, g)


def gl_element(n, G) -> OnnElement:
    """diag(G, G^{-T}) for G in GL(n,Z)."""
    G = intmat(G, rows=n, cols=n)
    Ginv = unimodular_inverse(G)
    g = zeros(2 * n, 2 * n)
    g[:n, :n] = G
    g[n:, n:] = Ginv.T
    return OnnElement(n, g)


def generators(n) -> list:
    """Standard generating family: flips, antisymmetric shears, GL(n,Z) blocks."""
    if n < 1:
        raise InputError("n must be at least 1")
    gens = [flip_element(n)]
    gens += [factor_flip_element(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B = zeros(n, n)
            B[i, j] = 1
            B[j, i] = -1
            gens.append(shear_element(n, B))
    # GL(n,Z) block generators: transvection, transposition, sign flip
    if n >= 2:
        E = eye(n)
        E[0, 1] = 1
        gens.append(gl_element(n, E))
        P = zeros(n, n)
        P[0, 1] = 1
        P[1, 0] = 1
        for i in range(2, n):
            P[i, i] = 1
        gens.append(gl_element(n, P))
    S = eye(n)
    S[0, 0] = -1
    gens.append(gl_element(n, S))
    return gens


# ---------------------------------------------------------------------------
# action on chern data


def _combine(coeffs, vectors, zero):
    """zero + sum_k coeffs[k] * vectors[k], over the nonzero coefficients."""
    return sum((x * v for x, v in zip(coeffs, vectors) if x), zero)


def act_on_chern(g: OnnElement, base, c, chat):
    """Apply g to stacked chern data; the degree-4 pairing class is preserved.

    c and chat are length-n lists of degree-2 cocycle vectors on ``base``.
    """
    n = g.n
    c = [intvec(v, length=base.dim(2)) for v in c]
    chat = [intvec(v, length=base.dim(2)) for v in chat]
    if len(c) != n or len(chat) != n:
        raise InputError(f"need {n} chern cocycles on each side")
    stacked = c + chat
    out = [_combine(row, stacked, base.zero_vector(2)) for row in g.matrix]
    c_new, chat_new = out[:n], out[n:]
    # sum_i c_new_i . chat_new_i - sum_i c_i . chat_i, as one pairing
    if _pairing_primitive(base, c_new + c, chat_new + [-v for v in chat]) is None:
        raise ModelError("group action failed to preserve the pairing class")
    return c_new, chat_new


# ---------------------------------------------------------------------------
# action on triples (generator families)


def _classify(g: OnnElement):
    n = g.n
    A, C, B, D = g.blocks()  # top-left, top-right, bottom-left, bottom-right
    I = eye(n)

    def is_eq(X, Y):
        return all(X[i, j] == Y[i, j] for i in range(n) for j in range(n))

    def is_zero(X):
        return all(x == 0 for x in X.flat)

    if is_zero(A) and is_zero(D) and is_eq(B, I) and is_eq(C, I):
        return ("flip",)
    if is_eq(A, I) and is_eq(D, I) and is_zero(C):
        return ("shear", B)
    if is_zero(B) and is_zero(C):
        return ("gl", A)
    return None


def _flux_base_part(t: Triple):
    """beta with z ~ sum_i zhat_i y_i + pi*(beta); needs a valid triple."""
    m = t.side.bundle
    lead = m.normal_form_vector(t.dual.bundle.chern)
    block = np.hstack([m.pullback_matrix(3), m.d_matrix(2)])
    sol = solve(block, t.side.flux.vector - lead)
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
    n = t.n
    flipped = Triple(t.dual, t.side)
    images = []
    for i in range(2 * n):
        new_index = (i + n) % (2 * n)
        images.append(flipped.doubled.element_vector(0, 0, (new_index,)))
    w_new = -_substitute_fiber(t.doubled, flipped.doubled, t.w, 2, images)
    return flipped.with_data(w=w_new)


def _act_shear(t: Triple, B) -> Triple:
    base = t.base
    m = t.side.bundle
    beta = _flux_base_part(t)
    zhat = list(t.dual.bundle.chern)

    # canonical triple carrying the same side pair and the same dual bundle
    base_pair = Pair(m, Cocycle(3, m.normal_form_vector(zhat, beta)))
    t0 = dualize(base_pair, choice={"chern_hat": zhat, "beta": beta})
    delta = torsor_difference(t, t0)

    shift = [_combine(row, m.chern, base.zero_vector(2)) for row in B]
    zhat_new = [zh + sh for zh, sh in zip(zhat, shift)]
    sheared = dualize(
        Pair(m, Cocycle(3, m.normal_form_vector(zhat_new, beta))),
        choice={"chern_hat": zhat_new, "beta": beta},
    )
    return h3_action(sheared, delta)


def _act_gl(t: Triple, G) -> Triple:
    base = t.base
    n = t.n
    Ginv = unimodular_inverse(G)
    chern_new = [_combine(row, t.side.bundle.chern, base.zero_vector(2)) for row in G]
    chern_hat_new = [_combine(row, t.dual.bundle.chern, base.zero_vector(2)) for row in Ginv.T]

    side_new = build_bundle(base, chern_new)
    dual_new = build_bundle(base, chern_hat_new)

    # old fiber generators in the new coordinates: y = G^{-1} y', yh = G^T yh'
    def images(m, rows, shift=0):
        gens = [m.element_vector(0, 0, (i + shift,)) for i in range(n)]
        return [_combine(row, gens, m.zero_vector(1)) for row in rows]

    side_images = images(side_new, Ginv)
    dual_images = images(dual_new, G.T)

    z_new = _substitute_fiber(
        t.side.bundle, side_new, t.side.flux.vector, 3, side_images
    )
    zh_new = _substitute_fiber(
        t.dual.bundle, dual_new, t.dual.flux.vector, 3, dual_images
    )

    out = Triple(
        Pair(side_new, Cocycle(3, z_new)), Pair(dual_new, Cocycle(3, zh_new))
    )
    doubled_images = images(out.doubled, Ginv) + images(out.doubled, G.T, n)
    w_new = _substitute_fiber(t.doubled, out.doubled, t.w, 2, doubled_images)
    return out.with_data(w=w_new)
