"""The sparse ring kernel against the dense loops it replaced.

``reference_mul`` and ``reference_validate`` are the dense implementations
``DgRingModel`` used before its ring layer worked on structure-constant
dicts: every product and differential of basis elements is a numpy object
vector of the full degree, and every differential a numpy object matrix
(``dense_diff``).  They read only the model's stored tables (``mul_basis``,
``d_columns``, ``diff_shapes``, ``basis``), never the kernel under test.

On small valid models (builtin bases and bundle total models with n <= 2),
on random single-entry corruptions of them and on every mirrored product
change of two total models, the kernel and the reference must both pass or
both raise the same ModelError text; ``mul`` must equal the reference on
random integer vectors.
"""

import functools
import itertools
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matrices import array  # noqa: E402
from tdk.errors import ModelError  # noqa: E402
from tdk.space_model import DgRingModel, builtin_space  # noqa: E402
from tdk.torus_bundle import build_bundle  # noqa: E402

# ---------------------------------------------------------------------------
# dense reference


def _zero(model, k):
    return np.zeros(model.dim(k), dtype=object) + 0


def _unit(model, k, idx):
    v = _zero(model, k)
    v[idx] = 1
    return v


def _d_matrix(model, k):
    """d_k as a numpy object matrix of the shape it was given in (or the expected one)."""
    return array(model.d_columns(k), model.diff_shapes.get(k, (model.dim(k + 1),))[0])


def dense_diff(model):
    """{k: _d_matrix(model, k)} over the degrees whose differential was given."""
    return {k: _d_matrix(model, k) for k in model.diff_shapes}


def _d(model, k, vec):
    return _d_matrix(model, k).dot(vec)


def reference_mul(model, i, u, j, v):
    k = i + j
    out = _zero(model, k)
    if k > model.D:
        return out
    for a in range(model.dim(i)):
        if u[a] == 0:
            continue
        for b in range(model.dim(j)):
            if v[b] == 0:
                continue
            for c, coeff in model.mul_basis(i, a, j, b).items():
                out[c] += u[a] * v[b] * coeff
    return out


def reference_validate(model):
    """The dense axiom loop; same order and certificates as ``validate``."""
    M = model
    mul = functools.partial(reference_mul, M)
    if M.dim(0) != 1:
        raise ModelError(f"degree-0 part has rank {M.dim(0)}, expected 1 (connected base)")
    for k, mat in dense_diff(M).items():
        if not (0 <= k <= M.D):
            raise ModelError(f"differential given in degree {k} outside 0..{M.D}")
        if mat.shape != (M.dim(k + 1), M.dim(k)):
            raise ModelError(
                f"differential in degree {k} has shape {mat.shape}, "
                f"expected {(M.dim(k + 1), M.dim(k))}"
            )
    for (i, a, j, b) in M.product:
        if not (0 <= i <= M.D and 0 <= j <= M.D and i + j <= M.D):
            raise ModelError(f"product entry for degrees ({i},{j}) out of range")
        if not (0 <= a < M.dim(i) and 0 <= b < M.dim(j)):
            raise ModelError(f"product entry ({i},{a},{j},{b}) indexes outside the basis")
    if any(x != 0 for x in _d(M, 0, _unit(M, 0, 0))):
        raise ModelError("d(unit) is nonzero")
    for k in range(M.D - 1):
        comp = _d_matrix(M, k + 1).dot(_d_matrix(M, k))
        for a in range(M.dim(k)):
            if any(x != 0 for x in comp[:, a]):
                raise ModelError(f"d(d(x)) != 0 for basis element {M.basis[k][a]!r} in degree {k}")
    for j in range(M.D + 1):
        for b in range(M.dim(j)):
            if M.mul_basis(0, 0, j, b) != {b: 1} or M.mul_basis(j, b, 0, 0) != {b: 1}:
                raise ModelError(f"unit does not act as identity on {M.basis[j][b]!r}")
    for i in range(M.D + 1):
        for j in range(i, M.D - i + 1):
            sign = -1 if (i % 2 and j % 2) else 1
            for a in range(M.dim(i)):
                for b in range(M.dim(j)):
                    left = mul(i, _unit(M, i, a), j, _unit(M, j, b))
                    right = mul(j, _unit(M, j, b), i, _unit(M, i, a))
                    if any(left[c] != sign * right[c] for c in range(M.dim(i + j))):
                        raise ModelError(
                            "graded commutativity fails on pair "
                            f"({M.basis[i][a]!r}, {M.basis[j][b]!r})"
                        )
    for i in range(M.D + 1):
        for j in range(M.D + 1 - i):
            for k in range(M.D + 1 - i - j):
                for a in range(M.dim(i)):
                    ea = _unit(M, i, a)
                    for b in range(M.dim(j)):
                        eb = _unit(M, j, b)
                        ab = mul(i, ea, j, eb)
                        for c in range(M.dim(k)):
                            ec = _unit(M, k, c)
                            lhs = mul(i + j, ab, k, ec)
                            rhs = mul(i, ea, j + k, mul(j, eb, k, ec))
                            if any(x != y for x, y in zip(lhs, rhs)):
                                raise ModelError(
                                    "associativity fails on triple "
                                    f"({M.basis[i][a]!r}, {M.basis[j][b]!r}, "
                                    f"{M.basis[k][c]!r})"
                                )
    for i in range(M.D + 1):
        for j in range(M.D - i):
            sign = -1 if i % 2 else 1
            for a in range(M.dim(i)):
                ea = _unit(M, i, a)
                da = _d(M, i, ea)
                for b in range(M.dim(j)):
                    eb = _unit(M, j, b)
                    lhs = _d(M, i + j, mul(i, ea, j, eb))
                    rhs = mul(i + 1, da, j, eb) + sign * mul(i, ea, j + 1, _d(M, j, eb))
                    if any(x != y for x, y in zip(lhs, rhs)):
                        raise ModelError(
                            f"Leibniz rule fails on pair ({M.basis[i][a]!r}, {M.basis[j][b]!r})"
                        )


def verdict(check, model):
    try:
        check(model)
    except ModelError as err:
        return str(err)
    return None


# ---------------------------------------------------------------------------
# models


def _bundle(base, params, chern):
    return build_bundle(builtin_space(base, params), chern)


MODELS = {
    "torus2": lambda: builtin_space("torus", {"k": 2}),
    "torus3": lambda: builtin_space("torus", {"k": 3}),
    "surface2": lambda: builtin_space("surface", {"genus": 2}),
    "heisenberg": lambda: builtin_space("heisenberg", {"k": 1}),
    "torus2 n=1": lambda: _bundle("torus", {"k": 2}, [[2]]),
    "torus2 n=2": lambda: _bundle("torus", {"k": 2}, [[1], [-3]]),
    "surface2 n=1": lambda: _bundle("surface", {"genus": 2}, [[3]]),
    "sphere2 n=2": lambda: _bundle("sphere", {"k": 2}, [[1], [2]]),
    "heisenberg n=1": lambda: _bundle("heisenberg", {"k": 1}, [[1, 0, 2]]),
}


@functools.cache
def model(name):
    return MODELS[name]()


def rebuild(M, diff=None, product=None):
    return DgRingModel(
        M.basis,
        dense_diff(M) if diff is None else diff,
        M.product if product is None else product,
    )


# ---------------------------------------------------------------------------
# properties


@pytest.mark.parametrize("name", sorted(MODELS))
def test_valid_models_pass_both(name):
    M = rebuild(model(name))
    assert verdict(reference_validate, M) is None
    assert verdict(DgRingModel.validate, M) is None


def _corrupt(M, draw):
    """A product coefficient, a differential entry or a dropped product key,
    changed at random; or a product coefficient changed together with its
    graded mirror, which keeps commutativity and so reaches the later axioms."""
    diff = dense_diff(M)
    product = {key: dict(entry) for key, entry in M.product.items()}
    kinds = ["product", "mirror"]
    if any(mat.size for mat in diff.values()):
        kinds.append("diff")
    if product:
        kinds.append("drop")
    kind = draw(st.sampled_from(kinds))
    delta = draw(st.sampled_from([-2, -1, 1, 2]))
    if kind == "diff":
        k = draw(st.sampled_from(sorted(k for k, mat in diff.items() if mat.size)))
        r = draw(st.integers(0, diff[k].shape[0] - 1))
        c = draw(st.integers(0, diff[k].shape[1] - 1))
        diff[k][r, c] += delta
    elif kind == "drop":
        del product[draw(st.sampled_from(sorted(product)))]
    else:
        low = 1 if kind == "mirror" else 0  # the unit has no mirror to keep
        i = draw(st.integers(low, max(low, M.D - low)))
        j = draw(st.integers(low, max(low, M.D - i)))
        if i + j > M.D or not (M.dim(i) and M.dim(j) and M.dim(i + j)):
            return None
        a = draw(st.integers(0, M.dim(i) - 1))
        b = draw(st.integers(0, M.dim(j) - 1))
        c = draw(st.integers(0, M.dim(i + j) - 1))
        sign = -1 if (i % 2 and j % 2) else 1
        keys = [(i, a, j, b)] + ([(j, b, i, a)] if kind == "mirror" else [])
        for key, step in zip(keys, (delta, sign * delta)):
            entry = dict(M.mul_basis(*key))
            entry[c] = entry.get(c, 0) + step
            product[key] = entry
    return rebuild(M, diff, product)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), data=st.data())
def test_corrupted_models_same_certificate(name, data):
    broken = _corrupt(model(name), data.draw)
    if broken is not None:
        assert verdict(DgRingModel.validate, broken) == verdict(reference_validate, broken)


def mirror_changes(M):
    """Every product coefficient changed by +-1 together with its graded
    mirror: the ``"mirror"`` kind of ``_corrupt``, exhaustively."""
    for i in range(1, M.D):
        for j in range(1, M.D - i + 1):
            sign = -1 if (i % 2 and j % 2) else 1
            for a, b, c in itertools.product(
                range(M.dim(i)), range(M.dim(j)), range(M.dim(i + j))
            ):
                for delta in (-1, 1):
                    product = {key: dict(entry) for key, entry in M.product.items()}
                    for key, step in (((i, a, j, b), delta), ((j, b, i, a), sign * delta)):
                        entry = dict(M.mul_basis(*key))
                        entry[c] = entry.get(c, 0) + step
                        product[key] = entry
                    yield rebuild(M, product=product)


def _reached_through_mirror(M, message):
    """Whether an associativity certificate names a triple (a, b, c) with
    ab = 0: validation compares (ab)c with (cb)a and finds it from (c, b, a)."""
    if not message.startswith("associativity"):
        return False
    (i, a), (j, b) = [
        next((k, level.index(label)) for k, level in enumerate(M.basis) if label in level)
        for label in re.findall(r"'([^']*)'", message)[:2]
    ]
    return not M.mul_basis(i, a, j, b)


def test_every_mirrored_change_same_certificate():
    messages = set()
    mirrored = 0
    for name in ("torus2 n=1", "sphere2 n=2"):
        for broken in mirror_changes(model(name)):
            message = verdict(reference_validate, broken)
            assert verdict(DgRingModel.validate, broken) == message
            messages.add(message.split(" fails")[0] if message else None)
            mirrored += bool(message) and _reached_through_mirror(broken, message)
    assert {"associativity", "Leibniz rule"} <= messages
    assert mirrored


def test_leibniz_witness_reached_through_mirror():
    """d(a2) = a1 y1 on a genus-2 total model: b1 a2 = 0 and d(b1) = 0, so
    only the mirror (a2, b1), where d(a2) b1 = a1 y1 b1 != 0, reaches the
    first witness."""
    M = model("surface2 n=1")
    diff = dense_diff(M)
    diff[1][M.basis[2].index("a1.y1"), M.basis[1].index("a2")] += 1
    broken = rebuild(M, diff=diff)
    message = "Leibniz rule fails on pair ('b1', 'a2')"
    assert verdict(reference_validate, broken) == message
    assert verdict(DgRingModel.validate, broken) == message


# T^2's ring with entries that have a unit factor stored, and the certificate
UNIT_ENTRIES = {
    "identity stored": ({(0, 0, 0, 0): {0: 1}, (0, 0, 1, 1): {1: 1}, (2, 0, 0, 0): {0: 1}}, None),
    "right unit wrong": ({(0, 0, 1, 1): {1: 1}, (1, 1, 0, 0): {0: 1}}, "'y'"),
    "least of two": ({(0, 0, 2, 0): {0: 2}, (1, 1, 0, 0): {}}, "'y'"),
    "unit squared": ({(0, 0, 0, 0): {0: -1}, (1, 0, 0, 0): {1: 1}}, "'1'"),
}


@pytest.mark.parametrize("name", sorted(UNIT_ENTRIES))
def test_stored_unit_entries_same_certificate(name):
    entries, element = UNIT_ENTRIES[name]
    product = {(1, 0, 1, 1): {0: 1}, (1, 1, 1, 0): {0: -1}, **entries}
    M = DgRingModel([["1"], ["x", "y"], ["v"]], {}, product)
    message = element and f"unit does not act as identity on {element}"
    assert verdict(reference_validate, M) == message
    assert verdict(DgRingModel.validate, M) == message


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), data=st.data())
def test_mul_matches_reference(name, data):
    M = model(name)
    i = data.draw(st.integers(0, M.D))
    j = data.draw(st.integers(0, M.D))
    entries = st.integers(-5, 5)
    u = data.draw(st.lists(entries, min_size=M.dim(i), max_size=M.dim(i)))
    v = data.draw(st.lists(entries, min_size=M.dim(j), max_size=M.dim(j)))
    u, v = np.array(u, dtype=object), np.array(v, dtype=object)
    got = M.mul(i, u, j, v)
    assert type(got) is list and all(type(x) is int for x in got) and len(got) == M.dim(i + j)
    assert got == reference_mul(M, i, u, j, v).tolist()
