"""JSON document schemas with arbitrary-precision-safe integer encoding.

Every integer is emitted as a decimal string; both plain JSON numbers and
decimal strings are accepted on input.  Documents round-trip byte-identically
(sorted keys, fixed separators) for identical inputs.
"""

from __future__ import annotations

import json

from .errors import SchemaError, parse_int
from .space_model import (
    DEFAULT_TRUNCATION,
    Cocycle,
    DgRingModel,
    SimplicialComplex,
    builtin_space,
    parse_space,
)
from .tduality_core import Pair, Triple
from .torus_bundle import build_bundle

__all__ = [
    "dumps",
    "space_to_doc",
    "space_from_doc",
    "pair_to_doc",
    "pair_from_doc",
    "triple_to_doc",
    "triple_from_doc",
    "onn_from_doc",
    "chern_vectors",
]


def _s(x):
    return str(int(x))


def _vec(v):
    return [_s(x) for x in v]


def _table(columns, rows):
    """Rows of decimal strings of the matrix with these sparse columns, written directly."""
    out = [["0"] * len(columns) for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            out[r][c] = _s(x)
    return out


def dumps(doc, pretty=False):
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# spaces


def space_to_doc(space):
    if isinstance(space, SimplicialComplex):
        return {
            "format": "simplicial",
            "vertices": _s(space.nvertices),
            "facets": [[_s(v) for v in f] for f in space.facets],
        }
    if isinstance(space, DgRingModel):
        builtin = space.meta.get("builtin")
        if builtin:
            return {
                "format": "builtin",
                "name": builtin["name"],
                "params": {k: _s(v) for k, v in builtin["params"].items()},
            }
        product = []
        for (i, a, j, b), table in sorted(space.product.items()):
            product.append(
                {
                    "i_deg": _s(i),
                    "i_idx": _s(a),
                    "j_deg": _s(j),
                    "j_idx": _s(b),
                    "result": [
                        {"idx": _s(c), "coeff": _s(v)}
                        for c, v in sorted(table.items())
                    ],
                }
            )
        return {
            "format": "dgring",
            "degrees": _s(space.D),
            "basis": [list(bs) for bs in space.basis],
            "diff": [
                {"deg": _s(k), "matrix": _table(space.d_columns(k), rows)}
                for k, (rows, _) in sorted(space.diff_shapes.items())
            ],
            "product": product,
        }
    raise SchemaError(f"cannot serialize {type(space).__name__}")


def space_from_doc(doc, truncation=None):
    if not isinstance(doc, dict):
        raise SchemaError("space document must be a JSON object")
    if doc.get("format") == "builtin":
        name = doc.get("name")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("builtin params must be an object")
        params = {k: parse_int(v, f"params.{k}") for k, v in params.items()}
        if truncation is None:
            truncation = DEFAULT_TRUNCATION
        return builtin_space(name, params, truncation=truncation)
    return parse_space(doc, truncation=truncation)


# ---------------------------------------------------------------------------
# pairs and triples


def _bundle_to_fields(bundle):
    return {
        "base": space_to_doc(bundle.base),
        "n": _s(bundle.n),
        "chern": [_vec(z) for z in bundle.chern],
    }


def _bundle_from_fields(doc, truncation=None):
    for key in ("base", "n", "chern"):
        if key not in doc:
            raise SchemaError(f"bundle document needs a {key!r} field")
    base = space_from_doc(doc["base"], truncation=truncation)
    if isinstance(base, SimplicialComplex):
        raise SchemaError(
            "bundles need a ring model base; run the cohomology-ring "
            "construction on the complex first"
        )
    n = parse_int(doc["n"], "n")
    chern = doc["chern"]
    if not isinstance(chern, list) or len(chern) != n:
        raise SchemaError(f"'chern' must list {n} cocycle vectors")
    return build_bundle(base, chern_vectors(chern, base, "chern"))


def chern_vectors(vectors, base, what):
    """The degree-2 cochains of ``base`` in ``vectors``; a SchemaError names ``what[i]``."""
    out = []
    for i, z in enumerate(vectors):
        if not isinstance(z, list) or len(z) != base.dim(2):
            raise SchemaError(f"{what} vector {i} must have length {base.dim(2)}")
        out.append([parse_int(x, f"{what}[{i}]") for x in z])
    return out


def _flux_from_doc(bundle, doc, key):
    flux = doc.get(key)
    if not isinstance(flux, list) or len(flux) != bundle.dim(3):
        raise SchemaError(
            f"{key!r} must be a degree-3 vector of length {bundle.dim(3)}"
        )
    return Cocycle(3, [parse_int(x, key) for x in flux])


def pair_to_doc(pair: Pair):
    doc = {"format": "pair"}
    doc.update(_bundle_to_fields(pair.bundle))
    doc["flux"] = _vec(pair.flux.vector)
    return doc


def pair_from_doc(doc, truncation=None):
    if not isinstance(doc, dict) or doc.get("format") != "pair":
        raise SchemaError("expected a document with format 'pair'")
    bundle = _bundle_from_fields(doc, truncation=truncation)
    return Pair(bundle, _flux_from_doc(bundle, doc, "flux"))


def triple_to_doc(t: Triple):
    doc = {"format": "triple"}
    doc.update(_bundle_to_fields(t.side.bundle))
    doc["flux"] = _vec(t.side.flux.vector)
    doc["chern_hat"] = [_vec(z) for z in t.dual.bundle.chern]
    doc["flux_hat"] = _vec(t.dual.flux.vector)
    doc["w"] = _vec(t.w)
    return doc


def triple_from_doc(doc, truncation=None):
    if not isinstance(doc, dict) or doc.get("format") != "triple":
        raise SchemaError("expected a document with format 'triple'")
    side_bundle = _bundle_from_fields(doc, truncation=truncation)
    base = side_bundle.base
    n = side_bundle.n
    chern_hat = doc.get("chern_hat")
    if not isinstance(chern_hat, list) or len(chern_hat) != n:
        raise SchemaError(f"'chern_hat' must list {n} cocycle vectors")
    dual_bundle = build_bundle(base, chern_vectors(chern_hat, base, "chern_hat"))
    side = Pair(side_bundle, _flux_from_doc(side_bundle, doc, "flux"))
    dual = Pair(dual_bundle, _flux_from_doc(dual_bundle, doc, "flux_hat"))
    w_doc = doc.get("w")
    t = Triple(side, dual, None)
    if not isinstance(w_doc, list) or len(w_doc) != t.doubled.dim(2):
        raise SchemaError(
            f"'w' must be a degree-2 vector of length {t.doubled.dim(2)}"
        )
    return t.with_data(w=[parse_int(x, "w") for x in w_doc])


def onn_from_doc(doc):
    from .duality_group import OnnElement

    if not isinstance(doc, dict):
        raise SchemaError("group element document must be a JSON object")
    if "n" not in doc or "matrix" not in doc:
        raise SchemaError("group element document needs 'n' and 'matrix'")
    n = parse_int(doc["n"], "n")
    mat = doc["matrix"]
    if not isinstance(mat, list) or len(mat) != 2 * n or any(
        not isinstance(r, list) or len(r) != 2 * n for r in mat
    ):
        raise SchemaError(f"'matrix' must be {2 * n} x {2 * n}")
    rows = [[parse_int(x, f"matrix[{i}]") for x in row] for i, row in enumerate(mat)]
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(2 * n)]
    return OnnElement(n, columns)
