"""Golden CLI outputs: every report verb on the shipped fixture corpus.

Each case runs one ``tdk`` verb and compares its standard output (compact
JSON plus newline) and exit code with the files under ``tests/golden/``.
Besides the fixture pairs, two larger bundles with nonzero page-2
differentials (a Heisenberg and a genus-3 surface base, n = 2) pin the
spectral-sequence pages and the filtration step of a flux.  The corpus also
reads the total models of three fixture bundles as untrusted ``dgring``
documents, intact and with one axiom broken per document, so every
first-failure certificate of model validation is pinned too, and the
cohomology of two triangulated grids, a Klein bottle (H^2 = Z/2) and a torus.
The ``t3_vol`` pair is read once more with its T^2 base as a ``dgring``
document, not a builtin, through ``dualize``, ``check-triple`` and ``tmap``;
``tmap`` on that triple with w zeroed pins the refusal that names the failed
triple conditions.  The exit codes of these cases are listed in a manifest of
their own, ``exit_codes_parsed_base.json``.  One ``tmap`` case reads a
triple whose w is not the standard one, the ``gauge_action`` image of the
``t3_vol_k2`` dual by psi = x1 and psihat = x2, so the transform's exp(-w)
path is pinned too.
Any change to an exact answer, a normal-form coordinate or the rendering
shows up here as a byte difference.

``ring_models.json`` beside the corpus pins the structure of the derived ring
models: the basis, differential columns, shapes, structure constants and
metadata of ``cohomology_ring`` on the fixture complexes, two grids and
RP^2 x S^1, of the Heisenberg builtin over a ladder of truncations, and of
three ``product_model`` products.

Regenerate every file with

    PYTHONPATH=src python tests/test_golden.py

only when a change to an output or a model is intended, and say which in
the change's description; never to make a failing case pass.
"""

import json
import os
import sys
import tempfile

import pytest

from tdk.cli import run
from tdk.fixtures import PAIR_NAMES, PROJECTIVE_PLANE_6, named_pair, simplicial_doc
from tdk.serialize import dumps, pair_to_doc, space_to_doc, triple_to_doc
from tdk.space_model import (
    Cocycle, DgRingModel, SimplicialComplex, builtin_space, cohomology_ring, parse_space,
    product_model,
)
from tdk.tduality_core import Pair, dualize, gauge_action
from tdk.torus_bundle import build_bundle

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CODES = os.path.join(GOLDEN, "exit_codes.json")
PARSED_CODES = os.path.join(GOLDEN, "exit_codes_parsed_base.json")
RING_MODELS = os.path.join(GOLDEN, "ring_models.json")
SIMPLICIAL = ("boundary-tetrahedron", "torus-7", "projective-plane-6")
SS_PAGES = (2, 3)
DGRING_PAIRS = ("hopf", "lens2_k1", "t3_trivial")
GRIDS = (("klein", 3), ("torus", 4))


def grid_doc(kind, m):
    """The m x m grid, each square cut along its diagonal, as a simplicial
    document (m >= 3 and prime to 7).  Opposite sides are glued, the first
    pair with a flip of the second coordinate when ``kind`` is "klein".
    Vertex (i, j) gets the label 7 (i m + j) + 3 mod m^2, so labels do not
    follow the grid order."""

    def vertex(i, j):
        if i == m:
            i, j = 0, (-j if kind == "klein" else j)
        return (7 * ((i % m) * m + j % m) + 3) % (m * m)

    facets = []
    for i in range(m):
        for j in range(m):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [[a, b, d], [a, c, d]]
    return {"format": "simplicial", "vertices": str(m * m), "facets": facets}


def _degree(doc, label):
    return next(k for k, level in enumerate(doc["basis"]) if label in level)


def _set_diff(doc, row, col, value):
    """Entry (row label, column label) of the differential out of col's degree."""
    k = _degree(doc, col)
    entry = next(e for e in doc["diff"] if e["deg"] == str(k))
    entry["matrix"][doc["basis"][k + 1].index(row)][doc["basis"][k].index(col)] = str(value)


def _set_product(doc, left, right, result):
    """Make left * right the combination {label: coeff}, replacing any entry."""
    i, j = _degree(doc, left), _degree(doc, right)
    a, b = doc["basis"][i].index(left), doc["basis"][j].index(right)
    key = (str(i), str(a), str(j), str(b))
    doc["product"] = [
        e for e in doc["product"]
        if (e["i_deg"], e["i_idx"], e["j_deg"], e["j_idx"]) != key
    ]
    level = doc["basis"][i + j]
    doc["product"].append({
        "i_deg": key[0], "i_idx": key[1], "j_deg": key[2], "j_idx": key[3],
        "result": [{"idx": str(level.index(c)), "coeff": str(v)} for c, v in result.items()],
    })


def _broken_shape(doc):
    """The first row of d_1 gets an extra column."""
    next(e for e in doc["diff"] if e["deg"] == "1")["matrix"][0].append("0")


def _broken_range(doc):
    """A product entry names basis element 9 of degree 1."""
    doc["product"].append({"i_deg": "1", "i_idx": "9", "j_deg": "1", "j_idx": "0", "result": []})


# one document per failure kind: (kind, fixture pair, edit of its total model)
DGRING_CORRUPTIONS = (
    ("shape", "hopf", _broken_shape),
    ("range", "hopf", _broken_range),
    ("d_unit", "lens2_k1", lambda doc: _set_diff(doc, "y1", "1", 1)),
    ("d_squared", "hopf", lambda doc: _set_diff(doc, "v2.y1", "v2", 1)),
    ("unit", "hopf", lambda doc: _set_product(doc, "1", "y1", {"y1": 2})),
    ("commutativity", "t3_trivial", lambda doc: _set_product(doc, "x1", "x2", {"x1x2": 2})),
    ("associativity", "t3_trivial", lambda doc: (
        _set_product(doc, "x1x2", "x3", {"x1x2x3": 2}),
        _set_product(doc, "x3", "x1x2", {"x1x2x3": 2}),
    )),
    ("leibniz", "t3_trivial", lambda doc: _set_diff(doc, "x1x3", "x3", 1)),
    # y1 y1 = 0, so (y1 y1) x1 = 0 while y1 (y1 x1) = y1 x1x2 != 0: validation
    # reaches this first witness only through its mirror (x1, y1, y1)
    ("associativity_mirror", "t3_trivial", lambda doc: (
        _set_product(doc, "y1", "x1", {"x1.y1": -1, "x1x2": 1}),
        _set_product(doc, "x1", "y1", {"x1.y1": 1, "x1x2": -1}),
    )),
    # d(a2) = a1 y1: b1 a2 = 0 and d(b1) = 0, but d(a2) b1 = a1 y1 b1 != 0, so
    # the first witness (b1, a2) is reached only through its mirror (a2, b1)
    ("leibniz_mirror", "surface2_c1", lambda doc: _set_diff(doc, "a1.y1", "a2", 1)),
)

# total models read as documents besides the fixture pairs': (base, params, chern)
EXTRA_TOTALS = {"surface2_c1": ("surface", {"genus": 2}, [[1]])}


# pairs besides the fixtures' for the spectral-sequence verbs:
# (base, params, chern, flux as {(base degree, base index, fiber monomial): coeff})
EXTRA_PAIRS = {
    "heisenberg1_n2": ("heisenberg", {"k": 1}, [[0, 1, 0], [0, 0, 1]],
                       {(2, 1, (1,)): 1, (3, 0, ()): 1}),
    "surface3_n2": ("surface", {"genus": 3}, [[1], [2]],
                    {(1, 0, (0, 1)): 1, (2, 0, (1,)): 1}),
}


def extra_pair(name):
    base, params, chern, flux = EXTRA_PAIRS[name]
    m = build_bundle(builtin_space(base, params), chern)
    vec = m.zero_vector(3)
    for e, x in flux.items():
        vec[m.index[3][e]] += x
    return Pair(m, Cocycle(3, vec))


def total_doc(name):
    if name in EXTRA_TOTALS:
        base, params, chern = EXTRA_TOTALS[name]
        return space_to_doc(build_bundle(builtin_space(base, params), chern))
    return space_to_doc(named_pair(name).bundle)


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))
    return path


def _pair_files(directory, name, pair):
    """Write the pair, its base and its chern cocycles; return the pair path,
    the base path and the ``--base``/``--chern`` arguments."""
    pair_path = _write(directory, f"{name}.pair.json", pair_to_doc(pair))
    base_path = _write(directory, f"{name}.base.json", space_to_doc(pair.bundle.base))
    chern = [[str(int(x)) for x in z] for z in pair.bundle.chern]
    chern_path = _write(directory, f"{name}.chern.json", chern)
    return pair_path, base_path, ["--base", base_path, "--chern", chern_path]


def gauge_triple():
    """The dual of ``t3_vol_k2`` moved by the gauge action of psi = x1 and psihat = x2."""
    t = dualize(named_pair("t3_vol_k2"))
    x1, x2 = (t.base.basis_vector(1, i) for i in range(2))
    return gauge_action(t, [x1], [x2])


def test_the_gauge_case_reads_a_w_other_than_the_standard_one():
    t = gauge_triple()
    assert t.w != t.standard_w()


def cases(directory):
    """Yield (case name, argv) in a fixed order, writing input files on the way.

    ``dualize`` output feeds ``check-triple`` and ``tmap``, so the triple
    documents come from the program under test, as on the command line.
    """
    for name in SIMPLICIAL:
        path = _write(directory, f"{name}.json", simplicial_doc(name))
        yield f"cohomology__{name}", ["cohomology", "--base", path]
    for name in PAIR_NAMES:
        pair = named_pair(name)
        pair_path, base_path, bundle_args = _pair_files(directory, name, pair)
        yield f"cohomology__{name}", ["cohomology", "--base", base_path]
        yield f"bundle__{name}", ["bundle", *bundle_args]
        for r in SS_PAGES:
            yield f"ss{r}__{name}", ["ss", *bundle_args, "--page", str(r)]
        yield f"dualizable__{name}", ["dualizable", "--pair", pair_path]
        yield f"extensions__{name}", ["extensions", "--pair", pair_path]
        yield f"twisted__{name}", ["twisted", "--pair", pair_path]
        code, triple = run(["dualize", "--pair", pair_path])
        yield f"dualize__{name}", ["dualize", "--pair", pair_path]
        if code == 0:
            triple_path = _write(directory, f"{name}.triple.json", triple)
            yield f"check-triple__{name}", ["check-triple", "--triple", triple_path]
            yield f"tmap__{name}", ["tmap", "--triple", triple_path]
    gauge_path = _write(directory, "t3_vol_k2.gauge.triple.json", triple_to_doc(gauge_triple()))
    yield "tmap__t3_vol_k2_gauge", ["tmap", "--triple", gauge_path]
    for name in EXTRA_PAIRS:
        pair_path, _, bundle_args = _pair_files(directory, name, extra_pair(name))
        for r in SS_PAGES:
            yield f"ss{r}__{name}", ["ss", *bundle_args, "--page", str(r)]
        yield f"dualizable__{name}", ["dualizable", "--pair", pair_path]
    for kind, m in GRIDS:
        path = _write(directory, f"{kind}{m}.json", grid_doc(kind, m))
        yield f"cohomology__{kind}_grid_{m}", ["cohomology", "--base", path]
    for name in DGRING_PAIRS:
        path = _write(directory, f"{name}.total.json", total_doc(name))
        yield f"cohomology__{name}_total", ["cohomology", "--base", path]
    for kind, name, edit in DGRING_CORRUPTIONS:
        doc = total_doc(name)
        edit(doc)
        path = _write(directory, f"{name}.total.{kind}.json", doc)
        yield f"cohomology__{name}_total_{kind}", ["cohomology", "--base", path]


def dgring_doc(model):
    """A ring model as a ``dgring`` document, also when it is a builtin."""
    plain = DgRingModel(model.basis, {k: model.d_columns(k) for k in range(model.D)},
                        model.product)
    return space_to_doc(plain)


def parsed_base_cases(directory):
    """Yield (case name, argv) for the ``t3_vol`` pair on its base read as a ``dgring`` document."""
    pair = named_pair("t3_vol")
    doc = pair_to_doc(pair)
    doc["base"] = dgring_doc(pair.base)
    pair_path = _write(directory, "t3_vol.dgring_base.pair.json", doc)
    _, triple = run(["dualize", "--pair", pair_path])
    triple_path = _write(directory, "t3_vol.dgring_base.triple.json", triple)
    yield "dualize__t3_vol_dgring_base", ["dualize", "--pair", pair_path]
    yield "check-triple__t3_vol_dgring_base", ["check-triple", "--triple", triple_path]
    yield "tmap__t3_vol_dgring_base", ["tmap", "--triple", triple_path]
    triple["w"] = ["0"] * len(triple["w"])
    zero_w_path = _write(directory, "t3_vol.dgring_base.zero_w.triple.json", triple)
    yield "tmap__t3_vol_dgring_base_zero_w", ["tmap", "--triple", zero_w_path]


# each manifest of exit codes and the cases it lists
MANIFESTS = ((CODES, cases), (PARSED_CODES, parsed_base_cases))


def outputs():
    """{manifest: {case name: (exit code, stdout text)}} for the whole corpus."""
    out = {}
    with tempfile.TemporaryDirectory() as directory:
        for manifest, generate in MANIFESTS:
            results = out[manifest] = {}
            for case, argv in generate(directory):
                code, doc = run(argv)
                results[case] = (code, dumps(doc) + "\n")
    return out


@pytest.fixture(scope="module")
def current():
    return outputs()


def test_golden_case_list_matches(current):
    for manifest, results in current.items():
        with open(manifest, encoding="utf-8") as handle:
            expected = json.load(handle)
        assert sorted(results) == sorted(expected)
        assert {case: code for case, (code, _) in results.items()} == expected


def _golden_names():
    # a missing manifest fails test_golden_case_list_matches
    names = []
    for manifest, _ in MANIFESTS:
        if os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as handle:
                names += json.load(handle)
    return sorted(names)


@pytest.mark.parametrize("case", _golden_names())
def test_golden_output_byte_identical(current, case):
    with open(os.path.join(GOLDEN, f"{case}.json"), "rb") as handle:
        expected = handle.read()
    text = next(results[case][1] for results in current.values() if case in results)
    assert text.encode("utf-8") == expected


# ---------------------------------------------------------------------------
# derived ring models


def rp2_times_circle():
    """RP^2 x S^1 as the staircase product of the 6-vertex RP^2 and a 3-vertex circle.

    Vertex (v, c) is 3 v + c.  The prism over a triangle a < b < c and an
    edge p < q is cut into three 3-simplices, one per monotone path from
    (a, p) to (c, q).  H^2 = H^3 = Z/2, and the ring model has the product
    s2_0 . e1_0 = s3_0 of a torsion killer with a free class.
    """
    facets = [
        [3 * v + p for v in tri[: turn + 1]] + [3 * v + q for v in tri[turn:]]
        for tri in PROJECTIVE_PLANE_6
        for p, q in ((0, 1), (1, 2), (0, 2))
        for turn in range(3)
    ]
    return SimplicialComplex(18, facets)


def ring_models():
    """{case name: model} for every model pinned in ``ring_models.json``."""
    models = {}
    for name in SIMPLICIAL:
        models[f"ring__{name}"] = cohomology_ring(parse_space(simplicial_doc(name)))
    for kind in ("torus", "klein"):
        models[f"ring__{kind}_grid_3"] = cohomology_ring(parse_space(grid_doc(kind, 3)))
    K = rp2_times_circle()
    for truncation in (1, 2, 3):
        models[f"ring__rp2_x_s1_t{truncation}"] = cohomology_ring(K, truncation)
    for k in (0, 1, 3):
        for truncation in range(1, 5):
            model = builtin_space("heisenberg", {"k": k}, truncation)
            models[f"heisenberg{k}_t{truncation}"] = model
    for (a, pa), (b, pb) in (
        (("sphere", {"k": 2}), ("sphere", {"k": 1})),
        (("torus", {"k": 2}), ("torus", {"k": 2})),
        (("torus", {"k": 2}), ("heisenberg", {"k": 1})),
    ):
        name = f"product__{a}{next(iter(pa.values()))}_x_{b}{next(iter(pb.values()))}"
        models[name] = product_model(builtin_space(a, pa), builtin_space(b, pb))
    return models


def ring_record(model):
    """The structure of a model as JSON data: basis, differential, products, metadata."""
    record = {
        "basis": model.basis,
        "d_columns": [
            [sorted(col.items()) for col in model.d_columns(k)] for k in range(model.D + 1)
        ],
        "diff_shapes": sorted(model.diff_shapes.items()),
        "product": [[*key, sorted(terms.items())] for key, terms in sorted(model.product.items())],
        "meta": model.meta,
    }
    return json.loads(json.dumps(record))


def ring_records_text():
    """``ring_models.json`` as it should read: one line per case, sorted."""
    records = {name: ring_record(model) for name, model in ring_models().items()}
    lines = [
        f"{json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}" for name in sorted(records)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_ring_models_match_golden():
    with open(RING_MODELS, encoding="utf-8") as handle:
        expected = json.load(handle)
    current = {name: ring_record(model) for name, model in ring_models().items()}
    assert sorted(current) == sorted(expected)
    for name in sorted(current):
        assert current[name] == expected[name], name


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    with open(RING_MODELS, "w", encoding="utf-8") as handle:
        handle.write(ring_records_text())
    count = 0
    for manifest, results in outputs().items():
        for case, (_, text) in results.items():
            with open(os.path.join(GOLDEN, f"{case}.json"), "wb") as handle:
                handle.write(text.encode("utf-8"))
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump({case: code for case, (code, _) in results.items()}, handle,
                      sort_keys=True, indent=1)
            handle.write("\n")
        count += len(results)
    return count


if __name__ == "__main__":
    sys.exit(0 if regenerate() else 1)
