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
Any change to an exact answer, a normal-form coordinate or the rendering
shows up here as a byte difference.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
import tempfile

import pytest

from tdk.cli import run
from tdk.fixtures import PAIR_NAMES, named_pair, simplicial_doc
from tdk.serialize import dumps, pair_to_doc, space_to_doc
from tdk.space_model import Cocycle, builtin_space
from tdk.tduality_core import Pair
from tdk.torus_bundle import build_bundle

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CODES = os.path.join(GOLDEN, "exit_codes.json")
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
    return Pair(m, Cocycle(3, sum(x * m.element_vector(*e) for e, x in flux.items())))


def total_doc(name):
    if name in EXTRA_TOTALS:
        base, params, chern = EXTRA_TOTALS[name]
        return space_to_doc(build_bundle(builtin_space(base, params), chern).total)
    return space_to_doc(named_pair(name).bundle.total)


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


def outputs():
    """{case name: (exit code, stdout text)} for the whole corpus."""
    out = {}
    with tempfile.TemporaryDirectory() as directory:
        for case, argv in cases(directory):
            code, doc = run(argv)
            out[case] = (code, dumps(doc) + "\n")
    return out


@pytest.fixture(scope="module")
def current():
    return outputs()


def test_golden_case_list_matches(current):
    with open(CODES, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert sorted(current) == sorted(expected)
    assert {case: code for case, (code, _) in current.items()} == expected


def _golden_names():
    # a missing manifest fails test_golden_case_list_matches
    if not os.path.exists(CODES):
        return []
    with open(CODES, encoding="utf-8") as handle:
        return sorted(json.load(handle))


@pytest.mark.parametrize("case", _golden_names())
def test_golden_output_byte_identical(current, case):
    with open(os.path.join(GOLDEN, f"{case}.json"), "rb") as handle:
        expected = handle.read()
    assert current[case][1].encode("utf-8") == expected


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    results = outputs()
    for case, (_, text) in results.items():
        with open(os.path.join(GOLDEN, f"{case}.json"), "wb") as handle:
            handle.write(text.encode("utf-8"))
    with open(CODES, "w", encoding="utf-8") as handle:
        json.dump({case: code for case, (code, _) in results.items()}, handle,
                  sort_keys=True, indent=1)
        handle.write("\n")
    return len(results)


if __name__ == "__main__":
    sys.exit(0 if regenerate() else 1)
