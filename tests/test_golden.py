"""Golden CLI outputs: every report verb on the shipped fixture corpus.

Each case runs one ``tdk`` verb and compares its standard output (compact
JSON plus newline) and exit code with the files under ``tests/golden/``.
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

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CODES = os.path.join(GOLDEN, "exit_codes.json")
SIMPLICIAL = ("boundary-tetrahedron", "torus-7", "projective-plane-6")
SS_PAGES = (2, 3)


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))
    return path


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
        pair_path = _write(directory, f"{name}.pair.json", pair_to_doc(pair))
        base_path = _write(directory, f"{name}.base.json", space_to_doc(pair.bundle.base))
        chern = [[str(int(x)) for x in z] for z in pair.bundle.chern]
        chern_path = _write(directory, f"{name}.chern.json", chern)
        bundle_args = ["--base", base_path, "--chern", chern_path]
        yield f"cohomology__{name}", ["cohomology", "--base", base_path]
        yield f"bundle__{name}", ["bundle", *bundle_args]
        for r in SS_PAGES:
            yield f"ss{r}__{name}", ["ss", *bundle_args, "--page", str(r)]
        yield f"extensions__{name}", ["extensions", "--pair", pair_path]
        yield f"twisted__{name}", ["twisted", "--pair", pair_path]
        code, triple = run(["dualize", "--pair", pair_path])
        yield f"dualize__{name}", ["dualize", "--pair", pair_path]
        if code == 0:
            triple_path = _write(directory, f"{name}.triple.json", triple)
            yield f"check-triple__{name}", ["check-triple", "--triple", triple_path]
            yield f"tmap__{name}", ["tmap", "--triple", triple_path]


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
