"""Command-line driver: exit codes, determinism, robustness on fuzzed input."""

import json
import random

import pytest

from tdk.cli import _build_parser, run
from tdk.exact_linalg import GroupHom
from tdk.fixtures import named_pair, simplicial_doc
from tdk.selftest import CHECKS
from tdk.space_model import parse_space
from tdk.serialize import (
    dumps, pair_to_doc, triple_to_doc, pair_from_doc, triple_from_doc, space_to_doc,
)
from tdk.tduality_core import dualize
from tdk.torus_bundle import BundleModel


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def pair_file(tmp_path, name):
    return write(tmp_path, f"{name}.json", dumps(pair_to_doc(named_pair(name))))


# ---------------------------------------------------------------------------
# round trips


def test_pair_roundtrip_deterministic():
    pair = named_pair("hopf_k2")
    doc = pair_to_doc(pair)
    text1 = dumps(doc)
    again = pair_from_doc(json.loads(text1))
    text2 = dumps(pair_to_doc(again))
    assert text1 == text2


def test_triple_roundtrip_deterministic():
    t = dualize(named_pair("t3_vol"))
    text1 = dumps(triple_to_doc(t))
    again = triple_from_doc(json.loads(text1))
    text2 = dumps(triple_to_doc(again))
    assert text1 == text2
    assert list(again.w) == list(t.w)


# ---------------------------------------------------------------------------
# verbs and exit codes


def test_dualizable_exit_codes(tmp_path):
    code, doc = run(["dualizable", "--pair", pair_file(tmp_path, "hopf_k2")])
    assert code == 0 and doc["dualizable"] is True
    assert doc["leading"] == ["2"]
    code, doc = run(["dualizable", "--pair", pair_file(tmp_path, "t3_over_s1_vol")])
    assert code == 1 and doc["dualizable"] is False


def test_dualize_then_check_and_tmap(tmp_path):
    code, triple_doc = run(["dualize", "--pair", pair_file(tmp_path, "hopf_k2")])
    assert code == 0 and triple_doc["format"] == "triple"
    path = write(tmp_path, "triple.json", dumps(triple_doc))
    code, doc = run(["check-triple", "--triple", path])
    assert code == 0 and doc["valid"] is True
    code, doc = run(["tmap", "--triple", path])
    assert code == 0 and doc["isomorphism"] is True
    assert doc["dims_side"] == ["0", "0"] and doc["dims_dual"] == ["0", "0"]


def test_check_triple_reports_tampering(tmp_path):
    code, triple_doc = run(["dualize", "--pair", pair_file(tmp_path, "t3_vol")])
    assert code == 0
    triple_doc["w"] = [str(2 * int(x)) for x in triple_doc["w"]]
    path = write(tmp_path, "tampered.json", dumps(triple_doc))
    code, doc = run(["check-triple", "--triple", path])
    assert code == 1 and doc["valid"] is False
    assert doc["items"]["fiber_condition"]["passed"] is False


def test_cohomology_builtin():
    code, doc = run(["cohomology", "--builtin", "torus", "--params", '{"k": 3}'])
    assert code == 0
    assert doc["cohomology"]["1"]["rank"] == "3"
    assert doc["cohomology"]["3"]["rank"] == "1"


def test_truncation_applies_to_builtin_documents(tmp_path, monkeypatch):
    path = write(tmp_path, "t3.json", json.dumps(
        {"format": "builtin", "name": "torus", "params": {"k": "3"}}
    ))
    code, doc = run(["cohomology", "--base", path])
    assert code == 0 and doc["cohomology"]["3"]["rank"] == "1"
    monkeypatch.setenv("TDK_TRUNCATION", "2")
    for argv in (
        ["cohomology", "--base", path],
        ["cohomology", "--builtin", "torus", "--params", '{"k": 3}'],
    ):
        code, doc = run(argv)
        assert code == 0
        assert sorted(doc["cohomology"]) == ["0", "1", "2"]
        assert doc["cohomology"]["2"]["rank"] == "3"


def test_truncation_variable_is_read_as_a_document_integer(monkeypatch):
    argv = ["cohomology", "--builtin", "torus", "--params", '{"k": 3}']
    for raw in ("1_0", "2.0", "x", "\u0663", "1" * 5000):
        monkeypatch.setenv("TDK_TRUNCATION", raw)
        code, doc = run(argv)
        assert code == 2
        assert doc["error"] == f"TDK_TRUNCATION must be an integer, got {raw!r}"
    monkeypatch.setenv("TDK_TRUNCATION", "-1")
    assert run(argv) == (2, {"error": "TDK_TRUNCATION must be nonnegative"})
    for raw in ("2", " +2 ", "-0"):  # as parse_int reads a document integer
        monkeypatch.setenv("TDK_TRUNCATION", raw)
        code, doc = run(argv)
        assert code == 0 and sorted(doc["cohomology"]) == ["0", "1", "2"][: int(raw) + 1]


def test_cohomology_simplicial(tmp_path):
    path = write(tmp_path, "rp2.json", json.dumps(simplicial_doc("projective-plane-6")))
    code, doc = run(["cohomology", "--base", path])
    assert code == 0
    assert doc["cohomology"]["2"] == {"rank": "0", "torsion": ["2"]}
    assert doc["euler_characteristic"] == "1"


def test_bundle_and_ss(tmp_path):
    chern = write(tmp_path, "chern.json", json.dumps([["2"]]))
    code, doc = run(
        ["bundle", "--builtin", "sphere", "--params", '{"k": 2}', "--chern", chern]
    )
    assert code == 0
    assert doc["total_cohomology"]["2"] == {"rank": "0", "torsion": ["2"]}
    code, doc = run(
        ["ss", "--builtin", "sphere", "--params", '{"k": 2}', "--chern", chern,
         "--page", "2", "--p", "0", "--q", "1"]
    )
    assert code == 0
    slot = doc["slots"][0]
    assert slot["group"] == {"rank": "1", "torsion": []}
    assert slot["d_out"] == [["2"]]


@pytest.mark.parametrize("name", ["lens2_k1", "t3_over_s1_vol"])
def test_ss_builds_one_differential_per_slot_and_dualizable_none(tmp_path, monkeypatch, name):
    built = []
    init = GroupHom.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupHom, "__init__", counted)
    bundle = named_pair(name).bundle
    base = write(tmp_path, "base.json", dumps(space_to_doc(bundle.base)))
    chern = write(tmp_path, "chern.json", json.dumps([[str(int(x)) for x in z] for z in bundle.chern]))
    code, doc = run(["ss", "--base", base, "--chern", chern, "--page", "3"])
    assert code == 0 and len(built) == len(doc["slots"])
    built.clear()
    code, _ = run(["dualizable", "--pair", pair_file(tmp_path, name)])
    assert code in (0, 1) and not built


@pytest.mark.parametrize(
    "verb, name, expected_code, expected_calls",
    [
        pytest.param("dualize", "hopf", 0, 3, id="hopf"),
        pytest.param("dualize", "t3_vol", 0, 3, id="t3_vol"),
        pytest.param("dualize", "t3_over_s1_vol", 1, 1, id="dualize-t3_over_s1_vol"),
        pytest.param("extensions", "hopf", 0, 1, id="extensions-hopf"),
        pytest.param("extensions", "t3_vol", 0, 1, id="extensions-t3_vol"),
    ],
)
def test_dualize_runs_three_filtration_reports(
    tmp_path, monkeypatch, verb, name, expected_code, expected_calls
):
    """A dualized pair needs one filtration report for its flux and one per side
    of the triple; a refused pair and ``extensions`` need only the flux's."""
    calls = []
    report = BundleModel.filtration_report

    def counted(self, z):
        calls.append(1)
        return report(self, z)

    monkeypatch.setattr(BundleModel, "filtration_report", counted)
    code, _ = run([verb, "--pair", pair_file(tmp_path, name)])
    assert code == expected_code and len(calls) == expected_calls


def test_extensions_verb(tmp_path):
    code, doc = run(["extensions", "--pair", pair_file(tmp_path, "t3_trivial")])
    assert code == 0
    assert doc["groups_agree"] is True


def test_onn_verb(tmp_path):
    flip = write(
        tmp_path,
        "flip.json",
        json.dumps({"n": 1, "matrix": [[0, 1], [1, 0]]}),
    )
    code, doc = run(["onn", "--check", flip])
    assert code == 0 and doc["member"] is True
    scale = write(
        tmp_path, "scale.json", json.dumps({"n": 1, "matrix": [[2, 0], [0, 2]]})
    )
    code, doc = run(["onn", "--check", scale])
    assert code == 1 and doc["member"] is False


def test_twisted_verb(tmp_path):
    code, doc = run(["twisted", "--pair", pair_file(tmp_path, "s3_trivial")])
    assert code == 0
    assert (doc["even"], doc["odd"]) == ("0", "0")


def test_unknown_verb_and_options_rejected(tmp_path):
    code, _ = run(["frobnicate"])
    assert code == 2
    code, _ = run(["dualizable", "--nonsense", "x"])
    assert code == 2


def test_shared_parser_after_argument_error(tmp_path, capsys):
    # ``run`` reuses one parser; an argument error must leave nothing behind
    # that changes how later calls of other verbs parse
    pair = pair_file(tmp_path, "hopf_k2")
    calls = [
        ["extensions", "--pair", pair],
        ["cohomology", "--builtin", "torus", "--params", '{"k": "2"}', "--deg", "1"],
        ["dualizable", "--pair", pair, "--pretty"],
    ]
    assert run(["dualizable", "--nonsense", "x"]) == (2, {"error": "argument error"})
    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    capsys.readouterr()
    assert [dumps(doc) for _, doc in shared] == [dumps(doc) for _, doc in fresh]
    assert [code for code, _ in shared] == [code for code, _ in fresh] == [0, 0, 0]


def test_selftest_runs_the_battery():
    code, doc = run(["selftest"])
    assert code == 0 and doc["all_passed"] is True
    assert [row["check"] for row in doc["checks"]] == [name for name, _ in CHECKS]
    for row in doc["checks"]:
        assert row["passed"] is True, row
        assert float(row["ms"]) >= 0


def test_byte_identical_output(tmp_path):
    path = pair_file(tmp_path, "hopf_k2")
    out1 = dumps(run(["dualizable", "--pair", path])[1])
    out2 = dumps(run(["dualizable", "--pair", path])[1])
    assert out1 == out2


# ---------------------------------------------------------------------------
# error handling and fuzz robustness


def test_malformed_json_exits_2(tmp_path):
    path = write(tmp_path, "bad.json", "{this is not json")
    for verb, flag in [
        ("dualizable", "--pair"),
        ("check-triple", "--triple"),
        ("cohomology", "--base"),
        ("onn", "--check"),
    ]:
        code, doc = run([verb, flag, path])
        assert code == 2
        assert "error" in doc


def test_missing_file_exits_2():
    code, doc = run(["dualizable", "--pair", "/nonexistent/nowhere.json"])
    assert code == 2 and "error" in doc


def test_invalid_model_exits_2(tmp_path):
    doc = {
        "format": "dgring",
        "degrees": 3,
        "basis": [["1"], ["a"], ["b"], ["c"]],
        "diff": [
            {"deg": 1, "matrix": [[1]]},
            {"deg": 2, "matrix": [[1]]},
        ],
        "product": [],
    }
    path = write(tmp_path, "badmodel.json", json.dumps(doc))
    code, out = run(["cohomology", "--base", path])
    assert code == 2
    assert "d(d(" in out["error"]


def test_nonclosed_flux_exits_2(tmp_path):
    pair_doc = pair_to_doc(named_pair("t3_vol"))
    base_doc = {
        "format": "dgring",
        "degrees": "3",
        "basis": [["1"], ["x", "y", "z"], [], []],
        "diff": [],
        "product": [],
    }
    # heisenberg-like base where the flux fails to close: use d(z) = 0 model
    # but a flux vector of the wrong length / a non-cocycle chern instead
    pair_doc["flux"] = ["1"] * (len(pair_doc["flux"]) + 1)
    path = write(tmp_path, "badflux.json", json.dumps(pair_doc))
    code, out = run(["dualizable", "--pair", path])
    assert code == 2


def test_nonclosed_flux_cocycle_rejected(tmp_path):
    # base with a non-closed degree-3 element: d(a) = b in degrees 3 -> 4
    base_doc = {
        "format": "dgring",
        "degrees": 4,
        "basis": [["1"], [], [], ["a"], ["b"]],
        "diff": [{"deg": 3, "matrix": [[1]]}],
        "product": [],
    }
    pair_doc = {
        "format": "pair",
        "base": base_doc,
        "n": "1",
        "chern": [[]],
        "flux": ["1"],  # the 'a' slot: d(a) = b, not closed
    }
    path = write(tmp_path, "opencocycle.json", json.dumps(pair_doc))
    code, out = run(["dualizable", "--pair", path])
    assert code == 2
    assert "closed" in out["error"]


def test_fuzzed_inputs_never_crash(tmp_path):
    rng = random.Random(20260810)
    seeds = []
    # random garbage bytes
    for i in range(15):
        seeds.append(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 1024))))
    # mutated valid documents
    valid = dumps(pair_to_doc(named_pair("hopf"))).encode()
    for i in range(15):
        blob = bytearray(valid[:1024])
        for _ in range(rng.randrange(1, 8)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        seeds.append(bytes(blob))
    # structurally valid JSON with wrong shapes
    for i in range(10):
        doc = {"format": rng.choice(["pair", "triple", "simplicial", "dgring"])}
        doc["n"] = rng.choice([0, -1, "x", 3])
        doc["vertices"] = rng.choice([-2, "q"])
        doc["facets"] = [[rng.randrange(-3, 5) for _ in range(rng.randrange(5))]]
        seeds.append(json.dumps(doc).encode())
    for i, blob in enumerate(seeds):
        path = tmp_path / f"fuzz{i}.json"
        path.write_bytes(blob[:1024])
        for verb, flag in [
            ("dualizable", "--pair"),
            ("dualize", "--pair"),
            ("check-triple", "--triple"),
            ("tmap", "--triple"),
            ("cohomology", "--base"),
            ("onn", "--check"),
        ]:
            code, doc = run([verb, flag, str(path)])
            assert code == 2, (verb, blob[:60])
            assert "error" in doc


def _pair_doc():
    return pair_to_doc(named_pair("hopf"))


def _triple_doc():
    return triple_to_doc(dualize(named_pair("hopf")))


def _dgring_doc():
    return space_to_doc(named_pair("t3_vol").bundle.total)


def _set(doc, path, value):
    """doc with the entry at ``path`` (a tuple of keys and indices) replaced."""
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


# malformed integers in documents: (verb, flag, document, location)
BAD_INTEGERS = {
    "pair_n": ("dualizable", "--pair", lambda: _set(_pair_doc(), ("n",), "x"), "n"),
    "pair_chern_letter": (
        "dualizable", "--pair", lambda: _set(_pair_doc(), ("chern", 0, 0), "a"), "chern[0]"),
    "pair_chern_boolean": (
        "dualizable", "--pair", lambda: _set(_pair_doc(), ("chern", 0, 0), True), "chern[0]"),
    "pair_flux_fraction": (
        "twisted", "--pair", lambda: _set(_pair_doc(), ("flux", 0), "1.5"), "flux"),
    "pair_builtin_param": (
        "extensions", "--pair", lambda: _set(_pair_doc(), ("base", "params", "k"), "x"),
        "params.k"),
    "triple_chern_hat": (
        "check-triple", "--triple", lambda: _set(_triple_doc(), ("chern_hat", 0, 0), "z"),
        "chern_hat[0]"),
    "triple_flux_hat": (
        "tmap", "--triple", lambda: _set(_triple_doc(), ("flux_hat", 0), "1e3"), "flux_hat"),
    "triple_w": ("check-triple", "--triple", lambda: _set(_triple_doc(), ("w", 0), "--1"), "w"),
    "onn_n": ("onn", "--check", lambda: {"n": "one", "matrix": [["1", "0"], ["0", "1"]]}, "n"),
    "onn_matrix": (
        "onn", "--check", lambda: {"n": "1", "matrix": [["1", "0"], ["0", "i"]]}, "matrix[1]"),
    "digit_limit": (
        "cohomology", "--base",
        lambda: {"format": "simplicial", "vertices": "1" * 5000, "facets": [["0"]]}, "vertices"),
    "dgring_diff_letter": (
        "cohomology", "--base", lambda: _set(_dgring_doc(), ("diff", 1, "matrix", 2, 1), "x"),
        "diff[1]"),
    "dgring_diff_boolean": (
        "cohomology", "--base", lambda: _set(_dgring_doc(), ("diff", 1, "matrix", 0, 0), True),
        "diff[1]"),
    "dgring_product_index_fraction": (
        "cohomology", "--base", lambda: _set(_dgring_doc(), ("product", 3, "i_idx"), "1.0"),
        "product[3].i_idx"),
    "dgring_result_coeff_boolean": (
        "cohomology", "--base",
        lambda: _set(_dgring_doc(), ("product", 2, "result", 0, "coeff"), True),
        "product[2].result.coeff"),
    "dgring_result_index_arabic_indic_digit": (
        "cohomology", "--base",
        lambda: _set(_dgring_doc(), ("product", 4, "result", 0, "idx"), "\u0663"),
        "product[4].result.idx"),
}


@pytest.mark.parametrize("case", sorted(BAD_INTEGERS))
def test_malformed_integer_in_document_is_a_located_input_error(case, tmp_path):
    verb, flag, make, location = BAD_INTEGERS[case]
    path = write(tmp_path, f"{case}.json", json.dumps(make()))
    code, doc = run([verb, flag, path])
    assert code == 2
    assert doc["location"] == location
    assert "ValueError" not in doc["error"]


@pytest.mark.parametrize("zero", [" 0", "-0", "+0", 0])
def test_signed_and_spaced_zeros_in_a_diff_row_read_as_zero(zero):
    doc = _dgring_doc()
    assert doc["diff"][1]["matrix"][2][1] == "0"
    model = parse_space(_set(_dgring_doc(), ("diff", 1, "matrix", 2, 1), zero))
    assert model.d_columns(1) == parse_space(doc).d_columns(1)


@pytest.mark.parametrize("params, chern, location", [
    ('{"k": "x"}', [["1"]], "--params.k"),
    ('{"k": true}', [["1"]], "--params.k"),
    ('{"k": "2"}', [["a"]], "chern[0]"),
    ('{"k": "2"}', [[True]], "chern[0]"),
])
def test_malformed_integer_in_cli_input_is_a_located_input_error(params, chern, location, tmp_path):
    chern_path = write(tmp_path, "chern.json", json.dumps(chern))
    code, doc = run(["bundle", "--builtin", "sphere", "--params", params, "--chern", chern_path])
    assert code == 2
    assert doc["location"] == location
    assert "ValueError" not in doc["error"]


def test_json_number_past_the_digit_limit_is_an_input_error(tmp_path):
    path = write(tmp_path, "huge.json", '{"format": "simplicial", "vertices": ' + "7" * 5000 + "}")
    code, doc = run(["cohomology", "--base", path])
    assert code == 2
    assert "ValueError" not in doc["error"] and "not valid JSON" in doc["error"]
