"""Command-line driver: exit codes, determinism, robustness on fuzzed input."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdk import cli
from tdk.cli import _VERBS, _build_parser, _read_flags, main, run
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


def test_ss_past_the_stable_page_with_negative_p_is_a_zero_slot(tmp_path):
    chern = write(tmp_path, "chern.json", json.dumps([["1"]]))
    argv = ["ss", "--builtin", "surface", "--params", '{"genus": 2}', "--chern", chern]
    for page in ("3", "4", "5"):  # the stable page s = 3, and past it
        code, doc = run([*argv, "--page", page, "--p", "-1", "--q", "2"])
        assert (code, doc) == (0, {"page": page, "slots": [
            {"group": {"rank": "0", "torsion": []}, "p": "-1", "q": "2", "stable": True}
        ]})


@pytest.mark.parametrize("flag", ["--p", "--q"])
def test_ss_refuses_a_lone_p_or_q(tmp_path, flag):
    chern = write(tmp_path, "chern.json", json.dumps([["1", "0", "0"]]))
    argv = ["ss", "--builtin", "torus", "--params", '{"k": 3}', "--chern", chern, "--page", "2"]
    assert run(argv)[0] == 0
    code, doc = run(argv + [flag, "1"])
    assert code == 2
    assert doc == {"error": "give both --p and --q"}


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
    "verb, name, expected_code",
    [
        pytest.param("dualize", "hopf", 0, id="hopf"),
        pytest.param("dualize", "t3_vol", 0, id="t3_vol"),
        pytest.param("dualize", "t3_over_s1_vol", 1, id="dualize-t3_over_s1_vol"),
        pytest.param("extensions", "hopf", 0, id="extensions-hopf"),
        pytest.param("extensions", "t3_vol", 0, id="extensions-t3_vol"),
    ],
)
def test_dualize_runs_one_filtration_report(tmp_path, monkeypatch, verb, name, expected_code):
    """``dualize`` and ``extensions`` need the filtration report of the flux
    only: a dualized triple is valid by construction and is not validated
    (``tests/test_trusted_duality.py``).  Every report, checked or not, runs
    ``_filtration_report``."""
    calls = []
    report = BundleModel._filtration_report

    def counted(self, z):
        calls.append(1)
        return report(self, z)

    monkeypatch.setattr(BundleModel, "_filtration_report", counted)
    code, _ = run([verb, "--pair", pair_file(tmp_path, name)])
    assert code == expected_code and len(calls) == 1


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


def test_shared_parser_after_argument_error(tmp_path, capsys, monkeypatch):
    # ``run`` reuses one parser; an argument error must leave nothing behind
    # that changes how later calls of other verbs parse (the flag reader is
    # turned off, so every call goes through that parser)
    monkeypatch.setattr(cli, "_read_flags", lambda name, rest: None)
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


def _argv_corpus(tmp_path):
    """Every verb with valid flags, then argument errors of each kind."""
    pair = pair_file(tmp_path, "hopf_k2")
    triple = write(tmp_path, "triple.json", dumps(triple_to_doc(dualize(named_pair("hopf_k2")))))
    flip = write(tmp_path, "flip.json", json.dumps({"n": "1", "matrix": [["0", "1"], ["1", "0"]]}))
    chern = write(tmp_path, "chern.json", json.dumps([["1"]]))
    simplicial = write(tmp_path, "s.json", json.dumps(simplicial_doc("boundary-tetrahedron")))
    torus = ["--builtin", "torus", "--params", '{"k": "2"}']
    return [
        ["cohomology", "--base", simplicial],
        ["cohomology", *torus, "--deg", "1", "--pretty"],
        ["cohomology", "--builtin=torus", '--params={"k": "3"}', "--json"],
        ["bundle", *torus, "--chern", chern, "--deg", "2"],
        ["ss", *torus, "--chern", chern, "--page", "2", "--p", "0", "--q", "1"],
        ["ss", *torus, "--chern", chern, "--page=3", "--deg", "1"],
        ["dualizable", "--pair", pair],
        ["dualize", "--pair", pair, "--pretty"],
        ["check-triple", "--triple", triple],
        ["extensions", "--pair", pair],
        ["onn", "--check", flip],
        ["twisted", "--pair", pair, "--json"],
        ["tmap", "--triple", triple],
        # argument errors and help
        [],
        ["-h"],
        ["--help"],
        ["frobnicate"],
        ["cohom"],
        ["dualizable"],
        ["dualizable", "--nonsense", "x"],
        ["cohomology", "--bas", simplicial],
        ["cohomology", "--he"],
        ["ss", "--page", "x"],
        ["cohomology", "--deg"],
        ["cohomology", "--"],
        ["cohomology", "--", "x"],
        ["cohomology", *torus, "extra", "args"],
        ["selftest", "extra"],
        ["--pretty", "cohomology", *torus],
        ["tmap", "-h"],
        # forms the flag reader declines, and forms it reads
        ["ss", *torus, "--chern", chern, "--page", "2", "--p", "-1", "--q", "1"],
        ["ss", *torus, "--chern", chern, "--page=3"],
        ["cohomology", *torus, "--deg", "0", "--deg", "1"],
        ["cohomology", *torus, "--deg", "x"],
        ["cohomology", "--base"],
        ["dualize"],
        ["dualize", "--pretty"],
        ["cohomology", *torus, "-h"],
        ["cohomology", *torus, "--json", "--pretty"],
    ]


def test_direct_dispatch_matches_the_full_parse(tmp_path, capsys, monkeypatch):
    # ``run`` reads the usual argv forms with ``_read_flags``; turning the
    # reader off sends every argv through ``_build_parser().parse_args``
    corpus = _argv_corpus(tmp_path)

    def outcomes():
        rows = []
        for argv in corpus:
            code, doc = run(argv)
            captured = capsys.readouterr()
            rows.append((argv, code, dumps(doc), captured.out, captured.err))
        return rows

    direct = outcomes()
    monkeypatch.setattr(cli, "_read_flags", lambda name, rest: None)
    assert outcomes() == direct
    assert [code for _, code, *_ in direct[:13]] == [0] * 13
    assert all(code in (0, 2) for _, code, *_ in direct[13:])
    assert [code for _, code, *_ in direct[-9:]] == [0, 0, 0, 2, 2, 2, 2, 0, 0]

    def refuse(argv=None, namespace=None):
        raise AssertionError("a verb's argv went through the top-level parse")

    monkeypatch.undo()
    monkeypatch.setattr(_build_parser(), "parse_args", refuse)
    assert run(corpus[1])[0] == 0


_VALUES = st.one_of(
    st.sampled_from(["3", "0", "12", "+4", " 2", "1_0", "f.json", '{"k": "2"}', ""]),
    st.sampled_from(["-1", "x", "-", "--", "-x"]),
    st.text(alphabet="-=01x ", max_size=3),
)


@st.composite
def _verb_argv(draw):
    """A verb and its arguments: options of that verb with values and its
    flags, and in half the draws also option prefixes, ``=`` forms, help,
    options without a value and stray values."""
    name = draw(st.sampled_from(sorted(_VERBS)))
    flags = _VERBS[name][2]
    options = st.sampled_from(sorted(flags) + ["-h", "--help"])
    well_formed = [st.sampled_from(sorted(o for o, k in flags.items() if "action" in k)).map(lambda o: [o])]
    if any("action" not in k for k in flags.values()):
        valued = st.sampled_from(sorted(o for o, k in flags.items() if "action" not in k))
        well_formed.append(st.tuples(valued, _VALUES).map(list))
    item = st.one_of(*well_formed)
    if draw(st.booleans()):
        item = st.one_of(
            item,
            options.map(lambda o: [o]),
            st.tuples(options, st.integers(1, 5)).map(lambda t: [t[0][: -t[1]] or "-"]),
            st.tuples(options, _VALUES).map(lambda t: [f"{t[0]}={t[1]}"]),
            _VALUES.map(lambda v: [v]),
        )
    items = draw(st.lists(item, max_size=6))
    return name, [token for part in items for token in part]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_verb_argv())
def test_the_flag_reader_declines_or_reads_as_argparse(case):
    name, rest = case
    read = _read_flags(name, rest)
    if read is None:
        return
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed, extras = _build_parser().parse_known_args([name, *rest])
    except SystemExit:
        pytest.fail(f"the flag reader read {rest!r}, which argparse refuses")
    assert extras == [] and vars(read) == vars(parsed)


def benchmark_forms(tmp_path):
    """One argv of each form that the benchmark writes, on documents in ``tmp_path``."""
    pair = pair_file(tmp_path, "hopf_k2")
    triple = write(tmp_path, "triple.json", dumps(triple_to_doc(dualize(named_pair("hopf_k2")))))
    flip = write(tmp_path, "flip.json", json.dumps({"n": "1", "matrix": [["0", "1"], ["1", "0"]]}))
    chern = write(tmp_path, "chern.json", json.dumps([["1"]]))
    space = write(tmp_path, "s.json", json.dumps(simplicial_doc("boundary-tetrahedron")))
    torus = ["--builtin", "torus", "--params", '{"k": "2"}']
    return [
        ["cohomology", "--base", space],
        ["bundle", *torus, "--chern", chern],
        ["ss", *torus, "--chern", chern, "--page", "3"],
        *([verb, "--pair", pair] for verb in ("dualizable", "dualize", "extensions", "twisted")),
        *([verb, "--triple", triple] for verb in ("check-triple", "tmap")),
        ["onn", "--check", flip],
    ]


def test_every_benchmark_argv_form_is_read_without_argparse(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("a benchmark argv form built the argparse parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    forms = benchmark_forms(tmp_path)
    assert [run(argv)[0] for argv in forms] == [0] * len(forms)


_NOT_STRINGS = st.one_of(st.integers(-3, 3), st.none(), st.binary(max_size=3), st.floats())
_STRINGS = st.sampled_from(["cohomology", "dualizable", "--builtin", "torus", "--deg", "1", "-h", "--pretty"])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(_STRINGS, _NOT_STRINGS), min_size=1, max_size=6).filter(
    lambda argv: not all(isinstance(item, str) for item in argv)))
@example([5])
@example(["cohomology", 5])
@example(["cohomology", "--deg", 5])
def test_an_argv_item_that_is_not_a_string_is_refused_by_position(argv):
    first = next(i for i, item in enumerate(argv) if not isinstance(item, str))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcome = run(argv)
    assert outcome == (2, {"error": f"argv[{first}] is not a string: {argv[first]!r}"})
    assert (out.getvalue(), err.getvalue()) == ("", "")


# ---------------------------------------------------------------------------
# the console script


@pytest.mark.parametrize("flag, indented", [("--pretty", True), ("--pre", True), ("--json", False)])
def test_main_renders_with_the_pretty_of_the_parse(flag, indented, capsys):
    argv = ["cohomology", "--builtin", "torus", "--deg", "1", flag]
    assert main(argv) == 0
    expected = dumps({"kind": "dgring", "cohomology": {"1": {"rank": "2", "torsion": []}}}, pretty=indented)
    assert capsys.readouterr() == (expected + "\n", "")
    assert ("\n" in expected) is indented


def test_main_renders_an_argument_error_compact(capsys):
    assert main(["dualizable", "--pretty"]) == 2
    out, err = capsys.readouterr()
    assert out == '{"error":"argument error"}\n'
    assert "the following arguments are required: --pair" in err


def test_main_prints_the_help_and_no_document(capsys):
    assert main(["-h"]) == 0
    assert capsys.readouterr() == (_build_parser().format_help(), "")


def test_an_unreadable_document_path_is_an_input_error(tmp_path):
    for argv, what in [(["cohomology", "--base"], "base"), (["dualizable", "--pair"], "pair")]:
        code, doc = run(argv + [str(tmp_path)])
        assert (code, doc) == (2, {"error": f"{what} file {tmp_path} cannot be read: Is a directory"})


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


def test_onn_refuses_a_negative_n_by_name(tmp_path):
    path = write(tmp_path, "negative.json", json.dumps({"n": "-1", "matrix": []}))
    code, doc = run(["onn", "--check", path])
    assert code == 2
    assert doc == {"error": "n: expected a nonnegative integer, got -1", "location": "n"}


# each builtin with one parameter that it does not take, beside those it does
UNKNOWN_PARAMS = {
    "point": ({}, "k"),
    "sphere": ({"k": "2"}, "genus"),
    "torus": ({}, "dim"),
    "surface": ({"genus": "1"}, "k"),
    "heisenberg": ({"k": "1"}, "n"),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_PARAMS))
def test_a_parameter_that_a_builtin_does_not_take_is_refused(name, tmp_path):
    known, unknown = UNKNOWN_PARAMS[name]
    params = {**known, unknown: "3"}
    takes = {"point": "none", "surface": "genus"}.get(name, "k")
    error = {"error": f"builtin {name!r} takes no parameter {unknown!r} (it takes {takes})"}
    assert run(["cohomology", "--builtin", name, "--params", json.dumps(known)])[0] == 0
    assert run(["cohomology", "--builtin", name, "--params", json.dumps(params)]) == (2, error)
    base = {"format": "builtin", "name": name, "params": params}
    for verb, flag, doc in (("dualizable", "--pair", _pair_doc()),
                            ("check-triple", "--triple", _triple_doc())):
        path = write(tmp_path, f"{verb}.json", json.dumps({**doc, "base": base}))
        assert run([verb, flag, path]) == (2, error)


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
