"""Command-line driver.

Exit codes: 0 for success or a positive mathematical answer, 1 for a negative
mathematical answer (not dualizable, triple invalid, not a group member,
transformation not an isomorphism), 2 for any input problem.  Reports go to
standard output as JSON with every integer rendered as a decimal string;
``--pretty`` switches to an indented human-oriented rendering.

``TDK_TRUNCATION`` overrides the default degree bound (4) used when reading
space documents; it also applies to builtin documents and ``--builtin``.  It
is read as a document integer is (``parse_int``), so ``1_0`` is refused.

``tdk selftest`` runs the acceptance battery of :mod:`tdk.selftest` and
reports each check with its wall time in milliseconds.

An argv of the form ``verb (--option value | --flag)*`` with exact option
strings, as every scripted call writes it, is read from the verb's option
table without an argparse pass (``_read_flags``); any other argv (help,
``--opt=value``, abbreviations, a value starting with ``-``, an argument
error) is read by argparse, so both give the same namespace and messages.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import NotDualizableError, SchemaError, TdkError, parse_int
from .serialize import (
    chern_vectors,
    dumps,
    onn_from_doc,
    pair_from_doc,
    space_from_doc,
    triple_from_doc,
    triple_to_doc,
)
from .space_model import SimplicialComplex

__all__ = ["main", "run"]


def _truncation():
    """``TDK_TRUNCATION`` by ``parse_int``'s rules, or None when it is not set."""
    raw = os.environ.get("TDK_TRUNCATION")
    if raw is None:
        return None
    try:
        value = parse_int(raw, "TDK_TRUNCATION")
    except SchemaError:
        raise TdkError(f"TDK_TRUNCATION must be an integer, got {raw!r}") from None
    if value < 0:
        raise TdkError("TDK_TRUNCATION must be nonnegative")
    return value


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise TdkError(f"{what} file not found: {path}")
    except OSError as exc:  # a directory, no permission
        raise TdkError(f"{what} file {path} cannot be read: {exc.strerror}")
    except ValueError as exc:  # not JSON, or a number past the int digit limit
        raise TdkError(f"{what} file {path} is not valid JSON: {exc}")


def _load_base(args):
    if getattr(args, "builtin", None):
        params = {}
        if getattr(args, "params", None):
            try:
                raw = json.loads(args.params)
            except json.JSONDecodeError as exc:
                raise TdkError(f"--params is not valid JSON: {exc}")
            if not isinstance(raw, dict):
                raise TdkError("--params must be a JSON object")
            params = {k: parse_int(v, f"--params.{k}") for k, v in raw.items()}
        return space_from_doc(
            {"format": "builtin", "name": args.builtin, "params": params},
            truncation=_truncation(),
        )
    if getattr(args, "base", None):
        return space_from_doc(_load_json(args.base, "base"), truncation=_truncation())
    raise TdkError("give a base space with --base FILE or --builtin NAME")


def _group_entry(invariants):
    rank, torsion = invariants
    return {"rank": str(rank), "torsion": [str(d) for d in torsion]}


def _invariants_table(betti):
    return {str(k): _group_entry(h) for k, h in enumerate(betti)}


# ---------------------------------------------------------------------------
# verbs


def _cmd_cohomology(args):
    space = _load_base(args)
    table = _invariants_table(space.betti())
    if isinstance(space, SimplicialComplex):
        report = {
            "kind": "simplicial",
            "euler_characteristic": str(space.euler_characteristic()),
            "cohomology": table,
        }
    else:
        report = {"kind": "dgring", "cohomology": table}
    if args.deg is not None:
        key = str(args.deg)
        report["cohomology"] = {key: report["cohomology"].get(key, _group_entry((0, ())))}
    return 0, report


def _load_bundle(args):
    base = _load_base(args)
    if isinstance(base, SimplicialComplex):
        raise TdkError(
            "bundles need a ring-model base (builtin or dgring document)"
        )
    if not getattr(args, "chern", None):
        raise TdkError("give the chern cocycles with --chern FILE")
    doc = _load_json(args.chern, "chern")
    if not isinstance(doc, list):
        raise TdkError("chern file must hold a JSON list of degree-2 vectors")
    from .torus_bundle import build_bundle

    return build_bundle(base, chern_vectors(doc, base, "chern"))


def _cmd_bundle(args):
    m = _load_bundle(args)
    table = _invariants_table(m.betti())
    if args.deg is not None:
        key = str(args.deg)
        table = {key: table.get(key, _group_entry((0, ())))}
    return 0, {"fiber_dimension": str(m.n), "total_cohomology": table}


def _cmd_ss(args):
    m = _load_bundle(args)
    r = args.page
    if r is None or r < 1:
        raise TdkError("give a page number with --page R (R >= 1)")
    if (args.p is None) != (args.q is None):
        raise TdkError("give both --p and --q")
    slots = []
    p_range = range(0, m.base.D + 1)
    q_range = range(0, m.n + 1)
    if args.p is not None:
        coords = [(args.p, args.q)]
    elif args.deg is not None:
        coords = [(p, args.deg - p) for p in p_range if 0 <= args.deg - p <= m.n]
    else:
        coords = [(p, q) for p in p_range for q in q_range]
    for p, q in coords:
        page = m.ss_page(r, p, q)
        entry = {
            "p": str(p),
            "q": str(q),
            "group": _group_entry(page.invariants()),
            "stable": page.is_infinity,
        }
        if not page.d_out.is_zero_hom():
            columns = page.d_out.matrix
            entry["d_out"] = [
                [str(col.get(i, 0)) for col in columns]
                for i in range(page.d_out.target.ngens)
            ]
        slots.append(entry)
    return 0, {"page": str(r), "slots": slots}


def _cmd_dualizable(args):
    from .tduality_core import is_dualizable

    pair = pair_from_doc(_load_json(args.pair, "pair"), truncation=_truncation())
    ok, report = is_dualizable(pair)
    doc = {
        "dualizable": ok,
        "filtration_step": "zero-class" if report.is_zero else str(report.p),
        "leading": [str(x) for x in report.leading],
    }
    return (0 if ok else 1), doc


def _cmd_dualize(args):
    from .tduality_core import dualize

    pair = pair_from_doc(_load_json(args.pair, "pair"), truncation=_truncation())
    try:
        t = dualize(pair)
    except NotDualizableError as exc:
        return 1, {
            "dualizable": False,
            "filtration_step": str(exc.report.p),
            "error": "pair admits no dual; flux class is below filtration step 2",
        }
    return 0, triple_to_doc(t)


def _cmd_check_triple(args):
    from .tduality_core import validate_triple

    t = triple_from_doc(_load_json(args.triple, "triple"), truncation=_truncation())
    report = validate_triple(t)
    items = {
        name: {"passed": flag, "statement": msg}
        for name, (flag, msg) in report.items.items()
    }
    return (0 if report.ok else 1), {"valid": report.ok, "items": items}


def _cmd_extensions(args):
    from .tduality_core import extension_report

    pair = pair_from_doc(_load_json(args.pair, "pair"), truncation=_truncation())
    rep = extension_report(pair)
    doc = {
        "dualizable": rep.dualizable,
        "torsor_group": _group_entry(rep.torsor_invariants),
        "page3_image": _group_entry(rep.crosscheck_invariants),
        "groups_agree": rep.agree,
    }
    if rep.dual_chern is not None:
        doc["dual_chern_classes"] = [
            [str(x) for x in nf] for nf in rep.dual_chern
        ]
        doc["shear_ambiguity"] = [
            [[str(x) for x in nf] for nf in shift]
            for shift in rep.ambiguity["shear_generators"]
        ]
    return (0 if rep.dualizable else 1), doc


def _cmd_onn(args):
    if not args.check:
        raise TdkError("give a matrix document with --check FILE")
    doc = _load_json(args.check, "matrix")
    try:
        element = onn_from_doc(doc)
    except TdkError as exc:
        if "does not preserve" in str(exc):
            return 1, {"member": False, "reason": str(exc)}
        raise
    return 0, {"member": True, "n": str(element.n)}


def _cmd_twisted(args):
    from .twisted_cohomology import twisted_dims

    pair = pair_from_doc(_load_json(args.pair, "pair"), truncation=_truncation())
    even, odd = twisted_dims(pair)
    return 0, {
        "coefficients": "rational (integral torsion refinements not computed)",
        "even": str(even),
        "odd": str(odd),
    }


def _cmd_tmap(args):
    from .twisted_cohomology import verify_iso

    t = triple_from_doc(_load_json(args.triple, "triple"), truncation=_truncation())
    report = verify_iso(t)
    doc = {
        "isomorphism": report.ok,
        "chain_map": report.chain_ok,
        "dims_side": [str(x) for x in report.dims_side],
        "dims_dual": [str(x) for x in report.dims_dual],
        "coefficients": "rational (integral torsion refinements not computed)",
    }
    if not report.ok:
        doc["reason"] = report.reason
    return (0 if report.ok else 1), doc


def _cmd_selftest(args):
    from .selftest import run_selftest

    rows = run_selftest()
    table = [
        {"check": name, "passed": passed, "detail": detail, "ms": f"{ms:.1f}"}
        for name, passed, detail, ms in rows
    ]
    ok = all(passed for _, passed, _, _ in rows)
    return (0 if ok else 1), {"all_passed": ok, "checks": table}


# ---------------------------------------------------------------------------
# driver


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by every ``run``.

    Its ``verbs`` attribute maps each verb to that verb's subparser, and
    each subparser's ``flags`` maps its option strings (no ``-h``) to the
    argparse actions that ``_read_flags`` reads them by.
    """
    parser = argparse.ArgumentParser(
        prog="tdk",
        description=(
            "decide, construct, and classify duals of torus bundles with "
            "3-form flux over finite base models, by exact integer linear algebra"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = {}

    def add(name, help_text, **flags):
        p = parser.verbs[name] = sub.add_parser(name, help=help_text)
        p.flags = {flag: p.add_argument(flag, **kwargs) for flag, kwargs in flags.items()}
        p.flags["--json"] = p.add_argument("--json", action="store_true", help="compact JSON (default)")
        p.flags["--pretty"] = p.add_argument("--pretty", action="store_true", help="indented rendering")
        return p

    base_flags = {
        "--base": {"metavar": "FILE", "help": "space document (simplicial or dgring)"},
        "--builtin": {"metavar": "NAME", "help": "builtin space name"},
        "--params": {"metavar": "JSON", "help": "builtin parameters"},
    }
    add("cohomology", "cohomology of a base space",
        **base_flags, **{"--deg": {"type": int, "metavar": "K"}})
    add("bundle", "total-space cohomology of a torus bundle",
        **base_flags,
        **{"--chern": {"metavar": "FILE"}, "--deg": {"type": int, "metavar": "K"}})
    add("ss", "spectral-sequence page of a bundle",
        **base_flags,
        **{
            "--chern": {"metavar": "FILE"},
            "--page": {"type": int, "metavar": "R"},
            "--deg": {"type": int, "metavar": "K"},
            "--p": {"type": int},
            "--q": {"type": int},
        })
    add("dualizable", "decide whether a pair admits a dual",
        **{"--pair": {"metavar": "FILE", "required": True}})
    add("dualize", "construct the canonical triple extending a pair",
        **{"--pair": {"metavar": "FILE", "required": True}})
    add("check-triple", "validate every triple condition",
        **{"--triple": {"metavar": "FILE", "required": True}})
    add("extensions", "existence, dual chern data, and the extension torsor",
        **{"--pair": {"metavar": "FILE", "required": True}})
    add("onn", "membership in the integral duality group",
        **{"--check": {"metavar": "FILE", "required": True}})
    add("twisted", "rational twisted cohomology dimensions of a pair",
        **{"--pair": {"metavar": "FILE", "required": True}})
    add("tmap", "verify the duality transformation on a triple",
        **{"--triple": {"metavar": "FILE", "required": True}})
    add("selftest", "run the shipped example corpus")
    return parser


_HANDLERS = {
    "cohomology": _cmd_cohomology,
    "bundle": _cmd_bundle,
    "ss": _cmd_ss,
    "dualizable": _cmd_dualizable,
    "dualize": _cmd_dualize,
    "check-triple": _cmd_check_triple,
    "extensions": _cmd_extensions,
    "onn": _cmd_onn,
    "twisted": _cmd_twisted,
    "tmap": _cmd_tmap,
    "selftest": _cmd_selftest,
}


def _read_flags(verb, rest):
    """The namespace that ``verb.parse_known_args(rest)`` gives, or None.

    ``rest`` is read only when it is a sequence of ``--option value`` and
    ``--flag`` items, each option string one of ``verb.flags`` exactly,
    each value free of a leading ``-`` and converted by its action's own
    ``type``, and every required option given; a repeated option keeps its
    last value, as argparse does.  Any other ``rest`` gives None, and
    argparse reads it, with its help, abbreviations and usage errors.
    """
    values = {}
    i, end = 0, len(rest)
    while i < end:
        action = verb.flags.get(rest[i])
        if action is None:
            return None
        if action.nargs == 0:  # a store_true flag
            values[action.dest] = action.const
            i += 1
            continue
        if i + 1 == end or rest[i + 1][:1] == "-":
            return None
        value = rest[i + 1]
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        values[action.dest] = value
        i += 2
    for action in verb.flags.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(**values)


def run(argv):
    """Dispatch and return (exit_code, report_document); never raises on bad input.

    argv takes one of three paths, each giving the namespace and, on an
    argument error, the usage text and exit code of ``parse_args``:

    - ``verb (--option value | --flag)*``, with exact option strings, values
      that the options' types take and do not start with ``-``, and every
      required option, is read by ``_read_flags`` from the verb's option
      table, with no argparse pass;
    - any other argv whose ``argv[0]`` is exactly a verb goes straight to
      that verb's subparser (``--opt=value``, an abbreviation, ``--p -1``,
      ``--``, ``-h``, a bad value, a missing one), and leftover arguments
      are refused by the top-level parser as ``parse_args`` refuses them;
    - any other argv (none, ``-h``, an unknown or abbreviated verb) takes
      the full parse.
    """
    parser = _build_parser()
    try:
        verb = parser.verbs.get(argv[0]) if argv else None
        if verb is None:
            args = parser.parse_args(argv)
        else:
            args = _read_flags(verb, argv[1:])
            if args is None:
                args, extras = verb.parse_known_args(argv[1:])
                if extras:
                    parser.error("unrecognized arguments: " + " ".join(extras))
            args.verb = argv[0]
    except SystemExit as exc:
        # argparse already printed a usage message
        return (2 if exc.code else 0), {"error": "argument error"} if exc.code else {}
    try:
        return _HANDLERS[args.verb](args)
    except TdkError as exc:
        doc = {"error": str(exc)}
        location = getattr(exc, "location", None)
        if location:
            doc["location"] = str(location)
        return 2, doc
    except Exception as exc:  # malformed input must never crash the driver
        return 2, {"error": f"{type(exc).__name__}: {exc}"}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    code, doc = run(argv)
    if doc:
        sys.stdout.write(dumps(doc, pretty="--pretty" in argv) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
