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

Each verb is listed once, in ``_VERBS``: its handler, its help and its
options.  An argv takes one of two paths through that table.  The form
``verb (--option value | --flag)*`` with exact option strings, as every
scripted call writes it, is read by ``_read_flags`` straight from the table.
Any other argv (help, ``--opt=value``, abbreviations, a value starting with
``-``, ``--``, an argument error) goes to the argparse parser that
``_build_parser`` builds from the same table; both give the same namespace.
argparse is imported only on that second path, so a scripted call never
loads it.  ``main`` renders with the ``--pretty`` of the parse.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types

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


_BASE = {
    "--base": {"metavar": "FILE", "help": "space document (simplicial or dgring)"},
    "--builtin": {"metavar": "NAME", "help": "builtin space name"},
    "--params": {"metavar": "JSON", "help": "builtin parameters"},
}
_DEG = {"--deg": {"type": int, "metavar": "K"}}
_CHERN = {"--chern": {"metavar": "FILE"}}
_PAIR = {"--pair": {"metavar": "FILE", "required": True}}
_TRIPLE = {"--triple": {"metavar": "FILE", "required": True}}
_OUTPUT = {
    "--json": {"action": "store_true", "help": "compact JSON (default)"},
    "--pretty": {"action": "store_true", "help": "indented rendering"},
}

# verb -> (handler, help, {option string: add_argument keywords}); each
# option's dest is the string without its "--", and every verb takes _OUTPUT
_VERBS = {
    name: (handler, help_text, {**options, **_OUTPUT})
    for name, (handler, help_text, options) in {
        "cohomology": (_cmd_cohomology, "cohomology of a base space", {**_BASE, **_DEG}),
        "bundle": (_cmd_bundle, "total-space cohomology of a torus bundle",
                   {**_BASE, **_CHERN, **_DEG}),
        "ss": (_cmd_ss, "spectral-sequence page of a bundle", {
            **_BASE, **_CHERN,
            "--page": {"type": int, "metavar": "R"}, **_DEG,
            "--p": {"type": int}, "--q": {"type": int},
        }),
        "dualizable": (_cmd_dualizable, "decide whether a pair admits a dual", _PAIR),
        "dualize": (_cmd_dualize, "construct the canonical triple extending a pair", _PAIR),
        "check-triple": (_cmd_check_triple, "validate every triple condition", _TRIPLE),
        "extensions": (_cmd_extensions, "existence, dual chern data, and the extension torsor",
                       _PAIR),
        "onn": (_cmd_onn, "membership in the integral duality group",
                {"--check": {"metavar": "FILE", "required": True}}),
        "twisted": (_cmd_twisted, "rational twisted cohomology dimensions of a pair", _PAIR),
        "tmap": (_cmd_tmap, "verify the duality transformation on a triple", _TRIPLE),
        "selftest": (_cmd_selftest, "run the shipped example corpus", {}),
    }.items()
}


@functools.cache
def _build_parser():
    """The argparse parser of ``_VERBS``, built on the first argv that
    ``_read_flags`` declines and shared by every later one."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tdk",
        description=(
            "decide, construct, and classify duals of torus bundles with "
            "3-form flux over finite base models, by exact integer linear algebra"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, help_text, options) in _VERBS.items():
        verb = sub.add_parser(name, help=help_text)
        for option, kwargs in options.items():
            verb.add_argument(option, **kwargs)
    return parser


def _read_flags(name, rest):
    """The namespace that ``_build_parser().parse_args([name, *rest])`` gives, or None.

    ``name`` must be a verb of ``_VERBS`` and ``rest`` a sequence of
    ``--option value`` and ``--flag`` items, each option string one of the
    verb's exactly, each value free of a leading ``-`` and converted by its
    option's ``type``, and every required option given; a repeated option
    keeps its last value, as argparse does.  Any other argv gives None, and
    argparse reads it, with its help, abbreviations and usage errors.
    """
    verb = _VERBS.get(name)
    if verb is None:
        return None
    options = verb[2]
    values = {"verb": name}
    i, end = 0, len(rest)
    while i < end:
        kwargs = options.get(rest[i])
        if kwargs is None:
            return None
        if "action" in kwargs:  # a store_true flag
            values[rest[i][2:]] = True
            i += 1
            continue
        if i + 1 == end or rest[i + 1][:1] == "-":
            return None
        value = rest[i + 1]
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except (TypeError, ValueError):
                return None
        values[rest[i][2:]] = value
        i += 2
    for option, kwargs in options.items():
        if option[2:] not in values:
            if kwargs.get("required"):
                return None
            values[option[2:]] = False if "action" in kwargs else None
    return types.SimpleNamespace(**values)


def _parse(argv):
    """The namespace of ``argv``, or the (exit code, document) of an argv that does not parse.

    ``verb (--option value | --flag)*`` is read by ``_read_flags`` with no
    argparse; any other argv of strings takes ``parse_args``, which prints
    the help (exit 0, no document) or a usage error (exit 2).
    """
    for i, item in enumerate(argv):
        if not isinstance(item, str):
            return 2, {"error": f"argv[{i}] is not a string: {item!r}"}
    args = _read_flags(argv[0], argv[1:]) if argv else None
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse already printed the help or a usage message
            return (2, {"error": "argument error"}) if exc.code else (0, {})
    return args


def _dispatch(args):
    """Run the verb of a parsed namespace; (exit code, document)."""
    try:
        return _VERBS[args.verb][0](args)
    except TdkError as exc:
        doc = {"error": str(exc)}
        location = getattr(exc, "location", None)
        if location:
            doc["location"] = str(location)
        return 2, doc
    except Exception as exc:  # malformed input must never crash the driver
        return 2, {"error": f"{type(exc).__name__}: {exc}"}


def run(argv):
    """Dispatch and return (exit_code, report_document); never raises on bad input.

    argv takes one of two paths, which give the same namespace:

    - ``verb (--option value | --flag)*``, with exact option strings, values
      that the options' types take and do not start with ``-``, and every
      required option, is read by ``_read_flags`` from ``_VERBS``, with no
      argparse imported;
    - any other argv of strings (help, ``--opt=value``, an abbreviation,
      ``--p -1``, ``--``, an unknown verb, a bad or missing value) goes to
      ``_build_parser().parse_args``, which imports argparse on first use.

    An argv item that is not a string is refused with exit 2 and its
    position, before either path.
    """
    args = _parse(argv)
    return args if isinstance(args, tuple) else _dispatch(args)


def main(argv=None):
    """The console script: ``run`` on ``argv`` (default ``sys.argv[1:]``), its
    document printed to stdout, compact or, when the parse read ``--pretty``,
    indented; returns the exit code."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    code, doc = args if isinstance(args, tuple) else _dispatch(args)
    if doc:
        sys.stdout.write(dumps(doc, pretty=getattr(args, "pretty", False)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
