"""Reach gate: every function in ``src/tdk`` is called by some program path.

Run from the repository root:

    PYTHONPATH=src python scripts/reach.py

A ``sys.setprofile`` hook, installed before ``tdk`` is imported, records
every code object that Python calls while this script runs:

- the benchmark jobs and the O(n, n; Z) actions of
  ``scripts/workload_hashes.py``;
- ``tdk selftest``, through ``tdk.cli.run``;
- every demo under ``demos/``, with its output discarded;
- the golden corpus: ``outputs()`` and ``ring_models()`` of
  ``tests/test_golden.py``, loaded from its file.

The functions of ``src/tdk`` are read with ``ast``: every ``def``, methods
and nested functions included, named by module and ``__qualname__`` and
keyed by file and first line (that of the first decorator, as Python counts
it).  The script prints each one that nothing called, and exits 1 when one
of them is not in ``ALLOWED``, which says why each listed function may stay
unreached.  ``coverage`` is not a dependency, so this is stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tdk"

_RECORD = "part of the record protocol of tdk.errors; no program path compares, hashes or mutates one"
_SHOWN = "called only when an object is shown, in a debugger or a failing test's message"
_TRACER = "the benchmark tracer (benchmark/tracing.py) patches or reads it"

# function -> why it may be unreached by every program path above
ALLOWED = {
    "tdk.cli.main": "the console-script entry point; each path calls cli.run directly",
    "tdk.cli._build_parser": (
        "built only for argv the flag reader declines (help, abbreviations, = forms, "
        "--p -1, --, argument errors), which tests/test_cli.py runs"
    ),
    "tdk.__dir__": "module protocol of the lazy package namespace, called by dir(tdk)",
    "tdk.errors.Record.__repr__": _SHOWN,
    "tdk.exact_linalg.GroupHom.__repr__": _SHOWN,
    "tdk.exact_linalg.Subquotient.__repr__": _SHOWN,
    "tdk.space_model.DgRingModel.__repr__": _SHOWN,
    "tdk.torus_bundle.BundleModel.__repr__": _SHOWN,
    "tdk.tduality_core.Triple.__repr__": _SHOWN,
    "tdk.errors.Record._values": _RECORD,
    "tdk.errors.Record.__eq__": _RECORD,
    "tdk.errors.FrozenRecord.__hash__": _RECORD,
    "tdk.errors.FrozenRecord.__setattr__": _RECORD + "; it refuses the mutation",
    "tdk.errors.FrozenRecord.__delattr__": _RECORD + "; it refuses the deletion",
    "tdk.tduality_core.TripleReport.__bool__": "deleting it would make every report truthy",
    "tdk.twisted_cohomology.IsoReport.__bool__": "deleting it would make every report truthy",
    "tdk.torus_bundle.BundleModel.cohomology": (
        "the base-model name of a bundle's H^k, kept on the total_cohomology memo "
        "and on one tracer span (benchmark/tracing.py)"
    ),
    "tdk.exact_linalg._view": _TRACER,
    "tdk.exact_linalg.SmithForm.U": _TRACER,
    "tdk.exact_linalg.SmithForm.D": _TRACER,
    "tdk.exact_linalg.SmithForm.V": _TRACER,
    "tdk.twisted_cohomology.rational_kernel": _TRACER,
}


def functions(src=SRC):
    """{qualified name: (file path, first line)} for every ``def`` under ``src``."""
    out = {}
    for path in sorted(src.glob("*.py")):
        module = "tdk" if path.stem == "__init__" else f"tdk.{path.stem}"

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[f"{module}.{prefix}{child.name}"] = (str(path), first)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _exercise():
    """Run every program path of the module docstring."""
    hashes = _load("workload_hashes", ROOT / "scripts" / "workload_hashes.py")
    with tempfile.TemporaryDirectory() as workdir:
        _, failures = hashes.workload_hashes(workdir)
    if failures:
        raise SystemExit(f"reach: {len(failures)} benchmark jobs failed their oracle")
    hashes.onn_action_hashes()

    from tdk.cli import run

    if run(["selftest"])[0] != 0:
        raise SystemExit("reach: tdk selftest failed")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    golden = _load("test_golden", ROOT / "tests" / "test_golden.py")
    golden.outputs()
    golden.ring_models()


def main():
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    start = time.perf_counter()
    sys.setprofile(record)
    try:
        _exercise()
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    unreached = sorted(
        name for name, (path, line) in functions().items()
        if (os.path.realpath(path), line) not in reached
    )
    refused = [name for name in unreached if name not in ALLOWED]
    for name in unreached:
        print(f"never called: {name}" + (f" (allowed: {ALLOWED[name]})" if name in ALLOWED else ""))
    print(f"{len(unreached)} functions never called, {len(refused)} of them not allowed "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
