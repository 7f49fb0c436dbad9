"""``tdk cohomology`` loads no bundle module, and no scripted call loads argparse.

``tdk/__init__.py`` imports its names on first access, and ``serialize``
imports the bundle layers inside the readers of pairs and triples, so a
fresh interpreter that runs ``tdk cohomology`` on a simplicial or a
``dgring`` document never imports the bundle, T-duality, duality-group or
twisted-cohomology modules.  The documents are written here, outside that
interpreter.  ``tdk.cli`` imports argparse only for an argv that its flag
reader declines, so the argv forms the benchmark writes never load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import benchmark_forms
from test_golden import grid_doc
from tdk.serialize import dumps, space_to_doc
from tdk.space_model import builtin_space
from tdk.torus_bundle import build_bundle

SRC = Path(__file__).resolve().parents[1] / "src"
BUNDLE_MODULES = (
    "tdk.torus_bundle", "tdk.tduality_core", "tdk.duality_group", "tdk.twisted_cohomology",
)

SCRIPT = """
import json
import sys

from tdk.cli import run

code, report = run(["cohomology", "--base", sys.argv[1]])
print(json.dumps({{"code": code, "loaded": [m for m in {modules!r} if m in sys.modules]}}))
"""


def _document(kind):
    if kind == "grid":
        return grid_doc("klein", 4)
    return space_to_doc(build_bundle(builtin_space("sphere", {"k": 2}), [[3]]))


@pytest.mark.parametrize("kind", ["grid", "dgring"])
def test_cohomology_loads_no_bundle_module(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(dumps(_document(kind)))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(modules=BUNDLE_MODULES), str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}


def test_package_names_load_their_module_on_first_access():
    script = (
        "import sys, tdk\n"
        "print([m for m in sys.modules if m.startswith('tdk.')], tdk.verify_iso.__module__,\n"
        "      tdk.exact_linalg.__name__, 'tdk.twisted_cohomology' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "tdk.twisted_cohomology", "tdk.exact_linalg", "True"]


def test_every_exported_name_resolves_to_its_module():
    import tdk

    for name in tdk.__all__:
        value = getattr(tdk, name)
        if name in tdk._MODULES:
            assert value.__name__ == f"tdk.{name}"
        else:
            assert getattr(sys.modules[f"tdk.{tdk._EXPORTS[name]}"], name) is value
    assert set(dir(tdk)) >= set(tdk.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tdk.no_such_name


def test_the_benchmark_argv_forms_load_no_argparse(tmp_path):
    script = (
        "import json, sys\n"
        "from tdk.cli import run\n"
        "codes = [run(argv)[0] for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'argparse': 'argparse' in sys.modules}))"
    )
    forms = benchmark_forms(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(forms)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0] * len(forms), "argparse": False}
