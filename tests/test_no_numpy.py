"""``tdk`` runs without importing numpy.

Matrices are sparse integer columns and vectors lists of ints throughout;
only the Smith-factor views that the benchmark tracer reads
(``SmithForm.U``, ``.D``, ``.V``) import numpy, on first read.  A fresh
interpreter imports every module a verb imports and runs one job of each
kind of verb, then must not have numpy loaded.  The documents are written
here, outside that interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import grid_doc
from tdk.fixtures import named_pair
from tdk.serialize import dumps, pair_to_doc, triple_to_doc
from tdk.tduality_core import dualize

SRC = Path(__file__).resolve().parents[1] / "src"

# every module a verb imports, as the benchmark's setup probe lists them
VERB_MODULES = (
    "tdk.cli", "tdk.serialize", "tdk.space_model", "tdk.torus_bundle",
    "tdk.tduality_core", "tdk.duality_group", "tdk.twisted_cohomology",
    "tdk.selftest",
)

SCRIPT = """
import json
import sys

for name in {modules!r}:
    __import__(name)
from tdk.cli import run

codes = [run(argv)[0] for argv in json.loads(sys.argv[1])]
print(json.dumps({{"codes": codes, "numpy": "numpy" in sys.modules}}))
"""


def test_verbs_run_without_importing_numpy(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(dumps(doc))
        return str(path)

    lens = ["--builtin", "sphere", "--params", '{"k": "2"}', "--chern", write("c.json", [["3"]])]
    pair = write("pair.json", pair_to_doc(named_pair("hopf_k2")))
    triple = write("triple.json", triple_to_doc(dualize(named_pair("hopf_k2"))))
    flip = write("flip.json", {"n": "1", "matrix": [["0", "1"], ["1", "0"]]})
    jobs = [
        ["cohomology", "--base", write("klein.json", grid_doc("klein", 4))],
        ["bundle", *lens],
        ["dualize", "--pair", pair],
        ["extensions", "--pair", pair],
        ["tmap", "--triple", triple],
        ["ss", *lens, "--page", "3"],
        ["onn", "--check", flip],
        ["selftest"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(modules=VERB_MODULES), json.dumps(jobs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(jobs)
    assert result["numpy"] is False
