"""Every benchmark job prints the committed bytes, and every answer passes its oracle.

The jobs are the first two cycles of each workload of ``benchmark/`` on
seeds 1 and 2 (680 jobs), run through ``tdk.cli.run``.  Their exit codes
and standard output are hashed by ``scripts/workload_hashes.py`` and compared
with ``tests/golden/workload_hashes.json``; every report is also held to the
workload's oracle, with ``check-triple`` on each ``dualize`` output.  Both
files are imported from their paths and only read.  Regenerate the hashes
with ``PYTHONPATH=src python scripts/workload_hashes.py --write`` only for an
intended change of output, and say which in the change's description.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "workload_hashes.py"


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("workload_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hashes, failures = module.workload_hashes(tmp_path_factory.mktemp("workloads"))
    return module, hashes, failures


def test_every_job_passes_its_oracle(gate):
    _, _, failures = gate
    assert failures == []


def test_every_job_prints_the_committed_bytes(gate):
    module, hashes, _ = gate
    golden = json.loads(module.GOLDEN.read_text(encoding="utf-8"))
    assert sum(len(v) for v in golden.values()) == 680
    assert module.moved_jobs(hashes, golden) == []
