"""Every O(n, n; Z) action on the gated triples prints the committed bytes.

No CLI verb reaches ``act_on_triple``, so the hash gate of the benchmark
jobs cannot see it.  ``scripts/workload_hashes.py`` acts by every element of
``generators(n)`` (and, for n = 2, two more shears) on the duals of the
dualizable fixture pairs and of four n = 2 pairs, on their ``h3_action``
and ``gauge_action`` images, and again on each result; it hashes
``triple_to_doc`` of each result, or the refusal, and compares with
``tests/golden/onn_actions.json``.  Regenerate that file with
``PYTHONPATH=src python scripts/workload_hashes.py --write`` only for an
intended change of output.
"""

import importlib.util
import json
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "workload_hashes.py"


def test_every_action_prints_the_committed_bytes():
    spec = importlib.util.spec_from_file_location("workload_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    start = time.perf_counter()
    hashes = module.onn_action_hashes()
    seconds = time.perf_counter() - start
    golden = json.loads(module.ACTIONS.read_text(encoding="utf-8"))
    assert sum(len(v) for v in golden.values()) == 1296
    assert module.moved_jobs(hashes, golden) == []
    assert seconds < 2
