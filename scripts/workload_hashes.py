"""Byte-identity gate: one short hash of exit code and stdout per benchmark job.

Run from the repository root:

    PYTHONPATH=src python scripts/workload_hashes.py --check
    PYTHONPATH=src python scripts/workload_hashes.py --write

The jobs are the first two cycles of every benchmark workload on seeds 1
and 2, generated by ``benchmark/workloads.py`` (imported from its file, never
edited).  Each job runs ``tdk.cli.run`` in this process; its hash covers the
exit code and the bytes ``tdk`` would print.  No job's output names the
temporary directory that holds its documents.  Every answer is also held to
the workload's oracle, with ``check-triple`` run on each ``dualize`` output.

``--check`` compares the hashes with ``tests/golden/workload_hashes.json``
and lists the jobs whose bytes moved.  ``--write`` rewrites that file: use
it only for an intended change of output, and say which in the change's
description.  ``tests/test_workload_hashes.py`` runs the same check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from tdk.cli import run
from tdk.serialize import dumps

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "workload_hashes.json"
SEEDS = (1, 2)
CYCLES = 2


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmark" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def job_hash(code, doc):
    """Short sha256 of the exit code and of what ``tdk`` prints for ``doc``."""
    stdout = dumps(doc) + "\n" if doc else ""
    return hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()[:16]


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return str(path)


def workload_hashes(workdir):
    """({"<workload>:<seed>": [hash per job]}, [(key, job index, reason)] of oracle failures)."""
    workloads = load_workloads()

    def bundle_cohomology(key, n, chern):
        path = _write(os.path.join(workdir, f"oracle-{key}-{n}.json"), workloads.chern_doc(chern))
        code, report = run(workloads.bundle_args(key, path))
        if code != 0:
            raise RuntimeError(f"tdk bundle refused {key} n={n}: {report}")
        return report["total_cohomology"]

    def follow_up(verb, doc):
        return run([verb, "--triple", _write(os.path.join(workdir, "follow-up.json"), doc)])

    hashes, failures = {}, []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            key = f"{workload}:{seed}"
            jobs = [job for cycle in workloads.generate(workload, seed, CYCLES, bundle_cohomology)
                    for job in cycle]
            hashes[key] = []
            for j, job in enumerate(jobs):
                stem = os.path.join(workdir, f"{workload}-{seed}-{j}")
                paths = {name: _write(f"{stem}-{name}.json", doc)
                         for name, doc in job.docs.items()}
                code, report = run(job.argv(paths))
                hashes[key].append(job_hash(code, report))
                reason = workloads.check(job, code, report, follow_up)
                if reason is not None:
                    failures.append((key, j, reason))
    return hashes, failures


def moved_jobs(hashes, golden):
    """Jobs whose hash differs from the committed one, as "<workload>:<seed>#<index>"."""
    return [f"{key}#{j}"
            for key in sorted(set(hashes) | set(golden))
            for j, (new, old) in enumerate(zip_longest(hashes.get(key, []), golden.get(key, [])))
            if new != old]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the committed hashes")
    mode.add_argument("--check", action="store_true", help="compare with the committed hashes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        hashes, failures = workload_hashes(workdir)
    for key, j, reason in failures:
        print(f"oracle failure {key}#{j}: {reason}")
    total = sum(len(v) for v in hashes.values())
    if args.write and not failures:
        GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {total} hashes to {GOLDEN.relative_to(ROOT)}")
        return 0
    if args.write:
        print("nothing written: a job failed its oracle")
        return 1
    moved = moved_jobs(hashes, json.loads(GOLDEN.read_text(encoding="utf-8")))
    for job in moved:
        print(f"bytes moved: {job}")
    print(f"{total} jobs, {len(moved)} moved, {len(failures)} oracle failures")
    return 1 if moved or failures else 0


if __name__ == "__main__":
    sys.exit(main())
