"""Byte-identity gates: one short hash per benchmark job and per O(n, n; Z) action.

Run from the repository root:

    PYTHONPATH=src python scripts/workload_hashes.py --check
    PYTHONPATH=src python scripts/workload_hashes.py --write

The jobs are the first two cycles of every benchmark workload on seeds 1
and 2, generated by ``benchmark/workloads.py`` (imported from its file, never
edited).  Each job runs ``tdk.cli.run`` in this process; its hash covers the
exit code and the bytes ``tdk`` would print.  No job's output names the
temporary directory that holds its documents.  Every answer is also held to
the workload's oracle, with ``check-triple`` run on each ``dualize`` output.

No verb reaches ``act_on_triple``, so its results are gated on their own
(:func:`onn_action_hashes`): one hash of ``triple_to_doc`` of each result,
or of the refusal, for every generator acting on a fixed set of triples and
again on each result.

``--check`` compares the hashes with ``tests/golden/workload_hashes.json``
and ``tests/golden/onn_actions.json`` and lists the jobs and actions whose
bytes moved.  ``--write`` rewrites both files: use it only for an intended
change of output, and say which in the change's description.
``tests/test_workload_hashes.py`` and ``tests/test_onn_actions.py`` run the
same checks.
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
from tdk.duality_group import act_on_triple, generators, shear_element
from tdk.errors import TdkError
from tdk.exact_linalg import dense_vector, kernel_basis
from tdk.fixtures import PAIR_NAMES, named_pair
from tdk.serialize import dumps, triple_to_doc
from tdk.space_model import Cocycle, builtin_space
from tdk.tduality_core import Pair, dualize, gauge_action, h3_action, is_dualizable
from tdk.torus_bundle import build_bundle

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "workload_hashes.json"
ACTIONS = ROOT / "tests" / "golden" / "onn_actions.json"
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


def _closed(base, k):
    """A basis of the closed degree-k cochains of ``base``, as lists."""
    return [dense_vector(c, base.dim(k)) for c in kernel_basis(base.d_columns(k), base.dim(k + 1))]


def _n2_dual(name, params):
    """The dual of an n = 2 pair over a builtin base, chern (c_0, c_last) and flux
    c_last . y1 + c_0 . y2 for a basis c of the closed degree-2 cochains.  These
    bases have no degree-4 cochains, so the flux is closed."""
    base = builtin_space(name, params)
    closed = _closed(base, 2)
    m = build_bundle(base, [closed[0], closed[-1]])
    return dualize(Pair(m, Cocycle(3, m.normal_form_vector([closed[-1], closed[0]]))))


def action_triples():
    """{label: triple}: the duals of the dualizable fixture pairs and four n = 2
    duals, each with its ``h3_action`` image (by the sum of a basis of the closed
    degree-3 base cochains) and its ``gauge_action`` image (by closed degree-1
    cochains, taken in turn from a basis)."""
    starts = {name: dualize(named_pair(name)) for name in PAIR_NAMES
              if is_dualizable(named_pair(name))[0]}
    starts.update({
        "torus2_n2": _n2_dual("torus", {"k": 2}),
        "torus3_n2": _n2_dual("torus", {"k": 3}),
        "surface2_n2": _n2_dual("surface", {"genus": 2}),
        "heisenberg_n2": _n2_dual("heisenberg", {"k": 1}),
    })
    triples = {}
    for label, t in starts.items():
        base = t.base
        alpha = [sum(xs) for xs in zip(*_closed(base, 3))] or base.zero_vector(3)
        ones = _closed(base, 1) or [base.zero_vector(1)]
        psis = [ones[i % len(ones)] for i in range(t.n)]
        psihats = [ones[(i + 1) % len(ones)] for i in range(t.n)]
        triples[label] = t
        triples[f"{label}/h3"] = h3_action(t, Cocycle(3, alpha))
        triples[f"{label}/gauge"] = gauge_action(t, psis, psihats)
    return triples


def group_elements(n):
    """``generators(n)``, and for n = 2 the shears of weight 2 and -3."""
    shears = [shear_element(2, [{1: b}, {0: -b}]) for b in (2, -3)] if n == 2 else []
    return generators(n) + shears


def _act(g, t):
    """(triple, hash) of ``act_on_triple(g, t)``, or (None, hash of the refusal)."""
    try:
        out = act_on_triple(g, t)
        text = dumps(triple_to_doc(out))
    except TdkError as err:
        out, text = None, f"{type(err).__name__}: {err}"
    return out, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def onn_action_hashes():
    """{label: [hash per action]}: each element of ``group_elements`` acting on
    the triple, each followed by every element acting on that result."""
    hashes = {}
    for label, t in action_triples().items():
        elements = group_elements(t.n)
        hashes[label] = []
        for g in elements:
            out, first = _act(g, t)
            hashes[label].append(first)
            if out is not None:
                hashes[label] += [_act(h, out)[1] for h in elements]
    return hashes


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
    actions = onn_action_hashes()
    for key, j, reason in failures:
        print(f"oracle failure {key}#{j}: {reason}")
    total = sum(len(v) for v in hashes.values())
    acted = sum(len(v) for v in actions.values())
    if args.write and not failures:
        for path, doc in ((GOLDEN, hashes), (ACTIONS, actions)):
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {total} job hashes to {GOLDEN.relative_to(ROOT)} "
              f"and {acted} action hashes to {ACTIONS.relative_to(ROOT)}")
        return 0
    if args.write:
        print("nothing written: a job failed its oracle")
        return 1
    moved = moved_jobs(hashes, json.loads(GOLDEN.read_text(encoding="utf-8")))
    moved_actions = moved_jobs(actions, json.loads(ACTIONS.read_text(encoding="utf-8")))
    for job in moved + moved_actions:
        print(f"bytes moved: {job}")
    print(f"{total} jobs, {len(moved)} moved, {len(failures)} oracle failures; "
          f"{acted} actions, {len(moved_actions)} moved")
    return 1 if moved or moved_actions or failures else 0


if __name__ == "__main__":
    sys.exit(main())
