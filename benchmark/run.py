"""Closed-loop benchmark of the ``tdk`` command line.

Run from the repository root:

    python3 benchmark/run.py --workload grid --seed 1 --seconds 20 --trace 0

One client in one process, no threads: a job is one ``tdk.cli.run(argv)``
call plus the compact JSON rendering of its report -- what one ``tdk``
invocation does once its imports are done -- and the next job starts when
the last one returns.  The workloads (``grid``, ``duality``, ``dgring``) and
their oracles are in ``workloads.py``.  Every document is written before
timing starts; jobs run in whole cycles, so each run has the same job mix,
until ``--seconds`` of job time and at least 100 jobs are done.

Job times are wall times scaled to a reference speed: each is multiplied by
REFERENCE_MS over the time of a fixed elimination run right before and after
the job (``reference_seconds``).  Shared hosts run the same code up to twice
as fast in some seconds as in others; the scaling keeps runs comparable.
The unscaled figures are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then the same cycles again with spans around every public
``tdk`` function (``tracing.py``), and reports per-layer metrics per traced
job plus the tracing overhead.  Either way the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "benchmark", ".work")

MIN_JOBS = 100  # the 90th percentile then has at least 10 samples above it
# cycles written before timing; a much faster program stops here early
CYCLE_CAP = {"grid": 60, "duality": 40, "dgring": 40}
SETUP_PROBES = 3  # before the jobs, and as many after
# median time to start Python and import numpy on the 2-vCPU x86-64 VM with
# Python 3.11 where the benchmark was tuned
STARTUP_REFERENCE_S = 0.25
# every module a verb imports, so the probe pays what any invocation pays
VERB_MODULES = (
    "tdk.cli", "tdk.serialize", "tdk.space_model", "tdk.torus_bundle",
    "tdk.tduality_core", "tdk.duality_group", "tdk.twisted_cohomology",
    "tdk.selftest",
)


def setup_times(probes, warm_up=False):
    """Times of fresh interpreters importing every verb module.

    Most of it is starting Python and importing numpy, tdk's one dependency,
    which runs at the host's varying speed; each probe is scaled by
    STARTUP_REFERENCE_S over the time of an interpreter that imports only
    numpy, started right before and after it.  Half the probes run before
    the jobs and half after.
    """
    env = dict(os.environ, PYTHONPATH=SRC)

    def wall(command):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds up to 50 ms steps
        subprocess.run([sys.executable, "-c", command], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    setup = "import " + ", ".join(VERB_MODULES)
    if warm_up:  # also writes the bytecode caches
        wall(setup)
    times = []
    before = wall("import numpy")
    for _ in range(probes):
        elapsed = wall(setup)
        after = wall("import numpy")
        times.append(elapsed * STARTUP_REFERENCE_S / ((before + after) / 2))
        before = after
    return times


# The reference: a fixed integer elimination, once on numpy object rows (as
# tdk eliminates today) and once on lists of Python ints, so that it slows
# down with the host as either kind of code does.  REFERENCE_MS is its median
# on the 2-vCPU x86-64 VM with Python 3.11 where the benchmark was tuned.
REFERENCE_MS = 2.4
_REFERENCE_MATRIX = [
    [((i * 37 + j * 101 + i * j * 7) * 2654435761 >> 7) % 7 - 3 for j in range(12)]
    for i in range(12)
]


def _eliminate(a, get, sub, swap):
    """Row-echelon form by Euclidean row steps and smallest pivots, as in SNF."""
    m, n = len(a), len(a[0])
    for t in range(min(m, n)):
        nonzero = [(abs(get(a, i, j)), i, j) for i in range(t, m) for j in range(t, n) if get(a, i, j)]
        if not nonzero:
            return
        _, pi, pj = min(nonzero)
        swap(a, t, pi, pj)
        i = t + 1
        while i < m:
            if get(a, i, t):
                sub(a, i, t, get(a, i, t) // get(a, t, t))
                if get(a, i, t):  # the remainder is the smaller pivot
                    swap(a, t, i, t)
                    continue
            i += 1


def _np_swap(a, t, i, j):
    a[[t, i], :] = a[[i, t], :]
    a[:, [t, j]] = a[:, [j, t]]


def _np_sub(a, i, t, q):
    a[i, :] = a[i, :] - q * a[t, :]


def _list_swap(a, t, i, j):
    a[t], a[i] = a[i], a[t]
    for row in a:
        row[t], row[j] = row[j], row[t]


def _list_sub(a, i, t, q):
    a[i] = [x - q * y for x, y in zip(a[i], a[t])]


def speed_scale(before, after):
    """Factor from wall time to reference-speed time, from the reference
    timed just before and just after the measured interval."""
    return REFERENCE_MS / 1000 / ((before + after) / 2)


def reference_seconds():
    """Wall time of the reference elimination, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _eliminate(np.array(_REFERENCE_MATRIX, dtype=object),
                   lambda a, i, j: a[i, j], _np_sub, _np_swap)
        _eliminate([list(r) for r in _REFERENCE_MATRIX],
                   lambda a, i, j: a[i][j], _list_sub, _list_swap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def write_docs(cycles, workdir):
    """Write each cycle's documents as it is generated, keeping only the paths.

    The documents are dropped once written, so they do not count towards the
    program's peak memory.
    """
    out = []
    for c, jobs in enumerate(cycles):
        paths = []
        for j, job in enumerate(jobs):
            files = {}
            for name, doc in job.docs.items():
                path = os.path.join(workdir, f"c{c}-j{j}-{name}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
                files[name] = path
            job.docs = None
            paths.append(files)
        out.append((jobs, paths))
    return out


@dataclass
class Result:
    job: workloads.Job
    code: int | None
    report: dict
    seconds: float  # wall time
    scaled: float  # wall time at the reference speed


class Loop:
    """Runs whole cycles back to back, timing each job."""

    def __init__(self, cycles):
        from tdk import cli, serialize

        self.cli, self.serialize = cli, serialize
        self.cycles = cycles  # [(jobs, file paths per job)]
        self.next = 0
        self.rss_mb = None

    def run(self, seconds, min_jobs, tracer=None, max_cycles=None):
        """Whole cycles until ``seconds`` of job time and ``min_jobs`` jobs."""
        results = []
        busy = 0.0
        done = 0
        reference = reference_seconds()
        while self.next < len(self.cycles) and (max_cycles is None or done < max_cycles):
            if max_cycles is None and busy >= seconds and len(results) >= min_jobs:
                break
            for job, files in zip(*self.cycles[self.next]):
                if tracer is not None:
                    tracer.job += 1
                argv = job.argv(files)
                start = time.perf_counter()
                try:
                    # looked up per call, so trace wrappers take effect
                    code, report = self.cli.run(argv)
                    self.serialize.dumps(report)
                except Exception as exc:  # a crash is a failed job, not an abort
                    code, report = None, {"error": f"{type(exc).__name__}: {exc}"}
                elapsed = time.perf_counter() - start
                after = reference_seconds()
                scaled = elapsed * speed_scale(reference, after)
                reference = after
                busy += elapsed
                results.append(Result(job, code, report, elapsed, scaled))
            self.next += 1
            done += 1
            if self.rss_mb is None and len(results) >= min_jobs:
                # peak after a fixed amount of work, so a faster program that
                # completes more jobs in the same time is not charged for it
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return results, done


def check_all(results, workdir):
    """Oracle verdicts; returns the list of (job, reason) that failed."""
    from tdk.cli import run

    def follow_up(verb, doc):
        path = os.path.join(workdir, "follow-up.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return run([verb, "--triple", path])

    failures = []
    for r in results:
        reason = workloads.check(r.job, r.code, r.report, follow_up)
        if reason is not None:
            failures.append((r.job, reason))
    return failures


def timing_metrics(times):
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_ms.p50": 1000 * statistics.median(times),
        "job_ms.p90": 1000 * statistics.quantiles(times, n=10)[-1],
    }


def print_sizes(results, out):
    """Scaling diagnostic (outside the gate): median job time per size class."""
    by_size = {}
    for r in results:
        verb = "" if r.job.verb == "cohomology" else r.job.verb
        by_size.setdefault(f"{verb} {r.job.size}".strip(), []).append(r.scaled)
    print("size class: job_ms.p50 (jobs)", file=out)
    for label, times in sorted(by_size.items()):
        print(f"  {label:34s} {1000 * statistics.median(times):9.1f} ms ({len(times)})", file=out)


def bundle_oracle(workdir):
    """Expected H* of a dgring document: ``tdk bundle`` on its base and chern data."""
    from tdk.cli import run

    def cohomology(key, n, chern):
        path = os.path.join(workdir, f"oracle-{key}-{n}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(workloads.chern_doc(chern), handle)
        code, report = run(workloads.bundle_args(key, path))
        if code != 0:
            raise RuntimeError(f"tdk bundle refused {key} n={n}: {report}")
        return report["total_cohomology"]

    return cohomology


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tdk", "cli.py")):
        print(f"benchmark: no tdk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tdk

    if not os.path.abspath(tdk.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported tdk from {tdk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for name in VERB_MODULES:
        __import__(name)

    setup = setup_times(SETUP_PROBES, warm_up=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, setup, workdir):
    cycles = workloads.generate(
        args.workload, args.seed, CYCLE_CAP[args.workload], bundle_oracle(workdir)
    )
    loop = Loop(write_docs(cycles, workdir))
    out = sys.stdout

    if not args.trace:
        results, done = loop.run(args.seconds, MIN_JOBS)
        failures = check_all(results, workdir)
        metrics = timing_metrics([r.scaled for r in results])
        raw = timing_metrics([r.seconds for r in results])
        metrics["setup_s"] = statistics.median(setup + setup_times(SETUP_PROBES))
        metrics["peak_rss_mb"] = loop.rss_mb
        units = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        report = {k: (v, units[k]) for k, v in metrics.items()}
        print(f"{args.workload}: {len(results)} jobs in {done} cycles; "
              f"job_ms.p90 over {len(results)} samples", file=out)
        print("unscaled wall time: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()), file=out)
    else:
        half = args.seconds / 2
        plain, plain_cycles = loop.run(half, 1)
        loop.next = 0  # the same documents again, so only the tracing differs
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = loop.run(half, 1, tracer=tracer, max_cycles=plain_cycles)
        finally:
            tracer.uninstall()
        results = plain + traced
        failures = check_all(results, workdir)
        report = tracer.summary([r.scaled / r.seconds for r in traced])
        overhead = 1 - (
            timing_metrics([r.scaled for r in traced])["jobs_per_s"]
            / timing_metrics([r.scaled for r in plain])["jobs_per_s"]
        )
        report["trace.overhead"] = (overhead, "ratio")
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
        print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced jobs; "
              f"self-time share of traced job time per module:", file=out)
        busy = sum(r.seconds for r in traced)
        for module, share in tracer.module_shares(busy).items():
            print(f"  {module:20s} {100 * share:6.1f} %", file=out)

    attempted, failed = len(results), len(failures)
    print_sizes(results, out)
    for job, reason in failures[:10]:
        print(f"FAILED {job.verb} {job.size}: {reason}", file=out)
    for name, (value, unit) in report.items():
        print(f"  {name:42s} {value:14.4f} {unit}", file=out)
    print(f"  {'fail_share':42s} {failed / attempted:14.4f} ratio", file=out)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
