"""Scale check: the verbs that build a triple over a point with many circles,
each in its own process, within the time and memory targets below.

Run from the repository root:

    PYTHONPATH=src python scripts/doubled_scale.py

The pair is the trivial T^n-bundle over a point with zero flux.  Its dual's
doubled model has 4^n basis elements, but no verb reads more of it than
degrees 2 and 3, and on the standard w the transformation is written by
Hori's formula, with no product in that model.  The script runs
``tdk dualize`` at n = 10 and n = 12, then ``tdk check-triple`` and
``tdk tmap`` on the n = 10 dual that ``dualize`` printed.

Each run is a child ``python -c`` that imports ``tdk.cli``, runs ``main``
on the verb's argv and reports the time of ``main`` (it reads the
document, runs the verb and prints its output) and its own peak RSS
(``ru_maxrss``).  Starting the interpreter and importing ``tdk`` are not
timed, as they do not grow with n.  The child is killed after
``TIMEOUT_S``, and its address space is capped at ``ADDRESS_SPACE_MB`` by
``RLIMIT_AS``, set in the child before it starts, so a run that builds the
whole doubled model fails fast instead of filling the machine.  The check fails on a nonzero exit, a wrong
answer, a kill, or a time or peak RSS over the run's target.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile

from tdk.serialize import pair_to_doc
from tdk.space_model import Cocycle, builtin_space
from tdk.tduality_core import Pair
from tdk.torus_bundle import build_bundle

TIMEOUT_S = 10.0
ADDRESS_SPACE_MB = 1024
CHILD = """\
import resource, sys, time
from tdk.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
seconds = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.stderr.write(f"{seconds} {peak_kb}\\n")
sys.exit(code)
"""
# (label, argv with {pair10}, {pair12} and {dual10} for the document paths,
#  targets in s and MB, the key and value that the printed document must hold)
RUNS = [
    ("dualize n=10", ["dualize", "--pair", "{pair10}"], 0.05, 40, ("format", "triple")),
    ("dualize n=12", ["dualize", "--pair", "{pair12}"], 0.1, 50, ("format", "triple")),
    ("check-triple n=10", ["check-triple", "--triple", "{dual10}"], 0.2, 60, ("valid", True)),
    ("tmap n=10", ["tmap", "--triple", "{dual10}"], 0.2, 60, ("isomorphism", True)),
]


def pair_document(n):
    """The trivial T^n-bundle over a point with zero flux, as a pair document."""
    m = build_bundle(builtin_space("point"), [[]] * n)
    return pair_to_doc(Pair(m, Cocycle(3, m.zero_vector(3))))


def cap_address_space():
    limit = ADDRESS_SPACE_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_child(argv):
    """(exit code, stdout, seconds, peak MB) of one verb in a child; None for the
    last two when the child was killed or reported nothing."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
            timeout=TIMEOUT_S, preexec_fn=cap_address_space,
        )
    except subprocess.TimeoutExpired:
        return None, "", None, None
    try:
        seconds, peak_kb = proc.stderr.split()[-2:]
        return proc.returncode, proc.stdout, float(seconds), int(peak_kb) / 1024
    except ValueError:  # no report: the child failed before main returned
        return proc.returncode, proc.stdout, None, None


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        paths = {f"pair{n}": os.path.join(tmp, f"pair{n}.json") for n in (10, 12)}
        paths["dual10"] = os.path.join(tmp, "dual10.json")
        for n in (10, 12):
            with open(paths[f"pair{n}"], "w", encoding="utf-8") as handle:
                json.dump(pair_document(n), handle)
        for label, argv, limit_s, limit_mb, (key, value) in RUNS:
            code, out, seconds, peak_mb = run_child([a.format(**paths) for a in argv])
            if label == "dualize n=10" and code == 0:
                with open(paths["dual10"], "w", encoding="utf-8") as handle:
                    handle.write(out)
            answered = code == 0 and json.loads(out).get(key) == value
            ok = answered and seconds is not None and seconds < limit_s and peak_mb < limit_mb
            failed |= not ok
            if seconds is None:
                measured = "killed" if code is None else f"exit {code}, no report"
            else:
                measured = (f"exit {code}, {seconds:.3f} s (< {limit_s}), "
                            f"{peak_mb:.1f} MB (< {limit_mb})")
            print(f"{label}: {measured}, {'ok' if ok else 'FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
