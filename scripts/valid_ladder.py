"""Valid pairs over 4-dimensional product bases: every draw answered, each in under 2 s.

Run from the repository root:

    PYTHONPATH=src python scripts/valid_ladder.py

A ladder is a base, the product of two builtins, and a fiber dimension n.
Draw s of a ladder (s = 0..19) uses ``random.Random(s)``: each of the n
chern cocycles is an integer combination, coefficients in [-2, 2], of a
basis of ker d_2 on the base, and the flux one of a basis of the closed
cochains in F^2 C^3 of the total space.  A closed flux in F^2 has its class
in F^2 H^3, so every draw is a dualizable pair, and the paper's theorems fix
every answer:

- ``is_dualizable`` says yes;
- the triple that ``dualize`` builds passes ``validate_triple``;
- ``verify_iso`` says yes, as T is an isomorphism on twisted cohomology;
- ``extension_report`` says dualizable, and its torsor agrees with the
  page-3 cross-check.

Each draw runs in its own subprocess, one at a time, killed after 2 s.  The
script exits nonzero on a wrong answer on any ladder, or on a stall on a
gated ladder.  The ungated ladder is printed, not gated: some of its draws
still stall in Smith forms whose coefficients grow.
"""

import random
import subprocess
import sys
import time

LIMIT_S = 2.0
SEEDS = range(20)
LADDERS = {  # name: (first factor, second factor, n, gated)
    "T2xT2 n=2": (("torus", {"k": 2}), ("torus", {"k": 2}), 2, True),
    "HeisxT2 n=1": (("heisenberg", {"k": 1}), ("torus", {"k": 2}), 1, True),
    "HeisxT2 n=2": (("heisenberg", {"k": 1}), ("torus", {"k": 2}), 2, False),
}


def combination(rng, basis, length):
    """sum_j x_j basis_j with every x_j drawn from [-2, 2], as a list of ints."""
    out = [0] * length
    for col in basis:
        x = rng.randint(-2, 2)
        for r, y in col.items():
            out[r] += x * y
    return out


def run_draw(name, seed):
    """Run the pipeline on one draw, printing each stage as it starts; None iff every answer holds."""
    from tdk.exact_linalg import kernel_basis
    from tdk.space_model import Cocycle, builtin_space, product_model
    from tdk.tduality_core import Pair, dualize, extension_report, is_dualizable, validate_triple
    from tdk.torus_bundle import build_bundle
    from tdk.twisted_cohomology import verify_iso

    def stage(what):
        print(what, flush=True)

    (a, pa), (b, pb), n, _ = LADDERS[name]
    rng = random.Random(seed)
    stage("draw")
    base = product_model(builtin_space(a, pa), builtin_space(b, pb))
    cycles = kernel_basis(base.d_columns(2), base.dim(3))
    m = build_bundle(base, [combination(rng, cycles, base.dim(2)) for _ in range(n)])
    f2 = [i for i, (p, _, _) in enumerate(m.elements[3]) if p >= 2]
    d3 = m.d_columns(3)
    closed = kernel_basis([d3[i] for i in f2], m.dim(4))
    closed = [{f2[r]: x for r, x in col.items()} for col in closed]
    pair = Pair(m, Cocycle(3, combination(rng, closed, m.dim(3))))
    stage("is_dualizable")
    if not is_dualizable(pair)[0]:
        return "is_dualizable says no"
    stage("dualize")
    t = dualize(pair)
    stage("validate_triple")
    report = validate_triple(t)
    if not report.ok:
        return f"validate_triple fails: {report.failures()}"
    stage("verify_iso")
    iso = verify_iso(t)
    if not iso.ok:
        return f"verify_iso says no: {iso.reason}"
    stage("extension_report")
    report = extension_report(pair)
    if not (report.dualizable and report.agree):
        return "extension_report disagrees"
    stage("done")
    return None


def main():
    failed = False
    for name, (_, _, _, gated) in LADDERS.items():
        stalls, wrong, start = [], [], time.perf_counter()
        for seed in SEEDS:
            try:
                out = subprocess.run(
                    [sys.executable, __file__, name, str(seed)],
                    capture_output=True, text=True, timeout=LIMIT_S,
                )
            except subprocess.TimeoutExpired as e:
                out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout or ""
                stalls.append(f"{seed} ({(out.split() or ['start'])[-1]})")
                continue
            if out.returncode:
                last = (out.stdout.strip().splitlines() or [""])[-1]
                wrong.append(f"{seed}: {last} {out.stderr.strip()[-300:]}")
        elapsed = time.perf_counter() - start
        bad = wrong or (gated and stalls)
        failed |= bool(bad)
        verdict = ("FAILED" if bad else "ok") if gated else "not gated"
        print(f"{name}: {len(SEEDS) - len(stalls) - len(wrong)} of {len(SEEDS)} answered, "
              f"{len(stalls)} stalled past {LIMIT_S} s, {len(wrong)} wrong, "
              f"{elapsed:.1f} s, {verdict}")
        for line in [f"  stalled: seed {s}" for s in stalls] + [f"  wrong: seed {w}" for w in wrong]:
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        problem = run_draw(sys.argv[1], int(sys.argv[2]))
        if problem:
            print(problem)
        sys.exit(1 if problem else 0)
    sys.exit(main())
