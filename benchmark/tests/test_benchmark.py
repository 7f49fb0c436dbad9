"""Tests of the benchmark itself: generator, oracles, tracing, self time.

Run from the repository root:  python -m pytest -q benchmark/tests
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tdk import cli, exact_linalg, space_model  # noqa: E402


def fake_oracle(key, n, chern):
    return {"0": {"rank": "1", "torsion": []}}


def texts(cycles):
    return [json.dumps(job.docs, sort_keys=True) for jobs in cycles for job in jobs]


def job_inputs(cycles):
    return [(tuple(job.args), json.dumps(job.docs, sort_keys=True)) for jobs in cycles for job in jobs]


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    a = list(workloads.generate(workload, 7, 2, fake_oracle))
    b = list(workloads.generate(workload, 7, 2, fake_oracle))
    c = list(workloads.generate(workload, 8, 2, fake_oracle))
    assert texts(a) == texts(b)
    assert [j.expect for cy in a for j in cy] == [j.expect for cy in b for j in cy]
    assert texts(a) != texts(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_jobs_share_an_input(workload):
    cycles = list(workloads.generate(workload, 3, 6, fake_oracle))
    inputs = job_inputs(cycles)
    assert len(set(inputs)) == len(inputs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    cycles = list(workloads.generate(workload, 5, 3, fake_oracle))
    mixes = [sorted((j.verb, j.size.replace("klein m=5", "torus m=5")) for j in cy) for cy in cycles]
    assert mixes[0] == mixes[1] == mixes[2]


def test_grid_facets_are_distinct_triangles():
    for m in (3, 4, 5):
        for klein in (False, True):
            facets = {tuple(sorted(f)) for f in workloads.grid_facets(m, klein)}
            assert len(facets) == 2 * m * m


# ---------------------------------------------------------------------------
# oracles, on real reports of small jobs and on tampered copies


def small_jobs(tmp_path):
    """Cheap jobs of every verb, each with the report tdk gives for it."""
    rng = random.Random(0)
    unique = workloads._Unique()
    jobs = [workloads.grid_job(rng, "klein", 3, unique), workloads.grid_job(rng, "torus", 3, unique)]
    for verb in workloads.DUALITY_VERBS:
        jobs.append(workloads.duality_job(rng, verb, "torus2", 1, unique))
        jobs.append(workloads.duality_job(rng, verb, "heisenberg", 1, unique))
    for verb in workloads.PAIR_VERBS:
        jobs.append(workloads.duality_job(rng, verb, "torus2", 2, unique, dualizable=False))
    jobs += [workloads.onn_job(rng, 2, True, unique), workloads.onn_job(rng, 3, False, unique)]

    def bundle_cohomology(key, n, chern):
        path = tmp_path / f"chern-{key}-{n}.json"
        path.write_text(json.dumps(workloads.chern_doc(chern)))
        code, report = cli.run(workloads.bundle_args(key, str(path)))
        assert code == 0
        return report["total_cohomology"]

    classes = [
        c for c in workloads.dgring_classes(rng, bundle_cohomology) if c[0] in ("torus2", "surface2")
    ]
    jobs += workloads.dgring_cycle(rng, classes, unique)

    out = []
    for i, job in enumerate(jobs):
        paths = {}
        for name, doc in job.docs.items():
            path = tmp_path / f"{i}-{name}.json"
            path.write_text(json.dumps(doc))
            paths[name] = str(path)
        code, report = cli.run(job.argv(paths))
        out.append((job, code, report))
    return out


def follow_up_for(tmp_path):
    def follow_up(verb, doc):
        path = tmp_path / "follow-up.json"
        path.write_text(json.dumps(doc))
        return cli.run([verb, "--triple", str(path)])

    return follow_up


def tamper(job, report):
    """A copy of a correct report with one answer changed."""
    bad = copy.deepcopy(report)
    verb = job.verb
    if verb == "cohomology":
        bad["cohomology"]["1"]["rank"] = str(int(bad["cohomology"]["1"]["rank"]) + 1)
    elif verb == "bundle":
        bad["total_cohomology"]["1"]["rank"] = str(int(bad["total_cohomology"]["1"]["rank"]) + 1)
    elif verb == "ss":
        bad["slots"][-1]["group"]["rank"] = str(int(bad["slots"][-1]["group"]["rank"]) + 1)
    elif verb in ("dualizable", "extensions") and "groups_agree" not in bad:
        bad["dualizable"] = not bad["dualizable"]
    elif verb == "extensions":
        bad["groups_agree"] = False
    elif verb == "dualize" and "chern" in bad:
        bad["chern"] = [[str(int(x) + 1) for x in z] for z in bad["chern"]]
    elif verb == "dualize":
        bad["dualizable"] = True
    elif verb == "check-triple":
        bad["valid"] = False
    elif verb == "tmap":
        bad["dims_dual"] = [str(int(x) + 1) for x in bad["dims_dual"]]
    elif verb == "twisted":
        bad["odd"] = str(int(bad["odd"]) + 1)
    elif verb == "onn":
        bad["member"] = not bad["member"]
    return bad


def test_oracles_accept_true_answers_and_flag_tampered_ones(tmp_path):
    follow_up = follow_up_for(tmp_path)
    results = small_jobs(tmp_path)
    verbs = {job.verb for job, _, _ in results}
    assert verbs == {"cohomology", "onn", *workloads.DUALITY_VERBS}
    assert {code for _, code, _ in results} == {0, 1, 2}
    for job, code, report in results:
        assert workloads.check(job, code, report, follow_up) is None, (job.verb, job.size, report)
        wrong_code = 1 if code != 1 else 0
        assert workloads.check(job, wrong_code, report, follow_up) is not None
        if code != 2:
            assert workloads.check(job, code, tamper(job, report), follow_up) is not None, job.verb


def test_dualize_oracle_uses_check_triple(tmp_path):
    for job, code, report in small_jobs(tmp_path):
        if job.verb == "dualize" and code == 0:
            assert workloads.check(job, code, report, lambda verb, doc: (1, {"valid": False}))
            assert workloads.check(job, code, report, lambda verb, doc: (0, {"valid": True})) is None


def test_a_job_that_raises_or_crashes_fails():
    job = workloads.grid_job(random.Random(1), "torus", 3, workloads._Unique())
    assert workloads.check(job, None, {"error": "boom"}) is not None
    assert workloads.check(job, 0, {"kind": "simplicial"}) is not None


def test_corruptions_break_validation():
    rng = random.Random(2)
    classes = workloads.dgring_classes(rng, fake_oracle)
    for key, n, doc, _ in classes[:6]:
        for _ in range(4):
            bad, how = workloads.corrupt_dgring(rng, workloads.permute_dgring(rng, doc))
            with pytest.raises(space_model.ModelError):
                space_model.parse_space(bad)


# ---------------------------------------------------------------------------
# tracing


def test_self_time_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
        ["overlap", 3.0, 6.0, 0, 0],  # covers 4..5 beyond its siblings
    ]
    assert tracing.self_times(spans) == [10 - 8, 3, 3, 1, 3]


def test_tracer_patches_every_binding_and_restores_it(tmp_path):
    originals = (exact_linalg.solve, space_model.subquotient, space_model.DgRingModel.validate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert exact_linalg.solve is not originals[0]
        assert space_model.subquotient is not originals[1]
        assert space_model.DgRingModel.validate is not originals[2]
        path = tmp_path / "space.json"
        job = workloads.grid_job(random.Random(1), "klein", 3, workloads._Unique())
        path.write_text(json.dumps(job.docs["space"]))
        tracer.job += 1
        code, _ = cli.run(["cohomology", "--base", str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (exact_linalg.solve, space_model.subquotient, space_model.DgRingModel.validate) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.run" and "exact_linalg.snf" in names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))
    summary = tracer.summary([1.0])
    assert summary["exact_linalg.subquotient.calls"][0] == 3  # H^0, H^1, H^2
    assert summary["exact_linalg.snf.calls"][0] > 0
    assert set(summary) == {name for name, _, _ in tracing.LAYER_METRICS}


# ---------------------------------------------------------------------------
# the runner outside a checkout


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
