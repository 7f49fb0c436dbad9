"""Seeded job lists and oracles for the tdk benchmark.

A workload is a list of *cycles*.  A cycle is a fixed multiset of jobs: the
same verbs on the same size classes for every seed, in an order the seed
shuffles.  The runner measures whole cycles only, so every run sees the same
job mix, whatever its seed and however many cycles a faster program fits in.

A job is one CLI invocation on documents of its own.  The seed fixes vertex
labels, chern data, fluxes, basis permutations and corruptions, and no two
jobs of a run share a document (a cross-job cache inside one process would
give a real one-process-per-invocation user nothing).

Expected answers come from how each document was built -- known invariants,
the filtration step the flux was put in, Euler characteristics, group
membership by construction -- never from an earlier run of the program.  The
one exception is the ``dgring`` workload, whose expected H* is the answer of
``tdk bundle`` on the same base and chern data, computed before timing.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid", "duality", "dgring")

# builtin base models: (builtin name, params, cochain dimensions per degree)
BASES = {
    "torus2": ("torus", {"k": 2}, [1, 2, 1]),
    "torus3": ("torus", {"k": 3}, [1, 3, 3, 1]),
    "surface2": ("surface", {"genus": 2}, [1, 4, 1]),
    "surface3": ("surface", {"genus": 3}, [1, 6, 1]),
    "surface4": ("surface", {"genus": 4}, [1, 8, 1]),
    "surface5": ("surface", {"genus": 5}, [1, 10, 1]),
    "heisenberg": ("heisenberg", {"k": 1}, [1, 3, 3, 1]),
}

# bases whose cochains vanish in degree 3, so a degree-1 base class times
# y_1 y_2 is a closed flux that survives to E_infinity^{1,2}
_NO_DEGREE_3 = ("torus2", "surface2", "surface3", "surface4")


@dataclass
class Job:
    """One CLI invocation: ``tdk <verb> <args>`` on documents of its own.

    ``args`` names files as ``@name``, each a key of ``docs``; ``expect``
    holds what the oracle compares the exit code and report against.
    """

    verb: str
    args: list
    docs: dict
    size: str
    expect: dict = field(default_factory=dict)

    def argv(self, paths):
        return [self.verb] + [paths[a[1:]] if a.startswith("@") else a for a in self.args]


# ---------------------------------------------------------------------------
# shared document helpers


def _s(values):
    return [str(v) for v in values]


def _group(rank, torsion=()):
    return {"rank": str(rank), "torsion": [str(d) for d in torsion]}


def _vector(rng, length, spread=2, nonzero=False):
    while True:
        v = [rng.randint(-spread, spread) for _ in range(length)]
        if not nonzero or any(v):
            return v


def _spread(entries):
    """Coefficient bound giving a document with ``entries`` free integers
    at least 10^4 possible values, so distinct documents stay plentiful."""
    spread = 2
    while (2 * spread + 1) ** entries < 10**4:
        spread += 1
    return spread


def total_basis(dims, n, k):
    """Basis of total degree k of a bundle model over a base with ``dims``.

    The order is the documented one of ``tdk``'s bundle models: base degree
    p, then base index, then the fiber monomial as a sorted index tuple.
    """
    out = []
    for p in range(min(k, len(dims) - 1) + 1):
        if 0 <= k - p <= n:
            for a in range(dims[p]):
                for S in itertools.combinations(range(n), k - p):
                    out.append((p, a, S))
    return out


def _builtin_doc(key):
    name, params, _ = BASES[key]
    return {"format": "builtin", "name": name, "params": {k: str(v) for k, v in params.items()}}


class _Unique:
    """Resamples until a job's input has not been used before in this run."""

    def __init__(self):
        self.seen = set()

    def __call__(self, make, context=""):
        for _ in range(1000):
            doc = make()
            key = context + json.dumps(doc, sort_keys=True)
            if key not in self.seen:
                self.seen.add(key)
                return doc
        raise RuntimeError(f"ran out of distinct documents for {context or 'a job'}")


# ---------------------------------------------------------------------------
# grid: simplicial cohomology of triangulated tori and Klein bottles


GRID_H = {
    "torus": {"0": _group(1), "1": _group(2), "2": _group(1)},
    "klein": {"0": _group(1), "1": _group(1), "2": _group(0, (2,))},
}


def grid_facets(m, klein):
    """The m x m grid, each square cut along its diagonal.

    Crossing the first boundary flips the second coordinate for the Klein
    bottle; m >= 3 keeps every triangle a distinct simplex.
    """

    def vertex(i, j):
        if i == m:
            i = 0
            if klein:
                j = -j
        return (i % m) * m + (j % m)

    facets = []
    for i in range(m):
        for j in range(m):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [[a, b, d], [a, c, d]]
    return facets


def grid_job(rng, kind, m, unique):
    def make():
        perm = list(range(m * m))
        rng.shuffle(perm)
        facets = [sorted(perm[v] for v in f) for f in grid_facets(m, kind == "klein")]
        rng.shuffle(facets)
        return {"format": "simplicial", "vertices": str(m * m), "facets": [_s(f) for f in facets]}

    return Job(
        verb="cohomology",
        args=["--base", "@space"],
        docs={"space": unique(make)},
        size=f"{kind} m={m}",
        expect={"code": 0, "kind": "simplicial", "euler": "0", "cohomology": GRID_H[kind]},
    )


def grid_cycle(rng, index, unique):
    """34 jobs: 25 at m = 3, 8 at m = 4 and one at m = 5.

    The median job then lies well inside the m = 3 class and the 90th
    percentile inside the m = 4 class, never on a class boundary; the m = 5
    job, torus and Klein bottle in turn, is under a third of the time.
    """
    sizes = [("torus", 3)] * 13 + [("klein", 3)] * 12 + [("torus", 4), ("klein", 4)] * 4
    sizes.append(("torus" if index % 2 == 0 else "klein", 5))
    jobs = [grid_job(rng, kind, m, unique) for kind, m in sizes]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# duality: every bundle verb on seeded pairs and triples over builtin bases


def _index(dims, n, k):
    return {e: i for i, e in enumerate(total_basis(dims, n, k))}


def pair_doc(rng, key, n, dualizable, unique):
    """A pair whose flux is built in filtration step 2, or outside it.

    Step 2: z = sum_i zhat_i y_i + beta, closed because every base here has
    closed degree-2 cochains and no cochains of degree 4; for n = 2 a
    multiple of d(y_1 y_2) = c_1 y_2 - c_2 y_1 is added.  Outside: a nonzero
    a y_1 y_2 with a in C^1 is added over a base without degree-3 cochains;
    it is closed and survives to E_infinity^{1,2}, so the class is not in F^2.
    """
    if not dualizable and key not in _NO_DEGREE_3:
        raise ValueError(f"no flux outside F^2 is built over {key}")
    dims = BASES[key][2]
    index = _index(dims, n, 3)
    spread = _spread(2 * n * dims[2])

    def make():
        chern = [_vector(rng, dims[2], spread) for _ in range(n)]
        zhat = [_vector(rng, dims[2], spread) for _ in range(n)]
        beta = _vector(rng, dims[3]) if len(dims) > 3 else []
        flux = [0] * len(index)
        for i in range(n):
            for a in range(dims[2]):
                flux[index[(2, a, (i,))]] += zhat[i][a]
        for a, x in enumerate(beta):
            flux[index[(3, a, ())]] += x
        if n == 2:
            lam = rng.randint(-2, 2)
            for a in range(dims[2]):
                flux[index[(2, a, (1,))]] += lam * chern[0][a]
                flux[index[(2, a, (0,))]] -= lam * chern[1][a]
        if not dualizable:
            for a, x in enumerate(_vector(rng, dims[1], nonzero=True)):
                flux[index[(1, a, (0, 1))]] += x
        return {
            "format": "pair",
            "base": _builtin_doc(key),
            "n": str(n),
            "chern": [_s(z) for z in chern],
            "flux": _s(flux),
        }

    return unique(make)


def triple_doc(rng, key, n, unique):
    """The canonical triple of a step-2 flux, written down from the formulas.

    Side flux sum_i zhat_i y_i + beta, dual chern zhat, dual flux
    sum_i c_i yh_i + beta and w = sum_i y_i yh_i satisfy every triple
    condition: dw = sum_i (c_i yh_i - zhat_i y_i) is the flux difference.
    """
    dims = BASES[key][2]
    side = _index(dims, n, 3)
    doubled = _index(dims, 2 * n, 2)
    spread = _spread(2 * n * dims[2])

    def make():
        chern = [_vector(rng, dims[2], spread) for _ in range(n)]
        zhat = [_vector(rng, dims[2], spread) for _ in range(n)]
        beta = _vector(rng, dims[3]) if len(dims) > 3 else []
        flux, flux_hat = [0] * len(side), [0] * len(side)
        for i in range(n):
            for a in range(dims[2]):
                flux[side[(2, a, (i,))]] += zhat[i][a]
                flux_hat[side[(2, a, (i,))]] += chern[i][a]
        for a, x in enumerate(beta):
            flux[side[(3, a, ())]] += x
            flux_hat[side[(3, a, ())]] += x
        w = [0] * len(doubled)
        for i in range(n):
            w[doubled[(0, 0, (i, i + n))]] = 1
        return {
            "format": "triple",
            "base": _builtin_doc(key),
            "n": str(n),
            "chern": [_s(z) for z in chern],
            "flux": _s(flux),
            "chern_hat": [_s(z) for z in zhat],
            "flux_hat": _s(flux_hat),
            "w": _s(w),
        }

    return unique(make)


def _onn_generator(rng, n):
    """A random flip, antisymmetric shear or GL(n, Z) block of O(n, n, Z)."""
    g = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    kind = rng.choice(("flip", "shear", "gl"))
    i, j = rng.sample(range(n), 2)
    if kind == "flip":  # exchange e_i and ehat_i
        g[i][i] = g[n + i][n + i] = 0
        g[i][n + i] = g[n + i][i] = 1
    elif kind == "shear":  # [[I, 0], [B, I]] with B antisymmetric
        t = rng.choice((-2, -1, 1, 2))
        g[n + i][j], g[n + j][i] = t, -t
    else:  # diag(G, G^-T) for the transvection G = I + t e_ij
        t = rng.choice((-2, -1, 1, 2))
        g[i][j] = t
        g[n + j][n + i] = -t
    return g


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def onn_doc(rng, n, member, unique):
    """A word of generators (a member) or one with a row doubled (det = +-2)."""

    def make():
        g = _onn_generator(rng, n)
        for _ in range(5):
            g = _matmul(g, _onn_generator(rng, n))
        if not member:
            r = rng.randrange(2 * n)
            g[r] = [2 * x for x in g[r]]
        return {"n": str(n), "matrix": [_s(row) for row in g]}

    return unique(make)


def _random_chern(rng, key, n, unique):
    dims = BASES[key][2]
    spread = _spread(n * dims[2])
    return unique(lambda: [_s(_vector(rng, dims[2], spread)) for _ in range(n)], key)


def _builtin_args(key):
    name, params, _ = BASES[key]
    return ["--builtin", name, "--params", json.dumps(params, sort_keys=True)]


def onn_job(rng, n, member, unique):
    return Job(
        verb="onn",
        args=["--check", "@matrix"],
        docs={"matrix": onn_doc(rng, n, member, unique)},
        size=f"onn n={n}",
        expect={"code": 0 if member else 1, "n": n},
    )


def duality_job(rng, verb, key, n, unique, dualizable=True):
    size = f"{key} n={n}"
    dims = BASES[key][2]
    if verb in ("bundle", "ss"):
        extra = ["--page", "3"] if verb == "ss" else []
        return Job(
            verb=verb,
            args=_builtin_args(key) + ["--chern", "@chern"] + extra,
            docs={"chern": _random_chern(rng, key, n, unique)},
            size=size,
            expect={"code": 0, "n": n, "base_top": len(dims) - 1},
        )
    if verb in ("check-triple", "tmap"):
        return Job(
            verb=verb,
            args=["--triple", "@triple"],
            docs={"triple": triple_doc(rng, key, n, unique)},
            size=size,
            expect={"code": 0},
        )
    doc = pair_doc(rng, key, n, dualizable, unique)
    expect = {"code": 0 if dualizable or verb == "twisted" else 1, "dualizable": dualizable}
    if verb == "dualize":
        expect["pair"] = {k: doc[k] for k in ("base", "n", "chern")}
    return Job(verb=verb, args=["--pair", "@pair"], docs={"pair": doc}, size=size, expect=expect)


DUALITY_VERBS = ("bundle", "ss", "dualizable", "dualize", "extensions", "check-triple", "tmap", "twisted")
# (base, n) size classes, each running every verb once per cycle; T^3 and
# genus 4 take n = 1 only, as n = 2 over them would take most of a cycle
DUALITY_CLASSES = (
    ("torus2", 1), ("torus3", 1), ("surface2", 1), ("surface3", 1),
    ("surface4", 1), ("heisenberg", 1),
    ("torus2", 2), ("surface2", 2), ("surface3", 2), ("heisenberg", 2),
)
# pairs with a flux outside F^2 (the verbs on pairs exit 1 on them)
DUALITY_OUTSIDE = (("torus2", 2), ("surface2", 2), ("surface3", 2))
PAIR_VERBS = ("dualizable", "dualize", "extensions", "twisted")


def duality_cycle(rng, unique):
    jobs = [
        duality_job(rng, verb, key, n, unique)
        for key, n in DUALITY_CLASSES
        for verb in DUALITY_VERBS
    ]
    jobs += [
        duality_job(rng, verb, key, n, unique, dualizable=False)
        for key, n in DUALITY_OUTSIDE
        for verb in PAIR_VERBS
    ]
    for n, member in ((2, True), (3, True), (2, False), (3, False)):
        jobs.append(onn_job(rng, n, member, unique))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# dgring: total models of seeded bundles, serialized as untrusted documents


# every (base, n) with total degree at most 4, so no TDK_TRUNCATION is needed
DGRING_CLASSES = tuple(
    (key, n)
    for n in (1, 2)
    for key in ("torus2", "surface2", "surface3", "surface4", "surface5")
)


def permute_dgring(rng, doc):
    """The same model in a basis permuted and re-signed within each degree."""
    D = len(doc["basis"]) - 1
    perm, sign = [], []
    for k, labels in enumerate(doc["basis"]):
        p = list(range(len(labels)))
        if k:
            rng.shuffle(p)
        perm.append(p)
        sign.append([1 if k == 0 else rng.choice((-1, 1)) for _ in labels])
    basis = [[None] * len(labels) for labels in doc["basis"]]
    for k, labels in enumerate(doc["basis"]):
        for a, label in enumerate(labels):
            basis[k][perm[k][a]] = label
    diff = []
    for entry in doc["diff"]:
        k = int(entry["deg"])
        old = entry["matrix"]
        new = [[0] * len(doc["basis"][k]) for _ in old]
        for r, row in enumerate(old):
            for c, x in enumerate(row):
                new[perm[k + 1][r]][perm[k][c]] = sign[k + 1][r] * sign[k][c] * int(x)
        diff.append({"deg": str(k), "matrix": [_s(row) for row in new]})
    product = []
    for entry in doc["product"]:
        i, a = int(entry["i_deg"]), int(entry["i_idx"])
        j, b = int(entry["j_deg"]), int(entry["j_idx"])
        s = sign[i][a] * sign[j][b]
        result = [
            {"idx": str(perm[i + j][int(t["idx"])]),
             "coeff": str(s * sign[i + j][int(t["idx"])] * int(t["coeff"]))}
            for t in entry["result"]
        ]
        rng.shuffle(result)
        product.append({
            "i_deg": str(i), "i_idx": str(perm[i][a]),
            "j_deg": str(j), "j_idx": str(perm[j][b]),
            "result": result,
        })
    rng.shuffle(product)
    return {"format": "dgring", "degrees": str(D), "basis": basis, "diff": diff, "product": product}


def corrupt_dgring(rng, doc):
    """Break one axiom for certain, by one differential or product entry.

    Differential: adding 1 at (r, c) of d_k changes column c of d_{k+1} d_k
    by column r of d_{k+1}, chosen nonzero, so d o d = 0 fails.  Product:
    changing one entry of a non-square product and not its mirror breaks
    graded commutativity.
    """
    doc = json.loads(json.dumps(doc))
    mats = {int(e["deg"]): e["matrix"] for e in doc["diff"]}
    spots = [
        (k, r)
        for k in mats
        if k + 1 in mats
        for r in range(len(mats[k]))
        if any(int(row[r]) for row in mats[k + 1])
    ]
    if spots and rng.random() < 0.5:
        k, r = rng.choice(spots)
        c = rng.randrange(len(mats[k][r]))
        mats[k][r][c] = str(int(mats[k][r][c]) + 1)
        return doc, "diff"
    entries = [
        e for e in doc["product"]
        if (e["i_deg"], e["i_idx"]) != (e["j_deg"], e["j_idx"]) and e["result"]
    ]
    term = rng.choice(rng.choice(entries)["result"])
    term["coeff"] = str(int(term["coeff"]) + 1)
    return doc, "product"


def dgring_classes(rng, bundle_cohomology):
    """One seeded bundle per size class, with its serialized total model.

    ``bundle_cohomology(key, n, chern)`` gives the expected H* table.
    """
    from tdk.serialize import space_to_doc
    from tdk.space_model import builtin_space
    from tdk.torus_bundle import build_bundle

    out = []
    for key, n in DGRING_CLASSES:
        name, params, dims = BASES[key]
        chern = [_vector(rng, dims[2], spread=3, nonzero=True) for _ in range(n)]
        model = build_bundle(builtin_space(name, params), chern, check=False)
        out.append((key, n, space_to_doc(model.total), bundle_cohomology(key, n, chern)))
    return out


def dgring_cycle(rng, classes, unique):
    """Per size class, three valid documents and one corrupted one."""
    jobs = []
    for key, n, doc, cohomology in classes:
        for corrupt in (False, False, False, True):
            text = unique(lambda: permute_dgring(rng, doc))
            how = None
            if corrupt:
                text, how = corrupt_dgring(rng, text)
            jobs.append(Job(
                verb="cohomology",
                args=["--base", "@space"],
                docs={"space": text},
                size=f"{key} n={n}" + (" corrupt" if corrupt else ""),
                expect=(
                    {"code": 2, "corrupt": how}
                    if corrupt
                    else {"code": 0, "kind": "dgring", "cohomology": cohomology}
                ),
            ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# job lists


def generate(workload, seed, cycles, bundle_cohomology=None):
    """Yield ``cycles`` cycles of jobs for ``workload``; the same seed, the same jobs.

    ``dgring`` needs ``bundle_cohomology(key, n, chern)`` for its oracle.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    unique = _Unique()
    if workload == "dgring":
        classes = dgring_classes(rng, bundle_cohomology)
    for index in range(cycles):
        if workload == "grid":
            yield grid_cycle(rng, index, unique)
        elif workload == "duality":
            yield duality_cycle(rng, unique)
        else:
            yield dgring_cycle(rng, classes, unique)


# ---------------------------------------------------------------------------
# oracles: each returns None when the job's answer is right, else a reason


def _euler(table):
    return sum((-1) ** int(k) * int(g["rank"]) for k, g in table.items())


def check(job, code, report, follow_up=None):
    """Compare one job's exit code and report against what its inputs imply.

    ``follow_up(verb, doc)`` runs a further CLI verb on a document and
    returns (code, report); ``dualize`` outputs are checked with it.
    """
    want = job.expect
    if code != want["code"]:
        return f"exit code {code}, expected {want['code']}: {report.get('error', '')}"
    if code == 2:
        return None if "error" in report else "refusal without an error message"
    verb = job.verb
    try:
        if verb == "cohomology":
            return _check_cohomology(want, report)
        if verb in ("bundle", "ss"):
            return _check_bundle(verb, want, report)
        if verb == "dualizable":
            return _expect(report["dualizable"] is want["dualizable"], "dualizable flag")
        if verb == "dualize":
            return _check_dualize(want, report, follow_up)
        if verb == "extensions":
            return (_expect(report["dualizable"] is want["dualizable"], "dualizable flag")
                    or _expect(report["groups_agree"] is True, "torsor and page-3 groups differ"))
        if verb == "check-triple":
            return _expect(report["valid"] is True and all(
                item["passed"] for item in report["items"].values()), "triple judged invalid")
        if verb == "tmap":
            return _expect(
                report["isomorphism"] is True and report["chain_map"] is True
                and report["dims_side"] == report["dims_dual"],
                "transformation is not an isomorphism with equal dims")
        if verb == "twisted":
            # the total model has Euler characteristic chi(B) chi(T^n) = 0
            return _expect(report["even"] == report["odd"], "even and odd dims differ")
        if verb == "onn":
            member = want["code"] == 0
            ok = report["member"] is member and (not member or report["n"] == str(want["n"]))
            return _expect(ok, "membership")
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return f"no oracle for verb {verb!r}"


def _expect(ok, what):
    return None if ok else what


def _check_cohomology(want, report):
    if report.get("kind") != want["kind"]:
        return f"kind {report.get('kind')!r}, expected {want['kind']!r}"
    if "euler" in want and report.get("euler_characteristic") != want["euler"]:
        return "euler characteristic"
    return _expect(report["cohomology"] == want["cohomology"], "cohomology groups")


def _check_bundle(verb, want, report):
    n, top = want["n"], want["base_top"]
    if verb == "bundle":
        table = report["total_cohomology"]
        return (_expect(report["fiber_dimension"] == str(n), "fiber dimension")
                or _expect(sorted(table, key=int) == [str(k) for k in range(top + n + 1)], "degrees")
                or _expect(table["0"] == _group(1), "H^0 is not Z")
                or _expect(_euler(table) == 0, "Euler characteristic of the total space is not 0"))
    slots = report["slots"]
    coords = {(int(s["p"]), int(s["q"])) for s in slots}
    euler = sum((-1) ** (int(s["p"]) + int(s["q"])) * int(s["group"]["rank"]) for s in slots)
    origin = [s["group"] for s in slots if s["p"] == "0" and s["q"] == "0"]
    return (_expect(report["page"] == "3", "page")
            or _expect(coords == {(p, q) for p in range(top + 1) for q in range(n + 1)}, "slots")
            or _expect(origin == [_group(1)], "E_3^{0,0} is not Z")
            or _expect(euler == 0, "Euler characteristic of the page is not 0"))


def _check_dualize(want, report, follow_up):
    if not want["dualizable"]:
        return _expect(report.get("dualizable") is False, "dualizable flag")
    same = report.get("format") == "triple" and all(
        report.get(k) == v for k, v in want["pair"].items())
    if not same:
        return "triple does not extend the given pair"
    if follow_up is None:
        return None
    code, checked = follow_up("check-triple", report)
    return _expect(code == 0 and checked.get("valid") is True, "dualize output fails check-triple")


def bundle_args(key, chern_path):
    """``tdk bundle`` arguments for the builtin base ``key``."""
    return ["bundle"] + _builtin_args(key) + ["--chern", chern_path]


def chern_doc(chern):
    return [_s(z) for z in chern]
