"""The acceptance battery: the paper's results, checked on the shipped corpus.

This is the single list of acceptance checks.  ``tdk selftest`` runs it and
reports one row per check with its wall time; ``tests/test_acceptance.py``
runs the same functions, one test per check.  Every statement is an exact
integer or exact rational one; there are no numerical tolerances.

A check returns its detail line when it passes and raises
:class:`CheckFailure`, naming the first wrong answer, when it does not.  No
check relies on ``assert``, which ``python -O`` strips; :func:`run_selftest`
also turns a crash into a failed row.  Importing this module builds
nothing: every model is built when its check runs.
"""

from __future__ import annotations

import json
import random
import time

from . import fixtures
from .duality_group import (
    act_on_chern,
    flip_element,
    generators,
    is_onn,
    q_value,
    shear_element,
)
from .exact_linalg import mat_vec
from .space_model import Cocycle, builtin_space, cohomology_ring, parse_space
from .tduality_core import (
    Pair,
    dualize,
    extension_report,
    extract_dual_chern,
    gauge_action,
    gauge_shift,
    h3_action,
    is_dualizable,
    torsor_difference,
    validate_triple,
)
from .torus_bundle import build_bundle
from .twisted_cohomology import t_transform, twisted_dims, verify_iso

__all__ = ["CHECKS", "CheckFailure", "run_selftest"]


class CheckFailure(Exception):
    """A check of the battery met a wrong answer."""


def _require(condition, message):
    if not condition:
        raise CheckFailure(message)


def _dualizable_pairs():
    pairs = {name: fixtures.named_pair(name) for name in fixtures.PAIR_NAMES}
    return {name: p for name, p in pairs.items() if is_dualizable(p)[0]}


def _require_betti(name, betti, cohomology, top):
    """betti() must equal the invariants of the Subquotient of every degree."""
    want = [cohomology(k).invariants() for k in range(top + 1)]
    _require(betti == want, f"betti() of {name} is {betti}, the subquotients give {want}")


def _check_cohomology_oracle():
    K = parse_space(fixtures.simplicial_doc("boundary-tetrahedron"))
    got = [K.cohomology(k).invariants() for k in range(3)]
    _require(got == [(1, ()), (0, ()), (1, ())], f"H*(boundary tetrahedron) = {got}")
    _require_betti("the boundary tetrahedron", K.betti(), K.cohomology, K.dim)
    K = parse_space(fixtures.simplicial_doc("torus-7"))
    got = [K.cohomology(k).invariants() for k in range(3)]
    _require(got == [(1, ()), (2, ()), (1, ())], f"H*(torus-7) = {got}")
    _require_betti("torus-7", K.betti(), K.cohomology, K.dim)
    M = cohomology_ring(K)
    cup = M.cup_class(Cocycle(1, M.basis_vector(1, 0)), Cocycle(1, M.basis_vector(1, 1)))
    _require(cup in [(1,), (-1,)], f"x1.x2 = {cup} does not generate H^2(torus-7) = Z")
    K = parse_space(fixtures.simplicial_doc("projective-plane-6"))
    _require(K.cohomology(1).invariants() == (0, ()), "H^1(RP^2) is not 0")
    _require(K.cohomology(2).invariants() == (0, (2,)), "H^2(RP^2) is not Z/2")
    _require_betti("RP^2_6", K.betti(), K.cohomology, K.dim)
    return ("H*(dTetra)=(Z,0,Z); H*(T2_7)=(Z,Z^2,Z) with x1.x2 generating; H^2(RP2_6)=Z/2; "
            "betti() agrees with the subquotients on all three")


def _check_gysin_koszul():
    hopf = fixtures.hopf_pair(1, 0).bundle
    got = [hopf.total_cohomology(k).invariants() for k in range(4)]
    _require(got == [(1, ()), (0, ()), (0, ()), (1, ())], f"H*(Hopf total space) = {got}")
    _require_betti("the Hopf total space", hopf.betti(), hopf.total_cohomology, hopf.D)
    for k in (2, 3, 5):
        lens = fixtures.lens_pair(k).bundle
        got = lens.total_cohomology(2).invariants()
        _require(got == (0, (k,)), f"H^2(L({k},1)) = {got}")
        _require_betti(f"L({k},1)", lens.betti(), lens.total_cohomology, lens.D)
    T2 = builtin_space("torus", {"k": 2})
    for k in (1, 2, 3):
        nil = build_bundle(T2, [[k * x for x in T2.basis_vector(2, 0)]])
        got = nil.total_cohomology(2).invariants()
        _require(got == ((2, ()) if k == 1 else (2, (k,))), f"H^2(nilmanifold {k}) = {got}")
    return ("Hopf gives H*(S^3); L(k,1) has H^2=Z/k for k=2,3,5; "
            "nilmanifolds have H^2=Z^2+Z/k for k=1,2,3; "
            "betti() agrees with the subquotients on Hopf and L(k,1)")


def _bundle_suite():
    S2 = builtin_space("sphere", {"k": 2})
    T2 = builtin_space("torus", {"k": 2})
    T3 = builtin_space("torus", {"k": 3})
    return [
        build_bundle(S2, [S2.basis_vector(2, 0)]),
        build_bundle(S2, [[2 * x for x in S2.basis_vector(2, 0)]]),
        build_bundle(T2, [T2.basis_vector(2, 0)]),
        build_bundle(T3, [T3.basis_vector(2, 0)]),
        build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
        build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)]),
    ]


def _check_spectral_sequence_formulas():
    models = _bundle_suite()
    pairs = 0
    for count, m in enumerate(models):
        e01, e20 = m.ss_page(2, 0, 1), m.ss_page(2, 2, 0)
        for i in range(m.n):
            expected = e20.reduce(m.pullback_to_total(Cocycle(2, m.chern[i])).vector)
            _require(e01.apply_d(m.element_vector(0, 0, (i,))) == expected,
                     f"transgression d_2(y{i + 1}) != [c{i + 1}] on model {count}")
        e02, e21 = m.ss_page(2, 0, 2), m.ss_page(2, 2, 1)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                # the reference c_i.y_j - c_j.y_i, written out index by index
                vec = m.zero_vector(3)
                for a in range(m.base.dim(2)):
                    vec[m.index[3][(2, a, (j,))]] += m.chern[i][a]
                    vec[m.index[3][(2, a, (i,))]] -= m.chern[j][a]
                zhat = [m.base.zero_vector(2) for _ in range(m.n)]
                zhat[i], zhat[j] = [-x for x in m.chern[j]], m.chern[i]
                _require(list(m.normal_form_vector(zhat)) == list(vec),
                         f"normal_form_vector differs from the reference on model {count}")
                _require(e02.apply_d(m.element_vector(0, 0, (i, j))) == e21.reduce(vec),
                         f"page-2 product rule fails for y{i + 1}y{j + 1} on model {count}")
                pairs += 1
    return (f"transgression on {len(models)} models; page-2 product rule on "
            f"{pairs} generator pairs")


def _check_dualizability():
    for k in (0, 1, -1, 2):
        _require(is_dualizable(fixtures.hopf_pair(1, k))[0] is True,
                 f"(Hopf, {k}.gen) reported not dualizable")
    ok, report = is_dualizable(fixtures.t3_over_s1_volume_pair())
    _require(ok is False and report.p == 1,
             f"(T^3/S^1, volume) reported dualizable={ok} at p={report.p}")
    return "(Hopf, k.gen) dualizable for k in {0,+-1,2}; (T^3/S^1, volume) is not"


def _check_classical_dual_pairs():
    for k in (1, 2, 3):
        pair = fixtures.hopf_pair(1, k)
        classes, _ = extract_dual_chern(pair)
        _require(classes == [(k,)], f"dual chern of (Hopf, {k}) is {classes}")
        t = dualize(pair)
        dual = t.dual.bundle
        got = dual.total_cohomology(2).invariants()
        _require(got == ((0, ()) if k == 1 else (0, (k,))),
                 f"H^2 of the dual of (Hopf, {k}) = {got}")
        # the dual leading part is exactly the class of c.yh = 1.(v2 yh)
        rep = dual.filtration_report(t.dual.flux)
        expected = dual.zero_vector(3)
        expected[dual.index[3][(2, 0, (0,))]] = 1
        _require(rep.p == 2 and rep.leading == dual.infinity_page(2, 1).reduce(expected),
                 f"dual flux of (Hopf, {k}) has leading part {rep.leading} at p={rep.p}")
        report = validate_triple(t)
        _require(report.ok and all(flag for flag, _ in report.items.values()),
                 f"triple of (Hopf, {k}) fails validation")
    T2 = builtin_space("torus", {"k": 2})
    for k in (1, 2, 3):
        t = dualize(fixtures.t3_volume_pair(k))
        dual = t.dual.bundle
        # the degree-k nilmanifold: the cohomology of the builtin model in
        # every degree, and chern class k.[vol]
        heis = builtin_space("heisenberg", {"k": k})
        for deg in range(4):
            _require(dual.total_cohomology(deg).invariants() == heis.cohomology(deg).invariants(),
                     f"H^{deg} of the dual of (T^3, {k}.vol) differs from nilmanifold {k}")
        vol = [k * x for x in T2.basis_vector(2, 0)]
        _require(dual.chern_classes() == [T2.cohomology(2).reduce(vol)],
                 f"dual chern class of (T^3, {k}.vol) is not {k}.[vol]")
        _require(dual.total_cohomology(3).is_zero(t.dual.flux.vector),
                 f"dual flux of (T^3, {k}.vol) is not zero in H^3")
        _require(validate_triple(t).ok, f"triple of (T^3, {k}.vol) fails validation")
    return ("dualize(Hopf, k) = (L(k,1), leading 1); "
            "dualize(T^3, k.vol) = (nilmanifold-k, 0); all items green")


def _check_involution():
    pairs = _dualizable_pairs()
    for name, pair in pairs.items():
        tt = dualize(dualize(pair).dual)
        for z1, z2 in zip(tt.dual.bundle.chern, pair.bundle.chern):
            _require(list(z1) == list(z2), f"double dual changes the chern data of {name}")
        H = pair.bundle.total_cohomology(3)
        _require(H.reduce(tt.dual.flux.vector) == H.reduce(pair.flux.vector),
                 f"double dual changes the flux class of {name}")
    _require(len(pairs) >= 10, f"only {len(pairs)} shipped pairs are dualizable")
    return f"double dual restores (chern, flux class) on {len(pairs)} shipped pairs"


def _check_torsor_suite():
    for name in ("s3_trivial", "s3_trivial_k0", "t3_trivial"):
        pair = fixtures.named_pair(name)
        H3 = pair.base.cohomology(3)
        t = dualize(pair)
        gens = H3.generator_vectors()
        _require(gens, f"H^3 of the base of {name} has no generators")
        for g in gens:
            for mult in (1, -1, 2):
                alpha = Cocycle(3, [mult * x for x in g])
                moved = h3_action(t, alpha)
                _require(validate_triple(moved).ok, f"acted triple invalid over {name}")
                delta = torsor_difference(moved, t)
                _require(H3.reduce(delta.vector) == H3.reduce(alpha.vector),
                         f"difference after acting by {mult}.gen mismatches over {name}")
                back = h3_action(moved, Cocycle(3, [-x for x in alpha.vector]))
                _require(H3.reduce(torsor_difference(back, t).vector) == H3.group.zero_nf(),
                         f"acting by {mult}.gen and back is not the identity over {name}")
    return "degree-3 action free with exact round-trip differences over S^3 and T^3"


def _check_gauge_action_formula():
    base = builtin_space("torus", {"k": 3})
    H3 = base.cohomology(3)
    psis = base.cohomology(1).generator_vectors() + [base.zero_vector(1)]
    for c_mult in (0, 1, 2):
        m = build_bundle(base, [[c_mult * x for x in base.basis_vector(2, 0)]])
        t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
        for psi in psis:
            for psihat in psis:
                moved = gauge_action(t, [psi], [psihat])
                _require(validate_triple(moved).ok, f"gauge-moved triple invalid at c={c_mult}")
                predicted = gauge_shift(t, [psi], [psihat])
                delta = torsor_difference(moved, t)
                _require(H3.reduce(delta.vector) == H3.reduce(predicted.vector),
                         f"gauge difference is not chat.psi + c.psihat at c={c_mult}")
    return "gauge difference equals chat.psi + c.psihat on T^3 spanning sets, c in {0,1,2}"


def _check_extension_classification():
    T2 = builtin_space("torus", {"k": 2})
    extra = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    pairs = {name: fixtures.named_pair(name) for name in fixtures.PAIR_NAMES}
    pairs["the n=2 bundle over T^2"] = Pair(extra, Cocycle(3, extra.zero_vector(3)))
    for name, pair in pairs.items():
        rep = extension_report(pair)
        _require(rep.agree, f"ker/im gives {rep.torsor_invariants}, the page-3 image "
                            f"{rep.crosscheck_invariants} on {name}")
    return (f"ker/im matches the page-3 image on {len(pairs)} pairs "
            "(both sides computed independently)")


def _check_duality_group():
    _require(is_onn(flip_element(2).matrix), "flip rejected")
    _require(is_onn(shear_element(2, [{1: -5}, {0: 5}]).matrix), "shear rejected")
    _require(not is_onn([{i: 2} for i in range(4)]) and not is_onn([{i: 2} for i in range(2)]),
             "scaling accepted")
    rng = random.Random(20260810)
    accepted = 0
    for n in (1, 2):
        for g in generators(n):
            _require(is_onn(g.matrix), f"generator of O({n},{n},Z) rejected")
            accepted += 1
            for _ in range(100):
                v = [rng.randint(-9, 9) for _ in range(2 * n)]
                _require(q_value(mat_vec(g.matrix, v, 2 * n)) == q_value(v), "form not preserved")
    T2 = builtin_space("torus", {"k": 2})
    c = [T2.basis_vector(2, 0), T2.zero_vector(2)]
    chat = [T2.zero_vector(2), T2.basis_vector(2, 0)]
    g = flip_element(2)
    c2, chat2 = act_on_chern(g, T2, *act_on_chern(g, T2, c, chat))
    _require([list(v) for v in c2] == [list(v) for v in c]
             and [list(v) for v in chat2] == [list(v) for v in chat], "flip squared is not 1")
    return (f"membership accepted/rejected correctly; q preserved on 100 vectors "
            f"for each of {accepted} generators; flip squared = id")


def _check_twisted_isomorphism():
    _require(twisted_dims(fixtures.hopf_pair(1, 0)) == (1, 1), "twisted H*(S^3, 0) is not (1, 1)")
    for k in (1, 2):
        _require(twisted_dims(fixtures.hopf_pair(1, k)) == (0, 0),
                 f"twisted H*(S^3, {k}.gen) is not (0, 0)")
    triples = {name: dualize(pair) for name, pair in _dualizable_pairs().items()}
    for name, t in triples.items():
        tm = t_transform(t)
        for par, defect in tm.chain_defect().items():
            _require(not any(defect), f"chain defect in parity {par} on {name}")
        _require(tm.is_chain_map(), f"chain identity fails on {name}")
        _require(verify_iso(t).ok, f"transformation not an isomorphism on {name}")
    for k in (0, 1, 2, 3):
        rep = verify_iso(dualize(fixtures.hopf_pair(1, k)))
        dims = (1, 1) if k == 0 else (0, 0)
        _require(rep.dims_side == dims and rep.dims_dual == dims,
                 f"twisted dimensions of (Hopf, {k}) are {rep.dims_side}, {rep.dims_dual}")
    # the dual of (S^3, 0) is the trivial bundle over S^2 with generator flux
    dual = dualize(fixtures.hopf_pair(1, 0)).dual
    _require(all(x == 0 for x in dual.bundle.chern[0]), "dual of (S^3, 0) is not trivial")
    _require(not dual.bundle.total_cohomology(3).is_zero(dual.flux.vector),
             "dual flux of (S^3, 0) is zero in H^3")
    _require(twisted_dims(dual) == (1, 1),
             "twisted H* of the dual of (S^3, 0) is not (1, 1)")
    return (f"chain identity entry-exact and isomorphism verified on {len(triples)} "
            "triples; dimension fixtures met")


_BAD_DOCUMENTS = {
    "malformed": "{not json at all",
    "bad-simplicial": {"format": "simplicial", "vertices": 3, "facets": [[0, 0, 1]]},
    "d-squared": {
        "format": "dgring",
        "degrees": 3,
        "basis": [["1"], ["a"], ["b"], ["c"]],
        "diff": [{"deg": 1, "matrix": [[1]]}, {"deg": 2, "matrix": [[1]]}],
        "product": [],
    },
    "nonclosed-flux": {
        "format": "pair",
        "base": {
            "format": "dgring",
            "degrees": 4,
            "basis": [["1"], [], [], ["a"], ["b"]],
            "diff": [{"deg": 3, "matrix": [[1]]}],
            "product": [],
        },
        "n": "1",
        "chern": [[]],
        "flux": ["1"],
    },
}

_FUZZ_VERBS = (
    ("dualizable", "--pair"),
    ("dualize", "--pair"),
    ("check-triple", "--triple"),
    ("tmap", "--triple"),
    ("extensions", "--pair"),
    ("twisted", "--pair"),
    ("onn", "--check"),
    ("cohomology", "--base"),
)


def _check_robustness():
    import os
    import tempfile

    from .cli import run
    from .serialize import dumps, pair_to_doc

    def expect_input_error(path, verbs, what):
        for verb, flag in verbs:
            code, doc = run([verb, flag, path])
            _require(code == 2 and doc.get("error"), f"{verb} on {what}: exit {code}, {doc}")

    rng = random.Random(424242)
    valid = dumps(pair_to_doc(fixtures.named_pair("hopf"))).encode()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _BAD_DOCUMENTS.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc if isinstance(doc, str) else json.dumps(doc))
            expect_input_error(path, [("dualizable", "--pair"), ("cohomology", "--base")], name)
        for i in range(40):
            if i % 2:
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 1024)))
            else:
                blob = bytearray(valid[:1024])
                for _ in range(rng.randrange(1, 10)):
                    blob[rng.randrange(len(blob))] = rng.randrange(256)
                blob = bytes(blob)
            path = os.path.join(tmp, f"fuzz{i}.json")
            with open(path, "wb") as handle:
                handle.write(blob)
            expect_input_error(path, _FUZZ_VERBS, f"fuzzed blob {i}")
    return (f"located diagnostics with exit 2 on {len(_BAD_DOCUMENTS)} hand-built bad "
            f"inputs; {40 * len(_FUZZ_VERBS)} fuzzed invocations, none crashed")


# (name, check) in report order; tests/test_acceptance.py numbers them 01..12
CHECKS = (
    ("cohomology-oracle", _check_cohomology_oracle),
    ("gysin-koszul", _check_gysin_koszul),
    ("spectral-sequence-formulas", _check_spectral_sequence_formulas),
    ("dualizability", _check_dualizability),
    ("classical-dual-pairs", _check_classical_dual_pairs),
    ("involution", _check_involution),
    ("torsor-suite", _check_torsor_suite),
    ("gauge-action-formula", _check_gauge_action_formula),
    ("extension-classification", _check_extension_classification),
    ("duality-group", _check_duality_group),
    ("twisted-isomorphism", _check_twisted_isomorphism),
    ("robustness", _check_robustness),
)


def _run_check(check):
    """(passed, detail, milliseconds) of one check; a crash is a failure, not an abort."""
    start = time.perf_counter()
    try:
        passed, detail = True, check()
    except CheckFailure as exc:
        passed, detail = False, str(exc)
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return passed, detail, 1000 * (time.perf_counter() - start)


def run_selftest():
    """One (name, passed, detail, milliseconds) row per check, in :data:`CHECKS` order."""
    return [(name, *_run_check(check)) for name, check in CHECKS]
