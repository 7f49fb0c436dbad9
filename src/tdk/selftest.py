"""Built-in verification battery over the shipped example corpus.

Each check mirrors one acceptance criterion at its exact tolerance (all
checks are exact integer or exact rational statements).  ``run_selftest``
returns (name, passed, detail) rows; the command-line driver renders them.
"""

from __future__ import annotations

import json
import random

from . import fixtures
from .duality_group import (
    act_on_chern,
    flip_element,
    generators,
    is_onn,
    q_value,
    shear_element,
)
from .exact_linalg import eye, intmat, intvec
from .space_model import Cocycle, builtin_space, cohomology_ring, parse_space
from .tduality_core import (
    Pair,
    dualize,
    extension_report,
    gauge_action,
    gauge_shift,
    h3_action,
    is_dualizable,
    torsor_difference,
    validate_triple,
)
from .torus_bundle import build_bundle
from .twisted_cohomology import t_transform, twisted_dims, verify_iso

__all__ = ["run_selftest"]


def _check_cohomology_oracle():
    K = parse_space(fixtures.simplicial_doc("boundary-tetrahedron"))
    ok = [K.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (0, ()),
        (1, ()),
    ]
    K = parse_space(fixtures.simplicial_doc("torus-7"))
    ok &= [K.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (2, ()),
        (1, ()),
    ]
    M = cohomology_ring(K)
    x1 = Cocycle(1, M.basis_vector(1, 0))
    x2 = Cocycle(1, M.basis_vector(1, 1))
    ok &= M.cup_class(x1, x2) in [(1,), (-1,)]
    K = parse_space(fixtures.simplicial_doc("projective-plane-6"))
    ok &= K.cohomology(1).invariants() == (0, ())
    ok &= K.cohomology(2).invariants() == (0, (2,))
    return bool(ok), "boundary-tetrahedron, torus-7 (with cup), projective-plane-6"


def _check_bundle_cohomology():
    ok = True
    hopf = fixtures.hopf_pair(1, 0).bundle
    ok &= [hopf.total_cohomology(k).invariants() for k in range(4)] == [
        (1, ()),
        (0, ()),
        (0, ()),
        (1, ()),
    ]
    for k in (2, 3, 5):
        lens = fixtures.lens_pair(k).bundle
        ok &= lens.total_cohomology(2).invariants() == (0, (k,))
    base = builtin_space("torus", {"k": 2})
    for k in (1, 2, 3):
        nil = build_bundle(base, [k * base.basis_vector(2, 0)])
        expected = (2, ()) if k == 1 else (2, (k,))
        ok &= nil.total_cohomology(2).invariants() == expected
    return bool(ok), "S^3, L(k,1) for k=2,3,5, nilmanifolds k=1,2,3"


def _bundle_suite():
    S2 = builtin_space("sphere", {"k": 2})
    T2 = builtin_space("torus", {"k": 2})
    T3 = builtin_space("torus", {"k": 3})
    return [
        build_bundle(S2, [S2.basis_vector(2, 0)]),
        build_bundle(S2, [2 * S2.basis_vector(2, 0)]),
        build_bundle(T2, [T2.basis_vector(2, 0)]),
        build_bundle(T3, [T3.basis_vector(2, 0)]),
        build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
        build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)]),
    ]


def _check_transgression_suite():
    count = 0
    for m in _bundle_suite():
        e01 = m.ss_page(2, 0, 1)
        e20 = m.ss_page(2, 2, 0)
        for i in range(m.n):
            y = m.element_vector(0, 0, (i,))
            expected = e20.reduce(
                m.pullback_to_total(Cocycle(2, m.chern[i])).vector
            )
            if e01.apply_d(y) != expected:
                return False, f"transgression failed on model {count}"
        e02 = m.ss_page(2, 0, 2)
        e21 = m.ss_page(2, 2, 1)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                yij = m.element_vector(0, 0, (i, j))
                zhat = [m.base.zero_vector(2) for _ in range(m.n)]
                zhat[i], zhat[j] = -m.chern[j], m.chern[i]
                if e02.apply_d(yij) != e21.reduce(m.normal_form_vector(zhat)):
                    return False, f"page-2 product rule failed on model {count}"
        count += 1
    return True, f"transgression and product rule on {count} bundle models"


def _check_dualizability():
    ok = True
    for k in (0, 1, -1, 2):
        ok &= is_dualizable(fixtures.hopf_pair(1, k))[0]
    ok &= not is_dualizable(fixtures.t3_over_s1_volume_pair())[0]
    return bool(ok), "Hopf fluxes dualizable; T^3/S^1 volume flux is not"


def _check_classical_duals():
    ok = True
    for k in (1, 2, 3):
        t = dualize(fixtures.hopf_pair(1, k))
        expected = (0, ()) if k == 1 else (0, (k,))
        ok &= t.dual.bundle.total_cohomology(2).invariants() == expected
        rep = t.dual.bundle.filtration_report(t.dual.flux)
        ok &= rep.p == 2 and rep.leading in [(1,), (-1,)]
        ok &= validate_triple(t).ok
        t = dualize(fixtures.t3_volume_pair(k))
        expected = (2, ()) if k == 1 else (2, (k,))
        ok &= t.dual.bundle.total_cohomology(2).invariants() == expected
        ok &= t.dual.bundle.total_cohomology(3).is_zero(t.dual.flux.vector)
        ok &= validate_triple(t).ok
    return bool(ok), "Hopf <-> lens, T^3 <-> nilmanifold, all items green"


def _check_involution():
    names = ["hopf", "hopf_k0", "hopf_k2", "lens2_k1", "t3_vol", "t3_vol_k2",
             "s3_trivial", "t3_trivial"]
    for name in names:
        pair = fixtures.named_pair(name)
        t = dualize(pair)
        tt = dualize(t.dual)
        for z1, z2 in zip(tt.dual.bundle.chern, pair.bundle.chern):
            if list(z1) != list(z2):
                return False, f"chern mismatch on {name}"
        H = pair.bundle.total_cohomology(3)
        if H.reduce(tt.dual.flux.vector) != H.reduce(pair.flux.vector):
            return False, f"flux class mismatch on {name}"
    return True, f"double dual is the identity on {len(names)} pairs"


def _check_torsor():
    for name in ("s3_trivial", "t3_trivial"):
        pair = fixtures.named_pair(name)
        base = pair.base
        t = dualize(pair)
        H3 = base.cohomology(3)
        for g in base.cohomology(3).generator_vectors():
            alpha = Cocycle(3, g)
            moved = h3_action(t, alpha)
            if not validate_triple(moved).ok:
                return False, f"acted triple invalid over {name}"
            delta = torsor_difference(moved, t)
            if H3.reduce(delta.vector) != H3.reduce(alpha.vector):
                return False, f"difference mismatch over {name}"
    return True, "free transitive degree-3 action over S^3 and T^3"


def _check_gauge():
    base = builtin_space("torus", {"k": 3})
    H3 = base.cohomology(3)
    m = build_bundle(base, [base.basis_vector(2, 0)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    gens1 = base.cohomology(1).generator_vectors()
    for psi in gens1:
        for psihat in gens1:
            moved = gauge_action(t, [psi], [psihat])
            predicted = gauge_shift(t, [psi], [psihat])
            delta = torsor_difference(moved, t)
            if H3.reduce(delta.vector) != H3.reduce(predicted.vector):
                return False, "gauge formula mismatch"
    return True, "gauge shifts match chat.psi + c.psihat on T^3 spanning sets"


def _check_extensions():
    for name in fixtures.PAIR_NAMES:
        rep = extension_report(fixtures.named_pair(name))
        if not rep.agree:
            return False, f"extension groups disagree on {name}"
    return True, f"ker/im quotient matches the page-3 image on {len(fixtures.PAIR_NAMES)} pairs"


def _check_onn():
    rng = random.Random(20260810)
    for n in (1, 2):
        for g in generators(n):
            if not is_onn(g.matrix):
                return False, "generator rejected"
            for _ in range(100):
                v = intvec([rng.randint(-9, 9) for _ in range(2 * n)])
                if q_value(g.matrix.dot(v)) != q_value(v):
                    return False, "form not preserved"
    if is_onn(2 * eye(4)):
        return False, "scaling accepted"
    base = builtin_space("torus", {"k": 2})
    c = [base.basis_vector(2, 0), base.zero_vector(2)]
    chat = [base.zero_vector(2), base.basis_vector(2, 0)]
    g = flip_element(2)
    c1, chat1 = act_on_chern(g, base, c, chat)
    c2, chat2 = act_on_chern(g, base, c1, chat1)
    ok = [list(v) for v in c2] == [list(v) for v in c]
    ok &= [list(v) for v in chat2] == [list(v) for v in chat]
    return bool(ok), "membership, 100-vector form checks, flip squared"


def _check_twisted():
    ok = True
    s3 = fixtures.hopf_pair(1, 0).bundle
    gen = s3.element_vector(2, 0, (0,))
    ok &= twisted_dims(s3, s3.zero_vector(3)) == (1, 1)
    for k in (1, 2):
        ok &= twisted_dims(s3, k * gen) == (0, 0)
    triples = [
        dualize(fixtures.named_pair("hopf")),
        dualize(fixtures.named_pair("hopf_k2")),
        dualize(fixtures.named_pair("hopf_k0")),
        dualize(fixtures.named_pair("t3_vol")),
        dualize(fixtures.named_pair("s3_trivial")),
    ]
    for t in triples:
        tm = t_transform(t)
        if not tm.is_chain_map():
            return False, "chain identity failed"
        if not verify_iso(t).ok:
            return False, "transformation not an isomorphism"
    rep = verify_iso(dualize(fixtures.named_pair("hopf_k0")))
    ok &= rep.dims_side == (1, 1) and rep.dims_dual == (1, 1)
    rep = verify_iso(dualize(fixtures.named_pair("hopf_k2")))
    ok &= rep.dims_side == (0, 0) and rep.dims_dual == (0, 0)
    return bool(ok), "chain identity, isomorphism, and dimension fixtures"


def _check_robustness():
    from .cli import run

    cases = [
        "{not json",
        json.dumps({"format": "simplicial", "vertices": 2, "facets": [[0, 0]]}),
        json.dumps(
            {
                "format": "dgring",
                "degrees": 3,
                "basis": [["1"], ["a"], ["b"], ["c"]],
                "diff": [
                    {"deg": 1, "matrix": [[1]]},
                    {"deg": 2, "matrix": [[1]]},
                ],
                "product": [],
            }
        ),
    ]
    import os
    import tempfile

    for text in cases:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as handle:
            handle.write(text)
            path = handle.name
        try:
            code, _ = run(["cohomology", "--base", path])
            if code != 2:
                return False, f"expected exit 2, got {code}"
        finally:
            os.unlink(path)
    return True, "malformed inputs exit with code 2 and a diagnostic"


def run_selftest():
    checks = [
        ("cohomology-oracle", _check_cohomology_oracle),
        ("bundle-cohomology", _check_bundle_cohomology),
        ("spectral-sequence-formulas", _check_transgression_suite),
        ("dualizability", _check_dualizability),
        ("classical-duals", _check_classical_duals),
        ("double-dual-involution", _check_involution),
        ("torsor-action", _check_torsor),
        ("gauge-action", _check_gauge),
        ("extension-classification", _check_extensions),
        ("duality-group", _check_onn),
        ("twisted-isomorphism", _check_twisted),
        ("robustness", _check_robustness),
    ]
    rows = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        rows.append((name, bool(passed), detail))
    return rows
