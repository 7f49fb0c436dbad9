"""Triple construction, validation, torsor structure, and extensions.

The classical dual pairs anchoring these tests: the degree-k circle bundle
over S^2 with k' units of flux dualizes to the degree-k' bundle with k units
(Hopf <-> lens spaces), and the trivial bundle T^3 = T^2 x S^1 with k volume
flux dualizes to the degree-k nilmanifold with zero flux.
"""

import pytest

from tdk.errors import DimensionError, InputError, NotDualizableError, TripleMismatchError
from matrices import scaled
from tdk.duality_group import act_on_chern, act_on_triple, flip_element, generators
from tdk.fixtures import PAIR_NAMES, named_pair
from tdk.serialize import pair_from_doc, pair_to_doc, triple_from_doc, triple_to_doc
from tdk.space_model import Cocycle, DgRingModel, builtin_space, cohomology_ring, product_model
from tdk.tduality_core import (
    Pair,
    Triple,
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
from tdk.torus_bundle import BundleModel, build_bundle
from tdk.twisted_cohomology import t_transform, twisted_dims, verify_iso

S2 = builtin_space("sphere", {"k": 2})
S3 = builtin_space("sphere", {"k": 3})
S1 = builtin_space("sphere", {"k": 1})
T2 = builtin_space("torus", {"k": 2})
T3 = builtin_space("torus", {"k": 3})
PT = builtin_space("point")


def hopf_pair(c=1, k=1):
    m = build_bundle(S2, [scaled(c, S2.basis_vector(2, 0))])
    flux = m.zero_vector(3)
    if k:
        flux = scaled(k, m.element_vector(2, 0, (0,)))
    return Pair(m, Cocycle(3, flux))


def t3_over_t2_pair(k):
    m = build_bundle(T2, [T2.zero_vector(2)])
    flux = scaled(k, m.element_vector(2, 0, (0,)))  # k . vol(T^2) . y
    return Pair(m, Cocycle(3, flux))


def t3_over_s1_volume_pair():
    m = build_bundle(S1, [S1.zero_vector(2), S1.zero_vector(2)])
    flux = m.element_vector(1, 0, (0, 1))  # x . y1 y2
    return Pair(m, Cocycle(3, flux))


def trivial_pair(base, n, flux=None):
    m = build_bundle(base, [base.zero_vector(2)] * n)
    vec = m.zero_vector(3) if flux is None else flux(m)
    return Pair(m, Cocycle(3, vec))


# ---------------------------------------------------------------------------
# dualizability


def test_hopf_pairs_dualizable():
    for k in [0, 1, -1, 2]:
        ok, report = is_dualizable(hopf_pair(1, k))
        assert ok
        if k:
            assert report.p == 2


def test_volume_flux_over_s1_not_dualizable():
    ok, report = is_dualizable(t3_over_s1_volume_pair())
    assert not ok
    assert report.p == 1


def test_zero_flux_always_dualizable():
    for pair in [hopf_pair(2, 0), t3_over_t2_pair(0), trivial_pair(S3, 1)]:
        ok, report = is_dualizable(pair)
        assert ok and report.is_zero


def test_dualize_rejects_nondualizable():
    with pytest.raises(NotDualizableError):
        dualize(t3_over_s1_volume_pair())


# ---------------------------------------------------------------------------
# dual chern extraction


def test_hopf_dual_chern():
    for k in [1, 2, 5]:
        classes, amb = extract_dual_chern(hopf_pair(1, k))
        assert classes == [(k,)]
        assert amb["shear_generators"] == []  # n = 1: no antisymmetric part


def test_t3_dual_chern_is_heisenberg_class():
    classes, _ = extract_dual_chern(t3_over_t2_pair(3))
    assert classes == [(3,)]


def test_zero_flux_dual_chern_vanishes_with_shear_ambiguity():
    base = T2
    m = build_bundle(base, [base.basis_vector(2, 0), base.zero_vector(2)])
    pair = Pair(m, Cocycle(3, m.zero_vector(3)))
    classes, amb = extract_dual_chern(pair)
    assert classes == [(0,), (0,)]
    # one shear generator built from the chern data: (c_2, -c_1) = (0, -vol)
    assert len(amb["shear_generators"]) == 1
    assert amb["shear_generators"][0] == [(0,), (-1,)]


# ---------------------------------------------------------------------------
# dualize and validate


def test_dualize_hopf_gives_lens_space():
    for k in [1, 2, 3]:
        t = dualize(hopf_pair(1, k))
        dual = t.dual.bundle
        expected = (0, ()) if k == 1 else (0, (k,))
        assert dual.total_cohomology(2).invariants() == expected
        # dual flux leading part is 1 . [yh (x) generator]
        rep = dual.filtration_report(t.dual.flux)
        assert rep.p == 2 and rep.leading in [(1,), (-1,)]
        assert validate_triple(t).ok


def test_dualize_t3_gives_nilmanifold_with_zero_flux():
    for k in [1, 2, 3]:
        t = dualize(t3_over_t2_pair(k))
        dual = t.dual.bundle
        expected = (2, ()) if k == 1 else (2, (k,))
        assert dual.total_cohomology(2).invariants() == expected
        assert dual.total_cohomology(3).is_zero(t.dual.flux.vector)
        assert validate_triple(t).ok


def test_dualize_trivial_pair():
    t = dualize(trivial_pair(T2, 1))
    assert validate_triple(t).ok
    assert all(x == 0 for x in t.dual.flux.vector)
    assert list(t.w) == list(t.standard_w())


def test_point_triple_n1():
    t = dualize(trivial_pair(PT, 1))
    assert validate_triple(t).ok
    assert t.doubled.dim(2) == 1  # just y yh
    assert list(t.w) == [1]


def test_tampered_w_fails_validation():
    t = dualize(hopf_pair(1, 2))
    bad = Triple(t.side, t.dual, scaled(2, t.w))
    report = validate_triple(bad)
    assert not report.ok
    assert not report.items["fiber_condition"][0]
    assert not report.items["correspondence_equation"][0]


def test_fiber_condition_holds_modulo_either_factor():
    t = dualize(trivial_pair(T2, 2))  # fiber generators y1 y2 | yh1 yh2
    for S, holds in [((0, 1), True), ((2, 3), True), ((0, 3), False)]:
        w = t.w.copy()
        w[t.doubled.index[2][(0, 0, S)]] += 1  # y1y2, yh1yh2, y1yh2
        tampered = Triple(t.side, t.dual, w)
        assert validate_triple(tampered).items["fiber_condition"][0] is holds


def test_validation_catches_wrong_dual_side():
    # dual side with the wrong chern class: leading parts cannot match
    pair = hopf_pair(1, 2)
    t = dualize(pair)
    wrong_dual_bundle = build_bundle(S2, [scaled(5, S2.basis_vector(2, 0))])
    flux = wrong_dual_bundle.zero_vector(3)
    flux[wrong_dual_bundle.index[3][(2, 0, (0,))]] = 1
    # t.w is the standard w, and the doubled model's basis depends only on the base and n
    wrong = Triple(t.side, Pair(wrong_dual_bundle, Cocycle(3, flux)), t.w)
    report = validate_triple(wrong)
    assert not report.ok


DUALIZABLE = [n for n in PAIR_NAMES if is_dualizable(named_pair(n))[0]]


@pytest.mark.parametrize("name", DUALIZABLE)
def test_every_route_to_a_triple_still_builds(name):
    t = dualize(named_pair(name))
    assert validate_triple(triple_from_doc(triple_to_doc(t))).ok
    for g in generators(t.n):
        assert validate_triple(act_on_triple(g, t)).ok


def _count_closedness_tests(monkeypatch):
    """The ``is_closed`` calls made from now on, as (model, degree): the
    model is "bundle" for a bundle model and "base" for any other."""
    calls, is_closed = [], DgRingModel.is_closed

    def counted(self, k, vec):
        calls.append(("bundle" if isinstance(self, BundleModel) else "base", k))
        return is_closed(self, k, vec)

    monkeypatch.setattr(DgRingModel, "is_closed", counted)
    return calls


@pytest.mark.parametrize("name", DUALIZABLE)
def test_dualize_tests_no_closedness_and_builds_no_dual_d3(monkeypatch, name):
    pair = named_pair(name)
    calls = _count_closedness_tests(monkeypatch)
    t = dualize(pair)
    assert calls == []
    assert 3 not in t.dual.bundle._dcols
    for g in generators(t.n):
        act_on_triple(g, t)
    assert calls == []


@pytest.mark.parametrize("name", DUALIZABLE)
def test_documents_test_each_flux_once(monkeypatch, name):
    pair = named_pair(name)
    n = pair.bundle.n
    pair_doc, triple_doc = pair_to_doc(pair), triple_to_doc(dualize(pair))
    calls = _count_closedness_tests(monkeypatch)
    build_bundle(pair.base, list(pair.bundle.chern))
    assert calls == [("base", 2)] * n
    calls.clear()
    pair_from_doc(pair_doc)
    assert calls == [("base", 2)] * n + [("bundle", 3)]
    calls.clear()
    triple_from_doc(triple_doc)
    assert calls == [("base", 2)] * (2 * n) + [("bundle", 3)] * 2


# ---------------------------------------------------------------------------
# double dual


def test_double_dual_is_identity_on_pairs():
    pairs = [
        hopf_pair(1, 0),
        hopf_pair(1, 1),
        hopf_pair(1, 2),
        hopf_pair(2, 3),
        t3_over_t2_pair(1),
        t3_over_t2_pair(2),
        trivial_pair(S3, 1),
        trivial_pair(T3, 1),
    ]
    for pair in pairs:
        t = dualize(pair)
        tt = dualize(t.dual)
        # chern data agree exactly
        for z1, z2 in zip(tt.dual.bundle.chern, pair.bundle.chern):
            assert list(z1) == list(z2)
        # flux classes agree
        H = pair.bundle.total_cohomology(3)
        assert H.reduce(tt.dual.flux.vector) == H.reduce(pair.flux.vector)


def test_double_dual_on_n2_pair():
    m = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    flux = scaled(2, m.element_vector(2, 0, (1,)))
    pair = Pair(m, Cocycle(3, flux))
    t = dualize(pair)
    assert validate_triple(t).ok
    tt = dualize(t.dual)
    H = m.total_cohomology(3)
    assert H.reduce(tt.dual.flux.vector) == H.reduce(pair.flux.vector)
    for z1, z2 in zip(tt.dual.bundle.chern, m.chern):
        assert list(z1) == list(z2)


# ---------------------------------------------------------------------------
# torsor structure over fixed bundles


def spanning_h3(base):
    return [Cocycle(3, g) for g in base.cohomology(3).generator_vectors()]


@pytest.mark.parametrize("base_name,make", [
    ("s3", lambda: trivial_pair(S3, 1)),
    ("t3", lambda: trivial_pair(T3, 1)),
])
def test_h3_action_free_and_invertible(base_name, make):
    pair = make()
    base = pair.base
    t = dualize(pair)
    H3 = base.cohomology(3)
    for alpha in spanning_h3(base):
        moved = h3_action(t, alpha)
        assert validate_triple(moved).ok
        delta = torsor_difference(moved, t)
        assert H3.reduce(delta.vector) == H3.reduce(alpha.vector)
        # inverse action returns to the original class
        back = h3_action(moved, Cocycle(3, scaled(-1, alpha.vector)))
        assert H3.reduce(torsor_difference(back, t).vector) == H3.group.zero_nf()


def test_torsor_difference_of_triple_with_itself():
    t = dualize(trivial_pair(S3, 1))
    delta = torsor_difference(t, t)
    assert S3.cohomology(3).is_zero(delta.vector)


def test_h3_action_zero_is_identity():
    t = dualize(hopf_pair(1, 1))
    moved = h3_action(t, Cocycle(3, S2.zero_vector(3)))
    assert list(moved.side.flux.vector) == list(t.side.flux.vector)
    assert list(moved.w) == list(t.w)


def test_torsor_difference_requires_same_bundles():
    t1 = dualize(hopf_pair(1, 1))
    t2 = dualize(hopf_pair(2, 1))
    with pytest.raises(TripleMismatchError):
        torsor_difference(t1, t2)


def test_h3_action_rejects_nonclosed():
    from tdk.space_model import DgRingModel

    base = DgRingModel([["1"], [], [], ["a"], ["b"]], {3: [[1]]}, {})
    m = build_bundle(base, [base.zero_vector(2)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    with pytest.raises(InputError):
        h3_action(t, Cocycle(3, base.basis_vector(3, 0)))  # d(a) = b != 0
    with pytest.raises(InputError):
        h3_action(t, Cocycle(2, base.zero_vector(2)))  # wrong degree


# ---------------------------------------------------------------------------
# gauge action


def test_gauge_action_formula_on_t3():
    # n = 1 bundles over T^3 with chern k.[x1 x2], psi spanning H^1
    base = T3
    H3 = base.cohomology(3)
    for k in [0, 1, 2]:
        m = build_bundle(base, [scaled(k, base.basis_vector(2, 0))])
        pair = Pair(m, Cocycle(3, m.zero_vector(3)))
        t = dualize(pair)
        gens1 = base.cohomology(1).generator_vectors()
        zero1 = [base.zero_vector(1)]
        for psi in gens1 + zero1:
            for psihat in gens1 + zero1:
                moved = gauge_action(t, [psi], [psihat])
                assert validate_triple(moved).ok
                predicted = gauge_shift(t, [psi], [psihat])
                delta = torsor_difference(moved, t)
                assert H3.reduce(delta.vector) == H3.reduce(predicted.vector)


def test_gauge_shift_explicit_value():
    # chat = k.[x1x2], psi = [x3]: shift = k.[x1x2x3]
    base = T3
    k = 2
    m = build_bundle(base, [base.zero_vector(2)])
    pair = Pair(m, Cocycle(3, scaled(k, m.element_vector(2, 0, (0,)))))
    t = dualize(pair)  # dual chern = k.[x1 x2]
    psi = base.basis_vector(1, 2)  # x3
    shift = gauge_shift(t, [psi], [base.zero_vector(1)])
    H3 = base.cohomology(3)
    assert H3.reduce(shift.vector) == H3.reduce(scaled(k, base.basis_vector(3, 0)))
    assert H3.reduce(shift.vector) != H3.group.zero_nf()


def test_gauge_shift_zero_on_sphere_base():
    # H^1(S^2) = 0: every gauge shift vanishes
    t = dualize(hopf_pair(1, 1))
    shift = gauge_shift(t, [S2.zero_vector(1)], [S2.zero_vector(1)])
    assert all(x == 0 for x in shift.vector)


@pytest.mark.parametrize("verb", [gauge_action, gauge_shift])
def test_gauge_verbs_refuse_the_same_classes(verb):
    # n = 2 over T^3 with chern (x1 x2, x1 x3)
    m = build_bundle(T3, [T3.basis_vector(2, 0), T3.basis_vector(2, 1)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    zero, x2, x3 = T3.zero_vector(1), T3.basis_vector(1, 1), T3.basis_vector(1, 2)
    verb(t, [zero, zero], [zero, x2])
    for psis, psihats in [([zero, zero], [zero]), ([zero, zero], [zero, x2, x3]),
                          ([zero], [zero, zero])]:
        with pytest.raises(InputError, match="one degree-1 class per fiber circle"):
            verb(t, psis, psihats)
    with pytest.raises(DimensionError):
        verb(t, [zero, zero], [zero, [0, 1]])
    # over the Heisenberg base one degree-1 generator is not closed
    H = builtin_space("heisenberg", {"k": 1})
    t = dualize(trivial_pair(H, 1))
    (unclosed,) = [v for v in map(H.basis_vector, [1] * 3, range(3)) if not H.is_closed(1, v)]
    with pytest.raises(InputError, match="gauge classes must be closed"):
        verb(t, [H.zero_vector(1)], [unclosed])


# ---------------------------------------------------------------------------
# extensions


def test_extension_report_hopf():
    rep = extension_report(hopf_pair(1, 2))
    assert rep.dualizable
    assert rep.torsor_invariants == (0, ())  # H^3(S^2) = 0
    assert rep.agree


def test_extension_report_t3_chern_bundle():
    # base T^3, n = 1, c = [x1 x2]: ker(pi*) = Z.vol = im(C), quotient trivial
    m = build_bundle(T3, [T3.basis_vector(2, 0)])
    pair = Pair(m, Cocycle(3, m.zero_vector(3)))
    rep = extension_report(pair)
    assert rep.torsor_invariants == (0, ())
    assert rep.crosscheck_invariants == (0, ())
    assert rep.agree


def test_extension_report_crosscheck_on_shipped_pairs():
    pairs = [
        hopf_pair(1, 1),
        hopf_pair(3, 0),
        t3_over_t2_pair(2),
        t3_over_s1_volume_pair(),
        trivial_pair(T3, 1),
        Pair(
            build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]),
            Cocycle(
                3,
                build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)]).zero_vector(3),
            ),
        ),
    ]
    for pair in pairs:
        rep = extension_report(pair)
        assert rep.agree, (pair, rep.torsor_invariants, rep.crosscheck_invariants)


def test_extension_n1_crosscheck_trivial():
    # n = 1: the (0,2) slot is the second exterior power of one generator = 0
    for pair in [hopf_pair(1, 1), t3_over_t2_pair(1), trivial_pair(T3, 1)]:
        rep = extension_report(pair)
        assert rep.crosscheck_invariants == (0, ())


_DOORS = {
    "Pair flux": (lambda t: Pair(t.side.bundle, [0] * t.side.bundle.dim(3)), "flux must be a Cocycle, got list"),
    "Pair bundle": (lambda t: Pair([1], t.side.flux), "bundle must be a BundleModel, got list"),
    "Triple side": (lambda t: Triple([1], t.dual, t.w), "side must be a Pair, got list"),
    "h3_action": (lambda t: h3_action(t, [0] * t.base.dim(3)), "alpha must be a Cocycle, got list"),
    "torsor_difference": (lambda t: torsor_difference(t, [1]), "t2 must be a Triple, got list"),
    "gauge_action": (lambda t: gauge_action(t, 5, 5), "psis must be a sequence of degree-1 cochains, got 5"),
    "filtration_report": (lambda t: t.side.bundle.filtration_report([0] * t.side.bundle.dim(3)),
                          "z must be a Cocycle, got list"),
    "pullback_to_total": (lambda t: t.side.bundle.pullback_to_total([0]), "coc must be a Cocycle, got list"),
    "cup_class": (lambda t: t.base.cup_class([0], [0]), "x must be a Cocycle, got list"),
}


@pytest.mark.parametrize("door", sorted(_DOORS))
def test_a_library_door_names_the_argument_of_the_wrong_type(door):
    call, message = _DOORS[door]
    with pytest.raises(InputError) as info:
        call(dualize(named_pair("hopf_k2")))
    assert str(info.value) == message


_RECORD_DOORS = {  # each public function that takes a Pair or a Triple first
    "dualize": (dualize, "pair"),
    "is_dualizable": (is_dualizable, "pair"),
    "extension_report": (extension_report, "pair"),
    "twisted_dims": (twisted_dims, "pair"),
    "validate_triple": (validate_triple, "t"),
    "verify_iso": (verify_iso, "t"),
    "t_transform": (t_transform, "t"),
    "h3_action": (lambda t: h3_action(t, Cocycle(3, [1])), "t"),
}


@pytest.mark.parametrize("door", sorted(_RECORD_DOORS))
def test_a_door_that_takes_a_record_refuses_a_list(door):
    call, name = _RECORD_DOORS[door]
    kind = "Pair" if name == "pair" else "Triple"
    with pytest.raises(InputError) as info:
        call([1])
    assert str(info.value) == f"{name} must be a {kind}, got list"


_FIRST_ARGUMENT_DOORS = {  # door: (call with the wrong value, its name, the class it must be)
    "cohomology_ring K": (lambda t, x: cohomology_ring(x), "K", "SimplicialComplex"),
    "product_model A": (lambda t, x: product_model(x, t.base), "A", "DgRingModel"),
    "product_model B": (lambda t, x: product_model(t.base, x), "B", "DgRingModel"),
    "gauge_action t": (lambda t, x: gauge_action(x, [[0]], [[0]]), "t", "Triple"),
    "gauge_shift t": (lambda t, x: gauge_shift(x, [[0]], [[0]]), "t", "Triple"),
    "act_on_chern g": (lambda t, x: act_on_chern(x, t.base, t.side.bundle.chern, t.dual.bundle.chern),
                       "g", "OnnElement"),
    "act_on_triple g": (lambda t, x: act_on_triple(x, t), "g", "OnnElement"),
    "act_on_triple t": (lambda t, x: act_on_triple(flip_element(1), x), "t", "Triple"),
}


@pytest.mark.parametrize("value", [None, 5, "x", [1], [], {}, 1.5], ids=repr)
@pytest.mark.parametrize("door", sorted(_FIRST_ARGUMENT_DOORS))
def test_a_door_names_its_record_argument_of_the_wrong_type(door, value):
    call, name, kind = _FIRST_ARGUMENT_DOORS[door]
    with pytest.raises(InputError) as info:
        call(dualize(named_pair("hopf_k2")), value)
    assert str(info.value) == f"{name} must be a {kind}, got {type(value).__name__}"
