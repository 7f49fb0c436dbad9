"""Oracles for the work that the duality verbs skip.

Each shortcut is held to the computation that it replaces:

- ``FiltrationReport.leading`` is built on first read: ``dualize``,
  ``extensions`` and ``check-triple`` build no E_infinity slot for it, and
  the lazy value equals the eager ``_page_subquotient(stable, p, k - p)``
  reduction on every fixture pair and on random pairs, zero class included;
- ``cochain_cohomology`` proves im d_{k-1} in ker d_k instead of checking
  it: the boundaries pass the reference containment test
  (``matrices.reference_contains``), and H^k is their subquotient, on every
  fixture model, builtin, grid and fixture bundle;
- ``extension_report`` proves that its pullback is well defined and that
  its torsor's denominator lies in its numerator: both pass the reference
  tests (``matrices.reference_well_defined`` and ``reference_contains``) on
  every fixture pair and on random pairs, and the references refuse a map
  and a denominator that break them;
- ``GroupHom.is_zero_hom`` reduces only the nonzero columns;
- ``validate_triple`` solves the degree-4 pairing once: the dual side's
  pairing has the same cochain and the same solution as the side's.

The Smith form of a matrix with no entries is held to the dense reference
in ``tests/test_snf_reuse.py``, and the refusal of a negative truncation in
``tests/test_space_model.py``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import tdk.tduality_core as tduality_core  # noqa: E402
from matrices import reference_contains, reference_well_defined  # noqa: E402
from tdk.cli import run  # noqa: E402
from tdk.exact_linalg import (  # noqa: E402
    FgAbelianGroup,
    GroupHom,
    _sum_terms,
    induced_hom,
    kernel_basis,
    mat_vec,
    subquotient,
)
from tdk.fixtures import PAIR_NAMES, named_pair, simplicial_doc  # noqa: E402
from tdk.serialize import dumps, pair_to_doc, triple_to_doc  # noqa: E402
from tdk.space_model import (  # noqa: E402
    Cocycle,
    _terms,
    builtin_space,
    cohomology_ring,
    parse_space,
    product_model,
)
from tdk.tduality_core import (  # noqa: E402
    Pair,
    _pairing_primitive,
    dualize,
    extension_report,
    is_dualizable,
)
from tdk.torus_bundle import BundleModel, build_bundle  # noqa: E402
from test_golden import GRIDS, SIMPLICIAL, grid_doc  # noqa: E402
from test_space_model import BUILTIN_LADDER  # noqa: E402

DUALIZABLE = [name for name in PAIR_NAMES if is_dualizable(named_pair(name))[0]]

# every degree-2 cochain on these bases is closed
BASES = (
    ("torus", {"k": 3}),
    ("surface", {"genus": 2}),
    ("heisenberg", {"k": 1}),
    ("heisenberg", {"k": 2}),
)
COEFF = st.integers(-2, 2)


def _vector(draw, length):
    return draw(st.lists(COEFF, min_size=length, max_size=length))


# ---------------------------------------------------------------------------
# the leading part, on first read


@pytest.fixture
def slots(monkeypatch):
    """The (r, p, q) of every ``_page_subquotient`` call while the test runs."""
    calls = []
    build = BundleModel._page_subquotient

    def counted(self, r, p, q):
        calls.append((r, p, q))
        return build(self, r, p, q)

    monkeypatch.setattr(BundleModel, "_page_subquotient", counted)
    return calls


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_dualize_and_check_triple_build_no_page_slot(tmp_path, slots, name):
    pair = _write(tmp_path, "pair.json", pair_to_doc(named_pair(name)))
    code, _ = run(["dualize", "--pair", pair])
    assert code == (0 if name in DUALIZABLE else 1)
    if name in DUALIZABLE:
        triple = _write(tmp_path, "triple.json", triple_to_doc(dualize(named_pair(name))))
        assert run(["check-triple", "--triple", triple])[0] == 0
    assert slots == []


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_extensions_builds_only_its_page_3_slots(tmp_path, slots, name):
    pair = _write(tmp_path, "pair.json", pair_to_doc(named_pair(name)))
    code, _ = run(["extensions", "--pair", pair])
    assert code == (0 if name in DUALIZABLE else 1)
    # d_3 out of slot (0, 2) and its target: no E_infinity slot of the flux's step
    assert set(slots) <= {(3, 0, 2), (3, 3, 0)}


def _eager_leading(m, report):
    """The leading part as ``filtration_report`` built it for every report, on a fresh model."""
    if report.is_zero:
        return ()
    fresh = build_bundle(m.base, list(m.chern))
    k, p = report.degree, report.p
    return fresh._page_subquotient(fresh.stable_page, p, k - p).reduce(report.representative)


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_leading_part_on_first_read_matches_the_eager_one(name):
    pair = named_pair(name)
    for flux in (pair.flux, Cocycle(3, pair.bundle.zero_vector(3))):
        report = pair.bundle.filtration_report(flux)
        assert "leading" not in vars(report)
        assert report.leading == _eager_leading(pair.bundle, report)
        assert report.leading is report.leading  # built once


@st.composite
def pairs(draw):
    """A random bundle over a builtin base, n <= 2, with a random flux, exact or not."""
    base = builtin_space(*draw(st.sampled_from(BASES)))
    m = build_bundle(base, [_vector(draw, base.dim(2)) for _ in range(draw(st.integers(1, 2)))])
    K = kernel_basis(m.d_columns(3), m.dim(4))
    cocycle = mat_vec(K, _vector(draw, len(K)), m.dim(3))
    if draw(st.booleans()):  # a boundary: the zero class
        cocycle = m.d(2, _vector(draw, m.dim(2)))
    return Pair(m, Cocycle(3, cocycle))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs())
def test_leading_part_matches_the_eager_one_on_random_pairs(pair):
    report = pair.bundle.filtration_report(pair.flux)
    assert report.leading == _eager_leading(pair.bundle, report)
    assert (report.leading == ()) == report.is_zero


# ---------------------------------------------------------------------------
# cohomology proves its containment


def _complexes():
    """(name, model) of every fixture model, builtin, grid and fixture bundle."""
    out = []
    for name in SIMPLICIAL:
        K = parse_space(simplicial_doc(name))
        out.append((name, K))
        out.append((f"ring-{name}", cohomology_ring(K)))
    for kind, m in GRIDS:
        out.append((f"{kind}-grid-{m}", parse_space(grid_doc(kind, m))))
    for name, params, truncation in BUILTIN_LADDER:
        out.append((f"{name}{params}-truncation{truncation}",
                    builtin_space(name, params, truncation=truncation)))
    T2 = builtin_space("torus", {"k": 2})
    out.append(("torus2-x-torus2", product_model(T2, T2)))
    for name in PAIR_NAMES:
        out.append((f"bundle-{name}", named_pair(name).bundle))
    return out


COMPLEXES = _complexes()


@pytest.mark.parametrize("model", [m for _, m in COMPLEXES], ids=[name for name, _ in COMPLEXES])
def test_cohomology_passes_the_containment_check_it_skips(model):
    if hasattr(model, "coboundary_columns"):  # a simplicial complex
        top, dim, columns = model.dim, model.n_simplices, model.coboundary_columns
    else:
        top, dim, columns = model.D, model.dim, model.d_columns
    for k in range(top + 1):
        H = model.cohomology(k)
        boundaries = columns(k - 1) if k else []
        cycles = kernel_basis(columns(k), dim(k + 1))
        assert reference_contains(FgAbelianGroup(dim(k)), cycles, boundaries)
        spec = subquotient(FgAbelianGroup(dim(k)), cycles, boundaries)
        assert spec.gens == H.gens
        assert spec.invariants() == H.invariants()
        gens = H.generator_vectors()
        assert [spec.reduce(g) for g in gens] == [H.reduce(g) for g in gens]


# ---------------------------------------------------------------------------
# the extension torsor proves its containment, and its pullback is well defined


def _extension_parts(pair):
    """The report, the torsor's (ambient, Z, B) and the pullback, as ``extension_report`` built them."""
    seen = {}

    def torsor(amb, Z, B):
        seen["torsor"] = amb, Z, B
        return subquotient(amb, Z, B)

    def pullback(src, tgt, fn):
        seen["pull"] = hom = induced_hom(src, tgt, fn)
        return hom

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tduality_core, "subquotient", torsor)
        patch.setattr(tduality_core, "induced_hom", pullback)
        report = extension_report(pair)
    return report, seen["torsor"], seen["pull"]


def _check_extension_parts(pair):
    report, (amb, Z, B), pull = _extension_parts(pair)
    assert reference_well_defined(pull)
    ker = pull.kernel()
    assert amb is ker.ambient is pull.source and Z == ker.gens
    assert reference_contains(ker.ambient, ker.gens, ker.ambient.rels)
    assert reference_contains(amb, Z, B)
    assert report.torsor_group.gens == Z


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_extension_torsor_and_pullback_pass_the_checks_they_skip(name):
    _check_extension_parts(named_pair(name))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pairs())
def test_extension_torsor_and_pullback_pass_the_checks_they_skip_on_random_pairs(pair):
    _check_extension_parts(pair)


def test_the_references_refuse_a_map_and_a_denominator_that_break_them():
    Z2, Z4 = FgAbelianGroup(1, [{0: 2}]), FgAbelianGroup(1, [{0: 4}])
    # doubling Z/2 -> Z/4 is well defined; the identity is not
    assert reference_well_defined(GroupHom(Z2, Z4, [{0: 2}]))
    assert not reference_well_defined(GroupHom(Z2, Z4, [{0: 1}]))
    # a relation with no image, one sent to a relation, one sent to e_0
    source = FgAbelianGroup(3, [{2: 1}, {1: 2}, {0: 1}])
    target = FgAbelianGroup(2, [{1: 2}])
    assert reference_well_defined(GroupHom(source, target, [{}, {1: 1}, {}]))
    assert not reference_well_defined(GroupHom(source, target, [{0: 1}, {1: 1}, {}]))
    # 3 is not in 2Z, but it is in 2Z + 3Z
    assert not reference_contains(FgAbelianGroup(1), [{0: 2}], [{0: 3}])
    assert reference_contains(FgAbelianGroup(1, [{0: 3}]), [{0: 2}], [{0: 3}])
    assert reference_contains(FgAbelianGroup(2), [{0: 2}], [{0: 4}, {}])


# ---------------------------------------------------------------------------
# zero images are never reduced


def test_zero_images_build_no_smith_form_of_the_target():
    source = FgAbelianGroup(2, [{1: 2}])
    target = FgAbelianGroup(3, [{0: 3}])
    hom = GroupHom(source, target, [{0: 1}, {}])  # the relation maps to zero
    assert hom.is_zero_hom() is False
    zero = GroupHom(source, FgAbelianGroup(3, [{0: 3}]), [{}, {}])
    assert zero.is_zero_hom()
    assert "_snf" not in vars(zero.target)
    # a nonzero column that is zero in the target is still read as zero
    assert GroupHom(FgAbelianGroup(1), target, [{0: 3}]).is_zero_hom()


# ---------------------------------------------------------------------------
# one degree-4 pairing per triple

PAIRING_BASES = BASES + (("T2xT2", None),)


def _pairing_base(name, params):
    if params is None:
        T2 = builtin_space("torus", {"k": 2})
        return product_model(T2, T2)
    return builtin_space(name, params)


def _pairing_total(base, cs, chs):
    dim2 = base.dim(2)
    return _sum_terms((1, base.mul_terms(2, _terms(a, dim2), 2, _terms(b, dim2)))
                      for a, b in zip(cs, chs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(PAIRING_BASES), st.integers(1, 3), st.data())
def test_the_dual_pairing_is_the_side_pairing(base_key, n, data):
    base = _pairing_base(*base_key)
    side = [_vector(data.draw, base.dim(2)) for _ in range(n)]
    dual = [_vector(data.draw, base.dim(2)) for _ in range(n)]
    assert all(base.is_closed(2, z) for z in side + dual)
    assert _pairing_total(base, dual, side) == _pairing_total(base, side, dual)
    assert _pairing_primitive(base, dual, side) == _pairing_primitive(base, side, dual)

