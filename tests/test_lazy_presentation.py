"""Oracles for the presentations that subquotients build on first read.

``subquotient`` builds a group's relation lattice and the lattice's Smith
form only when ``reduce``, ``section`` or ``rels`` is first read, and reads
the invariants off the denominator B where it can (``exact_linalg`` module
docstring).  Each shortcut is held to the relations it skips:

- on every page slot of random and fixture bundles, and on every H^k that
  ``cochain_cohomology`` builds for the fixture bases, total models and
  complexes, the invariants read before any presentation equal those of
  the relations forced afterwards, and the padded Smith diagonal read off B
  is that of the relations;
- a numerator with no entry is the zero group over any ambient; a
  saturated numerator over an ambient with relations, and the images and
  kernels of homs, are read from their relations; the kernel of a map out
  of a group with no generators reads the relations of neither group;
- ``tdk ss --page 3`` on surface and T^2 bundles with n <= 2 builds no
  relation lattice, and ``tdk extensions`` on surface pairs builds none for
  a page slot or for the page-3 image.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

import tdk.exact_linalg as exact_linalg  # noqa: E402
from tdk.cli import run  # noqa: E402
from tdk.exact_linalg import FgAbelianGroup, GroupHom, identity, subquotient  # noqa: E402
from tdk.fixtures import PAIR_NAMES, named_pair, simplicial_doc  # noqa: E402
from tdk.serialize import dumps, pair_to_doc  # noqa: E402
from tdk.space_model import Cocycle, builtin_space, parse_space  # noqa: E402
from tdk.tduality_core import Pair  # noqa: E402
from tdk.torus_bundle import BundleModel, build_bundle  # noqa: E402
from test_golden import EXTRA_PAIRS, GRIDS, SIMPLICIAL, extra_pair, grid_doc  # noqa: E402
from test_lazy_bundle import _slots, bundles  # noqa: E402


def _read_before_forced(sq):
    """Read the invariants of a fresh subquotient, then force its relations; both must agree."""
    group = sq.group
    assert "rels" not in vars(group) and "_diag_full" not in vars(group)
    invariants = sq.invariants()
    assert "rels" not in vars(group)  # read off B, with no presentation
    forced = FgAbelianGroup(group.ngens, group.rels)
    assert forced.invariants() == invariants
    assert forced._diag_full == group._diag_full


def _every_slot(m):
    for r, p, q in _slots(m):
        _read_before_forced(m._page_subquotient(r, p, q))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bundles())
def test_every_page_slot_reads_the_invariants_of_its_relations(m):
    _every_slot(m)


@pytest.mark.parametrize("name", PAIR_NAMES + tuple(EXTRA_PAIRS))
def test_every_page_slot_of_a_fixture_bundle_reads_those_of_its_relations(name):
    _every_slot((named_pair(name) if name in PAIR_NAMES else extra_pair(name)).bundle)


def _models():
    """Every fixture base and total model, each simplicial fixture and grid."""
    out = {}
    for name in PAIR_NAMES:
        pair = named_pair(name)
        out[f"{name} base"], out[f"{name} total"] = pair.base, pair.bundle
    for name in SIMPLICIAL:
        out[name] = parse_space(simplicial_doc(name))
    for kind, size in GRIDS:
        out[f"{kind} grid {size}"] = parse_space(grid_doc(kind, size))
    return out


@pytest.mark.parametrize("name", sorted(_models()))
def test_cochain_cohomology_reads_the_invariants_of_its_relations(name):
    model = _models()[name]
    top = model.D if hasattr(model, "D") else model.dim
    for k in range(-1, top + 2):
        _read_before_forced(model.cohomology(k))


@pytest.mark.parametrize("amb", [FgAbelianGroup(2), FgAbelianGroup(2, [{0: 3}])], ids=["free", "Z/3+Z"])
@pytest.mark.parametrize("Z", [[], [{}], [{}, {}, {}]], ids=len)
def test_a_numerator_with_no_entry_is_the_zero_group_over_any_ambient(amb, Z):
    sq = subquotient(amb, Z, [])
    _read_before_forced(sq)
    assert sq.invariants() == (0, ())
    assert sq.group._diag_full == [1] * len(Z)


def test_a_saturated_numerator_over_an_ambient_with_relations_reads_them():
    sq = subquotient(FgAbelianGroup(1, [{0: 2}]), identity(1), [], _saturated=True)
    assert sq.invariants() == (0, (2,))


@pytest.mark.parametrize("source, target, matrix, image, kernel", [
    (FgAbelianGroup(2), FgAbelianGroup(1), [{0: 1}, {0: 1}], (1, ()), (1, ())),
    (FgAbelianGroup(2), FgAbelianGroup(1), [{0: 2}, {0: 4}], (1, ()), (1, ())),
    (FgAbelianGroup(1), FgAbelianGroup(1, [{0: 4}]), [{0: 2}], (0, (2,)), (1, ())),
    (FgAbelianGroup(3), FgAbelianGroup(2), [{0: 2}, {1: 3}, {0: 2, 1: 3}], (2, ()), (1, ())),
])
def test_images_and_kernels_read_their_invariants_from_their_relations(source, target, matrix,
                                                                        image, kernel):
    hom = GroupHom(source, target, matrix)
    assert hom.image().invariants() == image
    assert hom.kernel().invariants() == kernel


def test_the_kernel_of_a_map_out_of_no_generators_reads_no_relations(relations):
    source = subquotient(FgAbelianGroup(2), [], []).group
    target = subquotient(FgAbelianGroup(2), [{0: 1}, {1: 2}], [{0: 3}]).group
    kernel = GroupHom(source, target, []).kernel()
    assert kernel.gens == [] and kernel.invariants() == (0, ())
    assert relations == []


# ---------------------------------------------------------------------------
# the verbs build no relation lattice where they read only invariants


@pytest.fixture
def relations(monkeypatch):
    """The (ngens of the ambient, len Z, len B) of every relation lattice built while the test runs."""
    built = []
    make = exact_linalg._relations

    def counted(amb, Z, B):
        built.append((amb.ngens, len(Z), len(B)))
        return make(amb, Z, B)

    monkeypatch.setattr(exact_linalg, "_relations", counted)
    return built


# the bundles of the benchmark's ss jobs with a base of degree 2, where page 3 is stable
SURFACE_BUNDLES = [(base, params, n) for base, params in (
    ("torus", {"k": "2"}), ("surface", {"genus": "2"}), ("surface", {"genus": "3"}),
    ("surface", {"genus": "4"})) for n in (1, 2)]


@pytest.mark.parametrize("base, params, n", SURFACE_BUNDLES)
@pytest.mark.parametrize("c", [0, 1, 3])
def test_ss_page_3_on_a_surface_bundle_builds_no_relation_lattice(tmp_path, relations, base,
                                                                   params, n, c):
    chern = tmp_path / "chern.json"
    chern.write_text(json.dumps([[str(c)]] + [["1"]] * (n - 1)))
    argv = ["ss", "--builtin", base, "--params", json.dumps(params), "--chern", str(chern),
            "--page", "3"]
    code, report = run(argv)
    assert code == 0, report
    assert len(report["slots"]) == 3 * (n + 1)
    assert relations == []


def _surface_pair(genus, n, c, flux):
    base = builtin_space("surface", {"genus": genus})
    m = build_bundle(base, [[c]] + [[0]] * (n - 1))
    vec = m.zero_vector(3)
    vec[m.index[3][(2, 0, (0,))]] = flux
    return Pair(m, Cocycle(3, vec))


@pytest.mark.parametrize("genus, n, c, flux", [(2, 1, 1, 1), (2, 2, 0, 1), (3, 2, 2, 3), (3, 1, 0, 0)])
def test_extensions_on_a_surface_pair_builds_no_page_relations(tmp_path, monkeypatch, genus, n, c,
                                                               flux):
    groups = []  # the group of every page slot and every image that the verb builds
    slot, image = BundleModel._page_subquotient, GroupHom.image

    def slot_built(self, r, p, q):
        sq = slot(self, r, p, q)
        groups.append(sq.group)
        return sq

    def image_built(self):
        sq = image(self)
        groups.append(sq.group)
        return sq

    monkeypatch.setattr(BundleModel, "_page_subquotient", slot_built)
    monkeypatch.setattr(GroupHom, "image", image_built)
    path = tmp_path / "pair.json"
    path.write_text(dumps(pair_to_doc(_surface_pair(genus, n, c, flux))))
    code, report = run(["extensions", "--pair", str(path)])
    assert code in (0, 1), report
    assert len({id(group) for group in groups}) == 3  # slots (0, 2), (3, 0) of page 3, d_3's image
    assert all("rels" not in vars(group) for group in groups)
