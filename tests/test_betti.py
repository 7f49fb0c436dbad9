"""Cohomology invariants from one sparse elimination per differential.

``betti()`` reads the isomorphism type of every H^k off the invariant
factors of the differentials (``exact_linalg.cochain_invariants``), without
building a ``Subquotient``.  The oracle is the ``Subquotient`` route,
``cohomology(k).invariants()``, on simplicial complexes and on random
two-term complexes whose torsion has several factors, and, for the
clearing across degrees, also one ``invariant_factors`` per differential
without clearing, on random complexes and random bundle total models.
H^0 is read off a count of components, with no elimination of d_0: the
oracle holds it on disjoint unions, isolated vertices, graphs with cycles
and complexes of vertices alone.  Call-count guards pin the cost model of
the three verbs that report only invariants, and of the clearing on grids,
and keep bundle builds and ``tdk cohomology`` on a ``dgring`` document off
any elimination of a whole differential.  A simplicial complex numbers its faces as it finds them;
two oracles cover that numbering: shuffled, relabelled facets give the same
``betti()``, and the sorted views that classes are read on equal those of
a reference construction kept here, which lists every face of every facet.
"""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import grid_doc
from test_parse import total_models
from test_snf_reuse import matrices
from tdk import exact_linalg
from tdk.cli import run
from tdk.exact_linalg import cochain_cohomology, cochain_invariants, invariant_factors, transpose
from tdk.fixtures import PROJECTIVE_PLANE_6, TORUS_7, simplicial_doc
from tdk.serialize import dumps, space_to_doc
from tdk.space_model import SimplicialComplex, builtin_space, parse_space
from tdk.torus_bundle import build_bundle

GRID_H = {
    "torus": [(1, ()), (2, ()), (1, ())],
    "klein": [(1, ()), (1, ()), (0, (2,))],
}


def _subquotient_invariants(space):
    return [space.cohomology(k).invariants() for k in range(space.dim + 1)]


@pytest.mark.parametrize("name", ["boundary-tetrahedron", "torus-7", "projective-plane-6"])
def test_betti_matches_subquotients_on_fixture_complexes(name):
    K = parse_space(simplicial_doc(name))
    assert K.betti() == _subquotient_invariants(K)


@pytest.mark.parametrize("kind", sorted(GRID_H))
@pytest.mark.parametrize("m", [3, 4, 5])
def test_betti_matches_subquotients_on_grids(kind, m):
    K = parse_space(grid_doc(kind, m))
    assert K.betti() == _subquotient_invariants(K) == GRID_H[kind]


def test_torsion_lists_factors_in_divisibility_order():
    # C^1 = Z^3 -> C^2 = Z^3 with d_1 = diag(12, 1, 2) up to order: H^2 = Z/2 + Z/12
    rows = {0: [{}, {}, {}], 1: [{0: 12}, {1: 1}, {2: 2}], 2: []}
    dims = {0: 1, 1: 3, 2: 3}
    assert cochain_invariants(2, dims.get, rows.get, 1) == [(1, ()), (0, ()), (0, (2, 12))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices)
def test_two_term_complex_matches_subquotients(M):
    """Z --0--> C^1 --M--> C^2, any integer matrix: H^2 = coker M carries all its torsion.

    d_0 = 0 from C^0 = Z, as in a ring model, so H^0 = Z is one component.
    """
    columns, m = M
    n = len(columns)
    dims = {0: 1, 1: n, 2: m}
    d_cols = {0: [{}], 1: columns, 2: [{}] * m}

    def dim(k):  # C^3 = 0, the rows of d_2
        return dims.get(k, 0)

    want = [cochain_cohomology(k, 2, dim, d_cols.get).invariants() for k in range(3)]
    rows = lambda k: transpose(d_cols[k], dim(k + 1))  # noqa: E731
    assert cochain_invariants(2, dims.get, rows, 1) == want


# ---------------------------------------------------------------------------
# clearing across degrees


def _betti_without_clearing(top, dim, columns):
    """H* from one ``invariant_factors`` per differential, each of a whole d_k."""
    # the last entry stands for d_{-1} = 0, read at k = 0 as factors[-1]
    factors = [invariant_factors(columns(k)) for k in range(top + 1)] + [[]]
    return [
        (dim(k) - len(factors[k]) - len(factors[k - 1]), tuple(e for e in factors[k - 1] if e >= 2))
        for k in range(top + 1)
    ]


@st.composite
def complexes(draw):
    """Facets on at most 8 vertices, of dimension at most 3.

    Some draws start from a relabelled RP^2 or torus, so that torsion and
    H^2 show up; random facets are added on top of them.
    """
    start = draw(st.sampled_from([[], PROJECTIVE_PLANE_6, TORUS_7]))
    label = draw(st.permutations(range(8)))
    facets = [[label[v] for v in f] for f in start]
    simplex = st.sets(st.integers(0, 7), min_size=1, max_size=4).map(sorted)
    facets += draw(st.lists(simplex, min_size=0 if start else 1, max_size=6))
    return SimplicialComplex(8, facets)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(complexes())
def test_clearing_keeps_betti_on_random_complexes(K):
    want = _subquotient_invariants(K)
    assert _betti_without_clearing(K.dim, K.n_simplices, K.coboundary_columns) == want
    assert K.betti() == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(total_models())
def test_clearing_keeps_betti_on_random_bundles(m):
    want = [m.cohomology(k).invariants() for k in range(m.D + 1)]
    assert _betti_without_clearing(m.D, m.dim, m.d_columns) == want
    assert m.betti() == want


@pytest.mark.parametrize("kind", sorted(GRID_H))
@pytest.mark.parametrize("m", [3, 4, 5])
def test_grids_load_d2_and_d1_only_and_write_no_rows_of_d0(kind, m, monkeypatch):
    """d_2 has no rows and d_1 one per triangle; d_0's 3 m^2 rows are never written."""
    original = exact_linalg._unit_pivots
    loaded = []  # rows that enter each elimination, from d_top down to d_1

    def counted(rows, cleared=()):
        pivots, left = original(rows, cleared)
        loaded.append(len(pivots) + len(left))
        return pivots, left

    monkeypatch.setattr(exact_linalg, "_unit_pivots", counted)
    K = parse_space(grid_doc(kind, m))
    assert K._rows[0] is None
    assert K.betti() == GRID_H[kind]
    assert loaded == [0, 2 * m * m]
    assert K.n_simplices(1) == 3 * m * m


# ---------------------------------------------------------------------------
# H^0 from the component count, with no elimination of d_0


def _disjoint(*parts):
    """(vertex count, facets) of the disjoint union of (vertex count, facets) parts."""
    facets, offset = [], 0
    for n, part in parts:
        facets += [[offset + v for v in f] for f in part]
        offset += n
    return offset, facets


def _grid(kind, m):
    doc = grid_doc(kind, m)
    return int(doc["vertices"]), doc["facets"]


COMPONENT_CASES = {
    # H^0 = Z^2: a torus and an RP^2, the second with labels moved past the first
    "torus-and-rp2": (
        _disjoint((7, TORUS_7), (6, PROJECTIVE_PLANE_6)),
        [(2, ()), (2, ()), (1, (2,))],
    ),
    # isolated 0-dimensional facets, a vertex of the torus listed as a facet too
    "torus-and-points": (
        _disjoint((7, TORUS_7 + [[3]]), (1, [[0]]), (2, [[1]])),
        [(3, ()), (2, ()), (1, ())],
    ),
    "edge-and-points": ((5, [[0, 1], [2], [4]]), [(3, ()), (0, ())]),
    # a graph: K4 (3 independent cycles), a triangle and a path
    "graph-with-cycles": (
        _disjoint(
            (4, list(itertools.combinations(range(4), 2))),
            (3, [[0, 1], [1, 2], [0, 2]]),
            (3, [[0, 1], [1, 2]]),
        ),
        [(3, ()), (4, ())],
    ),
    "vertices-only": ((6, [[5], [1], [3]]), [(3, ())]),
    "two-grids": (
        _disjoint(_grid("torus", 4), _grid("klein", 5)),
        [(2, ()), (3, ()), (1, (2,))],
    ),
}


@pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
def test_betti_counts_components_without_d0(case):
    (n, facets), want = COMPONENT_CASES[case]
    K = SimplicialComplex(n, facets)
    assert K._rows[0] is None or K.dim == 0
    assert K.betti() == _subquotient_invariants(K) == want


@pytest.mark.parametrize("m", [3, 4, 5])
def test_klein_grid_cohomology_takes_no_smith_form(m, tmp_path, monkeypatch):
    """d_1's unit pivots leave one row, whose gcd 2 is the torsion of H^2."""
    snf = _counted(monkeypatch, "smith_normal_form")
    code, report = run(["cohomology", "--base", _write(tmp_path, "klein.json", grid_doc("klein", m))])
    assert code == 0, report
    assert report["cohomology"]["2"] == {"rank": "0", "torsion": ["2"]}
    assert snf == []


# ---------------------------------------------------------------------------
# the discovery numbering


@st.composite
def facet_lists(draw):
    """The facets of a drawn complex, with faces of some of them listed as facets too."""
    facets = [list(f) for f in draw(complexes()).facets]
    for f in draw(st.lists(st.sampled_from(facets), max_size=4)):
        facets.append(sorted(draw(st.sets(st.sampled_from(f), min_size=1))))
    return facets


@settings(max_examples=100, deadline=None, derandomize=True)
@given(facet_lists(), st.data())
def test_betti_ignores_facet_order_and_vertex_labels(facets, data):
    label = data.draw(st.permutations(range(8)))
    moved = data.draw(st.permutations([[label[v] for v in f] for f in facets]))
    K, L = SimplicialComplex(8, facets), SimplicialComplex(8, moved)
    # betti() eliminates copies, so a second call sees the same rows
    assert K.betti() == K.betti() == L.betti()
    assert K.betti() == _subquotient_invariants(K) == _subquotient_invariants(L)


def _eager_views(K):
    """Reference ``simplices``, ``index`` and ``coboundary_columns(k)`` for k = -1..dim + 1:
    every face of every facet, sorted per level, built eagerly."""
    simplices = [set() for _ in range(K.dim + 1)]
    for f in K.facets:
        for k in range(1, len(f) + 1):
            for face in itertools.combinations(f, k):
                simplices[k - 1].add(face)
    simplices = [sorted(s) for s in simplices]
    index = [{s: i for i, s in enumerate(level)} for level in simplices]
    columns = []
    for k in range(-1, K.dim + 2):
        cols = [{} for _ in range(len(simplices[k]) if 0 <= k <= K.dim else 0)]
        for r, tau in enumerate(simplices[k + 1] if 0 <= k < K.dim else []):
            for drop in range(len(tau)):
                cols[index[k][tau[:drop] + tau[drop + 1 :]]][r] = -1 if drop % 2 else 1
        columns.append(cols)
    return simplices, index, columns


def _assert_eager_views(K):
    simplices, index, columns = _eager_views(K)
    assert K.simplices is K.simplices and K.index is K.index  # built once
    # compared as item lists, so that the order of every dict is the same too
    assert K.simplices == simplices
    assert [list(level.items()) for level in K.index] == [list(level.items()) for level in index]
    got = [K.coboundary_columns(k) for k in range(-1, K.dim + 2)]
    assert [[list(c.items()) for c in cols] for cols in got] == [
        [list(c.items()) for c in cols] for cols in columns
    ]
    assert [K.n_simplices(k) for k in range(-1, K.dim + 2)] == [0, *map(len, simplices), 0]


@pytest.mark.parametrize("name", ["boundary-tetrahedron", "torus-7", "projective-plane-6"])
def test_sorted_views_match_the_eager_construction_on_fixtures(name):
    _assert_eager_views(parse_space(simplicial_doc(name)))


@pytest.mark.parametrize("kind", sorted(GRID_H))
@pytest.mark.parametrize("m", [3, 4, 5])
def test_sorted_views_match_the_eager_construction_on_grids(kind, m):
    _assert_eager_views(parse_space(grid_doc(kind, m)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(facet_lists())
def test_sorted_views_match_the_eager_construction_on_random_complexes(facets):
    _assert_eager_views(SimplicialComplex(8, facets))


# ---------------------------------------------------------------------------
# call-count guard


def _counted(monkeypatch, name):
    """Replace exact_linalg's ``name`` in every tdk module that binds it; return the call list."""
    original = getattr(exact_linalg, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("tdk") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


LENS3 = [(1, ()), (0, ()), (0, (3,)), (1, ())]  # L(3, 1)


def _verb(case, tmp_path):
    """(argv, H* by degree) for one of the three verbs that report only invariants."""
    if case == "klein-grid":
        path = _write(tmp_path, "klein5.json", grid_doc("klein", 5))
        return ["cohomology", "--base", path], GRID_H["klein"]
    if case == "dgring-lens":
        lens = build_bundle(builtin_space("sphere", {"k": 2}), [[3]])
        path = _write(tmp_path, "lens.json", space_to_doc(lens))
        return ["cohomology", "--base", path], LENS3
    chern = _write(tmp_path, "chern.json", [["3"]])
    return ["bundle", "--builtin", "sphere", "--params", '{"k": "2"}', "--chern", chern], LENS3


@pytest.mark.parametrize("case", ["klein-grid", "dgring-lens", "bundle-lens"])
def test_invariant_verbs_factor_each_differential_once(case, tmp_path, monkeypatch):
    argv, betti = _verb(case, tmp_path)
    sub = _counted(monkeypatch, "subquotient")
    # cochain_invariants runs the unit-pivot pass of invariant_factors itself
    factors = _counted(monkeypatch, "_unit_pivots")
    snf = _counted(monkeypatch, "smith_normal_form")
    code, report = run(argv)
    assert code == 0, report
    table = report.get("cohomology") or report["total_cohomology"]
    assert table == {
        str(k): {"rank": str(rank), "torsion": [str(e) for e in torsion]}
        for k, (rank, torsion) in enumerate(betti)
    }
    assert sub == []
    assert len(factors) == len(betti) - 1  # one elimination per differential d_top..d_1
    assert len(snf) <= len(factors)


def test_simplicial_cohomology_builds_no_sorted_view(tmp_path, monkeypatch):
    """``tdk cohomology`` on a complex eliminates its discovery rows, one pass per degree."""
    made = []
    build = SimplicialComplex._build  # both doors, __init__ and _from_ints, build here

    def recorded(self, *args, **kwargs):
        build(self, *args, **kwargs)
        made.append(self)

    read = []
    monkeypatch.setattr(SimplicialComplex, "_build", recorded)
    monkeypatch.setattr(SimplicialComplex, "coboundary_columns", lambda self, k: read.append(k))
    factors = _counted(monkeypatch, "_unit_pivots")
    argv, betti = _verb("klein-grid", tmp_path)
    code, report = run(argv)
    assert code == 0, report
    assert report["cohomology"]["2"] == {"rank": "0", "torsion": ["2"]}
    [K] = made
    assert "simplices" not in vars(K) and "index" not in vars(K)
    assert read == []
    assert len(factors) == len(betti) - 1 == K.dim  # d_2 and d_1, no d_0


def test_builds_and_dgring_cohomology_build_no_dense_differential(tmp_path, monkeypatch):
    argv, _ = _verb("dgring-lens", tmp_path)
    # no elimination reads a whole differential: a build eliminates nothing,
    # and the verb only through the unit-pivot pass of cochain_invariants
    dense = _counted(monkeypatch, "kernel_basis")
    snf = _counted(monkeypatch, "smith_normal_form")
    for name, params, chern in (
        ("point", {}, [[]] * 5),
        ("torus", {"k": 3}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("heisenberg", {"k": 2}, [[1, 0, 0], [0, 0, 3]]),
        ("surface", {"genus": 2}, [[1], [2]]),
    ):
        m = build_bundle(builtin_space(name, params), chern)
        assert "_dense" not in vars(m)
    assert dense == snf == []
    code, report = run(argv)
    assert code == 0, report
    assert dense == []
