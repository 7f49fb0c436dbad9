"""Cohomology invariants from one sparse elimination per differential.

``betti()`` reads the isomorphism type of every H^k off the invariant
factors of the differentials (``exact_linalg.cochain_invariants``), without
building a ``Subquotient``.  The oracle is the ``Subquotient`` route,
``cohomology(k).invariants()``, on simplicial complexes and on random
two-term complexes whose torsion has several factors.  Call-count guards
pin the cost model of the three verbs that report only invariants, and keep
bundle builds and ``tdk cohomology`` on a ``dgring`` document off the dense
differential (``exact_linalg.dense_matrix``).
"""

import sys

import pytest
from hypothesis import given, settings

from test_golden import grid_doc
from test_snf_reuse import matrices
from tdk import exact_linalg
from tdk.cli import run
from tdk.exact_linalg import cochain_cohomology, cochain_invariants
from tdk.fixtures import simplicial_doc
from tdk.serialize import dumps, space_to_doc
from tdk.space_model import builtin_space, parse_space
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
    columns = {0: [{}], 1: [{0: 12}, {1: 1}, {2: 2}], 2: [{}, {}, {}]}
    dims = {0: 1, 1: 3, 2: 3}
    assert cochain_invariants(2, dims.get, columns.get) == [(1, ()), (0, ()), (0, (2, 12))]


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_two_term_complex_matches_subquotients(M):
    """C^0 --M--> C^1, any integer matrix: H^1 = coker M carries all its torsion."""
    m, n = M.shape
    dims = {0: n, 1: m}
    columns = [{r: int(M[r, c]) for r in range(m) if M[r, c]} for c in range(n)]
    d_cols = {0: columns, 1: [{}] * m}
    d_mats = {0: M, 1: exact_linalg.zeros(0, m)}
    want = [cochain_cohomology(k, 1, dims.get, d_mats.get).invariants() for k in range(2)]
    assert cochain_invariants(1, dims.get, d_cols.get) == want


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
        path = _write(tmp_path, "lens.json", space_to_doc(lens.total))
        return ["cohomology", "--base", path], LENS3
    chern = _write(tmp_path, "chern.json", [["3"]])
    return ["bundle", "--builtin", "sphere", "--params", '{"k": "2"}', "--chern", chern], LENS3


@pytest.mark.parametrize("case", ["klein-grid", "dgring-lens", "bundle-lens"])
def test_invariant_verbs_factor_each_differential_once(case, tmp_path, monkeypatch):
    argv, betti = _verb(case, tmp_path)
    sub = _counted(monkeypatch, "subquotient")
    factors = _counted(monkeypatch, "invariant_factors")
    snf = _counted(monkeypatch, "smith_normal_form")
    code, report = run(argv)
    assert code == 0, report
    table = report.get("cohomology") or report["total_cohomology"]
    assert table == {
        str(k): {"rank": str(rank), "torsion": [str(e) for e in torsion]}
        for k, (rank, torsion) in enumerate(betti)
    }
    assert sub == []
    assert len(factors) == len(betti)  # one elimination per differential d_0..d_top
    assert len(snf) <= len(factors)


def test_builds_and_dgring_cohomology_build_no_dense_differential(tmp_path, monkeypatch):
    argv, _ = _verb("dgring-lens", tmp_path)  # writing the document reads d densely
    dense = _counted(monkeypatch, "dense_matrix")
    for name, params, chern in (
        ("point", {}, [[]] * 5),
        ("torus", {"k": 3}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("heisenberg", {"k": 2}, [[1, 0, 0], [0, 0, 3]]),
        ("surface", {"genus": 2}, [[1], [2]]),
    ):
        build_bundle(builtin_space(name, params), chern)
    assert dense == []
    code, report = run(argv)
    assert code == 0, report
    assert dense == []
