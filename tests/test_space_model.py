"""Space models: parsing, validation, simplicial cohomology, cup products.

Independent oracle for the simplicial fixtures: Betti numbers over Q and
dimensions over small prime fields via plain Gaussian elimination (no Smith
form involved), combined with the universal-coefficient bookkeeping
  rank H^k = dim_Q ker d_k - rank_Q d_{k-1},
  p-torsion present in H^k  iff  rank_{F_p} d_{k-1} < rank_Q d_{k-1}.
"""

import json
from fractions import Fraction

import pytest

from tdk.cli import run
from tdk.errors import InputError, ModelError, SchemaError
from matrices import array, columns, vec
from tdk.serialize import space_to_doc
from tdk.space_model import (
    DEFAULT_TRUNCATION,
    Cocycle,
    DgRingModel,
    SimplicialComplex,
    builtin_space,
    cohomology_ring,
    parse_space,
    product_model,
)

BOUNDARY_TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]

TORUS7 = [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)] + [
    sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)
]

RP2_6 = [
    [0, 1, 3],
    [0, 1, 5],
    [0, 2, 3],
    [0, 2, 4],
    [0, 4, 5],
    [1, 2, 4],
    [1, 2, 5],
    [1, 3, 4],
    [2, 3, 5],
    [3, 4, 5],
]


# ---------------------------------------------------------------------------
# field-rank oracle


def field_rank(mat, p=None):
    """Rank by Gaussian elimination over Q (p=None) or F_p."""
    rows = [
        [Fraction(x) if p is None else x % p for x in row] for row in mat
    ]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = (
            1 / rows[rank][col]
            if p is None
            else pow(int(rows[rank][col]), p - 2, p)
        )
        rows[rank] = [
            x * inv if p is None else (x * inv) % p for x in rows[rank]
        ]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [
                    a - f * b if p is None else (a - f * b) % p
                    for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
        col += 1
    return rank


def coboundary(K, k):
    """The simplicial coboundary C^k -> C^{k+1} as a numpy object array."""
    return array(K.coboundary_columns(k), K.n_simplices(k + 1))


def oracle_cohomology(K):
    """(rank, set of primes with torsion) per degree, via field ranks only."""
    out = []
    for k in range(K.dim + 1):
        dk = [[int(x) for x in row] for row in coboundary(K, k).tolist()]
        dk1 = (
            [[int(x) for x in row] for row in coboundary(K, k - 1).tolist()]
            if k >= 1
            else [[0] * 0 for _ in range(K.n_simplices(k))]
        )
        rk = field_rank(dk) if dk else 0
        rk1 = field_rank(dk1) if k >= 1 else 0
        betti = K.n_simplices(k) - rk - rk1
        torsion_primes = set()
        for p in (2, 3, 5, 7):
            if k >= 1 and field_rank(dk1, p) < rk1:
                torsion_primes.add(p)
        out.append((betti, torsion_primes))
    return out


# ---------------------------------------------------------------------------
# simplicial complexes


def test_boundary_tetrahedron_is_a_2_sphere():
    K = SimplicialComplex(4, BOUNDARY_TETRAHEDRON)
    assert K.dim == 2
    assert K.euler_characteristic() == 2
    assert oracle_cohomology(K) == [(1, set()), (0, set()), (1, set())]
    assert [K.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (0, ()),
        (1, ()),
    ]


def test_seven_vertex_torus():
    K = SimplicialComplex(7, TORUS7)
    assert K.euler_characteristic() == 0
    assert oracle_cohomology(K) == [(1, set()), (2, set()), (1, set())]
    assert [K.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (2, ()),
        (1, ()),
    ]


def test_six_vertex_projective_plane():
    K = SimplicialComplex(6, RP2_6)
    assert K.euler_characteristic() == 1
    # oracle: H^2 has rank 0 with 2-torsion and no other torsion
    assert oracle_cohomology(K) == [(1, set()), (0, set()), (0, {2})]
    assert K.cohomology(1).invariants() == (0, ())
    assert K.cohomology(2).invariants() == (0, (2,))


def test_euler_characteristic_equals_alternating_rank_sum():
    for facets, nv in [
        (BOUNDARY_TETRAHEDRON, 4),
        (TORUS7, 7),
        (RP2_6, 6),
    ]:
        K = SimplicialComplex(nv, facets)
        chi = sum(
            (-1) ** k * K.cohomology(k).invariants()[0]
            for k in range(K.dim + 1)
        )
        assert chi == K.euler_characteristic()


def test_complex_rejects_bad_facets():
    with pytest.raises(SchemaError):
        SimplicialComplex(3, [[0, 0, 1]])
    with pytest.raises(SchemaError):
        SimplicialComplex(3, [[0, 1, 7]])
    with pytest.raises(SchemaError):
        SimplicialComplex(6, [[0, 1, 2, 3, 4, 5]])  # dimension above bound


def test_complex_refuses_non_integer_vertices_instead_of_truncating():
    with pytest.raises(SchemaError) as err:
        SimplicialComplex(3, [[0, 1], [0, 1.7, 2]])
    assert str(err.value) == "facet 1 has a vertex that is not an integer: [0, 1.7, 2]"
    with pytest.raises(SchemaError, match=r"^vertex count 2\.9 is not an integer$"):
        SimplicialComplex(2.9, [[0, 1]])


def test_dgring_model_refuses_non_integer_products_instead_of_truncating():
    basis = [["1"], ["a"], ["b"]]
    for key, terms in (
        ((1, 0, 1, 0), {0: 1.9}),
        ((1.5, 0, 1, 0), {0: 1}),
        ((1, 0, 1, 0), {0.5: 1}),
        ((1, 0, 1, 0), {0: "2"}),
    ):
        with pytest.raises(InputError) as err:
            DgRingModel(basis, {}, {key: terms}, check=False)
        assert str(err.value) == f"product entry {key}: key and result {terms} must be integers"
    m = DgRingModel(basis, {}, {(1, 0, 1, 0): {0: 2, 1: 0}}, check=False)
    assert m.product == {(1, 0, 1, 0): {0: 2}}


def test_dgring_model_refuses_a_non_integer_differential_degree():
    basis = [["1"], ["a"], ["b"]]
    for key in (0.9, 1.0, "1"):
        with pytest.raises(InputError) as err:
            DgRingModel(basis, {key: [[0], [0]]}, {}, check=False)
        assert str(err.value) == f"differential degree {key!r} must be an integer"
    assert DgRingModel(basis, {1: [[0]]}, {}, check=False).diff_shapes == {1: (1, 1)}


def test_truncation_is_refused_unless_an_integer():
    doc = _torus2_doc()
    T1 = builtin_space("torus", {"k": 1})
    for bad in (1.9, 2.0, "2"):
        with pytest.raises(InputError) as err:
            parse_space(doc, truncation=bad)
        assert str(err.value) == f"truncation {bad!r} is not an integer"
        with pytest.raises(InputError) as err:
            product_model(T1, T1, truncation=bad)
        assert str(err.value) == f"truncation {bad!r} is not an integer"
    with pytest.raises(SchemaError, match="exceeds the truncation bound 1"):
        parse_space(doc, truncation=1)
    assert parse_space(doc, truncation=2).D == 2
    assert product_model(T1, T1, truncation=1).D == 1


def test_builtin_params_are_refused_unless_integers():
    for name, param, bad in (
        ("torus", "k", 2.9), ("torus", "k", "3"), ("sphere", "k", 2.0),
        ("surface", "genus", 1.5), ("heisenberg", "k", "1"),
    ):
        with pytest.raises(InputError) as err:
            builtin_space(name, {param: bad})
        assert str(err.value) == f"parameter {param!r} is {bad!r}, not an integer"
    assert builtin_space("torus", {"k": 3}).D == 3
    assert builtin_space("surface", {"genus": True}).dim(1) == 2  # operator.index reads a bool as 1


# ---------------------------------------------------------------------------
# parsing


def test_parse_simplicial_document():
    doc = {"format": "simplicial", "vertices": "4", "facets": BOUNDARY_TETRAHEDRON}
    K = parse_space(doc)
    assert isinstance(K, SimplicialComplex) and K.dim == 2


def test_parse_torus_dgring_document():
    doc = {
        "format": "dgring",
        "degrees": "2",
        "basis": [["1"], ["x1", "x2"], ["v"]],
        "diff": [],
        "product": [
            {"i_deg": "1", "i_idx": "0", "j_deg": "1", "j_idx": "1",
             "result": [{"idx": "0", "coeff": "1"}]},
            {"i_deg": "1", "i_idx": "1", "j_deg": "1", "j_idx": "0",
             "result": [{"idx": "0", "coeff": "-1"}]},
        ],
    }
    M = parse_space(doc)
    assert isinstance(M, DgRingModel)
    assert [M.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (2, ()),
        (1, ()),
    ]


def test_parse_rejects_d_squared_nonzero():
    doc = {
        "format": "dgring",
        "degrees": 3,
        "basis": [["1"], ["a"], ["b"], ["c"]],
        "diff": [
            {"deg": 1, "matrix": [[1]]},  # d(a) = b
            {"deg": 2, "matrix": [[1]]},  # d(b) = c, so d(d(a)) = c != 0
        ],
        "product": [],
    }
    with pytest.raises(ModelError) as err:
        parse_space(doc)
    assert "d(d(" in str(err.value)


def test_parse_rejects_commutativity_failure():
    doc = {
        "format": "dgring",
        "degrees": 2,
        "basis": [["1"], ["x", "y"], ["v"]],
        "product": [
            {"i_deg": 1, "i_idx": 0, "j_deg": 1, "j_idx": 1,
             "result": [{"idx": 0, "coeff": 1}]},
            {"i_deg": 1, "i_idx": 1, "j_deg": 1, "j_idx": 0,
             "result": [{"idx": 0, "coeff": 1}]},  # should be -1
        ],
    }
    with pytest.raises(ModelError) as err:
        parse_space(doc)
    assert "commutativity" in str(err.value)


def _torus3_with(product=None, diff=None):
    """T^3's exterior algebra with some product entries or d_1 entries replaced.

    Degree 1 is x1, x2, x3; degree 2 is x1x2, x1x3, x2x3; degree 3 is x1x2x3.
    """
    T = builtin_space("torus", {"k": 3})
    table = dict(T.product)
    table.update(product or {})
    d1 = [[0] * 3 for _ in range(3)]
    for (row, col), value in (diff or {}).items():
        d1[row][col] = value
    return DgRingModel(T.basis, {1: d1}, table, check=False)


# one model per failure kind, each breaking exactly the axiom it names
CERTIFICATES = {
    "shape": (
        lambda: DgRingModel([["1"], ["a"], ["b"]], {1: [[1, 2]]}, {}, check=False),
        "differential in degree 1 has shape (1, 2), expected (1, 1)",
    ),
    "range_degrees": (
        lambda: DgRingModel([["1"], ["a"]], {}, {(1, 0, 1, 0): {0: 1}}, check=False),
        "product entry for degrees (1,1) out of range",
    ),
    "range_index": (
        lambda: DgRingModel([["1"], ["a"], ["b"]], {}, {(1, 1, 1, 0): {0: 1}}, check=False),
        "product entry (1,1,1,0) indexes outside the basis",
    ),
    "d_unit": (
        lambda: DgRingModel([["1"], ["a"]], {0: [[1]]}, {}, check=False),
        "d(unit) is nonzero",
    ),
    "d_squared": (
        lambda: DgRingModel(
            [["1"], ["a"], ["b"], ["c"]], {1: [[1]], 2: [[1]]}, {}, check=False
        ),
        "d(d(x)) != 0 for basis element 'a' in degree 1",
    ),
    "unit": (
        lambda: DgRingModel([["1"], ["a"]], {}, {(0, 0, 1, 0): {0: 2}}, check=False),
        "unit does not act as identity on 'a'",
    ),
    "commutativity": (
        lambda: DgRingModel(
            [["1"], ["x", "y"], ["v"]], {},
            {(1, 0, 1, 1): {0: 1}, (1, 1, 1, 0): {0: 1}}, check=False,
        ),
        "graded commutativity fails on pair ('x', 'y')",
    ),
    # x1x2 . x3 = 2 x1x2x3 on both sides keeps commutativity but not (x1 x2) x3
    "associativity": (
        lambda: _torus3_with(product={(2, 0, 1, 2): {0: 2}, (1, 2, 2, 0): {0: 2}}),
        "associativity fails on triple ('x1', 'x2', 'x3')",
    ),
    # d(x3) = x1x3 keeps d o d = 0 (d_2 = 0) but d(x2 x3) != d(x2) x3 - x2 d(x3)
    "leibniz": (
        lambda: _torus3_with(diff={(1, 2): 1}),
        "Leibniz rule fails on pair ('x2', 'x3')",
    ),
}


@pytest.mark.parametrize("kind", sorted(CERTIFICATES))
def test_validate_certificate(kind):
    build, message = CERTIFICATES[kind]
    model = build()
    with pytest.raises(ModelError) as err:
        model.validate()
    assert str(err.value) == message


def test_parse_rejects_unknown_format_and_bad_schema():
    with pytest.raises(SchemaError):
        parse_space({"format": "cubical"})
    with pytest.raises(SchemaError):
        parse_space([1, 2, 3])
    with pytest.raises(SchemaError):
        parse_space({"format": "simplicial", "vertices": 3})


def _torus2_doc(product=None, diff=None):
    """The T^2 ring model as a dgring document: x y = v, y x = -v."""
    return {
        "format": "dgring",
        "degrees": "2",
        "basis": [["1"], ["x", "y"], ["v"]],
        "diff": diff or [],
        "product": product or [
            {"i_deg": "1", "i_idx": "0", "j_deg": "1", "j_idx": "1",
             "result": [{"idx": "0", "coeff": "1"}]},
            {"i_deg": "1", "i_idx": "1", "j_deg": "1", "j_idx": "0",
             "result": [{"idx": "0", "coeff": "-1"}]},
        ],
    }


def _entry(i, a, j, b, result):
    return {"i_deg": i, "i_idx": a, "j_deg": j, "j_idx": b, "result": result}


SCHEMA_REJECTIONS = {
    # x y = v at product[0], then x y = 0 at product[2]: no entry may win
    "repeated_product_key": (
        [_entry(1, 0, 1, 1, [{"idx": 0, "coeff": 1}]),
         _entry(1, 1, 1, 0, [{"idx": 0, "coeff": -1}]),
         _entry(1, 0, 1, 1, [])],
        None,
        "product[2] repeats the key (1, 0, 1, 1) of product[0]",
    ),
    "repeated_diff_degree": (
        None,
        [{"deg": 1, "matrix": [[0, 0]]}, {"deg": 0, "matrix": [[0], [0]]},
         {"deg": 1, "matrix": [[1, 0]]}],
        "diff[2] repeats degree 1 of diff[0]",
    ),
    "repeated_result_index": (
        [_entry(1, 0, 1, 1, [{"idx": 0, "coeff": 1}, {"idx": 0, "coeff": 0}]),
         _entry(1, 1, 1, 0, [{"idx": 0, "coeff": -1}])],
        None,
        "product[0].result[1] repeats index 0 of product[0].result[0]",
    ),
    "term_not_an_object": (
        [_entry(1, 0, 1, 1, [{"idx": 0, "coeff": 1}]), _entry(1, 1, 1, 0, ["v"])],
        None,
        "product[1].result[0] must be an object with 'idx' and 'coeff'",
    ),
    "term_without_idx": (
        [_entry(1, 0, 1, 1, [{"coeff": 1}])],
        None,
        "product[0].result[0] must be an object with 'idx' and 'coeff'",
    ),
    "term_without_coeff": (
        [_entry(1, 0, 1, 1, [{"idx": 0, "coeff": 1}]),
         _entry(1, 1, 1, 0, [{"idx": 0, "coeff": -1}, {"idx": 0}])],
        None,
        "product[1].result[1] must be an object with 'idx' and 'coeff'",
    ),
}


# a basis with one label repeated, and the rejection naming both positions
LABEL_REPEATS = {
    "same_degree": (
        [["1"], ["x", "x"], ["v"]], "basis[1][1] repeats the label 'x' of basis[1][0]"),
    "across_degrees": (
        [["1"], ["x", "y"], ["y"]], "basis[2][0] repeats the label 'y' of basis[1][1]"),
    "unit_label": (
        [["1"], ["x", "1"], ["v"]], "basis[1][1] repeats the label '1' of basis[0][0]"),
}


def _relabelled_torus2_doc(basis):
    doc = _torus2_doc()
    doc["basis"] = basis
    return doc


@pytest.mark.parametrize("kind", sorted(LABEL_REPEATS))
def test_parse_dgring_rejects_repeated_label(kind):
    basis, message = LABEL_REPEATS[kind]
    with pytest.raises(SchemaError) as err:
        parse_space(_relabelled_torus2_doc(basis))
    assert str(err.value) == message


@pytest.mark.parametrize("kind", sorted(LABEL_REPEATS))
def test_cli_reports_repeated_label_as_input_error(kind, tmp_path):
    basis, message = LABEL_REPEATS[kind]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_relabelled_torus2_doc(basis)))
    code, report = run(["cohomology", "--base", str(path)])
    assert code == 2 and report["error"] == message


@pytest.mark.parametrize("kind", sorted(SCHEMA_REJECTIONS))
def test_parse_dgring_rejects_with_position(kind):
    product, diff, message = SCHEMA_REJECTIONS[kind]
    with pytest.raises(SchemaError) as err:
        parse_space(_torus2_doc(product, diff))
    assert str(err.value) == message


@pytest.mark.parametrize("kind", sorted(SCHEMA_REJECTIONS))
def test_cli_reports_dgring_rejection_as_input_error(kind, tmp_path):
    product, diff, message = SCHEMA_REJECTIONS[kind]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_torus2_doc(product, diff)))
    code, report = run(["cohomology", "--base", str(path)])
    assert code == 2 and message in report["error"]


# ---------------------------------------------------------------------------
# cohomology_ring


def test_ring_of_sphere_triangulation():
    K = SimplicialComplex(4, BOUNDARY_TETRAHEDRON)
    M = cohomology_ring(K)
    assert [M.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (0, ()),
        (1, ()),
    ]
    # nontrivial products all vanish
    assert all(not v for (i, a, j, b), v in M.product.items() if i and j)


def test_ring_of_torus_triangulation_has_symplectic_pairing():
    K = SimplicialComplex(7, TORUS7)
    M = cohomology_ring(K)
    assert M.cohomology(1).invariants() == (2, ())
    assert M.cohomology(2).invariants() == (1, ())
    x1 = Cocycle(1, M.basis_vector(1, 0))
    x2 = Cocycle(1, M.basis_vector(1, 1))
    pairing = M.cup_class(x1, x2)
    # x1 cup x2 generates H^2
    assert pairing in [(1,), (-1,)]
    assert M.cup_class(x1, x1) == (0,)
    assert M.cup_class(x2, x2) == (0,)


def test_ring_of_projective_plane_has_torsion_model():
    K = SimplicialComplex(6, RP2_6)
    M = cohomology_ring(K)
    assert M.cohomology(2).invariants() == (0, (2,))
    assert M.cohomology(1).invariants() == (0, ())
    assert M.meta["validity_hypothesis"]


def test_ring_representatives_choice_does_not_change_constants():
    # shifting the chosen representatives by coboundaries leaves every
    # structure constant alone
    K = SimplicialComplex(7, TORUS7)
    M = cohomology_ring(K)
    H1 = K.cohomology(1)
    H2 = K.cohomology(2)
    reps = H1.generator_vectors()
    d0 = coboundary(K, 0)
    shift = d0.dot(vec([1, -2, 3, 0, 0, -1, 2]))
    for a in range(2):
        for b in range(2):
            expected = H2.reduce(K.cup(1, reps[a], 1, reps[b]))
            moved = H2.reduce(K.cup(1, vec(reps[a]) + shift, 1, vec(reps[b]) + shift))
            assert expected == moved


def test_ring_rejects_disconnected_complex():
    K = SimplicialComplex(4, [[0, 1], [2, 3]])
    with pytest.raises(ModelError):
        cohomology_ring(K)


# ---------------------------------------------------------------------------
# product models


def test_point_is_unit_for_products():
    X = builtin_space("torus", {"k": 2})
    P = builtin_space("point")
    M = product_model(P, X)
    assert [M.cohomology(k).invariants() for k in range(3)] == [
        X.cohomology(k).invariants() for k in range(3)
    ]


def test_circle_times_circle_is_torus():
    S1 = builtin_space("sphere", {"k": 1})
    M = product_model(S1, S1)
    assert [M.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (2, ()),
        (1, ()),
    ]
    # alternating product on degree-1 classes
    a = M.basis_vector(1, 0)
    b = M.basis_vector(1, 1)
    assert list(M.mul(1, a, 1, b)) == [int(-x) for x in M.mul(1, b, 1, a)]


def test_s2_x_s1_kuenneth():
    M = product_model(builtin_space("sphere", {"k": 2}), builtin_space("sphere", {"k": 1}))
    assert M.basis == [["1"], ["v1"], ["v2"], ["v2*v1"]]  # disjoint labels stay unprimed
    assert [M.cohomology(k).invariants() for k in range(4)] == [
        (1, ()),
        (1, ()),
        (1, ()),
        (1, ()),
    ]


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_product_of_a_factor_with_itself_round_trips(name):
    """Shared labels are primed in the second factor, so the document parses."""
    X = builtin_space(name, {"k": 1})
    x = X.basis[1][0]
    M = product_model(X, X)
    assert M.basis == [["1"], [x + "'", x], [f"{x}*{x}'"]]
    again = parse_space(space_to_doc(M))
    assert space_to_doc(again) == space_to_doc(M)
    assert again.betti() == [(1, ()), (2, ()), (1, ())]


def test_product_model_rejects_torsion_factor():
    K = SimplicialComplex(6, RP2_6)
    M = cohomology_ring(K)
    with pytest.raises(InputError):
        product_model(M, builtin_space("sphere", {"k": 1}))


# ---------------------------------------------------------------------------
# builtins


def test_builtin_spheres():
    assert builtin_space("sphere", {"k": 3}).betti()[:4] == [
        (1, ()),
        (0, ()),
        (0, ()),
        (1, ()),
    ]


def test_builtin_torus3_ranks():
    M = builtin_space("torus", {"k": 3})
    assert [M.cohomology(k).invariants()[0] for k in range(4)] == [1, 3, 3, 1]


def test_builtin_surface_genus2():
    M = builtin_space("surface", {"genus": 2})
    assert [M.cohomology(k).invariants() for k in range(3)] == [
        (1, ()),
        (4, ()),
        (1, ()),
    ]
    # symplectic pairing: a1 b1 = v, a1 a2 = 0
    assert M.cup_class(Cocycle(1, M.basis_vector(1, 0)), Cocycle(1, M.basis_vector(1, 1))) == (1,)
    assert M.cup_class(Cocycle(1, M.basis_vector(1, 0)), Cocycle(1, M.basis_vector(1, 2))) == (0,)


def test_builtin_heisenberg():
    M = builtin_space("heisenberg")
    assert M.cohomology(1).invariants() == (2, ())
    assert M.cohomology(2).invariants() == (2, ())
    assert M.cohomology(3).invariants() == (1, ())
    # the k=2 variant picks up torsion: H^2 = Z^2 + Z/2
    M2 = builtin_space("heisenberg", {"k": 2})
    assert M2.cohomology(2).invariants() == (2, (2,))


# builtins skip validate() when built; this ladder is what vouches for them,
# at every truncation 0..4 (the default 4 keeps the bare id)
BUILTIN_LADDER = [
    (name, params, truncation)
    for truncation in range(DEFAULT_TRUNCATION + 1)
    for name, params in (
        [("point", {})]
        + [("sphere", {"k": k}) for k in range(1, 5)]
        + [("torus", {"k": k}) for k in range(1, 4)]
        + [("surface", {"genus": g}) for g in range(7)]
        + [("heisenberg", {"k": k}) for k in range(-3, 4)]
    )
]


@pytest.mark.parametrize(
    "name, params, truncation",
    BUILTIN_LADDER,
    ids=[
        f"{n}{p}" + ("" if t == DEFAULT_TRUNCATION else f"-truncation{t}")
        for n, p, t in BUILTIN_LADDER
    ],
)
def test_builtins_pass_full_validation(name, params, truncation):
    model = builtin_space(name, params, truncation=truncation)
    assert model.D <= truncation
    model.validate()


@pytest.mark.parametrize(
    "name, params, truncation",
    BUILTIN_LADDER,
    ids=[
        f"{n}{p}" + ("" if t == DEFAULT_TRUNCATION else f"-truncation{t}")
        for n, p, t in BUILTIN_LADDER
    ],
)
def test_builtin_betti_matches_subquotients(name, params, truncation):
    model = builtin_space(name, params, truncation=truncation)
    assert model.betti() == [model.cohomology(k).invariants() for k in range(model.D + 1)]


def test_builtin_unknown_name():
    with pytest.raises(InputError):
        builtin_space("moebius")


def test_triangulated_models_match_builtins():
    # same rank/torsion per degree; product pairing compared via its
    # invariant factors, which are basis-change independent
    from tdk.exact_linalg import smith_normal_form

    K = SimplicialComplex(7, TORUS7)
    M = cohomology_ring(K)
    T = builtin_space("torus", {"k": 2})
    assert [M.cohomology(k).invariants() for k in range(3)] == [
        T.cohomology(k).invariants() for k in range(3)
    ]

    def pairing_invariants(model):
        H1 = model.cohomology(1)
        reps = [Cocycle(1, v) for v in H1.generator_vectors()]
        mat = [
            [model.cup_class(x, y)[0] for y in reps] for x in reps
        ]
        sf = smith_normal_form(columns(mat), len(mat))
        return [d for d in sf.diagonal if d]

    assert pairing_invariants(M) == pairing_invariants(T) == [1, 1]
