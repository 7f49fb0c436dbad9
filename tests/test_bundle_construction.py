"""Bundle total models are correct by construction; these tests are the oracle.

``build_bundle`` no longer runs :meth:`DgRingModel.validate` on the total
model: its product is the Koszul rule and the only build-time check is the
d o d = 0 certificate.  Here the full ``validate()`` runs on random bundles
over small builtin bases, the product table, tabulated on each read, is
compared with the eager tabulation loop it replaced (``reference_product_table``),
``mul_terms`` with the sum of that table over the pairs of terms of random
sparse cochains, on the bundles and their doubled models,
the sparse differential with the dense entry-by-entry builder it replaced
(``reference_diff_matrix``), ``betti()`` of the total model is held to the
subquotient invariants, the spectral-sequence lattices Z_r read off basis
slices with the dense inclusion products they replaced
(``reference_z_lattice``), and a base that breaks Leibniz against a chern
cocycle must be refused.  Two cost guards count the work of one build and
what serialization leaves on the model.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tdk.errors import ModelError  # noqa: E402
from matrices import array, columns, mat_eq, zeros  # noqa: E402
from tdk.exact_linalg import kernel_basis  # noqa: E402
from tdk.serialize import space_to_doc  # noqa: E402
from tdk.space_model import DgRingModel, builtin_space  # noqa: E402
from tdk.torus_bundle import BundleModel, ChernVector, build_bundle  # noqa: E402


def _shuffle_sign(S, T):
    if set(S) & set(T):
        return None, 0
    inv = sum(1 for s in S for t in T if s > t)
    return tuple(sorted(S + T)), (-1) ** inv


def reference_product_table(m):
    """The eager tabulation loop of the total model over all basis pairs."""
    product = {}
    for k1 in range(m.D + 1):
        for k2 in range(m.D + 1 - k1):
            level = m.index[k1 + k2]
            for n1, (p1, a1, S1) in enumerate(m.elements[k1]):
                for n2, (p2, a2, S2) in enumerate(m.elements[k2]):
                    if (k1 == 0 and n1 == 0) or (k2 == 0 and n2 == 0):
                        continue
                    merged, sign = _shuffle_sign(S1, S2)
                    if merged is None:
                        continue
                    if len(S1) % 2 and p2 % 2:
                        sign = -sign
                    table = {}
                    for a3, x in m.base.mul_basis(p1, a1, p2, a2).items():
                        c = level.get((p1 + p2, a3, merged))
                        if c is not None:
                            table[c] = sign * x
                    if table:
                        product[(k1, n1, k2, n2)] = table
    return product


def _eps(i, S):
    return -1 if sum(1 for j in S if j < i) % 2 else 1


def reference_diff_matrix(m, k):
    """d_k of the total model written entry by entry into a dense matrix."""
    base = m.base
    chern = [{z: int(x) for z, x in enumerate(c) if x} for c in m.chern]
    mat = zeros(len(m.elements[k + 1]) if k + 1 <= m.D else 0, len(m.elements[k]))
    for col, (p, a, S) in enumerate(m.elements[k]):
        for a2, x in base.d_columns(p)[a].items():
            mat[m.index[k + 1][(p + 1, a2, S)], col] += x
        sign = -1 if p % 2 else 1
        for i in S:
            rest = tuple(j for j in S if j != i)
            for a2, x in base.mul_terms(p, {a: 1}, 2, chern[i]).items():
                mat[m.index[k + 1][(p + 2, a2, rest)], col] += sign * _eps(i, S) * x
    return mat


def reference_z_lattice(m, r, p, q):
    """Z_r^{p,q} through the dense inclusion of F^p C^k and its products with d_k."""
    k = p + q
    if k < 0 or k > m.D:
        return zeros(0, 0)
    r = min(r, m.stable_page)
    idxs = [i for i, (bp, _, _) in enumerate(m.elements[k]) if bp >= p]
    incl = zeros(m.dim(k), len(idxs))
    for c, i in enumerate(idxs):
        incl[i, c] = 1
    if r <= 0 or k == m.D:
        return incl
    dmat = array(m.d_columns(k), m.dim(k + 1)).dot(incl)
    low = [i for i, (bp, _, _) in enumerate(m.elements[k + 1]) if bp < p + r]
    if not low:
        return incl
    return incl.dot(array(kernel_basis(columns(dmat[low, :]), len(low)), len(idxs)))


def reference_doc(m):
    """The dgring document of the total model, from the two reference builders."""
    s = str
    return {
        "format": "dgring",
        "degrees": s(m.D),
        "basis": [list(level) for level in m.basis],
        "diff": [
            {"deg": s(k), "matrix": [list(map(s, row)) for row in reference_diff_matrix(m, k)]}
            for k in range(m.D)
        ],
        "product": [
            {
                "i_deg": s(i), "i_idx": s(a), "j_deg": s(j), "j_idx": s(b),
                "result": [{"idx": s(c), "coeff": s(v)} for c, v in sorted(table.items())],
            }
            for (i, a, j, b), table in sorted(reference_product_table(m).items())
        ],
    }


# (base name, params, largest n); every degree-2 vector on these bases is closed
BASES = (
    ("torus", {"k": 2}, 3),
    ("torus", {"k": 3}, 2),
    ("surface", {"genus": 0}, 2),
    ("surface", {"genus": 1}, 2),
    ("surface", {"genus": 2}, 2),
    ("surface", {"genus": 3}, 2),
    ("heisenberg", {"k": 1}, 2),
    ("heisenberg", {"k": -2}, 2),
    ("point", {}, 4),
)


@st.composite
def bundles(draw):
    name, params, top = draw(st.sampled_from(BASES))
    base = builtin_space(name, params)
    n = draw(st.integers(1, top))
    coeff = st.integers(-3, 3)
    chern = [draw(st.lists(coeff, min_size=base.dim(2), max_size=base.dim(2))) for _ in range(n)]
    return base, chern


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bundles())
def test_bundle_totals_pass_full_validation(data):
    base, chern = data
    m = build_bundle(base, chern)
    m.validate()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bundles())
def test_lazy_product_table_matches_eager_loop(data):
    base, chern = data
    m = build_bundle(base, chern)
    assert "product" not in vars(m)  # nothing tabulated at build time
    assert m.product == reference_product_table(m)


def reference_mul_terms(m, table, i, u, j, v):
    """u v as the sum over term pairs of ``reference_product_table``, the unit acting as identity."""
    out = {}
    if i + j > m.D:
        return out
    for a, x in u.items():
        for b, y in v.items():
            if (i, a) == (0, 0):
                ab = {b: 1}
            elif (j, b) == (0, 0):
                ab = {a: 1}
            else:
                ab = table.get((i, a, j, b), {})
            for c, z in ab.items():
                out[c] = out.get(c, 0) + x * y * z
    return {c: z for c, z in out.items() if z}


def _sparse_cochain(rng, m, k):
    """Up to three random terms of degree k, with the unit among them at times."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if m.dim(k):
            terms[0 if rng.random() < 0.2 else rng.randrange(m.dim(k))] = rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bundles(), st.integers(0, 2**32 - 1))
def test_mul_terms_is_the_term_pair_sum_of_the_reference_table(data, seed):
    base, chern = data
    rng = random.Random(seed)
    m = build_bundle(base, chern)
    models = [m]
    if m.n <= 2:  # the doubled model has up to 4 circles, so 3-element monomials
        models.append(BundleModel.doubled(m, build_bundle(base, chern[::-1])))
    for model in models:
        table = reference_product_table(model)
        for _ in range(12):
            i, j = rng.randint(0, model.D), rng.randint(0, model.D)  # i + j past D at times
            u, v = _sparse_cochain(rng, model, i), _sparse_cochain(rng, model, j)
            assert model.mul_terms(i, u, j, v) == reference_mul_terms(model, table, i, u, j, v)
        for j in range(model.D + 1):  # the unit on either side
            for b in range(model.dim(j)):
                assert model.mul_terms(0, {0: 2}, j, {b: 1}) == {b: 2}
                assert model.mul_terms(j, {b: -1}, 0, {0: 1}) == {b: -1}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bundles())
def test_sparse_differential_matches_dense_reference(data):
    base, chern = data
    m = build_bundle(base, chern)
    for k in range(m.D):
        assert mat_eq(array(m.d_columns(k), m.dim(k + 1)), reference_diff_matrix(m, k))
        assert m.d_columns(k) is m.d_columns(k)  # one stored matrix per degree
    assert space_to_doc(m) == reference_doc(m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bundles())
def test_total_betti_matches_subquotients(data):
    base, chern = data
    m = build_bundle(base, chern)
    assert m.betti() == [m.total_cohomology(k).invariants() for k in range(m.D + 1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bundles())
def test_z_lattice_slices_match_dense_inclusion(data):
    base, chern = data
    m = build_bundle(base, chern)
    for r in range(m.stable_page + 2):
        for k in range(m.D + 1):
            for p in range(-1, base.D + 2):
                lattice = array(m.z_lattice(r, p, k - p), m.dim(k))
                assert mat_eq(lattice, reference_z_lattice(m, r, p, k - p))


def _leibniz_breaking_base():
    """b (deg 1), z (deg 2), v = b z (deg 3), w (deg 4), d v = w, else d = 0.

    d o d = 0 and z is closed, but d(b z) = w while d(b) z - b d(z) = 0.
    """
    basis = [["1"], ["b"], ["z"], ["v"], ["w"]]
    product = {(1, 0, 2, 0): {0: 1}, (2, 0, 1, 0): {0: 1}}
    return DgRingModel(basis, {3: [[1]]}, product)


def test_certificate_refuses_base_breaking_leibniz_against_chern():
    base = _leibniz_breaking_base()
    with pytest.raises(ModelError, match="Leibniz rule fails on pair \\('b', 'z'\\)"):
        base.validate()
    ChernVector(base, [[1]])  # the cocycle itself is closed
    with pytest.raises(ModelError, match="total model of the bundle is invalid: d\\(d\\(x\\)\\) != 0"):
        build_bundle(base, [[1]])
    build_bundle(base, [[0]])  # with a zero cocycle nothing meets the broken pair


@pytest.mark.parametrize(
    "name, params, n",
    [("torus", {"k": 3}, 3), ("surface", {"genus": 3}, 4), ("point", {}, 4)],
)
def test_build_computes_each_chern_product_once(monkeypatch, name, params, n):
    base = builtin_space(name, params)
    chern = [base.basis_vector(2, i % base.dim(2)) if base.dim(2) else [] for i in range(n)]
    chern = ChernVector(base, chern)
    calls = []
    mul_terms = DgRingModel.mul_terms

    def counted(self, *args):
        calls.append(args)
        return mul_terms(self, *args)

    monkeypatch.setattr(DgRingModel, "mul_terms", counted)
    build_bundle(base, chern)
    # one product b_a . z_i per base basis element a (degree p) and fiber index i
    distinct = n * sum(base.dim(p) for p in range(base.D + 1))
    assert len(calls) <= distinct


@settings(max_examples=20, deadline=None, derandomize=True)
@given(bundles())
def test_serializing_a_total_model_leaves_no_table_on_it(data):
    base, chern = data
    m = build_bundle(base, chern)
    doc = space_to_doc(m)
    assert "_dense" not in vars(m)  # no dense differential is left on the model
    assert "product" not in vars(m)  # nor a product table
    assert doc == reference_doc(m)
