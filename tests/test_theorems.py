"""Theorems of the source paper, checked on random and on listed bundles.

Each property draws random closed chern and flux data over small builtin
bases and holds ``tdk`` to an oracle stated in the paper's terms that
computes no spectral sequence.

**Existence.**  A pair (E, [H]) admits a T-dual iff [H] lies in F^2 H^3,
the second step of the filtration by base degree, and ``is_dualizable``
decides that from the spectral sequence of the total model.  The oracle
reads it off one integer system: [H] is in F^2 H^3 iff H + d a lies in
F^2 C^3 for some integer cochain a in C^2 (F^2 H^3 is the image of the
cohomology of F^2 C, and a cochain of F^2 C^3 that is cohomologous to a
cocycle is itself closed).  F^2 C^3 is the basis suffix of C^3 from
``start = _step_start(3, 2)``, so the condition asks that the rows of H
above ``start`` lie in the Z-span of the same rows of d_2: one ``solve`` on
those rows of ``d_columns(2)``.

**T-hat inverts T.**  The transform T-hat of the flipped triple, composed
with T, induces (-1)^(n(n+1)/2) . id on rational twisted cohomology (Bunke &
Schick 2005, math/0405132); on the integer blocks N . T and N-hat . T-hat it
is c = (-1)^(n(n+1)/2) . N . N-hat.  So T-hat o T - c . id maps every
cocycle into the image of D: with Z a kernel basis of D out of a parity and
B the D into it, rank [B | (T-hat o T - c) . Z] = rank B.  This holds for
any valid w, not only the standard one, so it is the oracle for the
transform on gauge-acted triples, where Hori's formula does not apply.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_twisted_cohomology import GAUGE_CASES, assert_squares_to_zero, gauge_acted_triple  # noqa: E402
from tdk.duality_group import act_on_triple, flip_element  # noqa: E402
from tdk.exact_linalg import _sum_terms, compose, kernel_basis, mat_vec, matrix_rank, solve  # noqa: E402
from tdk.fixtures import PAIR_NAMES, named_pair  # noqa: E402
from tdk.space_model import Cocycle, builtin_space  # noqa: E402
from tdk.tduality_core import Pair, dualize, is_dualizable  # noqa: E402
from tdk.torus_bundle import build_bundle  # noqa: E402
from tdk.twisted_cohomology import t_transform  # noqa: E402

# every degree-2 cochain on these bases is closed, so any chern data will do
BASES = (
    [("torus", {"k": 3})]
    + [("surface", {"genus": g}) for g in range(5)]
    + [("heisenberg", {"k": 1}), ("heisenberg", {"k": 2})]
)


@st.composite
def pairs(draw):
    name, params = draw(st.sampled_from(BASES))
    base = builtin_space(name, params)
    n = draw(st.integers(1, 3))
    coeff = st.integers(-2, 2)
    chern = [draw(st.lists(coeff, min_size=base.dim(2), max_size=base.dim(2))) for _ in range(n)]
    m = build_bundle(base, chern)
    K = kernel_basis(m.d_columns(3), m.dim(4))
    weights = draw(st.lists(coeff, min_size=len(K), max_size=len(K)))
    return Pair(m, Cocycle(3, mat_vec(K, weights, m.dim(3))))


def in_second_step(pair):
    """[H] in F^2 H^3, by one solve against the rows of d_2 below base degree 2."""
    m = pair.bundle
    start = m._step_start(3, 2)
    rows = [{r: x for r, x in col.items() if r < start} for col in m.d_columns(2)]
    return solve(rows, pair.flux.vector[:start]) is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs())
def test_dualizable_iff_flux_in_second_filtration_step(pair):
    assert is_dualizable(pair)[0] == in_second_step(pair)


# ---------------------------------------------------------------------------
# T-hat inverts T


def zero_flux_triple(name, params, n):
    """The dual of a zero-flux bundle whose first two chern classes are basis classes."""
    base = builtin_space(name, params)
    chern = [base.basis_vector(2, i % base.dim(2)) if i < 2 and base.dim(2) else base.zero_vector(2)
             for i in range(n)]
    m = build_bundle(base, chern)
    return dualize(Pair(m, Cocycle(3, m.zero_vector(3))))


INVERSE_CASES = {
    **{name: lambda name=name: dualize(named_pair(name))
       for name in PAIR_NAMES if is_dualizable(named_pair(name))[0]},
    **{f"{name}_n{n}": lambda name=name, params=params, n=n: zero_flux_triple(name, params, n)
       for name, params, top in [("point", {}, 5), ("torus", {"k": 3}, 3),
                                 ("heisenberg", {"k": 1}, 3), ("surface", {"genus": 2}, 2)]
       for n in range(1, top + 1)},
    "torus2_n4": lambda: zero_flux_triple("torus", {"k": 2}, 4),
    **{name: lambda args=args: gauge_acted_triple(*args) for name, args in GAUGE_CASES.items()},
}


def differs_by_coboundaries(C, c, complex_, par):
    """(dim H^par, whether (C - c . id) . Z lies in im B) for D out of and into par."""
    Z = kernel_basis(complex_.D_from[par], complex_.dims[1 - par])
    B = complex_.D_from[1 - par]
    moved = [_sum_terms(((1, Cz), (-c, z))) for Cz, z in zip(compose(C, Z), Z)]
    rank_b = matrix_rank(B)
    return len(Z) - rank_b, matrix_rank(B + moved) == rank_b


@pytest.mark.parametrize("name", sorted(INVERSE_CASES))
def test_transform_of_the_flipped_triple_inverts_t(name):
    t = INVERSE_CASES[name]()
    n = t.n
    tm = t_transform(t)
    hat = t_transform(act_on_triple(flip_element(n), t))
    c = (-1) ** (n * (n + 1) // 2) * tm.scale * hat.scale
    dims = []
    for par in (0, 1):
        C = compose(hat.blocks[(par + n) % 2], tm.blocks[par])
        dim, holds = differs_by_coboundaries(C, c, tm.source, par)
        assert holds, par
        # where the cohomology is nonzero, the sign is pinned: -c fails
        assert dim == 0 or not differs_by_coboundaries(C, -c, tm.source, par)[1], par
        dims.append(dim)
    assert any(dims) or name in PAIR_NAMES  # every case but some fixtures pins the sign
    for complex_ in (tm.source, tm.target, hat.source, hat.target):
        assert_squares_to_zero(complex_)
