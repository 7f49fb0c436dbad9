"""Theorems of the source paper as hypothesis properties over random bundles.

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
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tdk.exact_linalg import kernel_basis, mat_vec, solve  # noqa: E402
from tdk.space_model import Cocycle, builtin_space  # noqa: E402
from tdk.tduality_core import Pair, is_dualizable  # noqa: E402
from tdk.torus_bundle import build_bundle  # noqa: E402

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
