"""The names and behaviours of ``tdk`` that ``benchmark/tracing.py`` relies on.

The tracer wraps functions and methods by name, reads ``cache_info()`` of
the per-instance memoised methods (``space_model.memoised``) for its hit
ratios, sizes Smith forms through their U, D, V numpy views and passes ``check=``
to ``build_bundle``; its workloads read ``model.total`` of a bundle.  The
benchmark's own tests run apart from this suite, so these checks keep a
change to ``tdk`` from silently breaking ``benchmark/run.py --trace``.  The
tracer module is imported from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from matrices import array, columns
from tdk.exact_linalg import smith_normal_form
from tdk.fixtures import simplicial_doc
from tdk.space_model import builtin_space, parse_space
from tdk.torus_bundle import build_bundle

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in {target[0] for target in module.TARGETS}:
        importlib.import_module(f"{module.PACKAGE}.{name}")
    return module


def test_every_traced_name_resolves(tracing):
    for module, attribute, _span in tracing.TARGETS:
        owner, leaf = tracing._resolve(module, attribute)
        assert callable(vars(owner).get(leaf)), f"{module}.{attribute}"


def test_every_traced_cache_has_cache_info(tracing):
    for members in tracing.CACHES.values():
        for module, attribute in members:
            owner, leaf = tracing._resolve(module, attribute)
            vars(owner)[leaf].cache_info()


def test_smith_form_sizer_reads_one_result(tracing):
    tracer = tracing.Tracer()
    M = [{0: 2, 1: -6, 2: 10}, {0: 4, 1: 6, 2: -4}, {0: 4, 1: 12, 2: -16}]
    assert M == columns([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    result = smith_normal_form(M, 3)
    tracing._snf_sizes(tracer, (), {}, result)
    assert tracer.counters["exact_linalg.snf.cells"] == 9
    assert tracer.maxima["exact_linalg.snf.bits"] > 0
    # the views are the factors: U M V = D
    assert (result.U.dot(array(M, 3)).dot(result.V) == result.D).all()
    assert result.D.tolist() == [[2, 0, 0], [0, 6, 0], [0, 0, 12]]


def test_build_bundle_accepts_check():
    base = builtin_space("sphere", {"k": 2})
    for check in (False, True):
        m = build_bundle(base, [base.basis_vector(2, 0)], check=check)
        assert m.n == 1


def test_bundle_total_is_the_model():
    base = builtin_space("sphere", {"k": 2})
    m = build_bundle(base, [base.basis_vector(2, 0)])
    assert m.total is m


def _circle_over_torus():
    T2 = builtin_space("torus", {"k": 2})
    return build_bundle(T2, [T2.basis_vector(2, 0)])


# memoised method -> (a fresh instance, arguments, other arguments)
MEMO_CALLS = {
    ("space_model", "DgRingModel.cohomology"): (
        lambda: builtin_space("torus", {"k": 2}), (1,), (2,)),
    ("space_model", "SimplicialComplex.cohomology"): (
        lambda: parse_space(simplicial_doc("torus-7")), (1,), (2,)),
    ("torus_bundle", "BundleModel.total_cohomology"): (_circle_over_torus, (1,), (2,)),
    ("torus_bundle", "BundleModel.z_lattice"): (_circle_over_torus, (2, 0, 1), (2, 1, 1)),
    ("torus_bundle", "BundleModel._page_subquotient"): (
        _circle_over_torus, (2, 0, 1), (2, 1, 1)),
    ("torus_bundle", "BundleModel.ss_page"): (_circle_over_torus, (2, 0, 1), (2, 1, 1)),
}


def test_every_traced_cache_has_a_memo_case(tracing):
    assert {m for members in tracing.CACHES.values() for m in members} == set(MEMO_CALLS)


@pytest.mark.parametrize("target", sorted(MEMO_CALLS), ids=lambda t: t[1])
def test_memo_counts_one_hit_per_repeat_and_one_miss_per_new_call(tracing, target):
    owner, leaf = tracing._resolve(*target)
    cached = vars(owner)[leaf]
    make, args, other = MEMO_CALLS[target]
    obj = make()
    method = getattr(obj, leaf)

    def counts():
        info = cached.cache_info()
        return info.hits, info.misses

    h0, m0 = counts()
    first = method(*args)
    assert counts() == (h0, m0 + 1)
    assert method(*args) is first
    assert counts() == (h0 + 1, m0 + 1)
    method(*other)
    assert counts() == (h0 + 1, m0 + 2)
    assert cached(obj, *args) is first  # unbound, as the tracer's wrapper calls it
    assert counts() == (h0 + 2, m0 + 2)
