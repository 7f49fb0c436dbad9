"""The names and behaviours of ``tdk`` that ``benchmark/tracing.py`` relies on.

The tracer wraps functions and methods by name, reads ``cache_info()`` of
``lru_cache``d methods, sizes Smith forms through their U, D, V arrays and
passes ``check=`` to ``build_bundle``.  The benchmark's own tests run apart
from this suite, so these checks keep a change to ``tdk`` from silently
breaking ``benchmark/run.py --trace``.  The tracer module is imported from
its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tdk.exact_linalg import intmat, smith_normal_form
from tdk.space_model import builtin_space
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
    result = smith_normal_form(intmat([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    tracing._snf_sizes(tracer, (), {}, result)
    assert tracer.counters["exact_linalg.snf.cells"] == 9
    assert tracer.maxima["exact_linalg.snf.bits"] > 0


def test_build_bundle_accepts_check():
    base = builtin_space("sphere", {"k": 2})
    for check in (False, True):
        m = build_bundle(base, [base.basis_vector(2, 0)], check=check)
        assert m.n == 1
