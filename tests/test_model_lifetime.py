"""Finished models are freed as soon as nothing refers to them.

Every memo lives on the instance it belongs to, and a bundle model is one
object, so dropping the last reference frees the model with everything
computed from it.  The cyclic garbage collector is switched off while each
test runs, so a model that is still alive right after ``del`` is held either
by a reference from outside or by a reference cycle; the tests accept
neither.  The heap test runs the duality pipeline on every dualizable
fixture pair and requires the number of live container objects to stay
level from round to round.
"""

import gc
import weakref

import pytest

from tdk.fixtures import PAIR_NAMES, named_pair, simplicial_doc
from tdk.space_model import Cocycle, builtin_space, parse_space
from tdk.tduality_core import dualize, extension_report, is_dualizable, validate_triple
from tdk.torus_bundle import build_bundle
from tdk.twisted_cohomology import verify_iso


@pytest.fixture(autouse=True)
def no_cycle_collection():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_bundle_is_freed_after_cohomology_pages_and_reports():
    base = builtin_space("torus", {"k": 3})
    m = build_bundle(base, [base.basis_vector(2, 0), base.basis_vector(2, 1)])
    m.total_cohomology(3)
    m.ss_page(2, 0, 1)
    m.filtration_report(Cocycle(3, m.element_vector(3, 0, ())))
    ref = weakref.ref(m)
    del m
    assert ref() is None


def test_a_report_keeps_its_model_and_the_model_never_the_report():
    pair = named_pair("hopf_k2")
    report = pair.bundle.filtration_report(pair.flux)
    assert report.leading == (2,)  # built on this read, from the model's pages
    bundle = weakref.ref(pair.bundle)
    del pair
    assert bundle() is report.model
    ref = weakref.ref(report)
    del report
    assert ref() is None and bundle() is None


def test_doubled_model_is_freed_after_verify_iso():
    t = dualize(named_pair("t3_vol"))
    assert verify_iso(t)
    ref = weakref.ref(t.doubled)
    del t
    assert ref() is None


def test_builtin_base_is_freed_after_cohomology():
    base = builtin_space("surface", {"genus": 2})
    base.cohomology(2)
    ref = weakref.ref(base)
    del base
    assert ref() is None


def test_simplicial_complex_is_freed_after_cohomology():
    K = parse_space(simplicial_doc("torus-7"))
    K.cohomology(1)
    ref = weakref.ref(K)
    del K
    assert ref() is None


def test_heap_stays_level_over_repeated_pipelines():
    names = [name for name in PAIR_NAMES if is_dualizable(named_pair(name))[0]]
    counts = []
    for _ in range(4):
        for name in names:
            pair = named_pair(name)
            t = dualize(pair)
            assert validate_triple(t).ok
            assert extension_report(pair).agree
            assert verify_iso(t)
        del pair, t
        counts.append(len(gc.get_objects()))
    assert counts[3] <= counts[1], counts
