"""Spans and counters around the public functions of each ``tdk`` module.

The benchmark installs these wrappers from its own files; ``tdk`` itself is
not edited.  A name bound in several modules (``from .exact_linalg import
solve``) is replaced in every ``tdk`` module that binds the same object, and
a method is replaced on its class, so no call path escapes the trace.

Spans (name, start, end, parent, job) are kept in memory and written out
when the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict

PACKAGE = "tdk"

# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("exact_linalg", "smith_normal_form", "exact_linalg.snf"),
    ("exact_linalg", "solve", "exact_linalg.solve"),
    ("exact_linalg", "subquotient", "exact_linalg.subquotient"),
    ("exact_linalg", "kernel_basis", "exact_linalg.kernel_basis"),
    ("space_model", "parse_space", "space_model.parse"),
    ("space_model", "DgRingModel.validate", "space_model.validate"),
    ("space_model", "DgRingModel.cohomology", "space_model.cohomology"),
    ("space_model", "SimplicialComplex.cohomology", "space_model.cohomology"),
    ("torus_bundle", "build_bundle", "torus_bundle.build"),
    ("torus_bundle", "BundleModel.total_cohomology", "torus_bundle.total_cohomology"),
    ("torus_bundle", "BundleModel.ss_page", "torus_bundle.ss_page"),
    ("torus_bundle", "BundleModel.filtration_report", "torus_bundle.filtration_report"),
    ("tduality_core", "is_dualizable", "tduality_core.is_dualizable"),
    ("tduality_core", "dualize", "tduality_core.dualize"),
    ("tduality_core", "Triple.__init__", "tduality_core.triple"),
    ("tduality_core", "validate_triple", "tduality_core.validate_triple"),
    ("tduality_core", "extension_report", "tduality_core.extension_report"),
    ("twisted_cohomology", "verify_iso", "twisted_cohomology.verify_iso"),
    ("twisted_cohomology", "t_transform", "twisted_cohomology.t_transform"),
    ("twisted_cohomology", "twisted_dims", "twisted_cohomology.twisted_dims"),
    ("twisted_cohomology", "rational_rank", "twisted_cohomology.rational"),
    ("twisted_cohomology", "rational_kernel", "twisted_cohomology.rational"),
    ("duality_group", "is_onn", "duality_group.is_onn"),
    ("serialize", "space_from_doc", "serialize.from_doc"),
    ("serialize", "pair_from_doc", "serialize.from_doc"),
    ("serialize", "triple_from_doc", "serialize.from_doc"),
    ("serialize", "onn_from_doc", "serialize.from_doc"),
    ("serialize", "dumps", "serialize.dumps"),
    ("cli", "run", "cli.run"),
)

# lru caches read through cache_info(), grouped as the metric reports them
CACHES = {
    "space_model.cohomology": (
        ("space_model", "DgRingModel.cohomology"),
        ("space_model", "SimplicialComplex.cohomology"),
    ),
    "torus_bundle.cache": (
        ("torus_bundle", "BundleModel.total_cohomology"),
        ("torus_bundle", "BundleModel.z_lattice"),
        ("torus_bundle", "BundleModel._page_subquotient"),
        ("torus_bundle", "BundleModel.ss_page"),
    ),
}

# (metric, unit, how it is computed); per-job figures divide by traced jobs
LAYER_METRICS = (
    ("exact_linalg.snf.calls", "count/job", ("calls", "exact_linalg.snf")),
    ("exact_linalg.snf.cells", "count/job", ("counter", "exact_linalg.snf.cells")),
    ("exact_linalg.snf.self_ms", "ms/job", ("self", "exact_linalg.snf")),
    ("exact_linalg.snf.max_bits", "bits", ("max", "exact_linalg.snf.bits")),
    ("exact_linalg.solve.calls", "count/job", ("calls", "exact_linalg.solve")),
    ("exact_linalg.solve.self_ms", "ms/job", ("self", "exact_linalg.solve")),
    ("exact_linalg.subquotient.calls", "count/job", ("calls", "exact_linalg.subquotient")),
    ("exact_linalg.subquotient.self_ms", "ms/job", ("self", "exact_linalg.subquotient")),
    ("exact_linalg.kernel_basis.calls", "count/job", ("calls", "exact_linalg.kernel_basis")),
    ("space_model.validate.calls", "count/job", ("calls", "space_model.validate")),
    ("space_model.validate.basis_dim", "count/job", ("counter", "space_model.validate.basis_dim")),
    ("space_model.validate.self_ms", "ms/job", ("self", "space_model.validate")),
    ("space_model.parse.self_ms", "ms/job", ("self", "space_model.parse")),
    ("space_model.cohomology.self_ms", "ms/job", ("self", "space_model.cohomology")),
    ("space_model.cohomology.hit_ratio", "ratio", ("cache", "space_model.cohomology")),
    ("torus_bundle.build.calls", "count/job", ("calls", "torus_bundle.build")),
    ("torus_bundle.build.checked", "count/job", ("counter", "torus_bundle.build.checked")),
    ("torus_bundle.build.self_ms", "ms/job", ("self", "torus_bundle.build")),
    ("torus_bundle.total_cohomology.self_ms", "ms/job", ("self", "torus_bundle.total_cohomology")),
    ("torus_bundle.ss_page.calls", "count/job", ("calls", "torus_bundle.ss_page")),
    ("torus_bundle.ss_page.self_ms", "ms/job", ("self", "torus_bundle.ss_page")),
    ("torus_bundle.filtration_report.self_ms", "ms/job", ("self", "torus_bundle.filtration_report")),
    ("torus_bundle.cache.hit_ratio", "ratio", ("cache", "torus_bundle.cache")),
    ("tduality_core.is_dualizable.self_ms", "ms/job", ("self", "tduality_core.is_dualizable")),
    ("tduality_core.dualize.self_ms", "ms/job", ("self", "tduality_core.dualize")),
    ("tduality_core.triple.self_ms", "ms/job", ("self", "tduality_core.triple")),
    ("tduality_core.validate_triple.self_ms", "ms/job", ("self", "tduality_core.validate_triple")),
    ("tduality_core.extension_report.self_ms", "ms/job", ("self", "tduality_core.extension_report")),
    ("twisted_cohomology.verify_iso.self_ms", "ms/job", ("self", "twisted_cohomology.verify_iso")),
    ("twisted_cohomology.t_transform.self_ms", "ms/job", ("self", "twisted_cohomology.t_transform")),
    ("twisted_cohomology.twisted_dims.self_ms", "ms/job", ("self", "twisted_cohomology.twisted_dims")),
    ("twisted_cohomology.rational.calls", "count/job", ("calls", "twisted_cohomology.rational")),
    ("twisted_cohomology.rational.self_ms", "ms/job", ("self", "twisted_cohomology.rational")),
    ("duality_group.is_onn.calls", "count/job", ("calls", "duality_group.is_onn")),
    ("serialize.from_doc.self_ms", "ms/job", ("self", "serialize.from_doc")),
    ("serialize.dumps.self_ms", "ms/job", ("self", "serialize.dumps")),
    ("cli.run.self_ms", "ms/job", ("self", "cli.run")),
    ("runtime.gc_ms", "ms/job", ("counter", "runtime.gc_ms")),
)


def self_times(spans):
    """Self time per span: its duration minus the union of its children.

    ``spans`` is a list of (name, start, end, parent index or -1, ...).
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _max_bits(*matrices):
    top = 0
    for m in matrices:
        if m.size:
            top = max(top, abs(int(m.max())), abs(int(m.min())))
    return top.bit_length()


def _snf_sizes(tracer, args, kwargs, result):
    rows, cols = result.D.shape
    tracer.counters["exact_linalg.snf.cells"] += rows * cols
    bits = _max_bits(result.U, result.D, result.V)
    tracer.maxima["exact_linalg.snf.bits"] = max(tracer.maxima.get("exact_linalg.snf.bits", 0), bits)


def _validate_sizes(tracer, args, kwargs, result):
    model = args[0]
    tracer.counters["space_model.validate.basis_dim"] += sum(len(b) for b in model.basis)


def _build_sizes(tracer, args, kwargs, result):
    if kwargs.get("check", args[3] if len(args) > 3 else True):
        tracer.counters["torus_bundle.build.checked"] += 1


SIZERS = {
    "exact_linalg.snf": _snf_sizes,
    "space_model.validate": _validate_sizes,
    "torus_bundle.build": _build_sizes,
}


def _resolve(module, attribute):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counters while installed; restores ``tdk`` on removal."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.maxima = {}
        self.job = -1
        self._patched = []
        self._gc_start = None
        self._cache_base = {}
        self.hit_ratios = {}

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.job]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if sizer is not None:
                # a span of its own, so the parent's self time excludes it
                start = time.perf_counter()
                sizer(tracer, args, kwargs, result)
                tracer.spans.append(["trace.sizes", start, time.perf_counter(), parent, tracer.job])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counters["runtime.gc_ms"] += 1000 * (time.perf_counter() - self._gc_start)
            self._gc_start = None

    # -- installation -----------------------------------------------------------

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module, attribute, name in TARGETS:
            owner, leaf = _resolve(module, attribute)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, leaf, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)
        self._cache_base = self._cache_counts()
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.hit_ratios = self._hit_ratios()
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def _cache_counts(self):
        counts = {}
        for group, members in CACHES.items():
            hits = misses = 0
            for module, attribute in members:
                owner, leaf = _resolve(module, attribute)
                fn = owner.__dict__[leaf]
                while not hasattr(fn, "cache_info"):  # under a trace wrapper
                    fn = fn.__wrapped__
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
            counts[group] = (hits, misses)
        return counts

    def _hit_ratios(self):
        now = self._cache_counts()
        out = {}
        for group, (hits, misses) in now.items():
            h0, m0 = self._cache_base.get(group, (0, 0))
            total = (hits - h0) + (misses - m0)
            out[group] = (hits - h0) / total if total else 0.0
        return out

    # -- results -----------------------------------------------------------------

    def summary(self, scale):
        """Per-layer metrics as {name: (value, unit)}, per traced job.

        ``scale[job]`` converts that job's wall time to the reference speed.
        """
        jobs = len(scale)
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_ms[span[0]] += 1000 * own * scale[span[4]]
        out = {}
        for metric, unit, (kind, key) in LAYER_METRICS:
            if kind == "calls":
                value = calls[key] / jobs
            elif kind == "self":
                value = self_ms[key] / jobs
            elif kind == "counter":
                value = self.counters[key] / jobs
            elif kind == "max":
                value = self.maxima.get(key, 0)
            else:
                value = self.hit_ratios[key]
            out[metric] = (value, unit)
        return out

    def module_shares(self, busy_s):
        """Share of busy time spent as self time in each module."""
        selfs = self_times(self.spans)
        per_module = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            per_module[span[0].split(".")[0]] += own
        return {m: t / busy_s for m, t in sorted(per_module.items(), key=lambda x: -x[1])}

    def write(self, path):
        """One JSON line per span: name, start, end, parent index, job index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
