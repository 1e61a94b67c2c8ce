"""Per-layer spans recorded from outside the program.

`install` wraps the public function of each layer.  A module that did
`from .laurent import constant_term_iterative` holds its own reference, so the
wrapper replaces the function in every module of the package that binds it,
not only where it is defined; otherwise calls through that module would go
unrecorded.  Spans stay in memory as (name, start, end, parent, count) and
`layer_metrics` turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "laurent_eulerian"

# (span name, defining module, function name)
FUNCTIONS = (
    ("laurent.const_term", "laurent", "constant_term_iterative"),
    ("groebner.build_ideal", "groebner", "build_ideal"),
    ("groebner.basis", "groebner", "groebner_of_ideal"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.staircase", "groebner", "quotient_dimension"),
    ("chow.ci_degree", "chow", "generic_ci_degree"),
    ("experiments.graded_quotient_dims", "experiments", "graded_quotient_dims"),
    ("experiments.slice_monomials", "experiments", "slice_monomials"),
    ("eulerian.orbit_decomposition", "eulerian", "orbit_decomposition"),
)

# (span name, defining module, class, method name); classes are not re-bound
# anywhere, so patching the class attribute reaches every caller.
METHODS = (
    ("algebra.exact_matrix.rank", "algebra", "ExactMatrix", "rank"),
    ("algebra.exact_matrix.solve", "algebra", "ExactMatrix", "solve"),
    ("experiments.generic_forms", "experiments", "GenericFormSet", "generate"),
)


def _basis_kind(spec, *args, **kwargs) -> str:
    """groebner_of_ideal serves both the degree ideal (powers 1..m+n-1) and
    the unit-ideal check (powers 1..m+n); they get separate spans."""
    if spec.max_power == spec.m + spec.n:
        return "groebner.basis.unit_ideal"
    if spec.max_power == spec.m + spec.n - 1:
        return "groebner.basis.degree_ideal"
    return "groebner.basis.other"


NAMERS = {"groebner.basis": _basis_kind}

# Result -> count stored on the span.
COUNTERS = {
    "groebner.buchberger": len,
    "experiments.graded_quotient_dims": lambda dims: len(dims.seeds_tried),
}


class Tracer:
    """Spans of one single-threaded process, in the order they opened."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self._open = []

    def wrap(self, name: str, fn):
        namer = NAMERS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(*args, **kwargs) if namer else name
            span = [label, time.perf_counter(), None, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter:
                    span[4] = counter(result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced


def install(tracer: Tracer) -> list:
    """Wrap every layer function wherever the package binds it.

    Returns the (module, attribute) pairs that now hold a wrapper.
    """
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    patched = []
    for name, home, attr in FUNCTIONS:
        original = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod.__name__, key))
    for name, home, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{home}"], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
        patched.append((cls.__module__, f"{cls_name}.{attr}"))
    return patched


# Per-layer metric -> unit; trace.overhead_frac comes from comparing runs.
LAYER_METRICS = {
    "laurent.const_term.calls": "count",
    "laurent.const_term.s": "s",
    "groebner.build_ideal.s": "s",
    "groebner.basis.degree_ideal.s": "s",
    "groebner.basis.unit_ideal.s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.s": "s",
    "groebner.basis_len": "count",
    "groebner.staircase.s": "s",
    "chow.ci_degree.calls": "count",
    "chow.ci_degree.s": "s",
    "algebra.exact_matrix.calls": "count",
    "algebra.exact_matrix.s": "s",
    "experiments.graded_quotient_dims.s": "s",
    "experiments.graded_quotient_dims.self_s": "s",
    "experiments.slice_monomials.s": "s",
    "experiments.generic_forms.s": "s",
    "experiments.seeds_tried": "count",
    "experiments.fallback_ranks": "count",
    "eulerian.orbit_decomposition.calls": "count",
    "eulerian.orbit_decomposition.s": "s",
    "cli.s": "s",
    "cli.self_s": "s",
}

# Span names that feed each "<layer>.calls" / "<layer>.s" metric.
LAYER_SPANS = {
    "laurent.const_term": ("laurent.const_term",),
    "groebner.build_ideal": ("groebner.build_ideal",),
    "groebner.basis.degree_ideal": ("groebner.basis.degree_ideal",),
    "groebner.basis.unit_ideal": ("groebner.basis.unit_ideal",),
    "groebner.buchberger": ("groebner.buchberger",),
    "groebner.staircase": ("groebner.staircase",),
    "chow.ci_degree": ("chow.ci_degree",),
    "algebra.exact_matrix": ("algebra.exact_matrix.rank", "algebra.exact_matrix.solve"),
    "experiments.graded_quotient_dims": ("experiments.graded_quotient_dims",),
    "experiments.slice_monomials": ("experiments.slice_monomials",),
    "experiments.generic_forms": ("experiments.generic_forms",),
    "eulerian.orbit_decomposition": ("eulerian.orbit_decomposition",),
    "cli": ("cli",),
}


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][3]


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) from one traced iteration's spans.

    A span's self time is its duration minus its direct children's, which
    cover disjoint parts of it because the process is single-threaded.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]

    def total(names):
        return sum(duration[i] for i, span in enumerate(spans) if span[0] in names)

    def self_time(names):
        return sum(duration[i] - child_time[i] for i, span in enumerate(spans) if span[0] in names)

    out = {}
    for layer, names in LAYER_SPANS.items():
        out[f"{layer}.calls"] = sum(1 for span in spans if span[0] in names)
        out[f"{layer}.s"] = total(names)
    out["groebner.basis_len"] = sum(s[4] or 0 for s in spans if s[0] == "groebner.buchberger")
    out["experiments.graded_quotient_dims.self_s"] = self_time(("experiments.graded_quotient_dims",))
    out["experiments.seeds_tried"] = sum(
        s[4] or 0 for s in spans if s[0] == "experiments.graded_quotient_dims")
    out["experiments.fallback_ranks"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "algebra.exact_matrix.rank"
        and any(a[0] == "experiments.graded_quotient_dims" for a in _ancestors(spans, i)))
    out["cli.self_s"] = self_time(("cli",))
    return {name: out[name] for name in LAYER_METRICS}
