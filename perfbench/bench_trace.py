"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes of serrinlab with wrappers that record
a span (name, parent, start, end) per call, and re-points every other
serrinlab module that imported the same function object, so calls through
re-imported names (`experiments.generate`, `cli_io.full_report`, ...) are
seen too.  Nothing inside the program is edited.

A call into the same layer name from inside an open span of that name is
folded into the open span (solve_one_phase -> solve_two_phase is one solve).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) -> layer name; the four solve_* share one name
SPANS = (
    ("geometry", "inclusion_margin", "geometry.inclusion_margin"),
    ("geometry", "distance_to_boundary", "geometry.distance_to_boundary"),
    ("meshgen", "generate", "meshgen.generate"),
    ("meshgen", "refine", "meshgen.refine"),
    ("meshgen", "validate_mesh", "meshgen.validate_mesh"),
    ("fem_core", "stiffness", "fem_core.stiffness"),
    ("fem_core", "solve_two_phase", "fem_core.solve"),
    ("fem_core", "solve_one_phase", "fem_core.solve"),
    ("fem_core", "solve_harmonic_dirichlet", "fem_core.solve"),
    ("fem_core", "solve_linearized", "fem_core.solve"),
    ("fem_core", "_pcg", "fem_core.cg"),
    ("fem_core", "normal_derivative", "fem_core.normal_derivative"),
    ("fem_core", "recovered_gradient", "fem_core.recovered_gradient"),
    ("fem_core", "hessian_recovery", "fem_core.hessian_recovery"),
    ("serrin_diagnostics", "full_report", "serrin_diagnostics.full_report"),
    ("serrin_diagnostics", "max_point", "serrin_diagnostics.max_point"),
    ("serrin_diagnostics", "growth_check", "serrin_diagnostics.growth_check"),
    ("serrin_diagnostics", "fundamental_identity",
     "serrin_diagnostics.fundamental_identity"),
    ("experiments", "sigma_sweep", "experiments.sigma_sweep"),
    ("experiments", "frechet_check", "experiments.frechet_check"),
    ("experiments", "inclusion_sweep", "experiments.inclusion_sweep"),
    ("experiments", "one_phase_stability_sweep",
     "experiments.one_phase_stability_sweep"),
    ("experiments", "nonexistence_threshold", "experiments.nonexistence_threshold"),
    ("cli_io", "run", "cli_io.run"),
)

# per-layer metrics reported by the traced run, with units
SELF_TIMES = tuple(dict.fromkeys(name for _, _, name in SPANS))
CALLS = ("geometry.inclusion_margin", "geometry.distance_to_boundary",
         "meshgen.generate", "fem_core.stiffness", "fem_core.solve", "fem_core.cg")
COUNTERS = {"meshgen.generate.attempts": "count", "meshgen.vertices": "count",
            "fem_core.cg.iterations": "count", "cli_io.artifact_bytes": "bytes"}


class Tracer:
    """In-memory spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._open = []          # indices of open spans, innermost last
        self.counters = defaultdict(int)

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self.spans[self._open[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, parent, time.perf_counter(), None])
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(out)
            return out
        return wrapper

    def _count_attempt(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters["meshgen.generate.attempts"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_vertices(self, mesh):
        self.counters["meshgen.vertices"] += len(mesh.vertices)

    def _count_iterations(self, result):
        self.counters["fem_core.cg.iterations"] += int(result[1])

    def install(self):
        """Wrap every SPANS entry (and `_generate_once`) wherever it is bound."""
        after = {"meshgen.generate": self._count_vertices,
                 "meshgen.refine": self._count_vertices,
                 "fem_core.cg": self._count_iterations}
        replacements = {}
        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(f"serrinlab.{mod_name}")
            fn = getattr(mod, attr)
            replacements[id(fn)] = (fn, self._wrap(fn, name, after.get(name)))
        meshgen = importlib.import_module("serrinlab.meshgen")
        fn = meshgen._generate_once
        replacements[id(fn)] = (fn, self._count_attempt(fn))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("serrinlab"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def mark(self):
        """Position to aggregate from (start of a pass)."""
        return len(self.spans), dict(self.counters)

    def summary(self, since):
        """self_s and calls per layer, plus counters, since a mark()."""
        first, counters0 = since
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, parent, t0, t1 = self.spans[i]
            if parent >= first:
                child_time[parent] += t1 - t0
        for i in range(first, len(self.spans)):
            name, _, t0, t1 = self.spans[i]
            self_s[name] += (t1 - t0) - child_time[i]
            calls[name] += 1
        out = {f"{name}.self_s": self_s[name] for name in SELF_TIMES}
        out.update({f"{name}.calls": calls[name] for name in CALLS})
        out.update({name: self.counters[name] - counters0.get(name, 0)
                    for name in COUNTERS})
        return out


def per_layer_names():
    """(name, unit) of every metric in a summary(), in report order."""
    names = [(f"{n}.self_s", "s") for n in SELF_TIMES]
    names += [(f"{n}.calls", "count") for n in CALLS]
    return names + list(COUNTERS.items())
