"""Per-layer tracing from outside the library.

The tracer wraps public functions of the quadspline modules and rebinds
them at runtime. A function imported elsewhere with `from .x import y`
lives on as a second module attribute (for example
`quadspline.integral_eq.find_real_eigenvalues`), so every quadspline module
attribute that is the original object is rebound, and restored afterwards.
The library source is untouched.

Every wrapper counts calls and accumulates busy time (outermost calls
only, so recursion is not counted twice) and self time (own time minus
the time of wrapped callees). Wrappers of non-leaf functions also record
one span per call: name, start, end, parent span and op id. The hot
leaves (LU determinant, per-piece kernel weights, kernel, spline
evaluation, vectorised sampling) only count, because a span per call
would cost more than the work being measured.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, records spans). SplineModel._eval, the kernels and the
# coefficient-matrix cache are handled separately in Tracer.__init__.
TARGETS = (
    ("cli", "main", True),
    ("registry", "verify_reference_solutions", True),
    ("registry", "compute_cell", True),
    ("registry", "solve_entry", True),
    ("registry", "interpolation_error", True),
    ("registry", "lagrange_error", True),
    ("integral_eq", "solve_fredholm", True),
    ("integral_eq", "solve_fredholm_eigen", True),
    ("integral_eq", "solve_volterra2", True),
    ("integral_eq", "solve_volterra1", True),
    ("integral_eq", "assemble_fredholm", True),
    ("integral_eq", "kernel_piece_weights", False),
    ("linsolve", "find_real_eigenvalues", True),
    ("linsolve", "solve_dense", True),
    ("linsolve", "determinant", False),
    ("spline", "convergence_study", True),
    ("spline", "build_spline", True),
    ("spline", "coefficient_matrix", True),
    ("quadrature", "l2_error", True),
    ("quadrature", "integrate_panels", True),
    ("core", "sample", True),
    ("core", "eval_many", False),
    ("lagrange", "lagrange_interpolant", True),
)


_NO_CACHE = functools._CacheInfo(0, 0, None, 0)


class Stat:
    __slots__ = ("calls", "points", "busy", "self_time", "depth", "results")

    def __init__(self):
        self.calls = self.points = self.results = 0
        self.busy = self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Counters and spans for one benchmark process; install() per traced op."""

    def __init__(self, quadspline):
        self.pkg = quadspline.__name__
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []
        self._frames: list[list[float]] = []  # child-time accumulators
        self._open_spans: list[int] = []
        self.op_id = -1
        self.new_shapes = 0  # coefficient-matrix LRU misses during traced ops
        self.origin = perf_counter()
        self._bindings: list[tuple[object, str, object]] = []

        mods = {name: importlib.import_module(f"{self.pkg}.{name}")
                for name in {m for m, _, _ in TARGETS}}
        for mod, attr, spans in TARGETS:
            original = getattr(mods[mod], attr, None)
            if original is None:  # removed by a later version: its counters read 0
                continue
            if attr == "lagrange_interpolant":
                wrapper = self._wrap(f"{mod}.{attr}", self._wrap_lagrange(original), spans)
            elif attr == "find_real_eigenvalues":
                wrapper = self._wrap(f"{mod}.{attr}", original, spans, results=len)
            else:
                wrapper = self._wrap(f"{mod}.{attr}", original, spans)
            self._bind_everywhere(original, wrapper)

        model = mods["spline"].SplineModel
        if hasattr(model, "_eval"):
            self._bindings.append((model, "_eval", self._wrap(
                "spline.eval", model._eval, False, points=lambda a: np.size(a[1]))))

        registry = mods["registry"]
        kernel_points = lambda a: np.size(a[1])  # noqa: E731  kernel(x, s)
        traced = {pid: dataclasses.replace(entry, kernel=self._wrap(
                      "integral_eq.kernel", entry.kernel, False, points=kernel_points))
                  for pid, entry in registry.PROBLEMS.items()}
        self._bindings.append((registry, "PROBLEMS", traced))

        cache = getattr(mods["spline"], "_coeff_matrix_cached", None)
        self._cache_misses = (cache.cache_info if hasattr(cache, "cache_info")
                              else lambda: _NO_CACHE)
        self._originals = [(obj, name, getattr(obj, name))
                           for obj, name, _ in self._bindings]

    def _bind_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != self.pkg and not modname.startswith(self.pkg + "."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, name, wrapper))

    def _wrap_lagrange(self, lagrange_interpolant):
        wrap_eval = self._wrap

        def traced_interpolant(*args, **kwargs):
            return wrap_eval("lagrange.eval", lagrange_interpolant(*args, **kwargs),
                             False, points=lambda a: np.size(a[0]))
        return traced_interpolant

    def _wrap(self, name, fn, spans, points=None, results=None):
        st = self.stats[name]
        frames = self._frames
        open_spans = self._open_spans
        span_log = self.spans
        origin = self.origin
        tracer = self

        def wrapper(*args, **kwargs):
            st.calls += 1
            if points is not None:
                st.points += points(args)
            st.depth += 1
            frame = [0.0]
            frames.append(frame)
            if spans:
                span_id = len(span_log)
                parent = open_spans[-1] if open_spans else None
                span_log.append(None)
                open_spans.append(span_id)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if results is not None:
                    st.results += results(out)
                return out
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                frames.pop()
                st.depth -= 1
                if st.depth == 0:
                    st.busy += dt
                st.self_time += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if spans:
                    open_spans.pop()
                    span_log[span_id] = (span_id, name, t0 - origin, t1 - origin,
                                         parent, tracer.op_id)
        return wrapper

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        self._misses_before = self._cache_misses().misses
        for obj, name, wrapper in self._bindings:
            setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original in self._originals:
            setattr(obj, name, original)
        self.new_shapes += self._cache_misses().misses - self._misses_before

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op means of the counters, keyed by the benchmark's metric names."""
        s = self.stats
        per = 1.0 / ops
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value * per, unit)

        for key in ("cli.main", "registry.verify_reference_solutions",
                    "registry.lagrange_error", "registry.interpolation_error",
                    "integral_eq.kernel_piece_weights", "integral_eq.assemble_fredholm",
                    "linsolve.determinant", "linsolve.solve_dense",
                    "spline.coefficient_matrix", "spline.build_spline", "spline.eval",
                    "core.eval_many", "core.sample", "quadrature.integrate_panels",
                    "quadrature.l2_error", "lagrange.eval"):
            put(f"{key}.busy_s", s[key].busy, "s")
        for key in ("registry.solve_entry", "integral_eq.kernel_piece_weights",
                    "integral_eq.kernel", "linsolve.determinant", "linsolve.solve_dense",
                    "spline.coefficient_matrix", "spline.eval",
                    "quadrature.integrate_panels"):
            put(f"{key}.calls", s[key].calls, "count")
        for key in ("cli.main", "linsolve.find_real_eigenvalues",
                    "integral_eq.solve_volterra2"):
            put(f"{key}.self_s", s[key].self_time, "s")
        put("spline.eval.points", s["spline.eval"].points, "count")
        put("lagrange.eval.points", s["lagrange.eval"].points, "count")
        put("spline.coefficient_matrix.new_shapes", self.new_shapes, "count")
        kernel = s["integral_eq.kernel"]
        out["integral_eq.kernel.points_per_call"] = (
            kernel.points / kernel.calls if kernel.calls else 0.0, "count")
        put("trace.wrapper_calls", sum(st.calls for st in s.values()), "count")
        roots = s["linsolve.find_real_eigenvalues"].results
        out["linsolve.det_calls_per_root"] = (
            s["linsolve.determinant"].calls / roots if roots else 0.0, "count")
        return out

    def span_records(self):
        for span in self.spans:
            if span is not None:
                span_id, name, start, end, parent, op_id = span
                yield {"id": span_id, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op_id}
