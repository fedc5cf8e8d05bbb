"""Spans around the calls into each layer, recorded from outside the package.

A :class:`Tracer` replaces a public function by a timing wrapper in the
namespace its caller looks it up in: the importing module's globals, found
in ``sys.modules`` (``maxdiv.maximize`` as a package attribute is the
function, not the module).  Nothing under ``src/`` changes.  A name that no
longer exists is recorded as absent and its metrics read 0.

Each span is ``(op, span, parent, name, start, end)``; spans of one
operation share ``op``.  Self time is a span's duration minus the time of
the wrapped calls inside it.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np

# (module looked up in, attribute, span name).  Entry points are wrapped in
# the package namespace, where the benchmark's own operations look them up.
TARGETS = (
    ("maxdiv", "maximize", "maximize.maximize"),
    ("maxdiv", "grid_max_multi", "oracle.grid_max_multi"),
    ("maxdiv.maximize", "maximize_fast_path", "maximize.maximize_fast_path"),
    ("maxdiv.maximize", "maximize_exhaustive", "maximize.maximize_exhaustive"),
    ("maxdiv.maximize", "full_support_diagnostics", "maximize.full_support_diagnostics"),
    ("maxdiv.maximize", "scan_subsets", "kernels.scan_subsets"),
    ("maxdiv.maximize", "solve_weighting_space", "linalg.solve_weighting_space"),
    ("maxdiv.maximize", "find_nonnegative_weighting", "linalg.find_nonnegative_weighting"),
    ("maxdiv.maximize", "find_positive_weighting", "linalg.find_positive_weighting"),
    ("maxdiv.maximize", "is_ultrametric", "linalg.is_ultrametric"),
    ("maxdiv.maximize", "is_strictly_diagonally_dominant", "linalg.is_strictly_diagonally_dominant"),
    ("maxdiv.maximize", "is_positive_semidefinite", "linalg.is_positive_semidefinite"),
    ("maxdiv.oracle", "grid_best", "kernels.grid_best"),
    ("maxdiv.kernels", "compositions", "kernels.compositions"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "first", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.first = None  # duration of the first call ever made
        self.counts = {}

    def add(self, key, k):
        self.counts[key] = self.counts.get(key, 0) + k


def _count(name, stat, args, out):
    """Work counts taken at the layer boundary, from arguments and results."""
    if name == "kernels.scan_subsets":
        status = np.asarray(out[0])
        unresolved = getattr(sys.modules.get("maxdiv.kernels"), "UNRESOLVED", 2)
        stat.add("subsets", int(status.size))
        stat.add("unresolved", int((status == unresolved).sum()))
    elif name == "kernels.grid_best":
        n, m = np.shape(args[0])[0], int(args[2])
        stat.add("evaluations", math.comb(m + n - 1, n - 1) * len(args[1]))
    elif name == "linalg.find_nonnegative_weighting":
        ws = args[0]
        tol = getattr(sys.modules.get("maxdiv.linalg"), "SOLVE_TOL", 1e-9)
        if ws.particular is not None and ws.particular.min() < -tol and ws.nullspace.shape[0] > 0:
            stat.add("lp_calls", 1)
        stat.add("feasible", int(out is not None))


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for _, _, name in TARGETS}
        self.absent = []
        self.spans = []
        self.op = -1
        self._stack = []  # [span id, child time] per open span
        self._next_span = 0
        self._saved = []

    def install(self):
        for module, attr, name in TARGETS:
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def reset(self):
        """Drop counts and spans but keep each layer's first-call time."""
        for stat in self.stats.values():
            stat.calls, stat.total, stat.self_time, stat.counts = 0, 0.0, 0.0, {}
        self.spans = []

    def _wrap(self, fn, name):
        stat = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                if stat.first is None:
                    stat.first = dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[1]
                self.spans.append((self.op, span, parent, name, t0, t1))
            _count(name, stat, args, out)
            return out

        return traced

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation figures over ``ops`` operations, in the units named
        in BENCHMARK.json."""
        s = self.stats

        def per_op(x):
            return x / ops

        def ms(name):
            return per_op(s[name].total) * 1e3

        def self_ms(name):
            return per_op(s[name].self_time) * 1e3

        nonneg = s["linalg.find_nonnegative_weighting"]
        first = s["kernels.compositions"].first
        return {
            "kernels.scan_subsets.ms_per_op": (ms("kernels.scan_subsets"), "ms"),
            "kernels.scan_subsets.subsets_per_op": (per_op(s["kernels.scan_subsets"].counts.get("subsets", 0)), "count"),
            "kernels.scan_subsets.unresolved_per_op": (per_op(s["kernels.scan_subsets"].counts.get("unresolved", 0)), "count"),
            "kernels.grid_best.ms_per_op": (ms("kernels.grid_best"), "ms"),
            "kernels.grid_best.evaluations_per_op": (per_op(s["kernels.grid_best"].counts.get("evaluations", 0)), "count"),
            "kernels.compositions.first_call_ms": ((first or 0.0) * 1e3, "ms"),
            "linalg.solve_weighting_space.ms_per_op": (ms("linalg.solve_weighting_space"), "ms"),
            "linalg.solve_weighting_space.calls_per_op": (per_op(s["linalg.solve_weighting_space"].calls), "count"),
            "linalg.find_nonnegative_weighting.ms_per_op": (ms("linalg.find_nonnegative_weighting"), "ms"),
            "linalg.find_nonnegative_weighting.lp_calls_per_op": (per_op(nonneg.counts.get("lp_calls", 0)), "count"),
            "linalg.find_nonnegative_weighting.feasible_ratio": (
                nonneg.counts.get("feasible", 0) / nonneg.calls if nonneg.calls else 0.0,
                "ratio",
            ),
            "linalg.find_positive_weighting.ms_per_op": (ms("linalg.find_positive_weighting"), "ms"),
            "linalg.is_ultrametric.ms_per_op": (ms("linalg.is_ultrametric"), "ms"),
            "maximize.maximize_exhaustive.self_ms_per_op": (self_ms("maximize.maximize_exhaustive"), "ms"),
            "maximize.maximize_fast_path.self_ms_per_op": (self_ms("maximize.maximize_fast_path"), "ms"),
            "maximize.full_support_diagnostics.self_ms_per_op": (self_ms("maximize.full_support_diagnostics"), "ms"),
            "oracle.grid_max_multi.self_ms_per_op": (self_ms("oracle.grid_max_multi"), "ms"),
        }

    def summary(self, ops: int) -> dict:
        """Every wrapped name with calls, total and self ms per operation."""
        return {
            name: {
                "calls_per_op": st.calls / ops,
                "ms_per_op": st.total / ops * 1e3,
                "self_ms_per_op": st.self_time / ops * 1e3,
                "first_call_ms": None if st.first is None else st.first * 1e3,
                "counts_per_op": {k: v / ops for k, v in st.counts.items()},
            }
            for name, st in self.stats.items()
        }
