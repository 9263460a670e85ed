"""Spans and counters around the public functions of each corrobayes layer.

``Tracer.install`` replaces every listed function, in every ``corrobayes``
namespace that holds it, by a wrapper that records a span (name, start, end,
parent) in memory and updates the layer's counters.  Functions imported by
value (``from .simulate import estimate_moments``) are found by identity, so
calls through ``cli``, ``calibrate`` and ``adjust`` are all seen.  Nothing is
wrapped unless ``install`` is called.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: Layer (module name) -> public functions wrapped in the traced run.
LAYERS = {
    "simulate": ("estimate_moments", "draw_dataset"),
    "calibrate": ("calibrate", "calibrate_candidate"),
    "varlearn": ("build_dbar_statistic", "adjust_wx"),
    "adjust": ("compare_with_without_variance_learning", "adjust_from_moments", "remnant_life"),
    "diagnostics": ("data_discrepancy", "global_discrepancy", "adjustment_diagnostics"),
    "linalg": (
        "pinv_with_rank", "mahalanobis_discrepancy", "adjustment_discrepancy",
        "adjusted_expectation", "adjusted_variance",
    ),
    "fileio": ("write_csv", "atomic_write_text"),
    "system": ("validate_dataset",),
}

#: Counters: name -> (unit, better).  Names ending in ``_computed`` are
#: derived from array shapes, not measured.
COUNTERS = {
    "simulate.realizations": ("count", "lower"),
    "simulate.accum_mb_computed": ("MB", "lower"),
    "calibrate.floored_candidates": ("count", "lower"),
    "calibrate.h_gap": ("ratio", "lower"),
    "varlearn.floor_events": ("count", "lower"),
    "adjust.targets": ("count", "lower"),
    "adjust.resolved_mb_computed": ("MB", "lower"),
    "adjust.rss_growth_mb": ("MB", "lower"),
    "diagnostics.indeterminate_rows": ("count", "lower"),
    "linalg.var_y_rank": ("count", "higher"),
    "linalg.var_y_dim": ("count", "lower"),
    "linalg.max_dim": ("count", "lower"),
    "linalg.cubic_gflop_computed": ("Gflop", "lower"),
    "fileio.artifact_mb": ("MB", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

#: Floor applied by varlearn.adjust_wx to the adjusted mean variance.
VARIANCE_FLOOR = 1e-12


def metric_specs():
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    specs = []
    for layer, names in LAYERS.items():
        for fn in names:
            specs += [
                (f"{layer}.{fn}.calls", "count", "lower"),
                (f"{layer}.{fn}.s", "s", "lower"),
                (f"{layer}.{fn}.self_s", "s", "lower"),
            ]
    specs += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    return specs


def _vm_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _square_dims(values):
    """Dimensions of square matrices among call arguments (arrays or
    moment pairs carrying a ``covariance``)."""
    for v in values:
        m = getattr(v, "covariance", v)
        shape = getattr(m, "shape", None)
        if shape is not None and len(shape) == 2 and shape[0] == shape[1]:
            yield int(shape[0])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = {name: 0.0 for name in COUNTERS}
        self._rss_before = []
        self.selected_h = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("corrobayes.cli")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "corrobayes"]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"corrobayes.{layer}")
            for fn in names:
                orig = getattr(mod, fn)
                wrapped = self._wrap(f"{layer}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        layer = name.split(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "linalg":
                self._count_matrices(list(args) + list(kwargs.values()))
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs, spans[idx][3])
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _count_matrices(self, values):
        for n in _square_dims(values):
            self.counts["linalg.max_dim"] = max(self.counts["linalg.max_dim"], n)
            self.counts["linalg.cubic_gflop_computed"] += n**3 / 1e9

    def _after_simulate_estimate_moments(self, est, args, kwargs, parent):
        n, n_obs, n_t = est.n_realizations, len(est.design_points), len(est.targets)
        self.counts["simulate.realizations"] += n
        self.counts["simulate.accum_mb_computed"] += 8.0 * n * (n_obs**2 + n_t * n_obs) / 1e6

    def _after_calibrate_calibrate(self, result, args, kwargs, parent):
        self.counts["calibrate.floored_candidates"] += sum(
            1 for r in result.rows if r.adjusted_mu_wx <= VARIANCE_FLOOR
        )
        self.selected_h = float(result.selected.h)

    def _after_adjust_adjust_from_moments(self, belief, args, kwargs, parent):
        n_t = len(belief.moments.targets)
        self.counts["adjust.targets"] += n_t
        self.counts["adjust.resolved_mb_computed"] += 8.0 * n_t**2 / 1e6

    def _before_adjust_compare_with_without_variance_learning(self, args, kwargs):
        self._rss_before.append(_vm_rss_mb())

    def _after_adjust_compare_with_without_variance_learning(self, result, args, kwargs, parent):
        self.counts["adjust.rss_growth_mb"] += _vm_rss_mb() - self._rss_before.pop()

    def _count_indeterminate(self, report, args, kwargs, parent):
        self.counts["diagnostics.indeterminate_rows"] += sum(
            1 for r in report.rows if r.indeterminate
        )

    _after_diagnostics_data_discrepancy = _count_indeterminate
    _after_diagnostics_adjustment_diagnostics = _count_indeterminate

    def _after_linalg_pinv_with_rank(self, result, args, kwargs, parent):
        # var(Y) as pseudo-inverted by the adjustment; the last call is the
        # with-learning branch
        if parent >= 0 and self.spans[parent][0] == "adjust.adjust_from_moments":
            self.counts["linalg.var_y_rank"] = result[1]
            self.counts["linalg.var_y_dim"] = result[0].shape[0]

    def _after_fileio_atomic_write_text(self, result, args, kwargs, parent):
        path = args[0] if args else kwargs["path"]
        self.counts["fileio.artifact_mb"] += os.path.getsize(path) / 1e6

    # -- summary ------------------------------------------------------------

    def read_final_h(self, out_dir) -> None:
        """calibrate.h_gap: |H of the selected candidate - final_H|."""
        if self.selected_h is None:
            return
        with open(os.path.join(out_dir, "final_discrepancy.txt")) as fh:
            for line in fh:
                key, _, value = line.partition(" = ")
                if key == "final_H":
                    self.counts["calibrate.h_gap"] = abs(self.selected_h - float(value))

    def summary(self, wall_s: float) -> dict:
        """Per-function calls, total and self time, the counters, and the
        share of ``wall_s`` covered by top-level spans."""
        out = {name: 0 for name, _, _ in metric_specs()}
        child_time = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top += end - start
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        out.update(self.counts)
        out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
        return out
