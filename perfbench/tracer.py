"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of the gaussbayes
modules with wrappers that record a span (name, start, end, parent) and
exact work counts read from argument and return shapes at the same call
boundary; ``uninstall`` puts the originals back.  Nothing inside ``src/``
changes.  A span's self time is its duration minus that of its direct
children; calls run on one thread, so children never overlap.

Spans stay in memory.  Only the first traced cycle keeps the full span
list (for writing out at the end of the run); later cycles keep only the
per-name sums, which bounds memory on the pointwise workload (about 4e4
spans per cycle).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter

import numpy as np

from gaussbayes import bayes, displacement as disp, harness, measurement as meas
from gaussbayes import phase, phasespace as ps, specfun, squeezing as sq

LIKELIHOOD_LAYERS = ("phase", "squeezing", "displacement")

# (name, unit, better): the per-layer metrics of a traced run, each one per
# cycle of the workload's op list.  README.md maps each to the end-to-end
# metric and workload it should move.
PER_LAYER = (
    [(f"{m}.likelihood.{k}", u, "lower") for m in LIKELIHOOD_LAYERS for k, u in
     (("busy_s", "s"), ("calls", "count"), ("cells", "count"), ("ns_per_cell", "ns"),
      ("bytes_computed", "B"))]
    + [("bayes.apv.busy_s", "s", "lower"), ("bayes.apv.self_s", "s", "lower"),
       ("bayes.apv.calls", "count", "lower"),
       ("bayes.quad.levels", "count", "lower"), ("bayes.quad.outcome_nodes", "count", "lower"),
       ("bayes.quad.fresh_node_ratio", "ratio", "higher"),
       ("bayes.mc.chunks", "count", "lower"), ("bayes.mc.prior_sample_s", "s", "lower"),
       ("bayes.mc.sample_outcomes_s", "s", "lower"),
       ("bayes.grid_update.busy_s", "s", "lower"), ("bayes.grid_update.calls", "count", "lower"),
       ("specfun.rows.busy_s", "s", "lower"), ("specfun.rows.calls", "count", "lower"),
       ("specfun.rows.entries", "count", "lower"), ("specfun.rows.ns_per_entry", "ns", "lower"),
       ("specfun.rows.nonfinite", "count", "lower"),
       ("specfun.scalar.busy_s", "s", "lower"), ("specfun.scalar.calls", "count", "lower"),
       ("phase.sh_avg.busy_s", "s", "lower"), ("phase.sh_avg.calls", "count", "lower"),
       ("phase.hom_series.busy_s", "s", "lower"), ("phase.hom_series.calls", "count", "lower")]
    + [(f"measurement.{m}.{k}", u, "lower") for m in ("het_density", "hom_density", "sample")
       for k, u in (("busy_s", "s"), ("calls", "count"), ("points", "count"))]
    + [(f"phasespace.{m}.{k}", u, "lower") for m in ("fidelity", "wigner", "state")
       for k, u in (("busy_s", "s"), ("calls", "count"))]
    + [("harness.run_s", "s", "lower"), ("harness.row_s_p50", "s", "lower"),
       ("harness.rows_not_ok", "count", "lower"), ("trace.overhead_s", "s", "lower")]
)

_STRATEGIES = {
    "phase": (phase.HeterodynePhaseStrategy, phase.HomodynePhaseStrategy),
    "squeezing": (sq.SqueezeStrategy,),
    "displacement": (disp.HeterodyneCoordinateStrategy, disp.HomodyneQuadratureStrategy),
}


class Tracer:
    def __init__(self):
        self._patches = []
        self._stack = []          # open spans: [name, start, child_time, index]
        self.keep_spans = False
        self.spans = []           # (name, start, end, parent index, self time)
        self.busy = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.row_times = []
        self._quad_nodes = []

    # span bookkeeping ----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    def _open(self, name):
        start = time.perf_counter()
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((name, start, start, parent, 0.0))
        entry = [name, start, 0.0, index]
        self._stack.append(entry)
        return entry

    def _close(self, entry):
        end = time.perf_counter()
        name, start, child, index = entry
        self._stack.pop()
        duration = end - start
        self.busy[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            n, _, _, parent, _ = self.spans[index]
            self.spans[index] = (n, start, end, parent, duration - child)

    def reset_cycle(self):
        self.busy.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.row_times = []

    # wrapping --------------------------------------------------------------

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            entry = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(entry)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, owned))

    def install(self):
        c = self.counts
        for layer, classes in _STRATEGIES.items():
            def likelihood(args, kwargs, result, layer=layer):
                _, thetas, outcomes = args
                c[f"{layer}.likelihood.cells"] += int(np.size(thetas)) * int(np.size(outcomes))
                c[f"{layer}.likelihood.bytes_computed"] += int(np.asarray(result).nbytes)
            for cls in classes:
                self._wrap(cls, "likelihood_matrix", f"{layer}.likelihood", after=likelihood)
                self._wrap(cls, "outcome_nodes", "bayes.quad.outcome_nodes",
                           after=lambda a, k, r: self._quad_nodes.append(np.asarray(r[0])))
                self._wrap(cls, "sample_outcomes_given", "bayes.mc.sample_outcomes")

        def apv_before(args, kwargs):
            self._quad_nodes = []

        def apv_after(args, kwargs, result):
            if self._quad_nodes:
                nodes = np.concatenate(self._quad_nodes)
                c["bayes.quad.levels"] += len(self._quad_nodes)
                c["bayes.quad.outcome_nodes"] += nodes.size
                c["bayes.quad.distinct_nodes"] += np.unique(nodes).size
            self._quad_nodes = []

        # modules bind the engine by name at import; wrap every binding
        for module in (bayes, phase, sq, disp):
            self._wrap(module, "average_posterior_variance", "bayes.apv",
                       before=apv_before, after=apv_after)
        self._wrap(bayes.GridDistribution, "sample", "bayes.mc.prior_sample")
        self._wrap(bayes, "grid_update", "bayes.grid_update")

        def rows(args, kwargs, result):
            c["specfun.rows.entries"] += int(result.size)
            c["specfun.rows.nonfinite"] += int(np.count_nonzero(~np.isfinite(result)))
        self._wrap(specfun, "bessel_i_scaled_rows", "specfun.rows", after=rows)
        for attr in ("bessel_i_log_scaled", "bessel_i"):
            self._wrap(specfun, attr, "specfun.scalar")

        self._wrap(phase, "squeezed_het_average_variance", "phase.sh_avg")
        for attr in ("coherent_hom_outcome_density", "coherent_hom_circular_moment"):
            self._wrap(phase, attr, "phase.hom_series")

        def points(name, count):
            def after(args, kwargs, result):
                c[f"measurement.{name}.points"] += count(args, kwargs)
            return after
        self._wrap(meas, "heterodyne_density", "measurement.het_density",
                   after=points("het_density", lambda a, k: 1))
        self._wrap(meas, "homodyne_density", "measurement.hom_density",
                   after=points("hom_density", lambda a, k: int(np.size(a[1]))))
        self._wrap(meas, "sample_outcomes", "measurement.sample",
                   after=points("sample", lambda a, k: int(a[3])))
        # measurement binds fidelity by name at import
        for module in (ps, meas):
            self._wrap(module, "fidelity", "phasespace.fidelity")
        self._wrap(ps, "wigner", "phasespace.wigner")
        self._wrap(ps.GaussianState, "__post_init__", "phasespace.state")

        def run_rows(args, kwargs, records):
            self.row_times.extend(rec.wall_time for rec in records)
            c["harness.rows_not_ok"] += sum(rec.status != "ok" for rec in records)
        self._wrap(harness, "run", "harness.run", after=run_rows)

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # metrics ---------------------------------------------------------------

    def cycle_metrics(self) -> dict:
        """Per-layer metrics of the cycle just traced."""
        b, n, c = self.busy, self.calls, self.counts
        out = {}
        for layer in LIKELIHOOD_LAYERS:
            name = f"{layer}.likelihood"
            cells = c[f"{name}.cells"]
            out.update({f"{name}.busy_s": b[name], f"{name}.calls": n[name],
                        f"{name}.cells": cells,
                        f"{name}.ns_per_cell": b[name] / cells * 1e9 if cells else 0.0,
                        f"{name}.bytes_computed": c[f"{name}.bytes_computed"]})
        nodes = c["bayes.quad.outcome_nodes"]
        out.update({
            "bayes.apv.busy_s": b["bayes.apv"], "bayes.apv.self_s": self.self_time["bayes.apv"],
            "bayes.apv.calls": n["bayes.apv"],
            "bayes.quad.levels": c["bayes.quad.levels"], "bayes.quad.outcome_nodes": nodes,
            "bayes.quad.fresh_node_ratio": c["bayes.quad.distinct_nodes"] / nodes if nodes else 0.0,
            "bayes.mc.chunks": n["bayes.mc.sample_outcomes"],
            "bayes.mc.prior_sample_s": b["bayes.mc.prior_sample"],
            "bayes.mc.sample_outcomes_s": b["bayes.mc.sample_outcomes"],
            "bayes.grid_update.busy_s": b["bayes.grid_update"],
            "bayes.grid_update.calls": n["bayes.grid_update"],
        })
        entries = c["specfun.rows.entries"]
        out.update({
            "specfun.rows.busy_s": b["specfun.rows"], "specfun.rows.calls": n["specfun.rows"],
            "specfun.rows.entries": entries,
            "specfun.rows.ns_per_entry": b["specfun.rows"] / entries * 1e9 if entries else 0.0,
            "specfun.rows.nonfinite": c["specfun.rows.nonfinite"],
            "specfun.scalar.busy_s": b["specfun.scalar"],
            "specfun.scalar.calls": n["specfun.scalar"],
        })
        for name in ("phase.sh_avg", "phase.hom_series",
                     "phasespace.fidelity", "phasespace.wigner", "phasespace.state"):
            out[f"{name}.busy_s"] = b[name]
            out[f"{name}.calls"] = n[name]
        for name in ("het_density", "hom_density", "sample"):
            key = f"measurement.{name}"
            out.update({f"{key}.busy_s": b[key], f"{key}.calls": n[key],
                        f"{key}.points": c[f"{key}.points"]})
        out.update({
            "harness.run_s": b["harness.run"],
            "harness.row_s_p50": statistics.median(self.row_times) if self.row_times else 0.0,
            "harness.rows_not_ok": c["harness.rows_not_ok"],
        })
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {k: float(v) if units[k] in ("s", "ns", "ratio") else int(v) for k, v in out.items()}


COUNT_UNITS = ("count", "B", "ratio")


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat bit for bit between cycles and runs."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in metrics.items() if units.get(k) in COUNT_UNITS}
