"""gaussbayes benchmark: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 10 --trace 0

One process sends the next op only after the previous one returns.  The
workload's op list (one *cycle*, built from ``--seed``) repeats until
``--seconds`` have passed; the cycle in progress then completes, so every
run does whole cycles.  Each op's output is checked against its reference
(see ops.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics of the traced
ones (tracer.py).  A human-readable report precedes the JSON line and a
record with the environment goes to perfbench/results/.  README.md holds
the workload rationale and the layer-to-metric map.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # pin BLAS before numpy loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

WORKLOADS = ("quadrature", "montecarlo", "series", "pointwise")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the inputs and references, print setup_s and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up


def measure_setup(args) -> float:
    """setup_s of one fresh process; this one waits for it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """Per-op outcomes: wall times, failures, worst error/tolerance ratio."""

    def __init__(self, ops_module):
        self.ops = ops_module
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.known = Counter()       # defect name -> failed ops with its signature
        self.unexpected = 0
        self.examples = []           # first unexpected failures: (kind, value, reference, status)
        self.max_ratio = 0.0         # over ops that carry no known defect
        self.kinds = defaultdict(lambda: {"n": 0, "failed": 0, "times": [], "max_ratio": 0.0})

    def run(self, op):
        t0 = time.perf_counter()
        try:
            value, std_error, status = op.call()
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            value, std_error, status = math.nan, math.nan, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        ratio = self.ops.err_ratio(op, value, std_error, status)
        self.times.append(dt)
        self.attempted += 1
        kind = self.kinds[op.kind]
        kind["n"] += 1
        kind["times"].append(dt)
        kind["max_ratio"] = max(kind["max_ratio"], ratio)
        if not op.defects:
            self.max_ratio = max(self.max_ratio, ratio)
        if ratio <= 1.0:
            return
        self.failed += 1
        kind["failed"] += 1
        defect = self.ops.expected_failure(op, value) if status == "ok" else None
        if defect is not None:
            self.known[defect.name] += 1
            return
        self.unexpected += 1
        if len(self.examples) < 10:
            self.examples.append((op.kind, repr(value), repr(op.ref), status))

    @property
    def correct(self) -> bool:
        return self.unexpected == 0


def best_times(times, cycle_len):
    """Each op's best (least) wall time over the run's cycles, in cycle order.

    ``times`` holds whole cycles, one after another.  The host shares its
    cores with other machines and its speed drifts by up to ~1.5x over tens
    of seconds, so a run's mean mixes fast and slow spells in a proportion
    that varies from run to run.  The best of an op's repeats is its cost
    when nothing else got in the way, which is what a change to the program
    moves (README.md, End-to-end metrics).
    """
    if not times or len(times) % cycle_len:
        raise ValueError("op times do not form whole cycles")
    return [min(times[k::cycle_len]) for k in range(cycle_len)]


def run_cycle(tally, cycle, tracer=None):
    t0 = time.perf_counter()
    for op in cycle:
        if tracer is None:
            tally.run(op)
        else:
            with tracer.span(f"op.{op.kind}"):
                tally.run(op)
    return time.perf_counter() - t0


def run_untraced(args, cycle, tally):
    """Repeat the cycle until the time is up.  Between cycles, the set-up
    probes run at even intervals over the run, so their median samples the
    host over the whole run rather than over its first seconds; op times
    exclude them."""
    start = time.perf_counter()
    cycle_s, setups = [], []
    while not cycle_s or time.perf_counter() - start < args.seconds:
        while (len(setups) < SETUP_REPEATS
               and time.perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS):
            setups.append(measure_setup(args))
        cycle_s.append(run_cycle(tally, cycle))
    elapsed = time.perf_counter() - start
    while len(setups) < SETUP_REPEATS:   # a run shorter than one cycle per probe
        setups.append(measure_setup(args))
    return cycle_s, elapsed, setups


def run_traced(args, cycle, tally):
    """Alternate untraced and traced cycles until the time is up."""
    import tracer as tracing

    tr = tracing.Tracer()
    per_cycle, counts, overheads, op_time = [], [], [], []
    start = time.perf_counter()
    while not per_cycle or time.perf_counter() - start < args.seconds:
        plain = run_cycle(tally, cycle)
        tr.reset_cycle()
        tr.keep_spans = not per_cycle
        tr.install()
        try:
            traced = run_cycle(tally, cycle, tr)
        finally:
            tr.uninstall()
        metrics = tr.cycle_metrics()
        per_cycle.append(metrics)
        counts.append(tracing.exact_counts(metrics))
        overheads.append(traced - plain)
        op_time.append(sum(t for name, t in tr.busy.items() if name.startswith("op.")))
    final = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            final[name] = statistics.median(overheads)
        elif unit in tracing.COUNT_UNITS:
            final[name] = per_cycle[0][name]
        else:
            final[name] = statistics.median(m[name] for m in per_cycle)
    info = {
        "traced_cycles": len(per_cycle),
        "counts_repeat": all(c == counts[0] for c in counts),
        "op_s_per_cycle": statistics.median(op_time),
        "spans": tr.spans,
    }
    return final, info


# ---------------------------------------------------------------------------
# reporting


def _metric(value, unit):
    return {"value": value, "unit": unit}


def report_common(args, tally, cycle_len, cycles, elapsed, setup_self):
    import ops

    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}",
             f"  cycle of {cycle_len} ops, {cycles} cycles in {elapsed:.2f} s; "
             f"set-up in this process {setup_self:.3f} s",
             f"  ops attempted {tally.attempted}, failed {tally.failed}, "
             f"fail_ratio {tally.failed / tally.attempted:.4f}",
             f"  check.max_err_ratio {tally.max_ratio:.3g} (ops without a known defect; "
             f"pass <= 1)"]
    for defect in ops.DEFECTS:
        if tally.known[defect.name]:
            lines.append(f"  known defect {defect.name}: {tally.known[defect.name]} failed ops "
                         f"with its signature -- {defect.summary}")
    if tally.unexpected:
        lines.append(f"  UNEXPECTED FAILURES {tally.unexpected}, first ones:")
        lines += ["    kind={} value={} reference={} status={}".format(*e) for e in tally.examples]
    lines.append("  per kind: n  failed  p50_s  max_err_ratio")
    for kind, k in sorted(tally.kinds.items()):
        lines.append(f"    {kind:20s} {k['n']:6d} {k['failed']:6d} "
                     f"{statistics.median(k['times']):.3e} {k['max_ratio']:.3g}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import ops
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    refs = ops.load_references()
    cycle = ops.build_cycle(args.workload, args.seed, refs)
    setup_self = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_self}))
        return 0

    tally = Tally(ops)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        start = time.perf_counter()
        metrics_raw, info = run_traced(args, cycle, tally)
        elapsed = time.perf_counter() - start
        import tracer as tracing

        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: _metric(value, units[name]) for name, value in metrics_raw.items()}
        lines = report_common(args, tally, len(cycle), 2 * info["traced_cycles"], elapsed,
                              setup_self)
        total = info["op_s_per_cycle"]
        lines.append(f"  traced cycles {info['traced_cycles']}, exact counts repeat across "
                     f"cycles: {info['counts_repeat']}; op time per traced cycle {total:.4f} s")
        lines.append("  layer busy time per cycle (share of op time; nested layers overlap):")
        for name, value in metrics_raw.items():
            if units[name] == "s" and value:
                lines.append(f"    {name:34s} {value:.4e} s  {value / total:6.1%}")
        with open(RESULTS / f"{args.workload}-seed{args.seed}.spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "self_s"],
                       "spans": [(n, s - start, e - start, p, st)
                                 for n, s, e, p, st in info["spans"]]}, fh)
        extra = {k: v for k, v in info.items() if k != "spans"}
    else:
        cycle_s, elapsed, setups = run_untraced(args, cycle, tally)
        cycles = len(cycle_s)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = tally.times
        best = best_times(times, len(cycle))
        metrics = {
            "ops_per_s": _metric(len(best) / math.fsum(best), "1/s"),
            "op_s_p50": _metric(statistics.median(best), "s"),
            "op_s_p90": _metric(statistics.quantiles(best, n=10, method="inclusive")[-1], "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
        lines = report_common(args, tally, len(cycle), cycles, elapsed, setup_self)
        beyond = sum(t > metrics["op_s_p90"]["value"] for t in best)
        sample = f"{len(best)} ops, each the best of its {cycles} repeats"
        notes = {"ops_per_s": f"({sample})",
                 "op_s_p50": f"({sample})",
                 "op_s_p90": f"({sample}; {beyond} ops beyond)",
                 "setup_s": "(median of " + ", ".join(f"{s:.3f}" for s in setups) + ")"}
        for name, m in metrics.items():
            lines.append(f"  {name:12s} {m['value']:.6g} {m['unit']} {notes.get(name, '')}")
        lines.append(f"  over all {len(times)} op times instead of the best ones: "
                     f"ops_per_s {tally.attempted / math.fsum(cycle_s):.6g}, "
                     f"p50 {statistics.median(times):.6g} s, "
                     f"p90 {statistics.quantiles(times, n=10, method='inclusive')[-1]:.6g} s")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        extra = {"cycles": cycles, "elapsed_s": elapsed, "cycle_s": cycle_s, "op_s": times,
                 "best_op_s": best, "setup_runs_s": setups,
                 "cpu_user_s": usage.ru_utime, "cpu_sys_s": usage.ru_stime,
                 "minor_faults": usage.ru_minflt}

    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    def finite(x):
        return x if math.isfinite(x) else None

    record = {"environment": environment(args), "result": result, "run": extra,
              "max_err_ratio": tally.max_ratio, "known_defects": dict(tally.known),
              "kinds": {k: {"n": v["n"], "failed": v["failed"],
                            "p50_s": statistics.median(v["times"]),
                            "max_err_ratio": finite(v["max_ratio"])}
                        for k, v in sorted(tally.kinds.items())}}
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
