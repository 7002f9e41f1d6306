"""Regenerate perfbench/reference.json, the stored references of the
benchmark's engine rows.

    python3 perfbench/make_reference.py

Each row's reference is a high-resolution engine value: a finer prior
grid, a wider prior truncation where the task exposes one, and a tighter
step-halving tolerance than the rows under test use.  Rows that have a
closed form (displacement, coherent-probe heterodyne phase) are not stored;
the benchmark evaluates their closed forms at set-up.  Takes a few minutes
on one core.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gaussbayes import bayes, phase, squeezing as sq  # noqa: E402
from gaussbayes.bayes import GaussianPrior  # noqa: E402
from gaussbayes.measurement import homodyne  # noqa: E402
from gaussbayes.phasespace import ProbeSpec  # noqa: E402

import ops  # noqa: E402

METHODS = {
    "phasehom": "phase.average_variance_numeric with 16384 prior nodes and rel_tol=1e-10",
    "squeeze": "squeezing.average_variance with 8001 prior nodes, prior truncated at "
               "9 sigma (rows use 6) and rel_tol=1e-10",
    "phasehet": "bayes.average_posterior_variance on HeterodynePhaseStrategy(base_radial=512) "
                "with 4096 prior nodes, rel_tol=1e-8 and max_level=6",
}


def reference(family, row):
    if family == "phasehom":
        alpha = math.sqrt(row["n"] - math.sinh(row["r"]) ** 2)
        task = phase.PhaseTask(ProbeSpec(alpha, row["r"], row["psi"]), homodyne())
        return phase.average_variance_numeric(task, grid_nodes=16384, rel_tol=1e-10).value
    if family == "squeeze":
        alpha = math.sqrt(row["n"] - math.sinh(row["s"]) ** 2)
        task = sq.SqueezeTask(ProbeSpec(alpha, row["s"], 0.0),
                              GaussianPrior(ops.SQUEEZE_R0, ops.SQUEEZE_SIGMA0SQ),
                              grid_nodes=8001, span_sigmas=9.0)
        return sq.average_variance(task, rel_tol=1e-10).value
    strategy = phase.HeterodynePhaseStrategy(row["alpha"], row["r"], base_radial=512)
    prior = phase.flat_prior(phase.HET_SUPPORT, 4096)
    return bayes.average_posterior_variance(strategy, prior, rel_tol=1e-8, max_level=6).value


def main():
    values = {}
    for key, (family, row) in sorted(ops.required_references().items()):
        values[key] = reference(family, row)
        print(f"{key} = {values[key]!r}", flush=True)
    doc = {"command": "python3 perfbench/make_reference.py", "method": METHODS, "values": values}
    with open(ops.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
