"""Experiment harness: declarative sweep configs, deterministic seeding,
CSV emission.

Config files are flat ``key = value`` text; values are scalars, comma
lists, or ``start:stop:count`` ranges.  Rows are the Cartesian product of
the swept keys in a fixed documented order, each evaluated with its own
generator spawned from ``SeedSequence((seed, row_index))`` so row-level
parallelism cannot change results.  Closed-form fast paths are used where
they exist; ``force_both`` additionally runs the configured engine on such
rows and records a cross-check failure in the status column when the two
disagree.

Wall-clock timings stay on the in-memory records only: the CSV is kept
byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import displacement as disp
from . import phase, squeezing
from .bayes import GaussianPrior, ToleranceError
from .measurement import HETERODYNE, homodyne
from .phasespace import ProbeSpec
from .specfun import RangeError, TruncationError

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "TASKS",
    "SWEEP_KEYS",
    "CSV_COLUMNS",
    "parse_config",
    "load_config",
    "run",
    "write_csv",
    "format_value",
]

TASKS = ("DisplacementHet", "DisplacementHom", "PhaseHet", "PhaseHom", "Squeeze")

# Cartesian sweep order; also the parameter column order in the CSV.
SWEEP_KEYS = ("alpha", "r", "s", "psi", "r0", "sigma0sq", "n", "m_rounds")

CSV_COLUMNS = ("task",) + SWEEP_KEYS + ("mean_photon", "avg_variance",
                                        "std_error", "method", "status")

_REQUIRED = {
    "DisplacementHet": {"sigma0sq"},
    "DisplacementHom": {"sigma0sq"},
    "PhaseHet": set(),   # alpha or n, checked separately
    "PhaseHom": set(),
    "Squeeze": {"sigma0sq"},
}
_ALLOWED = {
    "DisplacementHet": {"sigma0sq", "r"},
    "DisplacementHom": {"sigma0sq", "r", "m_rounds"},
    "PhaseHet": {"alpha", "r", "n"},
    "PhaseHom": {"alpha", "r", "psi", "n"},
    "Squeeze": {"alpha", "s", "psi", "r0", "sigma0sq", "n"},
}


class ConfigError(ValueError):
    """Malformed experiment config; message carries the offending line."""


@dataclass
class ExperimentConfig:
    task: str
    sweep: dict = field(default_factory=dict)
    method: str = "quadrature"
    samples: int = 100_000
    seed: Optional[int] = None
    trunc_n: Optional[int] = None
    tail_tol: float = 1e-10
    output: Optional[str] = None
    force_both: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.method not in ("quadrature", "montecarlo"):
            raise ConfigError(f"method must be quadrature or montecarlo, got {self.method!r}")
        if self.method == "montecarlo" and self.seed is None:
            raise ConfigError("montecarlo requires a seed")
        if not self.sweep:
            raise ConfigError("sweep must be nonempty")
        allowed = _ALLOWED[self.task]
        for key in self.sweep:
            if key not in allowed:
                raise ConfigError(f"parameter {key!r} not valid for task {self.task}")
        missing = _REQUIRED[self.task] - set(self.sweep)
        if missing:
            raise ConfigError(f"task {self.task} needs parameters {sorted(missing)}")
        if self.task.startswith("Phase") or self.task == "Squeeze":
            if "alpha" in self.sweep and "n" in self.sweep:
                raise ConfigError("give either alpha or n, not both")
            if "alpha" not in self.sweep and "n" not in self.sweep:
                raise ConfigError(f"task {self.task} needs alpha or n")


@dataclass
class ResultRecord:
    task: str
    params: dict
    mean_photon: float
    avg_variance: float
    std_error: float
    method: str
    status: str = "ok"
    wall_time: float = 0.0


def _parse_value(text: str, path: str, lineno: int):
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range needs start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("range count must be >= 1")
            return [float(v) for v in np.linspace(start, stop, count)]
        if "," in text:
            return [float(v) for v in text.split(",")]
        return [float(text)]
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value {text!r} ({exc})") from None


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    fields = {}
    sweep = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in SWEEP_KEYS:
            sweep[key] = _parse_value(value, path, lineno)
        elif key == "task":
            fields["task"] = value
        elif key == "method":
            fields["method"] = value.lower()
        elif key == "samples":
            fields["samples"] = int(_parse_value(value, path, lineno)[0])
        elif key == "seed":
            fields["seed"] = int(_parse_value(value, path, lineno)[0])
        elif key == "trunc_n":
            fields["trunc_n"] = int(_parse_value(value, path, lineno)[0])
        elif key == "tail_tol":
            fields["tail_tol"] = _parse_value(value, path, lineno)[0]
        elif key == "output":
            fields["output"] = value
        elif key == "force_both":
            fields["force_both"] = value.lower() in ("1", "true", "yes")
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if "task" not in fields:
        raise ConfigError(f"{path}: missing required key 'task'")
    try:
        return ExperimentConfig(sweep=sweep, **fields)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), str(path))


# ---------------------------------------------------------------------------
# row evaluation


def _truncation(config: ExperimentConfig):
    if config.trunc_n is None:
        return None
    return phase.SeriesTruncation(config.trunc_n, config.tail_tol)


def _resolve_alpha(params: dict, squeeze_key: str):
    """alpha from n at fixed squeezing (infeasible when n < sinh^2)."""
    if "n" not in params:
        return float(params.get("alpha", 0.0))
    floor = math.sinh(params.get(squeeze_key, 0.0)) ** 2
    rest = params["n"] - floor
    if rest < -1e-12:
        raise ValueError(f"n={params['n']} below the squeezing energy {floor:.6g}")
    return math.sqrt(max(rest, 0.0))


def _engine_phase_task(task: str, params: dict) -> phase.PhaseTask:
    if task == "PhaseHet":
        alpha = _resolve_alpha(params, "r")
        probe = ProbeSpec(alpha, params.get("r", 0.0), math.pi if params.get("r", 0.0) > 0 else 0.0)
        return phase.PhaseTask(probe, HETERODYNE)
    alpha = _resolve_alpha(params, "r")
    probe = ProbeSpec(alpha, params.get("r", 0.0), params.get("psi", 0.0))
    return phase.PhaseTask(probe, homodyne(0.0))


def _closed_form(task: str, params: dict, config: ExperimentConfig):
    """(value, method_tag) or None when no deterministic fast path exists."""
    if task == "DisplacementHet":
        return disp.het_avg_total_variance(params["sigma0sq"], params.get("r", 0.0)), "closed-form"
    if task == "DisplacementHom":
        m = int(params.get("m_rounds", 1))
        return disp.repeated_variance(params["sigma0sq"], params.get("r", 0.0), m), "closed-form"
    if task == "PhaseHet":
        alpha = _resolve_alpha(params, "r")
        r = params.get("r", 0.0)
        if r == 0.0:
            return phase.coherent_het_average_variance(alpha), "closed-form"
        value = phase.squeezed_het_average_variance(alpha, r, trunc=_truncation(config))
        return value, "series"
    return None


def _engine_value(task: str, params: dict, config: ExperimentConfig,
                  rng: Optional[np.random.Generator]):
    method = config.method
    if task == "DisplacementHet":
        return disp.het_avg_total_variance_numeric(
            params["sigma0sq"], params.get("r", 0.0), method=method,
            samples=config.samples, rng=rng)
    if task == "DisplacementHom":
        if int(params.get("m_rounds", 1)) != 1:
            return None  # engine path covers single rounds only
        return disp.hom_avg_variance_q_numeric(
            params["sigma0sq"], params.get("r", 0.0), method=method,
            samples=config.samples, rng=rng)
    if task in ("PhaseHet", "PhaseHom"):
        ptask = _engine_phase_task(task, params)
        return phase.average_variance_numeric(ptask, method=method,
                                              samples=config.samples, rng=rng)
    if task == "Squeeze":
        alpha = _resolve_alpha(params, "s")
        probe = ProbeSpec(alpha, params.get("s", 0.0), params.get("psi", 0.0))
        prior = GaussianPrior(params.get("r0", 0.0), params["sigma0sq"])
        stask = squeezing.SqueezeTask(probe, prior)
        return squeezing.average_variance(stask, method=method,
                                          samples=config.samples, rng=rng)
    raise ValueError(f"unknown task {task!r}")


def _mean_photon(task: str, params: dict) -> float:
    if task.startswith("Displacement"):
        return math.sinh(params.get("r", 0.0)) ** 2
    if "n" in params:
        return params["n"]
    key = "s" if task == "Squeeze" else "r"
    return params.get("alpha", 0.0) ** 2 + math.sinh(params.get(key, 0.0)) ** 2


def _evaluate_row(task, params, config, row_index) -> ResultRecord:
    t0 = time.perf_counter()
    rng = None
    if config.seed is not None:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, row_index)))
    status = "ok"
    try:
        closed = _closed_form(task, params, config)
        if closed is not None:
            value, tag = closed
            err = 0.0
            if config.force_both:
                try:
                    engine = _engine_value(task, params, config, rng)
                except (ToleranceError, TruncationError) as exc:
                    engine = None
                    status = f"cross-check-error:{type(exc).__name__}"
                if engine is not None:
                    gap = abs(engine.value - value)
                    tol = max(1e-6 * max(abs(value), 1e-12), 4.0 * engine.std_error)
                    if gap > tol:
                        status = f"cross-check-failed:engine={format_value(engine.value)}"
        else:
            engine = _engine_value(task, params, config, rng)
            value, err, tag = engine.value, engine.std_error, engine.method
        photon = _mean_photon(task, params)
    except (ToleranceError, TruncationError, RangeError, ValueError) as exc:
        estimate = getattr(exc, "estimate", None)
        value = math.nan if estimate is None else float(estimate)
        err = math.nan
        tag = config.method
        photon = math.nan
        status = f"error:{type(exc).__name__}:{exc}"
    return ResultRecord(task, dict(params), photon, value, err, tag, status,
                        time.perf_counter() - t0)


def run(config: ExperimentConfig) -> list[ResultRecord]:
    """Evaluate the full Cartesian sweep; deterministic given the seed.

    Failures are recorded per row in the status column and the run
    continues.
    """
    keys = [k for k in SWEEP_KEYS if k in config.sweep]
    grids = [config.sweep[k] for k in keys]
    records = []
    total = 1
    for g in grids:
        total *= len(g)
    for row in range(total):
        rem = row
        params = {}
        for pos in range(len(keys) - 1, -1, -1):
            params[keys[pos]] = grids[pos][rem % len(grids[pos])]
            rem //= len(grids[pos])
        records.append(_evaluate_row(config.task, params, config, row))
    return records


# ---------------------------------------------------------------------------
# CSV emission


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(records, path) -> None:
    """Fixed column order, header always present, LF line endings, floats
    at 17 significant digits; timings are deliberately not serialized."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        row = [rec.task]
        for key in SWEEP_KEYS:
            if key in rec.params:
                if key == "m_rounds":
                    row.append(str(int(rec.params[key])))
                else:
                    row.append(format_value(rec.params[key]))
            else:
                row.append("")
        row.extend([format_value(rec.mean_photon), format_value(rec.avg_variance),
                    format_value(rec.std_error), rec.method, rec.status])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
