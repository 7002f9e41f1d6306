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

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import displacement as disp
from . import phase, squeezing
from .bayes import AverageVariance, GaussianPrior, ToleranceError
from .measurement import HETERODYNE, homodyne
from .phase import TruncationError
from .phasespace import ProbeSpec

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

# Cartesian sweep order; also the parameter column order in the CSV.
SWEEP_KEYS = ("alpha", "r", "s", "psi", "r0", "sigma0sq", "n", "m_rounds")

CSV_COLUMNS = ("task",) + SWEEP_KEYS + ("mean_photon", "avg_variance",
                                        "std_error", "method", "status")

# value of each optional sweep key a row leaves out
_DEFAULTS = {"alpha": 0.0, "r": 0.0, "s": 0.0, "psi": 0.0, "r0": 0.0, "m_rounds": 1.0}


@dataclass(frozen=True)
class _Task:
    """What a task accepts and how one of its rows is evaluated.

    ``closed(p, alpha)`` returns an ``AverageVariance``: a closed form
    with ``std_error`` 0, or a Bessel series with its quadrature error;
    ``engine(p, alpha, method=, samples=, rng=)`` returns an
    ``AverageVariance``, or None where the engine does not cover the row.
    ``p`` is the row's parameters over ``_DEFAULTS`` and ``alpha`` the
    probe displacement, resolved from ``n`` when the row gives ``n``.
    """

    keys: frozenset
    squeeze: str  # the sweep key that sets the probe's squeezing
    needs_sigma0sq: bool
    closed: Optional[Callable]
    engine: Callable


def _closed_form(value):
    return AverageVariance(value, 0.0, "closed-form")


def _phase_het_closed(p, alpha):
    if p["r"] == 0.0:
        return _closed_form(phase.coherent_het_average_variance(alpha))
    return phase.squeezed_het_average_variance(alpha, p["r"])


_TASKS = {
    "DisplacementHet": _Task(
        frozenset({"sigma0sq", "r"}), "r", True,
        lambda p, alpha: _closed_form(disp.het_avg_total_variance(p["sigma0sq"], p["r"])),
        lambda p, alpha, **kw: disp.het_avg_total_variance_numeric(p["sigma0sq"], p["r"], **kw)),
    "DisplacementHom": _Task(
        frozenset({"sigma0sq", "r", "m_rounds"}), "r", True,
        lambda p, alpha: _closed_form(disp.repeated_variance(p["sigma0sq"], p["r"],
                                                             int(p["m_rounds"]))),
        # the engine covers single rounds only
        lambda p, alpha, **kw: (disp.hom_avg_variance_q_numeric(p["sigma0sq"], p["r"], **kw)
                                if int(p["m_rounds"]) == 1 else None)),
    "PhaseHet": _Task(
        frozenset({"alpha", "r", "n"}), "r", False, _phase_het_closed,
        lambda p, alpha, **kw: phase.average_variance_numeric(phase.PhaseTask(
            ProbeSpec(alpha, p["r"], math.pi if p["r"] > 0 else 0.0), HETERODYNE), **kw)),
    "PhaseHom": _Task(
        frozenset({"alpha", "r", "psi", "n"}), "r", False, None,
        lambda p, alpha, **kw: phase.average_variance_numeric(phase.PhaseTask(
            ProbeSpec(alpha, p["r"], p["psi"]), homodyne(0.0)), **kw)),
    "Squeeze": _Task(
        frozenset({"alpha", "s", "psi", "r0", "sigma0sq", "n"}), "s", True, None,
        lambda p, alpha, **kw: squeezing.average_variance(squeezing.SqueezeTask(
            ProbeSpec(alpha, p["s"], p["psi"]), GaussianPrior(p["r0"], p["sigma0sq"])), **kw)),
}

TASKS = tuple(_TASKS)


class ConfigError(ValueError):
    """Malformed experiment config; message carries the offending line."""


@dataclass
class ExperimentConfig:
    task: str
    sweep: dict = field(default_factory=dict)
    method: str = "quadrature"
    samples: int = 100_000
    seed: Optional[int] = None
    output: Optional[str] = None
    force_both: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.method not in ("quadrature", "montecarlo"):
            raise ConfigError(f"method must be quadrature or montecarlo, got {self.method!r}")
        if self.method == "montecarlo" and self.seed is None:
            raise ConfigError("montecarlo requires a seed")
        if self.samples < 1:
            raise ConfigError(f"samples must be at least 1, got {self.samples}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if not self.sweep:
            raise ConfigError("sweep must be nonempty")
        spec = _TASKS[self.task]
        for key in self.sweep:
            if key not in spec.keys:
                raise ConfigError(f"parameter {key!r} not valid for task {self.task}")
        if spec.needs_sigma0sq and "sigma0sq" not in self.sweep:
            raise ConfigError(f"task {self.task} needs sigma0sq")
        for key, values in self.sweep.items():
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"parameter {key!r} has a non-finite value")
        if not all(float(v).is_integer() for v in self.sweep.get("m_rounds", ())):
            raise ConfigError("parameter 'm_rounds' takes whole numbers")
        if "alpha" in spec.keys:
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


def _parse_value(text: str) -> list:
    """A scalar, a comma list or a ``start:stop:count`` range, as floats."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range needs start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("range count must be >= 1")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("range bounds must be finite")
        return [float(v) for v in np.linspace(start, stop, count)]
    if "," in text:
        return [float(v) for v in text.split(",")]
    return [float(text)]


def _integer(low: int):
    """Converter of an integer field: the first value given, a whole
    number of at least ``low`` (2.7 is an error, not 2)."""
    def convert(text: str) -> int:
        value = _parse_value(text)[0]
        if not value.is_integer():
            raise ValueError("must be a whole number")
        if value < low:
            raise ValueError(f"must be at least {low}")
        return int(value)
    return convert


# one converter per non-sweep key: text -> field value
_FIELDS = {
    "task": str,
    "method": str.lower,
    "samples": _integer(1),
    "seed": _integer(0),
    "output": str,
    "force_both": lambda text: text.lower() in ("1", "true", "yes"),
}


def parse_config(text: str, path: str = "<config>",
                 overrides: Optional[dict] = None) -> ExperimentConfig:
    """The config of ``text``, with ``overrides`` (field -> value) applied
    before it is built, so its checks see the merged fields."""
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
        if key not in SWEEP_KEYS and key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in SWEEP_KEYS:
                sweep[key] = _parse_value(value)
            else:
                fields[key] = _FIELDS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value {key} = {value!r} ({exc})") from None
    if "task" not in fields:
        raise ConfigError(f"{path}: missing required key 'task'")
    fields.update(overrides or {})
    try:
        return ExperimentConfig(sweep=sweep, **fields)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), str(path), overrides)


# ---------------------------------------------------------------------------
# row evaluation


def _resolve_alpha(p: dict, squeeze_key: str):
    """alpha from n at fixed squeezing (infeasible when n < sinh^2)."""
    if "n" not in p:
        return float(p["alpha"])
    floor = math.sinh(p[squeeze_key]) ** 2
    rest = p["n"] - floor
    if rest < -1e-12:
        raise ValueError(f"n={p['n']} below the squeezing energy {floor:.6g}")
    return math.sqrt(max(rest, 0.0))


def _evaluate_row(task, params, config, row_index) -> ResultRecord:
    t0 = time.perf_counter()
    rng = None
    if config.seed is not None:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, row_index)))
    spec = _TASKS[task]
    p = {**_DEFAULTS, **params}
    engine_args = dict(method=config.method, samples=config.samples, rng=rng)
    status = "ok"
    try:
        alpha = _resolve_alpha(p, spec.squeeze)
        if spec.closed is not None:
            res = spec.closed(p, alpha)
            if config.force_both:
                try:
                    engine = spec.engine(p, alpha, **engine_args)
                except (ToleranceError, TruncationError) as exc:
                    engine = None
                    status = f"cross-check-error:{type(exc).__name__}"
                if engine is not None:
                    gap = abs(engine.value - res.value)
                    tol = max(1e-6 * max(abs(res.value), 1e-12), 4.0 * engine.std_error,
                              res.std_error)
                    if gap > tol:
                        status = f"cross-check-failed:engine={format_value(engine.value)}"
        else:
            res = spec.engine(p, alpha, **engine_args)
        value, err, tag = res.value, res.std_error, res.method
        photon = p["n"] if "n" in p else alpha ** 2 + math.sinh(p[spec.squeeze]) ** 2
    except (ToleranceError, TruncationError, ValueError) as exc:
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
    rows = itertools.product(*(config.sweep[k] for k in keys))
    return [_evaluate_row(config.task, dict(zip(keys, values)), config, row)
            for row, values in enumerate(rows)]


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
