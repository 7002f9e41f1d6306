"""The benchmark binds public names of the package by attribute.

``perfbench/tracer.py`` wraps functions and methods of the gaussbayes
modules and puts the originals back.  Installing and removing it here
fails fast when a refactor drops or renames a name it binds.
``perfbench/make_reference.py`` calls the engine on a ``GridDistribution``
and sets ``HeterodynePhaseStrategy(base_radial=...)``; one of its stored
rows is recomputed here.  The ``montecarlo`` workload's PhaseHet ops are
the rows whose draws skip theta; one cycle of it is run here.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from gaussbayes import (bayes, displacement, harness, measurement, phase, phasespace,
                        specfun, squeezing)

MODULES = (bayes, displacement, harness, measurement, phase, phasespace, specfun, squeezing)


def _bindings():
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for module in MODULES:
        out[module.__name__] = dict(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__.startswith("gaussbayes"):
                out[f"{module.__name__}.{name}"] = dict(vars(value))
    return out


def test_tracer_installs_and_restores_every_binding():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = [(owner, attr) for owner, attr, _, _ in tr._patches]
        assert patched
        assert all(getattr(owner, attr).__wrapped__ is not None for owner, attr in patched)
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr}"


def test_reference_script_reproduces_a_stored_row(monkeypatch):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    # the script puts its directories on sys.path and sets BLAS thread
    # counts at import; monkeypatch undoes both
    monkeypatch.syspath_prepend(str(perfbench))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    import make_reference
    import ops
    key = "phasehet(alpha=1.0,r=0.25)"
    family, row = ops.required_references()[key]
    with open(perfbench / "reference.json", encoding="utf-8") as fh:
        stored = json.load(fh)["values"][key]
    assert make_reference.reference(family, row) == pytest.approx(stored, rel=1e-12)


def test_montecarlo_phasehet_ops_draw_no_theta(monkeypatch):
    # every PhaseHet op of a montecarlo cycle folds on every count, so it
    # draws no theta from a grid; every Squeeze op draws its theta
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import ops
    drawn = []
    sample = bayes.GridDistribution.sample
    monkeypatch.setattr(bayes.GridDistribution, "sample",
                        lambda *args: drawn.append(1) or sample(*args))
    theta_draws = {}
    for op in ops.build_cycle("montecarlo", 5, ops.load_references()):
        drawn.clear()
        assert ops.err_ratio(op, *op.call()) <= 1.0, op.kind
        theta_draws.setdefault(op.kind, []).append(len(drawn))
    assert set(theta_draws) == {"mc_phasehet", "mc_phasehet_full", "mc_squeeze",
                                "mc_squeeze_harness"}
    for kind, counts in theta_draws.items():
        if kind.startswith("mc_phasehet"):
            assert not any(counts), kind
        else:
            assert all(counts), kind
