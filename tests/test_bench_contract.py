"""The benchmark's tracer binds public names of the package by attribute.

``perfbench/tracer.py`` wraps functions and methods of the gaussbayes
modules and puts the originals back.  Installing and removing it here
fails fast when a refactor drops or renames a name it binds.
"""

import sys
from pathlib import Path

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
