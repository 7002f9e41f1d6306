"""The runtime dependency stays numpy only.

The tests lean on scipy, hypothesis and mpmath as oracles, so an import of
one of them could creep into the package unnoticed.  A subprocess with
those modules made unimportable imports every package module and runs
the fast verify suite and the Bessel-based phase results.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib
import pkgutil
import sys

for name in ("scipy", "hypothesis", "mpmath", "pytest"):
    sys.modules[name] = None  # importing a None entry raises ImportError

import gaussbayes
for info in pkgutil.iter_modules(gaussbayes.__path__):
    importlib.import_module("gaussbayes." + info.name)

from gaussbayes import cli, phase
assert cli.main(["verify", "--suite", "fast"]) == 0
assert 0.0 < phase.squeezed_het_average_variance(1.0, 0.5).value < 0.5
assert 0.0 < phase.coherent_het_posterior_variance(1.0, 1.0) < 0.5
"""


def test_package_runs_without_test_only_modules():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
