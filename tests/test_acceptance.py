"""Release gate: every criterion at its pinned tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines
(the same report the ``gaussbayes verify`` subcommand prints).
"""

import pytest

from gaussbayes import verify


def _run(criterion):
    result = criterion(verify.DEFAULT_SEED)
    for line in verify.report_lines([result]):
        print(line)
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "; ".join(
        f"{c.label}: measured={c.measured!r} expected={c.expected!r}" for c in failed)
    assert result.elapsed <= result.runtime_budget, (
        f"runtime {result.elapsed:.1f}s over budget {result.runtime_budget:.0f}s")
    return result


def test_criterion_1_displacement_heterodyne():
    _run(verify.criterion_1_displacement_heterodyne)


def test_criterion_2_displacement_homodyne():
    _run(verify.criterion_2_displacement_homodyne)


def test_criterion_3_repetition_law():
    _run(verify.criterion_3_repetition_law)


def test_criterion_4_phase_heterodyne_coherent():
    _run(verify.criterion_4_phase_heterodyne_coherent)


def test_criterion_5_phase_heterodyne_squeezed():
    _run(verify.criterion_5_phase_heterodyne_squeezed)


def test_criterion_6_phase_homodyne():
    result = _run(verify.criterion_6_phase_homodyne)
    # the density duality is two rows on the 25 points: rounding at
    # alpha <= 2 on a tight tolerance, the cancelling series above it
    rows = {c.label.rsplit(" (", 1)[0]: c for c in result.checks if "density" in c.label}
    small = rows["outcome-density series duality at alpha <= 2"]
    large = rows["outcome-density series duality at alpha > 2"]
    assert (small.tolerance, large.tolerance) == (1e-12, 1e-6)
    counts = [int(c.label.rsplit("worst of ", 1)[1].rstrip(")")) for c in (small, large)]
    assert sum(counts) == 25 and min(counts) > 0
    assert small.measured <= small.tolerance / 10.0
    # the moment's Gauss-Legendre oracle leaves the series' own error
    mom = next(c for c in result.checks if c.label.startswith("circular-moment"))
    assert mom.tolerance == 1e-8
    assert mom.measured <= mom.tolerance / 10.0


def test_criterion_7_squeezing():
    _run(verify.criterion_7_squeezing)


def test_criterion_8_invariants():
    _run(verify.criterion_8_invariants)


def test_criterion_9_determinism():
    _run(verify.criterion_9_determinism)
