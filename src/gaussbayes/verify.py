"""Release-gate checks behind the ``verify`` CLI subcommand.

Each criterion bundles a handful of named checks with pinned tolerances
and returns the measured numbers, so failures are diagnosable from the
report alone.  The same functions back ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import bayes, displacement as disp, harness, measurement as meas
from . import phase, phasespace as ps, squeezing as sq
from .bayes import GammaPrior, GaussianPrior, GridDistribution
from .measurement import HETERODYNE, homodyne
from .phasespace import ProbeSpec

__all__ = ["Check", "CriterionResult", "run_suite", "report_lines", "report_csv_lines",
           "DEFAULT_SEED", "CRITERIA"]

DEFAULT_SEED = 20260810

# double-precision floor for comparisons whose statistical error is zero
_EPS_FLOOR = 1e-12


@dataclass
class Check:
    label: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class CriterionResult:
    name: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0
    runtime_budget: float = math.inf

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and self.elapsed <= self.runtime_budget


def _close(result: CriterionResult, label, measured, expected, tol, note=""):
    ok = abs(measured - expected) <= tol
    result.checks.append(Check(label, float(measured), float(expected), float(tol), ok, note))
    return ok


def _true(result: CriterionResult, label, condition, measured, expected, note=""):
    result.checks.append(Check(label, float(measured), float(expected), math.nan,
                               bool(condition), note))
    return condition


def _rng(seed, *lane):
    return np.random.default_rng(np.random.SeedSequence((seed,) + lane))


# ---------------------------------------------------------------------------


def criterion_1_displacement_heterodyne(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("1 displacement/heterodyne closed form", runtime_budget=30.0)
    t0 = time.perf_counter()
    closed = disp.het_avg_total_variance(0.25, 0.0)
    _close(res, "closed form equals 1/3", closed, 1.0 / 3.0, 1e-15)
    quad = disp.het_avg_total_variance_numeric(0.25, 0.0)
    _close(res, "grid+quadrature engine", quad.value, closed, 1e-6)
    mc = disp.het_avg_total_variance_numeric(0.25, 0.0, method="montecarlo",
                                             samples=100_000, rng=_rng(seed, 1, 0))
    _close(res, "Monte Carlo within 4 SE", mc.value, closed,
           4.0 * mc.std_error + _EPS_FLOOR, note=f"se={mc.std_error:.2e}")
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_2_displacement_homodyne(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("2 displacement/homodyne saturation", runtime_budget=10.0)
    t0 = time.perf_counter()
    closed = disp.hom_avg_variance_q(1.0, 0.0)
    _close(res, "closed form equals 0.2", closed, 0.2, 1e-15)
    _close(res, "equals the Van Trees bound", closed,
           bayes.van_trees_bound(1.0, 4.0), 1e-15)
    quad = disp.hom_avg_variance_q_numeric(1.0, 0.0)
    _close(res, "engine agreement", quad.value, closed, 1e-6)
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_3_repetition_law(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("3 repeated-measurement recursion", runtime_budget=1.0)
    t0 = time.perf_counter()
    prior = GaussianPrior(0.0, 1.0)
    like_var = 0.25  # e^{-2r}/4 at r=0
    for _ in range(3):
        prior = bayes.gaussian_update(prior, 0.0, like_var)
    _close(res, "three chained updates equal 1/13", prior.var0, 1.0 / 13.0, 1e-15)
    _close(res, "closed recursion solution", disp.repeated_variance(1.0, 0.0, 3),
           1.0 / 13.0, 1e-15)
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_4_phase_heterodyne_coherent(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("4 phase/heterodyne coherent probe", runtime_budget=120.0)
    t0 = time.perf_counter()
    for k, a2 in enumerate((0.5, 1.0, 2.0, 5.0)):
        alpha = math.sqrt(a2)
        closed = phase.coherent_het_average_variance(alpha)
        formula = -math.expm1(-a2) / (2.0 * a2)
        _close(res, f"closed form at alpha^2={a2}", closed, formula, 1e-15)
        task = phase.PhaseTask(ProbeSpec(alpha), HETERODYNE)
        mc = phase.average_variance_numeric(task, method="montecarlo",
                                            samples=100_000, rng=_rng(seed, 4, k))
        _close(res, f"Monte Carlo within 4 SE at alpha^2={a2}", mc.value, closed,
               4.0 * mc.std_error + _EPS_FLOOR, note=f"se={mc.std_error:.2e}")
    _close(res, "alpha->0 limit", phase.coherent_het_average_variance(1e-6), 0.5, 1e-9)
    v10 = phase.coherent_het_average_variance(math.sqrt(10.0))
    _close(res, "alpha^2=10 within 0.1% of 1/(2n)", v10, 1.0 / 20.0, 1e-3 * (1.0 / 20.0))
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_5_phase_heterodyne_squeezed(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("5 phase/heterodyne squeezed series", runtime_budget=600.0)
    t0 = time.perf_counter()
    for alpha in (0.5, 1.0, 2.0):
        _close(res, f"r=0 reduction at alpha={alpha}",
               phase.squeezed_het_average_variance(alpha, 0.0).value,
               phase.coherent_het_average_variance(alpha), 1e-6)
    series = phase.squeezed_het_average_variance(1.0, 0.25).value
    oracle = phase.average_variance_numeric(
        phase.PhaseTask(ProbeSpec(1.0, 0.25, math.pi), HETERODYNE))
    _close(res, "series vs grid-quadrature oracle at (1, 0.25)",
           series, oracle.value, oracle.std_error + _EPS_FLOOR,
           note=f"se={oracle.std_error:.2e}")

    def gap(n, r):
        alpha = math.sqrt(n - math.sinh(r) ** 2)
        return (phase.squeezed_het_average_variance(alpha, r).value
                - phase.coherent_het_average_variance(math.sqrt(n)))

    for n in (3.0, 4.0):
        _true(res, f"r=1.25 worse than coherent at n={n}", gap(n, 1.25) > 0,
              gap(n, 1.25), 0.0, note="positive gap expected")
    lo, hi = 1.2, 1.7
    glo, ghi = gap(lo, 0.75), gap(hi, 0.75)
    if glo < 0 < ghi:
        for _ in range(5):
            mid = 0.5 * (lo + hi)
            if gap(mid, 0.75) < 0:
                lo = mid
            else:
                hi = mid
        crossover = 0.5 * (lo + hi)
    else:
        crossover = math.nan
    _close(res, "r=0.75 crossover near n=1.41", crossover, 1.41, 0.1,
           note=f"bracket [{lo:.3f}, {hi:.3f}]")
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_6_phase_homodyne(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("6 phase/homodyne", runtime_budget=900.0)
    t0 = time.perf_counter()
    vac = phase.average_variance_numeric(phase.PhaseTask(ProbeSpec(0.0), homodyne()))
    _close(res, "vacuum probe average variance 1/2", vac.value, 0.5, 1e-6)

    for n in (0.5, 1.0, 2.0, 4.0):
        alpha = math.sqrt(n)
        hom = phase.average_variance_numeric(phase.PhaseTask(ProbeSpec(alpha), homodyne()))
        het = phase.coherent_het_average_variance(alpha)
        _true(res, f"homodyne <= heterodyne at n={n}", hom.value <= het + 1e-9,
              hom.value, het)

    r = 0.5
    for n in (1.0, 2.0, 4.0):
        coh = phase.average_variance_numeric(
            phase.PhaseTask(ProbeSpec(math.sqrt(n)), homodyne())).value
        alpha = math.sqrt(n - math.sinh(r) ** 2)
        for psi in (0.0, math.pi / 2.0, math.pi):
            v = phase.average_variance_numeric(
                phase.PhaseTask(ProbeSpec(alpha, r, psi), homodyne())).value
            _true(res, f"squeezed probe not better at n={n}, psi={psi:.2f}",
                  v >= coh - 1e-9, v, coh)

    # series-vs-quadrature duality on 25 seeded points.  The density
    # series cancels more as alpha grows, so its error is reported apart
    # at alpha = 2: below, it is rounding of the size of the oracle's own
    # (2.2e-14 at the default seed, 1.5e-13 seen on random points); above,
    # the cancellation's rounding reaches 3.3e-9, and any reshuffle of the
    # Bessel rows or of the summation order moves it by O(1).  The density
    # oracle is the midpoint rule on [0, pi), spectral for an integrand of
    # cos theta; the moment's e^{i theta} makes its integrand non-periodic
    # there, where the midpoint rule is second order (1.9e-8 at 8192
    # nodes), so its oracle is Gauss-Legendre (3.4e-10 at 256-2048 nodes)
    rng = _rng(seed, 6, 0)
    pq_err, worst_mom = {True: [], False: []}, 0.0
    thetas = (np.arange(8192) + 0.5) * math.pi / 8192
    t_gl, w_gl = bayes.gauss_legendre(0.0, math.pi, 512)
    for _ in range(25):
        alpha = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(-6.0, 6.0))
        like = phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, q, thetas)
        pq_oracle = float(like.mean())
        pq = phase.coherent_hom_outcome_density(alpha, q)
        pq_err[alpha <= 2.0].append(abs(pq - pq_oracle) / pq_oracle)
        wl = w_gl * phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, q, t_gl)
        mom_oracle = complex(wl @ np.exp(1j * t_gl) / wl.sum())
        mom = phase.coherent_hom_circular_moment(alpha, q)
        worst_mom = max(worst_mom, abs(mom - mom_oracle))
    for small, tol in ((True, 1e-12), (False, 1e-6)):
        errs = pq_err[small]
        _close(res, f"outcome-density series duality at alpha {'<=' if small else '>'} 2 "
               f"(worst of {len(errs)})", max(errs, default=0.0), 0.0, tol)
    _close(res, "circular-moment series duality (worst of 25)", worst_mom, 0.0, 1e-8)
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_7_squeezing(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("7 squeezing estimation", runtime_budget=900.0)
    t0 = time.perf_counter()

    gp = GammaPrior(1.2, 0.8)
    qs = [0.4, -1.1, 0.7]
    chained = gp
    for q in qs:
        chained = bayes.gamma_update(chained, [q])
    batched = bayes.gamma_update(gp, qs)
    _true(res, "gamma chain equals batch", chained == batched,
          chained.a, batched.a, note=f"b: {chained.b} vs {batched.b}")

    grid = sq.gamma_prior_r_grid(GammaPrior(2.0, 1.0), -3.0, 3.0, 4001)
    vac_task = sq.SqueezeTask(ProbeSpec(0.0), GaussianPrior(0.0, 1.0))
    post = sq.posterior(vac_task, 0.7, prior_grid=grid)
    closed = sq.gamma_density_over_r(bayes.gamma_update(GammaPrior(2.0, 1.0), [0.7]),
                                     post.nodes)
    _close(res, "grid vs Gamma posterior (pointwise)",
           float(np.max(np.abs(post.density - closed))), 0.0, 1e-4)

    prior = GaussianPrior(-0.5, 1.0)
    worst_margin = math.inf
    for j, s in enumerate((0.0, 0.5, 1.0, 1.5)):
        for k, n in enumerate((0.5, 1.0, 2.0, 3.0, 4.0)):
            if n < math.sinh(s) ** 2:
                continue
            alpha = math.sqrt(n - math.sinh(s) ** 2)
            task = sq.SqueezeTask(ProbeSpec(alpha, s, 0.0), prior)
            mc = sq.average_variance(task, method="montecarlo", samples=20_000,
                                     rng=_rng(seed, 7, j, k))
            bound = sq.van_trees_bound(n, 1.0)
            worst_margin = min(worst_margin, mc.value - (bound - 3.0 * mc.std_error))
    _true(res, "Van Trees never violated on the scan", worst_margin >= 0.0,
          worst_margin, 0.0, note="min of value - (bound - 3 SE)")

    for n in (1.0, 2.0):
        if math.sinh(1.0) ** 2 > n:
            _true(res, f"s=1 vs s=0 at n={n}", True, math.nan, math.nan,
                  note="s=1 probe infeasible: sinh^2(1)=1.381 exceeds n; "
                       "no such state exists (ordering vacuous at this point)")
            continue
        v0 = sq.average_variance(sq.SqueezeTask(ProbeSpec(math.sqrt(n), 0.0, 0.0), prior)).value
        v1 = sq.average_variance(sq.SqueezeTask(
            ProbeSpec(math.sqrt(n - math.sinh(1.0) ** 2), 1.0, 0.0), prior)).value
        _true(res, f"s=1 beats s=0 at n={n}", v1 < v0, v1, v0)

    # split n = alpha^2 + sinh^2 s = 1/4 between displacement and squeezing
    split = harness.run(harness.parse_config("\n".join([
        "task = Squeeze", "r0 = -0.5", "sigma0sq = 1.0", "n = 0.25",
        f"s = 0:{math.asinh(0.5)!r}:16"])))
    rows_ok = all(rec.status == "ok" for rec in split)
    best = min(rec.avg_variance for rec in split)
    endpoints = (split[0].avg_variance, split[-1].avg_variance)
    _true(res, "energy-split minimum <= pure-displacement endpoint",
          rows_ok and best <= endpoints[0] + 1e-12, best, endpoints[0])
    _true(res, "energy-split minimum <= pure-squeezing endpoint",
          rows_ok and best <= endpoints[1] + 1e-12, best, endpoints[1])
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_8_invariants(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("8 invariant suites", runtime_budget=300.0)
    t0 = time.perf_counter()
    rng = _rng(seed, 8, 0)

    # purity preservation under random Gaussian-unitary words
    worst = 0.0
    for _ in range(20):
        st = ps.vacuum()
        for _ in range(6):
            op = rng.integers(3)
            if op == 0:
                st = ps.displace(st, complex(rng.standard_normal(), rng.standard_normal()))
            elif op == 1:
                st = ps.squeeze(st, rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
            else:
                st = ps.rotate(st, rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(float(np.linalg.det(st.cov)) - 0.25))
    _close(res, "purity preserved under unitary words", worst, 0.0, 1e-12)

    # Wigner normalization on a random pure state over a 12-sigma box
    st = ps.displace(ps.squeeze(ps.vacuum(), 0.8, 1.1), 0.7 - 0.4j)
    sd = math.sqrt(float(np.max(np.diag(st.cov))))
    ax = np.linspace(-12 * sd, 12 * sd, 801)
    qgrid = st.mean[0] + ax
    pgrid = st.mean[1] + ax
    pts = np.stack(np.meshgrid(qgrid, pgrid, indexing="ij"), axis=-1)
    w = ps.wigner(st, pts)
    hq = qgrid[1] - qgrid[0]
    _close(res, "Wigner integrates to 1", float(w.sum() * hq * hq), 1.0, 1e-6)

    # measurement-density normalizations (full polar grid; this state is
    # displaced off the origin so there is no angular symmetry to exploit)
    rho = np.linspace(0.0, 12.0, 1501)
    ang = np.linspace(-math.pi, math.pi, 129)[:-1]
    units = np.array([complex(math.cos(a), math.sin(a)) for a in ang])
    vals = meas.heterodyne_density(st, units[:, None] * rho).sum(axis=0)
    total = float(np.trapezoid(vals * rho, rho) * (2 * math.pi / ang.size))
    _close(res, "heterodyne density normalization", total, 1.0, 1e-5)
    qs = np.linspace(st.mean[0] - 10, st.mean[0] + 10, 4001)
    _close(res, "homodyne density normalization",
           float(np.trapezoid(meas.homodyne_density(st, qs), qs)), 1.0, 1e-8)

    # Bessel parity and recurrence spot grid
    from . import specfun
    worst_par, worst_rec = 0.0, 0.0
    for n in range(-20, 21, 5):
        for x in np.linspace(-30, 30, 13):
            a = specfun.bessel_i(n, float(x))
            b = (-1.0) ** n * specfun.bessel_i(n, float(-x))
            worst_par = max(worst_par, abs(a - b) / max(abs(a), 1e-300))
    for n in range(1, 16, 3):
        for x in np.linspace(0.1, 30.0, 9):
            lhs = specfun.bessel_i(n - 1, float(x)) - specfun.bessel_i(n + 1, float(x))
            rhs = 2.0 * n / float(x) * specfun.bessel_i(n, float(x))
            worst_rec = max(worst_rec, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    _close(res, "Bessel parity identity", worst_par, 0.0, 1e-10)
    _close(res, "Bessel recurrence identity", worst_rec, 0.0, 1e-8)

    # conjugacy closure on the grid
    prior = GaussianPrior(0.3, 0.25)
    grid = GridDistribution.from_gaussian(prior, 4001)
    like = lambda t, m: bayes.gaussian_outcome_density(m, t, 0.5)
    post = bayes.grid_update(grid, like, 1.0)
    exact = bayes.gaussian_update(prior, 1.0, 0.5)
    mean = bayes.mean_estimator(post)
    _close(res, "conjugacy closure (mean)", mean, exact.mu0, 1e-6)
    _close(res, "conjugacy closure (variance)", bayes.variance_mse(post, mean),
           exact.var0, 1e-6)

    # circular variance bounds and rotational covariance of heterodyne posteriors
    worst_hi, worst_lo = 0.0, 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.1, 2.5))
        babs = float(rng.uniform(0.0, 4.0))
        v = phase.coherent_het_posterior_variance(alpha, babs)
        worst_hi = max(worst_hi, v - 0.5)
        worst_lo = max(worst_lo, -v)
    _true(res, "circular variance within [0, 1/2]", worst_hi <= 1e-12 and worst_lo <= 0.0,
          worst_hi, 0.0)
    beta = 1.3 * complex(math.cos(0.4), -math.sin(0.4))
    strat = phase.HeterodynePhaseStrategy(1.0, 0.3)
    prior_c = phase.flat_prior(phase.HET_SUPPORT)
    # rotation by an exact number of grid cells makes np.roll applicable
    phi0 = 300 * (2 * math.pi / prior_c.nodes.size)
    het_like = lambda t, m: bayes.gaussian_outcome_density(m, *strat.outcome_moments(t))
    posterior_a = bayes.grid_update(prior_c, het_like, beta)
    posterior_b = bayes.grid_update(prior_c, het_like,
                                    beta * complex(math.cos(phi0), -math.sin(phi0)))
    # beta -> e^{-i phi0} beta moves the posterior peak from theta* to theta* + phi0
    shift = int(round(phi0 / (2 * math.pi / prior_c.nodes.size)))
    rolled = np.roll(posterior_a.density, shift)
    _close(res, "rotational covariance of the posterior",
           float(np.max(np.abs(rolled - posterior_b.density))), 0.0, 1e-9)
    va = bayes.variance_circular(posterior_a, bayes.circular_mean(posterior_a))
    vb = bayes.variance_circular(posterior_b, bayes.circular_mean(posterior_b))
    _close(res, "rotation leaves the posterior variance unchanged", va, vb, 1e-12)

    # sampler moments against analytic densities (4 standard errors)
    st2 = ps.displace(ps.squeeze(ps.vacuum(), 0.6, 0.7), 0.8 + 0.2j)
    n_draw = 100_000
    qs = meas.sample_outcomes(st2, homodyne(0.0), _rng(seed, 8, 1), n_draw)
    mu, var = meas.homodyne_moments(st2, 0.0)
    _close(res, "homodyne sampler mean", float(qs.mean()), mu,
           4.0 * math.sqrt(var / n_draw))
    _close(res, "homodyne sampler variance", float(qs.var()), var,
           4.0 * var * math.sqrt(2.0 / (n_draw - 1)))
    betas = meas.sample_outcomes(st2, HETERODYNE, _rng(seed, 8, 2), n_draw)
    bmean, bcov = meas.husimi_moments(st2)
    se_re = math.sqrt(bcov[0, 0] / n_draw)
    _close(res, "heterodyne sampler mean (real part)", float(betas.real.mean()),
           bmean.real, 4.0 * se_re)
    _close(res, "heterodyne sampler variance (real part)", float(betas.real.var()),
           bcov[0, 0], 4.0 * bcov[0, 0] * math.sqrt(2.0 / (n_draw - 1)))
    res.elapsed = time.perf_counter() - t0
    return res


def criterion_9_determinism(seed=DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult("9 determinism", runtime_budget=60.0)
    t0 = time.perf_counter()
    cfg_text = "\n".join([
        "task = PhaseHom",
        "alpha = 0.4:1.2:3",
        "method = montecarlo",
        "samples = 2000",
        f"seed = {seed}",
    ])
    cfg = harness.parse_config(cfg_text)
    with tempfile.TemporaryDirectory() as tmp:
        p1 = os.path.join(tmp, "a.csv")
        p2 = os.path.join(tmp, "b.csv")
        harness.write_csv(harness.run(cfg), p1)
        harness.write_csv(harness.run(cfg), p2)
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
    _true(res, "same seed twice gives byte-identical CSV", b1 == b2,
          float(len(b1)), float(len(b2)))
    res.elapsed = time.perf_counter() - t0
    return res


CRITERIA = {
    "1": criterion_1_displacement_heterodyne,
    "2": criterion_2_displacement_homodyne,
    "3": criterion_3_repetition_law,
    "4": criterion_4_phase_heterodyne_coherent,
    "5": criterion_5_phase_heterodyne_squeezed,
    "6": criterion_6_phase_homodyne,
    "7": criterion_7_squeezing,
    "8": criterion_8_invariants,
    "9": criterion_9_determinism,
}

_FAST = ("1", "2", "3", "9")


def run_suite(suite: str = "full", seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    names = _FAST if suite == "fast" else tuple(CRITERIA)
    return [CRITERIA[name](seed) for name in names]


def report_lines(results) -> list[str]:
    lines = []
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        lines.append(f"[{mark}] criterion {res.name} ({res.elapsed:.1f}s)")
        for c in res.checks:
            mark_c = "ok  " if c.passed else "FAIL"
            tol = "" if math.isnan(c.tolerance) else f" tol={c.tolerance:.3g}"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"    [{mark_c}] {c.label}: measured={c.measured:.10g} "
                         f"expected={c.expected:.10g}{tol}{note}")
        if res.elapsed > res.runtime_budget:
            lines.append(f"    [FAIL] runtime budget exceeded: {res.elapsed:.1f}s "
                         f"> {res.runtime_budget:.0f}s")
    return lines


def report_csv_lines(results) -> list[str]:
    lines = ["criterion,check,status,measured,expected,tolerance,note"]
    for res in results:
        for c in res.checks:
            note = c.note.replace(",", ";")
            tol = "" if math.isnan(c.tolerance) else harness.format_value(c.tolerance)
            lines.append(",".join([
                res.name.split()[0], c.label.replace(",", ";"),
                "pass" if c.passed else "fail",
                harness.format_value(c.measured), harness.format_value(c.expected),
                tol, note,
            ]))
    return lines
