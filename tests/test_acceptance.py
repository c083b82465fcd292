"""Full-scale acceptance runs tying the samplers to their closed-form limits.

Each check prints one [PASS]/[FAIL] line (run ``pytest -s tests/test_acceptance.py``
to see them all) before asserting. The three scenario fixtures execute the
shipped configs at full scale, so this module takes several minutes.

Checks 1, 3 and 4 concern x -> infinity limits: P(R > x) / P(Z_N > x), the
Q analogue and the weighted-sum analogue tend to constants H, and no result
gives a finite-x value. At the configured quantiles (p = 1e-2 .. 1e-3) the
ratio curves still sit well above H, and exact-tree draws at those x give
the same ratios as the pools, so the gap is the finite-x one, not simulator
error. These checks therefore assert the statement the pools can test: on
the report's half-decade quantile ladder ``tail_trend`` the ratio moves
toward H as p decreases. With the first rung on one side of H,

(a) each rung's ratio lies inside the previous rung's band or on its H side;
(b) no rung's band lies wholly on the far side of H;
(c) some deeper rung's band lies wholly on the H side of the first ratio.

Each printed line shows the configured-grid ratio and band against H and the
deepest rung, so a failure reads either as simulator error (a curve that
moves away from H or past it) or as the finite-x gap (the configured-grid
band misses H while the ladder still closes on it). The report's
``tail_band`` verdict asks whether the limit is reached and stays FAIL.

Check 7 follows the fixed-point iteration started at 0 and at 100. The two
chains share every stream, so their difference is 100 W_k >= 0 with mean
exactly 100 rho^k: that is the contraction rate, and the check asserts it at
four compounding standard errors. KS distance on the atomic zn-baseline law
shrinks only by about P(N = 1) per step, so the check asserts its
monotonicity, not its rate, and bounds the cross-check of iterate step k
against the horizon pool R^(k-1), which has the same law.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from treetail import asymptotics, simulate, tailstats
from treetail.branching import (
    DeterministicWeight,
    IndependentIID,
    InverseN,
    PageRankLike,
)
from treetail.distributions import Constant, Exponential, Uniform, ZetaTail
from treetail.harness import load_config, run_scenario, write_report
from treetail.pools import KIND_R_PARTIAL, KIND_W
from treetail.streams import StreamTree, TAG_EXACT

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def criterion(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


@pytest.fixture(scope="module")
def zn_report():
    return run_scenario(load_config(CONFIG_DIR / "zn-baseline.json"))


@pytest.fixture(scope="module")
def q_report():
    return run_scenario(load_config(CONFIG_DIR / "q-baseline.json"))


@pytest.fixture(scope="module")
def sum_report():
    return run_scenario(load_config(CONFIG_DIR / "sum-appendix.json"))


def approaches_limit(report) -> tuple[bool, str]:
    """Checks (a)-(c) of the module docstring on ``report.tail_trend``."""
    trend, target = report.tail_trend, report.tail_target
    side = 1.0 if trend.ratio[0] >= target else -1.0
    # signed distance from H, positive on the first rung's side
    ratio = [side * (r - target) for r in trend.ratio]
    bands = [sorted((side * (lo - target), side * (hi - target)))
             for lo, hi in zip(trend.ratio_ci_low, trend.ratio_ci_high)]
    inside_or_closer = all(ratio[j] <= bands[j - 1][1] for j in range(1, len(ratio)))
    never_past = all(far >= 0.0 for _, far in bands)
    closes_in = any(far < ratio[0] for _, far in bands[1:])
    grid = report.tail
    detail = (
        f"H={target:.4f}; grid " + ", ".join(
            f"p={p:.0e} {r:.4f} [{lo:.4f}, {hi:.4f}]"
            for p, r, lo, hi in zip(grid.quantile_grid, grid.ratio, grid.ratio_ci_low, grid.ratio_ci_high))
        + "; ladder " + " -> ".join(f"{r:.4f}" for r in trend.ratio)
        + f", deepest p={trend.quantile_grid[-1]:.1e} band "
        f"[{trend.ratio_ci_low[-1]:.4f}, {trend.ratio_ci_high[-1]:.4f}]; "
        f"(a) {inside_or_closer} (b) {never_past} (c) {closes_in}")
    return inside_or_closer and never_past and closes_in, detail


def test_criterion_1_zn_dominant_tail_band(zn_report):
    ok, detail = approaches_limit(zn_report)
    ok = criterion(1, ok, f"R-vs-Z_N ratio approaches its limit: {detail}")
    assert ok


def test_criterion_2_hill_index_transfer(zn_report):
    assert zn_report.hill_k == 1000
    est = zn_report.hill_estimate
    ok = criterion(
        2, 1.8 <= est <= 2.2,
        f"hill(R-pool, k=1000) = {est:.4f}, required within [1.8, 2.2]")
    assert ok


def test_criterion_3_q_dominant_tail_band(q_report):
    ok, detail = approaches_limit(q_report)
    ok = criterion(3, ok, f"R-vs-F_Q ratio approaches its limit: {detail}")
    assert ok


def test_criterion_4_weighted_sum_tail_band(sum_report):
    ok, detail = approaches_limit(sum_report)
    ok = criterion(4, ok, f"sum-vs-F_X ratio approaches its limit: {detail}")
    assert ok


MEAN_CHECK_LAWS = (
    ("independent_iid", IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.5))),
    ("deterministic_weight", DeterministicWeight(Constant(1.0), ZetaTail(2.0), 0.2)),
    ("pagerank_like", PageRankLike(0.5, Constant(2.0), ZetaTail(2.0))),
    ("inverse_n", InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), 0.5, 1.0)),
)


def test_criterion_5_mean_identities():
    size = 200_000
    worst = 0.0
    for _, law in MEAN_CHECK_LAWS:
        rho = law.rho_beta(1.0)
        assert rho < 1
        streams = StreamTree(777)
        for kind, evolve, predict in (
            (KIND_W, simulate.evolve_pool_w, asymptotics.mean_w),
            (KIND_R_PARTIAL, simulate.evolve_pool_r, asymptotics.mean_r_partial),
        ):
            pool = simulate.init_pool(law, size, streams, kind=kind)
            # members of pool n resample members of pool n-1, so the mean's
            # variance compounds: fresh part s^2/M plus rho^2 times the
            # previous mean's variance
            var_mean = float(pool.values.var(ddof=1)) / size
            for n in range(1, 11):
                pool = evolve(law, pool, streams)
                var_mean = float(pool.values.var(ddof=1)) / size + rho * rho * var_mean
                dev = abs(float(pool.values.mean()) - predict(law, n)) / math.sqrt(var_mean)
                worst = max(worst, dev)
    ok = criterion(
        5, worst <= 4.0,
        f"W_n and R^(n) pool means across four families, n=1..10: worst "
        f"deviation {worst:.2f} standard errors (allowed 4)")
    assert ok


def test_criterion_6_generation_ratio_decay(zn_report):
    decay = zn_report.decay
    assert decay is not None and decay.fitted_rate is not None
    ok = criterion(
        6, decay.ok,
        f"fitted decay rate {decay.fitted_rate:.4f} <= admissible "
        f"{decay.admissible_rate:.2f} with r^2 {decay.r_squared:.4f} >= 0.9")
    assert ok


def test_criterion_7_two_inits_contract(zn_report):
    series, cross, gaps = zn_report.ks_series, zn_report.ks_cross, zn_report.coupled_gap
    assert series is not None and cross is not None and gaps is not None
    assert [g.step for g in gaps] == list(range(1, 16))
    rho = zn_report.regime.rho
    nonnegative = all(g.smallest >= 0.0 for g in gaps)
    worst = max(abs(g.mean - 100.0 * rho ** g.step) / g.stderr for g in gaps)
    monotone = all(series[k] <= series[k - 1] + 1e-9 for k in range(4, 16))
    ok = criterion(
        7, nonnegative and worst <= 4.0 and monotone and cross[15] < 0.01,
        f"coupled gap >= 0: {nonnegative}, mean vs 100 rho^k at k=1..15 worst "
        f"{worst:.2f} standard errors (allowed 4); KS monotone after step 3: "
        f"{monotone} (step 15 = {series[15]:.5f}); horizon cross-check at "
        f"step 15 = {cross[15]:.5f} (tolerance 0.01)")
    assert ok


def test_criterion_8_theory_self_consistency():
    zn_law = load_config(CONFIG_DIR / "zn-baseline.json").law
    e_q = zn_law.q_mean()
    rho, rho_a = zn_law.rho_beta(1.0), zn_law.rho_beta(2.0)

    worst = 0.0
    for n in range(1, 51):
        lhs = asymptotics.h_n_zn(e_q, rho, rho_a, 2.0, n)
        rhs = (rho_a * asymptotics.h_n_zn(e_q, rho, rho_a, 2.0, n - 1)
               + (e_q * (1.0 - rho ** n) / (1.0 - rho)) ** 2)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    induction_ok = worst <= 1e-12

    # error-decay fits: below n ~ 12 the gap still mixes the rho_alpha^n
    # term with the dominant rho^n one, and past n ~ 30 it sits at
    # double-precision noise; both corrupt the fitted rate
    zn_limit = asymptotics.h_limit_zn(e_q, rho, rho_a, 2.0)
    zn_errors = {
        n: zn_limit - asymptotics.h_n_zn(e_q, rho, rho_a, 2.0, n)
        for n in range(12, 31)
    }
    zn_rate, _ = tailstats.geometric_decay_fit(zn_errors)
    zn_bound = max(rho, rho_a) + 1e-6

    q_law = load_config(CONFIG_DIR / "q-baseline.json").law
    q_rho, q_rho_a = q_law.rho_beta(1.0), q_law.rho_beta(2.5)
    q_limit = asymptotics.h_limit_q(q_rho_a)
    q_errors = {n: q_limit - asymptotics.h_n_q(q_rho_a, n) for n in range(2, 16)}
    q_rate, _ = tailstats.geometric_decay_fit(q_errors)
    q_bound = max(q_rho, q_rho_a) + 1e-6

    ok = criterion(
        8, induction_ok and zn_rate <= zn_bound and q_rate <= q_bound,
        f"induction residual {worst:.1e} (<= 1e-12); error rates "
        f"{zn_rate:.7f} <= {zn_bound:.7f} and {q_rate:.7f} <= {q_bound:.7f}")
    assert ok


EXACT_CHECK_LAWS = (
    ("independent_iid", IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.5))),
    ("deterministic_weight", DeterministicWeight(Uniform(0.0, 2.0), ZetaTail(2.0), 0.2)),
    ("pagerank_like", PageRankLike(0.5, Constant(2.0), ZetaTail(2.0))),
    ("inverse_n", InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), 0.5, 1.0)),
)


def test_criterion_9_exact_vs_population():
    size = 100_000
    critical = tailstats.ks_critical_value(size, size, 0.01)
    distances = []
    for name, law in EXACT_CHECK_LAWS:
        streams = StreamTree(4242)
        exact = simulate.sample_r_exact(law, 3, streams.child(TAG_EXACT, 0, 0), size=size)
        pool = simulate.init_pool(law, size, streams)
        for _ in range(3):
            pool = simulate.evolve_pool_r(law, pool, streams)
        distances.append((name, tailstats.ks_distance(exact, pool.values)))
    worst = max(d for _, d in distances)
    listing = ", ".join(f"{name} {d:.5f}" for name, d in distances)
    ok = criterion(
        9, worst < critical,
        f"exact draws vs depth-3 population pools, KS: {listing} "
        f"(1% critical value {critical:.5f})")
    assert ok


# sha256 of each report file at the shipped seeds. The pipeline's memory and
# speed work must leave every byte alone; a change that means to move sampled
# values re-pins these and says so. The values depend on numpy's generators
# and ufunc loops, so they are checked against the numpy they were recorded with.
PINNED_NUMPY = "2.4.6"
REPORT_SHA256 = {
    "zn": {
        "report.json": "4633e2bbeba04d8342d3a238f688d5bf0b2813c2f0763fa400d97251d94ad8f0",
        "tail.csv": "4fd727b8b9868f5615fe3c0eeb138bac2d688f97c37bd070018ae0bcf1535638",
        "hill.csv": "9549ea32eb6efdcf6b4565d22b05979df34fd31eae1b69cff971802c1ce9dbad",
        "decay.csv": "766b3dbac68fa3d46b4bb17a62aba1b23af27152901efe8766a56d98ea4690f9",
    },
    "q": {
        "report.json": "27fc1e83277c3c91b3cb56c2873deaa6148742527a8705739c09f9e8664cab18",
        "tail.csv": "d46b7db127353c3e58b4ace4bbebe10a34bf2bbada633158e760afcd7cb1ed35",
        "hill.csv": "a71c8ca7829c48f997c6c7cbe9cffad92a3d40bfac9471d7714d07c9ac36621f",
        "decay.csv": "91cd18b330127fedac8f13534c32c89a490ae6133119b487ec603018d1f0ed42",
    },
    "sum": {
        # the streamed sums merge block moments, so the SUM mean check's
        # observed mean moved from 1.6573895643331236 to 1.657389564333124
        "report.json": "dc5129c52dea356be770e025cb6bb37c3ebd55bf6e47717bae99769bca6a7267",
        "tail.csv": "a505b70e72753cabe2b4e2275408f33e2aa96937d808120f065e5ac4c13cdf35",
        "hill.csv": "e7e71f7d4918a9fd36b4b3222e271753dc344dfc64bc1f28e564c0894049ac04",
        "decay.csv": "91cd18b330127fedac8f13534c32c89a490ae6133119b487ec603018d1f0ed42",
    },
}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"report bytes were pinned with numpy {PINNED_NUMPY}")
@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(name, request, tmp_path):
    report = request.getfixturevalue(f"{name}_report")
    out = write_report(report, tmp_path / name)
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in REPORT_SHA256[name]}
    assert digests == REPORT_SHA256[name]
