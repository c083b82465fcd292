"""Scenario configuration and the end-to-end verification pipeline.

A scenario binds one branching law to the tail regime it is meant to
exercise. ``run_scenario`` drives everything: regime validation, closed-form
constants, pool evolution, the tail-ratio band against the predicted
constant, a Hill-index summary, mean-identity checks, geometric decay of the
generation tails, and convergence of the fixed-point iteration measured by
coupled KS distances. The primary pass rule for tail bands is "the bootstrap
band contains the theoretical constant at at least half of the surviving
grid points", because the limit theorems come with no finite-x rates.

Two diagnostics explain a failed verdict without entering one. ``tail_trend``
is the tail ratio on a half-decade quantile ladder below the largest grid
probability, showing how the finite-x ratio moves toward its x -> infinity
constant. ``coupled_gap`` follows the chains of the fixed-point iteration
started at 0 and at 100: they share every stream, so their difference is
100 W_k, whose mean is exactly 100 rho^k (the contraction rate); KS on the
atomic laws shrinks far more slowly. ``ks_cross[k]`` compares step k of the
chain from 0 with the horizon pool R^(k-1), which has the same law, because
step 1 is Q.

Order of work in a tree scenario: ``_denominator``, the one object that
every tail ratio of the scenario divides by (Q's exact law under Q
dominance; under ZN dominance one tail sketch of Z_N, taken as it is
drawn), then the W pools, the last of which is freed when the W loop
ends, then the horizon loop R^(1), ..., R^(depth). The two fixed-point
chains run in lockstep with the first KS_STEPS iterations of that loop:
iteration k steps each chain once and takes ``ks_series[k]``,
``ks_cross[k]`` and ``coupled_gap[k]`` before R^(k-1) is evolved, so each
chain holds one pool at a time and both are dropped after step KS_STEPS.
Streams are keyed by (purpose, generation, block), so this order changes no
sampled value.

One-shot draws, Z_N and a sum scenario's sums, are never held whole: each
block that ``simulate.draw_blocks`` yields is fed to a
``tailstats.TailSketchBuilder`` and let go before the next is drawn. A sum
scenario's blocks also feed a running mean and sum of squared deviations
(the pairwise update of Chan, Golub & LeVeque, "Algorithms for computing the
sample variance", Am. Stat. 37, 1983). The numerator of a scenario's band is
sketched once, down to the denominator's smallest x and the top tenth that
the Hill curve reads: the sums as they are drawn, R^(depth) after its last
generation. The tail ratio, the Hill curve and the Hill pin read only that
sketch. Both runners draw their band in ``_band`` and end in ``_report``,
which pins the Hill index and builds the ``VerificationReport``;
``write_report`` writes it as JSON by one rule, ``records.to_json``.

Determinism: a report is a pure function of (config, seed). The pools, Z_N
and the one-shot sums all go through one block loop, ``simulate.draw_blocks``:
fixed blocks, in turn, each on its own derived stream. A pool's blocks are
written into one array allocated up front; Z_N's and the sums' feed a
sketch, whose content does not depend on the blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import asymptotics, records, simulate, tailstats
from .branching import (
    _INDEX_TOL,
    KESTEN_CRITICAL,
    Q_DOMINATES,
    ZN_DOMINATES,
    BranchingLaw,
    RegimeReport,
    law_from_json,
    sample_zn_many,
    validate_regime,
)
from .distributions import Distribution, dist_from_json
from .errors import ConfigError, EmptyGrid, RegimeMismatch
from .pools import KIND_R_PARTIAL, KIND_W
from .streams import BLOCK, StreamTree, TAG_BOOTSTRAP, TAG_SUM, TAG_ZN
from .tailstats import TailReport, TailSketch

__all__ = [
    "DOMINANT_ZN",
    "DOMINANT_Q",
    "DOMINANT_SUM",
    "ScenarioConfig",
    "MeanCheck",
    "CoupledGap",
    "DecayCheck",
    "VerificationReport",
    "load_config",
    "scenario_constants",
    "run_scenario",
    "write_report",
]

DOMINANT_ZN = "ZN"
DOMINANT_Q = "Q"
DOMINANT_SUM = "SUM_APPENDIX"
SCHEMA_VERSION = 1

MEAN_CHECK_MAX_N = 10
DECAY_GENERATIONS = tuple(range(2, 9))
# the generation tails thin out fast, so the decay diagnostic uses moderate
# quantiles and a loose exceedance floor; the fit spans several decades and
# is insensitive to the extra noise this admits
DECAY_GRID = (0.4, 0.25, 0.15, 0.08, 0.04)
DECAY_MIN_EXCEEDANCES = 5
DECAY_RATE_SLACK = 0.05
DECAY_MIN_R2 = 0.9
KS_STEPS = 15
KS_MONOTONE_AFTER = 3
KS_TOLERANCE = 0.01
KS_START = 100.0
HILL_K = 1000
HILL_RTOL = 0.1

_ALLOWED_REGIMES = {
    DOMINANT_ZN: (ZN_DOMINATES,),
    DOMINANT_Q: (Q_DOMINATES,),
    DOMINANT_SUM: (ZN_DOMINATES, Q_DOMINATES),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    law: BranchingLaw
    alpha: float
    dominant: str
    pool_size: int
    depth: int
    bootstrap_b: int
    quantile_grid: tuple[float, ...]
    seed: int
    x_dist: Distribution | None = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("scenario name must be a nonempty string")
        if not isinstance(self.dominant, str) or self.dominant not in _ALLOWED_REGIMES:
            raise ConfigError(f"dominant must be one of {sorted(_ALLOWED_REGIMES)}, got {self.dominant!r}")
        if not self.alpha > 1.0:
            raise ConfigError("alpha must exceed 1")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be positive")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.bootstrap_b < 200:
            raise ConfigError("bootstrap_B must be at least 200")
        if not self.quantile_grid or not all(0.0 < p < 0.5 for p in self.quantile_grid):
            raise ConfigError("quantile_grid entries must lie in (0, 0.5)")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if self.dominant == DOMINANT_SUM and self.x_dist is None:
            raise ConfigError("SUM_APPENDIX scenarios require x_dist")

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "law": self.law.to_json(),
            "alpha": self.alpha,
            "dominant": self.dominant,
            "pool_size": self.pool_size,
            "depth": self.depth,
            "bootstrap_B": self.bootstrap_b,
            "quantile_grid": list(self.quantile_grid),
            "seed": self.seed,
        }
        if self.x_dist is not None:
            doc["x_dist"] = self.x_dist.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        required = {"schema_version", "name", "law", "alpha", "dominant",
                    "pool_size", "depth", "bootstrap_B", "quantile_grid", "seed"}
        optional = {"x_dist"}
        missing = required - set(doc)
        if missing:
            raise ConfigError(f"config is missing fields: {sorted(missing)}")
        unknown = set(doc) - required - optional
        if unknown:
            raise ConfigError(f"config has unknown fields: {sorted(unknown)}")
        if doc["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {doc['schema_version']!r}")
        grid = doc["quantile_grid"]
        if not isinstance(grid, list):
            raise ConfigError("quantile_grid must be a list of numbers")
        x_doc = doc.get("x_dist")
        return cls(
            name=doc["name"],
            law=law_from_json(doc["law"]),
            alpha=records.number(doc["alpha"], "alpha"),
            dominant=doc["dominant"],
            pool_size=_integer(doc, "pool_size"),
            depth=_integer(doc, "depth"),
            bootstrap_b=_integer(doc, "bootstrap_B"),
            quantile_grid=tuple(records.number(p, "quantile_grid entry") for p in grid),
            seed=_integer(doc, "seed"),
            x_dist=dist_from_json(x_doc) if x_doc is not None else None,
        )


def _integer(doc, key) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return v


def load_config(path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_json(doc)


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

class MeanCheck(NamedTuple):
    kind: str
    n: int
    predicted: float
    observed: float
    stderr: float
    ok: bool


class CoupledGap(NamedTuple):
    """Step k of R*(from KS_START) - R*(from 0): its predicted and observed mean."""

    step: int
    predicted: float
    mean: float
    stderr: float
    smallest: float


@dataclass(frozen=True)
class DecayCheck:
    ratios: dict[int, float]
    fitted_rate: float | None
    r_squared: float | None
    admissible_rate: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    """Everything ``run_scenario`` measured, with one pass/fail per verdict.

    ``tail`` is the ratio band at the configured grid and ``tail_trend`` the
    same ratio on the half-decade ladder p_max * 10^(-j/2) (bootstrapped on
    its own stream), both against ``tail_target``. ``ks_series[k]`` is the KS
    distance between step k of the fixed-point chains started at 0 and at
    KS_START, ``ks_cross[k]`` that between step k of the chain from 0 and the
    horizon pool R^(k-1), and ``coupled_gap`` the mean of the coupled
    difference of the two chains at each step against KS_START * rho^k, with
    a standard error that compounds over the steps as in the mean checks.
    The KS fields and ``coupled_gap`` are None below depth KS_STEPS and in
    sum scenarios.
    """

    scenario: ScenarioConfig
    regime: RegimeReport
    constants: asymptotics.TheoryConstants
    tail: TailReport
    tail_trend: TailReport
    tail_target: float
    hill_k: int
    hill_estimate: float
    hill_summary: tuple[tuple[int, float], ...]
    mean_checks: tuple[MeanCheck, ...]
    decay: DecayCheck | None
    ks_series: dict[int, float] | None
    ks_cross: dict[int, float] | None
    coupled_gap: tuple[CoupledGap, ...] | None
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {**records.fields_json(self), "passed": self.passed}


def write_report(report: VerificationReport, outdir) -> Path:
    """Write report.json, tail.csv, hill.csv, and decay.csv under outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    (out / "tail.csv").write_text(report.tail.to_csv_text())
    hill_lines = ["k,alpha_hat"] + [f"{k},{v!r}" for k, v in report.hill_summary]
    (out / "hill.csv").write_text("\n".join(hill_lines) + "\n")
    decay_lines = ["n,ratio"]
    if report.decay is not None:
        decay_lines += [f"{n},{v!r}" for n, v in sorted(report.decay.ratios.items())]
    (out / "decay.csv").write_text("\n".join(decay_lines) + "\n")
    return out


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_scenario(config: ScenarioConfig, threads: int | None = None) -> VerificationReport:
    """Run the full verification pipeline for one scenario.

    ``threads`` is inert; it stays only because the benchmark's tests pass it.
    """
    _check_pool_memory(config)
    regime = validate_regime(config.law, config.alpha)
    if regime.regime == KESTEN_CRITICAL:
        raise RegimeMismatch(
            f"scenario {config.name!r}: rho_alpha = 1 excluded (critical regime; "
            "tail constants here require rho and rho_alpha strictly below 1)"
        )
    allowed = _ALLOWED_REGIMES[config.dominant]
    if regime.regime not in allowed:
        detail = "; ".join(regime.violated) or "no hypothesis violated, but regimes differ"
        raise RegimeMismatch(
            f"scenario {config.name!r} declares dominant={config.dominant} but the law "
            f"validates as {regime.regime}: {detail}"
        )
    run = _run_sum_scenario if config.dominant == DOMINANT_SUM else _run_tree_scenario
    return run(config, regime, scenario_constants(config, regime), StreamTree(config.seed))


def scenario_constants(config: ScenarioConfig,
                       regime: RegimeReport | None = None) -> asymptotics.TheoryConstants:
    """The scenario's closed-form constants, with h_n tabulated to its depth clamped to [30, 200]."""
    return asymptotics.compute_constants(
        config.law, config.alpha, n_max=max(30, min(config.depth, 200)), regime_report=regime)


def _check_pool_memory(config: ScenarioConfig) -> None:
    """Refuse a scenario whose float64 arrays cannot fit in physical memory at once.

    A tree scenario's R loop holds R^(n-1), the two chains, the pool being
    evolved and one block's temporaries, chain 0 sorted and a sorted copy
    of the sample it is compared with, and Z_N's sketch, taken as Z_N is
    drawn: 6.64 pool sizes traced on zn-baseline at 2^18 samples, so eight
    is a conservative guard. A sum scenario holds its sketch buffer, at
    least twice the top the Hill curve reads, and a block. The bootstrap
    bands, drawn last, are counted on top.
    """
    size, b = config.pool_size, config.bootstrap_b
    values = (2 * tailstats.hill_curve_keep(size) + BLOCK if config.dominant == DOMINANT_SUM
              else 8 * size)
    band = tailstats.band_bytes(size, config.quantile_grid, b)
    simulate.check_memory(8 * values + band, f"scenario {config.name!r} with pool_size {size}, B {b}")


class _Moments(NamedTuple):
    """Size, mean and unbiased variance s^2 of a sample."""

    size: int
    mean: float
    s2: float


def _moments(values: np.ndarray) -> _Moments:
    s2 = float(values.var(ddof=1)) if values.size > 1 else 0.0
    return _Moments(values.size, float(values.mean()), s2)


class _RunningMoments:
    """The moments of a sample fed in blocks, never held whole.

    Each block's mean and sum of squared deviations M2 are merged into the
    running ones by the pairwise update of Chan, Golub & LeVeque:
    with d = mean_b - mean_a, mean = mean_a + d n_b / n and
    M2 = M2_a + M2_b + d^2 n_a n_b / n.
    """

    def __init__(self):
        self.size, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, block: np.ndarray) -> None:
        n_b = block.size
        mean_b = float(block.mean())
        dev = block - mean_b
        m2_b = float(np.sum(np.multiply(dev, dev, out=dev)))
        n = self.size + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * self.size * n_b / n
        self.size = n

    def moments(self) -> _Moments:
        return _Moments(self.size, self.mean, self.m2 / (self.size - 1) if self.size > 1 else 0.0)


def _mean_check(kind: str, n: int, predicted: float, moments: _Moments,
                prev_var: float = 0.0, rho: float = 0.0) -> MeanCheck:
    """Check a sample mean against its prediction at four standard errors.

    Pool members share their parent pool, so the mean's variance is the
    fresh-draw part s^2/M plus rho^2 times the parent mean's variance
    (exact conditional decomposition); the naive s/sqrt(M) alone can be a
    severalfold underestimate by generation ten.
    """
    var_mean = moments.s2 / moments.size + rho * rho * prev_var
    stderr = math.sqrt(var_mean)
    tol = 4.0 * stderr + 1e-12 * max(1.0, abs(predicted))
    observed = moments.mean
    return MeanCheck(kind, n, float(predicted), observed, stderr, bool(abs(observed - predicted) <= tol))


def _gap_check(step: int, gap: np.ndarray, prev_var: float, rho: float) -> CoupledGap:
    check = _mean_check("GAP", step, KS_START * rho ** step, _moments(gap), prev_var=prev_var, rho=rho)
    return CoupledGap(step, check.predicted, check.observed, check.stderr, float(gap.min()))


def _report(config, regime, constants, sketch, tail, target, mean_checks, verdicts,
            decay=None, ks_series=None, ks_cross=None, coupled_gap=None) -> VerificationReport:
    """The report of a scenario run: every runner ends here.

    The Hill index is pinned at k = min(HILL_K, max(2, n_pos // 10)) on
    ``sketch``, the band's numerator, which holds its top k + 1. The band,
    Hill and mean-identity verdicts come ahead of the runner's own ``verdicts``.
    """
    hill_k = min(HILL_K, max(2, sketch.n_pos // 10))
    hill_est = tailstats.hill(sketch, hill_k)
    hits = sum(1 for lo, hi in zip(tail.ratio_ci_low, tail.ratio_ci_high) if lo <= target <= hi)
    return VerificationReport(
        scenario=config, regime=regime, constants=constants, tail=tail, tail_trend=tail.trend,
        tail_target=target, hill_k=hill_k, hill_estimate=hill_est,
        hill_summary=tuple(sorted({**tail.hill_curve, hill_k: hill_est}.items())),
        mean_checks=tuple(mean_checks),
        decay=decay, ks_series=ks_series, ks_cross=ks_cross, coupled_gap=coupled_gap,
        verdicts={"tail_band": hits >= math.ceil(len(tail.quantile_grid) / 2),
                  "hill_index": bool(abs(hill_est / config.alpha - 1.0) <= HILL_RTOL),
                  "mean_identities": bool(all(c.ok for c in mean_checks)), **verdicts},
    )


def _denominator(config: ScenarioConfig, streams: StreamTree):
    """What every tail ratio of a tree scenario divides by: Q's exact law, or Z_N's sketch.

    Z_N, on its own stream, is drawn only under ZN dominance, and sketched
    as it is drawn, kept down to the largest probability of both grids.
    """
    if config.dominant == DOMINANT_Q:
        return config.law.q_dist
    builder = tailstats.TailSketchBuilder(
        *tailstats.den_sketch_bounds(config.pool_size, DECAY_GRID + config.quantile_grid))
    for zn in simulate.draw_blocks(lambda rng, lo, m: sample_zn_many(config.law, m, rng),
                                   streams, TAG_ZN, 0, config.pool_size):
        builder.add(zn)
        del zn  # before the next block is drawn
    return builder.build()


def _band(config: ScenarioConfig, num, den, streams: StreamTree) -> TailReport:
    """The scenario's tail ratio of ``num`` to ``den``: its band and trend, each on its own stream."""
    return tailstats.tail_ratio(
        num, den, config.quantile_grid, bootstrap_b=config.bootstrap_b,
        rng=streams.child(TAG_BOOTSTRAP, 0, 0), trend_rng=streams.child(TAG_BOOTSTRAP, 2, 0))


def _run_tree_scenario(config, regime, constants, streams) -> VerificationReport:
    law, size = config.law, config.pool_size
    zn_dominant = config.dominant == DOMINANT_ZN
    den = _denominator(config, streams)

    mean_checks: list[MeanCheck] = []
    decay_ratios: dict[int, float] = {}

    w_pool = simulate.init_pool(law, size, streams, kind=KIND_W)
    var_w = _moments(w_pool.values).s2 / size
    for n in range(1, min(config.depth, MEAN_CHECK_MAX_N) + 1):
        w_pool = simulate.evolve_pool_w(law, w_pool, streams)
        check = _mean_check("W", n, asymptotics.mean_w(law, n), _moments(w_pool.values),
                            prev_var=var_w, rho=regime.rho)
        var_w = check.stderr ** 2
        mean_checks.append(check)
        if zn_dominant and n in DECAY_GENERATIONS:
            try:
                rep = tailstats.tail_ratio(
                    w_pool.values, den, DECAY_GRID,
                    min_exceedances=DECAY_MIN_EXCEEDANCES, bootstrap_b=200,
                    rng=streams.child(TAG_BOOTSTRAP, 1, n), with_hill=False)
                decay_ratios[n] = max(rep.ratio)
            except EmptyGrid:
                pass
    del w_pool  # nothing below reads W; free it before the R pools

    # coupled fixed-point chains from two initial conditions, stepped in
    # lockstep with the horizon loop; they share every stream, so their KS
    # distance isolates the initial-value transient
    ks_series = ks_cross = coupled_gap = chain0 = chain_hi = None
    if config.depth >= KS_STEPS:
        ks_series, ks_cross, coupled_gap, var_gap = {}, {}, [], 0.0
        chain0 = simulate.constant_pool(law, size, 0.0)
        chain_hi = simulate.constant_pool(law, size, KS_START)

    r_pool = simulate.init_pool(law, size, streams, kind=KIND_R_PARTIAL)
    var_r = _moments(r_pool.values).s2 / size
    for n in range(1, config.depth + 1):
        if chain0 is not None:
            chain0 = simulate.iterate_fixed_point(law, chain0, 1, streams)
            chain_hi = simulate.iterate_fixed_point(law, chain_hi, 1, streams)
            # chain 0 is sorted once for both distances, and freed before the gap
            sorted0 = np.sort(chain0.values)
            ks_series[n] = tailstats.ks_distance(sorted0, chain_hi.values)
            # r_pool is R^(n-1) here: step 1 of the chain from 0 is Q = R^(0)
            ks_cross[n] = tailstats.ks_distance(sorted0, r_pool.values)
            del sorted0
            coupled_gap.append(_gap_check(n, chain_hi.values - chain0.values, var_gap, regime.rho))
            var_gap = coupled_gap[-1].stderr ** 2
            if n == KS_STEPS:
                chain0 = chain_hi = None
                coupled_gap = tuple(coupled_gap)
        r_pool = simulate.evolve_pool_r(law, r_pool, streams)
        if n <= MEAN_CHECK_MAX_N:
            check = _mean_check("R", n, asymptotics.mean_r_partial(law, n),
                                _moments(r_pool.values), prev_var=var_r, rho=regime.rho)
            var_r = check.stderr ** 2
            mean_checks.append(check)

    # one sketch of R^(depth) serves the band, the Hill curve and the Hill pin
    num = TailSketch.of(r_pool.values, *tailstats.num_sketch_bounds(size, den, config.quantile_grid))
    tail = _band(config, num, den, streams)

    decay = None
    if zn_dominant and config.depth >= DECAY_GENERATIONS[-1]:
        admissible = constants.eta + DECAY_RATE_SLACK
        fitted_rate = r2 = None
        ok = False
        if len(decay_ratios) >= 4:
            # generations whose whole grid falls under the floor drop out,
            # mirroring how tail_ratio drops starved grid points
            fitted_rate, r2 = tailstats.geometric_decay_fit(decay_ratios)
            ok = bool(fitted_rate <= admissible and r2 >= DECAY_MIN_R2)
        decay = DecayCheck(decay_ratios, fitted_rate, r2, admissible, ok)

    verdicts = {}
    if decay is not None:
        verdicts["decay_bound"] = decay.ok
    if ks_series is not None:
        monotone = all(
            ks_series[k] <= ks_series[k - 1] + 1e-9
            for k in range(KS_MONOTONE_AFTER + 1, KS_STEPS + 1)
        )
        verdicts["ks_convergence"] = bool(
            monotone
            and ks_series[KS_STEPS] < KS_TOLERANCE
            and ks_cross[KS_STEPS] < KS_TOLERANCE
        )
    return _report(config, regime, constants, num, tail, constants.h_limit, mean_checks,
                   verdicts, decay, ks_series, ks_cross, coupled_gap)


def _run_sum_scenario(config, regime, constants, streams) -> VerificationReport:
    law, x_dist, alpha = config.law, config.x_dist, config.alpha

    x_index, x_scale = x_dist.tail_index(), x_dist.tail_scale()
    if x_index is None or x_scale is None or abs(x_index - alpha) > _INDEX_TOL:
        raise RegimeMismatch(
            f"appendix scenarios need x_dist regularly varying with index {alpha}, got {x_index}")
    e_x = x_dist.mean()
    if not isinstance(e_x, float) or not math.isfinite(e_x) or e_x <= 0.0:
        raise RegimeMismatch("appendix scenarios need 0 < E[X] < infinity")

    # validate_regime has matched the dominant tail's index to alpha
    if regime.regime == ZN_DOMINATES:
        zn_scale = law.zn_tail_scale()
        if zn_scale is None:
            raise RegimeMismatch("the law's first-generation weight tail has no closed-form scale")
        target = asymptotics.sum_constant_zn(law, alpha, e_x, zn_scale / x_scale)
    else:
        q_scale = law.q_dist.tail_scale()
        if q_scale is None:
            raise RegimeMismatch("the law's additive-input tail has no closed-form scale")
        target = asymptotics.sum_constant_q(law, alpha, q_scale / x_scale)

    moments = _RunningMoments()
    builder = tailstats.TailSketchBuilder(
        *tailstats.num_sketch_bounds(config.pool_size, x_dist, config.quantile_grid))
    for sums in simulate.draw_blocks(lambda rng, lo, m: simulate.sample_weighted_sum(law, x_dist, rng, m),
                                     streams, TAG_SUM, 0, config.pool_size):
        moments.add(sums)
        builder.add(sums)
        del sums  # before the next block is drawn
    sketch = builder.build()

    tail = _band(config, sketch, x_dist, streams)

    predicted_mean = regime.rho * e_x + law.q_dist.mean()
    check = _mean_check("SUM", 0, predicted_mean, moments.moments())
    return _report(config, regime, constants, sketch, tail, target, [check], {})
