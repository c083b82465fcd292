"""Monte Carlo and closed-form toolkit for heavy-tailed branching fixed points.

The package simulates the distributional fixed point of
R = sum_i C_i R_i + Q on weighted branching trees, computes the theoretical
tail constants of its regularly varying solutions, and verifies the two
against each other at matched tail quantiles.
"""

from .asymptotics import (
    TheoryConstants,
    compute_constants,
    h_limit_q,
    h_limit_zn,
    h_n_q,
    h_n_zn,
    mean_r_partial,
    mean_w,
    moment_bound_w,
    sum_constant_q,
    sum_constant_zn,
)
from .branching import (
    INVALID,
    KESTEN_CRITICAL,
    Q_DOMINATES,
    SUBCRITICAL_LIGHT,
    ZN_DOMINATES,
    BranchingLaw,
    DeterministicWeight,
    IndependentIID,
    InverseN,
    PageRankLike,
    RegimeReport,
    law_from_json,
    rho_beta_mc,
    sample_zn_many,
    validate_regime,
)
from .distributions import (
    Constant,
    Distribution,
    Exponential,
    LogNormal,
    Pareto,
    Shifted,
    Uniform,
    ZetaTail,
    dist_from_json,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegenerateTail,
    DomainError,
    EmptyGrid,
    FingerprintMismatch,
    ModelMismatch,
    NonPositive,
    PoolFormatError,
    RegimeMismatch,
    TreetailError,
)
from .harness import (
    DOMINANT_Q,
    DOMINANT_SUM,
    DOMINANT_ZN,
    ScenarioConfig,
    VerificationReport,
    load_config,
    run_scenario,
    write_report,
)
from .pools import KIND_R_PARTIAL, KIND_R_STAR, KIND_W, SamplePool, export_csv, load_pool, save_pool
from .simulate import (
    constant_pool,
    evolve_pool_r,
    evolve_pool_w,
    init_pool,
    iterate_fixed_point,
    sample_r_exact,
    sample_w_exact,
    sample_weighted_sum,
)
from .streams import StreamTree
from .tailstats import (
    TailReport,
    geometric_decay_fit,
    hill,
    hill_curve,
    ks_critical_value,
    ks_distance,
    tail_ratio,
    tail_ratio_analytic,
)

__version__ = "0.1.0"
