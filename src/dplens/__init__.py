"""Analysis toolkit for differentially private optimization.

Closed-form per-iteration improvement predictors driven by curvature
statistics (the improvement, the decelerator sigma^2 tr(H)/(B c^2), the
optimal batch size and public/private mixing ratio), the DP-SGD/DP-Adam
mechanics they describe (per-sample clipping, Gaussian noising, GDP noise
calibration), a public-then-private continual pre-training loop, and
desk-scale empirical oracles that validate the formulas: synthetic tasks with
exact population statistics, Monte-Carlo improvement estimates, and a
membership-inference harness.
"""

from .clipping import ClippingRule, clip_factors
from .hessian import (
    Estimate,
    HessianStats,
    stats_snapshot,
    trace_h_sigma,
)
from .model import (
    DifferentiableTask,
    LogisticTask,
    QuadraticTask,
    TinyMlpTask,
    population_stats,
)
from .predictor import (
    AlphaSchedule,
    ImprovementInputs,
    NoInteriorOptimumError,
    NonPositiveCurvatureError,
    SaddleOrDegenerateError,
    alpha_schedule_value,
    decelerator,
    denominator,
    denominator_pub,
    delta_l_priv,
    delta_l_priv_star,
    delta_l_pub_star,
    mixed_improvement,
    only_private_optimum,
    only_public_optimum,
    optimal_batch_dp,
    optimal_mix_alpha,
    optimal_mixed_improvement,
    schedule_cumulative,
)
from .privacy import (
    CalibrationError,
    PrivacyBudget,
    calibrate_sigma,
    delta_to_mu,
    log_delta_to_mu,
    mu_of_noisy_sgd,
    mu_to_delta,
    mu_to_log_delta,
    sigma_sq_over_b,
    sigma_sq_over_b_expansion,
)
from .trainer import (
    OptimizerConfig,
    OptimizerState,
    SwitchPolicy,
    TrainRun,
    continual_pretrain,
    dp_step,
    empirical_improvement_oracle,
    four_way_comparison,
)

__version__ = "0.1.0"
