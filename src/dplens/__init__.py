"""Analysis toolkit for differentially private optimization.

Closed-form per-iteration improvement predictors driven by curvature
statistics, the DP-SGD/DP-Adam mechanics they describe (per-sample clipping,
Gaussian noising, GDP noise calibration), a public-then-private continual
pre-training loop, and desk-scale empirical oracles that validate every
formula: synthetic tasks with exact population statistics, Monte-Carlo
improvement estimates, and a membership-inference harness.
"""

from .clipping import (
    ClippingDiagnostic,
    ClippingRule,
    clip_factor,
    clip_factors,
    clipping_bias_diagnostic,
    privatize_gradient,
)
from .hessian import (
    HessianStats,
    TraceEstimate,
    hutchinson_trace,
    quadratic_form,
    stats_snapshot,
    trace_h_sigma,
)
from .model import (
    DifferentiableTask,
    LogisticTask,
    PopulationStats,
    QuadraticTask,
    TinyMlpTask,
    empirical_moments,
    population_stats,
)
from .predictor import (
    AlphaSchedule,
    CrossMeasureInputs,
    ImprovementInputs,
    MixInputs,
    NoInteriorOptimumError,
    NonPositiveCurvatureError,
    PostProcessor,
    SaddleOrDegenerateError,
    ScaleInvarianceError,
    alpha_schedule_value,
    cross_measure_improvement,
    data_efficiency_condition,
    decelerator,
    delta_l_priv,
    delta_l_priv_star,
    delta_l_pub,
    delta_l_pub_star,
    general_optimizer_improvement,
    mixed_improvement,
    normalize_post_processor,
    only_private_optimum,
    only_public_optimum,
    optimal_batch_dp,
    optimal_eta,
    optimal_mix_alpha,
    optimal_mixed_improvement,
    schedule_cumulative,
    twice_batch_identity,
)
from .privacy import (
    CalibrationError,
    PrivacyBudget,
    calibrate_sigma,
    complement_to_mu,
    delta_to_mu,
    log_delta_to_mu,
    mu_of_noisy_sgd,
    mu_to_delta,
    mu_to_delta_complement,
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
