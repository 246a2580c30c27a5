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

__version__ = "0.1.0"
