"""Projection-free constrained optimization over strongly convex norm balls.

Linear-minimization-oracle methods (Frank-Wolfe variants, primal averaging,
a growing-batch stochastic variant) with projected-gradient baselines,
perturbation machinery for degenerate gradients, and run diagnostics.
"""

import ctypes as _ctypes

from .diagnostics import (
    ConvergencePoint,
    SlopeFit,
    detect_convergence,
    fw_gap,
    loglog_slope,
    nonconvex_gap_constant,
    nonconvex_rate_bound,
)
from .errors import ConfigError, DivergenceError, NumericFailure
from .feasible_sets import FeasibleSet, GroupLpqBall, LpBall, SchattenPBall
from .losses import (
    BiWeightLoss,
    LogisticLoss,
    Loss,
    ObservedMatrix,
    ObservedQuadraticLoss,
    QuadraticLoss,
    SquaredSigmoidLoss,
    TabularDataset,
)
from .numerics import SvdResult, lambda_max_bound, lp_norm, svd
from .optimizers import (
    ExactLineSearch,
    IterateSnapshot,
    PredefinedDecay,
    QuadraticLineSearch,
    ShortStep,
    default_init,
    exact_line_search,
    fw_run,
    line_search_quadratic,
    pa_run,
    projected_gd_run,
    projected_sgd_run,
    short_step,
    spa_batch_size,
    spa_run,
    step_size_predefined,
    theta_schedule,
)
from .perturbation import (
    PerturbedLoss,
    gradient_norm_floor,
    make_perturbed,
    sample_unit_sphere,
)
from .trace import Trace, read_trace, write_trace

# glibc's mmap threshold (M_MMAP_THRESHOLD, -3), pinned at its 128 KiB default
# so peak memory repeats from one process to the next (README, Library use).
try:
    _ctypes.CDLL(None).mallopt(-3, 128 * 1024)
except (AttributeError, OSError, TypeError):  # not glibc: nothing to pin
    pass

__version__ = "0.1.0"

__all__ = [
    "BiWeightLoss",
    "ConfigError",
    "ConvergencePoint",
    "DivergenceError",
    "ExactLineSearch",
    "FeasibleSet",
    "GroupLpqBall",
    "IterateSnapshot",
    "LogisticLoss",
    "Loss",
    "LpBall",
    "NumericFailure",
    "ObservedMatrix",
    "ObservedQuadraticLoss",
    "PerturbedLoss",
    "PredefinedDecay",
    "QuadraticLineSearch",
    "QuadraticLoss",
    "SchattenPBall",
    "ShortStep",
    "SlopeFit",
    "SquaredSigmoidLoss",
    "SvdResult",
    "TabularDataset",
    "Trace",
    "default_init",
    "detect_convergence",
    "exact_line_search",
    "fw_gap",
    "fw_run",
    "gradient_norm_floor",
    "lambda_max_bound",
    "line_search_quadratic",
    "loglog_slope",
    "lp_norm",
    "make_perturbed",
    "nonconvex_gap_constant",
    "nonconvex_rate_bound",
    "pa_run",
    "projected_gd_run",
    "projected_sgd_run",
    "read_trace",
    "sample_unit_sphere",
    "short_step",
    "spa_batch_size",
    "spa_run",
    "step_size_predefined",
    "svd",
    "theta_schedule",
    "write_trace",
]
