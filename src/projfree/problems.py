"""Benchmark problem builders shared by the CLI suites and the test gate.

The flagship instance is a correlated least-squares problem whose
unconstrained solution sits outside an l2 ball, so the constrained optimum
lies on the boundary with a nonzero gradient.  Its optimal value comes from
an independent regularization-path solve, not from any iterative run.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import SyntheticSpec, gen_classification, gen_regression, standardize
from .errors import NumericFailure
from .feasible_sets import LpBall
from .losses import (
    BiWeightLoss,
    QuadraticLoss,
    SquaredSigmoidLoss,
)
from .optimizers import projected_gd_run


def ridge_path_optimum(x: np.ndarray, y: np.ndarray, radius: float):
    """Exact minimizer of ||X w - y||^2 over the l2 ball of the given radius.

    Solved through the eigendecomposition of X^T X: the norm of
    w(mu) = (X^T X + mu I)^{-1} X^T y decreases monotonically in mu, so a
    scalar bisection pins the boundary multiplier.  Returns (f_star, w_star).
    """
    gram = x.T @ x
    evals, evecs = np.linalg.eigh(gram)
    b = evecs.T @ (x.T @ y)

    def w_of(mu: float) -> np.ndarray:
        return evecs @ (b / (evals + mu))

    def norm_of(mu: float) -> float:
        return float(np.linalg.norm(b / (evals + mu)))

    w0 = w_of(0.0) if evals.min() > 1e-10 else None
    if w0 is not None and float(np.linalg.norm(w0)) <= radius:
        resid = x @ w0 - y
        return float(resid @ resid), w0

    lo, hi = 0.0, max(1.0, float(evals.max()))
    while norm_of(hi) > radius:
        hi *= 2.0
        if hi > 1e18:
            raise NumericFailure("ridge path bracketing failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_of(mid) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    w_star = w_of(0.5 * (lo + hi))
    w_star = w_star * (radius / float(np.linalg.norm(w_star)))
    resid = x @ w_star - y
    return float(resid @ resid), w_star


@dataclass
class LsqProblem:
    data: object
    loss: QuadraticLoss
    region: LpBall
    f_star: float
    w_star: np.ndarray
    smoothness: float


@functools.lru_cache(maxsize=8)
def lsq_boundary_problem(
    seed: int = 42,
    n: int = 2000,
    d: int = 20,
    condition: float = 1000.0,
) -> LsqProblem:
    """Least squares over an l2 ball sized so the optimum is on the boundary.

    The targets carry noise 0.1.  The ball radius is 0.9 times the
    unconstrained solution norm; correlated features give the instance a
    realistic eigenvalue spread.
    """
    spec = SyntheticSpec(
        kind="regression", n=n, d=d, noise=0.1, seed=seed, condition=condition
    )
    data, _ = gen_regression(spec)
    data = standardize(data)
    x, y = data.features, data.targets
    w_free, *_ = np.linalg.lstsq(x, y, rcond=None)
    radius = 0.9 * float(np.linalg.norm(w_free))
    region = LpBall(p=2.0, r=radius, d=d)
    loss = QuadraticLoss(data)
    f_star, w_star = ridge_path_optimum(x, y, radius)
    return LsqProblem(
        data=data,
        loss=loss,
        region=region,
        f_star=f_star,
        w_star=w_star,
        smoothness=loss.smoothness(),
    )


@dataclass
class BiweightProblem:
    loss: BiWeightLoss
    region: LpBall
    smoothness: float
    alpha: float
    d: int


@functools.cache
def biweight_problem() -> BiweightProblem:
    """Robust (bounded, non-convex) regression on the synthetic tabular set:
    2000 isotropic samples in d = 20 with noise 0.1 (seed 42), standardized,
    on the unit l2 ball.

    The per-sample curvature of r^2/(1+r^2) lies in [-1/2, 2], so the loss's
    smoothness(), 2 * lambda_max(X^T X), bounds the gradient Lipschitz
    constant globally.
    """
    spec = SyntheticSpec(kind="regression", n=2000, d=20, noise=0.1, seed=42)
    data, _ = gen_regression(spec)
    data = standardize(data)
    region = LpBall(p=2.0, r=1.0, d=data.d)
    loss = BiWeightLoss(data)
    return BiweightProblem(
        loss=loss,
        region=region,
        smoothness=loss.smoothness(),
        alpha=region.strong_convexity(),
        d=data.d,
    )


@dataclass
class MarginProblem:
    loss: SquaredSigmoidLoss
    region: LpBall
    d: int


@functools.lru_cache(maxsize=8)
def margin_classification_problem(
    seed: int = 7,
    n: int = 500,
    d: int = 5,
    margin: float = 0.5,
    radius: float = 12.0,
) -> MarginProblem:
    """Squared-sigmoid fit of margin-separated labels on an l2 ball large
    enough that a confident classifier is feasible."""
    spec = SyntheticSpec(kind="classification", n=n, d=d, seed=seed, margin=margin)
    data, _ = gen_classification(spec)
    loss = SquaredSigmoidLoss(data)
    region = LpBall(p=2.0, r=radius, d=d)
    return MarginProblem(loss=loss, region=region, d=d)


def tune_gd_eta(loss, region, smoothness: float, init):
    """Pick the constant GD step from a smoothness-scaled grid by probing.

    Grid spans {0.25, 0.5, 1.0, 1.9} / L; the candidate with the lowest loss
    after a 50-iteration probe wins.  Diverging candidates are discarded.
    """
    best_eta = None
    best_val = math.inf
    for c in (0.25, 0.5, 1.0, 1.9):
        eta = c / smoothness
        try:
            trace = projected_gd_run(
                loss, region, eta=eta, iters=50, init=init
            )
        except NumericFailure:
            continue
        val = trace.loss_f[-1]
        if val < best_val:
            best_val = val
            best_eta = eta
    if best_eta is None:
        raise NumericFailure("every probed GD step size diverged")
    return best_eta
