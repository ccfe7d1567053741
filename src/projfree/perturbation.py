"""Random linear perturbation of a loss: h(w) = f(w) + theta * <xi, w>.

The tilt direction xi is uniform on the unit sphere and theta is sized as
epsilon / (4 D) for a target accuracy epsilon and region diameter D, which
keeps |h - f| small while bounding the minimum gradient norm away from zero
with high probability.
"""

import math

import numpy as np

from .losses import Loss


def sample_unit_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere in R^d (normalized Gaussian)."""
    if d < 1:
        raise ValueError(f"sample_unit_sphere requires d >= 1, got {d}")
    while True:
        g = rng.standard_normal(d)
        n = float(np.linalg.norm(g))
        if n > 0.0:
            return g / n


def gradient_norm_floor(delta: float, d: int) -> float:
    """Lower bound delta * sqrt(pi) / sqrt(2 d) on the perturbed gradient
    norm scale, holding with probability at least 1 - delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return delta * math.sqrt(math.pi) / math.sqrt(2.0 * d)


class PerturbedLoss(Loss):
    """f plus a fixed linear tilt; delta is stored and changes no value."""

    def __init__(self, base: Loss, theta: float, xi: np.ndarray, delta: float):
        if not 0.0 <= theta < math.inf:
            raise ValueError(f"theta must be finite and >= 0, got {theta}")
        xi = np.asarray(xi, dtype=np.float64)
        if xi.shape != base.shape:
            raise ValueError(
                f"xi shape {xi.shape} does not match loss shape {base.shape}"
            )
        if not np.isfinite(xi).all():
            raise ValueError("xi must be finite")
        self.base = base
        self.theta = float(theta)
        self.xi = xi
        self.delta = float(delta)
        self.n_samples = base.n_samples
        self.shape = base.shape

    def _tilt(self, w, f, g):
        """(h(w), grad h(w)) from the base loss's value f and gradient g at w."""
        return f + self.theta * float(np.vdot(self.xi, w)), g + self.theta * self.xi

    def _value_and_gradient(self, w):
        return self._tilt(w, *self.base._value_and_gradient(w))

    def gradient(self, w) -> np.ndarray:
        # The base's gradient(), the Gram form for the quadratic loss.
        return self.base.gradient(w) + self.theta * self.xi

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        # The tilt is deterministic, so it enters the aggregate exactly.
        return self.base.stochastic_gradient(w, indices) + self.theta * self.xi

    def smoothness(self) -> float:
        # A linear tilt leaves the Hessian unchanged.
        return self.base.smoothness()

    def _chord(self, w, v):
        phi, dphi = self.base._chord(w, v)
        tilt_w = self.theta * float(np.vdot(self.xi, w))
        tilt_d = self.theta * float(np.vdot(self.xi, v - w))
        return (lambda gamma: phi(gamma) + tilt_w + gamma * tilt_d,
                lambda gamma: dphi(gamma) + tilt_d)


def make_perturbed(
    base: Loss,
    epsilon: float,
    diameter: float,
    delta: float,
    rng: np.random.Generator,
) -> PerturbedLoss:
    """Tilt a loss by theta = epsilon / (4 * diameter) along a random
    unit direction on the parameter space."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if diameter <= 0.0:
        raise ValueError(f"diameter must be > 0, got {diameter}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    size = int(np.prod(base.shape))
    xi = sample_unit_sphere(size, rng).reshape(base.shape)
    theta = epsilon / (4.0 * diameter)
    return PerturbedLoss(base, theta, xi, delta)
