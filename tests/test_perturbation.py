"""Linear tilting of losses and the random-direction sampler.

The tilt must be exact (no approximation in eval or gradient), and the
sampler must produce unit vectors with the correct second moment.
"""

import numpy as np
import pytest

from projfree.feasible_sets import LpBall
from projfree.losses import QuadraticLoss, TabularDataset
from projfree.optimizers import fw_run, pa_run, PredefinedDecay
from projfree.perturbation import (
    PerturbedLoss,
    gradient_norm_floor,
    make_perturbed,
    sample_unit_sphere,
)


def _quadratic_centered(center):
    """sum_i (w_i - center_i)^2 as a loss over identity features."""
    center = np.asarray(center, dtype=np.float64)
    return QuadraticLoss(TabularDataset(np.eye(center.size), center))


# ---------------------------------------------------------------------------
# sampler


def test_sphere_d1_is_sign():
    rng = np.random.default_rng(0)
    vals = {float(sample_unit_sphere(1, rng)[0]) for _ in range(50)}
    assert vals <= {-1.0, 1.0}
    assert len(vals) == 2


def test_sphere_unit_norm():
    rng = np.random.default_rng(1)
    for d in (1, 2, 7, 40):
        xi = sample_unit_sphere(d, rng)
        assert float(np.linalg.norm(xi)) == pytest.approx(1.0, abs=1e-12)


def test_sphere_second_moment():
    # E[xi_1^2] = 1/d for the uniform sphere distribution.
    rng = np.random.default_rng(2)
    draws = 100_000
    acc = 0.0
    for _ in range(draws):
        acc += sample_unit_sphere(10, rng)[0] ** 2
    assert abs(acc / draws - 0.1) <= 3e-3


def test_sphere_rejects_zero_dim():
    with pytest.raises(ValueError):
        sample_unit_sphere(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# gradient norm floor


def test_floor_frozen_values():
    assert gradient_norm_floor(0.5, 2) == pytest.approx(
        0.44311346272637901, abs=1e-12
    )
    assert gradient_norm_floor(0.2, 1) == pytest.approx(
        0.25066282746310005, abs=1e-12
    )
    assert gradient_norm_floor(0.1, 10) == pytest.approx(
        0.03963327297606011, abs=1e-12
    )
    assert gradient_norm_floor(0.3, 10) == pytest.approx(
        0.11889981892818033, abs=1e-12
    )


def test_floor_vanishes_with_delta():
    assert gradient_norm_floor(1e-6, 3) < 1e-6
    assert gradient_norm_floor(1e-3, 3) < gradient_norm_floor(1e-2, 3)


def test_floor_validation():
    with pytest.raises(ValueError):
        gradient_norm_floor(0.0, 2)
    with pytest.raises(ValueError):
        gradient_norm_floor(1.0, 2)
    with pytest.raises(ValueError):
        gradient_norm_floor(0.5, 0)


# ---------------------------------------------------------------------------
# tilted loss


def test_theta_formula():
    base = _quadratic_centered([0.0, 0.0])
    h = make_perturbed(base, 0.4, 2.0, 0.1, np.random.default_rng(0))
    assert h.theta == pytest.approx(0.05, abs=0.0)


def test_tilt_is_exact():
    base = _quadratic_centered([0.3, -0.1, 0.2])
    h = make_perturbed(base, 1e-3, 2.0, 0.1, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.standard_normal(3)
        tilt = h.theta * float(h.xi @ w)
        assert h.evaluate(w) - base.evaluate(w) == pytest.approx(tilt, abs=1e-15)
        # gradient is formed as base gradient plus theta * xi, bit for bit
        np.testing.assert_array_equal(
            h.gradient(w), base.gradient(w) + h.theta * h.xi
        )
        assert float(
            np.linalg.norm(h.gradient(w) - base.gradient(w))
        ) == pytest.approx(h.theta, rel=1e-9)


def test_tilt_enters_stochastic_gradient_exactly():
    base = _quadratic_centered([0.3, -0.1])
    h = make_perturbed(base, 1e-3, 2.0, 0.1, np.random.default_rng(5))
    w = np.array([0.2, 0.1])
    idx = [0]
    np.testing.assert_array_equal(
        h.stochastic_gradient(w, idx),
        base.stochastic_gradient(w, idx) + h.theta * h.xi,
    )
    np.testing.assert_array_equal(
        h.stochastic_gradient(w, [0, 1]), h.gradient(w)
    )


def test_tilt_bound():
    base = _quadratic_centered([0.0, 0.0, 0.0, 0.0])
    h = make_perturbed(base, 0.01, 2.0, 0.1, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = 3.0 * rng.standard_normal(4)
        assert abs(h.evaluate(w) - base.evaluate(w)) <= h.theta * float(
            np.linalg.norm(w)
        ) * (1.0 + 1e-12)


def test_pure_tilt_minimizer_is_antipodal():
    # With a zero base loss the tilted objective is linear, so one oracle
    # step lands exactly on -xi over the unit ball.
    base = QuadraticLoss(TabularDataset(np.zeros((1, 3)), [0.0]))
    xi = sample_unit_sphere(3, np.random.default_rng(8))
    h = PerturbedLoss(base, 1.0, xi, 0.1)
    region = LpBall(p=2.0, r=1.0, d=3)
    trace = fw_run(h, region, PredefinedDecay(), iters=1, rng=np.random.default_rng(9))
    np.testing.assert_allclose(trace.final_point, -xi, atol=1e-12)


def test_suboptimality_transfer():
    # Whenever the tilted loss is within eps/2 of its own optimum, the
    # original loss must be within 1.5 eps of f_star.
    center = np.array([0.3, 0.2])
    base = _quadratic_centered(center)
    region = LpBall(p=2.0, r=1.0, d=2)
    eps = 0.1
    h = make_perturbed(
        base, eps, region.euclidean_diameter(), 0.1, np.random.default_rng(10)
    )
    # tilted optimum in closed form: the quadratic re-centers by theta*xi/2
    wh = center - 0.5 * h.theta * h.xi
    assert region.contains(wh)
    h_star = h.evaluate(wh)
    f_star = 0.0
    trace = pa_run(h, region, option="A", iters=500, rng=np.random.default_rng(11))
    hit = 0
    for f_val, h_val in zip(trace.loss_f, trace.loss_h):
        if h_val - h_star <= eps / 2.0:
            hit += 1
            assert f_val - f_star <= 1.5 * eps
    assert hit > 0  # the run actually reached the transfer regime


def test_make_perturbed_validation():
    base = _quadratic_centered([0.0, 0.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_perturbed(base, 0.0, 1.0, 0.1, rng)
    with pytest.raises(ValueError):
        make_perturbed(base, 0.1, 0.0, 0.1, rng)
    with pytest.raises(ValueError):
        make_perturbed(base, 0.1, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        PerturbedLoss(base, -1.0, np.ones(2), 0.1)
    with pytest.raises(ValueError):
        PerturbedLoss(base, 1.0, np.ones(3), 0.1)


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_perturbed_loss_rejects_non_finite_theta(theta):
    # A bad tilt is a bad input, not a run that diverges at its first step.
    base = _quadratic_centered([0.0, 0.0])
    with pytest.raises(ValueError, match="theta"):
        PerturbedLoss(base, theta, np.ones(2), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_perturbed_loss_rejects_non_finite_xi(bad):
    base = _quadratic_centered([0.0, 0.0])
    with pytest.raises(ValueError, match="xi"):
        PerturbedLoss(base, 0.1, np.array([0.6, bad]), 0.1)
