"""Diagnostics: oracle gap, log-log fits, convergence detection, rate bounds.

Closed-form expectations were computed by hand from the documented formulas;
high-precision constants were frozen from an independent 40-digit evaluation.
"""

import numpy as np
import pytest

from projfree.diagnostics import (
    MIN_FIT_POINTS,
    detect_convergence,
    fw_gap,
    loglog_slope,
    nonconvex_gap_constant,
    nonconvex_rate_bound,
)
from projfree.feasible_sets import LpBall
from projfree.trace import Trace


def _trace(losses, step_ms=None):
    tr = Trace()
    for i, f in enumerate(losses, start=1):
        s = None if step_ms is None else step_ms[i - 1]
        tr.append(i, float(f), None, 0.0, 0.5, None, 1.0, step_ms=s)
    return tr


# ---------------------------------------------------------------------------
# fw_gap


def test_gap_at_center_equals_radius_times_dual_norm():
    region = LpBall(p=2.0, r=1.0, d=2)
    g = np.array([3.0, 4.0])
    assert fw_gap(region, np.zeros(2), g) == pytest.approx(5.0, rel=1e-12)


def test_gap_vanishes_at_oracle_point():
    region = LpBall(p=2.0, r=1.0, d=2)
    g = np.array([3.0, 4.0])
    assert abs(fw_gap(region, region.lmo(g), g)) <= 1e-12


def test_gap_rejects_infeasible_point():
    region = LpBall(p=2.0, r=1.0, d=2)
    with pytest.raises(ValueError):
        fw_gap(region, np.array([2.0, 0.0]), np.ones(2))


# ---------------------------------------------------------------------------
# loglog_slope


def test_slope_recovers_exact_power_law():
    fit = loglog_slope([(t, 1.0 / t**2) for t in range(1, 201)])
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.window == (11, 200)
    assert fit.burn_in == 10
    assert not fit.clipped


def test_slope_recovers_scaled_power_law():
    fit = loglog_slope([(t, 5.0 / t) for t in range(1, 101)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-9)


def test_slope_tolerates_mild_oscillation():
    series = [(t, t**-1.5 * (1.0 + 0.01 * np.sin(t))) for t in range(1, 301)]
    fit = loglog_slope(series)
    assert -1.52 <= fit.slope <= -1.48
    assert fit.r_squared > 0.99


def test_slope_ignores_burn_in_points():
    # Garbage before the burn-in boundary must not pollute the fit.
    series = [(t, 1e6) for t in range(1, 11)]
    series += [(t, 1.0 / t) for t in range(11, 101)]
    fit = loglog_slope(series, burn_in=10)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.window == (11, 100)


def test_slope_flags_clipped_values():
    series = [(t, 1.0 / t**2) for t in range(11, 51)]
    series += [(t, 0.0) for t in range(51, 61)]
    fit = loglog_slope(series)
    assert fit.clipped


def test_slope_needs_enough_points():
    series = [(t, 1.0 / t) for t in range(1, 20)]  # 9 survive burn_in=10
    with pytest.raises(ValueError):
        loglog_slope(series, burn_in=10)
    assert MIN_FIT_POINTS == 10


def test_slope_needs_distinct_times():
    with pytest.raises(ValueError):
        loglog_slope([(11, 1.0)] * 10, burn_in=10)


# ---------------------------------------------------------------------------
# detect_convergence


def test_detector_fires_on_second_record_of_flat_trace():
    pt = detect_convergence(_trace([5.0] * 5), f_star=5.0)
    assert pt is not None
    assert pt.iteration == 2
    assert pt.loss == 5.0
    assert pt.wall_clock_ms is None


def test_detector_rejects_fast_moving_trace():
    # Halving every step never satisfies the settled test at 2%.
    losses = [2.0**-t for t in range(1, 40)]
    assert detect_convergence(_trace(losses), f_star=0.0) is None


def test_detector_requires_proximity_not_just_settling():
    assert detect_convergence(_trace([10.0] * 8), f_star=5.0) is None


def test_detector_geometric_decay_crossing():
    # loss_t = 1 + 0.5 * 0.9^t settles early but only reaches the 2% band
    # around f_star = 1 once 0.5 * 0.9^t <= 0.02, i.e. at t = 31.
    losses = [1.0 + 0.5 * 0.9**t for t in range(1, 61)]
    pt = detect_convergence(_trace(losses), f_star=1.0)
    assert pt is not None
    assert pt.iteration == 31


def test_detector_absolute_band_when_target_is_zero():
    pt = detect_convergence(_trace([0.01] * 4), f_star=0.0)
    assert pt is not None
    assert pt.iteration == 2


def test_detector_accumulates_wall_clock():
    pt = detect_convergence(_trace([5.0] * 5, step_ms=[2.0] * 5), f_star=5.0)
    assert pt is not None
    assert pt.iteration == 2
    assert pt.wall_clock_ms == pytest.approx(4.0)  # two recorded steps


def test_detector_drops_wall_clock_when_any_step_untimed():
    steps = [None, 2.0, 2.0, 2.0, 2.0]
    pt = detect_convergence(_trace([5.0] * 5, step_ms=steps), f_star=5.0)
    assert pt is not None
    assert pt.wall_clock_ms is None


def test_detector_validates_inputs():
    with pytest.raises(ValueError):
        detect_convergence(Trace(), f_star=1.0)
    with pytest.raises(ValueError):
        detect_convergence(_trace([1.0, 1.0]), f_star=1.0, rel_tol=0.0)


# ---------------------------------------------------------------------------
# closed-form rate bounds


def test_gap_constant_frozen_value():
    # alpha=1, delta=0.5, L=1, d=2: 0.5*sqrt(pi)/(8*sqrt(4)), 40-digit eval.
    got = nonconvex_gap_constant(1.0, 0.5, 1.0, 2)
    assert got == pytest.approx(0.055389182840797376, rel=1e-15)


def test_gap_constant_validation():
    with pytest.raises(ValueError):
        nonconvex_gap_constant(0.0, 0.5, 1.0, 2)
    with pytest.raises(ValueError):
        nonconvex_gap_constant(1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        nonconvex_gap_constant(1.0, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        nonconvex_gap_constant(1.0, 0.5, 1.0, 0)


def test_rate_bound_frozen_value():
    got = nonconvex_rate_bound(1.0, 1.0, 0.5, 1.0, 2, 100)
    assert got == pytest.approx(0.18054066673528201, rel=1e-15)


def test_rate_bound_half_regime():
    # With a large progress constant the min saturates at 1/2, so the bound
    # reduces to 2 * ell_1 / t.
    assert nonconvex_gap_constant(100.0, 0.9, 0.1, 1) > 0.5
    got = nonconvex_rate_bound(3.0, 100.0, 0.9, 0.1, 1, 10)
    assert got == pytest.approx(2.0 * 3.0 / 10.0, rel=1e-15)


def test_rate_bound_validation():
    with pytest.raises(ValueError):
        nonconvex_rate_bound(-1.0, 1.0, 0.5, 1.0, 2, 10)
    with pytest.raises(ValueError):
        nonconvex_rate_bound(1.0, 1.0, 0.5, 1.0, 2, 0)