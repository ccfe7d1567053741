"""Run loops: step rules, schedules, trajectories, guards, determinism.

Closed-form step values are asserted exactly; trajectory checks replay the
recorded snapshots and verify the defining recurrences.
"""

import math
import re
import sys
import threading
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projfree.errors import DivergenceError, NumericFailure
from projfree.feasible_sets import GroupLpqBall, LpBall, SchattenPBall
from projfree.losses import (
    BiWeightLoss,
    ObservedQuadraticLoss,
    QuadraticLoss,
    SquaredSigmoidLoss,
    TabularDataset,
)
from projfree.datasets import SyntheticSpec, gen_lowrank, gen_regression
from projfree.optimizers import (
    ExactLineSearch,
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
from projfree.perturbation import PerturbedLoss
from projfree import problems
from projfree.problems import lsq_boundary_problem
from projfree.trace import read_trace, write_trace


def _quadratic_centered(center):
    center = np.asarray(center, dtype=np.float64)
    return QuadraticLoss(TabularDataset(np.eye(center.size), center))


def _interior_problem():
    """Least squares whose unconstrained optimum lies inside the unit ball."""
    spec = SyntheticSpec(kind="regression", n=50, d=3, noise=0.0, seed=0, w_norm=0.5)
    data, w_true = gen_regression(spec)
    return QuadraticLoss(data), LpBall(p=2.0, r=1.0, d=3), w_true


# ---------------------------------------------------------------------------
# step rules and schedules


def test_predefined_decay_values():
    assert step_size_predefined(1) == 1.0
    assert step_size_predefined(2) == pytest.approx(2.0 / 3.0, abs=0.0)
    assert step_size_predefined(10) == pytest.approx(2.0 / 11.0, abs=0.0)


def test_theta_schedule_triangular():
    for t in (1, 2, 3, 10, 57):
        theta, big = theta_schedule(t)
        assert theta == t
        assert big == t * (t + 1) // 2


def test_quadratic_line_search_closed_form():
    assert line_search_quadratic(-4.0, 2.0, 1.0) == 1.0  # clipped at 1
    assert line_search_quadratic(-1.0, 4.0, 1.0) == pytest.approx(0.25)
    assert line_search_quadratic(1.0, 4.0, 1.0) == 0.0  # ascent direction
    assert line_search_quadratic(0.0, 4.0, 1.0) == 0.0


def test_quadratic_line_search_takes_the_full_step_when_the_curvature_underflows():
    # L * dist2 = 1e-324 rounds to 0: the model is linear to double
    # precision, and its clamped minimizer is 1.
    assert line_search_quadratic(-1.0, 1e-24, 1e-300) == 1.0
    assert line_search_quadratic(-1e-300, 5e-324, 5e-324) == 1.0
    assert line_search_quadratic(1.0, 1e-24, 1e-300) == 0.0  # still no ascent


def test_exact_line_search_parabola():
    gamma = exact_line_search(lambda g: (g - 0.3) ** 2, lambda g: 2.0 * (g - 0.3))
    assert gamma == pytest.approx(0.3, abs=1e-6)


def test_exact_line_search_monotone_endpoints():
    assert exact_line_search(lambda g: -g, lambda g: -1.0) == pytest.approx(1.0, abs=1e-6)
    assert exact_line_search(lambda g: g, lambda g: 1.0) == pytest.approx(0.0, abs=1e-6)


def _minimizer_by_bisection(dphi):
    """Reference minimizer of a unimodal phi on [0, 1]: plain bisection on
    the sign of its slope, to a bracket of 1e-15."""
    if dphi(0.0) >= 0.0:
        return 0.0
    if dphi(1.0) <= 0.0:
        return 1.0
    a, b = 0.0, 1.0
    while b - a > 1e-15:
        c = 0.5 * (a + b)
        if dphi(c) < 0.0:
            a = c
        else:
            b = c
    return 0.5 * (a + b)


_coefs = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=200)
@given(st.lists(_coefs, min_size=4, max_size=4), st.floats(1e-12, 1e-2))
@example([-0.0045, 0.07, -0.35, 0.25], 1e-8)  # slope roots 0.05, 0.1, 0.9
def test_exact_line_search_never_above_the_endpoints(coefs, tol):
    # Any quartic, unimodal or not: the result is never worse than 0 or 1.
    # In the example the bracket closes on the shallow minimum at 0.05,
    # and gamma = 1 is lower.
    c1, c2, c3, c4 = coefs

    def phi(g):
        return c1 * g + c2 * g**2 + c3 * g**3 + c4 * g**4

    def dphi(g):
        return c1 + 2 * c2 * g + 3 * c3 * g**2 + 4 * c4 * g**3

    gamma = exact_line_search(phi, dphi, tol)
    assert 0.0 <= gamma <= 1.0
    assert phi(gamma) <= min(phi(0.0), phi(1.0))


@settings(max_examples=200)
@given(st.floats(1e-3, 1e3), st.floats(-1.0, 2.0), _coefs, st.floats(1e-10, 1e-3))
def test_exact_line_search_finds_a_parabola_minimizer(curvature, center, offset, tol):
    gamma = exact_line_search(lambda g: curvature * (g - center) ** 2 + offset,
                              lambda g: 2.0 * curvature * (g - center), tol)
    assert abs(gamma - min(max(center, 0.0), 1.0)) <= tol


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.floats(1e-10, 1e-4))
def test_exact_line_search_on_squared_sigmoid_chords(seed, tol):
    # Chords of the squared sigmoid on separable data, kept when their slope
    # on a grid never turns from positive to negative, so that phi is
    # unimodal.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 3))
    y = (x @ rng.standard_normal(3) > 0.0).astype(np.float64)
    loss = SquaredSigmoidLoss(TabularDataset(x, y))
    w, v = 3.0 * rng.standard_normal((2, 3))
    phi, dphi = loss._chord(w, v)
    signs = np.sign([dphi(g) for g in np.linspace(0.0, 1.0, 201)])
    assume(np.all(np.diff(signs[signs != 0.0]) >= 0.0))
    gamma = exact_line_search(phi, dphi, tol)
    assert abs(gamma - _minimizer_by_bisection(dphi)) <= tol


@settings(max_examples=50)
@given(_coefs, st.sampled_from(["constant", "nan", "nan-inside"]))
def test_exact_line_search_degenerate_slopes(level, kind):
    # A constant phi, and a slope that is not a number everywhere or inside
    # a valid bracket, give a step in [0, 1] without raising.
    if kind == "constant":
        dphi = lambda g: 0.0  # noqa: E731
    elif kind == "nan":
        dphi = lambda g: math.nan  # noqa: E731
    else:
        dphi = lambda g: {0.0: -1.0, 1.0: 1.0}.get(g, math.nan)  # noqa: E731
    gamma = exact_line_search(lambda g: level, dphi)
    assert 0.0 <= gamma <= 1.0


def test_exact_line_search_never_returns_a_nan_value():
    # phi is not a number inside (0, 1), so only an endpoint may win.
    gamma = exact_line_search(lambda g: -g if g in (0.0, 1.0) else math.nan,
                              lambda g: 2.0 * (g - 0.5))
    assert gamma == 1.0


def test_short_step_formula():
    assert short_step(8.0, 1.0, 1.0) == 1.0  # capped
    assert short_step(1.0, 0.5, 2.0) == pytest.approx(1.0 / 16.0)


def test_spa_batch_size_schedule():
    assert spa_batch_size(1, 100) == 1
    assert spa_batch_size(2, 100) == 16
    assert spa_batch_size(3, 100) == 81
    assert spa_batch_size(4, 100) == 100
    assert spa_batch_size(10, 100) == 100


# ---------------------------------------------------------------------------
# fw_run


def test_fw_linear_objective_one_step():
    # gamma_1 = 1 makes the first update jump exactly to the oracle vertex,
    # after which a linear objective pins every later iterate there.
    base = QuadraticLoss(TabularDataset(np.zeros((1, 3)), [0.0]))
    c = np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])
    h = PerturbedLoss(base, 1.0, c, 0.1)
    region = LpBall(p=2.0, r=1.0, d=3)
    trace = fw_run(h, region, PredefinedDecay(), iters=5, rng=np.random.default_rng(0))
    np.testing.assert_allclose(trace.final_point, region.lmo(c), atol=1e-12)
    assert trace.fw_gap[0] <= 1e-12


def test_fw_predefined_satisfies_rate_bound():
    loss, region, _ = _interior_problem()
    smooth = loss.smoothness()
    diam = region.euclidean_diameter()
    trace = fw_run(
        loss, region, PredefinedDecay(), iters=1000, rng=np.random.default_rng(1)
    )
    for t, f in zip(trace.t, trace.loss_f):
        assert f <= 2.0 * smooth * diam**2 / (t + 1.0) + 1e-9


def test_fw_line_search_finds_boundary_optimum():
    # f(w) = ||w - (2, 0)||^2 over the unit disk has its constrained
    # optimum at (1, 0).
    loss = _quadratic_centered([2.0, 0.0])
    region = LpBall(p=2.0, r=1.0, d=2)
    trace = fw_run(
        loss, region, ExactLineSearch(), iters=1000, rng=np.random.default_rng(2)
    )
    np.testing.assert_allclose(trace.final_point, [1.0, 0.0], atol=1e-3)
    assert trace.loss_f[-1] == pytest.approx(1.0, abs=1e-3)


def test_fw_line_search_monotone():
    loss, region, _ = _interior_problem()
    trace = fw_run(
        loss, region, ExactLineSearch(), iters=120, rng=np.random.default_rng(3)
    )
    diffs = np.diff(np.asarray(trace.loss_f))
    assert np.all(diffs <= 1e-10)


def test_fw_quadratic_rule_monotone_with_exact_smoothness():
    loss, region, _ = _interior_problem()
    rule = QuadraticLineSearch(smoothness=loss.smoothness())
    trace = fw_run(loss, region, rule, iters=120, rng=np.random.default_rng(4))
    diffs = np.diff(np.asarray(trace.loss_f))
    assert np.all(diffs <= 1e-10)


def test_fw_short_step_monotone_on_strongly_convex_set():
    prob = lsq_boundary_problem(seed=3, n=120, d=4, condition=5.0)
    rule = ShortStep(
        smoothness=prob.smoothness, alpha=prob.region.strong_convexity()
    )
    trace = fw_run(
        prob.loss, prob.region, rule, iters=200, rng=np.random.default_rng(5)
    )
    diffs = np.diff(np.asarray(trace.loss_f))
    assert np.all(diffs <= 1e-9)


def test_fw_iterates_feasible_and_recurrence_holds():
    loss, region, _ = _interior_problem()
    snaps = []
    trace = fw_run(
        loss,
        region,
        PredefinedDecay(),
        iters=60,
        rng=np.random.default_rng(6),
        on_iterate=snaps.append,
    )
    assert len(snaps) == 60
    w_prev = None
    for s in snaps:
        assert region.contains(s.w, tol=1e-8)
        if w_prev is not None:
            np.testing.assert_allclose(
                s.w, (1.0 - s.gamma) * w_prev + s.gamma * s.v, atol=1e-12
            )
        w_prev = s.w
    np.testing.assert_allclose(trace.final_point, snaps[-1].w, atol=0.0)


def test_fw_trace_rows_are_post_update():
    loss, region, _ = _interior_problem()
    snaps = []
    trace = fw_run(
        loss,
        region,
        PredefinedDecay(),
        iters=5,
        rng=np.random.default_rng(7),
        on_iterate=snaps.append,
    )
    for row, s in zip(trace.rows(), snaps):
        assert row[0] == s.t
        assert row[1] == pytest.approx(loss.evaluate(s.w), abs=0.0)


# ---------------------------------------------------------------------------
# pa_run


def test_pa_first_iteration_collapses():
    loss, region, _ = _interior_problem()
    rng = np.random.default_rng(8)
    init = default_init(region, np.random.default_rng(8))
    snaps = []
    pa_run(loss, region, option="A", iters=1, init=init, rng=rng,
           on_iterate=snaps.append)
    s = snaps[0]
    np.testing.assert_allclose(s.z, init, atol=1e-12)  # z_1 = v_0
    np.testing.assert_array_equal(s.p, loss.gradient(s.z))  # p_1 = grad
    np.testing.assert_allclose(s.w, s.v, atol=1e-12)  # w_1 = v_1


def test_pa_two_step_weighted_average():
    loss, region, _ = _interior_problem()
    snaps = []
    pa_run(
        loss,
        region,
        option="A",
        iters=2,
        rng=np.random.default_rng(9),
        on_iterate=snaps.append,
    )
    g1 = loss.gradient(snaps[0].z)
    g2 = loss.gradient(snaps[1].z)
    np.testing.assert_allclose(snaps[1].p, (1.0 * g1 + 2.0 * g2) / 3.0, atol=1e-12)


def test_pa_averaged_direction_matches_direct_sum():
    loss, region, _ = _interior_problem()
    snaps = []
    pa_run(
        loss,
        region,
        option="A",
        iters=50,
        rng=np.random.default_rng(10),
        on_iterate=snaps.append,
    )
    grads = [loss.gradient(s.z) for s in snaps]
    for t in range(1, 51):
        weights = np.arange(1, t + 1, dtype=np.float64)
        direct = sum(th * g for th, g in zip(weights, grads[:t]))
        direct /= t * (t + 1) / 2.0
        assert np.abs(snaps[t - 1].p - direct).max() <= 1e-10


def test_pa_option_b_uses_instantaneous_gradient():
    loss, region, _ = _interior_problem()
    snaps = []
    pa_run(
        loss,
        region,
        option="B",
        iters=20,
        rng=np.random.default_rng(11),
        on_iterate=snaps.append,
    )
    for s in snaps:
        np.testing.assert_array_equal(s.p, loss.gradient(s.z))


def test_pa_iterates_feasible():
    loss, region, _ = _interior_problem()
    snaps = []
    pa_run(
        loss,
        region,
        option="A",
        iters=80,
        rng=np.random.default_rng(12),
        on_iterate=snaps.append,
    )
    for s in snaps:
        assert region.contains(s.w, tol=1e-8)
        assert region.contains(s.z, tol=1e-8)


def test_pa_rejects_unknown_option():
    loss, region, _ = _interior_problem()
    with pytest.raises(ValueError):
        pa_run(loss, region, option="C", iters=5)


# ---------------------------------------------------------------------------
# spa_run


def test_spa_single_sample_matches_deterministic():
    # With one sample every batch is the full set, so the stochastic path
    # must replay option B exactly when starting from the same point.
    data = TabularDataset([[1.0, 0.5]], [0.3])
    loss = QuadraticLoss(data)
    region = LpBall(p=2.0, r=1.0, d=2)
    init = region.lmo(np.array([1.0, 1.0]))
    ta = spa_run(loss, region, iters=40, init=init, rng=np.random.default_rng(0))
    tb = pa_run(
        loss, region, option="B", iters=40, init=init, rng=np.random.default_rng(1)
    )
    np.testing.assert_array_equal(ta.loss_f, tb.loss_f)
    np.testing.assert_array_equal(ta.fw_gap, tb.fw_gap)
    assert list(ta.batch) == [1] * 40
    assert list(tb.batch) == [None] * 40


def test_spa_full_batch_updates_are_deterministic():
    # Once t^4 >= N the scaled stochastic direction collapses to the exact
    # gradient, so the oracle vertex must match the deterministic one.
    spec = SyntheticSpec(kind="regression", n=16, d=3, noise=0.05, seed=13)
    data, _ = gen_regression(spec)
    loss = QuadraticLoss(data)
    region = LpBall(p=2.0, r=1.0, d=3)
    snaps = []
    trace = spa_run(
        loss, region, iters=30, rng=np.random.default_rng(14), on_iterate=snaps.append
    )
    for s in snaps:
        if s.t >= 2:  # 2^4 = 16 = N
            np.testing.assert_array_equal(s.p, loss.gradient(s.z))
            np.testing.assert_allclose(
                s.v, region.lmo(loss.gradient(s.z)), atol=0.0
            )
    assert list(trace.batch)[:2] == [1, 16]


def test_spa_batch_column_follows_schedule():
    spec = SyntheticSpec(kind="regression", n=100, d=3, noise=0.05, seed=15)
    data, _ = gen_regression(spec)
    loss = QuadraticLoss(data)
    region = LpBall(p=2.0, r=1.0, d=3)
    trace = spa_run(loss, region, iters=6, rng=np.random.default_rng(16))
    assert list(trace.batch) == [1, 16, 81, 100, 100, 100]


def test_spa_tracks_deterministic_run():
    prob = lsq_boundary_problem(seed=11, n=256, d=8, condition=10.0)
    det = pa_run(
        prob.loss,
        prob.region,
        option="B",
        iters=300,
        rng=np.random.default_rng(11),
    )
    sto = spa_run(
        prob.loss, prob.region, iters=300, rng=np.random.default_rng(11)
    )
    gap_det = det.loss_f[-1] - prob.f_star
    gap_sto = sto.loss_f[-1] - prob.f_star
    assert gap_sto <= 2.0 * gap_det + 1e-10


# ---------------------------------------------------------------------------
# projected methods


def test_gd_one_step_exact():
    # f(w) = w^2 with eta = 1/L = 1/2 maps w0 = 1 to the minimizer in one step.
    loss = QuadraticLoss(TabularDataset([[1.0]], [0.0]))
    region = LpBall(p=2.0, r=1.0, d=1)
    trace = projected_gd_run(
        loss, region, eta=0.5, iters=1, init=np.array([1.0])
    )
    np.testing.assert_allclose(trace.final_point, [0.0], atol=0.0)


def test_gd_monotone_for_small_eta():
    loss, region, _ = _interior_problem()
    eta = 0.9 / loss.smoothness()
    trace = projected_gd_run(
        loss, region, eta=eta, iters=150, rng=np.random.default_rng(17)
    )
    diffs = np.diff(np.asarray(trace.loss_f))
    assert np.all(diffs <= 1e-10)


def test_gd_iterates_stay_feasible():
    # A large step rate forces the projection to do real work every round.
    loss = _quadratic_centered([5.0, -5.0])
    region = LpBall(p=2.0, r=1.0, d=2)
    snaps = []
    projected_gd_run(
        loss,
        region,
        eta=2.0,
        iters=40,
        rng=np.random.default_rng(18),
        on_iterate=snaps.append,
    )
    for s in snaps:
        assert region.contains(s.w, tol=1e-8)


def test_sgd_batch_capped_and_gamma_column_decays():
    spec = SyntheticSpec(kind="regression", n=8, d=2, noise=0.1, seed=19)
    data, _ = gen_regression(spec)
    loss = QuadraticLoss(data)
    region = LpBall(p=2.0, r=1.0, d=2)
    trace = projected_sgd_run(
        loss,
        region,
        eta0=0.1,
        batch=32,
        iters=5,
        rng=np.random.default_rng(20),
    )
    assert list(trace.batch) == [8] * 5  # requested batch larger than n
    expected = [0.1 / np.sqrt(t) for t in range(1, 6)]
    np.testing.assert_allclose(np.asarray(trace.gamma), expected, atol=0.0)


def test_sgd_full_batch_matches_gd_schedule_aside():
    # With batch = n the stochastic gradient equals the exact gradient, so
    # the first step (eta0 / sqrt(1) = eta0) must coincide with one GD step.
    spec = SyntheticSpec(kind="regression", n=8, d=2, noise=0.1, seed=21)
    data, _ = gen_regression(spec)
    loss = QuadraticLoss(data)
    region = LpBall(p=2.0, r=1.0, d=2)
    init = region.random_feasible(np.random.default_rng(22))
    t_sgd = projected_sgd_run(
        loss, region, eta0=0.05, batch=8, iters=1, init=init,
        rng=np.random.default_rng(23),
    )
    t_gd = projected_gd_run(loss, region, eta=0.05, iters=1, init=init)
    np.testing.assert_array_equal(t_sgd.final_point, t_gd.final_point)


def test_sgd_iterates_stay_feasible():
    loss = _quadratic_centered([3.0, 3.0, -3.0])
    region = LpBall(p=2.0, r=1.0, d=3)
    snaps = []
    projected_sgd_run(
        loss,
        region,
        eta0=1.0,
        batch=1,
        iters=60,
        rng=np.random.default_rng(24),
        on_iterate=snaps.append,
    )
    for s in snaps:
        assert region.contains(s.w, tol=1e-8)


# ---------------------------------------------------------------------------
# the set interface the run loop reads


def test_a_set_that_subclasses_nothing_runs_every_method():
    # The run loops read only shape, lmo, contains, project and dual_norm
    # (ShortStep's); an object with just those, delegated to an l_2 ball,
    # gives the ball's records bit for bit.
    spec = SyntheticSpec(kind="regression", n=20, d=4, noise=0.1, seed=3, w_norm=2.0)
    loss = QuadraticLoss(gen_regression(spec)[0])
    ball = LpBall(2.0, 0.5, 4)
    custom = types.SimpleNamespace(
        shape=ball.shape, lmo=ball.lmo, contains=ball.contains,
        project=ball.project, dual_norm=ball.dual_norm,
    )
    short = ShortStep(smoothness=loss.smoothness(), alpha=ball.strong_convexity())
    runs = {
        "fw/predefined": lambda s, rng: fw_run(loss, s, PredefinedDecay(), 15, rng=rng),
        "fw/short": lambda s, rng: fw_run(loss, s, short, 15, rng=rng),
        "pa": lambda s, rng: pa_run(loss, s, iters=15, rng=rng),
        "spa": lambda s, rng: spa_run(loss, s, iters=15, rng=rng),
        "gd": lambda s, rng: projected_gd_run(loss, s, 0.01, 15, rng=rng),
        "sgd": lambda s, rng: projected_sgd_run(loss, s, 0.01, 5, 15, rng=rng),
    }
    for name, run in runs.items():
        want = run(ball, np.random.default_rng(4))
        got = run(custom, np.random.default_rng(4))
        assert len(got) == 15, name
        assert got.records_equal(want), name


# ---------------------------------------------------------------------------
# guards and validation


def test_record_guard_raises_on_blowup():
    # eta far above 2/L makes plain gradient descent on an unconstrained-like
    # huge ball oscillate with exploding amplitude.
    loss = QuadraticLoss(TabularDataset([[1.0]], [0.0]))
    region = LpBall(p=2.0, r=1e30, d=1)
    with pytest.raises(DivergenceError):
        projected_gd_run(
            loss, region, eta=1e7, iters=200, init=np.array([1.0])
        )


def test_gradient_finite_guard():
    # Squaring 1e200 overflows inside the very first gradient evaluation.
    loss = QuadraticLoss(TabularDataset([[1e200]], [0.0]))
    region = LpBall(p=2.0, r=1e30, d=1)
    with np.errstate(over="ignore"), pytest.raises(NumericFailure):
        projected_gd_run(loss, region, eta=0.1, iters=3, init=np.array([1.0]))


def test_init_validation():
    loss, region, _ = _interior_problem()
    with pytest.raises(ValueError):
        fw_run(loss, region, PredefinedDecay(), iters=3, init=np.ones(5))
    with pytest.raises(ValueError):
        fw_run(loss, region, PredefinedDecay(), iters=3, init=np.ones(3) * 10.0)


def test_hooks_resolved_at_call_time(monkeypatch):
    # Instrumentation wraps these two names on the module; the step rules
    # must look them up on every call, not bind them once.  The run loop
    # computes its gap from the gradient and vertex it hands to the next
    # step and does not call the public fw_gap; the name stays importable.
    from projfree import optimizers

    calls = {"fw_gap": 0, "exact_line_search": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(optimizers, name, counting(name, getattr(optimizers, name)))
    loss, region, _ = _interior_problem()
    fw_run(loss, region, ExactLineSearch(), iters=5, rng=np.random.default_rng(7))
    assert calls == {"fw_gap": 0, "exact_line_search": 5}


def test_nonfinite_gradient_at_an_iterate_is_divergence():
    # w_0 = 0 has a zero gradient; at w_1 = 1e-290 the gradient overflows.
    loss = QuadraticLoss(TabularDataset([[1e300]], [0.0]))
    region = LpBall(2.0, 1e-290, 1)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
        fw_run(loss, region, PredefinedDecay(), 3, init=np.array([0.0]))
    assert err.value.iteration == 1


@pytest.mark.parametrize("kind", ["gd", "sgd"])
def test_overflowing_projected_step_is_divergence(kind):
    # w - eta g overflows before the projection sees it.  The run stops at
    # that iteration with no RuntimeWarning (an error under this suite).
    spec = SyntheticSpec(kind="regression", n=30, d=4, noise=0.1, seed=1)
    loss = QuadraticLoss(gen_regression(spec)[0])
    rng = np.random.default_rng(0)
    with pytest.raises(DivergenceError, match="pre-projection point") as err:
        if kind == "gd":
            projected_gd_run(loss, LpBall(2.0, 1.0, 4), 1.7e308, 5, rng=rng)
        else:
            projected_sgd_run(loss, LpBall(1.5, 1.0, 4), 1.7e308, 8, 5, rng=rng)
    assert err.value.iteration == 1


def test_final_point_outside_the_set_raises():
    class LeakyBall(LpBall):
        """Projects onto the sphere of radius 1.01 r."""

        def project(self, x):
            y = super().project(x)
            return y * (1.01 * self.r / np.linalg.norm(y))

    loss, _, _ = _interior_problem()
    region = LeakyBall(p=2.0, r=0.1, d=3)
    with pytest.raises(NumericFailure, match="final point"):
        projected_gd_run(loss, region, eta=0.01, iters=5, init=np.zeros(3))


def test_iteration_count_validation():
    loss, region, _ = _interior_problem()
    with pytest.raises(ValueError):
        fw_run(loss, region, PredefinedDecay(), iters=0)
    with pytest.raises(ValueError):
        projected_gd_run(loss, region, eta=0.1, iters=-1)


def test_eta_and_batch_validation():
    loss, region, _ = _interior_problem()
    with pytest.raises(ValueError):
        projected_gd_run(loss, region, eta=0.0, iters=3)
    with pytest.raises(ValueError):
        projected_sgd_run(loss, region, eta0=0.1, batch=0, iters=3)


# ---------------------------------------------------------------------------
# one gradient and one oracle call per iteration


def _count_calls(monkeypatch, owner, names, counts):
    """Wrap owner.<name> for each name, counting into counts[name]."""
    for name in names:
        counts.setdefault(name, 0)

        def wrapped(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize(
    "kind", ["fw", "fw-tilted", "gd", "pa-A", "pa-B", "spa", "sgd"]
)
def test_call_counts_per_iteration(monkeypatch, kind):
    base, region, _ = _interior_problem()
    tilted = PerturbedLoss(base, 0.05, np.array([0.6, 0.0, 0.8]), 0.1)
    counts = {}
    _count_calls(monkeypatch, base, ["evaluate", "gradient", "_value_and_gradient"],
                 counts)
    _count_calls(monkeypatch, region, ["lmo", "contains"], counts)
    iters, init, rng = 12, np.zeros(3), np.random.default_rng(3)
    runs = {
        "fw": lambda: fw_run(base, region, PredefinedDecay(), iters, init=init),
        "fw-tilted": lambda: fw_run(tilted, region, PredefinedDecay(), iters,
                                    init=init),
        "gd": lambda: projected_gd_run(base, region, 0.01, iters, init=init),
        "pa-A": lambda: pa_run(base, region, "A", iters, init=init),
        "pa-B": lambda: pa_run(base, region, "B", iters, init=init),
        "spa": lambda: spa_run(base, region, iters, init=init, rng=rng),
        "sgd": lambda: projected_sgd_run(base, region, 0.01, 5, iters, init=init,
                                         rng=rng),
    }
    # Full gradient and lmo calls: the gap makes one of each per iteration,
    # and FW and GD reuse its gradient (untilted FW its vertex too).  PA asks
    # at z and at its averaged p, never at the record's arrays.  SPA takes a
    # full gradient for each step whose batch is every sample.  The
    # record's gradient comes with the base loss's value from one call of
    # the unchecked _value_and_gradient, also under a tilt.
    full_batches = sum(spa_batch_size(t, base.n_samples) == base.n_samples
                       for t in range(1, iters + 1))
    expected = {
        "fw": (iters + 1, iters + 1),
        "fw-tilted": (iters + 1, 2 * iters),
        "gd": (iters + 1, iters),
        "pa-A": (2 * iters, 2 * iters),
        "pa-B": (2 * iters, 2 * iters),
        "spa": (iters + full_batches, 2 * iters),
        "sgd": (iters, iters),
    }
    runs[kind]()
    gradient, lmo = expected[kind]
    assert counts == {"evaluate": 0, "_value_and_gradient": iters,
                      "gradient": gradient - iters, "lmo": lmo, "contains": 2}


@pytest.mark.parametrize("kind", ["fw", "fw-tilted", "gd", "pa", "spa", "sgd"])
def test_finiteness_checks_per_iteration(monkeypatch, kind):
    from projfree import feasible_sets, losses, optimizers

    base, region, _ = _interior_problem()
    tilted = PerturbedLoss(base, 0.05, np.array([0.6, 0.0, 0.8]), 0.1)
    checks = [0]
    for module, name in ((losses, "as_shaped"), (feasible_sets, "as_shaped"),
                         (optimizers, "_guard_finite")):
        def counted(*args, _fn=getattr(module, name)):
            checks[0] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    iters, init, rng = 12, np.zeros(3), np.random.default_rng(3)
    runs = {
        "fw": lambda: fw_run(base, region, PredefinedDecay(), iters, init=init),
        "fw-tilted": lambda: fw_run(tilted, region, PredefinedDecay(), iters,
                                    init=init),
        "gd": lambda: projected_gd_run(base, region, 0.01, iters, init=init),
        "pa": lambda: pa_run(base, region, "A", iters, init=init),
        "spa": lambda: spa_run(base, region, iters, init=init, rng=rng),
        "sgd": lambda: projected_sgd_run(base, region, 0.01, 5, iters, init=init,
                                         rng=rng),
    }
    # Per iteration: the record's oracle, plus the step's oracle or
    # projection (FW reuses the record's vertex unless tilted) and the
    # gradient of an averaging or stochastic step; the record's loss call
    # checks nothing.  At the boundary: init and the final point, and the
    # first FW or GD step's own gradient (and FW's oracle call) at w_0.
    expected = {"fw": (1, 2), "fw-tilted": (2, 1), "gd": (2, 1),
                "pa": (3, 0), "spa": (3, 0), "sgd": (3, 0)}
    runs[kind]()
    per_iteration, first_step = expected[kind]
    assert checks[0] == per_iteration * iters + 2 + first_step


def test_nonfinite_iterate_stops_on_the_nonfinite_loss():
    class BrokenBall(LpBall):
        """An oracle that answers NaN: the iterate is not finite."""

        def lmo(self, c):
            return np.full(self.shape, np.nan)

    loss, _, _ = _interior_problem()
    with pytest.raises(NumericFailure, match="non-finite loss at iteration 1"):
        fw_run(loss, BrokenBall(p=2.0, r=1.0, d=3), PredefinedDecay(), 5,
               init=np.zeros(3))


@pytest.mark.parametrize("loss_cls", [SquaredSigmoidLoss, BiWeightLoss])
@pytest.mark.parametrize("method", ["fw", "pa", "gd"])
def test_an_infinite_vertex_stops_the_run_at_its_iteration(loss_cls, method):
    # Both losses stay finite at an infinite iterate (the squared sigmoid
    # saturates, the bi-weight loss is bounded), so only the recorded gap
    # can tell that the oracle's answer was not a number.
    class InfiniteFourthVertex(LpBall):
        calls = 0

        def lmo(self, c):
            self.calls += 1
            v = super().lmo(c)
            if self.calls == 4:
                v[0] = np.inf
            return v

    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 3))
    loss = loss_cls(TabularDataset(x, (x @ np.ones(3) > 0.0).astype(np.float64)))
    region = InfiniteFourthVertex(p=2.0, r=1.0, d=3)
    runs = {
        "fw": lambda: fw_run(loss, region, PredefinedDecay(), 10),
        "pa": lambda: pa_run(loss, region, "A", 10),
        "gd": lambda: projected_gd_run(loss, region, 0.1, 10),
    }
    # The 4th call answers at iteration 2 for FW (init, first step, two
    # records) and PA (init, a record and two steps), and at iteration 3
    # for GD (init and three records).
    t = 3 if method == "gd" else 2
    with pytest.raises(DivergenceError, match=f"non-finite gap at iteration {t}"):
        runs[method]()


@pytest.mark.parametrize("p", [1.5, 3.0, 1.0])
def test_schatten_arguments_are_checked_once(monkeypatch, p):
    # Each array of the set's shape that reaches a loss or set method is
    # checked for NaN and inf once: the PA step's gradient call and its
    # oracle call, and the record's oracle call, plus init and the final
    # point.  A Schatten method that ran as_shaped before numerics.svd's
    # own check made five passes per iteration.  p = 1.5 takes the Gram
    # oracle, p = 3 and p = 1 the SVD.
    observed, _ = gen_lowrank(
        SyntheticSpec(kind="lowrank", m=6, n=5, seed=47, rank=2, fraction=0.5)
    )
    loss = ObservedQuadraticLoss(observed)
    region = SchattenPBall(p=p, r=3.0, m=6, n=5)
    passes = [0]

    def isfinite(a, _fn=np.isfinite):
        passes[0] += np.shape(a) == region.shape
        return _fn(a)

    monkeypatch.setattr(np, "isfinite", isfinite)
    iters = 10
    pa_run(loss, region, option="A", iters=iters, init=np.zeros((6, 5)))
    assert passes[0] == 3 * iters + 2


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pa_on_schatten_ball_makes_two_spectral_calls_per_iteration(monkeypatch, p):
    from projfree import feasible_sets

    observed, _ = gen_lowrank(
        SyntheticSpec(kind="lowrank", m=6, n=5, seed=47, rank=2, fraction=0.5)
    )
    loss = ObservedQuadraticLoss(observed)
    region = SchattenPBall(p=p, r=3.0, m=6, n=5)
    counts = {}
    _count_calls(monkeypatch, feasible_sets, ["svd", "eigh"], counts)
    _count_calls(monkeypatch, region, ["contains"], counts)
    iters = 10
    pa_run(loss, region, option="A", iters=iters, init=np.zeros((6, 5)))
    # The step's and the gap's oracle calls: a Gram eigendecomposition each
    # for 1 < p <= 2, an SVD each otherwise.  The init and final-point
    # checks take an SVD each.
    gram = p <= 2.0
    assert counts == {"eigh": 2 * iters if gram else 0,
                      "svd": (0 if gram else 2 * iters) + 2, "contains": 2}


@pytest.mark.parametrize("method", ["pa", "fw"])
@pytest.mark.parametrize("r", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_observed_loss_overflow_stops_the_run_without_a_warning(p, r, method):
    # At these radii the squared residuals overflow: the loss value is inf,
    # and the run stops on it with no RuntimeWarning on the way.
    observed, _ = gen_lowrank(
        SyntheticSpec(kind="lowrank", m=6, n=5, seed=47, rank=2, fraction=0.5)
    )
    loss = ObservedQuadraticLoss(observed)
    region = SchattenPBall(p=p, r=r, m=6, n=5)
    runs = {"pa": lambda: pa_run(loss, region, "A", 10),
            "fw": lambda: fw_run(loss, region, PredefinedDecay(), 10)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="non-finite loss at iteration 1"):
            runs[method]()


@pytest.mark.parametrize("method", ["pa", "fw", "sgd"])
@pytest.mark.parametrize("r", [1e160, 1e200])
@pytest.mark.parametrize("n", [7, 12, 40])
def test_quadratic_loss_overflow_stops_the_run_without_a_warning(n, r, method):
    # d = 4: n = 7 works on the residual, 12 and 40 hold the Gram form.  Near
    # these radii the squared residuals overflow: the loss value is inf, and
    # the run stops on it with no RuntimeWarning on the way, also when SGD's
    # batch gradient squares them first.
    data, _ = gen_regression(SyntheticSpec(kind="regression", n=n, d=4, seed=5))
    loss = QuadraticLoss(data)
    region = LpBall(p=1.5, r=r, d=4)
    runs = {"pa": lambda: pa_run(loss, region, "A", 10),
            "fw": lambda: fw_run(loss, region, PredefinedDecay(), 10),
            "sgd": lambda: projected_sgd_run(loss, region, 1e-3, 3, 10)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="non-finite loss at iteration 1"):
            runs[method]()


def test_step_ms_includes_the_reused_gradient_and_oracle_call(monkeypatch):
    from projfree import optimizers

    clock = [0.0]
    monkeypatch.setattr(optimizers.time, "perf_counter", lambda: clock[0])
    base, region, _ = _interior_problem()
    lmo = region.lmo

    def slowed(fn):
        def slow(w):
            clock[0] += 0.005
            return fn(w)
        return slow

    def slow_lmo(c):
        clock[0] += 0.001
        return lmo(c)

    # The step from w_0 takes a gradient; later steps reuse the run loop's
    # _value_and_gradient call.
    for name in ("gradient", "_value_and_gradient"):
        monkeypatch.setattr(base, name, slowed(getattr(base, name)))
    monkeypatch.setattr(region, "lmo", slow_lmo)
    tilted = PerturbedLoss(base, 0.05, np.array([0.6, 0.0, 0.8]), 0.1)
    iters, init = 6, np.zeros(3)

    def assert_ms(column, values):
        assert column == pytest.approx(values, abs=1e-9, rel=0.0)

    # FW and GD are charged the record's 5 ms gradient, untilted FW its 1 ms
    # oracle call too; a tilted FW step makes its own oracle call.
    for loss in (base, tilted):
        trace = fw_run(loss, region, PredefinedDecay(), iters=iters,
                       init=init, record_timings=True)
        assert_ms(trace.step_ms, [6.0] * iters)
        assert_ms(trace.oracle_ms, [1.0] * iters)
        assert trace.proj_ms == [None] * iters
    for loss in (base, tilted):
        trace = projected_gd_run(loss, region, eta=0.01, iters=iters,
                                 init=init, record_timings=True)
        assert_ms(trace.step_ms, [5.0] * iters)
        assert_ms(trace.proj_ms, [0.0] * iters)
        assert trace.oracle_ms == [None] * iters
    # PA, SPA and SGD reuse nothing: a step pays for its own gradient (5 ms
    # when full, 0 for a batch) and its own oracle call or projection.
    for option in ("A", "B"):
        trace = pa_run(base, region, option, iters, init=init, record_timings=True)
        assert_ms(trace.step_ms, [6.0] * iters)
        assert_ms(trace.oracle_ms, [1.0] * iters)
    trace = spa_run(base, region, iters, init=init, rng=np.random.default_rng(3),
                    record_timings=True)
    assert_ms(trace.step_ms, [
        6.0 if spa_batch_size(t, base.n_samples) == base.n_samples else 1.0
        for t in range(1, iters + 1)
    ])
    assert_ms(trace.oracle_ms, [1.0] * iters)
    trace = projected_sgd_run(base, region, 0.01, 5, iters, init=init,
                              rng=np.random.default_rng(3), record_timings=True)
    assert_ms(trace.step_ms, [0.0] * iters)
    assert_ms(trace.proj_ms, [0.0] * iters)


def test_observer_arrays_are_not_mutated_after_the_snapshot():
    loss, region, _ = _interior_problem()
    runs = {
        "fw": lambda hook: fw_run(loss, region, PredefinedDecay(), 10,
                                  on_iterate=hook),
        "pa": lambda hook: pa_run(loss, region, "A", 10, on_iterate=hook),
        "spa": lambda hook: spa_run(loss, region, 10, on_iterate=hook),
        "gd": lambda hook: projected_gd_run(loss, region, 0.01, 10,
                                            on_iterate=hook),
        "sgd": lambda hook: projected_sgd_run(loss, region, 0.01, 5, 10,
                                              on_iterate=hook),
    }
    for name, run in runs.items():
        kept = []

        def hook(snap):
            arrays = [a for a in (snap.w, snap.p, snap.v, snap.z) if a is not None]
            kept.extend((a, a.copy()) for a in arrays)

        run(hook)
        assert kept, name
        for array, copy in kept:
            np.testing.assert_array_equal(array, copy, err_msg=name)


# ---------------------------------------------------------------------------
# determinism, timings, trace round-trip


def test_runs_are_deterministic():
    loss, region, _ = _interior_problem()
    a = fw_run(loss, region, PredefinedDecay(), iters=30,
               rng=np.random.default_rng(42))
    b = fw_run(loss, region, PredefinedDecay(), iters=30,
               rng=np.random.default_rng(42))
    assert a.records_equal(b)
    c = spa_run(loss, region, iters=30, rng=np.random.default_rng(43))
    d = spa_run(loss, region, iters=30, rng=np.random.default_rng(43))
    assert c.records_equal(d)


def _thread_traces(run, threads=4):
    """Traces of `threads` concurrent run() calls, started together on a
    short switch interval."""
    start = threading.Barrier(threads)

    def started():
        start.wait(timeout=60)
        return run()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            return [f.result(timeout=120) for f in
                    [pool.submit(started) for _ in range(threads)]]
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_one_wide_loss_match_a_serial_run():
    # The suite's thread pool shares cached problems, so a loss may keep no
    # per-call buffer: numpy releases the interpreter lock inside matmul.
    # n < 2d keeps the residual form.
    data, _ = gen_regression(SyntheticSpec(kind="regression", n=150, d=100, seed=9))
    loss = QuadraticLoss(data)
    region = LpBall(p=1.5, r=1.0, d=100)

    def run():
        return fw_run(loss, region, PredefinedDecay(), iters=150,
                      rng=np.random.default_rng(10))

    serial = run()
    traces = _thread_traces(run)
    assert loss._gram_form is None
    assert all(trace.records_equal(serial) for trace in traces)


def test_threads_that_first_touch_one_tall_loss_match_a_serial_run():
    # Four threads race on the first gradient of a fresh loss, so each may
    # build the Gram pair; each sees either none or a whole one, and every
    # build has the same bits.
    data, _ = gen_regression(SyntheticSpec(kind="regression", n=400, d=100, seed=9))
    region = LpBall(p=1.5, r=1.0, d=100)

    def run_on(loss):
        return lambda: fw_run(loss, region, PredefinedDecay(), iters=150,
                              rng=np.random.default_rng(10))

    serial = run_on(QuadraticLoss(data))()
    for _ in range(3):
        fresh = QuadraticLoss(data)
        traces = _thread_traces(run_on(fresh))
        assert fresh._gram_form is not None
        assert all(trace.records_equal(serial) for trace in traces)


def test_timings_toggle():
    loss, region, _ = _interior_problem()
    timed = fw_run(
        loss,
        region,
        PredefinedDecay(),
        iters=5,
        rng=np.random.default_rng(44),
        record_timings=True,
    )
    plain = fw_run(
        loss,
        region,
        PredefinedDecay(),
        iters=5,
        rng=np.random.default_rng(44),
        record_timings=False,
    )
    assert all(v is not None and v >= 0.0 for v in timed.step_ms)
    assert all(v is not None and v >= 0.0 for v in timed.oracle_ms)
    assert all(v is None for v in plain.step_ms)
    gd = projected_gd_run(
        loss,
        region,
        eta=0.01,
        iters=5,
        rng=np.random.default_rng(45),
        record_timings=True,
    )
    assert all(v is not None and v >= 0.0 for v in gd.proj_ms)
    assert all(v is None for v in gd.oracle_ms)


def test_trace_round_trip(tmp_path):
    loss, region, _ = _interior_problem()
    trace = fw_run(
        loss,
        region,
        PredefinedDecay(),
        iters=12,
        rng=np.random.default_rng(46),
        record_timings=True,
    )
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert trace.records_equal(loaded)


def test_schatten_run_smoke():
    # Matrix-valued iterates exercise the spectral oracle inside the loop.
    spec = SyntheticSpec(kind="lowrank", m=6, n=5, seed=47, rank=2, fraction=0.5)
    observed, _ = gen_lowrank(spec)
    loss = ObservedQuadraticLoss(observed)
    region = SchattenPBall(p=2.0, r=3.0, m=6, n=5)
    trace = fw_run(
        loss, region, PredefinedDecay(), iters=60, rng=np.random.default_rng(48)
    )
    assert trace.loss_f[-1] < trace.loss_f[0]
    assert region.contains(trace.final_point, tol=1e-8)


@pytest.mark.parametrize("first, second", [(5.0, 5.0 + 5e-12), (5.0 + 5e-12, 5.0)])
def test_tune_gd_eta_ties_go_to_the_largest_step(monkeypatch, first, second):
    # Probe losses a relative 1e-12 apart at 1/L and 1.9/L tie whichever is
    # lower; a diverging probe is dropped.
    losses = {0.25: 9.0, 0.5: 7.0, 1.0: first, 1.9: second}

    def probe(loss, region, eta, iters, init):
        if eta == 0.5:
            raise DivergenceError("probe diverged", 3)
        return types.SimpleNamespace(loss_f=[losses[eta]])

    monkeypatch.setattr(problems, "projected_gd_run", probe)
    assert problems.tune_gd_eta(None, None, 1.0, None) == 1.9
    losses[1.9] = 5.0 + 1e-6  # no longer a tie
    assert problems.tune_gd_eta(None, None, 1.0, None) == 1.0


# ---------------------------------------------------------------------------
# argument checks of the public helpers and run entry points


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: step_size_predefined(0),
                 "step schedule is defined for t >= 1, got 0", id="step-t"),
    pytest.param(lambda: theta_schedule(0),
                 "theta schedule is defined for t >= 1, got 0", id="theta-t"),
    pytest.param(lambda: line_search_quadratic(-1.0, 1.0, 0.0),
                 "smoothness must be > 0, got 0.0", id="quadratic-smoothness"),
    pytest.param(lambda: line_search_quadratic(-1.0, -1.0, 1.0),
                 "dist2 must be >= 0, got -1.0", id="quadratic-dist2"),
    pytest.param(lambda: short_step(1.0, 1.0, 0.0),
                 "smoothness must be > 0, got 0.0", id="short-smoothness"),
    pytest.param(lambda: short_step(1.0, 0.0, 1.0),
                 "alpha must be > 0, got 0.0", id="short-alpha"),
    pytest.param(lambda: short_step(-1.0, 1.0, 1.0),
                 "grad_dual_norm must be >= 0, got -1.0", id="short-dual-norm"),
    pytest.param(lambda: exact_line_search(lambda g: g, lambda g: 1.0, tol=0.0),
                 "tol must be > 0, got 0.0", id="exact-tol"),
    pytest.param(lambda: spa_batch_size(0, 10),
                 "batch schedule is defined for t >= 1, got 0", id="batch-t"),
    pytest.param(lambda: spa_batch_size(1, 0),
                 "n_samples must be >= 1, got 0", id="batch-n"),
])
def test_helpers_reject_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_sgd_rejects_a_nonpositive_initial_step():
    loss, region, _ = _interior_problem()
    with pytest.raises(ValueError, match="eta0 must be > 0, got 0.0"):
        projected_sgd_run(loss, region, eta0=0.0, batch=1, iters=3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda *problem: fw_run(*problem, QuadraticLineSearch(math.nan), 3),
                 "smoothness must be > 0, got nan", id="quadratic-smoothness"),
    pytest.param(lambda *problem: fw_run(*problem, ExactLineSearch(math.nan), 3),
                 "tol must be > 0, got nan", id="exact-tol"),
    pytest.param(lambda *problem: fw_run(*problem, ShortStep(math.nan, 1.0), 3),
                 "smoothness must be > 0, got nan", id="short-smoothness"),
    pytest.param(lambda *problem: fw_run(*problem, ShortStep(1.0, math.nan), 3),
                 "alpha must be > 0, got nan", id="short-alpha"),
    pytest.param(lambda *problem: projected_gd_run(*problem, math.nan, 3),
                 "eta must be > 0, got nan", id="gd-eta-nan"),
    pytest.param(lambda *problem: projected_gd_run(*problem, math.inf, 3),
                 "eta must be finite, got inf", id="gd-eta-inf"),
    pytest.param(lambda *problem: projected_sgd_run(*problem, math.nan, 1, 3),
                 "eta0 must be > 0, got nan", id="sgd-eta0-nan"),
    pytest.param(lambda *problem: projected_sgd_run(*problem, math.inf, 1, 3),
                 "eta0 must be finite, got inf", id="sgd-eta0-inf"),
])
def test_step_parameters_reject_nan_and_inf(call, message):
    # NaN fails every comparison, so `x <= 0` would pass it: the quadratic
    # rule would step gamma = 1 and the exact rule skip its search.  An
    # infinite eta is refused at the call, not at the first projection.
    loss, region, _ = _interior_problem()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(loss, region)


def test_fw_rejects_a_rule_without_a_step():
    loss, region, _ = _interior_problem()
    with pytest.raises(TypeError, match="unknown step rule: 'predefined'"):
        fw_run(loss, region, "predefined", iters=3)


def test_run_rejects_a_loss_of_another_shape():
    loss, _, _ = _interior_problem()
    with pytest.raises(ValueError, match=re.escape(
            "loss expects parameters of shape (3,), region has (4,)")):
        fw_run(loss, LpBall(2.0, 1.0, 4), PredefinedDecay(), iters=3)


def test_a_set_refusing_a_finite_point_raises_its_own_error():
    # Every array is finite, so the projection's ValueError is not a
    # divergence: the run re-raises it unchanged.
    observed, _ = gen_lowrank(
        SyntheticSpec(kind="lowrank", m=4, n=3, seed=5, rank=1, fraction=0.5)
    )
    region = GroupLpqBall(p=1.5, q=2.0, r=1.0, m=4, n=3)
    with pytest.raises(ValueError, match="needs inner exponent p = 2") as err:
        projected_gd_run(ObservedQuadraticLoss(observed), region, eta=0.1,
                         iters=3, init=np.zeros((4, 3)))
    assert not isinstance(err.value, DivergenceError)
