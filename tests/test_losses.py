"""Loss families: values, gradients, stochastic aggregates, smoothness.

Gradients are checked against central finite differences; the stochastic
aggregate is checked for exact full-batch recovery and Monte-Carlo
unbiasedness.
"""

import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from projfree import losses
from projfree.errors import NumericFailure
from projfree.feasible_sets import LpBall, SchattenPBall
from projfree.losses import (
    BiWeightLoss,
    LogisticLoss,
    Loss,
    ObservedMatrix,
    ObservedQuadraticLoss,
    QuadraticLoss,
    SquaredSigmoidLoss,
    TabularDataset,
)
from projfree.numerics import lambda_max_bound
from projfree.optimizers import ExactLineSearch, fw_run, pa_run
from projfree.perturbation import PerturbedLoss, make_perturbed


def _fd_gradient(loss, w, h=1e-5):
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        up = w.copy()
        dn = w.copy()
        up[idx] += h
        dn[idx] -= h
        g[idx] = (loss.evaluate(up) - loss.evaluate(dn)) / (2.0 * h)
        it.iternext()
    return g


def _toy_tabular(n, d, seed, labels=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if labels == "pm1":
        y = np.where(rng.standard_normal(n) > 0.0, 1.0, -1.0)
    elif labels == "01":
        y = (rng.standard_normal(n) > 0.0).astype(np.float64)
    else:
        y = rng.standard_normal(n)
    return TabularDataset(x, y)


def _toy_observed(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((4, 3))
    mask = rng.uniform(size=(4, 3)) < 0.6
    mask[0, 0] = True  # at least one entry
    return ObservedMatrix(values, mask)


def _all_losses():
    yield QuadraticLoss(_toy_tabular(12, 3, 0))
    yield QuadraticLoss(_toy_tabular(12, 3, 1), bias=True)
    yield LogisticLoss(_toy_tabular(12, 3, 2, labels="pm1"))
    yield LogisticLoss(_toy_tabular(12, 3, 3, labels="pm1"), bias=True)
    yield SquaredSigmoidLoss(_toy_tabular(12, 3, 4, labels="01"))
    yield SquaredSigmoidLoss(_toy_tabular(12, 3, 5, labels="01"), bias=True)
    yield BiWeightLoss(_toy_tabular(12, 3, 6))
    yield BiWeightLoss(_toy_tabular(12, 3, 7), bias=True)
    yield ObservedQuadraticLoss(_toy_observed(8))
    # Tall enough (8 d <= n) for the Gram-form gradient.
    yield QuadraticLoss(_toy_tabular(40, 3, 40))
    yield QuadraticLoss(_toy_tabular(40, 3, 41), bias=True)
    # Wide (n < d): smoothness() reads the n x n Gram matrix X X^T.
    yield QuadraticLoss(_toy_tabular(5, 9, 42))
    yield LogisticLoss(_toy_tabular(5, 9, 43, labels="pm1"), bias=True)


# ---------------------------------------------------------------------------
# values and gradients


def test_quadratic_single_sample():
    loss = QuadraticLoss(TabularDataset([[1.0]], [0.0]))
    assert loss.evaluate(np.array([2.0])) == pytest.approx(4.0)
    np.testing.assert_allclose(loss.gradient(np.array([2.0])), [4.0])


def test_observed_quadratic_zero_at_reference():
    obs = _toy_observed(3)
    loss = ObservedQuadraticLoss(obs)
    assert loss.evaluate(obs.values) == 0.0
    np.testing.assert_allclose(loss.gradient(obs.values), 0.0, atol=0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for loss in _all_losses():
        for _ in range(20):
            w = 0.7 * rng.standard_normal(loss.shape)
            got = loss.gradient(w)
            want = _fd_gradient(loss, w)
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-5 * scale, type(loss).__name__


@pytest.mark.parametrize("gamma", [0.0, 0.37, 1.0])
def test_chord_matches_evaluate_and_gradient(gamma):
    rng = np.random.default_rng(21)
    bases = list(_all_losses())
    tilts = [make_perturbed(base, 0.5, 2.0, 0.1, rng) for base in bases[4::4]]
    for loss in bases + tilts:
        w, v = 0.7 * rng.standard_normal((2, *loss.shape))
        phi, dphi = loss._chord(w, v)
        point = w + gamma * (v - w)
        value = loss.evaluate(point)
        slope = float(np.vdot(loss.gradient(point), v - w))
        name = type(getattr(loss, "base", loss)).__name__
        assert phi(gamma) == pytest.approx(value, rel=1e-12, abs=0.0), name
        assert dphi(gamma) == pytest.approx(slope, rel=1e-12, abs=0.0), name


def test_value_and_gradient_matches_separate_calls_bit_for_bit():
    rng = np.random.default_rng(22)
    bases = list(_all_losses())
    tilted = make_perturbed(bases[0], 0.5, 2.0, 0.1, rng)
    for loss in bases + [tilted]:
        for _ in range(5):
            w = 0.7 * rng.standard_normal(loss.shape)
            f, g = loss.value_and_gradient(w)
            name = type(getattr(loss, "base", loss)).__name__
            assert type(f) is float, name
            assert f == loss.evaluate(w), name
            np.testing.assert_array_equal(g, loss.gradient(w), err_msg=name)


def _values(loss, m, y):
    """Per-sample loss values of a tabular loss, each formula on its own:
    the reference for _terms(m, y)[0]."""
    if isinstance(loss, LogisticLoss):
        return np.logaddexp(0.0, -y * m)
    if isinstance(loss, SquaredSigmoidLoss):
        return (y - losses._sigmoid(m)) ** 2 / loss.n_samples
    if isinstance(loss, QuadraticLoss):
        return (m - y) ** 2
    r2 = (m - y) ** 2  # bi-weight
    return r2 / (1.0 + r2)


def _dmargin(loss, m, y):
    """Per-sample slopes d(loss)/d(margin): the reference for _terms(m, y)[1]."""
    if isinstance(loss, LogisticLoss):
        return -y * losses._sigmoid(-y * m)
    if isinstance(loss, SquaredSigmoidLoss):
        s = losses._sigmoid(m)
        return -2.0 * (y - s) * s * (1.0 - s) / loss.n_samples
    if isinstance(loss, QuadraticLoss):
        return 2.0 * (m - y)
    r = m - y  # bi-weight
    return 2.0 * r / (1.0 + r * r) ** 2


def _unmemoized_chord(loss, w, v):
    """The chord formulas from before the memoized probe, one pass each."""
    if isinstance(loss, PerturbedLoss):
        phi, dphi = _unmemoized_chord(loss.base, w, v)
        tilt_w = loss.theta * float(np.vdot(loss.xi, w))
        tilt_d = loss.theta * float(np.vdot(loss.xi, v - w))
        return (lambda g: phi(g) + tilt_w + g * tilt_d, lambda g: dphi(g) + tilt_d)
    if isinstance(loss, QuadraticLoss):
        r = loss._residuals(w)
        dr = loss._residuals(v) - r
        return (lambda g: float((r + g * dr) @ (r + g * dr)),
                lambda g: 2.0 * float((r + g * dr) @ dr))
    if isinstance(loss, ObservedQuadraticLoss):
        d = v - w
        return (lambda g: loss.evaluate(w + g * d),
                lambda g: float(np.vdot(loss.gradient(w + g * d), d)))
    mw, md = loss._margins(w), loss._margins(v - w)
    return (lambda g: float(np.sum(_values(loss, mw + g * md, loss._y))),
            lambda g: float(md @ _dmargin(loss, mw + g * md, loss._y)))


@pytest.mark.parametrize("phi_first", [True, False])
def test_memoized_chord_matches_unmemoized_formulas_bit_for_bit(phi_first):
    rng = np.random.default_rng(25)
    bases = list(_all_losses())
    tilted = make_perturbed(bases[4], 0.5, 2.0, 0.1, rng)
    for loss in bases + [tilted]:
        w, v = 0.7 * rng.standard_normal((2, *loss.shape))
        phi, dphi = loss._chord(w, v)
        old_phi, old_dphi = _unmemoized_chord(loss, w, v)
        name = type(getattr(loss, "base", loss)).__name__
        for gamma in (0.0, 1.0, 0.37, 1e-9):
            if phi_first:
                got = phi(gamma), dphi(gamma)
            else:
                got = tuple(reversed((dphi(gamma), phi(gamma))))
            assert got == (old_phi(gamma), old_dphi(gamma)), (name, gamma)
            assert (phi(gamma), dphi(gamma)) == got, (name, gamma)


def test_shared_terms_match_values_and_dmargin_bit_for_bit():
    rng = np.random.default_rng(26)
    far = [1e50, 1e76, 1e77, 1e154, 1e160, 1e300]
    m = np.concatenate([rng.standard_normal(200) * 10.0**rng.integers(-3, 3, 200),
                        [0.0, -0.0, 40.0, -40.0, 800.0, -800.0], far, np.negative(far)])
    for loss in _all_losses():
        if isinstance(loss, ObservedQuadraticLoss):
            continue  # no per-sample terms
        y = rng.choice(loss._y, m.size)
        if isinstance(loss, QuadraticLoss):  # r^2 overflows on the 12 far margins
            values, dm = loss._terms(m[:-12], y[:-12])
            assert values.tobytes() == _values(loss, m[:-12], y[:-12]).tobytes()
            assert dm.tobytes() == _dmargin(loss, m[:-12], y[:-12]).tobytes()
            continue
        values, dm = loss._terms(m, y)
        # The bi-weight's formulas overflow past |r| = 1e76; there the test
        # below checks _terms against exact values.
        keep = (np.abs(m - y) <= 1e76 if isinstance(loss, BiWeightLoss)
                else np.ones(m.size, dtype=bool))
        mk, yk = m[keep], y[keep]
        assert values[keep].tobytes() == _values(loss, mk, yk).tobytes()
        assert dm[keep].tobytes() == _dmargin(loss, mk, yk).tobytes()


def test_biweight_terms_are_exact_far_from_the_fit():
    # From |r| = 1e76 to 1e300 the value is 1 and the slope 2 r / (1 + r^2)^2
    # to within 4 ulps, with no overflow on the way.
    loss = BiWeightLoss(_toy_tabular(4, 2, 31))
    r = np.concatenate([np.logspace(76, 300, 300), -np.logspace(76, 300, 300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, dm = loss._terms(r, np.zeros(r.size))
    assert (values == 1.0).all()
    for ri, got in zip(r, dm):
        x = Fraction(float(ri))
        want = float(2 * x / (1 + x * x) ** 2)
        assert abs(got - want) <= 4 * np.spacing(abs(want)), ri
    # A model 1e160 away from the data: each sample adds 1, and the run's
    # finiteness guards have nothing to catch.
    f, g = loss.value_and_gradient(np.full(2, 1e160))
    assert f == pytest.approx(4.0) and np.isfinite(g).all()


def test_biweight_far_residuals_leave_the_others_alone():
    # One far residual sends the whole call down the far path; the near
    # ones keep the bits of the formulas, and a NaN stays NaN quietly.
    loss = BiWeightLoss(_toy_tabular(4, 2, 31))
    m = np.array([0.5, -3.0, 1e100, np.nan, -0.0, 1e76])
    y = np.zeros(m.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, dm = loss._terms(m, y)
    near = [0, 1, 4, 5]
    assert values[near].tobytes() == _values(loss, m[near], y[near]).tobytes()
    assert dm[near].tobytes() == _dmargin(loss, m[near], y[near]).tobytes()
    assert values[2] == 1.0 and dm[2] == 2.0 / 1e100 / 1e100 / 1e100
    assert np.isnan(values[3]) and np.isnan(dm[3])


class _PseudoHuber(Loss):
    """sum_i sqrt(1 + (w_i - c_i)^2): a user loss that defines only what a
    Loss must, so evaluate, gradient and _chord are the base class's."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=np.float64)
        self.shape = self.center.shape
        self.n_samples = self.center.size

    def value_and_gradient(self, w):
        diff = np.asarray(w, dtype=np.float64) - self.center
        root = np.sqrt(1.0 + diff * diff)
        return float(root.sum()), diff / root

    def stochastic_gradient(self, w, indices):
        idx = self._check_indices(indices)
        g = np.zeros(self.shape)
        g[idx] = self.gradient(w)[idx]
        return (self.n_samples / idx.size) * g

    def smoothness(self):
        return 1.0


def test_user_loss_defines_only_value_and_gradient():
    loss = _PseudoHuber([0.3, -0.2, 0.1])
    rng = np.random.default_rng(32)
    for _ in range(5):
        w = rng.standard_normal(3)
        f, g = loss.value_and_gradient(w)
        assert loss.evaluate(w) == f
        assert loss.gradient(w).tobytes() == g.tobytes()
        np.testing.assert_allclose(g, _fd_gradient(loss, w), atol=1e-8)
    ball = LpBall(p=2.0, r=1.0, d=3)
    f_star = 3.0  # the center lies inside the ball
    fw = fw_run(loss, ball, ExactLineSearch(tol=1e-10), 100,
                rng=np.random.default_rng(33))
    pa = pa_run(loss, ball, "A", 100, rng=np.random.default_rng(34))
    for trace in (fw, pa):
        assert trace.loss_f[-1] - f_star < 1e-3 * (trace.loss_f[0] - f_star)
    # The exact rule's chord is the base class's probe of value_and_gradient.
    w, v = ball.lmo(np.ones(3)), ball.lmo(-np.ones(3))
    phi, dphi = loss._chord(w, v)
    assert phi(0.25) == loss.evaluate(w + 0.25 * (v - w))


def _count_sigmoid_calls(monkeypatch):
    calls = []
    sigmoid = losses._sigmoid

    def counted(z):
        calls.append(z.size)
        return sigmoid(z)

    monkeypatch.setattr(losses, "_sigmoid", counted)
    return calls


def test_squared_sigmoid_value_and_gradient_is_one_pass(monkeypatch):
    loss = SquaredSigmoidLoss(_toy_tabular(50, 3, 27, labels="01"))
    calls = _count_sigmoid_calls(monkeypatch)
    loss.value_and_gradient(np.array([0.3, -0.2, 0.5]))
    assert len(calls) == 1


def test_line_search_step_is_one_pass_per_distinct_step_size(monkeypatch):
    # Building the chord takes two margin products and no sigmoid; after
    # that each distinct gamma probed by phi or dphi costs one pass.
    loss = SquaredSigmoidLoss(_toy_tabular(200, 3, 28, labels="01"))
    rng = np.random.default_rng(29)
    probed = []
    chord = loss._chord

    def recorded_chord(w, v):
        phi, dphi = chord(w, v)
        return (lambda g: probed.append(g) or phi(g),
                lambda g: probed.append(g) or dphi(g))

    monkeypatch.setattr(loss, "_chord", recorded_chord)
    calls = _count_sigmoid_calls(monkeypatch)
    for _ in range(10):
        w, v = 3.0 * rng.standard_normal((2, 3))
        probed.clear()
        calls.clear()
        ExactLineSearch(tol=1e-8).step(1, loss, None, w, v, None)
        assert len(probed) > len(set(probed)) >= 2
        assert len(calls) == len(set(probed))


def test_chord_memo_keeps_no_per_sample_arrays():
    n = 100_000
    loss = SquaredSigmoidLoss(_toy_tabular(n, 3, 30, labels="01"))
    phi, dphi = loss._chord(np.zeros(3), np.array([1.0, -1.0, 0.5]))
    gammas = np.linspace(0.0, 1.0, 500)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k, gamma in enumerate(gammas):
            phi(float(gamma))
            dphi(float(gamma))
            if k % 50 == 49:  # fail before a leak of arrays grows large
                kept = tracemalloc.get_traced_memory()[0] - start
                assert kept < 8 * n, (k, kept)
    finally:
        tracemalloc.stop()
    assert kept <= 500 * 400  # a few hundred bytes per probe, whatever n is


def test_residual_value_and_gradient_allocates_one_vector_of_each_length():
    # The residual form keeps one n-vector and one d-vector alive and no
    # buffer on the loss, which threads may share.
    n, d = 2000, 1000
    loss = QuadraticLoss(_toy_tabular(n, d, 23))
    assert loss._gram is None
    w = np.random.default_rng(24).standard_normal(d)
    loss.value_and_gradient(w)  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        loss.value_and_gradient(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n + d) + 1024


def _sigmoid_masked(z):
    # The boolean-mask form that losses._sigmoid replaced, kept as reference.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("n", [40, 500, 2000, 200_000])
def test_sigmoid_matches_masked_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    edges = [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 800.0, -800.0]
    z = np.concatenate([edges, 800.0 * rng.uniform(-1.0, 1.0, n), rng.standard_normal(n)])
    got, want = losses._sigmoid(z), _sigmoid_masked(z)
    assert got.tobytes() == want.tobytes()


def _residual_gradient(data, w, bias):
    """2 X^T r with the residual r from its definition."""
    r = data.features @ w - data.targets
    if bias:
        r -= np.mean(r)
    return 2.0 * (data.features.T @ r)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("n", [39, 40, 400])
def test_gram_gradient_matches_residual_pullback(n, bias):
    # d = 5: n = 39 keeps the residual form, 40 and 400 take the Gram form.
    data = _toy_tabular(n, 5, 50 + n)
    loss = QuadraticLoss(data, bias=bias)
    assert (loss._gram is not None) == (8 * 5 <= n)
    rng = np.random.default_rng(51)
    for _ in range(20):
        w = 2.0 * rng.standard_normal(5)
        want = _residual_gradient(data, w, bias)
        got = loss.gradient(w)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("bias", [False, True])
def test_batch_gradient_matches_full_residual_rows(bias):
    # The batch form computes residuals for its own rows only; with the
    # intercept profiled out, those are rows of the centred data.
    data = _toy_tabular(60, 4, 52)
    loss = QuadraticLoss(data, bias=bias)
    x, y = data.features, data.targets
    if bias:
        x, y = x - x.mean(axis=0), y - np.mean(y)
    rng = np.random.default_rng(53)
    for size in (1, 7, 59):
        w = rng.standard_normal(4)
        idx = np.sort(rng.choice(60, size=size, replace=False))
        r = x @ w - y
        want = (60 / size) * 2.0 * (x[idx].T @ r[idx])
        got = loss.stochastic_gradient(w, idx)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _offset_tabular(n, d, seed):
    """Features with mean 50 and a target with an intercept of 3."""
    rng = np.random.default_rng(seed)
    x = 50.0 + rng.standard_normal((n, d))
    return TabularDataset(x, x @ rng.standard_normal(d) + 3.0 + rng.standard_normal(n))


@pytest.mark.parametrize("n", [30, 400])
def test_quadratic_bias_smoothness_is_the_centred_hessian(n):
    # d = 5: n = 30 keeps the residual form, 400 takes the Gram form.  The
    # uncentred X^T X would give an L about 1e4 times too large here.
    data = _offset_tabular(n, 5, 54)
    loss = QuadraticLoss(data, bias=True)
    xc = data.features - data.features.mean(axis=0)
    exact = 2.0 * float(np.linalg.eigvalsh(xc.T @ xc)[-1])
    # The gradient is affine, so a unit central difference is exact up to
    # rounding.
    w = np.random.default_rng(55).standard_normal(5)
    cols = [(loss.gradient(w + e) - loss.gradient(w - e)) / 2.0 for e in np.eye(5)]
    hessian = np.array(cols)
    top = float(np.linalg.eigvalsh(0.5 * (hessian + hessian.T))[-1])
    assert top <= loss.smoothness() <= 1.0001 * exact


def test_quadratic_bias_batch_gradient_is_a_samples_own_term():
    # Each batch row pulls back with its centred features, so the batch
    # gradient scatters about the full one by the data's spread, not by
    # the feature means (about 40 |grad f| with uncentred rows).
    data = _offset_tabular(2000, 5, 56)
    loss = QuadraticLoss(data, bias=True)
    rng = np.random.default_rng(57)
    w = 0.3 * rng.standard_normal(5)
    g = loss.gradient(w)
    errs = [loss.stochastic_gradient(w, rng.choice(2000, 8, replace=False)) - g
            for _ in range(400)]
    rms = np.sqrt(np.mean(np.sum(np.square(errs), axis=1)))
    assert rms <= 2.0 * np.linalg.norm(g)


@pytest.mark.parametrize("n", [30, 400])
def test_quadratic_bias_matches_the_profiled_intercept(n):
    # The value is the one the intercept re-solved from the residual mean
    # gives.  The gradient's reference is the centred form in long double:
    # the uncentred pullback X^T r loses digits to the feature means here
    # (1.3e-12 relative at n = 30).
    data = _offset_tabular(n, 5, 58)
    loss = QuadraticLoss(data, bias=True)
    x, y = data.features.astype(np.longdouble), data.targets.astype(np.longdouble)
    xc, yc = x - x.mean(axis=0), y - y.mean()
    rng = np.random.default_rng(59)
    for _ in range(10):
        w = rng.standard_normal(5)
        f, g = loss.value_and_gradient(w)
        r = data.features @ w
        r += np.mean(data.targets - r)
        r -= data.targets
        assert abs(f - float(r @ r)) <= 1e-13 * f
        rl = xc @ w - yc
        assert abs(f - float(rl @ rl)) <= 1e-13 * f
        want = (2 * (xc.T @ rl)).astype(np.float64)
        assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)
        np.testing.assert_array_equal(loss.gradient(w), g)


@pytest.mark.parametrize("n", [20, 40])
def test_overflowing_gram_is_a_numeric_failure(n):
    # d = 3: n = 40 builds G = X^T X with the quadratic loss, n = 20 forms
    # it only in smoothness().  Either way no warning escapes (RuntimeWarning
    # is an error under this suite).
    x = 1e160 * np.random.default_rng(60).standard_normal((n, 3))
    data = TabularDataset(x, np.ones(n))
    with pytest.raises(NumericFailure, match="X\\^T X overflows"):
        QuadraticLoss(data).smoothness()
    with pytest.raises(NumericFailure, match="X\\^T X overflows"):
        LogisticLoss(data).smoothness()


def test_losses_are_nonnegative():
    rng = np.random.default_rng(9)
    for loss in _all_losses():
        for _ in range(10):
            w = 2.0 * rng.standard_normal(loss.shape)
            assert loss.evaluate(w) >= 0.0


def test_biweight_bounded_by_sample_count():
    data = _toy_tabular(30, 4, 10)
    loss = BiWeightLoss(data)
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = 100.0 * rng.standard_normal(4)
        assert loss.evaluate(w) < data.n


def test_squared_sigmoid_normalized_by_n():
    # Per-sample terms are squared differences of values in [0, 1], so the
    # 1/n normalization keeps the total at most 1.
    loss = SquaredSigmoidLoss(_toy_tabular(25, 3, 11, labels="01"))
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert loss.evaluate(3.0 * rng.standard_normal(3)) <= 1.0


def test_quadratic_bias_solves_intercept_exactly():
    data = _toy_tabular(20, 3, 12)
    loss = QuadraticLoss(data, bias=True)
    w = np.array([0.3, -0.2, 0.1])
    m = data.features @ w
    # scan cannot beat the closed-form intercept
    best = min(
        float(np.sum((m + b - data.targets) ** 2))
        for b in np.linspace(-3.0, 3.0, 20001)
    )
    val = loss.evaluate(w)
    assert val <= best + 1e-9
    assert loss.shape == (3,)  # intercept is not a model coordinate


def test_appended_bias_feature_extends_shape():
    loss = LogisticLoss(_toy_tabular(10, 3, 13, labels="pm1"), bias=True)
    assert loss.shape == (4,)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError):
        LogisticLoss(_toy_tabular(10, 2, 14, labels="01"))


def test_model_shape_mismatch():
    # Every entry point checks the model the same way, the batch gradient too.
    for loss in _all_losses():
        wrong = np.ones(tuple(k + 1 for k in loss.shape))
        for call in (loss.evaluate, loss.gradient, loss.value_and_gradient,
                     lambda w: loss.stochastic_gradient(w, [0, 1])):
            with pytest.raises(ValueError, match="expected shape"):
                call(wrong)
            with pytest.raises(ValueError, match="non-finite"):
                call(np.full(loss.shape, np.nan))


# ---------------------------------------------------------------------------
# stochastic gradients


def test_full_index_set_reproduces_gradient_exactly():
    for loss in _all_losses():
        rng = np.random.default_rng(20)
        w = rng.standard_normal(loss.shape)
        idx = np.arange(loss.n_samples)
        np.testing.assert_array_equal(
            loss.stochastic_gradient(w, idx), loss.gradient(w)
        )


def test_shuffled_full_index_set_reproduces_gradient_exactly():
    # Indices are sorted internally, so ordering cannot change the result.
    loss = QuadraticLoss(_toy_tabular(16, 3, 21))
    rng = np.random.default_rng(2)
    w = rng.standard_normal(3)
    idx = rng.permutation(16)
    np.testing.assert_array_equal(loss.stochastic_gradient(w, idx), loss.gradient(w))


def test_single_sample_dataset():
    loss = QuadraticLoss(TabularDataset([[2.0, 1.0]], [1.0]))
    w = np.array([0.5, -0.5])
    np.testing.assert_array_equal(loss.stochastic_gradient(w, [0]), loss.gradient(w))


def test_stochastic_gradient_unbiased_monte_carlo():
    loss = QuadraticLoss(_toy_tabular(16, 2, 3))
    rng = np.random.default_rng(0)
    w = np.array([0.4, -0.7])
    exact = loss.gradient(w)
    draws = 10_000
    batch = 4
    samples = np.empty((draws, 2))
    for k in range(draws):
        idx = rng.choice(16, size=batch, replace=False)
        samples[k] = loss.stochastic_gradient(w, idx)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mean - exact) <= 2.0 * se)


def test_stochastic_gradient_index_validation():
    loss = QuadraticLoss(_toy_tabular(8, 2, 22))
    w = np.zeros(2)
    with pytest.raises(ValueError):
        loss.stochastic_gradient(w, [])
    with pytest.raises(ValueError):
        loss.stochastic_gradient(w, [8])
    with pytest.raises(ValueError):
        loss.stochastic_gradient(w, [-1])


def test_observed_quadratic_matches_boolean_mask_form_bit_for_bit():
    obs = _toy_observed(25)
    loss = ObservedQuadraticLoss(obs)
    mask, values = obs.mask, obs.values
    rng = np.random.default_rng(26)
    for _ in range(5):
        w = rng.standard_normal(obs.shape)
        diff = (w - values)[mask]
        assert loss.evaluate(w) == float(diff @ diff)
        want = np.zeros(obs.shape)
        want[mask] = 2.0 * (w[mask] - values[mask])
        np.testing.assert_array_equal(loss.gradient(w), want)


def test_observed_quadratic_stochastic_scaling():
    obs = _toy_observed(23)
    loss = ObservedQuadraticLoss(obs)
    rng = np.random.default_rng(4)
    w = rng.standard_normal(obs.shape)
    g1 = loss.stochastic_gradient(w, [0])
    # one observed entry contributes everywhere-zero except its own cell
    assert np.count_nonzero(g1) <= 1
    np.testing.assert_array_equal(
        loss.stochastic_gradient(w, np.arange(loss.n_samples)), loss.gradient(w)
    )


# ---------------------------------------------------------------------------
# dataset containers


def test_tabular_dataset_row_mismatch():
    with pytest.raises(ValueError):
        TabularDataset(np.ones((3, 2)), np.ones(4))


def test_observed_matrix_validation():
    with pytest.raises(ValueError):
        ObservedMatrix(np.ones((2, 2)), np.zeros((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        ObservedMatrix(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))


# ---------------------------------------------------------------------------
# smoothness


def _fd_hessian(loss, w, h=1e-5):
    """Central-difference Hessian of a loss of any shape, as a square matrix."""
    cols = []
    for idx in np.ndindex(*w.shape):
        up = w.copy()
        dn = w.copy()
        up[idx] += h
        dn[idx] -= h
        cols.append(((loss.gradient(up) - loss.gradient(dn)) / (2.0 * h)).ravel())
    hess = np.array(cols).T
    return 0.5 * (hess + hess.T)


def _smoothness_cases():
    """(id, loss, region) for every loss kind; small radii keep the
    logistic and sigmoid points near w = 0, where their curvature peaks."""
    def ball(d, r=0.5):
        return LpBall(p=2.0, r=r, d=d)

    rng = np.random.default_rng(30)
    x = rng.standard_normal((15, 3))
    wide = TabularDataset(x, rng.uniform(-0.5, 1.5, size=15))
    cases = []
    for bias in (False, True):
        k = 4 if bias else 3  # the appended intercept coordinate
        logistic = LogisticLoss(_toy_tabular(15, 3, 32, labels="pm1"), bias)
        cases += [
            (f"quadratic-bias{bias}",
             QuadraticLoss(_toy_tabular(15, 3, 31), bias), ball(3, 3.0)),
            (f"logistic-bias{bias}", logistic, ball(k, 0.1)),
            (f"biweight-bias{bias}",
             BiWeightLoss(_toy_tabular(15, 3, 33), bias), ball(k, 2.0)),
        ]
    sig = SquaredSigmoidLoss(_toy_tabular(15, 3, 34, labels="01"))
    cases += [
        ("sigmoid-01", sig, ball(3, 3.0)),
        ("sigmoid-wide", SquaredSigmoidLoss(wide), ball(3, 3.0)),
        ("observed-quadratic", ObservedQuadraticLoss(_toy_observed(35)),
         SchattenPBall(1.5, 2.0, 4, 3)),
        ("tilted-sigmoid",
         make_perturbed(sig, 0.1, 6.0, 0.1, np.random.default_rng(36)), ball(3, 3.0)),
    ]
    return cases


_SMOOTHNESS_CASES = _smoothness_cases()


@pytest.mark.parametrize(
    "loss, region", [c[1:] for c in _SMOOTHNESS_CASES],
    ids=[c[0] for c in _SMOOTHNESS_CASES],
)
def test_smoothness_bounds_gradient_ratios_and_hessian(loss, region):
    bound = loss.smoothness()
    rng = np.random.default_rng(37)
    ratio = 0.0
    for _ in range(200):
        u = region.random_feasible(rng)
        v = region.random_feasible(rng)
        du = loss.gradient(u) - loss.gradient(v)
        ratio = max(ratio, float(np.linalg.norm(du) / np.linalg.norm(u - v)))
    assert 0.0 < ratio <= bound
    spectral = max(
        np.abs(np.linalg.eigvalsh(_fd_hessian(loss, region.random_feasible(rng)))).max()
        for _ in range(20)
    )
    assert spectral <= bound * (1.0 + 1e-6)


def test_squared_sigmoid_curvature_constants():
    # sup over s of |A(s) - y B(s)| for targets y at distance e outside [0, 1].
    s = np.linspace(0.0, 1.0, 200_001)
    a = 2.0 * s**2 * (1.0 - s) * (2.0 - 3.0 * s)
    b = 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
    assert np.abs(a).max() == pytest.approx(0.154059, abs=1e-6)
    assert np.abs(b).max() == pytest.approx(1.0 / (3.0 * np.sqrt(3.0)), rel=1e-9)
    for e in (0.0, 0.5, 3.0):
        peak = max(np.abs(a - y * b).max() for y in (-e, 0.0, 1.0, 1.0 + e))
        assert peak <= 0.1541 + 0.19246 * e
    # The curvature bound reads e off the targets.
    x = np.ones((4, 1))
    assert SquaredSigmoidLoss(TabularDataset(x, [0, 1, 0, 1])).smoothness() == (
        pytest.approx(0.1541, rel=1e-7)
    )
    loss = SquaredSigmoidLoss(TabularDataset(x, [-0.5, 1.25, 0, 1]))
    assert loss.smoothness() == pytest.approx(0.1541 + 0.5 * 0.19246, rel=1e-7)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("n", [39, 400])
def test_quadratic_smoothness_forms_the_gram_matrix_once(monkeypatch, n, bias):
    # d = 5: n = 39 forms X^T X for smoothness() alone; at n = 400 the Gram
    # form holds it from construction and smoothness() reuses it.
    calls = []
    gram = losses._gram
    monkeypatch.setattr(losses, "_gram", lambda x: calls.append(x) or gram(x))
    loss = QuadraticLoss(_toy_tabular(n, 5, 56), bias=bias)
    value = loss.smoothness()
    assert len(calls) == 1
    assert value == 2.0 * lambda_max_bound(gram(loss._x))


@pytest.mark.parametrize("kind", [QuadraticLoss, LogisticLoss])
def test_wide_data_smoothness_forms_only_the_small_gram_matrix(monkeypatch, kind):
    # X X^T has the nonzero eigenvalues of X^T X: at n = 30, d = 2000 that
    # is a 7 kB matrix where X^T X would take 32 MB.
    n, d = 30, 2000
    data = _toy_tabular(n, d, 57, labels="pm1")
    loss = kind(data)
    shapes = []
    gram = losses._gram
    monkeypatch.setattr(losses, "_gram",
                        lambda x: shapes.append(x.shape) or gram(x))
    tracemalloc.start()
    try:
        value = loss.smoothness()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == [(d, n)]  # the Gram matrix of X^T, that is X X^T
    assert peak < 8 * d * d // 10
    sigma = float(np.linalg.svd(data.features, compute_uv=False)[0])
    want = kind._CURVATURE * sigma**2
    assert want <= value <= want * (1.0 + 1e-7)


def test_smoothness_delegates_keep_their_names():
    loss = QuadraticLoss(_toy_tabular(15, 3, 38))
    region = LpBall(p=2.0, r=1.0, d=3)
    assert loss.exact_smoothness() == loss.smoothness()
    assert losses.estimate_smoothness(loss, region) == loss.smoothness()


def test_exact_smoothness_identity_features():
    loss = QuadraticLoss(TabularDataset(np.eye(3), np.zeros(3)))
    assert loss.smoothness() == pytest.approx(2.0, rel=1e-7)


def test_exact_smoothness_diagonal_features():
    loss = QuadraticLoss(TabularDataset(np.diag([1.0, 2.0]), np.zeros(2)))
    assert loss.smoothness() == pytest.approx(8.0, rel=1e-7)


def test_exact_smoothness_matches_eigensolver():
    data = _toy_tabular(40, 5, 24)
    loss = QuadraticLoss(data)
    x = data.features
    ref = 2.0 * float(np.linalg.eigvalsh(x.T @ x)[-1])
    assert loss.smoothness() == pytest.approx(ref, rel=1e-6)


def test_estimated_smoothness_dominates_hessian_probes():
    data = _toy_tabular(8, 2, 5, labels="01")
    loss = SquaredSigmoidLoss(data)
    region = LpBall(p=2.0, r=1.0, d=2)
    bound = loss.smoothness()
    rng = np.random.default_rng(1)
    for _ in range(20):
        hess = _fd_hessian(loss, region.random_feasible(rng))
        assert bound >= float(np.abs(np.linalg.eigvalsh(hess)).max()) * (1.0 - 1e-6)


@pytest.mark.parametrize("n, d, product", [(3, 6, "X X^T"), (6, 3, "X^T X")],
                         ids=["wide", "tall"])
def test_overflowing_smoothness_names_the_product_it_formed(n, d, product):
    # Wide data (n < d) forms the n x n X X^T, tall data the d x d X^T X;
    # neither size of loss holds a Gram matrix of its own.
    data = _toy_tabular(n, d, 62)
    loss = QuadraticLoss(TabularDataset(1e160 * data.features, data.targets))
    with pytest.raises(NumericFailure, match=f"^{re.escape(product)} overflows"):
        loss.smoothness()
