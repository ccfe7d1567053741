"""Projection-free and projected first-order methods.

All five run functions share one loop, `_drive`: it checks the iteration
count and the starting point, times each update, records the diagnostics,
applies the guards and calls the observer.  A method supplies only

    update(t, w, at_w, rng, timed)
        -> (snapshot, direction, batch, oracle_ms, proj_ms, reused_ms)

which computes iterate t from w = w_{t-1} as a fresh array (observers may
keep it) and returns its `IterateSnapshot`, the search direction whose norm
is recorded, the batch size (None for a full gradient), the time of its
oracle call or projection (None when not `timed` or not made) and the times
of what it reused from `at_w`.  Past w_0, one call of the base loss's
`_value_and_gradient` gives the record its value and the gap its gradient; a
tilted loss's `_tilt` adds the tilt to both.  FW and GD reuse that gradient
from `at_w`, untilted FW its oracle vertex too.  Other gradients come from
`loss.gradient`, the Gram form for the quadratic loss, tilted or not.

Inputs are checked at the boundary: `init`, and every argument of a public
loss or set method (`numerics.as_shaped` raises ValueError on NaN or inf).
In the loop each new array is checked once, by the `lmo` or `project` that
takes it; only when that raises ValueError does `_checked` test the gradient
(and a projected step's w - eta g) and turn a non-finite one into
DivergenceError.  A custom set's `lmo` and `project` must reject a
non-finite argument with ValueError, as the built-in sets do.  The record
and the exact rule call the unchecked `_value_and_gradient`, on iterates
that are convex combinations or projections of checked arrays; if a custom
set answers with NaN or inf, the recorded gap is not finite and the run
raises DivergenceError at that iteration.

Conventions shared by every run function:

* w_0 is the initial point (default: an oracle vertex along a random unit
  direction); record t covers the iterate produced by update t, so traces
  are 1-indexed and hold exactly `iters` rows.
* the Frank-Wolfe gap and the unperturbed loss are recorded at every new
  iterate for diagnostics, outside the timed step; only `init` and the
  final point are checked for feasibility.
* timings are only collected (and serialized) when record_timings is set; a
  default run is bit-deterministic given its seed.  `step_ms` and
  `oracle_ms` include the value-and-gradient and oracle call the update
  reused.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import fw_gap  # noqa: F401 -- kept for instrumentation by name
from .errors import DivergenceError, NumericFailure
from .perturbation import PerturbedLoss, sample_unit_sphere
from .trace import Trace

DIVERGENCE_GUARD = 1e12


# ---------------------------------------------------------------------------
# step-size rules: step(t, objective, region, w, v, g) is gamma_t on the chord
# from w to the oracle vertex v, where g is the gradient at w


@dataclass
class PredefinedDecay:
    """gamma_t = 2 / (t + 1)."""

    def step(self, t, objective, region, w, v, g) -> float:
        return step_size_predefined(t)


@dataclass
class QuadraticLineSearch:
    """Minimizer of the quadratic upper model, clamped to [0, 1]."""

    smoothness: float

    def step(self, t, objective, region, w, v, g) -> float:
        diff = v - w
        directional = float(np.vdot(diff, g))
        dist2 = float(np.vdot(diff, diff))
        return line_search_quadratic(directional, dist2, self.smoothness)


@dataclass
class ExactLineSearch:
    """Minimizer of the loss on the chord from w to v, found as a root of
    its slope to within `tol` in gamma.  The loss restricts itself to the
    chord once per search (`_chord`); each distinct gamma then costs one
    per-sample pass (O(n) for a tabular loss) whether phi, dphi or both ask
    for it, and the memo behind them keeps two floats per gamma."""

    tol: float = 1e-8

    def step(self, t, objective, region, w, v, g) -> float:
        return exact_line_search(*objective._chord(w, v), self.tol)


@dataclass
class ShortStep:
    """Dual-norm short step gamma = min(1, alpha * ||g||_* / (4 L))."""

    smoothness: float
    alpha: float

    def step(self, t, objective, region, w, v, g) -> float:
        return short_step(region.dual_norm(g), self.alpha, self.smoothness)


def step_size_predefined(t: int) -> float:
    """The open-loop schedule 2 / (t + 1) for t >= 1."""
    if t < 1:
        raise ValueError(f"step schedule is defined for t >= 1, got {t}")
    return 2.0 / (t + 1.0)


def theta_schedule(t: int):
    """Averaging weights (theta_t, Theta_t) = (t, t (t + 1) / 2).

    The ratio theta_t / Theta_t equals the step 2 / (t + 1) exactly, which is
    what makes the incremental gradient-average update valid.
    """
    if t < 1:
        raise ValueError(f"theta schedule is defined for t >= 1, got {t}")
    return t, t * (t + 1) // 2


def line_search_quadratic(directional: float, dist2: float, smoothness: float) -> float:
    """argmin_{gamma in [0,1]} gamma * directional + gamma^2 * L * dist2 / 2.

    `directional` is <v - w, grad> and dist2 is ||v - w||^2.  Non-descent
    directions return 0; a degenerate chord (dist2 = 0) returns 0.  When
    L * dist2 underflows to 0 the step is 1, the clamped minimizer of the
    model as its curvature goes to 0.
    """
    if smoothness <= 0.0:
        raise ValueError(f"smoothness must be > 0, got {smoothness}")
    if dist2 < 0.0:
        raise ValueError(f"dist2 must be >= 0, got {dist2}")
    if dist2 == 0.0 or directional >= 0.0:
        return 0.0
    curvature = smoothness * dist2
    return 1.0 if curvature == 0.0 else min(1.0, -directional / curvature)


def short_step(grad_dual_norm: float, alpha: float, smoothness: float) -> float:
    """gamma = 1 when L < alpha * ||g||_* / 4, else alpha * ||g||_* / (4 L)."""
    if smoothness <= 0.0:
        raise ValueError(f"smoothness must be > 0, got {smoothness}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if grad_dual_norm < 0.0:
        raise ValueError(f"grad_dual_norm must be >= 0, got {grad_dual_norm}")
    scaled = alpha * grad_dual_norm / 4.0
    if smoothness < scaled:
        return 1.0
    return scaled / smoothness


def exact_line_search(phi, dphi, tol: float = 1e-8) -> float:
    """Minimize phi over [0, 1] through a root of its slope dphi.

    When dphi changes sign from negative to positive on [0, 1], the bracket
    is narrowed by Illinois steps (regula falsi that halves the slope kept
    at an end twice in a row; Dowell & Jarratt, BIT 11, 1971), with a
    bisection whenever two steps together fail to halve the bracket, until
    the bracket is within tol or dphi is exactly 0.  A linear dphi gives
    the exact minimizer on the first step.  Returns whichever of that root, 0
    and 1 has the smallest phi, so the result never increases phi relative
    to gamma = 0; for unimodal phi it is within tol of the true minimizer.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")

    def value(gamma):  # a phi that is not a number never wins
        f = phi(gamma)
        return f if f == f else math.inf

    a, b = 0.0, 1.0
    da, db = dphi(a), dphi(b)
    if not da < 0.0 < db:
        return min((a, b), key=value)
    fa, fb = da, db  # the slopes the secant uses; Illinois halves a kept one
    side, prev, bisect = 0, math.inf, False
    while b - a > tol:
        width = b - a
        c = 0.5 * (a + b) if bisect else b - fb * width / (fb - fa)
        # A probe at least tol/2 inside the bracket closes it once one end
        # sits within tol/2 of the root.
        c = min(max(c, a + 0.5 * tol), b - 0.5 * tol)
        if not a < c < b:
            c = 0.5 * (a + b)
        dc = dphi(c)
        if dc < 0.0:
            a, da, fa = c, dc, dc
            if side < 0:
                fb *= 0.5
            side = -1
        elif dc > 0.0:
            b, db, fb = c, dc, dc
            if side > 0:
                fa *= 0.5
            side = 1
        else:  # an exact root, or a slope that is not a number
            a = b = c
            break
        bisect = b - a > 0.5 * prev  # two steps failed to halve the bracket
        prev = width
    root = a if abs(da) <= abs(db) else b
    return min((root, 0.0, 1.0), key=value)


# ---------------------------------------------------------------------------
# the run loop


@dataclass
class IterateSnapshot:
    """Mid-run state handed to an observer callback."""

    t: int
    w: np.ndarray
    v: Optional[np.ndarray]
    z: Optional[np.ndarray]
    p: Optional[np.ndarray]
    gamma: float


def _timed(enabled: bool, fn, *args):
    """(fn(*args), its wall time in ms, or None when timing is off)."""
    if not enabled:
        return fn(*args), None
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e3


def _guard_finite(a: np.ndarray, t: int, what: str) -> None:
    if not np.isfinite(a).all():
        raise DivergenceError(f"non-finite {what} at iteration {t}", t)


def _checked(timed, fn, t, *named):
    """_timed(timed, fn, x) for the last (x, what) pair of `named`, fn an
    oracle or a projection that rejects a non-finite x with ValueError.
    Only then are the arrays of `named` checked, in order: the first that is
    not finite raises DivergenceError instead."""
    try:
        return _timed(timed, fn, named[-1][0])
    except ValueError:
        for a, what in named:
            _guard_finite(a, t, what)
        raise


def _loss_gradient(loss, w, at_w):
    """(gradient of `loss` at w, times of what it reused from at_w)."""
    if at_w is None:
        return loss.gradient(w), ()
    return at_w[0], (at_w[2],)


def default_init(region, rng: np.random.Generator) -> np.ndarray:
    """A feasible vertex: the oracle answer along a random unit direction."""
    size = int(np.prod(region.shape))
    direction = sample_unit_sphere(size, rng).reshape(region.shape)
    return region.lmo(direction)


def _drive(loss, region, iters, init, rng, record_timings, on_iterate, update):
    """Run `update` for t = 1..iters.  A non-finite loss, direction norm,
    gradient or gap raises before its record is appended; the divergence
    guard fires after the append and before the observer."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if rng is None:
        rng = np.random.default_rng(0)
    if init is None:
        w = default_init(region, rng)
    else:
        w = np.array(init, dtype=np.float64)
        if w.shape != tuple(region.shape):
            raise ValueError(
                f"init shape {w.shape} does not match region shape {region.shape}"
            )
        if not region.contains(w, tol=1e-8):
            raise ValueError("init must be feasible")
    if loss.shape != tuple(region.shape):
        raise ValueError(
            f"loss expects parameters of shape {loss.shape}, region has {region.shape}"
        )
    base = loss.base if isinstance(loss, PerturbedLoss) else loss
    trace = Trace()
    at_w = None  # (gradient at w, its oracle vertex or None if tilted, times in ms)
    for t in range(1, iters + 1):
        (snap, direction, batch, oracle_ms, proj_ms, reused_ms), step_ms = _timed(
            record_timings, update, t, w, at_w, rng, record_timings
        )
        w = snap.w
        (f_val, g), g_ms = _timed(record_timings, base._value_and_gradient, w)
        if not math.isfinite(f_val):
            raise NumericFailure(f"non-finite loss at iteration {t}")
        h_val, g_loss = (None, g) if loss is base else loss._tilt(w, f_val, g)
        # np.linalg.norm's value, without its overflow warning.
        direction_norm = math.sqrt(float(np.vdot(direction, direction)))
        if not math.isfinite(direction_norm):
            raise DivergenceError(f"non-finite direction norm at iteration {t}", t)
        v, v_ms = _checked(record_timings, region.lmo, t, (g, "gradient"))
        at_w = (g_loss, v if loss is base else None, g_ms, v_ms)
        gap = float(np.vdot(w - v, g))
        if not math.isfinite(gap):  # a non-finite iterate or vertex
            raise DivergenceError(f"non-finite gap at iteration {t}", t)
        trace.append(
            t, f_val, h_val, gap, snap.gamma, batch, direction_norm,
            step_ms=None if step_ms is None else step_ms + sum(reused_ms),
            oracle_ms=oracle_ms, proj_ms=proj_ms,
        )
        if f_val > DIVERGENCE_GUARD:
            raise DivergenceError(
                f"loss exceeded divergence guard ({f_val:.3e}) at iteration {t}", t
            )
        if on_iterate is not None:
            on_iterate(snap)
    if not region.contains(w, tol=1e-8):
        raise NumericFailure("final point lies outside the feasible set")
    trace.final_point = w
    return trace


def _averaging_update(region, gradient_at):
    """Primal-averaging update; gradient_at(t, z, rng) supplies the search
    direction p_t (averaged, instantaneous, or stochastic) and the batch size."""
    v_prev = None  # v_0 is w_0

    def update(t, w, at_w, rng, timed):
        nonlocal v_prev
        gamma = step_size_predefined(t)
        z = (1.0 - gamma) * w + gamma * (w if v_prev is None else v_prev)
        p, batch = gradient_at(t, z, rng)
        v, oracle_ms = _checked(timed, region.lmo, t, (p, "gradient"))
        w = (1.0 - gamma) * w + gamma * v
        v_prev = v
        snap = IterateSnapshot(t=t, w=w, v=v, z=z, p=p, gamma=gamma)
        return snap, p, batch, oracle_ms, None, ()

    return update


def _projected_update(region, gradient_at, eta_at):
    """Projected-gradient update; gradient_at(t, w, at_w, rng) supplies the
    gradient, the times it reused from at_w and the batch size, eta_at(t)
    the step size."""

    def update(t, w, at_w, rng, timed):
        g, reused_ms, batch = gradient_at(t, w, at_w, rng)
        eta = eta_at(t)
        with np.errstate(over="ignore", invalid="ignore"):  # _checked reports it
            y = w - eta * g
        w, proj_ms = _checked(
            timed, region.project, t, (g, "gradient"), (y, "pre-projection point")
        )
        snap = IterateSnapshot(t=t, w=w, v=None, z=None, p=g, gamma=eta)
        return snap, g, batch, None, proj_ms, reused_ms

    return update


# ---------------------------------------------------------------------------
# run functions


def fw_run(
    loss,
    region,
    rule,
    iters: int,
    init=None,
    rng=None,
    record_timings: bool = False,
    on_iterate=None,
) -> Trace:
    """Frank-Wolfe: move toward the oracle point of the current gradient.

    Update t forms w_t = (1 - gamma_t) w_{t-1} + gamma_t * lmo(grad(w_{t-1}))
    with gamma_t from the configured step rule.
    """
    if not hasattr(rule, "step"):
        raise TypeError(f"unknown step rule: {rule!r}")

    def update(t, w, at_w, rng, timed):
        if at_w is None or at_w[1] is None:
            g, reused_ms = _loss_gradient(loss, w, at_w)
            v, oracle_ms = _checked(timed, region.lmo, t, (g, "gradient"))
        else:  # untilted: the driver's gradient and vertex at w
            g, v, g_ms, oracle_ms = at_w
            reused_ms = (g_ms, oracle_ms)
        gamma = rule.step(t, loss, region, w, v, g)
        w = (1.0 - gamma) * w + gamma * v
        snap = IterateSnapshot(t=t, w=w, v=v, z=None, p=None, gamma=gamma)
        return snap, g, None, oracle_ms, None, reused_ms

    return _drive(loss, region, iters, init, rng, record_timings, on_iterate, update)


def pa_run(
    loss,
    region,
    option: str = "A",
    iters: int = 100,
    init=None,
    rng=None,
    record_timings: bool = False,
    on_iterate=None,
) -> Trace:
    """Primal averaging: oracle directions come from the iterate z_t between
    w and the previous vertex.

    Option "A" aggregates gradients with weights theta_t = t (kept as a
    running average); option "B" uses the instantaneous gradient at z_t.
    """
    option = option.upper()
    if option not in ("A", "B"):
        raise ValueError(f"pa_run option must be 'A' or 'B', got {option!r}")
    p = None

    def gradient_at(t, z, rng):
        nonlocal p
        g = loss.gradient(z)
        if option == "B":
            return g, None
        theta, big_theta = theta_schedule(t)
        p = g if p is None else ((big_theta - theta) * p + theta * g) / big_theta
        return p, None

    return _drive(
        loss, region, iters, init, rng, record_timings, on_iterate,
        _averaging_update(region, gradient_at),
    )


def spa_batch_size(t: int, n_samples: int) -> int:
    """Growing batch |S_t| = min(t^4, N)."""
    if t < 1:
        raise ValueError(f"batch schedule is defined for t >= 1, got {t}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return min(t**4, n_samples)


def spa_run(
    loss,
    region,
    iters: int = 100,
    init=None,
    rng=None,
    record_timings: bool = False,
    on_iterate=None,
) -> Trace:
    """Stochastic primal averaging: instantaneous-direction updates driven by
    a without-replacement batch gradient with |S_t| = min(t^4, N).

    Once the schedule reaches N the step takes the full gradient, so the
    update coincides with the deterministic instantaneous-gradient run.
    """
    n = loss.n_samples

    def gradient_at(t, z, rng):
        size = spa_batch_size(t, n)
        if size == n:  # the full batch draws nothing from rng
            return loss.gradient(z), size
        return loss.stochastic_gradient(z, rng.choice(n, size=size, replace=False)), size

    return _drive(
        loss, region, iters, init, rng, record_timings, on_iterate,
        _averaging_update(region, gradient_at),
    )


def projected_gd_run(
    loss,
    region,
    eta: float,
    iters: int,
    init=None,
    rng=None,
    record_timings: bool = False,
    on_iterate=None,
) -> Trace:
    """Projected gradient descent with a constant step size."""
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    update = _projected_update(
        region, lambda t, w, at_w, rng: (*_loss_gradient(loss, w, at_w), None),
        lambda t: eta,
    )
    return _drive(loss, region, iters, init, rng, record_timings, on_iterate, update)


def projected_sgd_run(
    loss,
    region,
    eta0: float,
    batch: int,
    iters: int,
    init=None,
    rng=None,
    record_timings: bool = False,
    sqrt_decay: bool = True,
    on_iterate=None,
) -> Trace:
    """Projected SGD on without-replacement minibatches.

    The step size decays as eta0 / sqrt(t) unless sqrt_decay is disabled.
    """
    if eta0 <= 0.0:
        raise ValueError(f"eta0 must be > 0, got {eta0}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    n = loss.n_samples
    size = min(batch, n)

    def gradient_at(t, w, at_w, rng):
        idx = rng.choice(n, size=size, replace=False)
        return loss.stochastic_gradient(w, idx), (), size

    update = _projected_update(
        region, gradient_at, lambda t: eta0 / math.sqrt(t) if sqrt_decay else eta0
    )
    return _drive(loss, region, iters, init, rng, record_timings, on_iterate, update)
