"""Run diagnostics: Frank-Wolfe gap, log-log slope fits, convergence
detection, and closed-form rate bounds."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .perturbation import gradient_norm_floor
from .trace import Trace

# Values at or below zero cannot enter a log-log fit; they are clipped here
# and the fit is flagged.
_LOG_CLIP = 1e-14

MIN_FIT_POINTS = 10


def fw_gap(region, w, grad) -> float:
    """max_{v in region} <w - v, grad>: zero exactly at stationary points.

    Computed through one oracle call; mathematically non-negative, so values
    below roughly -1e-10 indicate a broken oracle.
    """
    w = np.asarray(w, dtype=np.float64)
    if not region.contains(w, tol=1e-8):
        raise ValueError("fw_gap needs a feasible point")
    v = region.lmo(grad)
    return float(np.vdot(w - v, np.asarray(grad, dtype=np.float64)))


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    burn_in: int
    window: tuple
    clipped: bool


def loglog_slope(series, burn_in: int = 10) -> SlopeFit:
    """Least-squares slope of log(value) against log(t).

    series is an iterable of (t, value) pairs; entries with t <= burn_in are
    dropped.  Non-positive values are clipped to 1e-14 and flagged.
    """
    pts = [(int(t), float(v)) for t, v in series]
    kept = [(t, v) for t, v in pts if t > burn_in]
    if len(kept) < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} points after burn-in, got {len(kept)}"
        )
    ts = np.array([t for t, _ in kept], dtype=np.float64)
    vs = np.array([v for _, v in kept], dtype=np.float64)
    if np.unique(ts).size < 2:
        raise ValueError("log-log fit needs at least two distinct t values")
    clipped = bool(np.any(vs <= 0.0))
    vs = np.maximum(vs, _LOG_CLIP)

    x = np.log(ts)
    y = np.log(vs)
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("log-log fit needs at least two distinct t values")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(
        slope=slope,
        intercept=float(intercept),
        r_squared=r_squared,
        burn_in=int(burn_in),
        window=(int(ts[0]), int(ts[-1])),
        clipped=clipped,
    )


@dataclass
class ConvergencePoint:
    iteration: int
    loss: float
    wall_clock_ms: Optional[float]


def detect_convergence(
    trace: Trace, f_star: float, rel_tol: float = 0.02
) -> Optional[ConvergencePoint]:
    """First recorded iteration whose loss both settled and reached f_star.

    Settled: |loss_t - loss_prev| <= rel_tol * |loss_prev|.  Reached:
    |loss_t - f_star| <= rel_tol * |f_star| (absolute rel_tol when f_star is
    zero).  Scanning starts at the second record; returns None if no record
    qualifies.
    """
    if len(trace) == 0:
        raise ValueError("detect_convergence needs a non-empty trace")
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol}")
    elapsed = 0.0
    timed = True
    for i in range(len(trace)):
        step = trace.step_ms[i]
        if step is None:
            timed = False  # untimed run: report the iteration without wall time
        else:
            elapsed += step
        if i == 0:
            continue
        prev = trace.loss_f[i - 1]
        cur = trace.loss_f[i]
        settled = abs(cur - prev) <= rel_tol * abs(prev)
        if f_star != 0.0:
            reached = abs(cur - f_star) <= rel_tol * abs(f_star)
        else:
            reached = abs(cur) <= rel_tol
        if settled and reached:
            return ConvergencePoint(
                iteration=trace.t[i],
                loss=cur,
                wall_clock_ms=elapsed if timed else None,
            )
    return None


def nonconvex_gap_constant(
    alpha: float, delta: float, smoothness: float, d: int
) -> float:
    """C' = alpha * gradient_norm_floor(delta, d) / (8 * L): the per-step
    progress constant of short-step runs on perturbed non-convex losses."""
    if alpha <= 0.0 or smoothness <= 0.0:
        raise ValueError("alpha and smoothness must be > 0")
    return alpha * gradient_norm_floor(delta, d) / (8.0 * smoothness)


def nonconvex_rate_bound(
    ell_1: float, alpha: float, delta: float, smoothness: float, d: int, t: int
) -> float:
    """Bound ell_1 / (t * min(1/2, C')) on the smallest gap seen in t steps."""
    if ell_1 < 0.0:
        raise ValueError(f"ell_1 must be >= 0, got {ell_1}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    c = nonconvex_gap_constant(alpha, delta, smoothness, d)
    return ell_1 / (t * min(0.5, c))
