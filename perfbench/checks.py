"""Reference solutions and output checks for the benchmark, in plain numpy.

Nothing here imports the program under test: every reference value is
computed from the raw inputs (feature matrices, targets, radii), and every
check compares the program's outputs with such a value or with a property
the method must have.  Each check returns True or False; the tests in
test_checks.py feed each one a known-wrong input to show it can fail.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# norms, dual norms and the closed-form l_p oracle


def conjugate(p: float) -> float:
    """Holder conjugate of p in (1, inf)."""
    return p / (p - 1.0)


def lp_norms(points: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of each row of a (count, d) stack."""
    a = np.abs(np.atleast_2d(points))
    scale = a.max(axis=1, keepdims=True)
    safe = np.where(scale > 0.0, scale, 1.0)
    return scale[:, 0] * np.sum((a / safe) ** p, axis=1) ** (1.0 / p)


def schatten_norms(mats: np.ndarray, p: float) -> np.ndarray:
    """Schatten-p norm of each matrix of a (count, m, n) stack."""
    s = np.linalg.svd(np.asarray(mats), compute_uv=False)
    return lp_norms(s, p)


def group_norms(mats: np.ndarray, q: float) -> np.ndarray:
    """l_q norm over the row l_2 norms of each matrix of a (count, m, n) stack."""
    return lp_norms(np.linalg.norm(np.asarray(mats), axis=2), q)


def lp_lmo(c: np.ndarray, p: float, r: float) -> np.ndarray:
    """argmin over the l_p ball of radius r of <v, c>, for 1 < p < inf, c != 0.

    The minimizer is -r sign(c) |c|^(q-1) / ||c||_q^(q-1) with q the
    conjugate exponent; it attains <v, c> = -r ||c||_q.
    """
    q = conjugate(p)
    a = np.abs(c)
    nq = float(lp_norms(c, q)[0])
    return -r * np.sign(c) * (a / nq) ** (q - 1.0)


def lp_fw_gap(w: np.ndarray, grad: np.ndarray, p: float, r: float) -> float:
    """Frank-Wolfe duality gap max_v <w - v, grad> over the l_p ball.

    For a convex loss the gap bounds the suboptimality of w from above.
    """
    return float(np.dot(w - lp_lmo(grad, p, r), grad))


# ---------------------------------------------------------------------------
# least squares: values, gradients, the constrained optimum on an l_2 ball


def lsq_value(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    r = x @ w - y
    return float(r @ r)


def lsq_gradient(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    return 2.0 * (x.T @ (x @ w - y))


def lsq_l2_ball_optimum(x: np.ndarray, y: np.ndarray, r: float):
    """Minimizer of ||X w - y||^2 over ||w||_2 <= r.

    Works in the eigenbasis of X^T X = V diag(lam) V^T with b = V^T X^T y.
    On the boundary w(mu) = V (b / (lam + mu)) and the multiplier mu >= 0
    solves the secular equation 1/||w(mu)|| = 1/r.  Its left side is
    concave and increasing in mu, so Newton's method started left of the
    root climbs to it monotonically.  Returns (f_star, w_star, mu).
    """
    lam, vecs = np.linalg.eigh(x.T @ x)
    b = vecs.T @ (x.T @ y)
    if lam[0] > 0.0:
        w0 = vecs @ (b / lam)
        if np.linalg.norm(w0) <= r:
            return lsq_value(x, y, w0), w0, 0.0
    mu = max(0.0, -lam[0]) + 1e-12 * max(1.0, lam[-1])
    for _ in range(200):
        d = lam + mu
        norm = float(np.sqrt(np.sum((b / d) ** 2)))
        phi = 1.0 / norm - 1.0 / r
        if abs(phi) <= 1e-15 / r:
            break
        dphi = float(np.sum(b * b / d**3)) / norm**3
        mu = mu - phi / dphi
    w = vecs @ (b / (lam + mu))
    return lsq_value(x, y, w), w, mu


def kkt_holds(x, y, w, mu, r, rtol: float = 1e-9) -> bool:
    """KKT conditions of min ||Xw - y||^2 s.t. ||w||_2 <= r at (w, mu).

    Stationarity 2 X^T (Xw - y) + 2 mu w = 0 relative to ||2 X^T y||,
    primal feasibility, mu >= 0, and complementary slackness.
    """
    grad = lsq_gradient(x, y, w)
    scale = max(float(np.linalg.norm(2.0 * (x.T @ y))), 1e-300)
    stationary = float(np.linalg.norm(grad + 2.0 * mu * w)) <= rtol * scale
    norm = float(np.linalg.norm(w))
    feasible = norm <= r * (1.0 + rtol)
    slack = mu * abs(r - norm) <= rtol * max(1.0, mu * r)
    return bool(stationary and feasible and mu >= 0.0 and slack)


def lipschitz_lsq(x: np.ndarray) -> float:
    """Gradient Lipschitz constant 2 lambda_max(X^T X) of ||Xw - y||^2."""
    return 2.0 * float(np.linalg.eigvalsh(x.T @ x)[-1])


# ---------------------------------------------------------------------------
# squared-sigmoid loss and a multi-start projected-gradient reference


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def sigmoid_value(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """(1/n) sum_i (y_i - sigmoid(x_i . w))^2."""
    e = y - _sigmoid(x @ w)
    return float(e @ e) / y.size


def sigmoid_gradient(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    s = _sigmoid(x @ w)
    return x.T @ (-2.0 * (y - s) * s * (1.0 - s)) / y.size


def _project_l2(w: np.ndarray, r: float) -> np.ndarray:
    n = float(np.linalg.norm(w))
    return w if n <= r else w * (r / n)


def sigmoid_ball_optimum(x, y, r, starts, iters: int = 4000):
    """Best value of projected gradient descent on the squared-sigmoid loss
    over ||w||_2 <= r, run from each start.

    Steps adapt by backtracking (Armijo on the projected step) and grow
    again after every accepted step, so flat, saturated regions are crossed
    quickly.  Returns (f_best, w_best).
    """
    best_f, best_w = math.inf, None
    for w in starts:
        w = _project_l2(np.asarray(w, dtype=np.float64), r)
        f = sigmoid_value(x, y, w)
        step = 1.0
        for _ in range(iters):
            g = sigmoid_gradient(x, y, w)
            while True:
                cand = _project_l2(w - step * g, r)
                fc = sigmoid_value(x, y, cand)
                if fc <= f - 1e-4 / step * float(np.sum((cand - w) ** 2)):
                    break
                step *= 0.5
                if step < 1e-30:
                    cand, fc = w, f
                    break
            if fc >= f:
                break
            w, f = cand, fc
            step *= 2.0
        if f < best_f:
            best_f, best_w = f, w
    return best_f, best_w


# ---------------------------------------------------------------------------
# checks on optimizer outputs


def first_reach(losses, target: float):
    """1-based index of the first loss <= target, or None."""
    hits = np.flatnonzero(np.asarray(losses, dtype=np.float64) <= target)
    return int(hits[0]) + 1 if hits.size else None


def all_within(norms, r: float, rtol: float = 1e-9) -> bool:
    """Every norm is at most r (1 + rtol)."""
    return bool(np.all(np.asarray(norms) <= r * (1.0 + rtol)))


def none_below(losses, floor: float, rtol: float = 1e-12) -> bool:
    """No loss falls below a proven lower bound, up to rounding."""
    return bool(np.min(losses) >= floor - rtol * abs(floor))


def fw_rate_bound_holds(losses, f_star: float, lipschitz: float, diam: float) -> bool:
    """f(w_t) - f* <= 2 L D^2 / (t + 1) at every t for Frank-Wolfe with the
    2/(t+1) step."""
    f = np.asarray(losses, dtype=np.float64)
    t = np.arange(1, f.size + 1)
    return bool(np.all(f - f_star <= 2.0 * lipschitz * diam**2 / (t + 1.0)))


def non_increasing(losses, start: float, rtol: float = 1e-12) -> bool:
    """f(w_t) <= f(w_{t-1}) at every t, starting from f(w_0) = start, up to
    a relative rounding allowance."""
    f = np.concatenate([[start], np.asarray(losses, dtype=np.float64)])
    return bool(np.all(f[1:] <= f[:-1] + rtol * np.abs(f[:-1])))


def within_accuracy(value: float, reference: float, rel: float) -> bool:
    """|value - reference| <= rel |reference|."""
    return abs(value - reference) <= rel * abs(reference)


def lmo_duality_holds(inner: float, r: float, dual: float, rtol: float = 1e-9) -> bool:
    """<lmo(c), c> = -r ||c||_* to a relative tolerance."""
    return abs(inner + r * dual) <= rtol * r * dual


def projection_vi_holds(y, py, p: float, r: float, samples, rtol: float = 1e-7) -> bool:
    """py is the Euclidean projection of y onto the l_p ball of radius r.

    Checks feasibility and the variational inequality <y - py, z - py> <= 0
    over the sampled feasible points z and over the oracle vertex of
    -(y - py), which is the point of the ball where the inequality is
    tightest.  The allowance scales with ||y - py|| and the ball radius.
    """
    if not all_within(lp_norms(py, p), r):
        return False
    resid = y - py
    rn = float(np.linalg.norm(resid))
    if rn == 0.0:
        return True
    z = np.vstack([np.atleast_2d(samples), lp_lmo(-resid, p, r)])
    worst = float(np.max((z - py) @ resid))
    return worst <= rtol * rn * r


def lp_ball_samples(rng: np.random.Generator, count: int, d: int, p: float, r: float):
    """Feasible points of the l_p ball: half on the boundary, half inside."""
    g = rng.standard_normal((count, d))
    g *= (r / lp_norms(g, p))[:, None]
    g[count // 2:] *= rng.uniform(size=(count - count // 2, 1))
    return g


def cross_certified(f_a, gap_a, f_b, gap_b, rtol: float = 1e-12) -> bool:
    """For a convex loss f - gap is a lower bound on the optimum, so neither
    method's final value may fall below the other's certified bound, up to
    a relative rounding allowance."""
    slack = rtol * max(abs(f_a), abs(f_b))
    return f_a >= f_b - gap_b - slack and f_b >= f_a - gap_a - slack
