"""Norm-ball constraint sets: l_p, Schatten-p, and group l_{p,q} balls.

Each set exposes a linear minimization oracle (lmo), a Euclidean projection
where a closed form or scalar dual solve exists, its strong-convexity
parameter, diameters, and membership tests.  All oracles are deterministic,
including tie-breaks on zero inputs.
"""

import math

import numpy as np

from .errors import NumericFailure
from .numerics import as_matrix, as_vector, lp_norm, svd

# Points whose set-norm is within this relative slack of the radius are
# treated as already feasible by project().
_FEASIBLE_SLACK = 1e-12

_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


def _conjugate(p: float) -> float:
    """Holder conjugate on the closed range [1, inf]."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _max_unit_vector(c: np.ndarray, p: float) -> np.ndarray:
    """The unit-l_p-norm vector u maximizing <u, c>, for c != 0.

    Attains <u, c> = ||c||_q with q the conjugate exponent.  Ties on the
    p = 1 branch resolve to the lowest index.
    """
    if math.isinf(p):
        return np.sign(c)
    if p == 1.0:
        j = int(np.argmax(np.abs(c)))
        u = np.zeros_like(c)
        u[j] = math.copysign(1.0, c[j])
        return u
    q = _conjugate(p)
    nq = lp_norm(c, q)
    return np.sign(c) * (np.abs(c) / nq) ** (q - 1.0)


def _project_simplex(a: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection of a >= 0 onto the simplex {x >= 0, sum x = r}."""
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - r
    idx = np.arange(1, a.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(a - theta, 0.0)


def _project_lp_interior(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Projection onto the l_p ball, 1 < p < 2, by bisection on the KKT
    multiplier.  Assumes ||x||_p > r.

    For a multiplier lam >= 0 each coordinate magnitude t_i solves
        t + lam * p * t^(p-1) = |x_i|,
    which is strictly increasing in t; the outer bisection drives
    ||t(lam)||_p up to r from the feasible side, within 1e-10 * r.
    """
    a = np.abs(x)
    sign = np.sign(x)

    def magnitudes(lam: float) -> np.ndarray:
        # Inner solve, vectorized bisection on [0, a] per coordinate.
        lo = np.zeros_like(a)
        hi = a.copy()
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            big = mid + lam * p * np.power(mid, p - 1.0, where=mid > 0,
                                           out=np.zeros_like(mid)) > a
            hi = np.where(big, mid, hi)
            lo = np.where(big, lo, mid)
        return 0.5 * (lo + hi)

    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(200):
        if lp_norm(magnitudes(lam_hi), p) < r:
            break
        lam_hi *= 2.0
    else:
        raise NumericFailure("l_p projection: failed to bracket the multiplier")

    for _ in range(_BISECT_MAX_ITER):
        lam = 0.5 * (lam_lo + lam_hi)
        t = magnitudes(lam)
        norm = lp_norm(t, p)
        if norm > r:
            lam_lo = lam
        elif r - norm <= _BISECT_TOL * r:
            return sign * t
        else:
            lam_hi = lam
    raise NumericFailure(
        f"l_p projection bisection did not converge within {_BISECT_MAX_ITER} iterations"
    )


def _project_lp_vector(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Euclidean projection onto {v : ||v||_p <= r} for p in [1, 2] or inf."""
    if lp_norm(x, p) <= r * (1.0 + _FEASIBLE_SLACK):
        return x
    if math.isinf(p):
        return np.clip(x, -r, r)
    if p == 2.0:
        return x * (r / lp_norm(x, 2.0))
    if p == 1.0:
        return np.sign(x) * _project_simplex(np.abs(x), r)
    if 1.0 < p < 2.0:
        return _project_lp_interior(x, p, r)
    raise ValueError(f"projection onto an l_{p} ball is not supported (p > 2)")


class FeasibleSet:
    """Common surface for the norm-ball families."""

    r: float
    shape: tuple

    def norm(self, x) -> float:
        raise NotImplementedError

    def dual_norm(self, c) -> float:
        raise NotImplementedError

    def lmo(self, c) -> np.ndarray:
        """argmin_{v in set} <v, c>, deterministic on ties."""
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Euclidean-nearest feasible point; feasible inputs pass through."""
        raise NotImplementedError

    def strong_convexity(self) -> float:
        raise NotImplementedError

    def diameter(self) -> float:
        """Diameter in the set's own norm."""
        return 2.0 * self.r

    def euclidean_diameter(self) -> float:
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.norm(x) <= self.r * (1.0 + tol)

    def random_direction(self, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal(self.shape)
        n = float(np.linalg.norm(g))
        if n == 0.0:
            g.flat[0] = 1.0
            n = 1.0
        return g / n

    def random_boundary(self, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal(self.shape)
        n = self.norm(g)
        if n == 0.0:
            g.flat[0] = 1.0
            n = self.norm(g)
        return g * (self.r / n)

    def random_feasible(self, rng: np.random.Generator) -> np.ndarray:
        size = int(np.prod(self.shape))
        t = rng.uniform() ** (1.0 / size)
        return self.random_boundary(rng) * t


class LpBall(FeasibleSet):
    """{w in R^d : ||w||_p <= r} for p in [1, inf]."""

    def __init__(self, p: float, r: float, d: int):
        if not (p >= 1.0):
            raise ValueError(f"LpBall requires p >= 1, got {p}")
        if r <= 0.0:
            raise ValueError(f"LpBall requires r > 0, got {r}")
        if d < 1:
            raise ValueError(f"LpBall requires d >= 1, got {d}")
        self.p = float(p)
        self.r = float(r)
        self.d = int(d)
        self.shape = (self.d,)

    def __repr__(self):
        return f"LpBall(p={self.p}, r={self.r}, d={self.d})"

    def _check(self, x) -> np.ndarray:
        v = as_vector(x)
        if v.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {v.shape}")
        return v

    def norm(self, x) -> float:
        return lp_norm(self._check(x), self.p)

    def dual_norm(self, c) -> float:
        return lp_norm(self._check(c), _conjugate(self.p))

    def lmo(self, c) -> np.ndarray:
        c = self._check(c)
        if not np.any(c):
            v = np.zeros(self.d)
            v[0] = self.r
            return v
        return -self.r * _max_unit_vector(c, self.p)

    def project(self, x) -> np.ndarray:
        return _project_lp_vector(self._check(x), self.p, self.r)

    def strong_convexity(self) -> float:
        if not (1.0 < self.p <= 2.0):
            raise ValueError(
                f"strong convexity is only defined for p in (1, 2], got p={self.p}"
            )
        return (self.p - 1.0) / self.r

    def euclidean_diameter(self) -> float:
        expo = max(0.0, 0.5 - 1.0 / self.p)
        return 2.0 * self.r * self.d ** expo


class SchattenPBall(FeasibleSet):
    """{W in R^(m x n) : ||sigma(W)||_p <= r}: the l_p ball on singular values."""

    def __init__(self, p: float, r: float, m: int, n: int):
        if not (p >= 1.0):
            raise ValueError(f"SchattenPBall requires p >= 1, got {p}")
        if r <= 0.0:
            raise ValueError(f"SchattenPBall requires r > 0, got {r}")
        if m < 1 or n < 1:
            raise ValueError(f"SchattenPBall requires m, n >= 1, got ({m}, {n})")
        self.p = float(p)
        self.r = float(r)
        self.m = int(m)
        self.n = int(n)
        self.shape = (self.m, self.n)

    def __repr__(self):
        return f"SchattenPBall(p={self.p}, r={self.r}, m={self.m}, n={self.n})"

    def _check(self, x) -> np.ndarray:
        w = as_matrix(x)
        if w.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {w.shape}")
        return w

    def norm(self, x) -> float:
        return lp_norm(svd(self._check(x)).s, self.p)

    def dual_norm(self, c) -> float:
        return lp_norm(svd(self._check(c)).s, _conjugate(self.p))

    def lmo(self, c) -> np.ndarray:
        c = self._check(c)
        if not np.any(c):
            v = np.zeros(self.shape)
            v[0, 0] = self.r
            return v
        dec = svd(c)
        if not np.any(dec.s):  # numerically zero spectrum
            v = np.zeros(self.shape)
            v[0, 0] = self.r
            return v
        w = _max_unit_vector(dec.s, self.p)
        return -self.r * (dec.u * w) @ dec.v.T

    def project(self, x) -> np.ndarray:
        x = self._check(x)
        dec = svd(x)
        if lp_norm(dec.s, self.p) <= self.r * (1.0 + _FEASIBLE_SLACK):
            return x
        s = _project_lp_vector(dec.s, self.p, self.r)
        return (dec.u * s) @ dec.v.T

    def strong_convexity(self) -> float:
        if not (1.0 < self.p <= 2.0):
            raise ValueError(
                f"strong convexity is only defined for p in (1, 2], got p={self.p}"
            )
        return (self.p - 1.0) / self.r

    def euclidean_diameter(self) -> float:
        k = min(self.m, self.n)
        expo = max(0.0, 0.5 - 1.0 / self.p)
        return 2.0 * self.r * k ** expo


class GroupLpqBall(FeasibleSet):
    """Mixed-norm ball on R^(m x n) with rows as groups.

    The ball norm takes l_p within each row, then l_q across the row norms:
        ||W|| = ( sum_i ||W_i||_p^q )^(1/q).
    The lmo scales per-row dual witnesses by an outer dual witness over the
    row norms; rows of c that are identically zero map to zero rows.
    """

    def __init__(self, p: float, q: float, r: float, m: int, n: int):
        if not (p >= 1.0) or not (q >= 1.0):
            raise ValueError(f"GroupLpqBall requires p, q >= 1, got ({p}, {q})")
        if r <= 0.0:
            raise ValueError(f"GroupLpqBall requires r > 0, got {r}")
        if m < 1 or n < 1:
            raise ValueError(f"GroupLpqBall requires m, n >= 1, got ({m}, {n})")
        self.p = float(p)
        self.q = float(q)
        self.r = float(r)
        self.m = int(m)
        self.n = int(n)
        self.shape = (self.m, self.n)

    def __repr__(self):
        return (
            f"GroupLpqBall(p={self.p}, q={self.q}, r={self.r}, "
            f"m={self.m}, n={self.n})"
        )

    def _check(self, x) -> np.ndarray:
        w = as_matrix(x)
        if w.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {w.shape}")
        return w

    def _row_norms(self, x: np.ndarray, p: float) -> np.ndarray:
        """l_p norm of each row, rescaled by the row maximum as in lp_norm."""
        a = np.abs(x)
        top = a.max(axis=1)
        if math.isinf(p):
            return top
        if p == 1.0:
            return a.sum(axis=1)
        a /= np.where(top > 0.0, top, 1.0)[:, None]
        if p == 2.0:
            return top * np.sqrt(np.sum(a ** 2, axis=1))
        return top * np.sum(a ** p, axis=1) ** (1.0 / p)

    def norm(self, x) -> float:
        return lp_norm(self._row_norms(self._check(x), self.p), self.q)

    def dual_norm(self, c) -> float:
        z = _conjugate(self.p)
        s = _conjugate(self.q)
        return lp_norm(self._row_norms(self._check(c), z), s)

    def lmo(self, c) -> np.ndarray:
        c = self._check(c)
        if not np.any(c):
            v = np.zeros(self.shape)
            v[0, 0] = self.r
            return v
        z = _conjugate(self.p)
        row_dual = self._row_norms(c, z)
        # Row-wise _max_unit_vector; zero rows come out as zero rows.
        if math.isinf(self.p):
            inner = np.sign(c)
        elif self.p == 1.0:
            rows = np.arange(self.m)
            cols = np.argmax(np.abs(c), axis=1)
            inner = np.zeros(self.shape)
            inner[rows, cols] = np.sign(c[rows, cols])
        else:
            scale = np.where(row_dual > 0.0, row_dual, 1.0)[:, None]
            inner = np.sign(c) * (np.abs(c) / scale) ** (z - 1.0)
        outer = _max_unit_vector(row_dual, self.q)
        return -self.r * inner * outer[:, None]

    def project(self, x) -> np.ndarray:
        x = self._check(x)
        if self.p != 2.0:
            raise ValueError(
                "group-ball projection is implemented for inner exponent p = 2 only"
            )
        norms = np.linalg.norm(x, axis=1)
        if lp_norm(norms, self.q) <= self.r * (1.0 + _FEASIBLE_SLACK):
            return x
        shrunk = _project_lp_vector(norms, self.q, self.r)
        scale = np.where(norms > 0.0, shrunk / np.where(norms > 0.0, norms, 1.0), 0.0)
        return x * scale[:, None]

    def strong_convexity(self) -> float:
        if not (1.0 < self.p <= 2.0) or not (1.0 < self.q <= 2.0):
            raise ValueError(
                "strong convexity is only defined for p, q in (1, 2], "
                f"got p={self.p}, q={self.q}"
            )
        return min(self.p - 1.0, self.q - 1.0) / self.r

    def euclidean_diameter(self) -> float:
        inner = self.n ** max(0.0, 0.5 - 1.0 / self.p)
        outer = self.m ** max(0.0, 0.5 - 1.0 / self.q)
        return 2.0 * self.r * inner * outer
