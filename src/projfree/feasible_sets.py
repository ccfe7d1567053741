"""Norm-ball constraint sets: l_p, Schatten-p, and group l_{p,q} balls.

Each set exposes a closed-form linear minimization oracle (lmo), a Euclidean
projection for exponents in [1, 2] or inf (closed form, or safeguarded Newton
on the KKT multiplier for 1 < p < 2), its strong-convexity parameter,
diameters and membership tests.  Oracles are deterministic on ties and zeros.
Arguments go through numerics.as_shaped, group row norms through _row_norms.
"""

import math

import numpy as np

from .errors import NumericFailure
from .numerics import as_shaped, lp_norm, svd

# Points whose set-norm is within this relative slack of the radius are
# treated as already feasible by project().
_FEASIBLE_SLACK = 1e-12

# The l_p projection (1 < p < 2) lands inside the ball within _PROJ_RTOL * r
# of its boundary; each of its Newton solves gives up after _NEWTON_MAX_ITER.
_PROJ_RTOL = 1e-10
_NEWTON_MAX_ITER = 200

_TINY = np.finfo(float).tiny


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
    if nq < _TINY:  # a subnormal norm keeps a few bits; rescale c exactly
        c = np.ldexp(c, 1022)
        nq = lp_norm(c, q)
    return np.sign(c) * (np.abs(c) / nq) ** (q - 1.0)


def _lp_strong_convexity(p: float, r: float) -> float:
    """Strong-convexity modulus of an l_p (or Schatten-p) ball of radius r."""
    if not (1.0 < p <= 2.0):
        raise ValueError(f"strong convexity is only defined for p in (1, 2], got p={p}")
    return (p - 1.0) / r


def _project_simplex(a: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection of a >= 0, sum a > r, onto {x >= 0, sum x = r}.

    With u = a sorted descending and s_j = sum_{i<j} (u_i - u_j), the top
    rho entries stay positive, rho the last j with s_j < r (s_1 = 0, so
    rho >= 1), and each becomes u_i - u_rho + (r - s_rho) / rho.  s is summed
    from the gaps between sorted values, so r is not lost next to u_1
    whatever their ratio.
    """
    u = np.sort(a)[::-1]
    s = np.zeros(a.size)
    s[1:] = np.cumsum(np.arange(1, a.size) * (u[:-1] - u[1:]))
    rho = int(np.count_nonzero(s < r))
    top = u[rho - 1]
    return np.where(a >= top, (a - top) + (r - s[rho - 1]) / rho, 0.0)


def _lp_magnitudes(a: np.ndarray, p: float, lam: float, s: np.ndarray):
    """t(lam), s = t^(p-1) and dt/dlam for lam > 0, from any s right of the root.

    Each t_i solves t + lam p t^(p-1) = a_i, that is s^k + lam p s = a_i with
    k = 1 / (p - 1): convex and increasing in s, so Newton from the right
    decreases onto the root.  a^(p-1), a / (lam p) and the s of a smaller
    multiplier all lie right of it.  The last step is taken in t, which keeps
    the digits that s^k loses for p near 1.
    """
    c, k = lam * p, 1.0 / (p - 1.0)
    s = np.minimum(s, a / c)
    for _ in range(_NEWTON_MAX_ITER):
        sk1 = s ** (k - 1.0)
        step = (sk1 * s + c * s - a) / (k * sk1 + c)
        s = s - step
        if not np.any(step > 1e-13 * s):
            break
    else:
        raise NumericFailure("l_p projection: coordinate Newton did not converge")
    t = s ** k
    # Zero only where t = s = 0 (zero inputs, underflow); the ratios are 0 there.
    den = np.maximum(t + c * (p - 1.0) * s, np.finfo(float).tiny)
    t = t - t * (t + c * s - a) / den
    return t, s, -p * s * t / den


def _project_lp_interior(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Projection onto the l_p ball, 1 < p < 2, for ||x||_p > r, by Newton on
    the KKT multiplier: phi(lam) = ||t(lam)||_p^p - r^p falls from phi(0) > 0.
    Steps that leave the bracket [lo, hi] (outside, inside the ball) or find
    phi flat bisect it, or double lo while hi is unbounded.  Newton aims at
    mid-band, r (1 - _PROJ_RTOL / 2): aimed at r it creeps up from outside.
    """
    a = np.abs(x)
    target = (r * (1.0 - 0.5 * _PROJ_RTOL)) ** p
    lam, lo, hi = 0.0, 0.0, math.inf
    t, s = a, a ** (p - 1.0)
    s_lo, dt = s, -p * s
    for _ in range(_NEWTON_MAX_ITER):
        norm = lp_norm(t, p)
        if norm > r:
            lo, s_lo = lam, s
        elif r - norm <= _PROJ_RTOL * r:
            return np.sign(x) * t
        else:
            hi = lam
        slope = p * float(np.sum(s * dt))
        lam = lam - (norm**p - target) / slope if slope < 0.0 else math.nan
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        t, s, dt = _lp_magnitudes(a, p, lam, s_lo)
    raise NumericFailure("l_p projection: multiplier Newton did not converge")


def _project_lp_vector(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Euclidean projection onto {v : ||v||_p <= r} for p in [1, 2] or inf."""
    norm = lp_norm(x, p)
    if norm <= r * (1.0 + _FEASIBLE_SLACK):
        return x
    if math.isinf(p):
        return np.clip(x, -r, r)
    if p == 2.0:
        return x * (r / norm)
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

    def _first_vertex(self) -> np.ndarray:
        """The lmo's deterministic answer for c = 0: r at the first entry."""
        v = np.zeros(self.shape)
        v.flat[0] = self.r
        return v

    def strong_convexity(self) -> float:
        raise NotImplementedError

    def euclidean_diameter(self) -> float:
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.norm(x) <= self.r * (1.0 + tol)

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

    def norm(self, x) -> float:
        return lp_norm(as_shaped(x, self.shape), self.p)

    def dual_norm(self, c) -> float:
        return lp_norm(as_shaped(c, self.shape), _conjugate(self.p))

    def lmo(self, c) -> np.ndarray:
        c = as_shaped(c, self.shape)
        if self.p == 2.0:
            # Closed form while ||c||^2 is a normal float; zero, subnormal
            # and overflowing squares take the rescaled path.  vdot, unlike
            # matmul, overflows to inf without a warning.
            s = float(np.vdot(c, c))
            if _TINY < s < math.inf:
                return -self.r * (c / math.sqrt(s))
        if not c.any():
            return self._first_vertex()
        return -self.r * _max_unit_vector(c, self.p)

    def project(self, x) -> np.ndarray:
        return _project_lp_vector(as_shaped(x, self.shape), self.p, self.r)

    def strong_convexity(self) -> float:
        return _lp_strong_convexity(self.p, self.r)

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

    def norm(self, x) -> float:
        return lp_norm(svd(as_shaped(x, self.shape)).s, self.p)

    def dual_norm(self, c) -> float:
        return lp_norm(svd(as_shaped(c, self.shape)).s, _conjugate(self.p))

    def lmo(self, c) -> np.ndarray:
        c = as_shaped(c, self.shape)
        dec = svd(c)
        if 0.0 < dec.s[0] < _TINY:  # a subnormal spectrum keeps a few bits
            dec = svd(np.ldexp(c, 1022))
        if not dec.s.any():  # zero input or numerically zero spectrum
            return self._first_vertex()
        w = _max_unit_vector(dec.s, self.p)
        return -self.r * (dec.u * w) @ dec.v.T

    def project(self, x) -> np.ndarray:
        x = as_shaped(x, self.shape)
        dec = svd(x)
        s = _project_lp_vector(dec.s, self.p, self.r)
        if s is dec.s:  # feasible inputs pass through
            return x
        return (dec.u * s) @ dec.v.T

    def strong_convexity(self) -> float:
        return _lp_strong_convexity(self.p, self.r)

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
        return lp_norm(self._row_norms(as_shaped(x, self.shape), self.p), self.q)

    def dual_norm(self, c) -> float:
        z = _conjugate(self.p)
        s = _conjugate(self.q)
        return lp_norm(self._row_norms(as_shaped(c, self.shape), z), s)

    def lmo(self, c) -> np.ndarray:
        c = as_shaped(c, self.shape)
        top = np.abs(c).max()
        if top == 0.0:
            return self._first_vertex()
        if top < _TINY:  # subnormal rows keep a few bits; rescale c exactly
            c = np.ldexp(c, 1022)
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
            a, scale = np.abs(c), np.where(row_dual > 0.0, row_dual, 1.0)
            low = scale < _TINY  # subnormal row norms keep a few bits
            if low.any():
                a[low] = np.ldexp(a[low], 1022)
                scale[low] = self._row_norms(a[low], z)
            inner = np.sign(c) * (a / scale[:, None]) ** (z - 1.0)
        outer = _max_unit_vector(row_dual, self.q)
        return -self.r * inner * outer[:, None]

    def project(self, x) -> np.ndarray:
        x = as_shaped(x, self.shape)
        if self.p != 2.0:
            raise ValueError(
                "group-ball projection is implemented for inner exponent p = 2 only"
            )
        norms = self._row_norms(x, 2.0)
        shrunk = _project_lp_vector(norms, self.q, self.r)
        if shrunk is norms:  # feasible inputs pass through
            return x
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
