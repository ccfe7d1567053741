"""Norm-ball constraint sets: l_p, Schatten-p, and group l_{p,q} balls.

Each norm nests l_p norms over levels, (exponent, dimension) pairs listed
innermost first: (p, d) for an l_p ball, (p, min(m, n)) on the singular
values of a Schatten ball, (p, n) within rows then (q, m) across them for a
group ball.  The three families share one base, _NormBall.  From the levels
it derives the argument checks, repr, norm and dual norm, Euclidean diameter
and strong-convexity modulus, and from the norm membership and random
boundary and feasible points.  A family states its nested norm, its
Euclidean projection (closed form at p = 1, 2, inf, else Newton on the KKT
multiplier) and the vertex of its linear minimization oracle (lmo) on a cost
a with max|a| in [1/2, 1).  The base's lmo, the one oracle entry, scales the
cost there by an exact power of two, so every oracle is scale-invariant bit
for bit, and answers c = 0 with r at the first entry.  Each argument gets
one NaN/inf check, by numerics.as_shaped; numerics.svd checks only on failure.
The vertices are built on one dual-norm witness, _max_unit_vector, taken on a
vector, on singular values or on rows.  The Schatten vertex for 1 < p <= 2
instead takes numerics.eigh of the Gram matrix of the smaller side, which
for q >= 2 gives the answer without dividing by a singular value.
"""

import math

import numpy as np

from .errors import NumericFailure
from .numerics import as_shaped, eigh, lp_norm, lp_norms, svd

# Points whose set-norm is within this relative slack of the radius are
# treated as already feasible by project().
_FEASIBLE_SLACK = 1e-12

# The l_p projection (1 < p < inf, p != 2) lands inside the ball within
# _PROJ_RTOL * r of its boundary; each Newton solve gives up after 100 steps.
_PROJ_RTOL = 1e-11
_NEWTON_MAX_ITER = 100

_TINY = np.finfo(float).tiny


def _conjugate(p: float) -> float:
    """Holder conjugate on the closed range [1, inf]."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _max_unit_vector(c: np.ndarray, p: float) -> tuple:
    """Over the last axis: the unit-l_p-norm u maximizing <u, c>, and ||c||_q.

    u attains <u, c> = ||c||_q with q the conjugate exponent.  Zero rows
    give zero rows, and ties on the p = 1 branch resolve to the lowest index.
    A row whose dual norm is subnormal is scaled by 2^1022 first.  After the
    lmo's scaling only a group row whose own entries are tiny gets there.
    """
    a = np.abs(c)
    q = _conjugate(p)
    dual = lp_norms(a, q)
    if math.isinf(p):
        return np.sign(c), dual
    if p == 1.0:
        first = np.arange(a.shape[-1]) == a.argmax(axis=-1)[..., None]
        return np.where(first, np.sign(c), 0.0), dual
    scale = dual + (dual == 0.0)  # a zero row over 1
    low = scale < _TINY
    if np.count_nonzero(low):  # a subnormal norm keeps a few bits; rescale those rows
        a = np.ldexp(a.T, 1022 * low).T
        scale = np.where(low, lp_norms(a, q), scale)
    return np.sign(c) * (a.T / scale).T ** (q - 1.0), dual


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


def _project_lp_kkt(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Projection onto the l_p ball, 1 < p < inf and p != 2, for ||x||_p > r.

    With a = |x| / max|x|, the answer is x e^u where t = a e^u solves the KKT
    equation t + mu t^(p-1) = a: e^u + e^(v + (p-1) u) = 1, v = ln mu +
    (p-2) ln a, is convex and increasing in u for every p > 1, so Newton
    from the right falls onto the root and from the left lands right of it,
    as does the cap u <= min(0, -v / (p-1)) (t <= a, t <= (a/mu)^(1/(p-1))).
    ell = ln mu and an expm1 keep the range at p = 50 and the digits next to
    p = 1; steps in u are weighed against 1 + 1e-6 |u|, as large u lose digits.

    ell solves N = ||t||_p = r (1 - _PROJ_RTOL / 2) / max|x| by Newton on the
    model mu = gamma (alpha - N) N^(1-p) of one coordinate, fitted to N and
    dN/dmu: exact for tied entries, in the far field and as p -> 1, so its
    step count does not grow with ||x|| / r.  It starts from the model at
    mu = 0 or the far-field bound on mu, whichever is smaller, and passes the
    bound only after a point inside the ball.  Steps that leave the bracket
    of multipliers seen outside and inside the ball bisect it.
    """
    top = float(np.abs(x).max())
    a = np.abs(x) / top
    if not a.all():  # zeros, and entries below 5e-324 max|x|, stay zero
        out = np.zeros_like(x)
        out[a > 0.0] = _project_lp_kkt(x[a > 0.0], p, r)
        return out
    log_a = np.log(a)
    m1, bend = p - 1.0, (p - 2.0) * log_a
    # ln sum a^k for the norm, the slope at mu = 0 and the dual norm
    lp, l2, lq = (math.log(float(np.exp(k * log_a).sum())) for k in (p, 2 * m1, p / m1))
    log_rho = math.log(r) - math.log(top)
    excess = lp / p - log_rho  # ln(N / rho) at mu = 0, > 0
    target = log_rho + math.log1p(-0.5 * _PROJ_RTOL)
    far = lq * m1 / p - m1 * target  # the far-field bound, above the root
    ell = min(far, lp - l2 + m1 * excess + math.log(-math.expm1(-excess)))
    lo, hi, u = -math.inf, math.inf, np.zeros_like(log_a)
    for _ in range(_NEWTON_MAX_ITER):
        v = ell + bend
        u = np.minimum(u, np.minimum(0.0, v / -m1))
        for _ in range(_NEWTON_MAX_ITER):
            e1 = np.exp(u)
            em = np.expm1(v + m1 * u)
            d = e1 + m1 * (1.0 + em)
            step = (e1 + em) / d
            u -= step
            if np.max(np.abs(step) / (1.0 - 1e-6 * u)) <= 1e-7:
                break
        else:
            raise NumericFailure("l_p projection: coordinate Newton did not converge")
        z = p * (u + log_a)
        w = np.exp(z - z.max())
        g = (float(z.max()) + math.log(float(w.sum()))) / p - target  # ln(N / target)
        if abs(g) <= 0.4 * _PROJ_RTOL:
            return x * np.exp(u)
        lo, hi = (ell, hi) if g > 0.0 else (lo, ell)
        du = -(1.0 + em) / d  # du / d ell, in [-1/(p-1), 0]
        slope = float(w @ du) / float(w.sum())
        c = -1.0 / slope - m1 if slope else math.inf  # the model's N / (alpha - N)
        ratio = 1.0 - c * math.expm1(min(-g, 700.0))  # (alpha - target) / (alpha - N)
        new = ell + m1 * g + math.log(ratio) if ratio > 0.0 else ell - g / slope
        if hi == math.inf and lo < far:  # nothing inside the ball seen yet
            new = min(new, far)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        u += du * (new - ell)
        ell = new
    raise NumericFailure("l_p projection: multiplier Newton did not converge")


def _project_lp_vector(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Euclidean projection onto {v : ||v||_p <= r} for p in [1, inf]."""
    norm = lp_norm(x, p)
    if norm <= r * (1.0 + _FEASIBLE_SLACK):
        return x
    if math.isinf(p):
        return np.clip(x, -r, r)
    if p == 2.0:
        return x * (r / norm)
    if p == 1.0:
        return np.sign(x) * _project_simplex(np.abs(x), r)
    return _project_lp_kkt(x, p, r)


class _NormBall:
    """{x : ||x|| <= r} for a norm that nests l_p norms over levels.

    A family passes its exponents, r and its dimensions under the names its
    constructor gives them, sets `_levels` and defines `_nested_norm(x,
    exponents)`, its norm with the levels' exponents replaced.  It also
    defines `_vertex(a)`, the lmo on a checked cost a with max|a| in
    [1/2, 1), deterministic on ties, and project(x), the Euclidean-nearest
    feasible point, through which feasible inputs pass."""

    def __init__(self, exponents: dict, r: float, dims: dict):
        name = type(self).__name__
        for key, p in exponents.items():
            if not (p >= 1.0):
                raise ValueError(f"{name} requires {key} >= 1, got {p}")
            setattr(self, key, float(p))
        if r <= 0.0:
            raise ValueError(f"{name} requires r > 0, got {r}")
        self.r = float(r)
        for key, k in dims.items():
            if k < 1:
                raise ValueError(f"{name} requires {key} >= 1, got {k}")
            setattr(self, key, int(k))
        self._arg_names = (*exponents, "r", *dims)
        self.shape = tuple(getattr(self, key) for key in dims)

    def __repr__(self):
        args = ", ".join(f"{key}={getattr(self, key)}" for key in self._arg_names)
        return f"{type(self).__name__}({args})"

    def norm(self, x) -> float:
        return self._nested_norm(x, [p for p, _ in self._levels])

    def dual_norm(self, c) -> float:
        return self._nested_norm(c, [_conjugate(p) for p, _ in self._levels])

    def euclidean_diameter(self) -> float:
        """2r times k^max(0, 1/2 - 1/p) per level, the largest l_2 norm of a
        unit l_p vector of length k, multiplied innermost first."""
        diameter = 2.0 * self.r
        for p, k in self._levels:
            diameter *= k ** max(0.0, 0.5 - 1.0 / p)
        return diameter

    def strong_convexity(self) -> float:
        """min (p - 1) / r over the levels, for every p in (1, 2]: the
        moduli Garber & Hazan (ICML 2015) give l_p, Schatten-p and group
        balls, checked against their definition by sampling in the tests."""
        exponents = [p for p, _ in self._levels]
        if not all(1.0 < p <= 2.0 for p in exponents):
            raise ValueError(f"{self!r}: strong convexity needs exponents in (1, 2]")
        return min(p - 1.0 for p in exponents) / self.r

    def lmo(self, c) -> np.ndarray:
        """argmin_{v in set} <v, c>: r at the first entry for c = 0, else
        the family's _vertex of c scaled exactly into [1/2, 1)."""
        c = as_shaped(c, self.shape)
        top = float(np.abs(c).max())
        if top == 0.0:
            return self._first_vertex()
        return self._vertex(np.ldexp(c, -math.frexp(top)[1]))

    def _first_vertex(self) -> np.ndarray:
        v = np.zeros(self.shape)
        v.flat[0] = self.r
        return v

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


class LpBall(_NormBall):
    """{w in R^d : ||w||_p <= r} for p in [1, inf]."""

    def __init__(self, p: float, r: float, d: int):
        super().__init__({"p": p}, r, {"d": d})
        self._levels = ((self.p, self.d),)

    def _nested_norm(self, x, exponents) -> float:
        return lp_norm(as_shaped(x, self.shape), exponents[0])

    def _vertex(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2.0:
            return -self.r * (a / math.sqrt(float(np.vdot(a, a))))
        return -self.r * _max_unit_vector(a, self.p)[0]

    def project(self, x) -> np.ndarray:
        return _project_lp_vector(as_shaped(x, self.shape), self.p, self.r)


class SchattenPBall(_NormBall):
    """{W in R^(m x n) : ||sigma(W)||_p <= r}: the l_p ball on singular values."""

    def __init__(self, p: float, r: float, m: int, n: int):
        super().__init__({"p": p}, r, {"m": m, "n": n})
        self._levels = ((self.p, min(self.m, self.n)),)

    def _nested_norm(self, x, exponents) -> float:
        return lp_norm(svd(as_shaped(x, self.shape)).s, exponents[0])

    def _vertex(self, a: np.ndarray) -> np.ndarray:
        if 1.0 < self.p <= 2.0:
            return self._gram_vertex(a)
        dec = svd(a)
        w = _max_unit_vector(dec.s, self.p)[0]
        return -self.r * (dec.u * w) @ dec.v.T

    def _gram_vertex(self, a: np.ndarray) -> np.ndarray:
        """The vertex for 1 < p <= 2, from the Gram matrix of the smaller side.

        With a the cost the base scaled into [1/2, 1), transposed here if it
        has more columns than rows, and a^T a = V diag(s^2) V^T,
            v = -r a V diag(t^(q-2)) V^T / ||s||_q,  t = s / ||s||_q,
        whose singular values are r t^(q-1): ||v||_p = r and <v, c> =
        -r ||c||_q.  As q >= 2, no singular value is divided by, so the
        small ones that squaring blurs enter with weights t^(q-2) <= 1.
        """
        wide = self.m < self.n
        a = a.T if wide else a
        lam, vecs = eigh(a.T @ a)
        s = np.sqrt(np.maximum(lam, 0.0))  # rounding can leave lam < 0
        q = _conjugate(self.p)
        dual = lp_norms(s, q)  # at least max|a| >= 1/2
        w = (s / dual) ** (q - 2.0) / dual
        v = -self.r * (a @ ((vecs * w) @ vecs.T))
        return v.T if wide else v

    def project(self, x) -> np.ndarray:
        x = as_shaped(x, self.shape)
        dec = svd(x)
        s = _project_lp_vector(dec.s, self.p, self.r)
        if s is dec.s:  # feasible inputs pass through
            return x
        return (dec.u * s) @ dec.v.T


class GroupLpqBall(_NormBall):
    """Mixed-norm ball on R^(m x n) with rows as groups.

    The ball norm takes l_p within each row, then l_q across the row norms:
        ||W|| = ( sum_i ||W_i||_p^q )^(1/q).
    The lmo scales per-row dual witnesses by an outer dual witness over the
    row norms; rows of c that are identically zero map to zero rows.
    """

    def __init__(self, p: float, q: float, r: float, m: int, n: int):
        super().__init__({"p": p, "q": q}, r, {"m": m, "n": n})
        self._levels = ((self.p, self.n), (self.q, self.m))

    def _nested_norm(self, x, exponents) -> float:
        inner, outer = exponents
        return lp_norm(lp_norms(np.abs(as_shaped(x, self.shape)), inner), outer)

    def _vertex(self, a: np.ndarray) -> np.ndarray:
        inner, row_dual = _max_unit_vector(a, self.p)
        outer, _ = _max_unit_vector(row_dual, self.q)
        return -self.r * inner * outer[:, None]

    def project(self, x) -> np.ndarray:
        x = as_shaped(x, self.shape)
        if self.p != 2.0:
            raise ValueError("group-ball projection needs inner exponent p = 2")
        norms = lp_norms(np.abs(x), 2.0)
        shrunk = _project_lp_vector(norms, self.q, self.r)
        if shrunk is norms:  # feasible inputs pass through
            return x
        scale = np.where(norms > 0.0, shrunk / np.where(norms > 0.0, norms, 1.0), 0.0)
        return x * scale[:, None]
