"""Oracles and projections at the extremes, as property tests.

Exponents run over {1, 1 + 1e-6, 1.5, 2, 3, 50, inf}, vectors up to d = 1000,
inputs are zero, one-hot, tied, with zero rows or spread over many decades,
and their magnitudes run from subnormal to 1e300.  Every oracle answer must
be feasible and attain <lmo(c), c> = -r ||c||_*.  Every projection must be
feasible and satisfy the variational inequality <x - Px, z - Px> <= 0 for
feasible z, which is tightest at z = lmo(Px - x).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projfree.feasible_sets import GroupLpqBall, LpBall, SchattenPBall

EXPONENTS = [1.0, 1.0 + 1e-6, 1.5, 2.0, 3.0, 50.0, math.inf]
CLOSED_FORM = [1.0, 2.0, math.inf]
NEWTON = [1.0 + 1e-6, 1.5, 3.0, 50.0]
EPS = np.finfo(float).eps

_vector_dims = st.one_of(st.integers(1, 8), st.sampled_from([50, 1000]))
_matrix_dims = st.tuples(st.integers(1, 12), st.integers(1, 12))
_group_dims = st.tuples(st.integers(1, 40), st.integers(1, 25))


@st.composite
def _direction(draw, shape):
    """An input of order one: random, one-hot, tied, with zero rows (zero
    entries for vectors), spread over 30 decades, or zero."""
    kind = draw(st.sampled_from(
        ["random", "one-hot", "tied", "zero rows", "wide", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = math.prod(shape)
    if kind == "one-hot":
        x = np.zeros(size)
        x[rng.integers(size)] = rng.choice([-1.0, 1.0])
    elif kind == "tied":
        x = rng.choice([-1.0, 1.0], size)
    elif kind == "zero":
        x = np.zeros(size)
    else:
        x = rng.standard_normal(size)
        if kind == "wide":
            x *= 10.0 ** rng.uniform(-30.0, 0.0, size)
    x = x.reshape(shape)
    if kind == "zero rows":
        x[rng.random(shape[0]) < 0.5] = 0.0
    return x


@st.composite
def _lp_balls(draw, exponents, r=1.0):
    return LpBall(draw(st.sampled_from(exponents)), r, draw(_vector_dims))


@st.composite
def _schatten_balls(draw, exponents, r=1.0):
    m, n = draw(_matrix_dims)
    return SchattenPBall(draw(st.sampled_from(exponents)), r, m, n)


@st.composite
def _group_balls(draw, inner, outer, r=1.0):
    m, n = draw(_group_dims)
    p, q = draw(st.sampled_from(inner)), draw(st.sampled_from(outer))
    return GroupLpqBall(p, q, r, m, n)


def _any_ball(r=1.0):
    return st.one_of(
        _lp_balls(EXPONENTS, r),
        _schatten_balls(EXPONENTS, r),
        _group_balls(EXPONENTS, EXPONENTS, r),
    )


# ---------------------------------------------------------------------------
# oracles


@settings(max_examples=600)
@given(st.data(), _any_ball(), st.integers(-323, 300))
def test_lmo_is_feasible_and_attains_the_dual_norm(data, region, decade):
    c = data.draw(_direction(region.shape)) * 10.0**decade
    v = region.lmo(c)
    assert region.contains(v, tol=1e-9)
    top = float(np.abs(c).max())
    if top == 0.0:
        np.testing.assert_array_equal(v, region._first_vertex())
        return
    # The oracle is scale-invariant, so the identity is checked on c / max|c|,
    # whose products neither overflow nor underflow.
    u = c / top
    assert float(np.vdot(v, u)) == pytest.approx(
        -region.r * region.dual_norm(u), rel=1e-9
    )


# ---------------------------------------------------------------------------
# projections


def _outside(region, direction, ratio):
    """direction scaled so that its set-norm is ratio * r; no entry then
    exceeds ratio * r, since every norm here is at least max|x_ij|."""
    u = direction / np.abs(direction).max()
    return u * (ratio * region.r / region.norm(u))


def _check_projection(region, x, tol):
    px = region.project(x)
    assert region.contains(px, tol=tol)
    assert region.norm(px) >= region.r * (1.0 - 1e-9)  # x lies outside
    # <x - Px, z - Px> for z = lmo(Px - x), with x - Px scaled to max 1 and
    # z - Px divided by r so that nothing overflows; relative to ||x - Px||.
    e = x - px
    e = e / np.abs(e).max()
    z = region.lmo(-e)
    worst = float(np.vdot(e, (z - px) / region.r)) / float(np.linalg.norm(e))
    assert worst <= tol


_radii = st.sampled_from([1e-300, 1e-17, 1e-3, 1.0, 1e3])


def _far_outside(data, exponents, r, decades):
    """A ball with exponents p (group balls: q, for inner p = 2) and radius r,
    and an input 10^decades radii outside it, its largest entry at most 1e300."""
    region = data.draw(st.one_of(
        _lp_balls(exponents, r),
        _schatten_balls(exponents, r),
        _group_balls([2.0], exponents, r),
    ))
    direction = data.draw(_direction(region.shape))
    assume(direction.any() and 10.0**decades * r <= 1e300)
    return region, _outside(region, direction, 10.0**decades)


@settings(max_examples=400)
@given(st.data(), _radii, st.floats(0.2, 300.0))
def test_closed_form_projection_is_feasible_and_variational(data, r, decades):
    # Ratios ||x|| / r from 1.6 to 1e300.
    _check_projection(*_far_outside(data, CLOSED_FORM, r, decades), 1e-9)


@settings(max_examples=400)
@given(st.data(), _radii, st.floats(0.2, 300.0))
def test_newton_projection_is_feasible_and_variational(data, r, decades):
    # The multiplier Newton at the closed forms' ranges: ratios up to 1e300,
    # radii down to 1e-300, p from 1 + 1e-6 to 50.
    _check_projection(*_far_outside(data, NEWTON, r, decades), 1e-9)


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
def test_newton_projection_at_max_entry_1e300(p):
    # ||x||_p^p is past the float range here; the solve never forms it.
    x = np.random.default_rng(0).standard_normal(1000)
    x *= 1e300 / np.abs(x).max()
    _check_projection(LpBall(p, 1.0, 1000), x, 1e-9)


def _spread(d, top):
    x = np.random.default_rng(1).standard_normal(d)
    return x * (top / np.abs(x).max())


@pytest.mark.parametrize("p, r, x", [
    (1.5, 1.0, _spread(1000, 1e60)),  # powers of the raw entries overflowed
    (1.1, 1.0, _spread(1000, 1e100)),
    (1.5, 1e-300, np.array([1e-299])),  # r^p underflowed
    (1.0 + 1e-6, 1e-9, np.array([1.0, 2.0])),  # t = |x_i| - lam p t^(p-1) lost t
    (1.5, 1.0, np.array([1e300, 1e-30])),  # |x_i| / max|x| underflows
], ids=["p1.5-max1e60", "p1.1-max1e100", "r1e-300", "p1+1e-6-r1e-9", "ratio-underflow"])
def test_newton_projection_cases_that_used_to_fail(p, r, x):
    _check_projection(LpBall(p, r, x.size), x, 1e-9)


# ---------------------------------------------------------------------------
# the l1 projection against exact arithmetic


def _exact_l1_projection(x, r):
    """Projection onto the l1 ball of radius r in rational arithmetic: the
    largest rho whose soft threshold keeps the rho-th largest |x_i| positive."""
    a = [abs(Fraction(float(v))) for v in x]
    r = Fraction(float(r))
    u = sorted(a, reverse=True)
    rho = max(j for j in range(1, len(u) + 1) if u[j - 1] * j > sum(u[:j]) - r)
    theta = (sum(u[:rho]) - r) / rho
    return [(1 if v >= 0 else -1) * max(t - theta, 0) for v, t in zip(x, a)]


@settings(max_examples=300)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6)),
             min_size=1, max_size=6).filter(any),
    st.floats(0.0, 300.0),
    st.floats(-300.0, 0.0),
)
@example([1e16, 0.5, 0.2], 16.0, 0.0)
@example([1.0, 0.5], 17.0, -17.0)
@example([1.0, 1.0, 1.0], 300.0, -300.0)
def test_l1_projection_matches_exact_arithmetic(entries, log_ratio, log_r):
    r = 10.0**log_r
    ball = LpBall(1.0, r, len(entries))
    u = np.array(entries)
    x = u * (10.0**log_ratio * r / float(np.abs(u).max()))
    assume(ball.norm(x) > r * (1.0 + 1e-12))  # nearer points pass through
    got = ball.project(x)
    want = _exact_l1_projection(x, r)
    err = max(abs(Fraction(float(g)) - Fraction(w)) for g, w in zip(got, want))
    assert err <= 4 * len(entries) * EPS * Fraction(r)


def test_l1_projection_far_outside_the_ball():
    # Once max|x| / r passes 2^53, sum(x) - r loses r entirely.
    cases = [
        (LpBall(1.0, 1.0, 3), np.array([1e16, 0.5, 0.2]), [1.0, 0.0, 0.0]),
        (LpBall(1.0, 1e-17, 2), np.array([1.0, 0.5]), [1e-17, 0.0]),
    ]
    for ball, x, want in cases:
        np.testing.assert_array_equal(ball.project(x), want)
    got = SchattenPBall(1.0, 1.0, 2, 2).project(np.diag([1e17, 1.0]))
    np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-16)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_group_projection_rows_near_overflow(q):
    # Row norms of 1e200-sized rows overflow unless they are rescaled.
    x = np.array([[1e200, 1e200], [1.0, 1.0]])
    got = GroupLpqBall(2.0, q, 1.0, 2, 2).project(x)
    half = math.sqrt(0.5)
    want = {
        1.0: [[half, half], [0.0, 0.0]],
        2.0: [[half, half], [half * 1e-200, half * 1e-200]],
        math.inf: [[half, half], [half, half]],
    }[q]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
