"""Norm balls: linear minimization oracles, projections, and constants.

Frozen reference values come from 40-digit evaluations of the closed forms;
the sampled checks compare oracle answers against dense boundary scans.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projfree.errors import NumericFailure
from projfree.feasible_sets import (
    GroupLpqBall,
    LpBall,
    SchattenPBall,
    _conjugate,
    _max_unit_vector,
)
from projfree.numerics import lp_norm

RNG = np.random.default_rng(123)
EXPONENTS = [1.0, 1.0 + 1e-6, 1.5, 2.0, 3.0, 50.0, math.inf]
EPS = np.finfo(float).eps


def _l15_boundary_2d(samples: int) -> np.ndarray:
    """Dense boundary of the 2-D unit l_1.5 ball via the angle map
    (|cos t|^(4/3), |sin t|^(4/3)) with all four sign patterns."""
    t = np.linspace(0.0, np.pi / 2, samples)
    base = np.stack([np.cos(t) ** 2, np.sin(t) ** 2], axis=1) ** (2.0 / 3.0)
    quads = [np.array([sx, sy]) for sx in (1, -1) for sy in (1, -1)]
    return np.concatenate([base * q for q in quads], axis=0)


# ---------------------------------------------------------------------------
# lmo


def test_lmo_l2_antiradial():
    ball = LpBall(p=2.0, r=1.0, d=2)
    np.testing.assert_allclose(
        ball.lmo(np.array([3.0, 4.0])), [-0.6, -0.8], atol=1e-12
    )


def test_lmo_linf_sign_rule_with_zero():
    ball = LpBall(p=np.inf, r=2.0, d=3)
    np.testing.assert_allclose(
        ball.lmo(np.array([1.0, -3.0, 0.0])), [-2.0, 2.0, 0.0], atol=0.0
    )


def test_lmo_l1_picks_largest_coordinate():
    ball = LpBall(p=1.0, r=1.0, d=3)
    np.testing.assert_allclose(
        ball.lmo(np.array([1.0, -3.0, 0.0])), [0.0, 1.0, 0.0], atol=0.0
    )


def test_lmo_l1_tie_breaks_to_lowest_index():
    ball = LpBall(p=1.0, r=1.0, d=3)
    v = ball.lmo(np.array([2.0, -2.0, 2.0]))
    np.testing.assert_allclose(v, [-1.0, 0.0, 0.0], atol=0.0)


def test_lmo_l15_frozen():
    ball = LpBall(p=1.5, r=1.0, d=2)
    c = np.array([1.0, 2.0])
    v = ball.lmo(c)
    np.testing.assert_allclose(
        v, [-0.2311204247835449, -0.92448169913417961], atol=1e-12
    )
    assert float(v @ c) == pytest.approx(-2.0800838230519041, abs=1e-12)


def test_lmo_l15_beats_dense_boundary_scan():
    ball = LpBall(p=1.5, r=1.0, d=2)
    c = np.array([1.0, 2.0])
    pts = _l15_boundary_2d(100_000)
    brute = float((pts @ c).min())
    assert float(ball.lmo(c) @ c) <= brute + 1e-3


def test_lmo_zero_direction_is_deterministic():
    for region in (
        LpBall(p=1.5, r=2.0, d=3),
        SchattenPBall(p=2.0, r=1.0, m=2, n=3),
        GroupLpqBall(p=2.0, q=1.5, r=1.0, m=2, n=3),
    ):
        c = np.zeros(region.shape)
        v = region.lmo(c)
        expected = np.zeros(region.shape)
        expected.flat[0] = region.r
        np.testing.assert_allclose(v, expected, atol=0.0)


@pytest.mark.parametrize(
    "region",
    [
        LpBall(p=1.0, r=1.5, d=5),
        LpBall(p=1.5, r=2.0, d=5),
        LpBall(p=2.0, r=0.7, d=5),
        LpBall(p=3.0, r=1.0, d=5),
        LpBall(p=np.inf, r=2.5, d=5),
        SchattenPBall(p=1.5, r=1.2, m=4, n=3),
        SchattenPBall(p=2.0, r=3.0, m=3, n=3),
        GroupLpqBall(p=1.5, q=1.75, r=1.1, m=3, n=4),
        GroupLpqBall(p=2.0, q=2.0, r=2.0, m=3, n=4),
    ],
)
def test_lmo_duality_identity(region):
    # <lmo(c), c> = -r * dual_norm(c), and the answer sits on the boundary.
    for _ in range(5):
        c = RNG.standard_normal(region.shape)
        v = region.lmo(c)
        assert float(np.vdot(v, c)) == pytest.approx(
            -region.r * region.dual_norm(c), rel=1e-9, abs=1e-9
        )
        assert region.norm(v) == pytest.approx(region.r, rel=1e-9)
        assert region.contains(v, tol=1e-8)


def test_lmo_positively_homogeneous_in_direction():
    region = LpBall(p=1.5, r=1.0, d=4)
    c = RNG.standard_normal(4)
    for a in (0.1, 1.0, 250.0):
        np.testing.assert_allclose(region.lmo(a * c), region.lmo(c), atol=1e-12)


def test_lmo_shape_mismatch():
    with pytest.raises(ValueError):
        LpBall(p=2.0, r=1.0, d=3).lmo(np.ones(4))
    with pytest.raises(ValueError):
        SchattenPBall(p=2.0, r=1.0, m=2, n=2).lmo(np.ones((3, 2)))
    # Every entry point of every family rejects a non-finite argument: the
    # run loop leaves that check to its oracle and projection calls.
    for region in (LpBall(p=1.5, r=1.0, d=3), SchattenPBall(p=1.5, r=1.0, m=3, n=2),
                   GroupLpqBall(p=2.0, q=1.5, r=1.0, m=3, n=2)):
        for call in (region.lmo, region.project, region.norm, region.dual_norm,
                     region.contains):
            for bad in (np.nan, np.inf, -np.inf):
                x = np.ones(region.shape)
                x.flat[-1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    call(x)


# Entries whose squares overflow, underflow or go subnormal, next to
# ordinary ones.
_l2_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.9, 9.9),
              st.sampled_from([-300, -200, -160, -155, 153, 154, 200, 300])),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny]),
)


@st.composite
def _l2_costs(draw):
    """Cost vectors for the l2 oracle: random, one-hot, tied and zero."""
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "one-hot", "tied", "zero"]))
    if kind == "random":
        return np.array(draw(st.lists(_l2_entries, min_size=d, max_size=d)))
    c = np.zeros(d)
    if kind == "one-hot":
        c[draw(st.integers(0, d - 1))] = draw(_l2_entries)
    elif kind == "tied":
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
        c = abs(draw(_l2_entries)) * np.array(signs)
    return c


@settings(max_examples=400)
@given(_l2_costs(), st.sampled_from([1e-3, 0.7, 1.0, 3.0, 1e6]))
@example(np.array([1e200, -1e200]), 1.0)  # the square overflows
@example(np.array([1e-160, 3e-170]), 1.0)  # the square is subnormal
@example(np.array([2e-154, 5e-324, 0.0]), 1.0)  # just above the smallest normal
def test_lmo_l2_closed_form_matches_rescaled_path(c, r):
    ball = LpBall(p=2.0, r=r, d=c.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = ball.lmo(c)
    eps = np.finfo(float).eps
    top = float(np.abs(c).max())
    if top == 0.0:
        np.testing.assert_array_equal(v, ball._first_vertex())
        return
    # <lmo(c), c> = -r ||c||_2, compared on c / max|c| so that nothing
    # overflows or underflows.
    u = c / top
    assert float(np.vdot(v, u)) == pytest.approx(-r * lp_norm(u, 2.0), rel=8 * eps)
    witness, _ = _max_unit_vector(c, 2.0)
    rescaled = -r * witness
    assert np.abs(v - rescaled).max() <= 4 * eps * r


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lmo_subnormal_cost_lands_on_the_boundary(p):
    # The dual norm of a subnormal cost keeps only a few bits unless the
    # cost is rescaled first.
    ball = LpBall(p=p, r=1.0, d=3)
    for c in ([-5e-324, -5e-324, 0.0], [1e-310, -3e-312, 5e-324]):
        v = ball.lmo(np.array(c))
        assert ball.norm(v) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_array_equal(np.sign(v), -np.sign(c))


# The witness over rows.  Its power (|c| / ||c||_q)^(q-1) multiplies the
# relative rounding of the ratio by q - 1, so rows are held to 4 eps times
# that factor where it exceeds 1 (q > 2, i.e. p < 2); at p = 1 + 1e-6 a row
# with two near-equal entries reads several hundred eps.


def _witness_tol(p: float) -> float:
    q = _conjugate(p)
    return 4 * EPS * (q - 1.0 if 2.0 < q < math.inf else 1.0)


@pytest.mark.parametrize("p", EXPONENTS)
def test_witness_rows_are_unit_and_attain_the_dual_norm(p):
    rng = np.random.default_rng(21)
    c = rng.standard_normal((10, 7)) * 10.0 ** rng.uniform(-30.0, 30.0, (10, 1))
    c[3] = 0.0
    c[7, 2:] = 0.0
    u, dual = _max_unit_vector(c, p)
    q, tol = _conjugate(p), _witness_tol(p)
    assert u.shape == c.shape and dual.shape == (10,)
    np.testing.assert_array_equal(u[3], 0.0)
    assert dual[3] == 0.0
    for i in (0, 1, 2, 4, 5, 6, 7, 8, 9):
        assert lp_norm(u[i], p) == pytest.approx(1.0, rel=tol, abs=0.0)
        assert math.fsum(u[i] * c[i]) == pytest.approx(dual[i], rel=tol, abs=0.0)
        assert dual[i] == pytest.approx(lp_norm(c[i], q), rel=4 * EPS, abs=0.0)


def test_witness_rows_l1_ties_go_to_the_lowest_index():
    c = np.array([[0.0, 3.0, -3.0], [-5.0, 5.0, 5.0], [0.0, 0.0, 0.0],
                  [1.0, -2.0, 2.0]])
    u, dual = _max_unit_vector(c, 1.0)
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                         [0.0, -1.0, 0.0]])
    np.testing.assert_array_equal(u, expected)
    np.testing.assert_array_equal(dual, [3.0, 5.0, 0.0, 2.0])


@pytest.mark.parametrize("p", EXPONENTS)
def test_witness_subnormal_row_beside_a_huge_row(p):
    # Only the subnormal row is rescaled; scaling the 1e300 row too would
    # overflow, which warns, and the zero row stays zero.
    c = np.array([[5e-324, -1e-310, 0.0, 3e-320], [1e300, -1e300, 3e299, 0.0],
                  [0.0, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, dual = _max_unit_vector(c, p)
    np.testing.assert_array_equal(u[2], 0.0)
    assert dual[2] == 0.0
    q, tol = _conjugate(p), _witness_tol(p)
    for row, cost, norm in zip(u[:2], c, dual):
        assert lp_norm(row, p) == pytest.approx(1.0, rel=tol, abs=0.0)
        assert norm == pytest.approx(lp_norm(cost, q), rel=4 * EPS, abs=0.0)
        scaled = np.ldexp(cost, 1022) if norm < 1e-300 else cost
        attained = math.fsum(row * scaled)
        assert attained == pytest.approx(lp_norm(scaled, q), rel=tol, abs=0.0)


def _subnormal_group_costs():
    yield 2.0, 2.0, np.array([[5e-324, 5e-324], [0.0, 5e-324]])
    c = np.full((3, 4), 5e-324)
    c[1, 2] = 1e-320
    yield 3.0, 2.0, c
    yield 2.0, 1.5, c


@pytest.mark.parametrize("p, q, c", _subnormal_group_costs())
def test_group_lmo_subnormal_cost_lands_on_the_boundary(p, q, c):
    # Subnormal row norms keep a few bits unless the cost is rescaled first.
    ball = GroupLpqBall(p=p, q=q, r=1.0, m=c.shape[0], n=c.shape[1])
    v = ball.lmo(c)
    assert ball.contains(v, tol=1e-9)
    # The oracle is scale-invariant; check duality on the exactly rescaled
    # cost, whose products do not underflow.
    u = np.ldexp(c, 1022)
    assert float(np.vdot(v, u)) == pytest.approx(-ball.dual_norm(u), rel=1e-9)


def _unit_maximizer(c: np.ndarray, p: float) -> np.ndarray:
    """Unit-l_p vector u maximizing <u, c>, straight from Holder's equality
    case; zero for c = 0 and lowest index on p = 1 ties."""
    u = np.zeros_like(c)
    if not np.any(c):
        return u
    if p == 1.0:
        j = int(np.argmax(np.abs(c)))
        u[j] = np.sign(c[j])
        return u
    if math.isinf(p):
        return np.sign(c)
    q = p / (p - 1.0)
    return np.sign(c) * (np.abs(c) / np.linalg.norm(c, q)) ** (q - 1.0)


def _group_reference(c: np.ndarray, p: float, q: float, r: float):
    """Norm, dual norm and lmo of the group ball, one row at a time."""
    pd = math.inf if p == 1.0 else (1.0 if math.isinf(p) else p / (p - 1.0))
    qd = math.inf if q == 1.0 else (1.0 if math.isinf(q) else q / (q - 1.0))
    norm = np.linalg.norm([np.linalg.norm(row, p) for row in c], q)
    row_dual = np.array([np.linalg.norm(row, pd) for row in c])
    inner = np.array([_unit_maximizer(row, p) for row in c])
    outer = _unit_maximizer(row_dual, q)
    return norm, np.linalg.norm(row_dual, qd), -r * inner * outer[:, None]


@pytest.mark.parametrize("q", [1.0, 1.5, np.inf])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
def test_group_ball_matches_row_loop_reference(p, q):
    ball = GroupLpqBall(p=p, q=q, r=1.7, m=6, n=4)
    rng = np.random.default_rng(31)
    random = rng.standard_normal((6, 4))
    random[2] = 0.0
    # Integer rows with ties inside a row (p = 1 picks the lowest column) and
    # a repeated row, so the rows tie on their dual norms as well.
    tied = np.array([
        [2.0, -2.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-3.0, 1.0, 3.0, -1.0],
        [2.0, -2.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    for c in (random, tied):
        norm, dual, v = _group_reference(c, p, q, ball.r)
        assert ball.norm(c) == pytest.approx(norm, rel=1e-12)
        assert ball.dual_norm(c) == pytest.approx(dual, rel=1e-12)
        np.testing.assert_allclose(ball.lmo(c), v, rtol=1e-12, atol=1e-15)
        assert not np.any(ball.lmo(c)[~np.any(c, axis=1)])


def test_group_lmo_l1_ties_break_to_lowest_index():
    ball = GroupLpqBall(p=1.0, q=1.0, r=1.0, m=3, n=3)
    c = np.array([[0.0, 0.0, 0.0], [1.0, -4.0, 4.0], [4.0, 4.0, 0.0]])
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    np.testing.assert_array_equal(ball.lmo(c), expected)


def test_schatten_lmo_duality_beyond_old_size_cap():
    ball = SchattenPBall(p=1.5, r=2.0, m=600, n=520)
    c = np.random.default_rng(17).standard_normal((600, 520))
    v = ball.lmo(c)
    s = np.linalg.svd(c, compute_uv=False)
    assert float(np.vdot(v, c)) == pytest.approx(
        -ball.r * np.linalg.norm(s, 3.0), rel=1e-9
    )


# The Schatten oracle for 1 < p <= 2 works from the Gram matrix of the
# smaller side, whose eigenvalues hold the squares of the singular values:
# costs with singular values from 1 to 1e-8 lose the small ones' low bits
# there, and magnitudes far from 1 would overflow or underflow the square.

_GRAM_EXPONENTS = [1.0 + 1e-6, 1.2, 1.5, 2.0]
_GRAM_SHAPES = [(9, 4), (4, 9), (6, 6), (1, 7), (7, 1)]


def _ill_conditioned(shape, scale, seed=29):
    """A cost of `shape` with singular values logspaced from scale to 1e-8 scale."""
    rng = np.random.default_rng(seed)
    k = min(shape)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return (u * np.logspace(0.0, -8.0, k)) @ v.T * scale


def _svd_witness(c, p, r):
    """The oracle's answer in its SVD form, -r U diag(t^(q-1)) V^T with
    t = s / ||s||_q, from numpy's SVD of c / max|c|."""
    u, s, vt = np.linalg.svd(c / np.abs(c).max(), full_matrices=False)
    q = _conjugate(p)
    t = s / lp_norm(s, q)
    return -r * (u * t ** (q - 1.0)) @ vt


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("shape", _GRAM_SHAPES, ids=str)
@pytest.mark.parametrize("p", _GRAM_EXPONENTS)
def test_schatten_gram_lmo_is_exact_on_ill_conditioned_costs(p, shape, scale):
    r = 2.5
    ball = SchattenPBall(p, r, *shape)
    c = _ill_conditioned(shape, scale)
    v = ball.lmo(c)
    u = c / np.abs(c).max()  # the identity on a cost whose products stay in range
    dual = lp_norm(np.linalg.svd(u, compute_uv=False), _conjugate(p))
    assert float(np.vdot(v, u)) == pytest.approx(-r * dual, rel=1e-12)
    assert lp_norm(np.linalg.svd(v, compute_uv=False), p) == pytest.approx(r, rel=1e-12)
    np.testing.assert_allclose(v, _svd_witness(c, p, r), rtol=0.0, atol=1e-12 * r)


def test_schatten_svd_lmo_rescales_a_subnormal_spectrum(monkeypatch):
    # p = 3 takes the SVD path; at 1e-310 the spectrum keeps a few bits
    # unless the cost is first scaled by 2^1022, which is exact.
    from projfree import feasible_sets

    r = 2.5
    c = 1e-310 * np.random.default_rng(65).standard_normal((4, 3))
    calls = []
    svd = feasible_sets.svd
    monkeypatch.setattr(feasible_sets, "svd", lambda a: calls.append(1) or svd(a))
    v = SchattenPBall(3.0, r, 4, 3).lmo(c)
    assert len(calls) == 2  # the subnormal spectrum's SVD, then the rescaled one
    scaled = np.ldexp(c, 1022)
    dual = lp_norm(np.linalg.svd(scaled, compute_uv=False), _conjugate(3.0))
    assert float(np.vdot(v, scaled)) == pytest.approx(-r * dual, rel=1e-12)


def test_schatten_gram_lmo_maps_an_eigh_failure_to_numeric_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericFailure, match="eigh failed: Eigenvalues did not converge"):
        SchattenPBall(1.5, 1.0, 3, 2).lmo(np.arange(6.0).reshape(3, 2))


# ---------------------------------------------------------------------------
# projection


def test_project_l2_radial():
    ball = LpBall(p=2.0, r=1.0, d=2)
    np.testing.assert_allclose(
        ball.project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12
    )


def test_project_l1_symmetric_point():
    ball = LpBall(p=1.0, r=1.0, d=2)
    np.testing.assert_allclose(
        ball.project(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-12
    )


def test_project_linf_clips():
    ball = LpBall(p=np.inf, r=1.0, d=3)
    np.testing.assert_allclose(
        ball.project(np.array([3.0, -0.5, -2.0])), [1.0, -0.5, -1.0], atol=0.0
    )


def test_project_interior_passthrough():
    for region in (
        LpBall(p=1.5, r=1.0, d=3),
        LpBall(p=3.0, r=1.0, d=3),  # no general projection, but feasible is id
        SchattenPBall(p=2.0, r=5.0, m=2, n=2),
        GroupLpqBall(p=2.0, q=1.5, r=4.0, m=2, n=2),
    ):
        x = np.full(region.shape, 0.1)
        np.testing.assert_allclose(region.project(x), x, atol=1e-12)


def test_project_l15_frozen():
    ball = LpBall(p=1.5, r=1.0, d=2)
    got = ball.project(np.array([1.0, 2.0]))
    np.testing.assert_allclose(
        got, [0.32000487666420174, 0.87534845448283206], atol=1e-8
    )


def test_project_l15_beats_dense_boundary_scan():
    ball = LpBall(p=1.5, r=1.0, d=2)
    x = np.array([1.0, 2.0])
    got = ball.project(x)
    pts = _l15_boundary_2d(250_000)
    brute = float(np.sqrt(((pts - x) ** 2).sum(axis=1)).min())
    assert float(np.linalg.norm(got - x)) <= brute + 1e-3


@pytest.mark.parametrize(
    "region",
    [
        LpBall(p=1.0, r=1.0, d=6),
        LpBall(p=1.3, r=0.8, d=6),
        LpBall(p=2.0, r=1.5, d=6),
        LpBall(p=np.inf, r=0.5, d=6),
        SchattenPBall(p=1.5, r=1.0, m=3, n=4),
        SchattenPBall(p=np.inf, r=1.0, m=3, n=3),
        GroupLpqBall(p=2.0, q=1.5, r=1.0, m=3, n=4),
        SchattenPBall(p=1.5, r=2.0, m=100, n=80),
        GroupLpqBall(p=2.0, q=1.5, r=2.0, m=200, n=50),
    ],
)
def test_project_idempotent_and_variational(region):
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = 3.0 * rng.standard_normal(region.shape)
        px = region.project(x)
        assert region.contains(px, tol=1e-7)
        np.testing.assert_allclose(region.project(px), px, atol=1e-9)
        # variational inequality: <x - px, z - px> <= 0 for feasible z,
        # tightest at the oracle vertex of px - x
        for z in [region.random_feasible(rng) for _ in range(20)] + [
            region.lmo(px - x)
        ]:
            assert float(np.vdot(x - px, z - px)) <= 1e-6


def test_project_unsupported_exponent():
    # Every l_p and Schatten exponent projects; group balls need inner p = 2.
    with pytest.raises(ValueError, match="inner exponent p = 2"):
        GroupLpqBall(p=1.5, q=1.5, r=1.0, m=2, n=2).project(np.ones((2, 2)))


def test_project_schatten_acts_on_spectrum():
    # Diagonal input: the matrix projection must equal the vector projection
    # of the singular values placed back on the diagonal.
    ball = SchattenPBall(p=2.0, r=1.0, m=2, n=2)
    got = ball.project(np.diag([3.0, 4.0]))
    np.testing.assert_allclose(got, np.diag([0.6, 0.8]), atol=1e-10)


@pytest.mark.parametrize("radius", [1e-9, 1e6, 1e8])
def test_project_l15_extreme_radii_land_on_boundary(radius):
    # The Newton solve stops relative to the radius, on the feasible side.
    ball = LpBall(p=1.5, r=radius, d=10)
    for seed in range(20):
        x = 2.0 * ball.random_boundary(np.random.default_rng(seed))
        nrm = ball.norm(ball.project(x))
        assert radius * (1.0 - 1e-9) <= nrm <= radius, seed


def _bisection_projection(x: np.ndarray, p: float, r: float) -> np.ndarray:
    """Reference l_p projection, p > 1, ||x||_p > r: nested bisection.

    The outer bisection on the KKT multiplier lam stops on a feasible norm
    within 1e-10 * r of r; for each lam, 90 inner bisection passes on [0, |x_i|]
    solve t + lam p t^(p-1) = |x_i| per coordinate.  Slow but independent of
    the Newton solve in the library.
    """
    a = np.abs(x)

    def magnitudes(lam):
        lo, hi = np.zeros_like(a), a.copy()
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
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        t = magnitudes(lam)
        norm = lp_norm(t, p)
        if norm > r:
            lam_lo = lam
        elif r - norm <= 1e-10 * r:
            return np.sign(x) * t
        else:
            lam_hi = lam
    raise AssertionError("reference bisection did not converge")


def _vi_worst(region, x, px, rng, samples=20) -> float:
    """max <x - px, z - px> over sampled feasible z and over the oracle vertex
    of px - x, where the inequality is tightest; relative to ||x - px|| * r."""
    resid = (x - px).ravel()
    zs = [region.random_feasible(rng) for _ in range(samples)]
    zs.append(region.lmo(px - x))
    worst = max(float(resid @ (z - px).ravel()) for z in zs)
    return worst / (float(np.linalg.norm(resid)) * region.r)


def _extreme_inputs(d: int, rng: np.random.Generator) -> dict:
    onehot = np.zeros(d)
    onehot[d // 2] = -1.0
    sparse = rng.standard_normal(d)
    sparse[rng.permutation(d)[: max(1, d // 5)]] = 0.0
    return {
        "one-hot": onehot,
        "tied": np.where(rng.random(d) < 0.5, -1.0, 1.0),
        "20% zeros": sparse,
        "random": rng.standard_normal(d),
    }


@pytest.mark.parametrize("d", [2, 10, 1000])
@pytest.mark.parametrize(
    "p", [1.0 + 1e-6, 1.001, 1.1, 1.5, 1.9, 1.999, 1.999999, 3.0, 50.0]
)
def test_project_lp_interior_extremes_match_bisection(p, d):
    # The projection scales with the radius, so one reference at r = 1 serves
    # every radius.
    rng = np.random.default_rng(int(1e6 * (p - 1.0)) + d)
    for kind, u in _extreme_inputs(d, rng).items():
        unit = 3.0 * u / lp_norm(u, p)
        ref = _bisection_projection(unit, p, 1.0)
        for radius in (1e-9, 1.0, 1e6, 1e8):
            case = (kind, radius)
            ball = LpBall(p=p, r=radius, d=d)
            x = radius * unit
            v = ball.project(x)
            assert radius * (1.0 - 1e-10) <= ball.norm(v) <= radius, case
            assert np.max(np.abs(v - radius * ref)) <= 1e-9 * radius, case
            assert np.all(v * x >= 0.0) and np.all(v[x == 0.0] == 0.0), case
            assert _vi_worst(ball, x, v, rng) <= 1e-9, case
            np.testing.assert_array_equal(ball.project(v), v)


def test_project_lp_interior_subnormal_inputs():
    x = np.array([1.0, 1e-320, -3e-310, 0.0, -2.0])
    for p in (1.0 + 1e-6, 1.001, 1.5, 1.999, 3.0, 50.0):
        ball = LpBall(p=p, r=1.0, d=5)
        v = ball.project(x)
        assert 1.0 - 1e-10 <= ball.norm(v) <= 1.0, p
        assert np.all(v * x >= 0.0) and v[3] == 0.0, p


# ---------------------------------------------------------------------------
# norms and constants


def test_group_norm_frozen():
    ball = GroupLpqBall(p=1.5, q=1.75, r=1.0, m=2, n=2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ball.norm(x) == pytest.approx(6.303135963057488, rel=1e-12)
    assert ball.dual_norm(x) == pytest.approx(4.8028641928177327, rel=1e-12)


def test_schatten_norm_frozen():
    ball = SchattenPBall(p=1.5, r=1.0, m=2, n=2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ball.norm(x) == pytest.approx(5.5279405440405873, rel=1e-10)
    assert ball.dual_norm(x) == pytest.approx(5.4655326951342164, rel=1e-10)


def test_schatten_norm_of_diagonal_matches_vector_norm():
    ball = SchattenPBall(p=1.5, r=1.0, m=2, n=2)
    assert ball.norm(np.diag([3.0, 4.0])) == pytest.approx(
        5.5842503764800294, rel=1e-12
    )


def test_holder_inequality_sampled():
    for region in (
        LpBall(p=1.5, r=1.0, d=5),
        SchattenPBall(p=1.5, r=1.0, m=3, n=3),
        GroupLpqBall(p=1.5, q=1.75, r=1.0, m=3, n=3),
    ):
        for _ in range(10):
            x = RNG.standard_normal(region.shape)
            y = RNG.standard_normal(region.shape)
            assert abs(float(np.vdot(x, y))) <= region.norm(x) * region.dual_norm(
                y
            ) * (1.0 + 1e-9)


def test_strong_convexity_values():
    assert LpBall(p=1.5, r=2.0, d=4).strong_convexity() == pytest.approx(0.25)
    assert LpBall(p=2.0, r=1.0, d=4).strong_convexity() == pytest.approx(1.0)
    assert SchattenPBall(p=2.0, r=12000.0, m=40, n=30).strong_convexity() == (
        pytest.approx(1.0 / 12000.0, rel=1e-12)
    )
    assert GroupLpqBall(
        p=1.5, q=1.75, r=2.0, m=3, n=3
    ).strong_convexity() == pytest.approx(0.25)


def test_strong_convexity_rejects_flat_exponents():
    for region in (
        LpBall(p=1.0, r=1.0, d=3),
        LpBall(p=3.0, r=1.0, d=3),
        LpBall(p=np.inf, r=1.0, d=3),
        SchattenPBall(p=2.5, r=1.0, m=2, n=2),
        GroupLpqBall(p=2.0, q=3.0, r=1.0, m=2, n=2),
        GroupLpqBall(p=1.0, q=2.0, r=1.0, m=2, n=2),
    ):
        with pytest.raises(ValueError):
            region.strong_convexity()


_STRONGLY_CONVEX_SETS = [
    LpBall(p=1.5, r=1.7, d=5),
    LpBall(p=1.2, r=1.7, d=5),
    SchattenPBall(p=1.5, r=1.7, m=3, n=3),
    SchattenPBall(p=1.2, r=1.7, m=3, n=3),
    GroupLpqBall(p=1.5, q=1.5, r=1.7, m=3, n=3),
    GroupLpqBall(p=2.0, q=1.5, r=1.7, m=3, n=3),
    GroupLpqBall(p=1.5, q=2.0, r=1.7, m=3, n=3),
    GroupLpqBall(p=1.2, q=1.2, r=1.7, m=3, n=3),
    GroupLpqBall(p=2.0, q=2.0, r=1.7, m=3, n=3),
]


@pytest.mark.parametrize("region", _STRONGLY_CONVEX_SETS, ids=repr)
def test_strong_convexity_meets_its_definition(region):
    """A set is alpha-strongly convex in its norm when, for x, y in it and
    gamma in [0, 1], the ball of radius gamma (1 - gamma) (alpha / 2)
    ||x - y||^2 around gamma x + (1 - gamma) y lies in it (Garber & Hazan,
    Faster rates for the Frank-Wolfe method over strongly-convex sets, ICML
    2015, who prove the moduli for l_p, Schatten-p and group balls).  For a
    norm ball that reads r - ||gamma x + (1 - gamma) y|| >= gamma (1 -
    gamma) (alpha / 2) ||x - y||^2.  Boundary pairs are sampled at distances
    from 1e-3 r to the diameter, near-antipodal ones included."""
    rng = np.random.default_rng(2015)
    r, alpha = region.r, region.strong_convexity()
    for _ in range(2000):
        x = region.random_boundary(rng)
        z = rng.standard_normal(region.shape)
        if rng.uniform() < 0.25:  # near -x
            y = -x + 0.1 * r * rng.uniform() * z / region.norm(z)
        else:
            step = r * 10.0 ** rng.uniform(-3.0, math.log10(2.0))
            y = x + step * z / region.norm(z)
        y *= r / region.norm(y)
        gamma = rng.uniform(0.0, 1.0)
        slack = r - region.norm(gamma * x + (1.0 - gamma) * y)
        need = gamma * (1.0 - gamma) * 0.5 * alpha * region.norm(x - y) ** 2
        assert slack >= need * (1.0 - 1e-9) - 8.0 * EPS * r


def test_diameters():
    # p <= 2 balls sit inside the l_2 ball of the same radius
    assert LpBall(p=1.5, r=2.0, d=9).euclidean_diameter() == pytest.approx(4.0)
    assert LpBall(p=3.0, r=2.0, d=4).euclidean_diameter() == pytest.approx(
        5.0396841995794927, rel=1e-12
    )
    assert LpBall(p=np.inf, r=1.0, d=9).euclidean_diameter() == pytest.approx(6.0)
    assert SchattenPBall(p=2.0, r=3.0, m=5, n=2).euclidean_diameter() == (
        pytest.approx(6.0)
    )
    assert SchattenPBall(p=np.inf, r=1.0, m=5, n=4).euclidean_diameter() == (
        pytest.approx(4.0)
    )
    assert GroupLpqBall(
        p=2.0, q=1.5, r=2.0, m=3, n=4
    ).euclidean_diameter() == pytest.approx(4.0)
    assert GroupLpqBall(
        p=np.inf, q=np.inf, r=1.0, m=4, n=9
    ).euclidean_diameter() == pytest.approx(2.0 * 3.0 * 2.0)


def test_euclidean_diameter_dominates_sampled_distances():
    for region in (
        LpBall(p=3.0, r=1.0, d=4),
        SchattenPBall(p=4.0, r=1.0, m=3, n=3),
        GroupLpqBall(p=3.0, q=2.5, r=1.0, m=3, n=3),
    ):
        rng = np.random.default_rng(17)
        cap = region.euclidean_diameter()
        for _ in range(50):
            a = region.random_boundary(rng)
            b = region.random_boundary(rng)
            assert float(np.linalg.norm((a - b).ravel())) <= cap * (1.0 + 1e-9)


def test_contains_tolerance():
    ball = LpBall(p=2.0, r=1.0, d=2)
    assert ball.contains(np.array([1.0, 0.0]))
    assert ball.contains(np.array([1.0 + 1e-10, 0.0]))
    assert not ball.contains(np.array([1.01, 0.0]))


def test_random_point_helpers():
    region = LpBall(p=1.5, r=2.0, d=5)
    rng = np.random.default_rng(0)
    b = region.random_boundary(rng)
    assert region.norm(b) == pytest.approx(region.r, rel=1e-9)
    f = region.random_feasible(rng)
    assert region.contains(f, tol=1e-9)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LpBall(p=0.5, r=1.0, d=2)
    with pytest.raises(ValueError):
        LpBall(p=2.0, r=0.0, d=2)
    with pytest.raises(ValueError):
        LpBall(p=2.0, r=1.0, d=0)
    with pytest.raises(ValueError):
        SchattenPBall(p=2.0, r=1.0, m=0, n=2)
    with pytest.raises(ValueError):
        GroupLpqBall(p=2.0, q=0.5, r=1.0, m=2, n=2)


# ---------------------------------------------------------------------------
# oracle continuity


def test_oracle_continuity_doubled_constant_is_sharp():
    """On the unit l_2 ball the oracle map p -> lmo(p) satisfies
    ||lmo(p) - lmo(q)|| <= 2 ||p - q|| / (alpha (||p|| + ||q||)) with equality
    for equal-norm directions, so the bound without the factor 2 fails."""
    ball = LpBall(p=2.0, r=1.0, d=2)
    alpha = ball.strong_convexity()
    eps = 0.05
    p = np.array([1.0, eps])
    q = np.array([1.0, -eps])
    lhs = float(np.linalg.norm(ball.lmo(p) - ball.lmo(q)))
    np_, nq_ = np.linalg.norm(p), np.linalg.norm(q)
    doubled = 2.0 * float(np.linalg.norm(p - q)) / (alpha * (np_ + nq_))
    assert lhs <= doubled + 1e-12
    assert lhs > 0.5 * doubled * 1.99  # halving the constant breaks the bound


def test_oracle_continuity_doubled_constant_holds_sampled():
    ball = LpBall(p=1.5, r=1.3, d=4)
    alpha = ball.strong_convexity()
    rng = np.random.default_rng(99)
    for _ in range(200):
        p = rng.standard_normal(4)
        q = rng.standard_normal(4)
        lhs = float(np.linalg.norm(ball.lmo(p) - ball.lmo(q)))
        rhs = (
            2.0
            * float(np.linalg.norm(p - q))
            / (alpha * (np.linalg.norm(p) + np.linalg.norm(q)))
        )
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("method", ["lmo", "project", "norm", "dual_norm"])
def test_schatten_methods_refuse_the_transposed_shape(method):
    ball = SchattenPBall(p=1.5, r=1.0, m=3, n=2)
    with pytest.raises(ValueError, match=re.escape("expected shape (3, 2), got (2, 3)")):
        getattr(ball, method)(np.ones((2, 3)))


@pytest.mark.parametrize("region", [
    LpBall(p=1.5, r=2.0, d=3),
    SchattenPBall(p=3.0, r=2.0, m=3, n=2),
    GroupLpqBall(p=2.0, q=1.5, r=2.0, m=2, n=3),
], ids=["lp", "schatten", "group"])
def test_random_boundary_from_an_all_zero_draw_is_the_first_axis(region):
    class Zeros:
        def standard_normal(self, shape):
            return np.zeros(shape)

    x = region.random_boundary(Zeros())
    want = np.zeros(region.shape)
    want.flat[0] = region.r
    np.testing.assert_array_equal(x, want)
