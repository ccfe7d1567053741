"""Tests of the benchmark's own checks and tracing.

Every check must pass on a right answer and fail on a known-wrong one:
a point outside the set, a wrong optimum, a loss below a proven bound, a
non-monotone line-search trace, a wrong oracle vertex, a wrong projection.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import calibration  # noqa: E402
import checks as C  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def boundary_lsq():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((60, 6)) @ np.diag([1.0, 2.0, 3.0, 0.5, 0.1, 4.0])
    y = x @ rng.standard_normal(6) + 0.1 * rng.standard_normal(60)
    w_free = np.linalg.lstsq(x, y, rcond=None)[0]
    return x, y, 0.5 * float(np.linalg.norm(w_free))


def test_lsq_optimum_satisfies_kkt_and_beats_feasible_points(boundary_lsq):
    x, y, r = boundary_lsq
    f_star, w, mu = C.lsq_l2_ball_optimum(x, y, r)
    assert mu > 0.0
    assert C.kkt_holds(x, y, w, mu, r)
    assert math.isclose(float(np.linalg.norm(w)), r, rel_tol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(200):
        z = rng.standard_normal(6)
        z *= r * rng.uniform() ** (1 / 6) / np.linalg.norm(z)
        assert C.lsq_value(x, y, z) >= f_star


def test_lsq_optimum_inside_the_ball_has_zero_multiplier(boundary_lsq):
    x, y, r = boundary_lsq
    f_star, w, mu = C.lsq_l2_ball_optimum(x, y, 10.0 * r)
    assert mu == 0.0
    assert np.allclose(w, np.linalg.lstsq(x, y, rcond=None)[0])
    assert C.kkt_holds(x, y, w, mu, 10.0 * r)


def test_kkt_rejects_wrong_optima(boundary_lsq):
    x, y, r = boundary_lsq
    _, w, mu = C.lsq_l2_ball_optimum(x, y, r)
    rotated = w + 1e-3 * np.roll(w, 1)
    rotated *= r / np.linalg.norm(rotated)
    assert not C.kkt_holds(x, y, rotated, mu, r)
    assert not C.kkt_holds(x, y, 0.99 * w, mu, r)
    assert not C.kkt_holds(x, y, w, 1.01 * mu, r)
    assert not C.kkt_holds(x, y, 1.01 * w, mu, r)


def test_ball_membership_rejects_a_point_outside():
    assert C.all_within([1.0, 2.0, 3.0], 3.0)
    assert not C.all_within([1.0, 2.0, 3.0 * (1 + 1e-8)], 3.0)
    ring = np.array([[3.0, 4.0], [0.0, 5.0 + 1e-6]])
    assert not C.all_within(np.linalg.norm(ring, axis=1), 5.0)


def test_lower_bound_rejects_a_loss_below_the_optimum():
    assert C.none_below([2.0, 1.5, 1.0], 1.0)
    assert not C.none_below([2.0, 0.999999, 1.0], 1.0)


def test_fw_rate_bound_rejects_a_slow_series():
    t = np.arange(1, 101)
    bound = 2.0 * 3.0 * 2.0**2 / (t + 1.0)
    assert C.fw_rate_bound_holds(1.0 + 0.5 * bound, 1.0, 3.0, 2.0)
    slow = 1.0 + 0.5 * bound
    slow[70] = 1.0 + 1.01 * bound[70]
    assert not C.fw_rate_bound_holds(slow, 1.0, 3.0, 2.0)


def test_monotonicity_rejects_a_non_monotone_line_search_trace():
    assert C.non_increasing([0.5, 0.4, 0.4, 0.1], start=0.6)
    assert not C.non_increasing([0.5, 0.4, 0.41, 0.1], start=0.6)
    assert not C.non_increasing([0.7, 0.4], start=0.6)


def test_accuracy_rejects_a_wrong_optimum():
    assert C.within_accuracy(1.0 + 1e-11, 1.0, 1e-10)
    assert not C.within_accuracy(1.0 + 1e-9, 1.0, 1e-10)
    assert not C.within_accuracy(1.0 - 1e-9, 1.0, 1e-10)


def test_first_reach():
    assert C.first_reach([3.0, 2.0, 1.0, 0.5], 1.0) == 3
    assert C.first_reach([3.0, 2.0], 1.0) is None


def test_lp_oracle_attains_the_dual_norm_and_wrong_vertices_fail():
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        c = rng.standard_normal(7)
        v = C.lp_lmo(c, p, 2.0)
        dual = float(C.lp_norms(c, C.conjugate(p))[0])
        assert math.isclose(float(C.lp_norms(v, p)[0]), 2.0, rel_tol=1e-12)
        assert C.lmo_duality_holds(float(v @ c), 2.0, dual)
        assert not C.lmo_duality_holds(float(0.999 * v @ c), 2.0, dual)
        assert not C.lmo_duality_holds(float(np.roll(v, 1) @ c), 2.0, dual)


def test_schatten_and_group_norms_match_their_definitions():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 4))
    s = np.linalg.svd(a, compute_uv=False)
    assert math.isclose(C.schatten_norms(a[None], 1.5)[0],
                        float(np.sum(s**1.5) ** (1 / 1.5)), rel_tol=1e-12)
    rows = np.sqrt(np.sum(a**2, axis=1))
    assert math.isclose(C.group_norms(a[None], 1.5)[0],
                        float(np.sum(rows**1.5) ** (1 / 1.5)), rel_tol=1e-12)
    # duality on the Schatten-1.5 ball, with the oracle written in numpy
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    q = C.conjugate(1.5)
    w = (s / C.lp_norms(s, q)[0]) ** (q - 1.0)
    v = -2.0 * (u * w) @ vt
    dual = float(C.lp_norms(s, q)[0])
    assert C.lmo_duality_holds(float(np.vdot(v, a)), 2.0, dual)
    # the rank-one vertex is the oracle answer of the nuclear ball, not this one
    rank_one = -2.0 * u[:, :1] @ vt[:1]
    assert not C.lmo_duality_holds(float(np.vdot(rank_one, a)), 2.0, dual)


def test_projection_check_accepts_the_projection_and_rejects_wrong_ones():
    rng = np.random.default_rng(5)
    d, r = 40, 1.5
    samples = C.lp_ball_samples(rng, 32, d, 2.0, r)
    y = 3.0 * rng.standard_normal(d)
    exact = y * (r / np.linalg.norm(y))
    assert C.projection_vi_holds(y, exact, 2.0, r, samples)
    # a feasible point that is not the nearest one
    wrong = exact + 0.01 * rng.standard_normal(d)
    wrong *= r / np.linalg.norm(wrong)
    assert not C.projection_vi_holds(y, wrong, 2.0, r, samples)
    # a point outside the ball
    assert not C.projection_vi_holds(y, exact * (1 + 1e-6), 2.0, r, samples)
    # radial rescaling is not the Euclidean projection onto an l_1.5 ball
    samples15 = C.lp_ball_samples(rng, 32, d, 1.5, r)
    radial = y * (r / C.lp_norms(y, 1.5)[0])
    assert not C.projection_vi_holds(y, radial, 1.5, r, samples15)


def test_ball_samples_are_feasible():
    rng = np.random.default_rng(6)
    pts = C.lp_ball_samples(rng, 50, 30, 1.5, 2.0)
    assert C.all_within(C.lp_norms(pts, 1.5), 2.0)
    assert np.allclose(C.lp_norms(pts[:25], 1.5), 2.0)


def test_cross_certificate_rejects_a_value_below_the_other_bound():
    # a convex pair: f_a - gap_a <= f* <= both values
    assert C.cross_certified(1.002, 0.003, 1.0005, 0.001)
    assert not C.cross_certified(0.99, 0.003, 1.0005, 0.001)


def test_fw_gap_bounds_suboptimality_of_least_squares(boundary_lsq):
    x, y, _ = boundary_lsq
    r = 0.3
    f_star, *_ = C.lsq_l2_ball_optimum(x, y, r)
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.standard_normal(6)
        w *= r * rng.uniform() / np.linalg.norm(w)
        gap = C.lp_fw_gap(w, C.lsq_gradient(x, y, w), 2.0, r)
        assert C.lsq_value(x, y, w) - gap <= f_star * (1 + 1e-12)


def test_sigmoid_reference_matches_a_grid_search():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 2))
    y = (x @ np.array([1.0, -0.5]) > 0).astype(float)
    f_ref, w_ref = C.sigmoid_ball_optimum(x, y, 3.0, rng.standard_normal((4, 2)))
    # the loss falls as a confident classifier grows, so the optimum is on
    # (or next to) the boundary circle
    angles = np.linspace(0.0, 2 * np.pi, 20001)
    grid = [C.sigmoid_value(x, y, rho * np.array([math.cos(a), math.sin(a)]))
            for rho in (2.9, 2.95, 3.0) for a in angles]
    assert np.linalg.norm(w_ref) <= 3.0 * (1 + 1e-12)
    assert f_ref <= min(grid) * (1 + 1e-6)


def test_patched_restores_every_owner():
    class Thing:
        def method(self):
            return 1

    import types

    module = types.SimpleNamespace(fn=lambda: 2)
    thing, other = Thing(), Thing()
    original_fn = module.fn
    tracer = tracing.Tracer()
    targets = [(thing, "method", "a"), (module, "fn", "b"), (Thing, "method", "c")]
    with tracing.patched(tracer, targets):
        assert thing.method() == 1 and module.fn() == 2 and other.method() == 1
    assert "method" not in vars(thing)
    assert Thing.method.__name__ == "method"
    assert module.fn is original_fn
    summary = tracer.summary()
    assert {name: entry["calls"] for name, entry in summary.items()} == {
        "a": 1, "b": 1, "c": 1}


def test_self_time_excludes_children_and_nested_same_layer_calls():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer_body = tracer.wrap("outer", lambda: inner() + inner())
    again = tracer.wrap("outer", outer_body)  # same layer re-entered directly
    again()
    s = tracer.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 2
    assert s["outer"]["children"] == {"inner": 2}
    assert math.isclose(s["outer"]["self_s"] + s["inner"]["total_s"],
                        s["outer"]["total_s"], rel_tol=1e-9)


def test_reference_clock_scales_each_gap_and_stands_still_in_kernel_runs():
    log = calibration.SpeedLog()
    ref = calibration.REFERENCE_S
    # Kernel runs of ref, 2 ref and 2 ref seconds: the host runs at the
    # reference speed, then at half of it.
    log.starts, log.ends = [0.0, 1.0, 3.0], [ref, 1.0 + 2 * ref, 3.0 + 2 * ref]
    first = (1.0 - ref) / 1.5
    second = (3.0 - 1.0 - 2 * ref) / 2.0
    assert math.isclose(log.seconds(ref, 1.0), first, rel_tol=1e-12)
    assert math.isclose(log.seconds(0.0, 3.0 + 2 * ref), first + second, rel_tol=1e-12)
    # Time inside a kernel run does not count.
    assert log.seconds(1.0, 1.0 + 2 * ref) == 0.0
    clock = log.to_reference(np.array([ref, 2.0, 3.0]))
    assert np.all(np.diff(clock) > 0)


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
