"""Named acceptance checks and the suite runner behind `projfree suite`.

Each check builds its own problem, runs the relevant algorithms, and compares
a measured quantity against a fixed requirement.  One `_criterion` decorator
declares a check's number, suite, name and requirement, and registers it in
CRITERIA and SUITES.  Checks are independent and may run in parallel; results
carry both sides of the comparison so the CLI can print measured-vs-required
lines.
"""

import concurrent.futures
import functools
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    detect_convergence,
    loglog_slope,
    nonconvex_gap_constant,
    nonconvex_rate_bound,
)
from .feasible_sets import GroupLpqBall, LpBall, SchattenPBall
from .losses import (
    BiWeightLoss,
    LogisticLoss,
    ObservedQuadraticLoss,
    QuadraticLoss,
    SquaredSigmoidLoss,
    TabularDataset,
)
from .optimizers import (
    ExactLineSearch,
    PredefinedDecay,
    ShortStep,
    default_init,
    fw_run,
    pa_run,
    projected_gd_run,
    projected_sgd_run,
    spa_batch_size,
    spa_run,
)
from .perturbation import gradient_norm_floor, make_perturbed, sample_unit_sphere
from .problems import (
    biweight_problem,
    lsq_boundary_problem,
    margin_classification_problem,
    tune_gd_eta,
)
from .datasets import SyntheticSpec, gen_lowrank
from .trace import write_trace


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    required: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.name}: measured {self.measured}; "
            f"required {self.required} [{self.seconds:.1f}s]"
        )


# Criterion number -> check, and suite name -> criterion numbers, both in
# definition order; only _criterion fills them.
CRITERIA = {}
SUITES = {"all": []}


def _criterion(num: int, suite: str, name: str, required: str):
    """Register the decorated body as criterion `num` of `suite` and "all".

    The body returns (passed, measured), or (passed, measured, required) when
    an early exit states its own requirement; the registered check times it
    and wraps the verdict in a CheckResult.
    """

    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            start = time.perf_counter()
            passed, measured, *stated = body()
            return CheckResult(
                name=name,
                passed=bool(passed),
                measured=measured,
                required=stated[0] if stated else required,
                seconds=time.perf_counter() - start,
            )

        CRITERIA[num] = check
        SUITES.setdefault(suite, []).append(num)
        SUITES["all"].append(num)
        return check

    return register


def _min_so_far(values):
    return np.minimum.accumulate(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# runs on the boundary least-squares instance

_RUN_ITERS = 2000
_EPSILON = 1e-4
_DELTA = 0.1


def _pa_a_perturbed():
    prob = lsq_boundary_problem()
    rng = np.random.default_rng(0)
    loss = make_perturbed(
        prob.loss, _EPSILON, prob.region.euclidean_diameter(), _DELTA, rng
    )
    start = time.perf_counter()
    trace = pa_run(loss, prob.region, option="A", iters=_RUN_ITERS, rng=rng)
    return trace, time.perf_counter() - start


def _fwplr_plain():
    prob = lsq_boundary_problem()
    return fw_run(
        prob.loss,
        prob.region,
        PredefinedDecay(),
        iters=_RUN_ITERS,
        rng=np.random.default_rng(0),
    )


# ---------------------------------------------------------------------------
# criterion 1: averaged-gradient rate on the boundary instance


@_criterion(1, "convex", "convex/pa-rate", "slope <= -1.7, r^2 >= 0.9, runtime < 60s")
def check_pa_rate():
    prob = lsq_boundary_problem()
    trace, run_seconds = _pa_a_perturbed()
    series = [(t, f - prob.f_star) for t, f in zip(trace.t, trace.loss_f)]
    fit = loglog_slope(series, burn_in=20)
    passed = fit.slope <= -1.7 and fit.r_squared >= 0.9 and run_seconds < 60.0
    return passed, (
        f"slope {fit.slope:.3f}, r^2 {fit.r_squared:.4f}, runtime {run_seconds:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 2: plain Frank-Wolfe rate window and explicit bound


@_criterion(2, "convex", "convex/fw-rate",
            "slope in [-1.6, -0.8], suboptimality <= 2LD^2/(t+1) at every t")
def check_fw_rate():
    prob = lsq_boundary_problem()
    trace = _fwplr_plain()
    series = [(t, f - prob.f_star) for t, f in zip(trace.t, trace.loss_f)]
    fit = loglog_slope(series, burn_in=20)
    diam = prob.region.euclidean_diameter()
    bound_ratio = max(
        (f - prob.f_star) / (2.0 * prob.smoothness * diam**2 / (t + 1.0))
        for t, f in zip(trace.t, trace.loss_f)
    )
    passed = -1.6 <= fit.slope <= -0.8 and bound_ratio <= 1.0
    return passed, f"slope {fit.slope:.3f}, worst bound ratio {bound_ratio:.3e}"


# ---------------------------------------------------------------------------
# criterion 3: non-convex short-step gap decay and its explicit bound


def _nonconvex_runs():
    prob = biweight_problem()
    rule = ShortStep(smoothness=prob.smoothness, alpha=prob.alpha)
    diam = prob.region.euclidean_diameter()
    traces = []
    for seed in (0, 5, 9):
        rng = np.random.default_rng(seed)
        loss = make_perturbed(prob.loss, _EPSILON, diam, _DELTA, rng)
        iters = _RUN_ITERS if seed == 0 else 3000
        traces.append(fw_run(loss, prob.region, rule, iters=iters, rng=rng))
    return prob, traces


@_criterion(3, "nonconvex", "nonconvex/gap-rate",
            "slope <= -0.9, rate bound dominates min-so-far gap at every t")
def check_nonconvex_gap():
    prob, traces = _nonconvex_runs()
    main = traces[0]
    f_star = min(min(tr.loss_f) for tr in traces)
    ell_1 = main.loss_f[0] - f_star
    mins = _min_so_far(main.fw_gap)
    fit = loglog_slope(list(zip(main.t, mins)), burn_in=10)
    worst = max(
        m / nonconvex_rate_bound(ell_1, prob.alpha, _DELTA, prob.smoothness, prob.d, t)
        for t, m in zip(main.t, mins)
    )
    # The bound reads min-gap t / ell_1 <= 1 / min(1/2, C'); report both sides.
    measured = max(m * t / ell_1 for t, m in zip(main.t, mins))
    allowed = 1.0 / min(0.5, nonconvex_gap_constant(
        prob.alpha, _DELTA, prob.smoothness, prob.d))
    passed = fit.slope <= -0.9 and worst <= 1.0
    return passed, (
        f"min-gap slope {fit.slope:.3f}, worst bound ratio {worst:.3e}, "
        f"max min-gap t / ell_1 {measured:.4g} vs 1/min(1/2, C') {allowed:.4g}"
    )


# ---------------------------------------------------------------------------
# criterion 4: quasi-convex neighborhood convergence


def _quasi_runs():
    prob = margin_classification_problem()
    rule = ExactLineSearch(tol=1e-8)
    main = fw_run(
        prob.loss, prob.region, rule, iters=800, rng=np.random.default_rng(0)
    )
    restarts = [
        fw_run(prob.loss, prob.region, rule, iters=300, rng=np.random.default_rng(s))
        for s in range(1, 11)
    ]
    return prob, main, restarts


@_criterion(4, "quasi", "quasi/neighborhood",
            "gap <= 0.05, slope <= -1/3 while suboptimality in (0, 1)")
def check_quasi_neighborhood():
    _, main, restarts = _quasi_runs()
    best_restart = min(tr.loss_f[-1] for tr in restarts)
    final = main.loss_f[-1]
    gap_to_best = final - best_restart
    f_star = min(best_restart, min(main.loss_f))
    series = [
        (t, f - f_star)
        for t, f in zip(main.t, main.loss_f)
        if 1e-12 < f - f_star < 1.0
    ]
    fit = loglog_slope(series, burn_in=0)
    passed = gap_to_best <= 0.05 and fit.slope <= -1.0 / 3.0
    return passed, (
        f"final-vs-restarts gap {gap_to_best:.3e}, "
        f"neighborhood slope {fit.slope:.3f}"
    )


# ---------------------------------------------------------------------------
# criterion 5: stochastic batch schedule and parity with the deterministic run


@_criterion(5, "convex", "convex/spa-parity",
            "batch = min(t^4, N) for t <= 50; "
            "final gap <= 2x deterministic (seeds 11-13)")
def check_spa_parity():
    prob = lsq_boundary_problem()
    n = prob.loss.n_samples
    worst_ratio = 0.0
    schedule_ok = True
    for seed in (11, 12, 13):
        spa_trace = spa_run(
            prob.loss, prob.region, iters=300, rng=np.random.default_rng(seed)
        )
        pa_trace = pa_run(
            prob.loss,
            prob.region,
            option="B",
            iters=300,
            rng=np.random.default_rng(seed),
        )
        expected = [spa_batch_size(t, n) for t in range(1, 51)]
        if spa_trace.batch[:50] != expected:
            schedule_ok = False
        spa_gap = spa_trace.loss_f[-1] - prob.f_star
        pa_gap = pa_trace.loss_f[-1] - prob.f_star
        worst_ratio = max(worst_ratio, spa_gap / pa_gap)
    passed = schedule_ok and worst_ratio <= 2.0
    return passed, (
        f"batch schedule exact: {schedule_ok}, "
        f"worst final-gap ratio {worst_ratio:.3f}"
    )


# ---------------------------------------------------------------------------
# criterion 6: oracle optimality against brute-force sampling

_BRUTE_POINTS = 1_000_000
_BRUTE_DIRECTIONS = 100


def _vector_norms(z: np.ndarray, p: float) -> np.ndarray:
    if math.isinf(p):
        return np.abs(z).max(axis=1)
    return (np.abs(z) ** p).sum(axis=1) ** (1.0 / p)


def _schatten_norms(z: np.ndarray, p: float) -> np.ndarray:
    m, n = z.shape[1], z.shape[2]
    if min(m, n) == 2:
        # closed-form singular values from the 2x2 Gram eigenvalues
        g = z @ z.transpose(0, 2, 1) if m <= n else z.transpose(0, 2, 1) @ z
        mean = 0.5 * (g[:, 0, 0] + g[:, 1, 1])
        disc = np.sqrt((0.5 * (g[:, 0, 0] - g[:, 1, 1])) ** 2 + g[:, 0, 1] ** 2)
        s = np.sqrt(np.maximum(np.stack([mean + disc, mean - disc], axis=1), 0.0))
    else:
        s = np.linalg.svd(z, compute_uv=False)
    if math.isinf(p):
        return s.max(axis=1)
    return (s**p).sum(axis=1) ** (1.0 / p)


def _group_norms(z: np.ndarray, p: float, q: float) -> np.ndarray:
    inner = _vector_norms(np.abs(z).reshape(-1, z.shape[2]), p).reshape(z.shape[:2])
    return _vector_norms(inner, q)


def _flat_norms_fn(region):
    """Vectorized independent norm for (count, dim) stacks of flat points."""
    shape = region.shape
    if isinstance(region, LpBall):
        return lambda z: _vector_norms(z, region.p)
    if isinstance(region, SchattenPBall):
        return lambda z: _schatten_norms(z.reshape(-1, *shape), region.p)
    if isinstance(region, GroupLpqBall):
        return lambda z: _group_norms(z.reshape(-1, *shape), region.p, region.q)
    raise TypeError(f"unsupported region {region!r}")  # pragma: no cover


def _boundary_pool(region, rng: np.random.Generator) -> np.ndarray:
    """Flat (count, dim) boundary samples for brute-force oracle checks.

    Bulk Gaussian draws plus extreme-point-shaped draws (sparse, sign,
    rank-one, orthogonal, single-row), all rescaled radially onto the
    boundary with family-specific norm formulas.
    """
    shape = region.shape
    count = _BRUTE_POINTS
    flat = int(np.prod(shape))
    pools = [rng.standard_normal((count // 2, flat))]

    sparse = np.zeros((count // 6, flat))
    cols = rng.integers(0, flat, size=sparse.shape[0])
    sparse[np.arange(sparse.shape[0]), cols] = rng.choice([-1.0, 1.0], sparse.shape[0])
    # a second small nonzero mixes near-vertex points in
    cols2 = rng.integers(0, flat, size=sparse.shape[0])
    sparse[np.arange(sparse.shape[0]), cols2] += 0.05 * rng.standard_normal(
        sparse.shape[0]
    )
    pools.append(sparse)

    pools.append(rng.choice([-1.0, 1.0], size=(count // 6, flat)))

    k = count - sum(p.shape[0] for p in pools)
    if len(shape) == 2:
        m, n = shape
        a = rng.standard_normal((k // 3, m, 1))
        b = rng.standard_normal((k // 3, 1, n))
        pools.append((a * b).reshape(-1, flat))  # rank one
        rows = np.zeros((k // 3, m, n))
        which = rng.integers(0, m, size=rows.shape[0])
        rows[np.arange(rows.shape[0]), which, :] = rng.standard_normal(
            (rows.shape[0], n)
        )
        pools.append(rows.reshape(-1, flat))  # single active row
        # polar factors of Gaussian draws: spectral-ball extreme points
        left = k - 2 * (k // 3)
        g = rng.standard_normal((left, m, n))
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        pools.append((u @ vt).reshape(-1, flat))
    else:
        pools.append(rng.standard_normal((k, flat)))

    z = np.concatenate(pools, axis=0)
    norms = _flat_norms_fn(region)(z)
    keep = norms > 1e-12
    z = z[keep]
    return z * (region.r / norms[keep])[:, None]


_REFINE_SCALES = (0.2, 0.05, 0.01, 0.002, 0.0004)


def _refined_minimum(region, pool, jitter, c_flat: np.ndarray) -> float:
    """min <v, c> over the pool plus multi-scale jitter clouds rescaled onto
    the boundary around the running best point.  Pure point sampling; the
    closed-form oracle never enters."""
    norms_fn = _flat_norms_fn(region)
    values = pool @ c_flat
    best_idx = int(np.argmin(values))
    best_val = float(values[best_idx])
    best_pt = pool[best_idx]
    for scale in _REFINE_SCALES:
        cand = best_pt[None, :] + scale * region.r * jitter
        norms = norms_fn(cand)
        keep = norms > 1e-12
        cand = cand * (region.r / np.where(keep, norms, 1.0))[:, None]
        cand = cand[keep]
        values = cand @ c_flat
        idx = int(np.argmin(values))
        if values[idx] < best_val:
            best_val = float(values[idx])
            best_pt = cand[idx]
    return best_val


@_criterion(6, "oracles", "oracles/lmo-optimality",
            "gap <= 1e-3 over 1e6 boundary samples x 100 directions; "
            "l2 exact to 1e-12")
def check_lmo_optimality():
    regions = [
        LpBall(p=1.0, r=1.0, d=3),
        LpBall(p=1.5, r=1.0, d=3),
        LpBall(p=2.0, r=1.0, d=3),
        LpBall(p=3.0, r=1.0, d=3),
        LpBall(p=math.inf, r=1.0, d=3),
        SchattenPBall(p=1.0, r=1.0, m=2, n=2),
        SchattenPBall(p=1.5, r=1.0, m=2, n=2),
        SchattenPBall(p=math.inf, r=1.0, m=2, n=2),
        GroupLpqBall(p=1.5, q=1.75, r=1.0, m=2, n=3),
        GroupLpqBall(p=2.0, q=1.0, r=1.0, m=2, n=3),
    ]
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_l2 = 0.0
    for region in regions:
        pool = _boundary_pool(region, rng)
        jitter = rng.standard_normal((20_000, pool.shape[1]))
        for _ in range(_BRUTE_DIRECTIONS):
            c = sample_unit_sphere(pool.shape[1], rng).reshape(region.shape)
            v = region.lmo(c)
            if not region.contains(v, tol=1e-9):
                return (
                    False,
                    f"infeasible oracle answer on {region!r}",
                    "oracle answers feasible",
                )
            lmo_val = float(np.vdot(v, c))
            brute = _refined_minimum(region, pool, jitter, c.ravel())
            if lmo_val > brute + 1e-9:
                worst_gap = math.inf  # a sampled point beat the oracle
            worst_gap = max(worst_gap, brute - lmo_val)
    l2 = LpBall(p=2.0, r=1.3, d=6)
    for _ in range(_BRUTE_DIRECTIONS):
        c = rng.standard_normal(6)
        exact = -l2.r * c / np.linalg.norm(c)
        worst_l2 = max(worst_l2, float(np.abs(l2.lmo(c) - exact).max()))
    passed = worst_gap <= 1e-3 and worst_l2 <= 1e-12
    return passed, (
        f"worst brute-force gap {worst_gap:.2e}, worst l2 deviation {worst_l2:.2e}"
    )


# ---------------------------------------------------------------------------
# criterion 7: projection correctness


@_criterion(7, "oracles", "oracles/projection",
            "VI <= 1e-8, idempotent to 1e-10, within 1e-3 of the d=2 grid oracle")
def check_projection():
    regions = [
        LpBall(p=1.0, r=1.0, d=4),
        LpBall(p=1.5, r=1.0, d=4),
        LpBall(p=2.0, r=1.0, d=4),
        LpBall(p=math.inf, r=1.0, d=4),
        SchattenPBall(p=1.5, r=1.0, m=3, n=2),
        GroupLpqBall(p=2.0, q=1.5, r=1.0, m=3, n=2),
    ]
    rng = np.random.default_rng(11)
    worst_vi = -math.inf
    worst_idem = 0.0
    for region in regions:
        for _ in range(40):
            x = region.random_boundary(rng) * rng.uniform(1.1, 3.0)
            v = region.project(x)
            if not region.contains(v, tol=1e-9):
                return (
                    False,
                    f"projection left the set on {region!r}",
                    "projection feasible",
                )
            again = region.project(v)
            worst_idem = max(worst_idem, float(np.abs(again - v).max()))
            gap = x - v
            for _ in range(25):
                z = region.random_feasible(rng)
                worst_vi = max(worst_vi, float(np.vdot(gap, z - v)))

    # independent polar-grid oracle for the interior-exponent solver, d = 2
    region = LpBall(p=1.5, r=1.0, d=2)
    angles = np.linspace(0.0, 2.0 * math.pi, 8001)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ring /= _vector_norms(ring, 1.5).reshape(-1, 1)
    radii = np.linspace(0.05, 1.0, 101)
    grid = (ring[None, :, :] * radii[:, None, None]).reshape(-1, 2)
    worst_grid = 0.0
    for _ in range(30):
        x = region.random_boundary(rng) * rng.uniform(1.1, 2.5)
        v = region.project(x)
        ours = float(np.linalg.norm(x - v))
        best = float(np.sqrt(((grid - x) ** 2).sum(axis=1)).min())
        worst_grid = max(worst_grid, abs(ours - best))
    passed = worst_vi <= 1e-8 and worst_idem <= 1e-10 and worst_grid <= 1e-3
    return passed, (
        f"worst VI {worst_vi:.2e}, idempotence {worst_idem:.2e}, "
        f"grid-oracle gap {worst_grid:.2e}"
    )


# ---------------------------------------------------------------------------
# criterion 8: analytic gradients vs central finite differences


def _fd_gradient(loss, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        g[idx] = (loss.evaluate(wp) - loss.evaluate(wm)) / (2.0 * h)
        it.iternext()
    return g


def _fd_losses():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 6))
    y_reg = x @ rng.standard_normal(6) + 0.3 * rng.standard_normal(40)
    y_cls = np.where(rng.standard_normal(40) > 0.0, 1.0, -1.0)
    y_01 = (y_cls + 1.0) / 2.0
    data_reg = TabularDataset(x, y_reg)
    spec = SyntheticSpec(kind="lowrank", m=6, n=5, rank=2, seed=4, fraction=0.6)
    observed, _ = gen_lowrank(spec)
    return [
        (QuadraticLoss(data_reg), LpBall(2.0, 1.0, 6)),
        (QuadraticLoss(data_reg, bias=True), LpBall(2.0, 1.0, 6)),
        (LogisticLoss(TabularDataset(x, y_cls)), LpBall(2.0, 1.0, 6)),
        (SquaredSigmoidLoss(TabularDataset(x, y_01)), LpBall(2.0, 1.0, 6)),
        (BiWeightLoss(data_reg), LpBall(2.0, 1.0, 6)),
        (ObservedQuadraticLoss(observed), SchattenPBall(1.5, 2.0, 6, 5)),
    ]


@_criterion(8, "oracles", "oracles/gradient-fidelity",
            "<= 1e-5 against central differences (h = 1e-5), 100 points per loss")
def check_gradient_fidelity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for loss, region in _fd_losses():
        for _ in range(100):
            w = region.random_feasible(rng)
            g = loss.gradient(w)
            fd = _fd_gradient(loss, w)
            denom = max(float(np.linalg.norm(fd.ravel())), 1e-8)
            worst = max(
                worst, float(np.linalg.norm((g - fd).ravel())) / denom
            )
    return worst <= 1e-5, f"worst relative gradient error {worst:.2e}"


# ---------------------------------------------------------------------------
# criterion 9: oracle Lipschitz bound on strongly convex balls
#
# The oracle map of an alpha-strongly convex set satisfies
#     ||lmo(p) - lmo(q)|| <= (1/alpha) ||p/||p|| - q/||q||||
#                         <= 2 ||p - q|| / (alpha (||p|| + ||q||)).
# The l2 ball attains both bounds (the first with equality), so the
# norm-ratio constant 2 is sharp and cannot be dropped.


@_criterion(9, "oracles", "oracles/oracle-lipschitz",
            "no violations beyond 1e-9 over 2x10^4 random pairs "
            "(both the normalized-direction and the factor-2 norm-sum forms)")
def check_oracle_lipschitz():
    rng = np.random.default_rng(21)
    violations = 0
    worst_excess = -math.inf
    for region in (LpBall(2.0, 1.0, 5), LpBall(1.5, 1.0, 5)):
        alpha = region.strong_convexity()
        for _ in range(10_000):
            p = rng.standard_normal(5)
            q = rng.standard_normal(5)
            np_ = float(np.linalg.norm(p))
            nq = float(np.linalg.norm(q))
            if np_ < 1e-9 or nq < 1e-9:
                continue
            lhs = float(np.linalg.norm(region.lmo(p) - region.lmo(q)))
            tight = float(np.linalg.norm(p / np_ - q / nq)) / alpha
            rhs = 2.0 * float(np.linalg.norm(p - q)) / (alpha * (np_ + nq))
            worst_excess = max(worst_excess, lhs - rhs, lhs - tight)
            if lhs > rhs + 1e-9 or lhs > tight + 1e-9:
                violations += 1
    return violations == 0, (
        f"{violations} violations, worst excess {worst_excess:.2e}"
    )


# ---------------------------------------------------------------------------
# criterion 10: perturbed-gradient floor and sphere moment


@_criterion(10, "oracles", "oracles/perturbation-floor",
            "floor violation rates <= delta + 0.02; |E[xi_1^2] - 1/d| <= 3e-3")
def check_perturbation_floor():
    rng = np.random.default_rng(33)
    d = 10
    resamples = 100_000
    xs = np.array([sample_unit_sphere(d, rng) for _ in range(resamples)])
    norms = np.linalg.norm(xs, axis=1)  # theta = 1, grad f = 0: ||grad h|| = 1
    first = np.abs(xs[:, 0])
    moment_err = abs(float(np.mean(xs[:, 0] ** 2)) - 1.0 / d)
    lines = []
    ok = moment_err <= 3e-3
    for delta in (0.1, 0.3):
        floor = gradient_norm_floor(delta, d)
        norm_rate = float(np.mean(norms < floor))
        coord_rate = float(np.mean(first < floor))
        lines.append(f"delta {delta}: norm rate {norm_rate:.4f}, coord rate {coord_rate:.4f}")
        if norm_rate > delta + 0.02 or coord_rate > delta + 0.02:
            ok = False
    return ok, f"moment error {moment_err:.2e}; " + "; ".join(lines)


# ---------------------------------------------------------------------------
# criterion 11: iteration economy of averaging vs the baselines


_ECONOMY_ITERS = 6000


@_criterion(11, "convex", "convex/iteration-economy",
            "PA < FW, PA <= GD, cost ratio <= 2")
def check_iteration_economy():
    prob = lsq_boundary_problem()
    pa_trace = pa_run(
        prob.loss, prob.region, option="A", iters=_ECONOMY_ITERS,
        rng=np.random.default_rng(0), record_timings=True,
    )
    fw_trace = fw_run(
        prob.loss, prob.region, PredefinedDecay(), iters=_ECONOMY_ITERS,
        rng=np.random.default_rng(0), record_timings=True,
    )
    pa_conv = detect_convergence(pa_trace, prob.f_star)
    fw_conv = detect_convergence(fw_trace, prob.f_star)
    init = default_init(prob.region, np.random.default_rng(0))
    eta = tune_gd_eta(prob.loss, prob.region, prob.smoothness, init)
    gd_trace = projected_gd_run(
        prob.loss, prob.region, eta=eta, iters=_ECONOMY_ITERS, init=init
    )
    gd_conv = detect_convergence(gd_trace, prob.f_star)

    pa_iters = pa_conv.iteration if pa_conv else math.inf
    fw_iters = fw_conv.iteration if fw_conv else math.inf
    gd_iters = gd_conv.iteration if gd_conv else math.inf

    # the per-iteration cost, over the first 300 steps of each run
    pa_ms, fw_ms = (np.median(tr.step_ms[:300]) for tr in (pa_trace, fw_trace))
    cost_ratio = float(pa_ms / fw_ms)

    passed = (
        pa_iters != math.inf
        and pa_iters < fw_iters
        and pa_iters <= gd_iters
        and cost_ratio <= 2.0
    )
    return passed, (
        f"2%-convergence iterations PA {pa_iters}, FW {fw_iters}, "
        f"tuned GD {gd_iters}; per-iteration cost ratio {cost_ratio:.2f}"
    )


# ---------------------------------------------------------------------------
# criterion 12: bit-identical reruns


def _determinism_traces(tmp: str, tag: int):
    bench_prob = lsq_boundary_problem(seed=1, n=200, d=5, condition=10.0)
    loss, region = bench_prob.loss, bench_prob.region
    paths = []
    runs = {
        "fwplr": lambda r: fw_run(loss, region, PredefinedDecay(), 40, rng=r),
        "fwls": lambda r: fw_run(loss, region, ExactLineSearch(), 25, rng=r),
        "pa_a": lambda r: pa_run(loss, region, "A", 40, rng=r),
        "pa_b": lambda r: pa_run(loss, region, "B", 40, rng=r),
        "spa": lambda r: spa_run(loss, region, 25, rng=r),
        "gd": lambda r: projected_gd_run(
            loss, region, eta=0.5 / bench_prob.smoothness, iters=40, rng=r
        ),
        "sgd": lambda r: projected_sgd_run(
            loss, region, eta0=0.1 / bench_prob.smoothness, batch=16, iters=40, rng=r
        ),
    }
    for name, fn in runs.items():
        trace = fn(np.random.default_rng(3))
        path = os.path.join(tmp, f"{name}-{tag}.csv")
        write_trace(trace, path)
        paths.append(path)
    return paths


@_criterion(12, "convex", "convex/determinism",
            "reruns with identical seeds produce byte-identical trace files")
def check_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        first = _determinism_traces(tmp, 0)
        second = _determinism_traces(tmp, 1)
        mismatched = []
        for a, b in zip(first, second):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    mismatched.append(os.path.basename(a))
    if mismatched:
        return False, f"mismatches: {mismatched}"
    return True, "all trace files byte-identical"


# ---------------------------------------------------------------------------
# runner


def run_suite(name: str, threads=None, echo=None):
    """Run the named suite; returns (results, all_passed).

    Checks run concurrently on up to `threads` workers (default: the CPU
    count, at most 4); result lines are emitted through a single lock-guarded
    writer as checks finish.
    """
    if name not in SUITES:
        raise KeyError(name)
    numbers = SUITES[name]
    cap = min(4, os.cpu_count() or 1) if threads is None else int(threads)
    workers = max(1, min(cap, len(numbers)))
    lock = threading.Lock()
    results = {}

    def run_one(num: int) -> None:
        res = CRITERIA[num]()
        with lock:
            results[num] = res
            if echo is not None:
                echo(f"[{num:2d}] {res.line()}")

    if workers == 1:
        for num in numbers:
            run_one(num)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_one, numbers))
    ordered = [results[num] for num in numbers]
    return ordered, all(r.passed for r in ordered)
