"""The four benchmark workloads.

Each workload builds its problem through the program's public API
(`setup`, timed), draws its starting points and tilts from the run seed
(`prepare`, untimed), lists the fixed-length optimizer runs of one round
(`runs`), turns its stated accuracy into a loss threshold per run
(`targets`) and checks a round's outputs against numpy references
(`check`).  Sizes, seeds, radii and accuracies are the constants below; the
README explains each choice.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as C
from projfree import (
    datasets,
    feasible_sets,
    losses,
    optimizers,
    perturbation,
    problems,
)


def seeded(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one use of the run seed."""
    return np.random.default_rng([seed, stream])


@dataclass
class Run:
    label: str
    kind: str
    iters: int
    call: Callable  # call(iters, on_iterate) -> Trace


class Workload:
    name = ""
    setup_reps = 1  # set-ups timed at the start of a run and after each round
    timed_kind = ""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def runs(self):
        raise NotImplementedError

    def layer_objects(self):
        """(losses, feasible sets) whose methods the traced run wraps."""
        raise NotImplementedError

    def targets(self, results) -> dict:
        raise NotImplementedError

    def check(self, ledger, results) -> None:
        raise NotImplementedError

    def notes(self):
        return []


def _in_ball(points, r: float, norms_fn) -> bool:
    return C.all_within(norms_fn(np.asarray(points)), r)


# ---------------------------------------------------------------------------


class LsqFlagship(Workload):
    """FW, PA (option A, tilted), SPA and projected GD on the gate's
    boundary least-squares instance."""

    name = "lsq-flagship"
    setup_reps = 5
    timed_kind = "fw"
    ACCURACY = 1e-3      # relative suboptimality for FW, PA and GD
    SPA_ACCURACY = 1e-2  # SPA follows instantaneous directions (option B)
    ITERS = {"fw": 6000, "pa": 400, "spa": 6000, "gd": 2600}
    EPSILON, DELTA = 1e-4, 0.1

    def setup(self):
        problems.lsq_boundary_problem.cache_clear()
        self.prob = problems.lsq_boundary_problem(seed=42, n=2000, d=20)

    def prepare(self, seed):
        p = self.prob
        self.x, self.y, self.r = p.data.features, p.data.targets, p.region.r
        self.f_star, self.w_star, self.mu = C.lsq_l2_ball_optimum(self.x, self.y, self.r)
        self.lipschitz = C.lipschitz_lsq(self.x)
        self.init = optimizers.default_init(p.region, seeded(seed, 0))
        self.tilted = perturbation.make_perturbed(
            p.loss, self.EPSILON, p.region.euclidean_diameter(), self.DELTA,
            seeded(seed, 1),
        )
        self.spa_seed = [seed, 2]

    def runs(self):
        p, init = self.prob, self.init
        return [
            Run("fw", "fw", self.ITERS["fw"], lambda n, hook: optimizers.fw_run(
                p.loss, p.region, optimizers.PredefinedDecay(), n, init=init,
                on_iterate=hook)),
            Run("pa", "pa", self.ITERS["pa"], lambda n, hook: optimizers.pa_run(
                self.tilted, p.region, "A", n, init=init, on_iterate=hook)),
            Run("spa", "spa", self.ITERS["spa"], lambda n, hook: optimizers.spa_run(
                p.loss, p.region, n, init=init,
                rng=np.random.default_rng(self.spa_seed), on_iterate=hook)),
            Run("gd", "gd", self.ITERS["gd"], lambda n, hook: optimizers.projected_gd_run(
                p.loss, p.region, 1.0 / p.smoothness, n, init=init, on_iterate=hook)),
        ]

    def layer_objects(self):
        return [self.prob.loss], [self.prob.region]

    def targets(self, results):
        out = {label: self.f_star * (1.0 + self.ACCURACY) for label in results}
        out["spa"] = self.f_star * (1.0 + self.SPA_ACCURACY)
        return out

    def check(self, ledger, results):
        ledger.check("optimum satisfies KKT", lambda: C.kkt_holds(
            self.x, self.y, self.w_star, self.mu, self.r))
        targets = self.targets(results)
        reach = {}
        for label, res in results.items():
            ledger.check(f"{label}: iterates in the ball", lambda: _in_ball(
                res.points, self.r, lambda a: np.linalg.norm(a, axis=1)))
            ledger.check(f"{label}: no loss below f*", lambda: C.none_below(
                res.trace.loss_f, self.f_star))
            reach[label] = C.first_reach(res.trace.loss_f, targets[label])
            ledger.check(f"{label}: meets the stated accuracy",
                         lambda: reach[label] is not None)
        ledger.check("PA meets the accuracy in fewer iterations than FW",
                     lambda: reach["pa"] < reach["fw"])
        ledger.check("FW within 2LD^2/(t+1) at every t", lambda: C.fw_rate_bound_holds(
            results["fw"].trace.loss_f, self.f_star, self.lipschitz, 2.0 * self.r))

    def notes(self):
        return [
            f"smoothness: program {self.prob.smoothness!r}, "
            f"2*eigvalsh {self.lipschitz!r}"
        ]


# ---------------------------------------------------------------------------


class QuasiLineSearch(Workload):
    """FW with exact golden-section line search on the squared-sigmoid
    margin problem, from several starts."""

    name = "quasi-linesearch"
    setup_reps = 3
    timed_kind = "fwls"
    ACCURACY = 1e-10  # relative to the numpy reference optimum
    STARTS = 32
    ITERS = 80
    REFERENCE_STARTS = 8

    def setup(self):
        problems.margin_classification_problem.cache_clear()
        self.prob = problems.margin_classification_problem(
            seed=7, n=500, d=5, margin=0.5, radius=12.0)
        # Part of the timed set-up, as a user computing L would pay it; the
        # line-search runs do not use it.
        self.smoothness = losses.estimate_smoothness(self.prob.loss, self.prob.region)

    def prepare(self, seed):
        p = self.prob
        self.x, self.y, self.r = p.loss.data.features, p.loss.data.targets, p.region.r
        self.inits = [optimizers.default_init(p.region, seeded(seed, k))
                      for k in range(self.STARTS)]
        starts = seeded(seed, 100).standard_normal((self.REFERENCE_STARTS, p.d))
        self.f_ref, _ = C.sigmoid_ball_optimum(self.x, self.y, self.r, starts)

    def runs(self):
        p = self.prob
        rule = optimizers.ExactLineSearch(tol=1e-8)
        return [
            Run(f"fwls-{k}", "fwls", self.ITERS,
                lambda n, hook, init=init: optimizers.fw_run(
                    p.loss, p.region, rule, n, init=init, on_iterate=hook))
            for k, init in enumerate(self.inits)
        ]

    def layer_objects(self):
        return [self.prob.loss], [self.prob.region]

    def targets(self, results):
        return {label: self.f_ref * (1.0 + self.ACCURACY) for label in results}

    def check(self, ledger, results):
        targets = self.targets(results)
        for k, (label, res) in enumerate(results.items()):
            f = res.trace.loss_f
            start = C.sigmoid_value(self.x, self.y, self.inits[k])
            ledger.check(f"{label}: loss never increases",
                         lambda: C.non_increasing(f, start))
            ledger.check(f"{label}: iterates in the ball", lambda: _in_ball(
                res.points, self.r, lambda a: np.linalg.norm(a, axis=1)))
            ledger.check(f"{label}: final loss at the reference optimum",
                         lambda: C.within_accuracy(f[-1], self.f_ref, self.ACCURACY))
            ledger.check(f"{label}: meets the stated accuracy",
                         lambda: C.first_reach(f, targets[label]) is not None)


# ---------------------------------------------------------------------------


class MatrixCompletion(Workload):
    """PA over a Schatten-1.5 ball from several starts and FW over a group
    l_{2,1.5} ball, on low-rank matrices observed on a random subset of
    entries."""

    name = "matrix-completion"
    setup_reps = 1
    timed_kind = "pa-schatten"
    FRACTION = 3e-3  # stated accuracy: loss <= FRACTION * loss at the start
    PA_STARTS = 3
    ITERS = {"pa-schatten": 40, "fw-group": 110}
    SAMPLED_GRADIENTS = 3

    def setup(self):
        spec_s = datasets.SyntheticSpec(kind="lowrank", m=12, n=10, rank=2,
                                        fraction=0.5, seed=5)
        spec_g = datasets.SyntheticSpec(kind="lowrank", m=200, n=50, rank=3,
                                        fraction=0.3, seed=6)
        obs_s, full_s = datasets.gen_lowrank(spec_s)
        obs_g, full_g = datasets.gen_lowrank(spec_g)
        self.loss_s = losses.ObservedQuadraticLoss(obs_s)
        self.loss_g = losses.ObservedQuadraticLoss(obs_g)
        self.ball_s = feasible_sets.SchattenPBall(
            1.5, float(C.schatten_norms(full_s[None], 1.5)[0]), 12, 10)
        self.ball_g = feasible_sets.GroupLpqBall(
            2.0, 1.5, float(C.group_norms(full_g[None], 1.5)[0]), 200, 50)
        # Timed as part of set-up; the predefined-step runs do not use it.
        self.smoothness = (losses.estimate_smoothness(self.loss_s, self.ball_s),
                           losses.estimate_smoothness(self.loss_g, self.ball_g))
        self.kinds = {
            "pa-schatten": (self.loss_s, self.ball_s,
                            lambda a: C.schatten_norms(a, 1.5),
                            lambda g: C.lp_norms(np.linalg.svd(g, compute_uv=False), 3.0)[0]),
            "fw-group": (self.loss_g, self.ball_g,
                         lambda a: C.group_norms(a, 1.5),
                         lambda g: C.lp_norms(np.linalg.norm(g, axis=1), 3.0)[0]),
        }

    def prepare(self, seed):
        self.inits = {f"pa-schatten-{k}": optimizers.default_init(self.ball_s, seeded(seed, k))
                      for k in range(self.PA_STARTS)}
        self.inits["fw-group"] = optimizers.default_init(self.ball_g, seeded(seed, 100))
        self.starts = {label: _observed_loss(self.loss_g if label == "fw-group" else self.loss_s, w)
                       for label, w in self.inits.items()}

    def runs(self):
        pa = [
            Run(label, "pa-schatten", self.ITERS["pa-schatten"],
                lambda n, hook, init=init: optimizers.pa_run(
                    self.loss_s, self.ball_s, "A", n, init=init, on_iterate=hook))
            for label, init in self.inits.items() if label != "fw-group"
        ]
        return pa + [
            Run("fw-group", "fw-group", self.ITERS["fw-group"],
                lambda n, hook: optimizers.fw_run(
                    self.loss_g, self.ball_g, optimizers.PredefinedDecay(), n,
                    init=self.inits["fw-group"], on_iterate=hook)),
        ]

    def layer_objects(self):
        return [self.loss_s, self.loss_g], [self.ball_s, self.ball_g]

    def targets(self, results):
        return {label: self.FRACTION * self.starts[label] for label in results}

    def check(self, ledger, results):
        targets = self.targets(results)
        for label, res in results.items():
            loss, ball, norms_fn, dual_fn = self.kinds[res.kind]
            f = res.trace.loss_f
            ledger.check(f"{label}: iterates in the set",
                         lambda: _in_ball(res.points, ball.r, norms_fn))
            ledger.check(f"{label}: loss ends below the stated fraction",
                         lambda: f[-1] <= targets[label])
            ledger.check(f"{label}: meets the stated accuracy",
                         lambda: C.first_reach(f, targets[label]) is not None)
            picks = np.linspace(0, len(res.points) - 1, self.SAMPLED_GRADIENTS).astype(int)
            for i in picks:
                g = _observed_gradient(loss, res.points[i])
                ledger.check(f"{label}: <lmo(c), c> = -r||c||_* at t={i + 1}",
                             lambda: C.lmo_duality_holds(
                                 float(np.vdot(ball.lmo(g), g)), ball.r, dual_fn(g)))


def _observed_loss(loss, w) -> float:
    obs = loss.observed
    diff = (w - obs.values)[obs.mask]
    return float(diff @ diff)


def _observed_gradient(loss, w) -> np.ndarray:
    obs = loss.observed
    return 2.0 * np.where(obs.mask, w - obs.values, 0.0)


# ---------------------------------------------------------------------------


class CurvedProjection(Workload):
    """Projected GD and FW on one d=1000 least-squares instance over an
    l_{1.5} ball."""

    name = "curved-projection"
    setup_reps = 1
    timed_kind = "gd"
    ACCURACY = 1e-6  # relative to the best certified lower bound f - gap
    P = 1.5
    GD_ITERS = 32
    FW_ITERS = 44
    FW_STARTS = 8
    VI_SAMPLES = 16

    def setup(self):
        spec = datasets.SyntheticSpec(kind="regression", n=2000, d=1000,
                                      noise=0.5, seed=3)
        data, w_true = datasets.gen_regression(spec)
        self.loss = losses.QuadraticLoss(data)
        self.ball = feasible_sets.LpBall(
            self.P, 0.5 * float(C.lp_norms(w_true, self.P)[0]), 1000)
        self.smoothness = self.loss.exact_smoothness()

    def prepare(self, seed):
        self.x, self.y = self.loss.data.features, self.loss.data.targets
        self.r = self.ball.r
        self.inits = [optimizers.default_init(self.ball, seeded(seed, k))
                      for k in range(self.FW_STARTS)]
        self.samples = C.lp_ball_samples(seeded(seed, 50), self.VI_SAMPLES, 1000,
                                         self.P, self.r)

    def runs(self):
        eta = 1.0 / self.smoothness
        rule = optimizers.QuadraticLineSearch(self.smoothness)
        gd = Run("gd", "gd", self.GD_ITERS, lambda n, hook: optimizers.projected_gd_run(
            self.loss, self.ball, eta, n, init=self.inits[0], on_iterate=hook))
        return [gd] + [
            Run(f"fw-{k}", "fw", self.FW_ITERS,
                lambda n, hook, init=init: optimizers.fw_run(
                    self.loss, self.ball, rule, n, init=init, on_iterate=hook))
            for k, init in enumerate(self.inits)
        ]

    def layer_objects(self):
        return [self.loss], [self.ball]

    def _certified(self, res):
        w = res.points[-1]
        f = C.lsq_value(self.x, self.y, w)
        return f, C.lp_fw_gap(w, C.lsq_gradient(self.x, self.y, w), self.P, self.r)

    def targets(self, results):
        lower = max(f - gap for f, gap in map(self._certified, results.values()))
        return {label: lower * (1.0 + self.ACCURACY) for label in results}

    def check(self, ledger, results):
        targets = self.targets(results)
        gd = results["gd"]
        eta = 1.0 / self.smoothness

        def projections_hold():
            prev = self.inits[0]
            for w, g in zip(gd.points, gd.dirs):
                if not C.projection_vi_holds(prev - eta * g, w, self.P, self.r, self.samples):
                    return False
                prev = w
            return True

        ledger.check("gd: every projection feasible and satisfies the VI",
                     projections_hold)
        certified = {label: self._certified(res) for label, res in results.items()}
        for label, res in results.items():
            ledger.check(f"{label}: iterates in the ball", lambda: _in_ball(
                res.points, self.r, lambda a: C.lp_norms(a, self.P)))
            ledger.check(f"{label}: meets the stated accuracy",
                         lambda: C.first_reach(res.trace.loss_f, targets[label]) is not None)
            if label != "gd":
                ledger.check(f"gd and {label}: neither below the other's certified bound",
                             lambda: C.cross_certified(*certified["gd"], *certified[label]))


WORKLOADS = {
    w.name: w
    for w in (LsqFlagship, QuasiLineSearch, MatrixCompletion, CurvedProjection)
}
