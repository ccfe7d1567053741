"""Golden hashes of small runs of every optimizer.

Each run is reduced to one sha256 over the bytes `write_trace` writes, every
field of every `IterateSnapshot` (t, gamma, w, v, z, p) and `final_point`.
The table pins all five run functions, each step rule, plain and tilted
losses, the logistic and bi-weight losses and the matrix sets, so a change
to the run loop that moves any recorded number, snapshot or iterate shows
up here by name.

The hashes were captured with numpy 2.4 on OpenBLAS 0.3 (x86-64).  A BLAS
that rounds differently changes them; print the current table, each run's
last loss_f and fw_gap beside its hash, with
`python tests/test_golden_traces.py` (MOVED marks a hash that differs from
the table, NEW a run missing from it) and compare it against a known-good
commit before replacing it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from projfree.datasets import SyntheticSpec, gen_lowrank, gen_regression
from projfree.feasible_sets import GroupLpqBall, LpBall, SchattenPBall
from projfree.losses import (
    BiWeightLoss,
    LogisticLoss,
    ObservedQuadraticLoss,
    QuadraticLoss,
    TabularDataset,
)
from projfree.optimizers import (
    ExactLineSearch,
    PredefinedDecay,
    QuadraticLineSearch,
    ShortStep,
    fw_run,
    pa_run,
    projected_gd_run,
    projected_sgd_run,
    spa_run,
)
from projfree.perturbation import make_perturbed
from projfree.trace import write_trace

ITERS = 30


def _regression_data():
    spec = SyntheticSpec(kind="regression", n=40, d=8, noise=0.1, seed=11,
                         condition=10.0)
    return gen_regression(spec)[0]


def _vector_problem(bias=False):
    return QuadraticLoss(_regression_data(), bias=bias), LpBall(p=1.5, r=0.6, d=8)


def _logistic_loss():
    data = _regression_data()
    return LogisticLoss(TabularDataset(data.features,
                                       np.where(data.targets > 0.0, 1.0, -1.0)))


def _matrix_loss():
    spec = SyntheticSpec(kind="lowrank", m=12, n=10, rank=2, fraction=0.5,
                         seed=12)
    observed, _ = gen_lowrank(spec)
    return ObservedQuadraticLoss(observed)


def _tilted(loss, region):
    return make_perturbed(loss, 0.5, region.euclidean_diameter(), 0.1,
                          np.random.default_rng(13))


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rule(name, loss, region):
    if name == "predefined":
        return PredefinedDecay()
    smoothness = loss.smoothness()
    if name == "quadratic":
        return QuadraticLineSearch(smoothness)
    if name == "exact":
        return ExactLineSearch(tol=1e-8)
    return ShortStep(smoothness, region.strong_convexity())


def _runs():
    """name -> run(on_iterate, record_timings) returning a Trace."""
    loss, ball = _vector_problem()
    tilted = _tilted(loss, ball)
    mat = _matrix_loss()
    schatten = SchattenPBall(p=1.5, r=3.0, m=12, n=10)
    group = GroupLpqBall(p=2.0, q=1.5, r=3.0, m=12, n=10)
    group_p15 = GroupLpqBall(p=1.5, q=1.75, r=3.0, m=12, n=10)
    runs = {}
    for name in ("predefined", "quadratic", "exact", "short"):
        rule = _rule(name, loss, ball)
        runs[f"fw-{name}"] = lambda hook, timed, rule=rule: fw_run(
            loss, ball, rule, ITERS, rng=_rng(1), record_timings=timed,
            on_iterate=hook)
        runs[f"fw-{name}-tilted"] = lambda hook, timed, rule=rule: fw_run(
            tilted, ball, rule, ITERS, rng=_rng(2), record_timings=timed,
            on_iterate=hook)
    runs["fw-schatten"] = lambda hook, timed: fw_run(
        mat, schatten, PredefinedDecay(), ITERS, rng=_rng(3),
        record_timings=timed, on_iterate=hook)
    runs["fw-group"] = lambda hook, timed: fw_run(
        mat, group, PredefinedDecay(), ITERS, rng=_rng(4),
        record_timings=timed, on_iterate=hook)
    # A general inner exponent: the row witness's power branch.
    runs["fw-group-p15"] = lambda hook, timed: fw_run(
        mat, group_p15, PredefinedDecay(), ITERS, rng=_rng(4),
        record_timings=timed, on_iterate=hook)
    for option in ("A", "B", "b"):
        runs[f"pa-{option}"] = lambda hook, timed, option=option: pa_run(
            loss, ball, option, ITERS, rng=_rng(5), record_timings=timed,
            on_iterate=hook)
        runs[f"pa-{option}-tilted"] = lambda hook, timed, option=option: pa_run(
            tilted, ball, option, ITERS, rng=_rng(6), record_timings=timed,
            on_iterate=hook)
        runs[f"pa-{option}-schatten"] = lambda hook, timed, option=option: pa_run(
            mat, schatten, option, ITERS, rng=_rng(7), record_timings=timed,
            on_iterate=hook)
    runs["spa"] = lambda hook, timed: spa_run(
        loss, ball, ITERS, rng=_rng(8), record_timings=timed, on_iterate=hook)
    runs["spa-default-rng"] = lambda hook, timed: spa_run(
        loss, ball, ITERS, record_timings=timed, on_iterate=hook)
    runs["spa-tilted"] = lambda hook, timed: spa_run(
        tilted, ball, ITERS, rng=_rng(9), record_timings=timed, on_iterate=hook)
    # The l_1.5 and l_3 projections are iterative Newton solves, so only two
    # projected runs exercise them; the others project onto an l2 ball in
    # closed form.
    l2 = LpBall(p=2.0, r=0.6, d=8)
    biased, _ = _vector_problem(bias=True)
    for name, gd_loss, gd_ball in (("gd", loss, ball), ("gd-bias", biased, l2),
                                   ("gd-tilted", tilted, l2),
                                   ("gd-p3", loss, LpBall(p=3.0, r=0.6, d=8))):
        runs[name] = lambda hook, timed, gd_loss=gd_loss, gd_ball=gd_ball: (
            projected_gd_run(gd_loss, gd_ball, 2e-3, ITERS, rng=_rng(10),
                             record_timings=timed, on_iterate=hook))
    runs["sgd-sqrt"] = lambda hook, timed: projected_sgd_run(
        loss, l2, 2e-3, 6, ITERS, rng=_rng(11), record_timings=timed,
        on_iterate=hook)
    runs["sgd-constant"] = lambda hook, timed: projected_sgd_run(
        loss, l2, 1e-3, 6, ITERS, rng=_rng(12), record_timings=timed,
        sqrt_decay=False, on_iterate=hook)
    runs["sgd-tilted"] = lambda hook, timed: projected_sgd_run(
        tilted, l2, 2e-3, 6, ITERS, rng=_rng(13), record_timings=timed,
        on_iterate=hook)
    # The centred quadratic's batch gradient, through _TabularLoss's _terms.
    runs["sgd-bias"] = lambda hook, timed: projected_sgd_run(
        biased, l2, 2e-3, 6, ITERS, rng=_rng(18), record_timings=timed,
        on_iterate=hook)
    # Tabular losses other than the quadratic: the full and the batch
    # per-sample gradient, the exact rule's chord and an appended bias column.
    logistic = _logistic_loss()
    runs["pa-B-logistic"] = lambda hook, timed: pa_run(
        logistic, ball, "B", ITERS, rng=_rng(14), record_timings=timed,
        on_iterate=hook)
    runs["spa-logistic"] = lambda hook, timed: spa_run(
        logistic, ball, ITERS, rng=_rng(15), record_timings=timed,
        on_iterate=hook)
    biweight = BiWeightLoss(_regression_data())
    runs["fw-exact-biweight"] = lambda hook, timed: fw_run(
        biweight, ball, ExactLineSearch(tol=1e-8), ITERS, rng=_rng(16),
        record_timings=timed, on_iterate=hook)
    biweight_bias = BiWeightLoss(_regression_data(), bias=True)
    runs["sgd-biweight-bias"] = lambda hook, timed: projected_sgd_run(
        biweight_bias, LpBall(p=2.0, r=0.6, d=9), 2e-3, 6, ITERS, rng=_rng(17),
        record_timings=timed, on_iterate=hook)
    return runs


def _feed(h, value) -> None:
    if value is None:
        h.update(b"none;")
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(f"{value!r};".encode())


def _digest(run, workdir: Path) -> str:
    snaps = []
    trace = run(snaps.append, False)
    path = workdir / "trace.csv"
    write_trace(trace, path)
    h = hashlib.sha256(path.read_bytes())
    for snap in snaps:
        for name in ("t", "gamma", "w", "v", "z", "p"):
            _feed(h, getattr(snap, name))
    _feed(h, trace.final_point)
    return h.hexdigest()


GOLDEN = {
    "fw-predefined": "ff4964c61b25800e80e9786481fefbb8ad07a869628df165062951fcde27bd64",
    "fw-predefined-tilted": "a893950d7eecae170c3926a8ca9660485835dac88d0e0fd57a10de85920faf83",
    "fw-quadratic": "02fd3a6f627b940b841355e088a20fa60d7f4c4b7b12cb9994b1fdf5bd33971e",
    "fw-quadratic-tilted": "0f616be2e5cc0cc4e4b9cf7f7eaca8e8a3ee1df4280a05948c81098f72776826",
    "fw-exact": "989faf38aeb7613684a4a45b07996b1cd8bf9895922e09c5eca2c0948102ba7c",
    "fw-exact-tilted": "4fd1a6c764d9cf48361ab872b7ad4188dd7586f460a2d3bbcfa1af7ba3b6d043",
    "fw-short": "e05ae76c4aa1f68723576a65dcbd1346f785dcc5b296b1c2f30d01718eef72ed",
    "fw-short-tilted": "43b2a73ef3bab317eb77011c1407f6eb792e447e6d1f764d836659fe0162a6f0",
    "fw-schatten": "7620e887663704a78f684ee2130c74868e8fd4e643f0e7cd1f44490f8935ed91",
    "fw-group": "3b5771cc400b5689b05c5278a0c35884dee51f0368c5b32c8571d3cd4ca6bd17",
    "fw-group-p15": "8814be83d6a50683f29130d0670c206dbdfe7bbdc75ef76de67c9f9d555a8049",
    "pa-A": "1b1a2e2ff814c8a220a11a08a3e7d686c0983b161a8c35936d1f09caf9285907",
    "pa-A-tilted": "789a75ad10c319737c42dd87b7e0d0a56a2f1f9a6cb2533b529dc8e2ff92190f",
    "pa-A-schatten": "65eddcfb96d6464c69e3bc5d8927a2954e7f353019adf287a2b2cd7bdf8de293",
    "pa-B": "3aaacf5ba28d8a019f9be07e915f0b669fcec3cc4784e3f2a24dc67f72c54e61",
    "pa-B-tilted": "27dbf36407172727ff8361cf207c9963b82b4f5b47e84b662117efa8ac40b6ba",
    "pa-B-schatten": "c7b880f8be0273ab970562a7c8e071cd18a1b63a9bab8bb35224b30fad311f79",
    "pa-b": "3aaacf5ba28d8a019f9be07e915f0b669fcec3cc4784e3f2a24dc67f72c54e61",
    "pa-b-tilted": "27dbf36407172727ff8361cf207c9963b82b4f5b47e84b662117efa8ac40b6ba",
    "pa-b-schatten": "c7b880f8be0273ab970562a7c8e071cd18a1b63a9bab8bb35224b30fad311f79",
    "spa": "59950c3d3af1719d45df5b8ec41f59ad8d6e11f028c8f8be7760f7683bfbb09b",
    "spa-default-rng": "82c288a2b37b188a79d3b605da745b5dc7a1ce4ce7d7311d69de374ce2ba73c9",
    "spa-tilted": "fd9ae1ff89876636255bad67ac28926c0bc24d1ef2b5de1c734e1695c4b9bff9",
    "gd": "3f951ebef052aa03ab48591c63091c7c835814b4e0c05c93b764fc018bd9061d",
    "gd-bias": "9966c164a3cdfc32005ac5ba5e1945ef01a7996fb6980179ed5a17fa27ae0272",
    "gd-tilted": "c8741188f9f5ade3a1a9c054b93a93d4cc2aa579ed50ddbf5d3d1d84b6d334f5",
    "gd-p3": "e7830a38939987f78f1ba30b5a4aedf9c96b28ca7a6e4322b50ce56ab5d63678",
    "sgd-sqrt": "71d1e7a36be27048f67dc81bf66880b00eebed73969fbeb7793f15d65d806847",
    "sgd-constant": "24c49c791c5257c2fc6fff4b07c23defb659824ad0304af827f5897e87e4ae38",
    "sgd-tilted": "15994255f51078c1e556d1292e7ffdc0711048ae18214757efb51ea1ca5c9c92",
    "sgd-bias": "31a3672119cf721e2d53d7c92ff8668a7ea0a9e6a3d043963e7b75450c7d5140",
    "pa-B-logistic": "5dfa1b02bac988a6230d4e4b7dfe47c7fd7ccecfe5cd47f3af2678b8682fc6e8",
    "spa-logistic": "3afbd6333103f33f5dcda070f73b07379191dfd6a833a35264c9a03d448bb5d5",
    "fw-exact-biweight": "c4ad87eace2b0a2aa9b67a20e1cf8d9b457d1c22531253e6f11d2c0a90cfec81",
    "sgd-biweight-bias": "22bcd06341bdd20c031794af65c7b7808812f1c75319baa5758c119e12e00374",
}


def test_golden_traces(tmp_path):
    runs = _runs()
    assert sorted(runs) == sorted(GOLDEN)
    differ = [name for name, run in runs.items()
              if _digest(run, tmp_path) != GOLDEN[name]]
    assert not differ, f"runs that differ from their golden hash: {differ}"


def test_timing_columns_per_method():
    # Projection-free methods time an oracle and no projection; the
    # projected baselines the reverse.  step_ms is always timed.
    runs = _runs()
    for name, run in runs.items():
        trace = run(None, True)
        projected = name.startswith(("gd", "sgd"))
        assert all(v is not None for v in trace.step_ms), name
        assert all((v is None) == projected for v in trace.oracle_ms), name
        assert all((v is None) != projected for v in trace.proj_ms), name


if __name__ == "__main__":
    # The last loss_f and fw_gap show how far a recaptured run moved; MOVED
    # marks a hash that differs from the table, NEW a run missing from it.
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in _runs().items():
            last = run(None, False)
            digest = _digest(run, Path(tmp))
            mark = ("" if GOLDEN.get(name) == digest
                    else " MOVED" if name in GOLDEN else " NEW")
            sys.stdout.write(f'    "{name}": "{digest}",  '
                             f"# {last.loss_f[-1]!r} {last.fw_gap[-1]!r}{mark}\n")
