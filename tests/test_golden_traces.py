"""Golden hashes of small runs of every optimizer.

Each run is reduced to one sha256 over the bytes `write_trace` writes, every
field of every `IterateSnapshot` (t, gamma, w, v, z, p) and `final_point`.
The table pins all five run functions, each step rule, plain and tilted
losses and the matrix sets, so a change to the run loop that moves any
recorded number, snapshot or iterate shows up here by name.

The hashes were captured with numpy 2.4 on OpenBLAS 0.3 (x86-64).  A BLAS
that rounds differently changes them; print the current table with
`python tests/test_golden_traces.py` and compare it against a known-good
commit before replacing it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from projfree.datasets import SyntheticSpec, gen_lowrank, gen_regression
from projfree.feasible_sets import GroupLpqBall, LpBall, SchattenPBall
from projfree.losses import ObservedQuadraticLoss, QuadraticLoss
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


def _vector_problem(bias=False):
    spec = SyntheticSpec(kind="regression", n=40, d=8, noise=0.1, seed=11,
                         condition=10.0)
    data, _ = gen_regression(spec)
    return QuadraticLoss(data, bias=bias), LpBall(p=1.5, r=0.6, d=8)


def _matrix_loss():
    spec = SyntheticSpec(kind="lowrank", m=12, n=10, rank=2, fraction=0.5,
                         seed=12)
    observed, _ = gen_lowrank(spec)
    return ObservedQuadraticLoss(observed)


def _tilted(loss, region):
    return make_perturbed(loss, 0.5, region.diameter(), 0.1,
                          np.random.default_rng(13))


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rule(name, loss, region):
    if name == "predefined":
        return PredefinedDecay()
    smoothness = loss.exact_smoothness()
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
    # The l_1.5 projection is an iterative Newton solve, so only one projected
    # run exercises it; the others project onto an l2 ball in closed form.
    l2 = LpBall(p=2.0, r=0.6, d=8)
    biased, _ = _vector_problem(bias=True)
    for name, gd_loss, gd_ball in (("gd", loss, ball), ("gd-bias", biased, l2),
                                   ("gd-tilted", tilted, l2)):
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
    "fw-exact": "27301b07fafcfbf8d4a36c662e5b55cae695f1dd8f3d88dca1931aebe00e7312",
    "fw-exact-tilted": "5fb058ee324c3bf89ca9065ca5fa787ca15a6d94074c7a021690df3de6fda7ca",
    "fw-short": "e05ae76c4aa1f68723576a65dcbd1346f785dcc5b296b1c2f30d01718eef72ed",
    "fw-short-tilted": "43b2a73ef3bab317eb77011c1407f6eb792e447e6d1f764d836659fe0162a6f0",
    "fw-schatten": "8ef1fb2dd7c2be3efb8703bbcbd9b65121f67bb36232e4a9de46fa81d1b1b231",
    "fw-group": "3b5771cc400b5689b05c5278a0c35884dee51f0368c5b32c8571d3cd4ca6bd17",
    "pa-A": "1b1a2e2ff814c8a220a11a08a3e7d686c0983b161a8c35936d1f09caf9285907",
    "pa-A-tilted": "789a75ad10c319737c42dd87b7e0d0a56a2f1f9a6cb2533b529dc8e2ff92190f",
    "pa-A-schatten": "65a9bff8ef187b0395583df79eebbd3ef960e8714af595b1baf93cf618d4f841",
    "pa-B": "3aaacf5ba28d8a019f9be07e915f0b669fcec3cc4784e3f2a24dc67f72c54e61",
    "pa-B-tilted": "27dbf36407172727ff8361cf207c9963b82b4f5b47e84b662117efa8ac40b6ba",
    "pa-B-schatten": "fbe88a39ec29242b0a935d710b281212685f8346c155f522d024b38e639023f9",
    "pa-b": "3aaacf5ba28d8a019f9be07e915f0b669fcec3cc4784e3f2a24dc67f72c54e61",
    "pa-b-tilted": "27dbf36407172727ff8361cf207c9963b82b4f5b47e84b662117efa8ac40b6ba",
    "pa-b-schatten": "fbe88a39ec29242b0a935d710b281212685f8346c155f522d024b38e639023f9",
    "spa": "804a920454ceb3de49247bd30ec9de3123c1a5a66a8e996d049e800be335dd99",
    "spa-default-rng": "82c288a2b37b188a79d3b605da745b5dc7a1ce4ce7d7311d69de374ce2ba73c9",
    "spa-tilted": "07f7f38ef4ba65f8b540e5247a3b7aba9eb84a474d5f5b4500ecf6a1c4d95383",
    "gd": "5d358b8c88a7b4aa466d96f6c11e316196f4daeb92baf4b0f0f9d18a2a213cd4",
    "gd-bias": "9e27e9f1eb4e05631bf6a5f602ba157615a99af16c5672dc0d3a813b201bb3db",
    "gd-tilted": "686d0e18f1dfa678ea7c23b5a86b81489e82f7558e2c62364e1e8797da7ac9d2",
    "sgd-sqrt": "9c1f04c63f3d7a0df93239a5d032efd6159bb4b4e8146e998d07a2d10cb8b27c",
    "sgd-constant": "fd481f71de370fca68fb7caeaa86cc5f069aa1aa383edcceabad74045053eb00",
    "sgd-tilted": "25e3817f50cf775f9667acc55e4f17decaadcf5a2a7393e22b50bc374c9a6638",
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
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in _runs().items():
            sys.stdout.write(f'    "{name}": "{_digest(run, Path(tmp))}",\n')
