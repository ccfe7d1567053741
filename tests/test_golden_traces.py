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
commit before replacing it.  `--write DIR` also writes each run's trace to
DIR/<run>.csv; run so under a known-good checkout's package
(`PYTHONPATH=<checkout>/src`), then `--reference DIR` under this one adds,
for each run, the largest relative drift of loss_f and the largest absolute
drift of fw_gap over all rows.
"""

import argparse
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
from projfree.trace import read_trace, write_trace

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
    "fw-predefined": "2554d1201e0a8fd894d50e31f6602b894592c984bdfa1bbad1929c83da5ecbf0",
    "fw-predefined-tilted": "704e671b88ba9ed6ac1157f600effab00c3555cab2edce7da632a638358892f7",
    "fw-quadratic": "48aae84491e8a39ac903881fc0e2e4f334eecd6090fa8e3e9251c0419f0fff94",
    "fw-quadratic-tilted": "a54bceba6c8dcfee26dc0a5c06815222012a59c0c532bd43919615168c5e699b",
    "fw-exact": "150c1674649831ccfe00ab5dfd098296492d73accd76c7274fcdb08bdb0d39eb",
    "fw-exact-tilted": "7e67de630a66da1636286140153841c511c1795bcaa1ae2bb2caa8157ca8f578",
    "fw-short": "3723867d5cfeb9a6e92859785d251479bd2f30133567c139b6cc105d70619964",
    "fw-short-tilted": "d5bbbddec16c774d3ae7680be4cdd160ab1e77ac6207cca73c228455acb4c2d1",
    "fw-schatten": "7620e887663704a78f684ee2130c74868e8fd4e643f0e7cd1f44490f8935ed91",
    "fw-group": "3b5771cc400b5689b05c5278a0c35884dee51f0368c5b32c8571d3cd4ca6bd17",
    "fw-group-p15": "8814be83d6a50683f29130d0670c206dbdfe7bbdc75ef76de67c9f9d555a8049",
    "pa-A": "77cf2ba0ad933b10cba38a385b12e30fc58802bde784ff996e949ac703169873",
    "pa-A-tilted": "7252f4f38a2ba42bffdf72db6448634f5b51aee6c9694e6998d9cc5dd312becf",
    "pa-A-schatten": "65eddcfb96d6464c69e3bc5d8927a2954e7f353019adf287a2b2cd7bdf8de293",
    "pa-B": "e186b3f635feedb2ad61c22ccfa6b9ef1e331d6c4f37a6507d452a8e82029590",
    "pa-B-tilted": "1930ef62ab2e591ce0ac4475b3144f4b2bd0d9d5850d0e4853ccaf28fee1135b",
    "pa-B-schatten": "c7b880f8be0273ab970562a7c8e071cd18a1b63a9bab8bb35224b30fad311f79",
    "pa-b": "e186b3f635feedb2ad61c22ccfa6b9ef1e331d6c4f37a6507d452a8e82029590",
    "pa-b-tilted": "1930ef62ab2e591ce0ac4475b3144f4b2bd0d9d5850d0e4853ccaf28fee1135b",
    "pa-b-schatten": "c7b880f8be0273ab970562a7c8e071cd18a1b63a9bab8bb35224b30fad311f79",
    "spa": "ec60dcfe8802b93407b537ef7de3924991aa2abb735ef7d290e2015e9f3f6c4e",
    "spa-default-rng": "6954c7d2ce9942b81f613702f25c506e95e914d7c7769d61fe3688be570f3cca",
    "spa-tilted": "4ab9368a0a4b89f384bef83eac34f72522f10e7150ef0339b35a61b702074c85",
    "gd": "3fb7056457ff07a09664522a072372c7031ae29a5f98c84276c4334cd2553e67",
    "gd-bias": "daa4dd0d173986ff6c07a290c94378383120a41defac26f950b02565e870a35d",
    "gd-tilted": "0528ec3158dddb4cc50197f02da1a7ce98d22a9b4837b1f51bf5becd775329b9",
    "gd-p3": "549d61c8ed40c30f6e7ad4af9e6b686a0945746eb70594cf72fc03da715d22d7",
    "sgd-sqrt": "89de49b2088b79d7a5e0e1641c8d9ce68bd28ac585bc85753d6575d502051f83",
    "sgd-constant": "42f50e19fbdd09ddbd20e423c0097c096292566f006a51d483ee1e31fb61c17f",
    "sgd-tilted": "910b236ae7c8e57653003a61cc6fce65f9cc50ce8f3041f0864c06648c793bbc",
    "sgd-bias": "06e8bd8b4ebc2001c574f51034e06131d09884ee182415f6b9d56c47fc5572b3",
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


def _drift(trace, reference):
    """(largest relative drift of loss_f, largest absolute drift of fw_gap)
    of trace from reference, row by row."""
    if len(trace) != len(reference):
        raise ValueError(f"{len(trace)} rows against {len(reference)}")
    f, f_ref = np.array(trace.loss_f), np.array(reference.loss_f)
    gap, gap_ref = np.array(trace.fw_gap), np.array(reference.fw_gap)
    return (float(np.max(np.abs(f - f_ref) / np.abs(f_ref))),
            float(np.max(np.abs(gap - gap_ref))))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden hash table.")
    parser.add_argument("--write", type=Path, metavar="DIR",
                        help="also write each run's trace to DIR/<run>.csv")
    parser.add_argument("--reference", type=Path, metavar="DIR",
                        help="add each run's drift from DIR/<run>.csv")
    args = parser.parse_args()
    if args.write is not None:
        args.write.mkdir(parents=True, exist_ok=True)
    # The last loss_f and fw_gap show how far a recaptured run moved; MOVED
    # marks a hash that differs from the table, NEW a run missing from it.
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in _runs().items():
            last = run(None, False)
            digest = _digest(run, Path(tmp))
            mark = ("" if GOLDEN.get(name) == digest
                    else " MOVED" if name in GOLDEN else " NEW")
            line = (f'    "{name}": "{digest}",  '
                    f"# {last.loss_f[-1]!r} {last.fw_gap[-1]!r}{mark}")
            if args.write is not None:
                write_trace(last, args.write / f"{name}.csv")
            if args.reference is not None:
                f_drift, gap_drift = _drift(
                    last, read_trace(args.reference / f"{name}.csv"))
                line += f" loss_f {f_drift:.1e} fw_gap {gap_drift:.1e}"
            sys.stdout.write(line + "\n")
