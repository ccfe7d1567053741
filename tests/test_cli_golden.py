"""Golden hashes of small `projfree run` configs.

Each config goes through `cli.run_from_config`; the table pins the run's
label and the sha256 of the bytes `write_trace` writes.  The configs cover
every optimizer kind, each FW step rule, `gd` with `eta: auto` and with a
number, `sgd` with and without `sqrt_decay`, a tilted run, a csv dataset
with `standardize: true` and raw with a `bias: true` quadratic, and a
low-rank dataset on a Schatten and on a group ball, so a change to how the
config is read that moves any run shows up here by name.

The hashes were captured with numpy 2.4 on OpenBLAS 0.3 (x86-64), like
those of `test_golden_traces.py`; print the current table, each run's last
loss_f and fw_gap beside its hash and MOVED or NEW where the table differs,
with `python tests/test_cli_golden.py`.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from projfree.cli import run_from_config
from projfree.trace import write_trace

_REGRESSION = {"kind": "synthetic-regression", "n": 50, "d": 6, "noise": 0.1,
               "seed": 5, "condition": 4.0}
_LOWRANK = {"kind": "synthetic-lowrank", "m": 9, "n": 8, "rank": 2,
            "fraction": 0.5, "seed": 6}
_L15 = {"kind": "lp", "p": 1.5, "r": 0.8}
_L2 = {"kind": "lp", "p": 2.0, "r": 0.8}


def _cfg(optimizer, dataset=_REGRESSION, loss="quadratic", region=_L15, **extra):
    cfg = {
        "dataset": dict(dataset),
        "loss": loss if isinstance(loss, dict) else {"kind": loss},
        "set": dict(region),
        "optimizer": {"iters": 15, "seed": 2, **optimizer},
    }
    cfg.update(extra)
    return cfg


def _write_csv(workdir: Path) -> Path:
    # 30 rows of three features and a target, integer-valued cells so the
    # file reads back exactly.
    rows = []
    for i in range(30):
        x = (i % 7 - 3, (3 * i) % 5, (i * i) % 11 - 5)
        y = 2 * x[0] - x[1] + 0.5 * x[2] + (i % 3 - 1)
        rows.append(",".join(str(v) for v in (*x, y)))
    path = workdir / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def _configs(workdir: Path) -> dict:
    csv = {"kind": "csv", "path": str(_write_csv(workdir)),
           "target_column": 3, "standardize": True}
    return {
        "fw-predefined": _cfg({"kind": "fw", "step_rule": "predefined"}),
        "fw-quadratic": _cfg({"kind": "fw", "step_rule": "quadratic"}),
        "fw-exact": _cfg({"kind": "fw", "step_rule": "exact"},
                         dataset={"kind": "synthetic-classification", "n": 40,
                                  "d": 5, "margin": 0.2, "seed": 7},
                         loss="squared-sigmoid"),
        "fw-short": _cfg({"kind": "fw", "step_rule": "short",
                          "smoothness": 40.0}, region=_L2),
        "pa-B": _cfg({"kind": "pa", "option": "B"}),
        "pa-A-tilted": _cfg({"kind": "pa", "option": "A"},
                            perturbation={"enabled": True, "epsilon": "1e-3",
                                          "delta": 0.2}),
        "spa": _cfg({"kind": "spa"}),
        "gd-auto": _cfg({"kind": "gd", "eta": "auto"}),
        "gd-number": _cfg({"kind": "gd", "eta": 0.01}, region=_L2),
        "sgd-sqrt": _cfg({"kind": "sgd", "eta0": 0.02, "batch": 8}, region=_L2),
        "sgd-constant": _cfg({"kind": "sgd", "eta0": 0.01, "batch": 8,
                              "sqrt_decay": False}, region=_L2),
        "fw-csv-standardized": _cfg({"kind": "fw"}, dataset=csv, region=_L2),
        "pa-schatten": _cfg({"kind": "pa"}, dataset=_LOWRANK,
                            loss="observed-quadratic",
                            region={"kind": "schatten", "p": 1.5, "r": 3.0}),
        "fw-group": _cfg({"kind": "fw", "step_rule": "quadratic"},
                         dataset=_LOWRANK, loss="observed-quadratic",
                         region={"kind": "group", "p": 2.0, "q": 1.5, "r": 3.0}),
        # The raw csv's features have non-zero means, which the centring
        # takes out of L = smoothness().
        "fw-quadratic-bias": _cfg({"kind": "fw", "step_rule": "quadratic",
                                   "smoothness": "auto"},
                                  dataset={**csv, "standardize": False},
                                  loss={"kind": "quadratic", "bias": True},
                                  region=_L2),
    }


def _digest(cfg: dict, workdir: Path) -> tuple:
    trace, info = run_from_config(cfg)
    path = workdir / "trace.csv"
    write_trace(trace, path)
    return info["label"], hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    "fw-predefined": ("fw/predefined", "5375e81fd7c91997129f884a0a0268561c877dbe46653eedab61c5092492279a"),
    "fw-quadratic": ("fw/quadratic", "5e6d4fd92dd7bd7be7fab438c3df568e893b3b93afcd844e53dca9e88e8d616f"),
    "fw-exact": ("fw/exact", "0127a11421f4b738edb6affbbf1ffa8c27ac0a70e461f59ed99ed31cecdaf314"),
    "fw-short": ("fw/short", "3c77b44c1902ad4724fcb39b3feb21581fe7adab91511df4f2773cedd2098c13"),
    "pa-B": ("pa/B", "ad77eb5aade0cdbc13794da55782699906e47c37875b858f1c185ebbedbb5f0d"),
    "pa-A-tilted": ("pa/A", "04a10b10b31fe708230d9bc6798da947958010082945bbf61b7ddc66aa2b6b76"),
    "spa": ("spa", "3bccfd07a2650377a315737c9bed1eac09e7b085e3fe52eeabd3738731ba5b7e"),
    "gd-auto": ("gd/eta=0.0118", "6b5e455c86aab9ec07cc019bd0e5b1ce813058aee9b54c3417c4aabf04de9b63"),
    "gd-number": ("gd/eta=0.01", "bb24e6a2ce0ca81ef935e5aea26cb23dbe04d808241cc55e36b8d63d6d39f5b1"),
    "sgd-sqrt": ("sgd", "b2add119b9e0fb819489b28dafa741debacc009e0c1c79e63b3823c5ed66afea"),
    "sgd-constant": ("sgd", "57b1f85d688b62798ab4189cbbd0c483a40ded975a6f7f7ecd890e0bd9c3f30f"),
    "fw-csv-standardized": ("fw/predefined", "37fea6e0a15e357466b2391be17bb393509fc186724995c7f82f24b47edca2f4"),
    "pa-schatten": ("pa/A", "fdc3fc20bc2948aed5d51506ac2865445c23b249d003509ed8f2556ade641d3d"),
    "fw-group": ("fw/quadratic", "33a014f397465d9c367f75f9e3e761fcb80773948633f9b28a25a2915dd4dbd8"),
    "fw-quadratic-bias": ("fw/quadratic", "d4da606432678ba0a2f09551730add3e8cf9d7b32a634c2c4a859c7c92cdc9d8"),
}


def test_cli_golden_runs(tmp_path):
    configs = _configs(tmp_path)
    assert sorted(configs) == sorted(GOLDEN)
    differ = [name for name, cfg in configs.items()
              if _digest(cfg, tmp_path) != GOLDEN[name]]
    assert not differ, f"configs whose run differs from its golden hash: {differ}"


if __name__ == "__main__":
    # The last loss_f and fw_gap show how far a recaptured run moved; MOVED
    # marks a run that differs from the table, NEW one missing from it.
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in _configs(Path(tmp)).items():
            label, digest = _digest(cfg, Path(tmp))
            last, _ = run_from_config(cfg)
            mark = ("" if GOLDEN.get(name) == (label, digest)
                    else " MOVED" if name in GOLDEN else " NEW")
            sys.stdout.write(f'    "{name}": ("{label}", "{digest}"),  '
                             f"# {last.loss_f[-1]!r} {last.fw_gap[-1]!r}{mark}\n")
