"""Golden hashes of small `projfree run` configs.

Each config goes through `cli.run_from_config`; the table pins the run's
label and the sha256 of the bytes `write_trace` writes.  The configs cover
every optimizer kind, each FW step rule, `gd` with `eta: auto` and with a
number, `sgd` with and without `sqrt_decay`, a tilted run, a csv dataset
with `standardize: true` and a low-rank dataset on a Schatten and on a group
ball, so a change to how the config is read that moves any run shows up
here by name.

The hashes were captured with numpy 2.4 on OpenBLAS 0.3 (x86-64), like
those of `test_golden_traces.py`; print the current table with
`python tests/test_cli_golden.py`.
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
        "loss": {"kind": loss},
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
    }


def _digest(cfg: dict, workdir: Path) -> tuple:
    trace, info = run_from_config(cfg)
    path = workdir / "trace.csv"
    write_trace(trace, path)
    return info["label"], hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    "fw-predefined": ("fw/predefined", "2d761d243458ac186811e2bcd356c9f5bdd86abd1217992b42043a53b54335fb"),
    "fw-quadratic": ("fw/quadratic", "7b8545a16b15e6455791cab1de4ed9100c7af165b08c7a720367e02482d0a5bb"),
    "fw-exact": ("fw/exact", "0127a11421f4b738edb6affbbf1ffa8c27ac0a70e461f59ed99ed31cecdaf314"),
    "fw-short": ("fw/short", "7f3312245e1786988c348aea31f9c252df234f943bfbb930eb00edcfb126730c"),
    "pa-B": ("pa/B", "88a88ae808451755667022eaee89b5f9d480fb7e248a9b9ee9a448da78057442"),
    "pa-A-tilted": ("pa/A", "4288670ed65cb2ac11af57f5562154f92da8b1bd4e620bf403cb8d492a899e4f"),
    "spa": ("spa", "facb7bb4fdbe68f91ee52b6050a3f9d83732d699a8d8e5a12ddb5d6541f82402"),
    "gd-auto": ("gd/eta=0.006209", "f2459f84d7144628727c352ab458b3bb22da3e4cd48cee299766b33d4cbb7212"),
    "gd-number": ("gd/eta=0.01", "06c64bffd5046b778b04b554ad8121957eda1d217c796c737dc8892a453b6b98"),
    "sgd-sqrt": ("sgd", "b5496896997cc1c0aade6d84cf94967cea61178d2623e8327e409ccb3ab8abe5"),
    "sgd-constant": ("sgd", "1ff9595b2debb5d7fe3e63fe19d270070d6bf3110d653bf075d2e13c9992fb72"),
    "fw-csv-standardized": ("fw/predefined", "b124c390ddfb2baa269811a3b4983ae9040c029481b6a70ef4e4991de3683574"),
    "pa-schatten": ("pa/A", "98d06c1e0b6bbd0f7c5fbb0429dd9ed7ec1b9f37d3e744a69f28dd9362e7ac8b"),
    "fw-group": ("fw/quadratic", "33a014f397465d9c367f75f9e3e761fcb80773948633f9b28a25a2915dd4dbd8"),
}


def test_cli_golden_runs(tmp_path):
    configs = _configs(tmp_path)
    assert sorted(configs) == sorted(GOLDEN)
    differ = [name for name, cfg in configs.items()
              if _digest(cfg, tmp_path) != GOLDEN[name]]
    assert not differ, f"configs whose run differs from its golden hash: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in _configs(Path(tmp)).items():
            label, digest = _digest(cfg, Path(tmp))
            sys.stdout.write(f'    "{name}": ("{label}", "{digest}"),\n')
