"""End-to-end command tests through an in-process click runner."""

import csv
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from projfree import cli, suites
from projfree.cli import main
from projfree.problems import ridge_path_optimum
from projfree.suites import CheckResult
from projfree.trace import CSV_HEADER, Trace, read_trace, write_trace


@pytest.fixture()
def runner():
    return CliRunner()


def _base_config(**updates):
    cfg = {
        "dataset": {
            "kind": "synthetic-regression",
            "n": 60,
            "d": 4,
            "noise": 0.05,
            "seed": 3,
        },
        "loss": {"kind": "quadratic"},
        "set": {"kind": "lp", "p": 2.0, "r": 1.0},
        "optimizer": {"kind": "fw", "step_rule": "predefined", "iters": 40},
    }
    cfg.update(updates)
    return cfg


def _write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def _power_law_trace(tmp_path, name="trace.csv", n=200):
    tr = Trace()
    for t in range(1, n + 1):
        tr.append(t, 1.0 / t**2 + 5.0, None, 1.0 / t, 0.5, None, 1.0)
    path = tmp_path / name
    write_trace(tr, path)
    return path


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace_and_summarizes(runner, tmp_path):
    out = tmp_path / "out.csv"
    cfg = _base_config(output={"trace": str(out)})
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "algorithm: fw/predefined" in result.output
    assert "final loss_f:" in result.output
    assert "min fw_gap:" in result.output
    assert f"trace written: {out}" in result.output
    assert len(read_trace(out)) == 40


def test_run_without_trace_path_is_fine(runner, tmp_path):
    path = _write_config(tmp_path, _base_config())
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0
    assert "trace written" not in result.output


def test_run_reruns_byte_identical(runner, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    path = _write_config(tmp_path, _base_config())
    ra = runner.invoke(main, ["run", "--config", str(path), "--out", str(out_a)])
    rb = runner.invoke(main, ["run", "--config", str(path), "--out", str(out_b)])
    assert ra.exit_code == 0 and rb.exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_analysis_block_reports_convergence_and_slope(runner, tmp_path):
    cfg = _base_config(
        optimizer={"kind": "pa", "option": "A", "iters": 400},
        analysis={"f_star": 0.0, "burn_in": 20},
    )
    cfg["dataset"]["noise"] = 0.0
    cfg["dataset"]["w_norm"] = 0.5
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0
    assert "final suboptimality:" in result.output
    assert "convergence (within 2%):" in result.output
    assert "slope:" in result.output


def test_run_perturbation_accepts_numeric_string(runner, tmp_path):
    cfg = _base_config(perturbation={"enabled": True, "epsilon": "1e-4"})
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0
    assert "final loss_h:" in result.output


def test_run_iters_override(runner, tmp_path):
    out = tmp_path / "o.csv"
    path = _write_config(tmp_path, _base_config())
    result = runner.invoke(
        main,
        ["run", "--config", str(path), "--iters", "7", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert len(read_trace(out)) == 7
    bad = runner.invoke(main, ["run", "--config", str(path), "--iters", "0"])
    assert bad.exit_code == 2


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.update(bogus={}), "unknown field"),
        (lambda c: c.pop("set"), "missing required section"),
        (lambda c: c["optimizer"].update(step_rule="warp"), "expected one of"),
        (lambda c: c["optimizer"].update(option="A"), "unknown field"),
        (lambda c: c.update(
            dataset={"kind": "synthetic-lowrank", "m": 6, "n": 5, "rank": 2,
                     "fraction": 0.5, "seed": 1},
            loss={"kind": "observed-quadratic"},
            set={"kind": "group", "p": 1.5, "q": 1.5, "r": 1.0},
            optimizer={"kind": "gd", "eta": 0.1}),
         "need a projection"),
        (lambda c: c["dataset"].update(noise=-1.0), "must be >="),
    ],
)
def test_run_config_errors_exit_2(runner, tmp_path, mutate, fragment):
    cfg = _base_config()
    mutate(cfg)
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert fragment in result.stderr


@pytest.mark.parametrize(
    "section, fields, message",
    [
        ("dataset", {"seed": -1}, "dataset.seed: must be >= 0, got -1"),
        ("optimizer", {"seed": -1}, "optimizer.seed: must be >= 0, got -1"),
        ("perturbation", {"enabled": True, "delta": 1.0},
         "perturbation.delta: must be < 1.0, got 1.0"),
        # fields the chosen method ignores are checked all the same
        ("optimizer", {"smoothness": -5},
         "optimizer.smoothness: must be > 0.0, got -5.0"),
        ("perturbation", {"enabled": False, "epsilon": "banana"},
         "perturbation.epsilon: expected a number, got 'banana'"),
    ],
)
def test_run_bad_field_value_exits_2(runner, tmp_path, section, fields, message):
    cfg = _base_config()
    cfg.setdefault(section, {}).update(fields)
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert result.exit_code == 2, result.output
    assert message in result.stderr


def test_run_negative_seed_option_exits_2(runner, tmp_path):
    path = _write_config(tmp_path, _base_config())
    result = runner.invoke(main, ["run", "--config", str(path), "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.stderr


def test_run_reads_numeric_strings_where_auto_is_allowed():
    runs = []
    for smoothness in (40.0, "40", "4e1"):
        cfg = _base_config(optimizer={"kind": "fw", "step_rule": "quadratic",
                                      "smoothness": smoothness, "iters": 5})
        runs.append(cli.run_from_config(cfg)[0].loss_f)
    assert runs[0] == runs[1] == runs[2]


def test_run_vector_set_rejects_matrix_model(runner, tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic-lowrank", "m": 6, "n": 5, "rank": 2,
                    "fraction": 0.5, "seed": 1},
        "loss": {"kind": "observed-quadratic"},
        "set": {"kind": "lp", "p": 2.0, "r": 1.0},
        "optimizer": {"kind": "fw", "iters": 5},
    }
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "set.kind" in result.stderr and "vector model" in result.stderr


def test_run_unparseable_yaml(runner, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("dataset: [unclosed\n")
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "could not parse" in result.stderr


def test_run_non_mapping_yaml(runner, tmp_path):
    path = tmp_path / "scalar.yaml"
    path.write_text("3\n")
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_numeric_failure_exits_3(runner, tmp_path):
    csv = tmp_path / "huge.csv"
    csv.write_text("1e200,1\n1e200,2\n1e200,3\n")
    cfg = {
        "dataset": {"kind": "csv", "path": str(csv), "target_column": 1},
        "loss": {"kind": "quadratic"},
        "set": {"kind": "lp", "p": 2.0, "r": 1.0},
        "optimizer": {"kind": "gd", "eta": 0.1, "iters": 10},
    }
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3
    assert "numeric failure" in result.stderr


@pytest.mark.parametrize("kind", ["gd", "sgd"])
def test_run_overflowing_projected_step_exits_3(runner, tmp_path, kind):
    opt, p = {"gd": ({"eta": 1.7e308}, 2.0),
              "sgd": ({"eta0": 1.7e308, "batch": 8}, 1.5)}[kind]
    cfg = _base_config(
        dataset={"kind": "synthetic-regression", "n": 30, "d": 4, "seed": 1},
        set={"kind": "lp", "p": p, "r": 1.0},
        optimizer={"kind": kind, "iters": 5, **opt},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output + str(result.exception)
    assert "non-finite pre-projection point at iteration 1" in result.stderr


def test_run_sgd_with_overflowing_batch_squares_exits_3(runner, tmp_path):
    # At the first iterate of a 1e160 ball the batch residuals' squares
    # overflow; the batch gradient drops them with no warning, and the
    # run stops on the infinite loss value.
    cfg = _base_config(
        dataset={"kind": "synthetic-regression", "n": 30, "d": 4, "seed": 1},
        set={"kind": "lp", "p": 1.5, "r": 1e160},
        optimizer={"kind": "sgd", "iters": 5, "eta0": 1e-3, "batch": 3},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output + str(result.exception)
    assert "non-finite loss at iteration 1" in result.stderr


@pytest.mark.parametrize("rule", ["predefined", "quadratic", "exact", "short"])
def test_run_overflowing_gram_exits_3(runner, tmp_path, rule):
    # X^T X of 1e160-scale features overflows (40 rows, 3 features: the
    # Gram form): in smoothness() for the rules that read L, else at the
    # first gradient, where the quadratic loss builds G.
    x = 1e160 * np.random.default_rng(61).standard_normal((40, 3))
    y = np.random.default_rng(62).standard_normal(40)
    csv = tmp_path / "big.csv"
    csv.write_text("".join(f"{a!r},{b!r},{c!r},{t!r}\n"
                           for (a, b, c), t in zip(x.tolist(), y.tolist())))
    cfg = _base_config(
        dataset={"kind": "csv", "path": str(csv), "target_column": 3},
        optimizer={"kind": "fw", "step_rule": rule, "iters": 5},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output + str(result.exception)
    assert "X^T X overflows" in result.stderr


def test_run_bias_gd_auto_reaches_the_centred_optimum(runner, tmp_path):
    # Features with mean 50: the intercept is profiled out by centring, so
    # eta = auto tunes against the centred L and GD reaches
    # f* = min ||X_c w - y_c||^2 = 251.2 over the unit l2 ball.  With L
    # from the uncentred features it stopped at 1615.2.
    rng = np.random.default_rng(63)
    x = 50.0 + rng.standard_normal((500, 5))
    y = x @ rng.standard_normal(5) + 3.0 + 0.1 * rng.standard_normal(500)
    csv = tmp_path / "offset.csv"
    csv.write_text("".join(",".join(map(repr, row)) + "\n"
                           for row in np.column_stack([x, y]).tolist()))
    f_star, _ = ridge_path_optimum(x - x.mean(axis=0), y - y.mean(), 1.0)
    out = tmp_path / "gd.csv"
    cfg = _base_config(
        dataset={"kind": "csv", "path": str(csv), "target_column": 5},
        loss={"kind": "quadratic", "bias": True},
        optimizer={"kind": "gd", "eta": "auto", "iters": 200},
        output={"trace": str(out)},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert abs(read_trace(out).loss_f[-1] - f_star) <= 1e-8 * f_star


@pytest.mark.parametrize("kind", ["gd", "sgd"])
def test_run_projected_methods_on_an_l3_ball(runner, tmp_path, kind):
    opt = {"gd": {"eta": 0.01}, "sgd": {"eta0": 0.01, "batch": 8}}[kind]
    cfg = _base_config(set={"kind": "lp", "p": 3.0, "r": 0.5},
                       optimizer={"kind": kind, "iters": 20, **opt})
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "iterations: 20" in result.output


def test_run_projects_far_outside_a_tiny_l1_ball(runner, tmp_path):
    # A gradient step lands about 1e17 radii outside the ball, where the sum
    # of the entries minus r loses r.
    cfg = _base_config(set={"kind": "lp", "p": 1.0, "r": 1.0e-17},
                       optimizer={"kind": "gd", "eta": 0.01, "iters": 3})
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "iterations: 3" in result.output


def test_run_overflowing_tilt_exits_3(runner, tmp_path):
    # A tilt of size 1e300 / (4 D) keeps every iterate finite but overflows
    # the recorded direction's norm.
    cfg = _base_config(
        dataset={"kind": "synthetic-regression", "n": 30, "d": 4, "seed": 1},
        optimizer={"kind": "fw", "iters": 5},
        perturbation={"enabled": True, "epsilon": 1e300},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output + str(result.exception)
    assert "non-finite direction norm" in result.stderr


@pytest.mark.parametrize("optimizer", [
    {"kind": "gd", "eta": "auto"},
    {"kind": "fw", "step_rule": "quadratic"},
])
def test_run_zero_smoothness_exits_3(runner, tmp_path, optimizer):
    # One standardized sample leaves all-zero features, so L = 0; eta = auto
    # and the quadratic rule both divide by it.
    cfg = _base_config(
        dataset={"kind": "synthetic-regression", "n": 1, "d": 3,
                 "standardize": True},
        optimizer={**optimizer, "iters": 5},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output + str(result.exception)
    assert "smoothness L = 0.0" in result.stderr


def test_run_infinite_tilt_exits_2(runner, tmp_path):
    # theta = epsilon / (4 D) = 1e300 / 8e-300 overflows to inf.
    cfg = _base_config(
        set={"kind": "lp", "p": 2.0, "r": 1e-300},
        perturbation={"enabled": True, "epsilon": 1e300},
    )
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2, result.output + str(result.exception)
    assert "perturbation.epsilon" in result.output


def test_run_logistic_on_non_binary_labels_exits_2(runner, tmp_path):
    csv = tmp_path / "labels.csv"
    csv.write_text("".join(f"{0.1 * i:.1f},{1 + i % 2}\n" for i in range(20)))
    cfg = {
        "dataset": {"kind": "csv", "path": str(csv), "target_column": 1},
        "loss": {"kind": "logistic"},
        "set": {"kind": "lp", "p": 2.0, "r": 1.0},
        "optimizer": {"kind": "fw", "iters": 5},
    }
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "labels in {-1, +1}" in result.stderr


def _csv_config(csv_path):
    return _base_config(
        dataset={"kind": "csv", "path": str(csv_path), "target_column": 1},
        optimizer={"kind": "fw", "iters": 5},
    )


def test_run_missing_dataset_file_exits_2(runner, tmp_path):
    path = _write_config(tmp_path, _csv_config(tmp_path / "absent.csv"))
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "absent.csv" in result.stderr


def test_run_non_numeric_dataset_cell_exits_2(runner, tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("0.1,1.0\nx,2.0\n0.3,3.0\n")
    path = _write_config(tmp_path, _csv_config(csv))
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "non-numeric value 'x'" in result.stderr


def test_run_trace_in_missing_directory_exits_2(runner, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "fw_run", lambda *args, **kwargs: calls.append(1))
    out = tmp_path / "no-such-dir" / "trace.csv"
    path = _write_config(tmp_path, _base_config(output={"trace": str(out)}))
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "could not write trace" in result.stderr
    assert calls == []  # refused before the run, not after it


def test_run_auto_smoothness_bounds_biweight_hessian(monkeypatch):
    # The biweight gate instance: the auto L must bound the curvature at
    # feasible points, not just sampled gradient-difference ratios.
    seen = {}
    real_fw_run = cli.fw_run

    def fw_run(objective, region, rule, *args, **kwargs):
        seen.update(loss=objective, region=region, smoothness=rule.smoothness)
        return real_fw_run(objective, region, rule, *args, **kwargs)

    monkeypatch.setattr(cli, "fw_run", fw_run)
    cfg = _base_config(
        dataset={"kind": "synthetic-regression", "n": 2000, "d": 20,
                 "noise": 0.1, "seed": 42, "standardize": True},
        loss={"kind": "biweight"},
        optimizer={"kind": "fw", "step_rule": "quadratic", "iters": 1},
    )
    cli.run_from_config(cfg)
    loss, region = seen["loss"], seen["region"]
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(20):
        w = region.random_feasible(rng)
        cols = []
        for j in range(w.size):
            up, dn = w.copy(), w.copy()
            up[j] += h
            dn[j] -= h
            cols.append((loss.gradient(up) - loss.gradient(dn)) / (2.0 * h))
        hess = np.array(cols)
        top = float(np.abs(np.linalg.eigvalsh(0.5 * (hess + hess.T))).max())
        assert seen["smoothness"] >= top


@pytest.mark.parametrize("margin", [1.0, 1.5])
def test_run_classification_margin_out_of_range_exits_2(runner, tmp_path, margin):
    cfg = _base_config(
        dataset={"kind": "synthetic-classification", "n": 40, "d": 3,
                 "margin": margin},
        loss={"kind": "logistic"},
        optimizer={"kind": "fw", "iters": 5},
    )
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "dataset.margin: must be < 1" in result.stderr


def test_run_classification_margin_out_of_reach_exits_2_quickly(runner, tmp_path):
    # margin 0.999999 passes the schema, but at d = 5 a draw meets it with
    # chance about 1.5e-12; the sampler once drew without end here.
    cfg = _base_config(
        dataset={"kind": "synthetic-classification", "n": 8, "d": 5,
                 "margin": 0.999999},
        loss={"kind": "logistic"},
        optimizer={"kind": "fw", "iters": 1},
    )
    start = time.perf_counter()
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 2
    assert "dataset.margin: margin 0.999999 is out of reach at d = 5" in result.stderr


def test_run_quadratic_rule_with_underflowing_curvature_exits_0(runner, tmp_path):
    # L * ||v - w||^2 = 1e-300 * (a few 1e-24) underflows to 0; the rule
    # then takes the full step instead of dividing by zero.
    cfg = {
        "dataset": {"kind": "synthetic-lowrank", "m": 6, "n": 5, "rank": 2,
                    "seed": 3},
        "loss": {"kind": "observed-quadratic"},
        "set": {"kind": "group", "p": 2.0, "q": 1.5, "r": 1e-12},
        "optimizer": {"kind": "fw", "step_rule": "quadratic",
                      "smoothness": 1e-300, "iters": 5},
    }
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "iterations: 5" in result.output


def test_run_libsvm_dataset_end_to_end(runner, tmp_path):
    rng = np.random.default_rng(63)
    x = rng.standard_normal((30, 4))
    labels = (x @ [1.0, -1.0, 0.5, 0.0] > 0.0).astype(int)  # 0/1: read as -1/+1
    path = tmp_path / "data.svm"
    path.write_text("".join(
        f"{t} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if j != 2)
        + "\n" for t, row in zip(labels, x.tolist())))
    cfg = _base_config(dataset={"kind": "libsvm", "path": str(path)},
                       loss={"kind": "logistic"},
                       optimizer={"kind": "fw", "iters": 5})
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "iterations: 5" in result.output


def test_run_ratings_dataset_end_to_end(runner, tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("".join(f"{u},{i},{(u * i) % 5 + 1}\n"
                            for u in range(1, 7) for i in range(1, 6)
                            if (u + i) % 3))
    cfg = {
        "dataset": {"kind": "ratings", "path": str(path)},
        "loss": {"kind": "observed-quadratic"},
        "set": {"kind": "schatten", "p": 1.5, "r": 10.0},
        "optimizer": {"kind": "pa", "iters": 5},
    }
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "algorithm: pa/A" in result.output


@pytest.mark.parametrize("loss, given, read", [
    ("logistic", (0.0, 1.0), (-1.0, 1.0)),
    ("squared-sigmoid", (-1.0, 1.0), (0.0, 1.0)),
])
def test_run_maps_binary_labels_to_the_loss_convention(tmp_path, loss, given, read):
    x = np.random.default_rng(64).standard_normal(20).tolist()
    traces = []
    for k, labels in enumerate((given, read)):
        csv = tmp_path / f"labels{k}.csv"
        csv.write_text("".join(f"{a!r},{labels[a > 0.0]!r}\n" for a in x))
        cfg = _base_config(
            dataset={"kind": "csv", "path": str(csv), "target_column": 1},
            loss={"kind": loss}, optimizer={"kind": "fw", "iters": 5},
        )
        traces.append(cli.run_from_config(cfg)[0].loss_f)
    assert traces[0] == traces[1]


_LOWRANK = {"kind": "synthetic-lowrank", "m": 6, "n": 5, "rank": 2, "seed": 1}


@pytest.mark.parametrize("updates, message", [
    ({"dataset": {"kind": "csv", "target_column": 1}},
     "dataset.path: required field is missing"),
    ({"set": {"kind": "lp", "r": float("nan")}}, "set.r: must not be NaN"),
    ({"set": {"kind": "lp", "r": float("inf")}}, "set.r: must be finite"),
    ({"optimizer": {"kind": "fw", "iters": "10"}},
     "optimizer.iters: expected an integer, got '10'"),
    ({"dataset": _LOWRANK,
      "loss": {"kind": "observed-quadratic", "bias": True}},
     "loss.bias: not supported for observed-quadratic"),
    ({"loss": {"kind": "observed-quadratic"}},
     "loss.kind: observed-quadratic needs a matrix dataset"),
    ({"dataset": _LOWRANK}, "loss.kind: quadratic needs a tabular dataset"),
    ({"set": {"kind": "schatten", "p": 1.5}},
     "set.kind: schatten needs a matrix model"),
    ({"set": {"kind": "lp", "p": 3.0},
      "optimizer": {"kind": "fw", "step_rule": "short"}},
     "set: short step rule:"),
], ids=["missing", "nan", "inf", "type", "observed-bias", "observed-tabular",
        "tabular-matrix", "matrix-set", "short-no-modulus"])
def test_run_invalid_config_exits_2_naming_the_field(runner, tmp_path, updates, message):
    cfg = _base_config(**updates)
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, cfg))])
    assert result.exit_code == 2, result.output + str(result.exception)
    assert message in result.stderr


# ---------------------------------------------------------------------------
# slope


def test_slope_exact_power_law_wrt_offset(runner, tmp_path):
    trace_path = _power_law_trace(tmp_path)
    result = runner.invoke(
        main, ["slope", str(trace_path), "--f-star", "5.0"]
    )
    assert result.exit_code == 0, result.output
    slope_line = result.output.splitlines()[0]
    assert slope_line.startswith("slope: ")
    assert abs(float(slope_line.split()[1]) + 2.0) < 1e-6
    assert "window: t in [11, 200]" in result.output


def test_slope_gap_column_with_running_min(runner, tmp_path):
    trace_path = _power_law_trace(tmp_path)
    result = runner.invoke(
        main,
        ["slope", str(trace_path), "--column", "fw_gap", "--min-so-far"],
    )
    assert result.exit_code == 0
    assert abs(float(result.output.splitlines()[0].split()[1]) + 1.0) < 1e-6


def test_slope_empty_column_rejected(runner, tmp_path):
    trace_path = _power_law_trace(tmp_path)
    result = runner.invoke(main, ["slope", str(trace_path), "--column", "loss_h"])
    assert result.exit_code == 2
    assert "empty cells" in result.stderr


def test_slope_too_few_rows(runner, tmp_path):
    trace_path = _power_law_trace(tmp_path, name="short.csv", n=5)
    result = runner.invoke(main, ["slope", str(trace_path)])
    assert result.exit_code == 2
    assert "at least" in result.stderr


def test_slope_burn_in_eats_series(runner, tmp_path):
    trace_path = _power_law_trace(tmp_path, n=50)
    result = runner.invoke(main, ["slope", str(trace_path), "--burn-in", "45"])
    assert result.exit_code == 2
    negative = runner.invoke(main, ["slope", str(trace_path), "--burn-in", "-1"])
    assert negative.exit_code == 2


def test_slope_rejects_malformed_trace(runner, tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not,a,trace\n1,2,3\n")
    result = runner.invoke(main, ["slope", str(path)])
    assert result.exit_code == 2
    assert "could not read" in result.stderr


@pytest.mark.parametrize(
    "row",
    [
        "1,,,0.5,1.0,,1.0,,,",  # required loss_f left empty
        "1.5,2.0,,0.5,1.0,,1.0,,,",  # non-integer t
        "1,2.0,,0.5",  # short row
    ],
)
def test_read_trace_rejects_bad_rows(runner, tmp_path, row):
    path = _power_law_trace(tmp_path, n=20)
    with open(path, "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError):
        read_trace(path)
    result = runner.invoke(main, ["slope", str(path)])
    assert result.exit_code == 2
    assert "could not read" in result.stderr


def test_write_trace_matches_csv_writer_bytes(tmp_path):
    # Over 1024 rows, so the last formatted block is a partial one.
    extremes = [-0.0, 5e-324, 1e308, -1e-308, float("inf"), 0.1]
    tr = Trace()
    for t in range(1, 1100):
        x = extremes[t % len(extremes)]
        tr.append(t, x, None if t % 3 else -x, 1.0 / t, x, None if t % 2 else t,
                  abs(x), step_ms=None if t % 5 else x, oracle_ms=x)
    path, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    write_trace(tr, path)
    with open(ref, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(CSV_HEADER)
        for row in tr.rows():
            out.writerow(["" if v is None else str(v) if isinstance(v, int)
                          else repr(v) for v in row])
    assert path.read_bytes() == ref.read_bytes()
    assert read_trace(path).records_equal(tr)


def test_slope_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["slope", str(tmp_path / "nope.csv")])
    assert result.exit_code == 2


def test_slope_notes_clipping(runner, tmp_path):
    tr = Trace()
    for t in range(1, 40):
        val = 1.0 / t**2 if t < 30 else 0.0
        tr.append(t, val, None, 0.0, 0.5, None, 1.0)
    path = tmp_path / "clip.csv"
    write_trace(tr, path)
    result = runner.invoke(main, ["slope", str(path)])
    assert result.exit_code == 0
    assert "non-positive values were clipped" in result.output


# ---------------------------------------------------------------------------
# suite


def test_suite_unknown_name(runner):
    result = runner.invoke(main, ["suite", "mystery"])
    assert result.exit_code == 2
    assert "unknown suite" in result.stderr


def test_suite_thread_validation(runner):
    result = runner.invoke(main, ["suite", "nonconvex", "--threads", "0"])
    assert result.exit_code == 2


def test_suite_nonconvex_passes(runner):
    result = runner.invoke(main, ["suite", "nonconvex"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert "suite nonconvex: 1/1 passed" in result.output


def test_suite_failed_check_exits_1(runner, monkeypatch):
    failing = CheckResult("nonconvex/gap-rate", False, "x", "y", 0.0)
    monkeypatch.setitem(suites.CRITERIA, 3, lambda: failing)
    result = runner.invoke(main, ["suite", "nonconvex"])
    assert result.exit_code == 1, result.output
    assert "FAIL nonconvex/gap-rate" in result.output
    assert "suite nonconvex: 0/1 passed" in result.output


def test_suite_error_inside_a_check_is_not_a_usage_error(runner, monkeypatch):
    def broken():
        raise ValueError("bad value inside a check")

    monkeypatch.setitem(suites.CRITERIA, 3, broken)
    result = runner.invoke(main, ["suite", "nonconvex"])
    assert result.exit_code != 2
    assert isinstance(result.exception, ValueError)


# ---------------------------------------------------------------------------
# run: paths that only some configs take


def test_run_reads_a_quoted_infinite_exponent(runner, tmp_path):
    cfg = _base_config(set={"kind": "lp", "p": ".inf", "r": 1.0})
    path = _write_config(tmp_path, cfg)
    assert "p: '.inf'" in path.read_text()  # a string, not YAML's float
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "final loss_f:" in result.output


def test_run_too_short_for_a_slope_still_summarizes(runner, tmp_path):
    cfg = _base_config(optimizer={"kind": "fw", "iters": 5},
                       analysis={"f_star": 0.0})
    path = _write_config(tmp_path, cfg)
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    assert "final suboptimality:" in result.output
    assert "convergence (within 2%):" in result.output
    assert "slope:" not in result.output


def test_run_trace_write_failure_after_the_run_exits_2(runner, tmp_path, monkeypatch):
    def refuse(trace, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_trace", refuse)
    out = tmp_path / "out.csv"
    path = _write_config(tmp_path, _base_config(output={"trace": str(out)}))
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "final loss_f:" in result.output  # the run itself finished
    assert "could not write trace: [Errno 28] No space left on device" in result.stderr
