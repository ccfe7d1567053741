"""Command line entry points: run one configured experiment, run a named
check suite, or fit a decay slope to a stored trace.

Exit codes: 0 success, 1 failed checks, 2 configuration or usage errors,
3 numeric failure during a run.
"""

import math
import os
import sys

import click
import numpy as np
import yaml

from .datasets import (
    SyntheticSpec,
    gen_classification,
    gen_lowrank,
    gen_regression,
    load_delimited,
    load_libsvm,
    load_ratings,
    standardize,
)
from .diagnostics import detect_convergence, loglog_slope
from .errors import ConfigError, NumericFailure
from .feasible_sets import GroupLpqBall, LpBall, SchattenPBall
from .losses import (
    BiWeightLoss,
    LogisticLoss,
    ObservedQuadraticLoss,
    QuadraticLoss,
    SquaredSigmoidLoss,
    TabularDataset,
    estimate_smoothness,
)
from .optimizers import (
    ExactLineSearch,
    PredefinedDecay,
    QuadraticLineSearch,
    ShortStep,
    default_init,
    fw_run,
    pa_run,
    projected_gd_run,
    projected_sgd_run,
    spa_run,
)
from .perturbation import make_perturbed
from .problems import tune_gd_eta
from .suites import SUITES, run_suite
from .trace import read_trace, write_trace

_MISSING = object()


def _require_mapping(obj, name: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected a mapping of fields")
    return obj


def _reject_unknown(section: str, sec: dict, allowed) -> None:
    unknown = sorted(set(sec) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{section}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _str_field(section, sec, key, choices=None, default=_MISSING) -> str:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{section}.{key}: required field is missing")
        return default
    val = sec[key]
    if not isinstance(val, str):
        raise ConfigError(f"{section}.{key}: expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(
            f"{section}.{key}: expected one of {sorted(choices)}, got {val!r}"
        )
    return val


def _bool_field(section, sec, key, default=_MISSING) -> bool:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{section}.{key}: required field is missing")
        return default
    val = sec[key]
    if not isinstance(val, bool):
        raise ConfigError(f"{section}.{key}: expected true/false, got {val!r}")
    return val


def _int_field(section, sec, key, default=_MISSING, minimum=None) -> int:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{section}.{key}: required field is missing")
        return default
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{section}.{key}: expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{section}.{key}: must be >= {minimum}, got {val}")
    return val


def _float_field(
    section, sec, key, default=_MISSING, minimum=None, exclusive=False,
    maximum=None, allow_inf=False,
) -> float:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{section}.{key}: required field is missing")
        return default
    val = sec[key]
    if isinstance(val, bool):
        raise ConfigError(f"{section}.{key}: expected a number, got {val!r}")
    if isinstance(val, str):
        # PyYAML reads "1e-4" as a string; accept numeric strings and "inf".
        s = val.strip().lower()
        if s in ("inf", "infinity", ".inf"):
            num = math.inf
        else:
            try:
                num = float(s)
            except ValueError:
                raise ConfigError(
                    f"{section}.{key}: expected a number, got {val!r}"
                ) from None
    elif isinstance(val, (int, float)):
        num = float(val)
    else:
        raise ConfigError(f"{section}.{key}: expected a number, got {val!r}")
    if math.isnan(num):
        raise ConfigError(f"{section}.{key}: must not be NaN")
    if math.isinf(num) and not allow_inf:
        raise ConfigError(f"{section}.{key}: must be finite, got {val!r}")
    if minimum is not None:
        if exclusive and not num > minimum:
            raise ConfigError(f"{section}.{key}: must be > {minimum}, got {num}")
        if not exclusive and not num >= minimum:
            raise ConfigError(f"{section}.{key}: must be >= {minimum}, got {num}")
    if maximum is not None and num > maximum:
        raise ConfigError(f"{section}.{key}: must be <= {maximum}, got {num}")
    return num


# ---------------------------------------------------------------------------
# config -> objects

_DATASET_KINDS = {
    "synthetic-regression",
    "synthetic-classification",
    "synthetic-lowrank",
    "csv",
    "libsvm",
    "ratings",
}
_TABULAR_LOSSES = {
    "quadratic": QuadraticLoss,
    "logistic": LogisticLoss,
    "squared-sigmoid": SquaredSigmoidLoss,
    "biweight": BiWeightLoss,
}


def _load(loader, *args, **kwargs):
    """Call a dataset loader; a missing or malformed file is a ConfigError."""
    try:
        return loader(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc


def _build_dataset(sec: dict):
    """Returns (data, is_matrix)."""
    sec = _require_mapping(sec, "dataset")
    kind = _str_field("dataset", sec, "kind", choices=_DATASET_KINDS)
    std = False
    if kind == "synthetic-regression":
        _reject_unknown(
            "dataset", sec,
            {"kind", "n", "d", "noise", "seed", "condition", "w_norm", "standardize"},
        )
        spec = SyntheticSpec(
            kind="regression",
            n=_int_field("dataset", sec, "n", 500, minimum=1),
            d=_int_field("dataset", sec, "d", 20, minimum=1),
            noise=_float_field("dataset", sec, "noise", 0.1, minimum=0.0),
            seed=_int_field("dataset", sec, "seed", 0),
            condition=_float_field("dataset", sec, "condition", 1.0, minimum=1.0),
            w_norm=_float_field("dataset", sec, "w_norm", 1.0, minimum=0.0,
                                exclusive=True),
        )
        data, _ = gen_regression(spec)
        std = _bool_field("dataset", sec, "standardize", False)
    elif kind == "synthetic-classification":
        _reject_unknown("dataset", sec, {"kind", "n", "d", "margin", "seed"})
        margin = _float_field("dataset", sec, "margin", 0.3, minimum=0.0)
        if not margin < 1.0:
            raise ConfigError(f"dataset.margin: must be < 1, got {margin}")
        spec = SyntheticSpec(
            kind="classification",
            n=_int_field("dataset", sec, "n", 500, minimum=1),
            d=_int_field("dataset", sec, "d", 10, minimum=1),
            margin=margin,
            seed=_int_field("dataset", sec, "seed", 0),
        )
        data, _ = gen_classification(spec)
    elif kind == "synthetic-lowrank":
        _reject_unknown(
            "dataset", sec, {"kind", "m", "n", "rank", "fraction", "noise", "seed"}
        )
        spec = SyntheticSpec(
            kind="lowrank",
            m=_int_field("dataset", sec, "m", 30, minimum=1),
            n=_int_field("dataset", sec, "n", 30, minimum=1),
            rank=_int_field("dataset", sec, "rank", 3, minimum=1),
            fraction=_float_field("dataset", sec, "fraction", 0.3, minimum=0.0,
                                  exclusive=True, maximum=1.0),
            noise=_float_field("dataset", sec, "noise", 0.0, minimum=0.0),
            seed=_int_field("dataset", sec, "seed", 0),
        )
        data, _ = gen_lowrank(spec)
        return data, True
    elif kind == "csv":
        _reject_unknown(
            "dataset", sec,
            {"kind", "path", "target_column", "has_header", "standardize"},
        )
        data = _load(
            load_delimited,
            _str_field("dataset", sec, "path"),
            _int_field("dataset", sec, "target_column"),
            has_header=_bool_field("dataset", sec, "has_header", False),
        )
        std = _bool_field("dataset", sec, "standardize", False)
    elif kind == "libsvm":
        _reject_unknown("dataset", sec, {"kind", "path", "standardize"})
        data = _load(load_libsvm, _str_field("dataset", sec, "path"))
        std = _bool_field("dataset", sec, "standardize", False)
    else:  # ratings
        _reject_unknown("dataset", sec, {"kind", "path"})
        return _load(load_ratings, _str_field("dataset", sec, "path")), True
    if std:
        data, _ = standardize(data)
    return data, False


def _build_loss(sec: dict, data, is_matrix: bool):
    sec = _require_mapping(sec, "loss")
    kind = _str_field(
        "loss", sec, "kind", choices=set(_TABULAR_LOSSES) | {"observed-quadratic"}
    )
    _reject_unknown("loss", sec, {"kind", "bias"})
    bias = _bool_field("loss", sec, "bias", False)
    if kind == "observed-quadratic":
        if bias:
            raise ConfigError("loss.bias: not supported for observed-quadratic")
        if not is_matrix:
            raise ConfigError(
                "loss.kind: observed-quadratic needs a matrix dataset "
                "(synthetic-lowrank or ratings)"
            )
        return ObservedQuadraticLoss(data)
    if is_matrix:
        raise ConfigError(
            f"loss.kind: {kind} needs a tabular dataset, got a matrix one"
        )
    targets = set(np.unique(data.targets))
    if kind == "logistic" and targets <= {0.0, 1.0}:
        data = TabularDataset(data.features, 2.0 * data.targets - 1.0)
    elif kind == "squared-sigmoid" and targets <= {-1.0, 1.0}:
        data = TabularDataset(data.features, (data.targets + 1.0) / 2.0)
    try:
        return _TABULAR_LOSSES[kind](data, bias=bias)
    except ValueError as exc:
        raise ConfigError(f"loss.kind: {kind}: {exc}") from exc


def _build_region(sec: dict, model_shape: tuple):
    sec = _require_mapping(sec, "set")
    kind = _str_field("set", sec, "kind", choices={"lp", "schatten", "group"})
    r = _float_field("set", sec, "r", 1.0, minimum=0.0, exclusive=True)
    p = _float_field("set", sec, "p", 2.0, minimum=1.0, allow_inf=True)
    if kind == "lp":
        _reject_unknown("set", sec, {"kind", "p", "r"})
        if len(model_shape) != 1:
            raise ConfigError(
                f"set.kind: lp needs a vector model, got shape {model_shape}"
            )
        return LpBall(p=p, r=r, d=model_shape[0])
    if len(model_shape) != 2:
        raise ConfigError(
            f"set.kind: {kind} needs a matrix model, got shape {model_shape}"
        )
    m, n = model_shape
    if kind == "schatten":
        _reject_unknown("set", sec, {"kind", "p", "r"})
        return SchattenPBall(p=p, r=r, m=m, n=n)
    _reject_unknown("set", sec, {"kind", "p", "q", "r"})
    q = _float_field("set", sec, "q", _MISSING, minimum=1.0, allow_inf=True)
    return GroupLpqBall(p=p, q=q, r=r, m=m, n=n)


def _projection_supported(region) -> bool:
    if isinstance(region, (LpBall, SchattenPBall)):
        return region.p <= 2.0 or math.isinf(region.p)
    return region.p == 2.0 and (region.q <= 2.0 or math.isinf(region.q))


def _resolve_smoothness(sec: dict, objective, region, seed: int) -> float:
    val = sec.get("smoothness", "auto")
    if isinstance(val, str):
        if val != "auto":
            raise ConfigError(
                f"optimizer.smoothness: expected 'auto' or a number, got {val!r}"
            )
        base = objective.base if hasattr(objective, "base") else objective
        if isinstance(base, QuadraticLoss):
            return base.exact_smoothness()
        return estimate_smoothness(
            objective, region, rng=np.random.default_rng(seed + 1)
        )
    return _float_field("optimizer", sec, "smoothness", minimum=0.0, exclusive=True)


_OPT_KEYS = {
    "fw": {"kind", "iters", "seed", "step_rule", "smoothness"},
    "pa": {"kind", "iters", "seed", "option"},
    "spa": {"kind", "iters", "seed"},
    "gd": {"kind", "iters", "seed", "eta", "smoothness"},
    "sgd": {"kind", "iters", "seed", "eta0", "batch", "sqrt_decay"},
}


def run_from_config(cfg: dict, overrides=None):
    """Build everything from a parsed config and run; returns (trace, info).

    info carries the pieces the summary printer needs: the region, whether
    the objective was perturbed, and the analysis settings.
    """
    cfg = _require_mapping(cfg, "config")
    _reject_unknown(
        "config", cfg,
        {"dataset", "loss", "set", "optimizer", "perturbation", "output", "analysis"},
    )
    for section in ("dataset", "loss", "set", "optimizer"):
        if section not in cfg:
            raise ConfigError(f"config: missing required section '{section}'")
    overrides = overrides or {}

    data, is_matrix = _build_dataset(cfg["dataset"])
    loss = _build_loss(cfg["loss"], data, is_matrix)
    region = _build_region(cfg["set"], loss.shape)

    opt = _require_mapping(cfg["optimizer"], "optimizer")
    kind = _str_field("optimizer", opt, "kind", choices=set(_OPT_KEYS))
    _reject_unknown("optimizer", opt, _OPT_KEYS[kind])
    iters = overrides.get("iters")
    if iters is None:
        iters = _int_field("optimizer", opt, "iters", 500, minimum=1)
    seed = overrides.get("seed")
    if seed is None:
        seed = _int_field("optimizer", opt, "seed", 0)

    pert = _require_mapping(cfg.get("perturbation"), "perturbation")
    _reject_unknown("perturbation", pert, {"enabled", "epsilon", "delta"})
    perturbed = _bool_field("perturbation", pert, "enabled", False)

    out = _require_mapping(cfg.get("output"), "output")
    _reject_unknown("output", out, {"trace", "timings"})
    trace_path = overrides.get("out")
    if trace_path is None:
        trace_path = _str_field("output", out, "trace", default=None)
    if trace_path is not None:
        folder = os.path.dirname(os.path.abspath(trace_path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"could not write trace: no writable directory {folder}")
    timings = bool(overrides.get("timings")) or _bool_field(
        "output", out, "timings", False
    )

    ana = _require_mapping(cfg.get("analysis"), "analysis")
    _reject_unknown("analysis", ana, {"f_star", "burn_in", "rel_tol"})
    f_star = _float_field("analysis", ana, "f_star", None)
    burn_in = _int_field("analysis", ana, "burn_in", 10, minimum=0)
    rel_tol = _float_field("analysis", ana, "rel_tol", 0.02, minimum=0.0,
                           exclusive=True)

    rng = np.random.default_rng(seed)
    objective = loss
    if perturbed:
        objective = make_perturbed(
            loss,
            _float_field("perturbation", pert, "epsilon", 1e-4, minimum=0.0,
                         exclusive=True),
            region.euclidean_diameter(),
            _float_field("perturbation", pert, "delta", 0.1, minimum=0.0,
                         exclusive=True, maximum=1.0),
            rng,
        )

    if kind in ("gd", "sgd") and not _projection_supported(region):
        raise ConfigError(
            "optimizer.kind: projected methods need a projection for this set; "
            "supported exponents are p in [1, 2] or inf (group sets: p = 2, "
            "q in [1, 2] or inf)"
        )

    if kind == "fw":
        rule_name = _str_field(
            "optimizer", opt, "step_rule",
            choices={"predefined", "quadratic", "exact", "short"},
            default="predefined",
        )
        if rule_name == "predefined":
            rule = PredefinedDecay()
        elif rule_name == "exact":
            rule = ExactLineSearch()
        else:
            smoothness = _resolve_smoothness(opt, objective, region, seed)
            if rule_name == "quadratic":
                rule = QuadraticLineSearch(smoothness=smoothness)
            else:
                try:
                    alpha = region.strong_convexity()
                except ValueError as exc:
                    raise ConfigError(f"set: short step rule: {exc}") from exc
                rule = ShortStep(smoothness=smoothness, alpha=alpha)
        trace = fw_run(objective, region, rule, iters, rng=rng,
                       record_timings=timings)
        label = f"fw/{rule_name}"
    elif kind == "pa":
        option = _str_field("optimizer", opt, "option", choices={"A", "B"},
                            default="A")
        trace = pa_run(objective, region, option=option, iters=iters, rng=rng,
                       record_timings=timings)
        label = f"pa/{option}"
    elif kind == "spa":
        trace = spa_run(objective, region, iters=iters, rng=rng,
                        record_timings=timings)
        label = "spa"
    elif kind == "gd":
        init = default_init(region, rng)
        eta_val = opt.get("eta", "auto")
        if isinstance(eta_val, str):
            if eta_val != "auto":
                raise ConfigError(
                    f"optimizer.eta: expected 'auto' or a number, got {eta_val!r}"
                )
            smoothness = _resolve_smoothness(opt, objective, region, seed)
            eta = tune_gd_eta(objective, region, smoothness, init)
        else:
            eta = _float_field("optimizer", opt, "eta", minimum=0.0, exclusive=True)
        trace = projected_gd_run(objective, region, eta=eta, iters=iters,
                                 init=init, record_timings=timings)
        label = f"gd/eta={eta:.4g}"
    else:
        trace = projected_sgd_run(
            objective,
            region,
            eta0=_float_field("optimizer", opt, "eta0", minimum=0.0,
                              exclusive=True),
            batch=_int_field("optimizer", opt, "batch", 32, minimum=1),
            iters=iters,
            rng=rng,
            record_timings=timings,
            sqrt_decay=_bool_field("optimizer", opt, "sqrt_decay", True),
        )
        label = "sgd"

    info = {
        "label": label,
        "region": region,
        "perturbed": perturbed,
        "trace_path": trace_path,
        "f_star": f_star,
        "burn_in": burn_in,
        "rel_tol": rel_tol,
    }
    return trace, info


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Projection-free optimization runs, acceptance suites, slope fits."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="YAML experiment description.")
@click.option("--seed", type=int, default=None, help="Override optimizer.seed.")
@click.option("--iters", type=int, default=None, help="Override optimizer.iters.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Override output.trace.")
@click.option("--timings", is_flag=True, help="Record per-step wall times.")
def run(config_path, seed, iters, out, timings):
    """Run one experiment described by a YAML config."""
    try:
        with open(config_path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise click.UsageError(f"could not parse {config_path}: {exc}")
    if iters is not None and iters < 1:
        raise click.UsageError("--iters must be >= 1")
    overrides = {"seed": seed, "iters": iters, "out": out, "timings": timings}
    try:
        trace, info = run_from_config(cfg, overrides)
    except ConfigError as exc:
        raise click.UsageError(str(exc))
    except NumericFailure as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)

    click.echo(f"algorithm: {info['label']}")
    click.echo(f"iterations: {trace.t[-1]}")
    click.echo(f"final loss_f: {trace.loss_f[-1]:.10g}")
    if info["perturbed"]:
        click.echo(f"final loss_h: {trace.loss_h[-1]:.10g}")
    gaps = np.asarray(trace.fw_gap)
    t_min = int(np.argmin(gaps))
    click.echo(f"min fw_gap: {gaps[t_min]:.6g} at t={trace.t[t_min]}")
    f_star = info["f_star"]
    if f_star is not None:
        click.echo(f"final suboptimality: {trace.loss_f[-1] - f_star:.6g}")
        point = detect_convergence(trace, f_star, rel_tol=info["rel_tol"])
        if point is None:
            click.echo(
                f"convergence (within {info['rel_tol']:.0%}): not reached"
            )
        else:
            wall = (
                f", wall {point.wall_clock_ms:.1f}ms"
                if point.wall_clock_ms is not None
                else ""
            )
            click.echo(
                f"convergence (within {info['rel_tol']:.0%}): "
                f"t={point.iteration}{wall}"
            )
        series = [(t, f - f_star) for t, f in zip(trace.t, trace.loss_f)]
        try:
            fit = loglog_slope(series, burn_in=info["burn_in"])
            click.echo(
                f"slope: {fit.slope:.3f} (r^2 {fit.r_squared:.4f}, "
                f"window {fit.window})"
            )
        except ValueError:
            pass
    if info["trace_path"]:
        try:
            write_trace(trace, info["trace_path"])
        except OSError as exc:
            raise click.UsageError(f"could not write trace: {exc}")
        click.echo(f"trace written: {info['trace_path']}")


@main.command()
@click.argument("name")
@click.option("--threads", type=int, default=None,
              help="Worker cap (default: PROJFREE_THREADS or cpu count, max 4).")
def suite(name, threads):
    """Run the named check suite (convex, quasi, nonconvex, oracles, all)."""
    if name not in SUITES:
        raise click.UsageError(
            f"unknown suite {name!r}; choices: {', '.join(sorted(SUITES))}"
        )
    if threads is not None and threads < 1:
        raise click.UsageError("--threads must be >= 1")
    try:
        results, ok = run_suite(name, threads=threads, echo=click.echo)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    passed = sum(r.passed for r in results)
    click.echo(f"suite {name}: {passed}/{len(results)} passed")
    if not ok:
        sys.exit(1)


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--burn-in", type=int, default=10, show_default=True,
              help="Drop records with t <= burn-in before fitting.")
@click.option("--f-star", type=float, default=None,
              help="Subtract this optimum from loss columns before fitting.")
@click.option("--column", type=click.Choice(["loss_f", "loss_h", "fw_gap"]),
              default="loss_f", show_default=True)
@click.option("--min-so-far", is_flag=True,
              help="Fit the running minimum of the column instead.")
def slope(trace_path, burn_in, f_star, column, min_so_far):
    """Fit a log-log decay slope to a column of a stored trace."""
    if burn_in < 0:
        raise click.UsageError("--burn-in must be >= 0")
    try:
        trace = read_trace(trace_path)
    except ValueError as exc:
        raise click.UsageError(f"could not read {trace_path}: {exc}")
    values = getattr(trace, column)
    if any(v is None for v in values):
        raise click.UsageError(f"column {column} has empty cells in this trace")
    values = np.asarray(values, dtype=np.float64)
    if min_so_far:
        values = np.minimum.accumulate(values)
    if f_star is not None and column in ("loss_f", "loss_h"):
        values = values - f_star
    try:
        fit = loglog_slope(list(zip(trace.t, values)), burn_in=burn_in)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"slope: {fit.slope:.6f}")
    click.echo(f"intercept: {fit.intercept:.6f}")
    click.echo(f"r^2: {fit.r_squared:.6f}")
    click.echo(f"window: t in [{fit.window[0]}, {fit.window[1]}]")
    if fit.clipped:
        click.echo("note: non-positive values were clipped before fitting")


if __name__ == "__main__":
    main()
