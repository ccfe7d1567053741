"""Command line entry points: run one configured experiment, run a named
check suite, or fit a decay slope to a stored trace.

Exit codes: 0 success, 1 failed checks, 2 configuration or usage errors,
3 numeric failure during a run.
"""

import math
import operator
import os
import sys
from dataclasses import dataclass

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

# ---------------------------------------------------------------------------
# config schema: one table of fields per section, read by `_read`

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """One config field: its type (str, bool, int, float, or a section's
    own table), its default (none: required), and the bounds (ge >=, gt >,
    le <=, lt <) and choices every given value must meet.  A float field
    admits inf only with `inf` and the string "auto" only with `auto`.  The
    choices of a `kind` field may map each kind to the fields it adds."""

    type: object
    default: object = _REQUIRED
    ge: float = None
    gt: float = None
    le: float = None
    lt: float = None
    choices: object = None
    inf: bool = False
    auto: bool = False


_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt),
           ("le", "<=", operator.le), ("lt", "<", operator.lt))
_EXPECTED = {str: "a string", bool: "true/false", int: "an integer"}


def _number(val):
    """val as a float, or None; numeric strings count, since PyYAML reads
    "1e-4" as a string."""
    if isinstance(val, str) and val.strip().lower() == ".inf":
        return math.inf
    try:
        return None if isinstance(val, bool) else float(val)
    except (TypeError, ValueError):
        return None


def _value(section: str, key: str, mapping: dict, field: _Field):
    """The checked value of mapping[key], or the field's default."""
    if isinstance(field.type, dict):
        if key not in mapping and field.default is _REQUIRED:
            raise ConfigError(f"{section}: missing required section '{key}'")
        return _read(key, mapping.get(key), field.type)
    where = f"{section}.{key}"
    if key not in mapping:
        if field.default is _REQUIRED:
            raise ConfigError(f"{where}: required field is missing")
        return field.default
    val = mapping[key]
    if field.auto and val == "auto":
        return val
    if field.type is float:
        num = _number(val)
        if num is None:
            auto = "'auto' or " if field.auto else ""
            raise ConfigError(f"{where}: expected {auto}a number, got {val!r}")
        if math.isnan(num):
            raise ConfigError(f"{where}: must not be NaN")
        if math.isinf(num) and not field.inf:
            raise ConfigError(f"{where}: must be finite, got {val!r}")
        val = num
    elif type(val) is not field.type:
        raise ConfigError(f"{where}: expected {_EXPECTED[field.type]}, got {val!r}")
    if field.choices is not None and val not in field.choices:
        raise ConfigError(
            f"{where}: expected one of {sorted(field.choices)}, got {val!r}"
        )
    for bound, symbol, holds in _BOUNDS:
        limit = getattr(field, bound)
        if limit is not None and not holds(val, limit):
            raise ConfigError(f"{where}: must be {symbol} {limit}, got {val}")
    return val


def _read(section: str, mapping, fields: dict) -> dict:
    """Check one config section against its table of fields.

    Rejects fields the table (with the chosen kind's fields) does not list,
    checks every field that is present and returns every field of the table,
    defaults filled in.
    """
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section}: expected a mapping of fields")
    kind = fields.get("kind")
    if kind is not None and isinstance(kind.choices, dict):
        fields = {**fields, **kind.choices[_value(section, "kind", mapping, kind)]}
    unknown = sorted(set(mapping) - set(fields), key=str)
    if unknown:
        raise ConfigError(
            f"{section}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(fields))}"
        )
    return {key: _value(section, key, mapping, field)
            for key, field in fields.items()}


_SEED = _Field(int, 0, ge=0)
_STANDARDIZE = _Field(bool, False)
_SMOOTHNESS = _Field(float, "auto", gt=0.0, auto=True)

_DATASET = {
    "kind": _Field(str, choices={
        "synthetic-regression": {
            "n": _Field(int, 500, ge=1),
            "d": _Field(int, 20, ge=1),
            "noise": _Field(float, 0.1, ge=0.0),
            "seed": _SEED,
            "condition": _Field(float, 1.0, ge=1.0),
            "w_norm": _Field(float, 1.0, gt=0.0),
            "standardize": _STANDARDIZE,
        },
        "synthetic-classification": {
            "n": _Field(int, 500, ge=1),
            "d": _Field(int, 10, ge=1),
            "margin": _Field(float, 0.3, ge=0.0, lt=1),
            "seed": _SEED,
        },
        "synthetic-lowrank": {
            "m": _Field(int, 30, ge=1),
            "n": _Field(int, 30, ge=1),
            "rank": _Field(int, 3, ge=1),
            "fraction": _Field(float, 0.3, gt=0.0, le=1.0),
            "noise": _Field(float, 0.0, ge=0.0),
            "seed": _SEED,
        },
        "csv": {
            "path": _Field(str),
            "target_column": _Field(int),
            "has_header": _Field(bool, False),
            "standardize": _STANDARDIZE,
        },
        "libsvm": {"path": _Field(str), "standardize": _STANDARDIZE},
        "ratings": {"path": _Field(str)},
    }),
}
_TABULAR_LOSSES = {
    "quadratic": QuadraticLoss,
    "logistic": LogisticLoss,
    "squared-sigmoid": SquaredSigmoidLoss,
    "biweight": BiWeightLoss,
}
_LOSS = {
    "kind": _Field(str, choices=(*_TABULAR_LOSSES, "observed-quadratic")),
    "bias": _Field(bool, False),
}
_SET = {
    "kind": _Field(str, choices={
        "lp": {}, "schatten": {}, "group": {"q": _Field(float, ge=1.0, inf=True)},
    }),
    "p": _Field(float, 2.0, ge=1.0, inf=True),
    "r": _Field(float, 1.0, gt=0.0),
}
_OPTIMIZER = {
    "kind": _Field(str, choices={
        "fw": {
            "step_rule": _Field(str, "predefined", choices=(
                "predefined", "quadratic", "exact", "short")),
            "smoothness": _SMOOTHNESS,
        },
        "pa": {"option": _Field(str, "A", choices=("A", "B"))},
        "spa": {},
        "gd": {"eta": _Field(float, "auto", gt=0.0, auto=True),
               "smoothness": _SMOOTHNESS},
        "sgd": {
            "eta0": _Field(float, gt=0.0),
            "batch": _Field(int, 32, ge=1),
            "sqrt_decay": _Field(bool, True),
        },
    }),
    "iters": _Field(int, 500, ge=1),
    "seed": _SEED,
}
_CONFIG = {
    "dataset": _Field(_DATASET),
    "loss": _Field(_LOSS),
    "set": _Field(_SET),
    "optimizer": _Field(_OPTIMIZER),
    "perturbation": _Field({
        "enabled": _Field(bool, False),
        "epsilon": _Field(float, 1e-4, gt=0.0),
        "delta": _Field(float, 0.1, gt=0.0, lt=1.0),
    }, None),
    "output": _Field({
        "trace": _Field(str, None),
        "timings": _Field(bool, False),
    }, None),
    "analysis": _Field({
        "f_star": _Field(float, None),
        "burn_in": _Field(int, 10, ge=0),
        "rel_tol": _Field(float, 0.02, gt=0.0),
    }, None),
}


# ---------------------------------------------------------------------------
# checked config -> objects

_GENERATORS = {"synthetic-regression": gen_regression,
               "synthetic-classification": gen_classification,
               "synthetic-lowrank": gen_lowrank}


def _load(loader, *args, **kwargs):
    """Call a dataset loader; a missing or malformed file is a ConfigError."""
    try:
        return loader(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc


def _build_dataset(sec: dict):
    """Returns (data, is_matrix)."""
    sec = dict(sec)
    kind = sec.pop("kind")
    std = sec.pop("standardize", False)
    if kind in _GENERATORS:
        spec = SyntheticSpec(kind=kind.removeprefix("synthetic-"), **sec)
        data, _ = _GENERATORS[kind](spec)
    elif kind == "csv":
        data = _load(load_delimited, sec["path"], sec["target_column"],
                     has_header=sec["has_header"])
    elif kind == "libsvm":
        data = _load(load_libsvm, sec["path"])
    else:
        data = _load(load_ratings, sec["path"])
    if std:
        data = standardize(data)
    return data, kind in ("synthetic-lowrank", "ratings")


def _build_loss(sec: dict, data, is_matrix: bool):
    kind, bias = sec["kind"], sec["bias"]
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
    kind, p, r = sec["kind"], sec["p"], sec["r"]
    if kind == "lp":
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
        return SchattenPBall(p=p, r=r, m=m, n=n)
    return GroupLpqBall(p=p, q=sec["q"], r=r, m=m, n=n)


def _projection_supported(region) -> bool:
    if isinstance(region, (LpBall, SchattenPBall)):
        return region.p <= 2.0 or math.isinf(region.p)
    return region.p == 2.0 and (region.q <= 2.0 or math.isinf(region.q))


def run_from_config(cfg: dict, overrides=None):
    """Build everything from a parsed config and run; returns (trace, info).

    The whole config is checked before anything is built.  overrides may
    replace optimizer.iters ("iters"), optimizer.seed ("seed") and
    output.trace ("out"), and turn on output.timings ("timings").  info
    carries the pieces the summary printer needs: the run's label, whether
    the objective was perturbed, the trace path and the analysis settings.
    """
    cfg = _read("config", cfg, _CONFIG)
    opt, pert, out = cfg["optimizer"], cfg["perturbation"], cfg["output"]
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    iters = overrides.get("iters", opt["iters"])
    trace_path = overrides.get("out", out["trace"])
    if trace_path is not None:
        folder = os.path.dirname(os.path.abspath(trace_path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"could not write trace: no writable directory {folder}")
    timings = bool(overrides.get("timings")) or out["timings"]

    data, is_matrix = _build_dataset(cfg["dataset"])
    loss = _build_loss(cfg["loss"], data, is_matrix)
    region = _build_region(cfg["set"], loss.shape)

    rng = np.random.default_rng(overrides.get("seed", opt["seed"]))
    objective = loss
    if pert["enabled"]:
        objective = make_perturbed(
            loss, pert["epsilon"], region.euclidean_diameter(), pert["delta"], rng
        )

    def smoothness():
        if opt["smoothness"] == "auto":
            return objective.smoothness()
        return opt["smoothness"]

    kind = opt["kind"]
    if kind in ("gd", "sgd") and not _projection_supported(region):
        raise ConfigError(
            "optimizer.kind: projected methods need a projection for this set; "
            "supported exponents are p in [1, 2] or inf (group sets: p = 2, "
            "q in [1, 2] or inf)"
        )

    if kind == "fw":
        rule_name = opt["step_rule"]
        if rule_name == "predefined":
            rule = PredefinedDecay()
        elif rule_name == "exact":
            rule = ExactLineSearch()
        elif rule_name == "quadratic":
            rule = QuadraticLineSearch(smoothness=smoothness())
        else:
            try:
                alpha = region.strong_convexity()
            except ValueError as exc:
                raise ConfigError(f"set: short step rule: {exc}") from exc
            rule = ShortStep(smoothness=smoothness(), alpha=alpha)
        trace = fw_run(objective, region, rule, iters, rng=rng,
                       record_timings=timings)
        label = f"fw/{rule_name}"
    elif kind == "pa":
        trace = pa_run(objective, region, option=opt["option"], iters=iters,
                       rng=rng, record_timings=timings)
        label = f"pa/{opt['option']}"
    elif kind == "spa":
        trace = spa_run(objective, region, iters=iters, rng=rng,
                        record_timings=timings)
        label = "spa"
    elif kind == "gd":
        init = default_init(region, rng)
        eta = opt["eta"]
        if eta == "auto":
            eta = tune_gd_eta(objective, region, smoothness(), init)
        trace = projected_gd_run(objective, region, eta=eta, iters=iters,
                                 init=init, record_timings=timings)
        label = f"gd/eta={eta:.4g}"
    else:
        trace = projected_sgd_run(objective, region, eta0=opt["eta0"],
                                  batch=opt["batch"], iters=iters, rng=rng,
                                  record_timings=timings,
                                  sqrt_decay=opt["sqrt_decay"])
        label = "sgd"

    info = {"label": label, "perturbed": pert["enabled"],
            "trace_path": trace_path, **cfg["analysis"]}
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
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override optimizer.seed.")
@click.option("--iters", type=click.IntRange(min=1), default=None,
              help="Override optimizer.iters.")
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
        reached = "not reached"
        if point is not None:
            wall = point.wall_clock_ms
            reached = f"t={point.iteration}" + (
                "" if wall is None else f", wall {wall:.1f}ms")
        click.echo(f"convergence (within {info['rel_tol']:.0%}): {reached}")
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
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker cap (default: cpu count, max 4).")
def suite(name, threads):
    """Run the named check suite (convex, quasi, nonconvex, oracles, all)."""
    if name not in SUITES:
        raise click.UsageError(
            f"unknown suite {name!r}; choices: {', '.join(sorted(SUITES))}"
        )
    results, ok = run_suite(name, threads=threads, echo=click.echo)
    passed = sum(r.passed for r in results)
    click.echo(f"suite {name}: {passed}/{len(results)} passed")
    if not ok:
        sys.exit(1)


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--burn-in", type=click.IntRange(min=0), default=10,
              show_default=True,
              help="Drop records with t <= burn-in before fitting.")
@click.option("--f-star", type=float, default=None,
              help="Subtract this optimum from loss columns before fitting.")
@click.option("--column", type=click.Choice(["loss_f", "loss_h", "fw_gap"]),
              default="loss_f", show_default=True)
@click.option("--min-so-far", is_flag=True,
              help="Fit the running minimum of the column instead.")
def slope(trace_path, burn_in, f_star, column, min_so_far):
    """Fit a log-log decay slope to a column of a stored trace."""
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
