"""Dataset loaders and seeded synthetic generators.

Loaders parse delimited numeric text, sparse index:value rows, and
user,item,rating triples into dense arrays; messages for malformed input
name the file line.  Generators produce regression, classification, and
low-rank completion problems from a SyntheticSpec.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import ObservedMatrix, TabularDataset
from .perturbation import sample_unit_sphere

# Rejection sampling gives up on a classification sample after this many
# draws; where a draw meets the margin with chance 2e-4, a sample fails with
# odds e^-10.
_MAX_MARGIN_DRAWS = 50_000


def _numeric(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric value {token!r} at {where}") from None
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {token!r} at {where}")
    return value


def _split_row(line: str):
    return line.split(",") if "," in line else line.split()


def _lines(path):
    """(file line number, stripped text) for each non-blank line of path."""
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield i, line


def load_delimited(path, target_column: int, has_header: bool = False) -> TabularDataset:
    """Numeric comma- or whitespace-delimited text; one column is the target.

    Rows must all have the same width; target_column is 0-based.
    """
    lines = list(_lines(path))[int(has_header):]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    width = len(_split_row(lines[0][1]))
    if not (0 <= target_column < width):
        raise ValueError(
            f"{path}: target column {target_column} out of range for "
            f"{width}-column rows"
        )
    feats, targets = [], []
    for i, line in lines:
        cells = _split_row(line)
        if len(cells) != width:
            raise ValueError(
                f"{path}:{i}: row has {len(cells)} cells, expected {width}"
            )
        vals = [_numeric(c.strip(), f"{path}:{i}") for c in cells]
        targets.append(vals.pop(target_column))
        feats.append(vals)
    if width == 1:
        raise ValueError(f"{path}: rows need at least one feature column")
    return TabularDataset(np.array(feats), np.array(targets))


def load_libsvm(path) -> TabularDataset:
    """Sparse `label index:value` rows with 1-based ascending indices,
    densified to the maximum index seen.  Labels 0/1 map to -1/+1."""
    rows = []
    labels = []
    max_index = 0
    for i, line in _lines(path):
        parts = line.split()
        labels.append(_numeric(parts[0], f"{path}:{i} (label)"))
        entries = []
        prev = 0
        for tok in parts[1:]:
            if ":" not in tok:
                raise ValueError(f"{path}:{i}: malformed pair {tok!r}")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError:
                raise ValueError(
                    f"{path}:{i}: non-integer feature index {idx_s!r}"
                ) from None
            if idx < 1:
                raise ValueError(
                    f"{path}:{i}: feature indices are 1-based, got {idx}"
                )
            if idx <= prev:
                raise ValueError(
                    f"{path}:{i}: feature indices must be ascending, got {idx}"
                )
            prev = idx
            entries.append((idx, _numeric(val_s, f"{path}:{i} (index {idx})")))
        max_index = max(max_index, prev)
        rows.append(entries)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.zeros((len(rows), max_index))
    for r, entries in enumerate(rows):
        for idx, val in entries:
            x[r, idx - 1] = val
    y = np.array(labels)
    zero_one = set(np.unique(y)) <= {0.0, 1.0}
    if zero_one:
        y = np.where(y == 0.0, -1.0, 1.0)
    return TabularDataset(x, y)


def load_ratings(path) -> ObservedMatrix:
    """`user,item,rating` triples with positive integer ids; duplicate
    (user, item) pairs keep the last rating seen."""
    seen = {}
    max_u = 0
    max_i = 0
    for i, line in _lines(path):
        cells = _split_row(line)
        if len(cells) != 3:
            raise ValueError(
                f"{path}:{i}: expected user,item,rating, got {len(cells)} cells"
            )
        try:
            user = int(cells[0])
            item = int(cells[1])
        except ValueError:
            raise ValueError(f"{path}:{i}: non-integer user/item id") from None
        if user < 1 or item < 1:
            raise ValueError(f"{path}:{i}: ids must be positive, got {user},{item}")
        rating = _numeric(cells[2], f"{path}:{i} (rating)")
        seen[(user - 1, item - 1)] = rating
        max_u = max(max_u, user)
        max_i = max(max_i, item)
    if not seen:
        raise ValueError(f"{path}: no ratings")
    values = np.zeros((max_u, max_i))
    mask = np.zeros((max_u, max_i), dtype=bool)
    for (u, it), rating in seen.items():
        values[u, it] = rating
        mask[u, it] = True
    return ObservedMatrix(values, mask)


@dataclass
class SyntheticSpec:
    """Recipe for a seeded synthetic problem.

    kind: "regression", "classification", or "lowrank".
    condition rules the feature-correlation eigenvalue spread for tabular
    kinds (1 = isotropic); margin and rank apply to classification and
    lowrank respectively; fraction is the observed share of lowrank entries.
    """

    kind: str
    n: int = 100
    d: int = 10
    noise: float = 0.0
    seed: int = 0
    condition: float = 1.0
    w_norm: float = 1.0
    margin: float = 0.5
    rank: int = 2
    m: int = 20
    fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in ("regression", "classification", "lowrank"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.noise < 0.0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.condition < 1.0:
            raise ValueError(f"condition must be >= 1, got {self.condition}")


def _correlated_features(rng: np.random.Generator, n: int, d: int, condition: float):
    """Zero-mean features with unit marginal variances and a controlled
    correlation eigenvalue spread (max/min about `condition`)."""
    z = rng.standard_normal((n, d))
    if condition == 1.0 or d == 1:
        return z
    lam = np.logspace(0.0, -np.log10(condition), d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    c0 = (q * lam) @ q.T
    scale = 1.0 / np.sqrt(np.diag(c0))
    c = c0 * np.outer(scale, scale)
    # symmetric square root keeps the construction rotation-free
    evals, evecs = np.linalg.eigh(c)
    root = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T
    return z @ root


def gen_regression(spec: SyntheticSpec):
    """Linear data y = X w_true + noise * eps.

    Returns (TabularDataset, w_true); ||w_true|| = spec.w_norm so callers can
    size a constraint ball relative to the planted model.
    """
    if spec.kind != "regression":
        raise ValueError(f"gen_regression got kind {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    x = _correlated_features(rng, spec.n, spec.d, spec.condition)
    w_true = sample_unit_sphere(spec.d, rng) * spec.w_norm
    y = x @ w_true
    if spec.noise > 0.0:
        y = y + spec.noise * rng.standard_normal(spec.n)
    return TabularDataset(x, y), w_true


def gen_classification(spec: SyntheticSpec):
    """Separable unit-sphere points with labels in {0, 1}.

    Each sample satisfies |<w_true, x_i>| >= margin (rejection sampling), so
    the planted direction separates the classes with the requested margin.
    The chance that a draw meets it falls as (1 - margin)^((d - 1) / 2) for
    a margin near 1; a sample that no draw of _MAX_MARGIN_DRAWS meets raises
    ValueError.
    """
    if spec.kind != "classification":
        raise ValueError(f"gen_classification got kind {spec.kind!r}")
    if not (0.0 <= spec.margin < 1.0):
        raise ValueError(f"margin must lie in [0, 1), got {spec.margin}")
    rng = np.random.default_rng(spec.seed)
    w_true = sample_unit_sphere(spec.d, rng)
    xs = np.zeros((spec.n, spec.d))
    ys = np.zeros(spec.n)
    for i in range(spec.n):
        for _ in range(_MAX_MARGIN_DRAWS):
            x = sample_unit_sphere(spec.d, rng)
            score = float(w_true @ x)
            if abs(score) >= spec.margin:
                break
        else:
            raise ValueError(
                f"margin {spec.margin} is out of reach at d = {spec.d}: no "
                f"draw of {_MAX_MARGIN_DRAWS} met it for sample {i}"
            )
        xs[i] = x
        ys[i] = 1.0 if score > 0.0 else 0.0
    return TabularDataset(xs, ys), w_true


def gen_lowrank(spec: SyntheticSpec):
    """Rank-`rank` matrix observed on a random entry subset.

    Returns (ObservedMatrix, full matrix).  Observation mask is drawn without
    replacement to cover `fraction` of the entries.
    """
    if spec.kind != "lowrank":
        raise ValueError(f"gen_lowrank got kind {spec.kind!r}")
    if not (0.0 < spec.fraction <= 1.0):
        raise ValueError(f"fraction must lie in (0, 1], got {spec.fraction}")
    if spec.rank < 1:
        raise ValueError(f"rank must be >= 1, got {spec.rank}")
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    a = rng.standard_normal((m, spec.rank))
    b = rng.standard_normal((n, spec.rank))
    full = a @ b.T / np.sqrt(spec.rank)
    if spec.noise > 0.0:
        full = full + spec.noise * rng.standard_normal((m, n))
    count = max(1, int(round(spec.fraction * m * n)))
    flat = rng.choice(m * n, size=count, replace=False)
    mask = np.zeros(m * n, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(m, n)
    return ObservedMatrix(full, mask), full


def standardize(data: TabularDataset) -> TabularDataset:
    """Column-wise zero-mean unit-variance features (constant columns keep
    scale 1)."""
    mean = data.features.mean(axis=0)
    scale = data.features.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    feats = (data.features - mean) / scale
    return TabularDataset(feats, data.targets)
