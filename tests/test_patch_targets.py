"""Names that perfbench/run.py patches from outside the package.

`setup_targets()` and `layer_targets()` wrap these attributes by name with
getattr/setattr, so renaming or deleting one breaks the traced benchmark run
without failing any other test.
"""

import pytest

from projfree import datasets, feasible_sets, losses, optimizers, problems

_TARGETS = [
    (problems, "gen_regression"),
    (problems, "gen_classification"),
    (problems, "standardize"),
    (datasets, "gen_regression"),
    (datasets, "gen_lowrank"),
    (losses, "estimate_smoothness"),
    (losses.QuadraticLoss, "exact_smoothness"),
    (feasible_sets, "svd"),
    (feasible_sets, "lp_norm"),
    (optimizers, "fw_gap"),
    (optimizers, "exact_line_search"),
]


@pytest.mark.parametrize(
    "owner, name", _TARGETS, ids=[f"{o.__name__}.{n}" for o, n in _TARGETS]
)
def test_patched_name_resolves(owner, name):
    assert callable(getattr(owner, name))
