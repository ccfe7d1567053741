"""Names that perfbench/run.py patches from outside the package.

`setup_targets()` and `layer_targets()` wrap these attributes by name with
getattr/setattr, so renaming or deleting one breaks the traced benchmark run
without failing any other test.
"""

import numpy as np
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


# The layer table counts a set's kernel calls through these two names only:
# a set that reaches a private kernel, or the same kernel twice, would
# change numerics.svd.calls or numerics.lp_norm.calls without failing a test.
# The Schatten oracle for 1 < p <= 2 calls neither; its Gram eigh counts
# toward feasible_sets.lmo.
_LP = feasible_sets.LpBall(p=1.5, r=1.0, d=4)
_SCHATTEN = feasible_sets.SchattenPBall(p=1.5, r=1.0, m=4, n=3)
_SCHATTEN_P3 = feasible_sets.SchattenPBall(p=3.0, r=1.0, m=4, n=3)
_GROUP = feasible_sets.GroupLpqBall(p=2.0, q=1.5, r=1.0, m=4, n=3)
_MATRIX = np.arange(1.0, 13.0).reshape(4, 3) / 10.0
_VECTOR = np.array([0.3, -1.2, 0.0, 2.5])

_KERNEL_CALLS = [  # (call, its numerics.svd and numerics.lp_norm calls)
    ("schatten.lmo", lambda: _SCHATTEN.lmo(_MATRIX), (0, 0)),
    ("schatten-p3.lmo", lambda: _SCHATTEN_P3.lmo(_MATRIX), (1, 0)),
    ("schatten-p3.lmo-subnormal", lambda: _SCHATTEN_P3.lmo(1e-310 * _MATRIX), (1, 0)),
    ("schatten.project-outside", lambda: _SCHATTEN.project(_MATRIX), (1, 1)),
    ("schatten.project-inside", lambda: _SCHATTEN.project(_MATRIX / 100.0), (1, 1)),
    ("schatten.norm", lambda: _SCHATTEN.norm(_MATRIX), (1, 1)),
    ("schatten.dual_norm", lambda: _SCHATTEN.dual_norm(_MATRIX), (1, 1)),
    ("lp.norm", lambda: _LP.norm(_VECTOR), (0, 1)),
    ("lp.project-outside", lambda: _LP.project(_VECTOR), (0, 1)),
    ("lp.project-inside", lambda: _LP.project(_VECTOR / 100.0), (0, 1)),
    ("group.norm", lambda: _GROUP.norm(_MATRIX), (0, 1)),
]


@pytest.mark.parametrize(
    "call, expected", [c[1:] for c in _KERNEL_CALLS], ids=[c[0] for c in _KERNEL_CALLS]
)
def test_sets_call_the_kernels_perfbench_wraps(monkeypatch, call, expected):
    counts = {"svd": 0, "lp_norm": 0}
    for name in counts:
        def counted(*args, _fn=getattr(feasible_sets, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(feasible_sets, name, counted)
    call()
    assert (counts["svd"], counts["lp_norm"]) == expected
