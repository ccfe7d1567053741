"""Smoke test of the benchmark's workloads against the package's API.

perfbench/run.py reaches the package only through perfbench/workloads.py
and the methods it wraps by name, so a changed signature or a renamed method
would break the benchmark without failing any other test.  Each workload
here builds its problem, draws its starts and runs every optimizer run of a
round for three iterations.
"""

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from projfree.trace import Trace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
with mock.patch.dict(os.environ):  # run.py pins BLAS threads for its process
    import run
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_three_iterations(name):
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    wl.prepare(1)
    for r in wl.runs():
        trace = r.call(3, None)
        assert isinstance(trace, Trace) and len(trace) == 3, r.label
    for owner, attr, _ in run.layer_targets(wl):
        assert callable(getattr(owner, attr)), (owner, attr)
