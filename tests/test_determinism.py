"""Byte-identical results whatever the BLAS thread count.

LAPACK's last bits can move with the number of OpenBLAS threads, so each
check runs the same snippet in fresh interpreters started under
OPENBLAS_NUM_THREADS=1 and =2 and compares what they write.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import projfree
from projfree.datasets import SyntheticSpec, gen_regression
from projfree.losses import QuadraticLoss

_SNIPPET = """
import sys
import numpy as np
from projfree.datasets import SyntheticSpec, gen_lowrank, gen_regression
from projfree.feasible_sets import SchattenPBall
from projfree.losses import ObservedQuadraticLoss, QuadraticLoss
from projfree.optimizers import pa_run
from projfree.trace import write_trace

out = sys.argv[1]
for m, n in ((12, 10), (100, 80)):
    spec = SyntheticSpec(kind="lowrank", m=m, n=n, rank=3, fraction=0.4, seed=5)
    observed, full = gen_lowrank(spec)
    sigma = np.linalg.svd(full, compute_uv=False)
    radius = 0.8 * float(np.sum(sigma ** 1.5) ** (2 / 3))
    ball = SchattenPBall(p=1.5, r=radius, m=m, n=n)
    trace = pa_run(ObservedQuadraticLoss(observed), ball, "A", 30,
                   rng=np.random.default_rng(2))
    write_trace(trace, f"{out}/pa-{m}x{n}.csv")
data, _ = gen_regression(SyntheticSpec(kind="regression", n=2000, d=1000, seed=3))
print(repr(QuadraticLoss(data).smoothness()))
"""


def _run_snippet(tmp_path: Path, threads: int):
    out = tmp_path / f"threads-{threads}"
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(projfree.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET, str(out)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return proc.stdout, files


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    one = _run_snippet(tmp_path, 1)
    two = _run_snippet(tmp_path, 2)
    assert sorted(one[1]) == ["pa-100x80.csv", "pa-12x10.csv"]
    assert one == two


def test_exact_smoothness_bounds_lapack_eigenvalue():
    data, _ = gen_regression(SyntheticSpec(kind="regression", n=2000, d=1000, seed=3))
    x = data.features
    lam = float(np.linalg.eigvalsh(x.T @ x)[-1])
    assert QuadraticLoss(data).smoothness() >= 2.0 * lam
