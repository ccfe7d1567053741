"""Dense numeric kernels: norms and LAPACK-backed spectra.

Vectors and matrices are plain float64 numpy arrays.  as_shaped (against
the shape a loss or set expects) and the construction helpers reject
non-finite entries; downstream code assumes finiteness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

# lambda_max_bound's safety margin and rounding grid, in relative bits.
_LAMBDA_GRID_BITS = 26


def as_shaped(x, shape: tuple) -> np.ndarray:
    """x as a float64 array (no copy if it is one) of `shape`; rejects NaN/Inf."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("array contains non-finite entries")
    return a


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting NaN/Inf entries."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def lp_norm(x, p: float) -> float:
    """l_p norm of a vector for p in [1, inf].

    p = math.inf is the distinguished sup-norm exponent.  Entries are rescaled
    by max|x_i| before powering so large inputs do not overflow.
    """
    v = np.asarray(x, dtype=np.float64).ravel()
    if not (p >= 1.0):
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if v.size == 0:
        return 0.0
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0 or math.isinf(p):
        return m
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return m * float(np.sqrt(np.sum((a / m) ** 2)))
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


@dataclass
class SvdResult:
    """Thin SVD a = u @ diag(s) @ v.T with s sorted descending."""

    u: np.ndarray  # (m, k)
    s: np.ndarray  # (k,)
    v: np.ndarray  # (n, k)


def svd(a) -> SvdResult:
    """Thin SVD by LAPACK: a = u @ diag(s) @ v.T, s sorted descending.

    The factors are orthonormal for zero and rank-deficient inputs too.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"svd failed: {exc}") from exc
    return SvdResult(u=u, s=s, v=vt.T)


def lambda_max_bound(a) -> float:
    """Upper bound on the largest eigenvalue of a symmetric matrix.

    LAPACK's eigenvalue carries an error near n * eps * ||a||, and its last
    bits move with the BLAS thread count.  It is raised by a relative margin
    of 2^-26 (1.5e-8; for a positive semidefinite a, lambda_max is ||a||, so
    this covers the error) and then rounded up onto a grid of 2^-26 relative
    steps, which gives the same value whatever the thread count.  The result
    exceeds the computed eigenvalue by at most 4.5e-8 relative.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    try:
        lam = float(np.linalg.eigvalsh(a)[-1])
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigenvalue solve failed: {exc}") from exc
    bits = _LAMBDA_GRID_BITS
    mant, expo = math.frexp(lam + abs(lam) * 2.0**-bits)
    return math.ldexp(math.ceil(mant * 2.0**bits), expo - bits)
