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


def lp_norms(a: np.ndarray, p: float):
    """l_p norms over the last axis of a >= 0, for p in [1, inf].

    Each row is divided by its largest entry before powering, so large
    entries do not overflow; zero rows have norm 0.  A 1-D a gives a scalar,
    whose root is then a scalar power (numpy's array power rounds differently).
    """
    top = np.maximum.reduce(a, axis=-1)
    if math.isinf(p):
        return top
    if p == 1.0:
        return np.add.reduce(a, axis=-1)
    b = (a.T / (top + (top == 0.0))).T  # each row over its top, a zero row over 1
    if p == 2.0:
        return top * np.sqrt(np.add.reduce(b * b, axis=-1))
    return top * np.add.reduce(b ** p, axis=-1) ** (1.0 / p)


def lp_norm(x, p: float) -> float:
    """l_p norm of a vector for p in [1, inf]; lp_norms on its entries.

    p = math.inf is the distinguished sup-norm exponent.
    """
    v = np.asarray(x, dtype=np.float64).ravel()
    if not (p >= 1.0):
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if v.size == 0:
        return 0.0
    return float(lp_norms(np.abs(v), p))


@dataclass
class SvdResult:
    """Thin SVD a = u @ diag(s) @ v.T with s sorted descending."""

    u: np.ndarray  # (m, k)
    s: np.ndarray  # (k,)
    v: np.ndarray  # (n, k)


def svd(a) -> SvdResult:
    """Thin SVD by LAPACK: a = u @ diag(s) @ v.T, s sorted descending.

    The factors are orthonormal for zero and rank-deficient inputs too.  a
    is taken as a 2-D float64 array up front, but its entries are checked
    only when LAPACK raises or the spectrum is not finite (numpy's SVD of inf
    gives NaN): NaN or inf raise ValueError, else NumericFailure.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        if not np.isfinite(s).all():
            raise np.linalg.LinAlgError("non-finite singular values")
    except np.linalg.LinAlgError as exc:
        as_matrix(a)
        raise NumericFailure(f"svd failed: {exc}") from exc
    return SvdResult(u=u, s=s, v=vt.T)


def eigh(a) -> tuple:
    """Eigenvalues, ascending, and orthonormal eigenvectors of a finite
    symmetric matrix by LAPACK: a = v @ diag(w) @ v.T.  Returns (w, v)."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigh failed: {exc}") from exc


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
