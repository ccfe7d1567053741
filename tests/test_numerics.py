"""Scalar and matrix primitives: norms, SVD, lambda_max.

Reference values were frozen from a 40-digit multi-precision evaluation of
the defining formulas; the SVD checks test the factorization's defining
properties, and the lambda_max bound is checked against eigvalsh.
"""

import math
import warnings

import numpy as np
import pytest

from projfree.errors import NumericFailure
from projfree.numerics import (
    as_matrix,
    as_shaped,
    as_vector,
    lambda_max_bound,
    lp_norm,
    lp_norms,
    svd,
)

EXPONENTS = [1.0, 1.0 + 1e-6, 1.5, 2.0, 3.0, 50.0, math.inf]
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# lp_norm


def test_lp_norm_pythagorean():
    assert lp_norm(np.array([3.0, 4.0]), 2.0) == pytest.approx(5.0, abs=1e-12)


def test_lp_norm_l1_counts():
    assert lp_norm(np.array([1.0, 1.0, 1.0]), 1.0) == pytest.approx(3.0, abs=1e-12)
    assert lp_norm(np.array([1.0, -1.0, 1.0]), 1.0) == pytest.approx(3.0, abs=1e-12)


def test_lp_norm_linf_is_max():
    assert lp_norm(np.array([1.0, -3.0, 2.0]), np.inf) == pytest.approx(3.0)


def test_lp_norm_frozen_values():
    # (1 + 2^1.5)^(2/3) and friends, evaluated at 40 digits.
    assert lp_norm(np.array([1.0, 2.0]), 1.5) == pytest.approx(
        2.4472608147714755, rel=1e-13
    )
    assert lp_norm(np.array([0.5, 0.5]), 1.2) == pytest.approx(
        0.8908987181403393, rel=1e-13
    )
    assert lp_norm(np.array([2.0, 3.0, 6.0]), 3.0) == pytest.approx(
        6.3079935486632676, rel=1e-13
    )


def test_lp_norm_zero_vector():
    assert lp_norm(np.zeros(4), 1.5) == 0.0


def test_lp_norm_scaling_homogeneity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    for p in (1.0, 1.3, 2.0, 4.0, np.inf):
        assert lp_norm(3.5 * x, p) == pytest.approx(3.5 * lp_norm(x, p), rel=1e-12)


def test_lp_norm_rejects_bad_exponent():
    with pytest.raises(ValueError):
        lp_norm(np.array([1.0, 2.0]), 0.5)


def test_lp_norm_rescales_to_avoid_overflow():
    # Naive sum of cubes would overflow; the max-rescaled form must not.
    x = np.array([1e300, 1e300])
    assert lp_norm(x, 3.0) == pytest.approx(1e300 * 2.0 ** (1.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("p", EXPONENTS)
def test_lp_norms_over_rows(p):
    # Rows from subnormal to 1e300, a zero row and a one-hot row: each row's
    # norm is lp_norm's up to the rounding of the root (an array power here,
    # a scalar power there), and no row overflows or warns.
    rng = np.random.default_rng(5)
    a = np.abs(rng.standard_normal((8, 9))) * 10.0 ** rng.uniform(-300, 300, (8, 1))
    a[2] = 0.0
    a[4, 1:] = 0.0
    a[6] = np.full(9, 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = lp_norms(a, p)
    assert norms.shape == (8,)
    assert norms[2] == 0.0
    assert norms[4] == a[4, 0]
    for row, norm in zip(a, norms):
        assert norm == pytest.approx(lp_norm(row, p), rel=4 * EPS, abs=0.0)


# ---------------------------------------------------------------------------
# array coercion


def test_as_shaped_checks_shape_and_finiteness_without_a_copy():
    x = np.ones((2, 3))
    assert as_shaped(x, (2, 3)) is x
    m = as_shaped([[1, 2, 3], [4, 5, 6]], (2, 3))
    assert m.dtype == np.float64
    with pytest.raises(ValueError, match="expected shape"):
        as_shaped(x, (3, 2))
    with pytest.raises(ValueError, match="expected shape"):
        as_shaped(np.ones(6), (2, 3))
    with pytest.raises(ValueError, match="non-finite"):
        as_shaped([1.0, np.inf], (2,))


def test_as_vector_coerces_and_checks():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


def test_as_matrix_coerces_and_checks():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])


# ---------------------------------------------------------------------------
# svd


def test_svd_diagonal():
    d = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(np.sort(d.s)[::-1], [3.0, 1.0], atol=1e-12)


def test_svd_permuted_diagonal():
    d = svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
    np.testing.assert_allclose(np.sort(d.s)[::-1], [2.0, 1.0], atol=1e-12)


def test_svd_reconstruction_8x5_seed7():
    a = np.random.default_rng(7).standard_normal((8, 5))
    d = svd(a)
    rec = (d.u * d.s) @ d.v.T
    assert np.abs(rec - a).max() <= 1e-8


@pytest.mark.parametrize("shape", [(8, 5), (5, 8), (6, 6), (1, 4), (4, 1)])
def test_svd_factors_are_orthonormal(shape):
    a = np.random.default_rng(11).standard_normal(shape)
    d = svd(a)
    k = min(shape)
    assert d.u.shape == (shape[0], k)
    assert d.v.shape == (shape[1], k)
    np.testing.assert_allclose(d.u.T @ d.u, np.eye(k), atol=1e-8)
    np.testing.assert_allclose(d.v.T @ d.v, np.eye(k), atol=1e-8)


@pytest.mark.parametrize("shape", [(8, 5), (5, 8), (7, 7)])
def test_svd_singular_values_match_lapack(shape):
    a = np.random.default_rng(29).standard_normal(shape)
    mine = np.sort(svd(a).s)[::-1]
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(mine, ref, atol=1e-8)


def test_svd_nonnegative_sorted_spectrum():
    a = np.random.default_rng(3).standard_normal((6, 4))
    s = svd(a).s
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 1e-12)


def test_svd_rank_deficient():
    a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    d = svd(a)
    rec = (d.u * d.s) @ d.v.T
    np.testing.assert_allclose(rec, a, atol=1e-10)
    assert d.s[1] <= 1e-10


def test_svd_zero_matrix():
    d = svd(np.zeros((3, 2)))
    np.testing.assert_allclose(d.s, 0.0, atol=0.0)
    np.testing.assert_allclose(d.u.T @ d.u, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# lambda_max bound


def test_lambda_max_bound_known_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert lambda_max_bound(a) == pytest.approx(3.0, rel=1e-7)


def test_lambda_max_bound_matches_eigvalsh():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    a = b @ b.T
    ref = float(np.linalg.eigvalsh(a)[-1])
    assert lambda_max_bound(a) == pytest.approx(ref, rel=1e-6)


def test_lambda_max_bound_zero_matrix():
    assert lambda_max_bound(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_lambda_max_bound_is_a_tight_upper_bound(seed):
    b = np.random.default_rng(seed).standard_normal((40, 25))
    a = b.T @ b
    ref = float(np.linalg.eigvalsh(a)[-1])
    bound = lambda_max_bound(a)
    assert ref < bound <= ref * (1.0 + 4.5e-8)


def test_lambda_max_bound_rejects_non_square():
    with pytest.raises(ValueError):
        lambda_max_bound(np.ones((2, 3)))


def test_lambda_max_bound_rejects_non_finite_input():
    # Input from outside keeps the boundary's ValueError; the losses report
    # an overflowing X^T X of their own as NumericFailure before this.
    with pytest.raises(ValueError, match="non-finite"):
        lambda_max_bound(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_lp_norm_of_an_empty_vector_is_zero():
    for p in EXPONENTS:
        assert lp_norm(np.array([]), p) == 0.0


@pytest.mark.parametrize("solver, call, message", [
    ("svd", lambda: svd(np.eye(3)), "svd failed: no convergence"),
    ("eigvalsh", lambda: lambda_max_bound(np.eye(3)),
     "eigenvalue solve failed: no convergence"),
], ids=["svd", "lambda_max_bound"])
def test_a_lapack_failure_is_a_numeric_failure(monkeypatch, solver, call, message):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericFailure, match=f"^{message}$") as err:
        call()
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
