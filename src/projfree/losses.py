"""Loss functions over tabular and partially observed matrix data.

A loss defines _value_and_gradient(w), one margin or residual pass at an
unchecked w, plus stochastic_gradient(w, idx) and smoothness(); the public
value_and_gradient checks w with as_shaped and calls it, and evaluate and
gradient return its parts.  A user loss may define value_and_gradient
alone.  The run loop and _chord call the primitive on iterates built from
checked arrays.  Two losses override gradient for runs that take no value:
the quadratic (its O(d^2) Gram form on data with n >= 2d, whose d x d
matrix it builds at its first full gradient) and the tilted loss, which
reaches that Gram form through its base.  A tabular loss writes
its per-sample value and slope once, in _terms(m, y).  The line search's
_chord(w, v) makes one pass per distinct step size, with a memo of two
floats per step size.  The stochastic form returns (N / |idx|) times the
sum of per-sample gradients; a tabular loss returns gradient(w) for the
index set 0..N-1.  smoothness() is a proven global bound on the gradient's
Lipschitz constant in the Euclidean norm, from a closed form for each loss.
"""

from functools import lru_cache

import numpy as np

from .errors import NumericFailure
from .numerics import as_matrix, as_shaped, as_vector, lambda_max_bound


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable logistic function: exp(-|z|) never overflows, and each branch
    # is 1 / (1 + e^-z) or e^z / (1 + e^z) as in the textbook split.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _gram(x, name: str = "X^T X") -> np.ndarray:
    """x^T x; NumericFailure naming the product, with no warning, when it
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.T @ x
    if not np.isfinite(g).all():
        raise NumericFailure(f"{name} overflows: the features are too large")
    return g


def _memoized_chord(probe):
    """(phi, dphi) from one probe(gamma) -> (phi, dphi) call per gamma."""
    at = lru_cache(maxsize=None)(probe)
    return (lambda gamma: at(gamma)[0]), (lambda gamma: at(gamma)[1])


class TabularDataset:
    """Feature matrix (n, d) with a target vector (n,)."""

    def __init__(self, features, targets):
        self.features = as_matrix(features)
        self.targets = as_vector(targets)
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"features have {self.features.shape[0]} rows but targets "
                f"have {self.targets.shape[0]} entries"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


class ObservedMatrix:
    """A reference matrix observed on an index subset.

    mask is boolean (m, n); entries outside the mask are ignored by the loss.
    """

    def __init__(self, values, mask):
        self.values = as_matrix(values)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match values shape "
                f"{self.values.shape}"
            )
        self.n_observed = int(np.count_nonzero(self.mask))
        if self.n_observed == 0:
            raise ValueError("ObservedMatrix needs at least one observed entry")

    @property
    def shape(self):
        return self.values.shape


class Loss:
    """Base class; subclasses define _value_and_gradient (or
    value_and_gradient) and the rest."""

    #: number of samples N used by the stochastic aggregate
    n_samples: int
    #: parameter shape the loss expects
    shape: tuple

    def value_and_gradient(self, w):
        """(loss value as a float, gradient array) at w."""
        return self._value_and_gradient(as_shaped(w, self.shape))

    def _value_and_gradient(self, w):
        """value_and_gradient at a float64 w of the loss's shape, unchecked.
        A loss that defines only value_and_gradient is called through it."""
        if type(self).value_and_gradient is Loss.value_and_gradient:
            raise NotImplementedError
        return self.value_and_gradient(w)

    def evaluate(self, w) -> float:
        return self.value_and_gradient(w)[0]

    def gradient(self, w) -> np.ndarray:
        return self.value_and_gradient(w)[1]

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        raise NotImplementedError

    def smoothness(self) -> float:
        """Proven upper bound on the Lipschitz constant of gradient()."""
        raise NotImplementedError

    def _chord(self, w, v):
        """(phi, dphi) on the chord between checked points w and v:
        phi(gamma) is the loss at w + gamma (v - w) and dphi(gamma) its slope
        in gamma there.  Both come from one memoized _value_and_gradient
        probe per gamma."""
        d = v - w

        def probe(gamma):
            f, g = self._value_and_gradient(w + gamma * d)
            return f, float(np.vdot(g, d))

        return _memoized_chord(probe)

    def _check_indices(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            raise ValueError("stochastic_gradient needs a non-empty index set")
        if idx.min() < 0 or idx.max() >= self.n_samples:
            raise ValueError(
                f"sample indices must lie in [0, {self.n_samples}), "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        # Sorted access keeps the reduction order identical to the full
        # gradient when every sample is present.
        return np.sort(idx)


class _TabularLoss(Loss):
    """Shared plumbing for losses of the form sum_i psi(x_i . w, y_i).  A
    subclass defines _terms(m, y) -> (psi(m_i, y_i), psi'(m_i, y_i)).

    With bias=True a constant-1 feature is appended, so the model vector
    carries the intercept as its last coordinate and the constraint set acts
    on the full vector.

    The Hessian is X^T diag(psi''(m_i, y_i)) X, so with _CURVATURE the
    supremum of |psi''| over margins and targets, smoothness() bounds its
    spectral norm by _CURVATURE * lambda_max(X^T X).  A subclass may hold
    X^T X as the first entry of _gram_form; else smoothness() forms the
    smaller of X^T X and X X^T, which share their nonzero eigenvalues, and
    keeps neither.
    """

    _CURVATURE: float

    def __init__(self, data: TabularDataset, bias: bool = False):
        self.data = data
        self.bias = bool(bias)
        x = data.features
        if self.bias:
            x = np.hstack([x, np.ones((data.n, 1))])
        self._x = x
        self._y = data.targets
        self.n_samples = data.n
        self.shape = (x.shape[1],)
        self._gram_form = None

    def _margins(self, w) -> np.ndarray:
        return self._x @ w

    def _value_and_gradient(self, w):
        values, dm = self._terms(self._margins(w), self._y)
        return float(values.sum()), self._x.T @ dm

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        idx = self._check_indices(indices)
        if idx.size == self.n_samples and np.array_equal(idx, np.arange(idx.size)):
            return self.gradient(w)  # bit for bit the full gradient
        xs = self._x[idx]
        m = xs @ as_shaped(w, self.shape)
        coef = self._terms(m, self._y[idx])[1]
        return (self.n_samples / idx.size) * (xs.T @ coef)

    def smoothness(self) -> float:
        held = self._gram_form
        if held is not None or self._x.shape[0] >= self._x.shape[1]:
            gram = _gram(self._x) if held is None else held[0]
        else:
            gram = _gram(self._x.T, "X X^T")
        return self._CURVATURE * lambda_max_bound(gram)

    def _chord(self, w, v):
        # The margins are affine in gamma, so each probe is one O(n) pass.
        mw = self._margins(w)
        md = self._margins(v - w)

        def probe(gamma):
            values, dm = self._terms(mw + gamma * md, self._y)
            return float(values.sum()), float(md @ dm)

        return _memoized_chord(probe)


class LogisticLoss(_TabularLoss):
    """sum_i log(1 + exp(-y_i * x_i.w)) with labels y_i in {-1, +1}.

    psi'' = sigmoid(ym) * sigmoid(-ym) lies in (0, 1/4].
    """

    _CURVATURE = 0.25

    def __init__(self, data: TabularDataset, bias: bool = False):
        super().__init__(data, bias)
        labels = set(np.unique(self._y))
        if not labels <= {-1.0, 1.0}:
            raise ValueError(
                f"logistic loss needs labels in {{-1, +1}}, got {sorted(labels)}"
            )

    def _terms(self, m, y):
        z = -y * m
        return np.logaddexp(0.0, z), -y * _sigmoid(z)


class QuadraticLoss(_TabularLoss):
    """sum_i (x_i.w - y_i)^2, optionally with an unconstrained intercept.

    With bias=True the intercept is profiled out once, at construction:
    min_b ||X w + b - y||^2 = ||X_c w - y_c||^2 with X_c = X - xbar and
    y_c = y - ybar, so the loss holds the centred X and y (one more n x d
    copy of X), and the constraint set acts on the d coefficients alone.
    The Hessian is 2 X^T X of the held X, which smoothness() bounds.

    On tall data (_GRAM_RATIO * d <= n) the gradient is 2 (G w - b) with
    G = X^T X and b = X^T y: O(d^2) per call instead of a pass over the n
    rows.  The first full gradient builds the pair, which then lives as long
    as the loss; until then the loss holds no d x d matrix, and a
    smoothness() asked before it forms X^T X for itself and keeps nothing.
    The value and the chord stay on the residual, which keeps the digits f
    loses to cancellation in w^T G w - 2 b^T w + y^T y near its minimum; a
    batch gradient comes from _terms.
    """

    _CURVATURE = 2.0
    # At n >= 2d the product G w reads d^2 numbers, at most half of the n d
    # that the residual's pullback X^T r reads, and G is at most half the
    # size of X.
    _GRAM_RATIO = 2

    def __init__(self, data: TabularDataset, bias: bool = False):
        # The intercept is profiled out, not appended as a feature.
        super().__init__(data, bias=False)
        self.bias = bool(bias)
        if self.bias:
            self._x = self._x - self._x.mean(axis=0)
            self._y = self._y - np.mean(self._y)

    def _terms(self, m, y):
        # Only the batch gradient calls this, and it drops the square, so
        # a square that overflows to inf is no failure and raises no warning.
        r = m - y
        with np.errstate(over="ignore"):
            square = r * r
        return square, 2.0 * r

    def _residuals(self, w) -> np.ndarray:
        """x_i.w - y_i for a checked w, built in place."""
        r = self._x @ w
        r -= self._y
        return r

    def _gradient(self, w, r=None) -> np.ndarray:
        """2 (G w - b) in the Gram form, else 2 X^T r with r the residual at
        the checked model w (computed when not given)."""
        held = self._gram_form
        if held is None:
            if self._GRAM_RATIO * self.shape[0] > self.n_samples:
                g = self._x.T @ (self._residuals(w) if r is None else r)
                g *= 2.0
                return g
            # Built locally and stored as one tuple: threads that race on
            # the first gradient compute the same bits, and none of them
            # sees half a pair.
            held = self._gram_form = (_gram(self._x), self._x.T @ self._y)
        g = held[0] @ w
        g -= held[1]
        g *= 2.0
        return g

    def gradient(self, w) -> np.ndarray:
        # The Gram form needs no residual, which _value_and_gradient builds.
        return self._gradient(as_shaped(w, self.shape))

    def _value_and_gradient(self, w):
        # The one thing a call may store on the loss is the Gram pair above,
        # as one tuple; no buffer is kept, so threads may share one instance.
        r = self._residuals(w)
        return float(np.vdot(r, r)), self._gradient(w, r)

    def _chord(self, w, v):
        # The residual is affine in the model, so on the chord it is
        # r + gamma * dr and phi is a parabola.
        r = self._residuals(w)
        dr = self._residuals(v) - r

        def probe(gamma):
            rg = r + gamma * dr
            return float(np.vdot(rg, rg)), 2.0 * float(np.vdot(rg, dr))

        return _memoized_chord(probe)

    def exact_smoothness(self) -> float:
        """Same as smoothness(); perfbench patches and calls this name."""
        return self.smoothness()


class SquaredSigmoidLoss(_TabularLoss):
    """(1/n) * sum_i (y_i - sigmoid(x_i.w))^2; targets typically in {0, 1}.

    With s = sigmoid(m), n psi'' = A(s) - y B(s), where
    A(s) = 2 s^2 (1 - s)(2 - 3s) and B(s) = 2 s (1 - s)(1 - 2s).  On (0, 1),
    sup |A| = 0.154059 at s = (15 - sqrt(33)) / 24 and max |B| = 1/(3 sqrt(3))
    = 0.192450 at s = 1/2 -+ 1/sqrt(12).  The curvature is linear in y, so
    over y in [0, 1] it peaks at y = 0 (|A|) or y = 1 (|A - B|, which is |A|
    mirrored to 1 - s); a target at distance e outside [0, 1] adds at most
    e max |B|.  Hence |psi''| <= (0.1541 + 0.19246 e) / n.
    """

    @property
    def _CURVATURE(self) -> float:
        e = max(0.0, -float(self._y.min()), float(self._y.max()) - 1.0)
        return (0.1541 + 0.19246 * e) / self.n_samples

    def _terms(self, m, y):
        s = _sigmoid(m)
        e = y - s
        return e**2 / self.n_samples, -2.0 * e * s * (1.0 - s) / self.n_samples


class BiWeightLoss(_TabularLoss):
    """Robust regression: sum_i r_i^2 / (1 + r_i^2) with r_i = x_i.w - y_i.

    Bounded per-sample loss (<= 1), hence non-convex; total is <= n everywhere.
    psi'' = (2 - 6 r^2) / (1 + r^2)^3 lies in [-1/2, 2].
    """

    _CURVATURE = 2.0

    def _terms(self, m, y):
        r = m - y
        # Past |r| = 1e76 (1 + r^2)^2 overflows, past 1.3e154 r^2 too; 1 + r^2
        # is r^2 there, so the value is 1 and the slope 2 / r^3, one r at a time.
        far = None if np.abs(r).max() <= 1e76 else np.abs(r) > 1e76
        if far is not None:
            r, rf = np.where(far, 0.0, r), r[far]
        r2 = r * r
        q = 1.0 + r2
        values, dm = r2 / q, 2.0 * r / q**2
        if far is not None:
            values[far], dm[far] = 1.0, 2.0 / rf / rf / rf
        return values, dm


class ObservedQuadraticLoss(Loss):
    """sum over observed entries (W_ij - M_ij)^2 for matrix completion.

    The observed entries' flat indices and values are snapshotted at
    construction."""

    def __init__(self, observed: ObservedMatrix):
        self.observed = observed
        self.n_samples = observed.n_observed
        self.shape = observed.shape
        self._idx = np.flatnonzero(observed.mask)  # row-major order
        self._vals = observed.values.ravel()[self._idx]

    def _value_and_gradient(self, w):
        diff = w.ravel()[self._idx] - self._vals  # row-major observed entries
        g = np.zeros(self.shape)
        g.flat[self._idx] = 2.0 * diff
        # vdot, unlike matmul, overflows to inf without a warning; the run
        # loop then stops on the non-finite loss.
        return float(np.vdot(diff, diff)), g

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        w = as_shaped(w, self.shape)
        idx = self._check_indices(indices)
        flat = self._idx[idx]
        g = np.zeros(self.shape)
        np.add.at(g.ravel(), flat, 2.0 * (w.ravel()[flat] - self._vals[idx]))
        return (self.n_samples / idx.size) * g

    def smoothness(self) -> float:
        """The Hessian is 2 on observed entries and 0 elsewhere."""
        return 2.0


def estimate_smoothness(loss, region) -> float:
    """Same as loss.smoothness(); perfbench patches and calls this name."""
    return loss.smoothness()
