"""Loss functions over tabular and partially observed matrix data.

Every loss exposes evaluate(w), gradient(w), value_and_gradient(w),
stochastic_gradient(w, idx) and smoothness().  value_and_gradient(w) gives
the bits of the two separate calls from one margin or residual pass.  The
stochastic form returns (N / |idx|) * sum of per-sample gradients so that
the full index set reproduces gradient(w) exactly.
smoothness() is a proven global bound on the gradient's Lipschitz constant
in the Euclidean norm, from a closed form for each loss.
"""

import numpy as np

from .numerics import as_matrix, as_shaped, as_vector, lambda_max_bound


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable logistic function: exp(-|z|) never overflows, and each branch
    # is 1 / (1 + e^-z) or e^z / (1 + e^z) as in the textbook split.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    """Base class; subclasses fill in the margin/residual algebra."""

    #: number of samples N used by the stochastic aggregate
    n_samples: int
    #: parameter shape the loss expects
    shape: tuple

    def evaluate(self, w) -> float:
        raise NotImplementedError

    def gradient(self, w) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, w):
        """(evaluate(w), gradient(w)); overrides compute the shared part once."""
        return self.evaluate(w), self.gradient(w)

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        raise NotImplementedError

    def smoothness(self) -> float:
        """Proven upper bound on the Lipschitz constant of gradient()."""
        raise NotImplementedError

    def _chord(self, w, v):
        """(phi, dphi) on the chord from w to v: phi(gamma) is the loss at
        w + gamma (v - w) and dphi(gamma) its slope in gamma there."""
        d = v - w
        return (lambda gamma: self.evaluate(w + gamma * d),
                lambda gamma: float(np.vdot(self.gradient(w + gamma * d), d)))

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
    """Shared plumbing for losses of the form sum_i psi(x_i . w, y_i).

    With bias=True a constant-1 feature is appended, so the model vector
    carries the intercept as its last coordinate and the constraint set acts
    on the full vector.

    The Hessian is X^T diag(psi''(m_i, y_i)) X, so with _CURVATURE the
    supremum of |psi''| over margins and targets, smoothness() bounds its
    spectral norm by _CURVATURE * lambda_max(X^T X).
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

    def _margins(self, w) -> np.ndarray:
        return self._x @ as_shaped(w, self.shape)

    # subclasses: per-sample loss values and d(loss)/d(margin)
    def _values(self, m: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dmargin(self, m: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, w) -> float:
        return float(np.sum(self._values(self._margins(w), self._y)))

    def gradient(self, w) -> np.ndarray:
        return self._x.T @ self._dmargin(self._margins(w), self._y)

    def value_and_gradient(self, w):
        m = self._margins(w)
        return (float(np.sum(self._values(m, self._y))),
                self._x.T @ self._dmargin(m, self._y))

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        idx = self._check_indices(indices)
        xs = self._x[idx]
        m = xs @ as_shaped(w, self.shape)
        coef = self._dmargin(m, self._y[idx])
        return (self.n_samples / idx.size) * (xs.T @ coef)

    def smoothness(self) -> float:
        return self._CURVATURE * lambda_max_bound(self._x.T @ self._x)

    def _chord(self, w, v):
        # The margins are affine in gamma, so each probe is O(n).
        mw = self._margins(w)
        md = self._margins(v - w)
        return (lambda gamma: float(np.sum(self._values(mw + gamma * md, self._y))),
                lambda gamma: float(md @ self._dmargin(mw + gamma * md, self._y)))


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

    def _values(self, m, y):
        return np.logaddexp(0.0, -y * m)

    def _dmargin(self, m, y):
        return -y * _sigmoid(-y * m)


class QuadraticLoss(_TabularLoss):
    """sum_i (x_i.w - y_i)^2, optionally with an unconstrained intercept.

    With bias=True the intercept is not part of the model vector: it is
    re-solved in closed form (the residual mean) at every evaluation, so the
    constraint set still acts on the d coefficients alone.

    The Hessian is 2 X^T X, or 2 X^T P X with the centering projection P
    when the intercept is profiled out; X^T P X <= X^T X, so L = 2 *
    lambda_max(X^T X) in both cases.

    On tall data (_GRAM_RATIO * d <= n) the gradient is 2 (G w - b) with
    G = X^T P X and b = X^T P y stored once (P = I without the intercept):
    O(d^2) per call instead of a pass over the n rows.  evaluate() and the
    chord stay on the residual, which keeps the digits f loses to
    cancellation in w^T G w - 2 b^T w + y^T y near its minimum.
    """

    _CURVATURE = 2.0
    # Below this many rows per coordinate the d x d Gram matrix is not worth
    # its memory next to the residual pass.
    _GRAM_RATIO = 8

    def __init__(self, data: TabularDataset, bias: bool = False):
        # The intercept is profiled out, not appended as a feature.
        super().__init__(data, bias=False)
        self.bias = bool(bias)
        if self.bias:  # the means give a batch its profiled intercept in O(d)
            self._x_mean = self._x.mean(axis=0)
            self._y_mean = float(np.mean(self._y))
        self._gram = None
        if self._GRAM_RATIO * data.d <= data.n:
            x = self._x - self._x_mean if self.bias else self._x
            self._gram, self._xty = x.T @ x, x.T @ self._y

    def _residuals(self, w) -> np.ndarray:
        """x_i.w + b - y_i, b the profiled intercept, for a checked w; in place."""
        r = self._x @ w
        if self.bias:
            r += float(np.mean(self._y - r))
        r -= self._y
        return r

    def _gradient(self, w, r=None) -> np.ndarray:
        """2 (G w - b) in the Gram form, else 2 X^T r with r the residual at
        the checked model w (computed when not given)."""
        if self._gram is not None:
            g = self._gram @ w
            g -= self._xty
        else:
            # With the intercept at its exact minimizer the partial in b
            # vanishes, so the chain rule reduces to the residual pullback.
            g = self._x.T @ (self._residuals(w) if r is None else r)
        g *= 2.0
        return g

    def evaluate(self, w) -> float:
        r = self._residuals(as_shaped(w, self.shape))
        return float(r @ r)

    def gradient(self, w) -> np.ndarray:
        return self._gradient(as_shaped(w, self.shape))

    def value_and_gradient(self, w):
        # No buffer is kept on the loss: threads may share one instance.
        w = as_shaped(w, self.shape)
        r = self._residuals(w)
        return float(r @ r), self._gradient(w, r)

    def stochastic_gradient(self, w, indices) -> np.ndarray:
        idx = self._check_indices(indices)
        if idx.size == self.n_samples and np.array_equal(idx, np.arange(idx.size)):
            return self.gradient(w)
        w = as_shaped(w, self.shape)
        xs = self._x[idx]
        r = xs @ w - self._y[idx]
        if self.bias:
            r += self._y_mean - float(self._x_mean @ w)
        return (self.n_samples / idx.size) * 2.0 * (xs.T @ r)

    def _chord(self, w, v):
        # The residual, profiled intercept included, is affine in the model,
        # so on the chord it is r + gamma * dr and phi is a parabola.
        r = self._residuals(as_shaped(w, self.shape))
        dr = self._residuals(as_shaped(v, self.shape)) - r

        def phi(gamma):
            rg = r + gamma * dr
            return float(rg @ rg)

        return phi, lambda gamma: 2.0 * float((r + gamma * dr) @ dr)

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

    def _values(self, m, y):
        return (y - _sigmoid(m)) ** 2 / self.n_samples

    def _dmargin(self, m, y):
        s = _sigmoid(m)
        return -2.0 * (y - s) * s * (1.0 - s) / self.n_samples


class BiWeightLoss(_TabularLoss):
    """Robust regression: sum_i r_i^2 / (1 + r_i^2) with r_i = x_i.w - y_i.

    Bounded per-sample loss (< 1), hence non-convex; total is < n everywhere.
    psi'' = (2 - 6 r^2) / (1 + r^2)^3 lies in [-1/2, 2].
    """

    _CURVATURE = 2.0

    def _values(self, m, y):
        r2 = (m - y) ** 2
        return r2 / (1.0 + r2)

    def _dmargin(self, m, y):
        r = m - y
        return 2.0 * r / (1.0 + r * r) ** 2


class ObservedQuadraticLoss(Loss):
    """sum over observed entries (W_ij - M_ij)^2 for matrix completion.

    The observed entries' flat indices and values are snapshotted at
    construction, as QuadraticLoss does G and b."""

    def __init__(self, observed: ObservedMatrix):
        self.observed = observed
        self.n_samples = observed.n_observed
        self.shape = observed.shape
        self._idx = np.flatnonzero(observed.mask)  # row-major order
        self._vals = observed.values.ravel()[self._idx]

    def _diff(self, w) -> np.ndarray:
        """W_ij - M_ij over the observed entries, in row-major order."""
        return as_shaped(w, self.shape).ravel()[self._idx] - self._vals

    def _spread(self, diff) -> np.ndarray:
        g = np.zeros(self.shape)
        g.flat[self._idx] = 2.0 * diff
        return g

    def evaluate(self, w) -> float:
        diff = self._diff(w)
        return float(diff @ diff)

    def gradient(self, w) -> np.ndarray:
        return self._spread(self._diff(w))

    def value_and_gradient(self, w):
        diff = self._diff(w)
        return float(diff @ diff), self._spread(diff)

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
