"""Loaders (delimited, sparse pairs, rating triples) and seeded generators."""

import hashlib

import numpy as np
import pytest

from projfree.datasets import (
    SyntheticSpec,
    gen_classification,
    gen_lowrank,
    gen_regression,
    load_delimited,
    load_libsvm,
    load_ratings,
    standardize,
)
from projfree.errors import NumericFailure
from projfree.feasible_sets import LpBall
from projfree import problems
from projfree.losses import ObservedQuadraticLoss, QuadraticLoss, TabularDataset
from projfree.numerics import lp_norm
from projfree.perturbation import sample_unit_sphere
from projfree.problems import ridge_path_optimum, tune_gd_eta


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# load_delimited


def test_delimited_comma(tmp_path):
    path = _write(tmp_path, "a.csv", "1,2,3\n4,5,6\n")
    data = load_delimited(path, target_column=2)
    np.testing.assert_array_equal(data.features, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(data.targets, [3.0, 6.0])


def test_delimited_whitespace(tmp_path):
    path = _write(tmp_path, "a.txt", "1 2 3\n4 5 6\n")
    data = load_delimited(path, target_column=0)
    np.testing.assert_array_equal(data.features, [[2.0, 3.0], [5.0, 6.0]])
    np.testing.assert_array_equal(data.targets, [1.0, 4.0])


def test_delimited_header_and_blank_lines(tmp_path):
    path = _write(tmp_path, "a.csv", "x1,x2,y\n\n1,2,3\n\n4,5,6\n")
    data = load_delimited(path, target_column=2, has_header=True)
    assert data.features.shape == (2, 2)


def test_delimited_width_mismatch(tmp_path):
    path = _write(tmp_path, "a.csv", "1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="cells"):
        load_delimited(path, target_column=0)


def test_delimited_non_numeric(tmp_path):
    path = _write(tmp_path, "a.csv", "1,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_delimited(path, target_column=0)


def test_delimited_empty(tmp_path):
    path = _write(tmp_path, "a.csv", "\n\n")
    with pytest.raises(ValueError, match="no data"):
        load_delimited(path, target_column=0)
    header_only = _write(tmp_path, "b.csv", "x,y\n")
    with pytest.raises(ValueError, match="no data"):
        load_delimited(header_only, target_column=0, has_header=True)


def test_delimited_target_out_of_range(tmp_path):
    path = _write(tmp_path, "a.csv", "1,2,3\n")
    with pytest.raises(ValueError, match="out of range"):
        load_delimited(path, target_column=3)
    with pytest.raises(ValueError, match="out of range"):
        load_delimited(path, target_column=-1)


def test_delimited_needs_a_feature_column(tmp_path):
    path = _write(tmp_path, "a.csv", "1\n2\n")
    with pytest.raises(ValueError, match="feature column"):
        load_delimited(path, target_column=0)


@pytest.mark.parametrize(
    "load, text, where",
    [
        (lambda p: load_delimited(p, target_column=0), "1,2\n\n1,x\n", ":3"),
        (lambda p: load_delimited(p, target_column=0), "1,2\n\n1\n", ":3:"),
        (lambda p: load_delimited(p, target_column=0, has_header=True),
         "\nx,y\n1,2\n\n1,x\n", ":5"),
        (load_libsvm, "1 1:2\n\n1 1:x\n", ":3 (index 1)"),
        (load_ratings, "1,1,5\n\n\n1,2,x\n", ":4 (rating)"),
    ],
    ids=["delimited-cell", "delimited-width", "delimited-header", "libsvm", "ratings"],
)
def test_loader_errors_name_the_file_line(tmp_path, load, text, where):
    # Blank lines are skipped but counted, so messages name the editor's line.
    path = _write(tmp_path, "a.txt", text)
    with pytest.raises(ValueError) as info:
        load(path)
    assert f"{path}{where}" in str(info.value)


# ---------------------------------------------------------------------------
# load_libsvm


def test_libsvm_densifies_and_maps_labels(tmp_path):
    path = _write(tmp_path, "a.svm", "1 1:0.5 3:2.0\n0 2:1.5\n")
    data = load_libsvm(path)
    np.testing.assert_array_equal(
        data.features, [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]]
    )
    np.testing.assert_array_equal(data.targets, [1.0, -1.0])


def test_libsvm_keeps_plus_minus_labels(tmp_path):
    path = _write(tmp_path, "a.svm", "-1 1:1\n+1 2:1\n")
    data = load_libsvm(path)
    np.testing.assert_array_equal(data.targets, [-1.0, 1.0])


def test_libsvm_leaves_other_labels_alone(tmp_path):
    path = _write(tmp_path, "a.svm", "2 1:1\n3 1:2\n")
    data = load_libsvm(path)
    np.testing.assert_array_equal(data.targets, [2.0, 3.0])


def test_libsvm_rejects_malformed_pair(tmp_path):
    path = _write(tmp_path, "a.svm", "1 1:0.5 oops\n")
    with pytest.raises(ValueError, match="malformed"):
        load_libsvm(path)


def test_libsvm_rejects_non_ascending_indices(tmp_path):
    path = _write(tmp_path, "a.svm", "1 2:1 1:2\n")
    with pytest.raises(ValueError, match="ascending"):
        load_libsvm(path)
    dup = _write(tmp_path, "b.svm", "1 2:1 2:2\n")
    with pytest.raises(ValueError, match="ascending"):
        load_libsvm(dup)


def test_libsvm_rejects_bad_indices(tmp_path):
    path = _write(tmp_path, "a.svm", "1 0:5\n")
    with pytest.raises(ValueError, match="1-based"):
        load_libsvm(path)
    alpha = _write(tmp_path, "b.svm", "1 a:5\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_libsvm(alpha)


def test_libsvm_empty(tmp_path):
    path = _write(tmp_path, "a.svm", "\n")
    with pytest.raises(ValueError, match="no data"):
        load_libsvm(path)


# ---------------------------------------------------------------------------
# load_ratings


def test_ratings_shape_and_mask(tmp_path):
    path = _write(tmp_path, "r.csv", "1,1,5\n2,3,2\n")
    obs = load_ratings(path)
    assert obs.shape == (2, 3)
    assert obs.mask.sum() == 2
    assert obs.values[0, 0] == 5.0
    assert obs.values[1, 2] == 2.0
    assert not obs.mask[0, 1]


def test_ratings_duplicate_keeps_last(tmp_path):
    path = _write(tmp_path, "r.csv", "1,1,5\n1,1,7\n")
    obs = load_ratings(path)
    assert obs.values[0, 0] == 7.0
    assert obs.mask.sum() == 1


def test_ratings_whitespace_delimited(tmp_path):
    path = _write(tmp_path, "r.txt", "1 2 4.5\n")
    obs = load_ratings(path)
    assert obs.values[0, 1] == 4.5


def test_ratings_validation(tmp_path):
    two = _write(tmp_path, "a.csv", "1,1\n")
    with pytest.raises(ValueError, match="expected user,item,rating"):
        load_ratings(two)
    zero = _write(tmp_path, "b.csv", "0,1,5\n")
    with pytest.raises(ValueError, match="positive"):
        load_ratings(zero)
    alpha = _write(tmp_path, "c.csv", "a,1,5\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_ratings(alpha)
    empty = _write(tmp_path, "d.csv", "\n")
    with pytest.raises(ValueError, match="no ratings"):
        load_ratings(empty)


# ---------------------------------------------------------------------------
# generators


def test_regression_is_deterministic():
    spec = SyntheticSpec(kind="regression", n=40, d=5, noise=0.3, seed=9)
    a, wa = gen_regression(spec)
    b, wb = gen_regression(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(wa, wb)


def test_regression_noiseless_targets_are_exact():
    spec = SyntheticSpec(kind="regression", n=30, d=4, noise=0.0, seed=1)
    data, w_true = gen_regression(spec)
    np.testing.assert_array_equal(data.targets, data.features @ w_true)


def test_regression_planted_norm():
    spec = SyntheticSpec(kind="regression", n=10, d=7, seed=2, w_norm=2.0)
    _, w_true = gen_regression(spec)
    assert np.linalg.norm(w_true) == pytest.approx(2.0, rel=1e-12)


def test_regression_condition_controls_spread():
    spec = SyntheticSpec(kind="regression", n=20000, d=6, seed=3, condition=16.0)
    data, _ = gen_regression(spec)
    evals = np.linalg.eigvalsh(np.cov(data.features.T))
    ratio = evals.max() / evals.min()
    assert 4.0 <= ratio <= 64.0
    iso = SyntheticSpec(kind="regression", n=20000, d=6, seed=3, condition=1.0)
    data_iso, _ = gen_regression(iso)
    evals_iso = np.linalg.eigvalsh(np.cov(data_iso.features.T))
    assert evals_iso.max() / evals_iso.min() < 1.5


def test_regression_rejects_wrong_kind():
    spec = SyntheticSpec(kind="classification", n=10, d=2)
    with pytest.raises(ValueError):
        gen_regression(spec)


def test_classification_labels_margins_and_norms():
    spec = SyntheticSpec(kind="classification", n=60, d=5, seed=7, margin=0.5)
    data, w_true = gen_classification(spec)
    assert set(np.unique(data.targets)) <= {0.0, 1.0}
    norms = np.linalg.norm(data.features, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
    scores = data.features @ w_true
    assert np.all(np.abs(scores) >= 0.5 - 1e-12)
    np.testing.assert_array_equal(data.targets, (scores > 0.0).astype(float))


def test_classification_rejects_unachievable_margin():
    with pytest.raises(ValueError, match="margin"):
        gen_classification(
            SyntheticSpec(kind="classification", n=5, d=2, margin=1.0)
        )


def _uncapped_classification(spec):
    """The rejection sampler without a draw cap, as a reference."""
    rng = np.random.default_rng(spec.seed)
    w_true = sample_unit_sphere(spec.d, rng)
    xs, ys = np.zeros((spec.n, spec.d)), np.zeros(spec.n)
    for i in range(spec.n):
        while True:
            x = sample_unit_sphere(spec.d, rng)
            score = float(w_true @ x)
            if abs(score) >= spec.margin:
                break
        xs[i], ys[i] = x, float(score > 0.0)
    return xs, ys, w_true


@pytest.mark.parametrize("n, d, margin, seed", [
    (500, 5, 0.5, 7),  # the benchmark's quasi-linesearch data
    (40, 3, 0.9, 1),
    (20, 2, 0.999, 3),  # about 1 draw in 35 meets it
    (500, 10, 0.3, 0),  # the CLI's defaults
])
def test_classification_draws_match_the_uncapped_sampler(n, d, margin, seed):
    spec = SyntheticSpec(kind="classification", n=n, d=d, seed=seed, margin=margin)
    data, w_true = gen_classification(spec)
    xs, ys, w_ref = _uncapped_classification(spec)
    np.testing.assert_array_equal(w_true, w_ref)
    np.testing.assert_array_equal(data.features, xs)
    np.testing.assert_array_equal(data.targets, ys)


def test_classification_gives_up_on_a_margin_out_of_reach():
    # A draw meets margin 0.999999 at d = 5 with chance about 1.5e-12.
    spec = SyntheticSpec(kind="classification", n=8, d=5, seed=0, margin=0.999999)
    with pytest.raises(ValueError, match="margin 0.999999 is out of reach at d = 5"):
        gen_classification(spec)


def test_lowrank_rank_and_count():
    spec = SyntheticSpec(kind="lowrank", m=8, n=6, rank=3, fraction=0.37, seed=4)
    observed, full = gen_lowrank(spec)
    assert np.linalg.matrix_rank(full) == 3
    assert observed.mask.sum() == round(0.37 * 48)
    assert full.shape == (8, 6)


def test_lowrank_full_observation_zero_loss():
    spec = SyntheticSpec(kind="lowrank", m=5, n=4, rank=2, fraction=1.0, seed=6)
    observed, full = gen_lowrank(spec)
    assert observed.mask.all()
    assert ObservedQuadraticLoss(observed).evaluate(full) == 0.0


def test_lowrank_validation():
    with pytest.raises(ValueError, match="fraction"):
        gen_lowrank(SyntheticSpec(kind="lowrank", m=4, n=4, fraction=0.0))
    with pytest.raises(ValueError, match="fraction"):
        gen_lowrank(SyntheticSpec(kind="lowrank", m=4, n=4, fraction=1.2))
    with pytest.raises(ValueError, match="rank"):
        gen_lowrank(SyntheticSpec(kind="lowrank", m=4, n=4, rank=0))


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        SyntheticSpec(kind="mystery")
    with pytest.raises(ValueError, match="noise"):
        SyntheticSpec(kind="regression", noise=-0.1)
    with pytest.raises(ValueError, match="condition"):
        SyntheticSpec(kind="regression", condition=0.5)
    with pytest.raises(ValueError):
        SyntheticSpec(kind="regression", n=0)


# ---------------------------------------------------------------------------
# standardization


def test_standardize_centers_and_scales():
    rng = np.random.default_rng(11)
    data = TabularDataset(rng.normal(3.0, 2.0, size=(200, 3)), rng.normal(size=200))
    out = standardize(data)
    np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.features.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(out.targets, data.targets)


def test_standardize_constant_column_keeps_scale_one():
    feats = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    out = standardize(TabularDataset(feats, np.zeros(10)))
    np.testing.assert_array_equal(out.features[:, 0], np.zeros(10))


# ---------------------------------------------------------------------------
# boundary optimum helper


def test_ridge_path_matches_one_dimensional_calculus():
    # d = 1, ||w_true|| = 2, unit ball: the constrained optimum sits at the
    # boundary +-1 with residual (w* - w_true) x, so f* = sum x_i^2.
    spec = SyntheticSpec(kind="regression", n=30, d=1, noise=0.0, seed=5, w_norm=2.0)
    data, w_true = gen_regression(spec)
    f_star, w_star = ridge_path_optimum(data.features, data.targets, 1.0)
    sign = np.sign(w_true[0])
    assert w_star[0] == pytest.approx(sign * 1.0, rel=1e-6)
    assert f_star == pytest.approx(float(np.sum(data.features**2)), rel=1e-6)

def test_ridge_path_returns_the_least_squares_solution_inside_the_ball():
    spec = SyntheticSpec(kind="regression", n=30, d=3, noise=0.1, seed=6, w_norm=0.5)
    data, _ = gen_regression(spec)
    x, y = data.features, data.targets
    w_ls = np.linalg.lstsq(x, y, rcond=None)[0]
    radius = 2.0 * float(np.linalg.norm(w_ls))
    f_star, w_star = ridge_path_optimum(x, y, radius)
    np.testing.assert_allclose(w_star, w_ls, rtol=1e-10, atol=0.0)
    resid = x @ w_ls - y
    assert f_star == pytest.approx(float(resid @ resid), rel=1e-10)


def test_ridge_path_doubles_its_bracket_for_a_small_radius():
    # X = I_2, y = (10, 10): w(mu) = y / (1 + mu) reaches the radius 1e-3
    # far beyond the first bracket mu = 1, and the optimum r y / ||y|| leaves
    # the residual (||y|| - r)^2.
    y = np.array([10.0, 10.0])
    radius = 1e-3
    f_star, w_star = ridge_path_optimum(np.eye(2), y, radius)
    assert f_star == pytest.approx((np.linalg.norm(y) - radius) ** 2, rel=1e-12)
    assert f_star == pytest.approx(199.9717, abs=1e-4)
    np.testing.assert_allclose(w_star, radius * y / np.linalg.norm(y), rtol=1e-9)


def test_ridge_path_keeps_doubling_at_a_tiny_radius():
    # The multiplier reaches ||y|| / r = 1.4e21 before w(mu) enters the ball.
    y = np.array([10.0, 10.0])
    radius = 1e-20
    f_star, w_star = ridge_path_optimum(np.eye(2), y, radius)
    assert f_star == pytest.approx((np.linalg.norm(y) - radius) ** 2, rel=1e-12)
    np.testing.assert_allclose(w_star, radius * y / np.linalg.norm(y), rtol=1e-9)


def test_ridge_path_bracketing_gives_up_when_the_multiplier_overflows():
    # ||y|| / r = 1.4e311 is not finite, so no finite bracket exists.
    with pytest.raises(NumericFailure, match="ridge path bracketing failed"):
        ridge_path_optimum(np.eye(2), np.array([10.0, 10.0]), 1e-310)


def _collinear_ridge():
    # X = [x, x] and y = 2x: X^T X has a zero eigenvalue (to rounding), and
    # w = (1, 1) fits y exactly.
    x = np.random.default_rng(1).standard_normal(30)
    return np.column_stack([x, x]), 2.0 * x


def _tiny_ridge():
    # Every eigenvalue of X^T X is about 5e-11, below an absolute 1e-10
    # floor, and y = X (0.6, 0, 0.8) is fitted exactly.
    x = 1e-6 * np.random.default_rng(2).standard_normal((50, 3))
    return x, x @ np.array([0.6, 0.0, 0.8])


@pytest.mark.parametrize("make", [_collinear_ridge, _tiny_ridge], ids=["collinear", "tiny"])
def test_ridge_path_finds_an_interior_optimum_of_a_near_singular_gram(make):
    x, y = make()
    f_star, w_star = ridge_path_optimum(x, y, 10.0)
    assert float(np.linalg.norm(w_star)) < 10.0
    assert f_star <= 1e-20


def test_ridge_path_keeps_the_flagship_optimum_bit_for_bit():
    # Frozen with numpy 2.4 on OpenBLAS 0.3 (x86-64).  Every eigenvalue of
    # the flagship's X^T X passes the cutoff, and its optimum is on the
    # boundary, so the bisection alone sets these bits.
    prob = problems.lsq_boundary_problem()
    assert prob.f_star.hex() == "0x1.45eb684589ba4p+4"
    digest = hashlib.sha256(prob.w_star.tobytes()).hexdigest()
    assert digest == "0f80c0d503bcf6d2bed14865aafb5bd0ccd284d42d149a2a7d8b8ff612e46a61"


_RIDGE_X = np.array([[1.0, 0.5], [0.0, 2.0]])
_RIDGE_Y = np.array([10.0, 10.0])


@pytest.mark.parametrize("radius", [1e-160, 1e-200, 1e-300])
def test_ridge_path_lands_on_a_tiny_boundary_in_the_exact_direction(radius):
    # Here mu ~ ||X^T y|| / r dwarfs X^T X, so w* = r X^T y / ||X^T y|| to
    # rounding, while the squares of ||w(mu)||_2 underflow.
    _, w_star = ridge_path_optimum(_RIDGE_X, _RIDGE_Y, radius)
    direction = _RIDGE_X.T @ _RIDGE_Y / np.linalg.norm(_RIDGE_X.T @ _RIDGE_Y)
    eps = np.finfo(float).eps
    assert np.max(np.abs(w_star / radius - direction)) <= eps
    assert abs(lp_norm(w_star, 2.0) / radius - 1.0) <= eps


@pytest.mark.parametrize("radius", [1e3, 1.0, 1e-3, 1e-100, 1e-154])
def test_ridge_path_takes_the_plain_norm_down_to_1e_minus_154(radius, monkeypatch):
    # The max-scaled norm is never called, so the answer keeps the bits of
    # np.linalg.norm throughout.
    rng = np.random.default_rng(3)
    gaussian = rng.standard_normal((50, 6)), rng.standard_normal(50)

    def unused(v, p):
        raise AssertionError("max-scaled norm called")

    monkeypatch.setattr(problems, "lp_norm", unused)
    for x, y in ((_RIDGE_X, _RIDGE_Y), gaussian):
        ridge_path_optimum(x, y, radius)


def test_ridge_path_refuses_a_radius_below_the_multiplier_range():
    with pytest.raises(NumericFailure, match="ridge path bracketing failed"):
        ridge_path_optimum(_RIDGE_X, _RIDGE_Y, 1e-320)


def test_tune_gd_eta_raises_when_every_probe_diverges():
    # With L = 1e-7 every probed step, 2.5e6 to 1.9e7, blows up the
    # one-sample quadratic on a huge ball.
    loss = QuadraticLoss(TabularDataset([[1.0]], [0.0]))
    region = LpBall(p=2.0, r=1e30, d=1)
    with pytest.raises(NumericFailure, match="every probed GD step size diverged"):
        tune_gd_eta(loss, region, 1e-7, np.array([1.0]))


# ---------------------------------------------------------------------------
# values the loaders and generators refuse, and generator options


def test_delimited_refuses_an_infinite_cell_naming_its_line(tmp_path):
    path = _write(tmp_path, "a.csv", "1,2\n\n3,inf\n")
    with pytest.raises(ValueError, match=f"non-finite value 'inf' at {path}:3"):
        load_delimited(path, target_column=0)


@pytest.mark.parametrize("gen, kind", [
    (gen_classification, "regression"),
    (gen_lowrank, "classification"),
])
def test_generators_refuse_a_spec_of_another_kind(gen, kind):
    with pytest.raises(ValueError, match=f"{gen.__name__} got kind '{kind}'"):
        gen(SyntheticSpec(kind=kind, seed=0))


def test_lowrank_noise_gives_a_full_rank_matrix_observed_on_the_mask():
    spec = SyntheticSpec(kind="lowrank", m=8, n=6, rank=2, fraction=0.5,
                         noise=0.1, seed=9)
    observed, full = gen_lowrank(spec)
    assert np.linalg.matrix_rank(full) == 6
    np.testing.assert_array_equal(observed.values[observed.mask],
                                  full[observed.mask])
