import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explainkit import (
    ConstantPredictor,
    ConvergenceError,
    DataError,
    ModelError,
    SchemaError,
    add_predictions,
    dataset_from_rows,
    empirical_draw,
    fit_explanation,
    fit_kernel_ridge,
    fit_ols,
    lasso_coordinate_descent,
    sample_locally,
)
import explainkit.live as live
from explainkit.live import _certify, _lambda_grid, _lasso_knots, _moments, _read_path
from explainkit.predict import Encoder, LinearModel, _standardize

from conftest import make_regression, overflowing_table


def differing_coordinates(local, i):
    row = local.row(i)
    return [j for j, (a, b) in enumerate(zip(row, local.origin)) if a != b]


def orthonormal_design(n, k, seed):
    """Columns with exact zero mean and (1/n) X^T X = I."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(n, k + 1))
    a = a - a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    return float(np.sqrt(n)) * q[:, :k]


def looped_neighbourhood(ds, x, response, size, seed):
    """`sample_locally` as a loop of scalar draws in the order its docstring
    gives: each row's feature (row i < p owns feature i), then its value."""
    base = ds.with_response(response)
    schema = base.schema()
    p = schema.n_features
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = schema.repeat(schema.validate_observation(x), size)
    chosen = np.sort(rng.choice(p, size=size, replace=False)) if p > size else None
    for i in range(size):
        if chosen is not None:
            feature = int(chosen[rng.integers(0, size)])
        else:
            feature = i if i < p else int(rng.integers(0, p))
        cols[feature][i] = empirical_draw(base, base.feature_indices[feature], rng)
    return cols


def mixed_table():
    """Seven rows of four numeric features and one categorical, `g`."""
    rng = np.random.Generator(np.random.PCG64(160))
    rows = [(*rng.normal(size=2), "lmh"[i % 3], *rng.normal(size=3)) for i in range(7)]
    kinds = ["numeric", "numeric", "categorical", "numeric", "numeric", "numeric"]
    return dataset_from_rows(["a", "b", "g", "c", "d", "y"], kinds, rows, "y")


class TestSampleLocally:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_draws_are_those_of_the_per_draw_loop(self, wine, seed):
        """Bit for bit and cell type for cell type, on both branches (p > size
        and p <= size); a numpy that drew an array of bounds otherwise than
        one scalar call per bound would fail here."""
        for ds, response, row in ((mixed_table(), "y", 2), (wine, "quality", 4)):
            p = ds.n_features
            for size in (0, 1, p - 1, p, p + 1, 3 * p + 2):
                local = sample_locally(ds, ds.observation(row), response, size, seed)
                want = looped_neighbourhood(ds, ds.observation(row), response, size, seed)
                for got, expected in zip(local.feature_values, want, strict=True):
                    assert got.dtype == expected.dtype
                    assert [type(v) for v in got] == [type(v) for v in expected]
                    if got.dtype == object:
                        assert got.tolist() == expected.tolist()
                    else:
                        assert got.tobytes() == expected.tobytes()

    def test_size_zero(self, wine):
        local = sample_locally(wine, wine.observation(4), "quality", size=0, seed=1)
        assert local.n_rows == 0

    def test_small_p_branch(self):
        ds = make_regression(3, 50, seed=80)
        x = ds.observation(0)
        local = sample_locally(ds, x, "y", size=5, seed=7)
        assert local.n_rows == 5
        # rows 1..p perturb features 1..p in order
        for i in range(3):
            diff = differing_coordinates(local, i)
            assert diff == [i] or diff == []  # a draw may coincide with x_new
        for i in range(3, 5):
            assert len(differing_coordinates(local, i)) <= 1

    def test_small_p_branch_perturbed_value_comes_from_column(self):
        ds = make_regression(2, 30, seed=81)
        x = ds.observation(3)
        local = sample_locally(ds, x, "y", size=10, seed=3)
        cols = [set(c.values.tolist()) for c in ds.feature_columns()]
        for i in range(local.n_rows):
            for j in differing_coordinates(local, i):
                assert local.row(i)[j] in cols[j]

    def test_large_p_branch_uses_feature_subset(self):
        ds = make_regression(12, 40, seed=82)
        x = ds.observation(0)
        local = sample_locally(ds, x, "y", size=4, seed=11)
        assert local.n_rows == 4
        touched = set()
        for i in range(4):
            touched.update(differing_coordinates(local, i))
        assert len(touched) <= 4

    def test_constant_column_perturbation_is_identity(self):
        rows = [(5.0, float(i), float(i)) for i in range(10)]
        ds = dataset_from_rows(["a", "b", "y"], ["numeric"] * 3, rows, "y")
        x = ds.observation(0)
        local = sample_locally(ds, x, "y", size=6, seed=2)
        for i in range(local.n_rows):
            assert local.row(i)[0] == 5.0

    def test_seed_determinism_bitwise(self, wine):
        x = wine.observation(4)
        a = sample_locally(wine, x, "quality", size=50, seed=99)
        b = sample_locally(wine, x, "quality", size=50, seed=99)
        for ca, cb in zip(a.feature_values, b.feature_values):
            assert np.array_equal(ca, cb)

    def test_unknown_response_rejected(self, wine):
        with pytest.raises(DataError, match="not found"):
            sample_locally(wine, wine.observation(0), "nope", size=3, seed=1)

    def test_response_by_index_matches_name(self, wine):
        x = wine.observation(4)
        by_name = sample_locally(wine, x, "quality", size=20, seed=5)
        by_index = sample_locally(wine, x, wine.response_index, size=20, seed=5)
        assert by_index.response_name == by_name.response_name == "quality"
        assert by_index.schema == by_name.schema
        for ci, cn in zip(by_index.feature_values, by_name.feature_values):
            assert np.array_equal(ci, cn)

    def test_categorical_perturbations_stay_in_levels(self):
        rows = [("a", 1.0, 2.0), ("b", 2.0, 3.0), ("c", 0.0, 4.0), ("a", 3.0, 5.0)]
        ds = dataset_from_rows(
            ["g", "x", "y"], ["categorical", "numeric", "numeric"], rows, "y"
        )
        local = sample_locally(ds, ("b", 1.5), "y", size=20, seed=5)
        assert set(local.feature_values[0]) <= {"a", "b", "c"}

    @given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_locality_property(self, p, size, seed):
        ds = make_regression(p, 15, seed=1234)
        x = ds.observation(0)
        local = sample_locally(ds, x, "y", size=size, seed=seed)
        assert local.n_rows == size
        for i in range(size):
            assert len(differing_coordinates(local, i)) <= 1


class TestAddPredictions:
    def test_constant(self, wine):
        local = sample_locally(wine, wine.observation(0), "quality", size=5, seed=1)
        c = ConstantPredictor(schema=wine.schema(), value=5.0)
        local = add_predictions(local, c)
        assert np.array_equal(local.response, np.full(5, 5.0))
        assert local.response_name == "quality"

    def test_linear_rowwise(self, wine, wine_ols):
        local = sample_locally(wine, wine.observation(4), "quality", size=20, seed=6)
        local = add_predictions(local, wine_ols)
        for i in range(20):
            assert local.response[i] == pytest.approx(
                wine_ols.score_one(local.row(i)), abs=1e-12
            )

    def test_empty(self, wine, wine_ols):
        local = sample_locally(wine, wine.observation(0), "quality", size=0, seed=1)
        local = add_predictions(local, wine_ols)
        assert len(local.response) == 0

    def test_double_invocation_rejected(self, wine, wine_ols):
        local = sample_locally(wine, wine.observation(0), "quality", size=3, seed=1)
        local = add_predictions(local, wine_ols)
        with pytest.raises(DataError, match="already"):
            add_predictions(local, wine_ols)

    def test_external_scorer_through_subprocess_protocol(self, wine):
        from explainkit import external_scorer

        from conftest import fixture_command

        local = sample_locally(wine, wine.observation(4), "quality", size=10, seed=8)
        scorer = external_scorer(
            fixture_command("identity_first_column.py"), wine.schema()
        )
        local = add_predictions(local, scorer)
        assert np.array_equal(local.response, local.feature_values[0].astype(float))


class TestErrorPaths:
    def test_negative_size(self, wine):
        with pytest.raises(DataError, match="^size must be nonnegative$"):
            sample_locally(wine, wine.observation(0), "quality", size=-1, seed=1)

    def test_predictor_of_another_schema(self, wine):
        local = sample_locally(wine, wine.observation(0), "quality", size=3, seed=1)
        other = make_regression(2, 10, seed=3)
        c = ConstantPredictor(schema=other.schema(), value=1.0)
        message = "^predictor schema does not match the local dataset$"
        with pytest.raises(SchemaError, match=message):
            add_predictions(local, c)

    def test_predictions_not_attached(self, wine):
        local = sample_locally(wine, wine.observation(0), "quality", size=3, seed=1)
        message = "^attach predictions before fitting an explanation$"
        with pytest.raises(DataError, match=message):
            fit_explanation(local)

    def test_unknown_white_box(self, wine, wine_ols):
        local = sample_locally(wine, wine.observation(0), "quality", size=30, seed=1)
        local = add_predictions(local, wine_ols)
        with pytest.raises(ModelError, match="^unknown white box 'ridge'$"):
            fit_explanation(local, white_box="ridge")

    def test_lasso_on_one_row(self, wine, wine_ols):
        local = sample_locally(wine, wine.observation(0), "quality", size=1, seed=1)
        local = add_predictions(local, wine_ols)
        message = "^need at least 2 rows to fit a lasso surrogate$"
        with pytest.raises(ModelError, match=message):
            fit_explanation(local, white_box="lasso")


class TestFitExplanation:
    def test_exact_recovery_of_linear_black_box(self):
        ds = make_regression(4, 100, seed=90, noise=0.4)
        black_box = fit_ols(ds, 4)
        x = ds.observation(10)
        local = sample_locally(ds, x, "y", size=300, seed=42)
        local = add_predictions(local, black_box)
        fit = fit_explanation(local, white_box="ols")
        assert fit.model.coefficients == pytest.approx(
            black_box.coefficients, abs=1e-8
        )
        assert fit.model.intercept == pytest.approx(black_box.intercept, abs=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.lambda_ == 0.0

    def test_lasso_zero_penalty_equals_ols(self):
        ds = make_regression(3, 60, seed=91, noise=0.3)
        m = fit_kernel_ridge(ds, 3, gamma=0.5, ridge=1e-2)
        local = sample_locally(ds, ds.observation(0), "y", size=120, seed=7)
        local = add_predictions(local, m)
        ols = fit_explanation(local, white_box="ols")
        lasso = fit_explanation(local, white_box="lasso", lambda_=0.0)
        assert lasso.model.coefficients == pytest.approx(
            ols.model.coefficients, abs=1e-8
        )
        assert lasso.model.std_errors is None

    def test_degenerate_local_dataset(self):
        rows = [(5.0, 1.0, 2.0)] * 10
        ds = dataset_from_rows(["a", "b", "y"], ["numeric"] * 3, rows, "y")
        local = sample_locally(ds, (5.0, 1.0), "y", size=10, seed=1)
        c = ConstantPredictor(schema=ds.schema(), value=1.0)
        local = add_predictions(local, c)
        with pytest.raises(ModelError, match="increase size"):
            fit_explanation(local, white_box="ols")

    def test_size_zero_asks_for_a_larger_size(self, wine, wine_ols):
        local = sample_locally(wine, wine.observation(0), "quality", size=0, seed=1)
        local = add_predictions(local, wine_ols)
        with pytest.raises(ModelError, match="increase size"):
            fit_explanation(local, white_box="ols")

    def test_ols_surrogate_is_fit_ols_on_the_local_rows(self):
        ds = make_regression(3, 60, seed=93, noise=0.3)
        black_box = fit_kernel_ridge(ds, 3, gamma=0.5, ridge=1e-2)
        local = sample_locally(ds, ds.observation(0), "y", size=80, seed=4)
        local = add_predictions(local, black_box)
        table = dataset_from_rows(
            [*local.schema.names, local.response_name],
            [*local.schema.kinds, "numeric"],
            zip(*local.feature_values, local.response),
            local.response_name,
        )
        surrogate = fit_explanation(local, white_box="ols").model
        direct = fit_ols(table, local.response_name)
        assert surrogate.intercept == direct.intercept
        assert np.array_equal(surrogate.coefficients, direct.coefficients)
        assert surrogate.intercept_std_error == direct.intercept_std_error
        assert np.array_equal(surrogate.std_errors, direct.std_errors)
        assert surrogate.residual_variance == direct.residual_variance

    @pytest.mark.parametrize("lambda_", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lambda_):
        ds = make_regression(2, 40, seed=92)
        local = add_predictions(
            sample_locally(ds, ds.observation(0), "y", size=30, seed=1), fit_ols(ds, 2)
        )
        with pytest.raises(ModelError, match="finite"):
            fit_explanation(local, white_box="lasso", lambda_=lambda_)

    def test_constant_black_box_r2_defined(self):
        ds = make_regression(2, 40, seed=92)
        c = ConstantPredictor(schema=ds.schema(), value=3.0)
        local = sample_locally(ds, ds.observation(0), "y", size=50, seed=2)
        local = add_predictions(local, c)
        fit = fit_explanation(local, white_box="lasso", lambda_=0.1)
        assert fit.r2 == 1.0
        assert fit.selected_features == ()

    def test_categorical_reference_is_origin_level(self):
        rows = [
            ("a", 1.0, 10.0),
            ("b", 2.0, 25.0),
            ("c", 3.0, 14.0),
            ("b", 4.0, 29.0),
            ("a", 5.0, 18.0),
            ("c", 0.0, 21.0),
            ("a", 2.0, 12.0),
            ("b", 1.0, 24.0),
        ]
        ds = dataset_from_rows(
            ["g", "x", "y"], ["categorical", "numeric", "numeric"], rows, "y"
        )
        black_box = fit_ols(ds, 2)
        x = ("b", 2.0)
        local = sample_locally(ds, x, "y", size=40, seed=13)
        local = add_predictions(local, black_box)
        fit = fit_explanation(local, white_box="ols")
        # reference level is the explained instance's own level
        encoded = fit.model.encoder.encoded_names
        assert "g=b" not in encoded
        assert {"g=a", "g=c"} <= set(encoded)
        # surrogate reproduces the black box at the origin
        assert fit.model.score_one(x) == pytest.approx(
            black_box.score_one(x), abs=1e-8
        )

    def test_one_nonzero_level_selects_its_feature(self):
        rows = [("a", 1.0), ("b", 2.0), ("c", 3.0), ("b", 4.0), ("a", 5.0), ("c", 0.0)]
        ds = dataset_from_rows(
            ["g", "x", "y"],
            ["categorical", "numeric", "numeric"],
            [(*r, 0.0) for r in rows],
            "y",
        )
        encoder = Encoder.for_schema(ds.schema())
        # the black box reads only the indicator of g == "c"
        black_box = LinearModel(
            schema=ds.schema(),
            encoder=encoder,
            intercept=1.0,
            coefficients=np.array([0.0, 5.0, 0.0]),
            feature_means=np.zeros(3),
        )
        local = sample_locally(ds, ("a", 2.0), "y", size=40, seed=13)
        fit = fit_explanation(add_predictions(local, black_box), "lasso", lambda_=0.1)
        coefficients = dict(zip(fit.model.encoder.encoded_names, fit.model.coefficients))
        assert coefficients["g=b"] == 0.0 and coefficients["x"] == 0.0
        assert coefficients["g=c"] != 0.0
        assert fit.selected_features == ("g",)


class TestLassoCoordinateDescent:
    def test_soft_threshold_on_orthonormal_design(self):
        n, k = 64, 5
        x = orthonormal_design(n, k, seed=100)
        rng = np.random.Generator(np.random.PCG64(101))
        beta_true = np.array([2.0, -1.0, 0.5, 0.0, 3.0])
        y = x @ beta_true + rng.normal(0, 0.1, n)
        y = y - y.mean()
        ols = x.T @ y / n
        for lam in (0.0, 0.2, 0.8, 1.5):
            fit = lasso_coordinate_descent(x, y, lam)
            expected = np.sign(ols) * np.maximum(np.abs(ols) - lam, 0.0)
            assert fit.coefficients == pytest.approx(expected, abs=1e-8)

    def test_lambda_max_zeroes_everything(self):
        ds = make_regression(4, 50, seed=102, noise=0.5)
        x = np.column_stack([c.values for c in ds.feature_columns()])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = ds.response_values() - ds.response_values().mean()
        lam_max = float(np.max(np.abs(x.T @ y))) / len(y)
        for lam in (lam_max, lam_max * 1.5):
            fit = lasso_coordinate_descent(x, y, lam)
            assert np.all(fit.coefficients == 0.0)

    def test_single_feature_closed_form(self):
        n = 40
        rng = np.random.Generator(np.random.PCG64(103))
        x = rng.normal(size=(n, 1))
        x = (x - x.mean()) / x.std()
        y = 1.8 * x[:, 0] + rng.normal(0, 0.2, n)
        y = y - y.mean()
        lam = 0.4
        fit = lasso_coordinate_descent(x, y, lam)
        rho = float(x[:, 0] @ y) / n
        expected = np.sign(rho) * max(abs(rho) - lam, 0.0)
        assert fit.coefficients[0] == pytest.approx(expected, abs=1e-10)

    def test_zero_response(self):
        x = orthonormal_design(30, 3, seed=104)
        fit = lasso_coordinate_descent(x, np.zeros(30), 0.3)
        assert np.all(fit.coefficients == 0.0)

    def test_negative_lambda_rejected(self):
        x = orthonormal_design(20, 2, seed=106)
        with pytest.raises(ModelError):
            lasso_coordinate_descent(x, np.zeros(20), -0.1)



def standardized(local):
    """The standardized design (varying columns only) and the response that
    fit_explanation hands the lasso solver, for numeric features, with the
    mask of varying columns and every column's scale."""
    x = np.column_stack([np.asarray(c, dtype=float) for c in local.feature_values])
    means, scales = x.mean(axis=0), x.std(axis=0)
    usable = scales > 0
    z = np.zeros_like(x)
    z[:, usable] = (x[:, usable] - means[usable]) / scales[usable]
    return z[:, usable], local.response, usable, scales


def coordinate_descent(x, y, lam, start=None):
    """Oracle of the lasso path: cyclic coordinate descent for
    min (1/2n)||y - X b||^2 + lam ||b||_1 with covariance updates (Friedman,
    Hastie & Tibshirani 2010), from zero or from `start`, until no
    coefficient moves by 1e-9 in a sweep. Returns the coefficients and the
    number of sweeps."""
    n, k = x.shape
    gram = (x.T @ x / n).tolist()
    b = [0.0] * k if start is None else [float(v) for v in start]
    grad = (x.T @ y / n - np.array(gram) @ np.array(b)).tolist()
    for sweep in range(1, 100_001):
        max_delta = 0.0
        for j, row in enumerate(gram):
            if row[j] == 0.0:
                continue
            z = grad[j] + row[j] * b[j]
            new = (z - lam) / row[j] if z > lam else (z + lam) / row[j] if z < -lam else 0.0
            step = new - b[j]
            if step:
                grad = [g - gij * step for g, gij in zip(grad, row)]
                b[j] = new
                max_delta = max(max_delta, abs(step))
        if max_delta < 1e-9:
            return np.array(b), sweep
    raise AssertionError("the coordinate-descent oracle did not converge")


def cold_start_cv_errors(z, y, folds=5, points=50):
    """Brute-force oracle of the lasso CV: (lambda, total validation error)
    over the log grid from lambda_max down, every (lambda, fold) fit a
    coordinate descent started from zero. Folds are row index modulo
    `folds`; a fold with an empty training or validation part is skipped."""
    n = len(y)
    lambda_max = float(np.max(np.abs(z.T @ (y - y.mean())), initial=0.0)) / n
    if lambda_max == 0.0:
        return []
    fold_of = np.arange(n) % folds
    errors = []
    for lam in np.geomspace(lambda_max, 1e-4 * lambda_max, points):
        err = 0.0
        for f in range(folds):
            train, val = fold_of != f, fold_of == f
            if not val.any() or not train.any():
                continue
            mu = y[train].mean()
            coefficients, _ = coordinate_descent(z[train], y[train] - mu, float(lam))
            pred = mu + z[val] @ coefficients
            err += float(np.sum((y[val] - pred) ** 2))
        errors.append((float(lam), err))
    return errors


def cold_start_cv(z, y):
    """The oracle's pick: ties in total error prefer the larger lambda."""
    best_lam, best_err = None, np.inf
    for lam, err in cold_start_cv_errors(z, y):
        if err < best_err - 1e-12:
            best_err, best_lam = err, lam
    return best_lam if best_lam is not None else 0.0


def kernel_ridge_local(p, size, seed):
    """Local dataset around one row of a seeded regression table, scored by a
    kernel ridge black box so that the surrogate is not exact."""
    ds = make_regression(p, 60, seed=seed, noise=0.3)
    black_box = fit_kernel_ridge(ds, p, gamma=0.5, ridge=1e-2)
    local = sample_locally(ds, ds.observation(seed % 60), "y", size=size, seed=seed)
    return add_predictions(local, black_box)


def assert_cv_picks_the_cold_start_lambda(local):
    z, y, usable, _ = standardized(local)
    lam = cold_start_cv(z, y)
    fit = fit_explanation(local, white_box="lasso")
    assert fit.lambda_ == lam
    cold, _ = coordinate_descent(z, y - y.mean(), lam)
    names = [n for n, u in zip(local.schema.names, usable) if u]
    assert fit.selected_features == tuple(n for n, b in zip(names, cold) if b != 0.0)


# (p, size, seed): 20 local datasets
PATH_CASES = [(2 + s % 5, 60 + 20 * (s % 4), 300 + s) for s in range(20)]
# sizes 2-4 leave folds 2-4 (size 2) down to fold 4 (size 4) with no
# validation row; every training part still has more rows than columns
SMALL_CASES = [(1, 2, 401), (3, 2, 402), (1, 3, 403), (1, 4, 404), (2, 4, 405)]
# training parts with no more rows than varying columns: the lasso solution
# is not unique and the validation error is flat to the oracle's stopping
# tolerance, so which lambda the oracle picks is set by that tolerance
UNDERDETERMINED_CASES = [(3, 3, 400), (3, 3, 412), (4, 3, 403), (4, 4, 402)]


def constant_in_a_training_fold():
    """A local table whose first column varies only on rows 0, 5, 10, ...:
    fold 0's validation part, so it is constant in fold 0's training part."""
    ds = make_regression(3, 60, seed=77, noise=0.3)
    black_box = fit_kernel_ridge(ds, 3, gamma=0.5, ridge=1e-2)
    local = sample_locally(ds, ds.observation(5), "y", size=100, seed=77)
    x1 = np.full(local.n_rows, local.origin[0], dtype=float)
    x1[::5] = ds.feature_columns()[0].values[:20]
    return add_predictions(replace(local, feature_values=(x1, *local.feature_values[1:])), black_box)


class TestLassoPath:
    @pytest.mark.parametrize("p, size, seed", PATH_CASES + SMALL_CASES)
    def test_cv_picks_the_cold_start_lambda(self, p, size, seed):
        assert_cv_picks_the_cold_start_lambda(kernel_ridge_local(p, size, seed))

    def test_cv_with_a_column_constant_in_one_training_fold(self):
        local = constant_in_a_training_fold()
        z, _, usable, _ = standardized(local)
        assert usable[0] and np.ptp(z[np.arange(local.n_rows) % 5 != 0, 0]) == 0.0
        assert_cv_picks_the_cold_start_lambda(local)

    @pytest.mark.parametrize("p, size, seed", UNDERDETERMINED_CASES)
    def test_cv_pick_on_underdetermined_folds_is_within_stopping_noise(self, p, size, seed):
        """The validation error is flat there; the path's errors differ by
        roundoff, and the tie rule picks the largest lambda on the flat part."""
        local = kernel_ridge_local(p, size, seed)
        z, y, _, _ = standardized(local)
        errors = dict(cold_start_cv_errors(z, y))
        best = min(errors.values())
        fit = fit_explanation(local, white_box="lasso")
        assert errors[fit.lambda_] <= best + 1e-7 * max(1.0, best)
        assert fit.lambda_ == max(lam for lam, err in errors.items() if err <= best + 1e-7 * max(1.0, best))

    @pytest.mark.parametrize("p, size, seed", PATH_CASES[:8])
    def test_surrogate_satisfies_kkt_at_its_lambda(self, p, size, seed):
        """Subgradient conditions of the standardized problem: g_j equals
        lambda sign(beta_j) where beta_j != 0 and |g_j| <= lambda elsewhere,
        with g = Z'(y - mean y - Z beta) / n."""
        local = kernel_ridge_local(p, size, seed)
        fit = fit_explanation(local, white_box="lasso")
        z, y, usable, scales = standardized(local)
        beta = np.asarray(fit.model.coefficients)[usable] * scales[usable]
        g = z.T @ (y - y.mean() - z @ beta) / len(y)
        lam = fit.lambda_
        assert lam > 0.0
        for gj, bj in zip(g, beta):
            if bj != 0.0:
                assert abs(gj - lam * math.copysign(1.0, bj)) <= 1e-7
            else:
                assert abs(gj) <= lam + 1e-7

    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
    def test_cv_on_an_exactly_linear_black_box_at_scale(self, scale):
        """The residual sum of squares of a near-exact fit is tiny next to
        y'y/2n; the fit must still be found at every scale."""
        ds = make_regression(6, 80, seed=3, coefficients=np.linspace(-3.0, 3.0, 6) * scale)
        local = sample_locally(ds, ds.observation(1), "y", size=300, seed=3)
        fit = fit_explanation(add_predictions(local, fit_ols(ds, 6)), white_box="lasso")
        assert fit.r2 > 0.999


class TestLassoWarmStart:
    """Coordinate descent (the oracle) started anywhere lands on the path's
    solution, and started at it moves nothing."""

    @staticmethod
    def design(seed):
        ds = make_regression(5, 80, seed=seed, noise=1.0)
        x = np.column_stack([c.values for c in ds.feature_columns()])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = ds.response_values() - ds.response_values().mean()
        return x, y, float(np.max(np.abs(x.T @ y))) / len(y)

    @pytest.mark.parametrize("seed", range(6))
    def test_any_start_reaches_the_cold_start_solution(self, seed):
        x, y, lam_max = self.design(110 + seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        for lam in (0.0, 0.01 * lam_max, 0.3 * lam_max, 1.2 * lam_max):
            path = lasso_coordinate_descent(x, y, lam)
            warm, _ = coordinate_descent(x, y, lam, start=rng.normal(0.0, 3.0, size=x.shape[1]))
            assert warm == pytest.approx(path.coefficients, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_start_at_the_solution_stops_in_one_sweep(self, seed):
        x, y, lam_max = self.design(120 + seed)
        for lam in (0.0, 0.01 * lam_max, 0.3 * lam_max, 1.2 * lam_max):
            fit = lasso_coordinate_descent(x, y, lam)
            again, sweeps = coordinate_descent(x, y, lam, start=fit.coefficients)
            assert sweeps == 1
            assert again == pytest.approx(fit.coefficients, abs=1e-9)


def training_folds(z, y):
    """The centred training parts `_cross_validate_lambda` fits, with its grid."""
    n = len(y)
    lambda_max = float(np.max(np.abs(z.T @ (y - y.mean())), initial=0.0)) / n
    fold_of = np.arange(n) % 5
    folds = []
    for f in range(5):
        train = fold_of != f
        if train.all() or not train.any():
            continue
        folds.append((z[train], y[train] - y[train].mean()))
    return _lambda_grid(lambda_max), folds


class TestLassoPathEquivalence:
    @pytest.mark.parametrize("p, size, seed", PATH_CASES + SMALL_CASES + UNDERDETERMINED_CASES)
    def test_path_equals_a_chain_of_warm_started_fits(self, p, size, seed):
        """Each fold's path, read at every grid lambda, against coordinate
        descent down the grid, each fit started from the previous one. The
        fitted values X b and the norm ||b||_1 are the same for every lasso
        solution (Tibshirani 2013, Lemma 1), so they are compared also where
        the solution is not unique."""
        z, y, _, _ = standardized(kernel_ridge_local(p, size, seed))
        grid, folds = training_folds(z, y)
        assert folds
        for xt, yt in folds:
            path = _read_path(*one_path(xt, yt, grid[-1]), grid)
            start = None
            for lam, b in zip(grid, path):
                start, _ = coordinate_descent(xt, yt, float(lam), start=start)
                assert xt @ b == pytest.approx(xt @ start, abs=1e-8)
                assert np.abs(b).sum() == pytest.approx(np.abs(start).sum(), abs=1e-8)


def one_path(x, y, lambda_min):
    """The knots of one problem's path, walked as a stack of one."""
    [path] = _lasso_knots([_moments(x, y)], lambda_min)
    return path


def assert_kkt(x, y, lam, beta, tol):
    """Subgradient conditions of min (1/2n)||y - X b||^2 + lam ||b||_1 at beta."""
    g = x.T @ (y - x @ beta) / len(y)
    for gj, bj in zip(g, beta):
        if bj != 0.0:
            assert abs(gj - lam * math.copysign(1.0, bj)) <= tol
        else:
            assert abs(gj) <= lam + tol


# (explained wine row, sample seed): sha256 of the knots' bytes
KNOT_DIGESTS = {
    (0, 1): "c65830ab803f514738f769fe4be4b41398f403b87684d593d217b0e78eff429c",
    (4, 2): "a3d33c921e49d2f84996ee9bc29b2629b014ef6d1ac9f47bbe4bd8804dca5445",
    (9, 3): "a37b44eb29680ee2931cbabf1c99fa2fb7bc8aa48459d810ba83b875c0dcd1d7",
    (20, 4): "4c3989e4fd0c219883a2318e5cd89f4f25f49ef47a914f2f5ccd580b4a57930a",
    (100, 5): "be476a671aa73f728be14cb3afafc8f3d9649ed70d72fad2104506cfa08addc5",
}


class TestLassoKnots:
    @pytest.mark.parametrize("p, size, seed", PATH_CASES)
    def test_kkt_at_every_knot(self, p, size, seed):
        """Every knot of the full table's path and of each fold's path is a
        lasso solution at its lambda, to 1e-12; the knots fall from
        lambda_max, where the coefficients are 0, to the smallest grid lambda."""
        z, y, _, _ = standardized(kernel_ridge_local(p, size, seed))
        grid, folds = training_folds(z, y)
        for xt, yt in [(z, y - y.mean()), *folds]:
            lams, betas = one_path(xt, yt, grid[-1])
            assert lams[0] == pytest.approx(np.max(np.abs(xt.T @ yt)) / len(yt), rel=1e-15)
            assert np.all(betas[0] == 0.0) and lams[-1] == grid[-1]
            assert np.all(np.diff(lams) < 0.0)
            for lam, beta in zip(lams, betas):
                assert_kkt(xt, yt, lam, beta, 1e-12)

    def test_kkt_at_every_knot_on_correlated_columns(self):
        """Two columns correlated at 0.99, on which coordinate descent needs
        hundreds of sweeps and stops about 5e-8 short of the solution."""
        rng = np.random.Generator(np.random.PCG64(7))
        a = rng.normal(size=50)
        x = np.column_stack(
            [a, 0.99 * a + math.sqrt(1 - 0.99**2) * rng.normal(size=50), rng.normal(size=50)]
        )
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = x @ np.array([1.0, -1.0, 0.5]) + rng.normal(0.0, 0.1, 50)
        y = y - y.mean()
        lams, betas = one_path(x, y, 0.0)
        assert lams[-1] == 0.0
        for lam, beta in zip(lams, betas):
            assert_kkt(x, y, lam, beta, 1e-12)
        assert_kkt(x, y, 1e-3, lasso_coordinate_descent(x, y, 1e-3).coefficients, 1e-12)

    def test_the_path_is_linear_between_knots(self):
        z, y, _, _ = standardized(kernel_ridge_local(4, 100, 302))
        y = y - y.mean()
        lams, betas = one_path(z, y, 0.0)
        for hi, lo, b_hi, b_lo in zip(lams, lams[1:], betas, betas[1:]):
            mid = 0.5 * (hi + lo)
            assert_kkt(z, y, mid, 0.5 * (b_hi + b_lo), 1e-12)
            assert lasso_coordinate_descent(z, y, mid).coefficients == pytest.approx(
                0.5 * (b_hi + b_lo), abs=1e-15
            )

    def test_a_wrong_knot_fails_the_certificate(self):
        x = orthonormal_design(40, 3, seed=150)
        y = x @ np.array([1.5, -0.5, 2.0])
        gram, corr = x.T @ x / 40, x.T @ y / 40
        lam = 0.25
        beta = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
        signs = np.sign(beta)
        _certify(gram[None], corr[None], beta[None], signs[None], np.array([lam]), 1e-12)
        for wrong in (beta * (1 + 1e-9), -beta, np.zeros(3)):
            with pytest.raises(ModelError, match="optimality"):
                _certify(gram[None], corr[None], wrong[None], signs[None], np.array([lam]), 1e-12)

    def test_reaching_the_knot_cap_is_a_convergence_error(self, monkeypatch):
        x = orthonormal_design(40, 3, seed=151)
        y = x @ np.array([1.5, -0.5, 2.0])
        assert lasso_coordinate_descent(x, y, 0.0).n_sweeps == 3
        monkeypatch.setattr(live, "KNOT_CAP_PER_COLUMN", 0)
        with pytest.raises(ConvergenceError, match="steps"):
            lasso_coordinate_descent(x, y, 0.0)

    def test_every_knot_is_certified_to_its_roundoff_bound(self, monkeypatch):
        """Each knot below lambda_max goes through `_certify` once, with the
        tolerance 2^10 (k + 1) eps (|c| + |G_.A| (|u| + lam |d|))."""
        z, y, _, _ = standardized(kernel_ridge_local(4, 100, 302))
        k = z.shape[1]
        calls = []
        monkeypatch.setattr(live, "_certify", lambda *args: calls.append(list(map(np.copy, args))))
        lams, _ = one_path(z, y - y.mean(), 0.0)
        # each call stacks the problems that took a knot, here the one problem
        assert all(len(call[4]) == 1 for call in calls)
        assert [float(call[4][0]) for call in calls] == lams[1:].tolist()
        for gram, corr, _, signs, lam, tol in (list(map(np.squeeze, call)) for call in calls):
            a = np.flatnonzero(signs)
            u, d = np.linalg.solve(gram[np.ix_(a, a)], np.column_stack([corr[a], signs[a]])).T
            terms = np.abs(corr) + np.abs(gram[:, a]) @ (np.abs(u) + lam * np.abs(d))
            assert tol == pytest.approx(2.0**10 * (k + 1) * np.finfo(float).eps * terms, rel=1e-9)

    def test_a_column_just_off_the_span_joins(self):
        """A column whose distance from the others' span is about 100 times
        the spanned-column bound is free to join; y needs it, so the path
        ends in the exact fit at lambda 0, up to the roundoff of a Gram
        matrix whose condition number is about 1e10."""
        rng = np.random.Generator(np.random.PCG64(153))
        a, b, w = rng.normal(size=(3, 60))
        x = np.column_stack([a, b, a + 1e-5 * w])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = x[:, 0] + x[:, 1] + w
        y = y - y.mean()
        lams, betas = one_path(x, y, 0.0)
        assert lams[-1] == 0.0 and np.all(betas[-1] != 0.0)
        assert x @ betas[-1] == pytest.approx(y, abs=1e-3)

    def test_a_column_barely_off_the_span_never_joins(self):
        """Column 0 lies off the span of the active columns 1 and 2 by a
        residual diagonal of about 0.04 times the spanned-column bound, inside
        it, so it never joins, though y = x_0 + x_1 needs it: the path ends at
        lambda 0 without the exact fit. A bound 1e-3 times as large lets it join."""
        rng = np.random.Generator(np.random.PCG64(154))
        a, b, w = rng.normal(size=(3, 60))
        x = np.column_stack([a, b, a + 2e-7 * w])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = x[:, 0] + x[:, 1]
        gram, corr = _moments(x, y)
        residual = gram[0, 0] - gram[0, 1:] @ np.linalg.solve(gram[1:, 1:], gram[1:, 0])
        assert 0.01 < residual / live._roundoff(gram[0, 0], 3) < 0.1
        lams, betas = one_path(x, y, 0.0)
        assert lams[-1] == 0.0 and np.all(betas[:, 0] == 0.0) and np.all(betas[-1, 1:] != 0.0)
        assert np.max(np.abs(y - x @ betas[-1])) > 1e-7
        assert_kkt(x, y, 0.0, betas[-1], 1e-12)

    @pytest.mark.parametrize("row, seed", sorted(KNOT_DIGESTS))
    def test_knots_keep_their_bits(self, wine, row, seed):
        """The full data's path and each CV fold's on a seeded wine
        neighbourhood, whose response is a fixed nonlinear function of three
        features; the digests were recorded with numpy 2.4.6 on
        scipy-openblas 0.3.31."""
        z, y, _, _ = standardized(wine_neighbourhood(wine, row, 150, seed))
        grid, folds = training_folds(z, y)
        digest = hashlib.sha256()
        problems = [_moments(xt, yt) for xt, yt in [(z, y - y.mean()), *folds]]
        for lams, betas in _lasso_knots(problems, grid[-1]):
            digest.update(lams.tobytes() + betas.tobytes())
        assert digest.hexdigest() == KNOT_DIGESTS[row, seed]

    def test_duplicate_columns_keep_the_first(self):
        """Columns equal up to sign tie at every lambda, and the lasso
        solution is not unique; the path keeps the lowest-index one of them.
        Its fitted values and l1 norm are those of coordinate descent."""
        rng = np.random.Generator(np.random.PCG64(152))
        a, b = rng.normal(size=30), rng.normal(size=30)
        x = np.column_stack([a, b, -a, a])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = x @ np.array([2.0, 1.0, 0.0, 0.0]) + rng.normal(0.0, 0.1, 30)
        y = y - y.mean()
        for lam in (0.01, 0.1, 0.5):
            fit = lasso_coordinate_descent(x, y, lam)
            cd, _ = coordinate_descent(x, y, lam)
            assert fit.coefficients[2:].tolist() == [0.0, 0.0]
            assert x @ fit.coefficients == pytest.approx(x @ cd, abs=1e-8)
            assert np.abs(fit.coefficients).sum() == pytest.approx(np.abs(cd).sum(), abs=1e-8)
            assert_kkt(x, y, lam, fit.coefficients, 1e-12)


def cv_problems(z, y):
    """The stack `_cross_validate_lambda` walks: each fold's moments, then
    the whole table's, with the grid's smallest lambda."""
    grid, folds = training_folds(z, y)
    return [_moments(xt, yt) for xt, yt in [*folds, (z, y - y.mean())]], grid[-1]


def path_bytes(path):
    lams, betas = path
    return lams.tobytes(), betas.tobytes()


class TestLassoStack:
    @pytest.mark.parametrize("p, size, seed", PATH_CASES[:6] + SMALL_CASES + UNDERDETERMINED_CASES)
    def test_each_path_has_the_same_bits_alone_and_in_the_stack(self, p, size, seed):
        z, y, _, _ = standardized(kernel_ridge_local(p, size, seed))
        problems, lambda_min = cv_problems(z, y)
        stacked = _lasso_knots(problems, lambda_min)
        for problem, path in zip(problems, stacked):
            assert path_bytes(_lasso_knots([problem], lambda_min)[0]) == path_bytes(path)
        assert [path_bytes(path) for path in _lasso_knots(problems[::-1], lambda_min)] == [
            path_bytes(path) for path in stacked[::-1]
        ]

    def test_problems_that_finish_at_different_steps(self):
        """The CV stack of a local table whose first column is constant in
        fold 0's training part, with a zero response that takes no step and a
        path on which column 0 leaves and joins again, so the problems finish
        after 0 to 5 steps; each keeps its bits alone."""
        z, y, _, _ = standardized(constant_in_a_training_fold())
        assert np.ptp(z[np.arange(len(y)) % 5 != 0, 0]) == 0.0
        problems, lambda_min = cv_problems(z, y)
        problems += [_moments(z, np.zeros(len(y))), self.rejoining()]
        stacked = _lasso_knots(problems, lambda_min)
        assert len({len(lams) for lams, _ in stacked}) >= 3
        assert len(stacked[-2][0]) == 1 and len(stacked[-1][0]) == 6
        for problem, path in zip(problems, stacked):
            assert path_bytes(_lasso_knots([problem], lambda_min)[0]) == path_bytes(path)

    @staticmethod
    def rejoining():
        """Three columns, two correlated at about 0.95; column 0 joins,
        leaves and joins again with the other sign: 5 steps down to 0."""
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.normal(size=(30, 3))
        x[:, 2] = 0.9 * x[:, 0] + 0.3 * x[:, 2]
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = 2.0 * x @ rng.normal(size=3) + rng.normal(0.0, 0.3, 30)
        return _moments(x, y - y.mean())

    def test_a_stack_with_one_problem_past_the_cap_raises(self, monkeypatch):
        """With a cap of 4 steps on 3 columns the rejoining path (5 steps)
        fails alone and in any stack; a 3-step path alone does not."""
        x = orthonormal_design(40, 3, seed=151)
        three = _moments(x, x @ np.array([1.5, -0.5, 2.0]))
        monkeypatch.setattr(live, "KNOT_CAP_PER_COLUMN", 1)
        assert len(_lasso_knots([three], 0.0)[0][0]) == 4
        for stack in ([self.rejoining()], [three, self.rejoining()], [self.rejoining(), three]):
            with pytest.raises(ConvergenceError, match="4 steps"):
                _lasso_knots(stack, 0.0)


def lasso_design(local):
    """The standardized varying columns `fit_explanation` hands the lasso,
    the mask of varying columns and their scales."""
    encoder = Encoder.for_schema(local.schema, {})
    _, scales, z = _standardize(encoder.encode_columns(list(local.feature_values)), encoder.encoded_names)
    usable = scales > 0
    return z[:, usable], usable, scales[usable]


def wine_neighbourhood(wine, row, size, seed):
    """A seeded wine neighbourhood scored by a fixed nonlinear function of three features."""
    local = sample_locally(wine, wine.observation(row), "quality", size=size, seed=seed)
    alcohol, sulphates, volatile = (
        local.feature_values[wine.feature_names.index(name)]
        for name in ("alcohol", "sulphates", "volatile_acidity")
    )
    return replace(local, response=alcohol * sulphates - np.log1p(volatile))


class TestCrossValidatedFit:
    def assert_final_fit_is_the_one_lambda_fit(self, local):
        """The CV fit's coefficients, read off the whole table's path in the
        CV stack, against `lasso_coordinate_descent` and `fit_explanation`
        at the picked lambda, both walked alone down to it."""
        fit = fit_explanation(local, white_box="lasso")
        z, usable, scales = lasso_design(local)
        y = local.response
        one = lasso_coordinate_descent(z, y - y.mean(), fit.lambda_).coefficients
        coefficients = np.asarray(fit.model.coefficients)
        assert coefficients[usable] * scales == pytest.approx(one, abs=1e-12, rel=0.0)
        explicit = fit_explanation(local, white_box="lasso", lambda_=fit.lambda_)
        assert explicit.selected_features == fit.selected_features
        assert np.asarray(explicit.model.coefficients) == pytest.approx(coefficients, abs=1e-12, rel=0.0)
        assert explicit.model.intercept == pytest.approx(fit.model.intercept, abs=1e-12, rel=0.0)

    @pytest.mark.parametrize("row, seed", [(0, 1), (4, 2), (9, 3), (100, 5)])
    def test_on_bench_style_neighbourhoods(self, wine, row, seed):
        self.assert_final_fit_is_the_one_lambda_fit(wine_neighbourhood(wine, row, 500, seed))

    @pytest.mark.parametrize("p, size, seed", SMALL_CASES + UNDERDETERMINED_CASES)
    def test_on_tiny_neighbourhoods(self, p, size, seed):
        self.assert_final_fit_is_the_one_lambda_fit(kernel_ridge_local(p, size, seed))

    def test_memory_per_local_row(self, wine, wine_ols):
        """A CV lasso fit on 40,000 local rows of the wine fixture (11
        features) peaks at no more than 0.6 KB per row under tracemalloc."""
        size = 40_000
        local = add_predictions(sample_locally(wine, wine.observation(3), "quality", size, 8), wine_ols)
        tracemalloc.start()
        try:
            fit_explanation(local, white_box="lasso")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 600 * size


def sweep_local(p, size, seed):
    """A local dataset of the seeded kernel-ridge sweep: 40 regression rows,
    row 3 explained, the sample seed equal to the table's."""
    ds = make_regression(p, 40, seed, noise=0.3)
    black_box = fit_kernel_ridge(ds, p, gamma=0.5, ridge=0.1)
    return add_predictions(sample_locally(ds, ds.observation(3), "y", size=size, seed=seed), black_box)


class TestTinyLocalSamples:
    """Local samples of 3-5 rows: the first five ran coordinate descent out of
    sweeps; in the last two, folds of 3 rows tie columns equal up to sign at
    lambda_max, and the path fails unless such columns never join."""

    @pytest.mark.parametrize(
        "local, p, size, seed",
        [(sweep_local, 4, 3, 416), (kernel_ridge_local, 2, 3, 419), (kernel_ridge_local, 2, 4, 406),
         (kernel_ridge_local, 3, 4, 414), (kernel_ridge_local, 3, 5, 414),
         (sweep_local, 4, 4, 412), (kernel_ridge_local, 4, 4, 405)],
    )
    def test_lasso_surrogate_is_fitted(self, local, p, size, seed):
        local = local(p, size, seed)
        fit = fit_explanation(local, white_box="lasso")
        z, y, usable, scales = standardized(local)
        beta = np.asarray(fit.model.coefficients)[usable] * scales[usable]
        assert_kkt(z, y - y.mean(), fit.lambda_, beta, 1e-9)


class TestOverflowingSpread:
    def test_lasso_surrogate_names_the_column(self, recwarn):
        ds = overflowing_table()
        local = sample_locally(ds, ds.observation(0), "y", size=40, seed=3)
        a, b = local.feature_values
        local = replace(local, response=3.0 * np.sign(a) + b)
        with pytest.raises(ModelError, match="'a'"):
            fit_explanation(local, white_box="lasso")
        assert not recwarn.list

    def test_kernel_ridge_names_the_column(self, recwarn):
        with pytest.raises(ModelError, match="'a'"):
            fit_kernel_ridge(overflowing_table(), "y", gamma=0.5, ridge=0.1)
        assert not recwarn.list


def test_surrogate_numbers_that_overflow_are_model_errors():
    rows = [(k * 1e-200, float(k % 3)) for k in range(1, 9)]
    ds = dataset_from_rows(["a", "y"], ["numeric"] * 2, rows, "y")
    model = fit_kernel_ridge(ds, "y", 1.0, 0.1)
    local = add_predictions(sample_locally(ds, ds.observation(0), "y", 40, 1), model)
    # a feature of scale 1e-200: the inverse of R, so the standard errors, overflow
    with pytest.raises(ModelError, match="^least-squares standard errors overflow; rescale"):
        fit_explanation(local, "ols")
    # responses of +-1e200 have a finite mean, but their squares overflow
    spread = replace(local, response=np.where(np.arange(40) % 2, 1e200, -1e200))
    with pytest.raises(ModelError, match="^the surrogate's squared errors overflow"):
        fit_explanation(spread, "lasso", 0.1)
