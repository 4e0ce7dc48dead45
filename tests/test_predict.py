import numpy as np
import pytest

from explainkit import (
    ConstantPredictor,
    DataError,
    Encoder,
    LinearModel,
    ModelError,
    SchemaError,
    ScorerError,
    dataset_from_rows,
    external_scorer,
    fit_kernel_ridge,
    fit_ols,
    sample_locally,
)
from explainkit.tabular import NUMERIC, Column, Dataset, FeatureSchema

from conftest import fixture_command, make_regression


def _schema(p):
    return FeatureSchema(
        names=tuple(f"x{i + 1}" for i in range(p)),
        kinds=("numeric",) * p,
        levels=(None,) * p,
    )


def _linear(p, mu, betas, means=None):
    schema = _schema(p)
    return LinearModel(
        schema=schema,
        encoder=Encoder.for_schema(schema),
        intercept=mu,
        coefficients=np.asarray(betas, dtype=float),
        feature_means=np.zeros(p) if means is None else np.asarray(means, dtype=float),
    )


class TestFitOls:
    def test_exact_line(self):
        ds = dataset_from_rows(
            ["x", "y"], ["numeric"] * 2, [(x, 2 * x + 1) for x in range(4)], "y"
        )
        m = fit_ols(ds, 1)
        assert m.intercept == pytest.approx(1.0, abs=1e-12)
        assert m.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert m.residual_variance == pytest.approx(0.0, abs=1e-20)

    def test_constant_response(self):
        ds = dataset_from_rows(
            ["x", "y"], ["numeric"] * 2, [(x, 4.0) for x in range(5)], "y"
        )
        m = fit_ols(ds, 1)
        assert m.intercept == pytest.approx(4.0, abs=1e-12)
        assert m.coefficients[0] == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_recovery(self):
        ds = make_regression(2, 200, seed=11, coefficients=[3.0, -1.0], intercept=0.5)
        m = fit_ols(ds, 2)
        assert m.intercept == pytest.approx(0.5, abs=1e-10)
        assert m.coefficients == pytest.approx([3.0, -1.0], abs=1e-10)

    def test_rank_deficiency_names_column(self):
        rows = [(x, 2 * x, x + 1.0) for x in range(6)]
        ds = dataset_from_rows(["a", "b", "y"], ["numeric"] * 3, rows, "y")
        with pytest.raises(ModelError, match="'b'"):
            fit_ols(ds, 2)

    def test_too_few_rows(self):
        ds = dataset_from_rows(
            ["a", "b", "y"], ["numeric"] * 3, [(1, 2, 3), (2, 3, 4), (0, 1, 5)], "y"
        )
        with pytest.raises(ModelError, match="rows"):
            fit_ols(ds, 2)

    def test_residuals_sum_to_zero(self):
        ds = make_regression(3, 80, seed=5, noise=0.7)
        m = fit_ols(ds, 3)
        preds = m.score_rows([ds.observation(i) for i in range(ds.n_rows)])
        resid = ds.response_values() - preds
        scale = float(np.abs(ds.response_values()).mean())
        assert abs(resid.sum()) <= 1e-9 * max(scale, 1.0) * ds.n_rows

    def test_stderr_nonnegative_and_sized(self):
        ds = make_regression(3, 60, seed=6, noise=0.3)
        m = fit_ols(ds, 3)
        assert len(m.std_errors) == len(m.coefficients) == len(m.feature_means)
        assert np.all(m.std_errors >= 0)

    def test_categorical_one_hot(self):
        rows = [
            ("a", 1.0, 10.0),
            ("b", 2.0, 22.0),
            ("a", 3.0, 14.0),
            ("b", 4.0, 26.0),
            ("a", 5.0, 18.0),
            ("b", 0.0, 18.0),
            ("a", 2.0, 12.0),
        ]
        ds = dataset_from_rows(
            ["g", "x", "y"], ["categorical", "numeric", "numeric"], rows, "y"
        )
        m = fit_ols(ds, 2)
        # y = 8 + 2x + 10*[g=b]
        assert m.score_one(("a", 1.0)) == pytest.approx(10.0, abs=1e-9)
        assert m.score_one(("b", 1.0)) == pytest.approx(20.0, abs=1e-9)

    def test_encode_observation_matches_encode_columns(self):
        ds = dataset_from_rows(
            ["g", "x", "y"],
            ["categorical", "numeric", "numeric"],
            [("a", 1.0, 1.0), ("b", 2.0, 3.0), ("c", 0.5, 2.0), ("a", 4.0, 6.0), ("b", 1.5, 2.5)],
            "y",
        )
        enc = fit_ols(ds, 2).encoder
        assert enc.encode_observation(("c", "2.5")).tolist() == [0.0, 1.0, 2.5]
        for bad in [("c",), ("d", 1.0), ("a", "nan")]:
            with pytest.raises(SchemaError):
                enc.encode_observation(bad)


# The response/feature split is decided once, by Dataset.with_response, for
# every library entry point that takes a response argument.
RESPONSE_TAKERS = {
    "fit_ols": lambda ds, response: fit_ols(ds, response),
    "fit_kernel_ridge": lambda ds, response: fit_kernel_ridge(ds, response, 1.0, 0.1),
    "sample_locally": lambda ds, response: sample_locally(ds, (), response, size=5, seed=1),
}


@pytest.mark.parametrize("response", [0, "y"])
@pytest.mark.parametrize("entry", sorted(RESPONSE_TAKERS))
def test_response_only_table_is_data_error(entry, response):
    only = Dataset(columns=(Column("y", NUMERIC, np.array([1.0, 2.0, 3.0])),))
    with pytest.raises(DataError, match="no feature columns"):
        RESPONSE_TAKERS[entry](only, response)


@pytest.mark.parametrize("response", [0, "fixed_acidity"])
@pytest.mark.parametrize("entry", sorted(RESPONSE_TAKERS))
def test_disagreeing_response_is_data_error(wine, entry, response):
    with pytest.raises(DataError, match="disagrees"):
        RESPONSE_TAKERS[entry](wine, response)


@pytest.mark.parametrize("entry", ["fit_ols", "fit_kernel_ridge"])
def test_non_numeric_response_is_data_error(entry):
    ds = dataset_from_rows(
        ["g", "x"], ["categorical", "numeric"], [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]
    )
    with pytest.raises(DataError, match="not numeric"):
        RESPONSE_TAKERS[entry](ds, "g")


def test_response_by_name_matches_index():
    designated = make_regression(3, 30, seed=4)
    table = Dataset(designated.columns)
    for response in (3, "y"):
        ols = fit_ols(table, response)
        assert ols.schema == designated.schema()
        assert np.array_equal(ols.coefficients, fit_ols(designated, 3).coefficients)
        krr = fit_kernel_ridge(table, response, 0.5, 0.1)
        assert np.array_equal(
            krr.dual_weights, fit_kernel_ridge(designated, 3, 0.5, 0.1).dual_weights
        )


class TestScore:
    def test_constant(self):
        p = ConstantPredictor(schema=_schema(2), value=5.61)
        assert p.score_rows([(0.0, 0.0), (9.0, -3.0)]).tolist() == [5.61, 5.61]

    def test_linear_direct_evaluation(self):
        m = _linear(1, 1.0, [2.0], means=[99.0])
        assert m.score_one((3.0,)) == pytest.approx(7.0, abs=1e-12)

    def test_empty_batch(self):
        m = _linear(1, 1.0, [2.0])
        assert m.score_rows([]).tolist() == []

    def test_batch_equals_rowwise(self, wine, wine_ols):
        rows = [wine.observation(i) for i in range(25)]
        batch = wine_ols.score_rows(rows)
        single = [wine_ols.score_one(r) for r in rows]
        assert batch == pytest.approx(single, abs=1e-12)

    def test_linear_identity_against_formula(self):
        rng = np.random.Generator(np.random.PCG64(3))
        m = _linear(4, 0.7, rng.normal(size=4))
        for _ in range(20):
            x = rng.normal(size=4)
            expected = 0.7 + float(x @ m.coefficients)
            assert m.score_one(tuple(x)) == pytest.approx(expected, abs=1e-12)

    def test_schema_mismatch(self):
        m = _linear(2, 0.0, [1.0, 1.0])
        with pytest.raises(SchemaError):
            m.score_rows([(1.0,)])


class TestKernelRidge:
    def test_no_interpolation_with_ridge(self):
        ds = make_regression(1, 12, seed=21, coefficients=[2.0], noise=0.4)
        m = fit_kernel_ridge(ds, 1, gamma=0.8, ridge=0.5)
        y = ds.response_values()
        preds = np.asarray(m.score_rows([ds.observation(i) for i in range(ds.n_rows)]))
        # fitted values shrink toward the response mean overall and never
        # reproduce the training responses exactly
        assert np.abs(preds - y.mean()).mean() < np.abs(y - y.mean()).mean()
        assert np.all(np.abs(preds - y) > 1e-6)

    def test_symmetric_two_points(self):
        ds = dataset_from_rows(
            ["x", "y"], ["numeric"] * 2, [(-1.0, -1.0), (1.0, 1.0)], "y"
        )
        m = fit_kernel_ridge(ds, 1, gamma=0.5, ridge=1e-3)
        assert m.score_one((0.0,)) == pytest.approx(0.0, abs=1e-12)

    def test_against_dense_solver_oracle(self):
        ds = make_regression(3, 50, seed=33, noise=0.2)
        gamma, ridge = 0.5, 1e-3
        m = fit_kernel_ridge(ds, 3, gamma=gamma, ridge=ridge)

        # independent oracle: loops + lstsq on the regularized system
        x = np.column_stack([c.values for c in ds.feature_columns()])
        y = ds.response_values()
        mu, sd = x.mean(axis=0), x.std(axis=0)
        z = (x - mu) / sd
        n = len(y)
        k = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                d = z[i] - z[j]
                k[i, j] = np.exp(-gamma * float(d @ d))
        alpha, *_ = np.linalg.lstsq(k + ridge * np.eye(n), y - y.mean(), rcond=None)

        test_rows = [ds.observation(i) for i in range(10)]
        got = m.score_rows(test_rows)
        for r, (row) in enumerate(test_rows):
            zi = (np.array(row) - mu) / sd
            ks = np.array([np.exp(-gamma * float((zi - z[j]) @ (zi - z[j]))) for j in range(n)])
            expected = y.mean() + float(ks @ alpha)
            assert got[r] == pytest.approx(expected, abs=1e-8)

    def test_training_error_decreases_with_ridge(self):
        ds = make_regression(2, 30, seed=44, noise=0.3)
        y = ds.response_values()
        rows = [ds.observation(i) for i in range(ds.n_rows)]
        errors = []
        for ridge in (1e-2, 1e-4, 1e-6):
            m = fit_kernel_ridge(ds, 2, gamma=1.0, ridge=ridge)
            errors.append(float(np.max(np.abs(m.score_rows(rows) - y))))
        assert errors[0] > errors[1] > errors[2]

    def test_rejects_categorical(self):
        ds = dataset_from_rows(
            ["g", "y"], ["categorical", "numeric"], [("a", 1.0), ("b", 2.0)], "y"
        )
        with pytest.raises(ModelError, match="numeric"):
            fit_kernel_ridge(ds, 1, gamma=1.0, ridge=0.1)

    def test_parameter_validation(self):
        ds = make_regression(1, 10, seed=1)
        with pytest.raises(ModelError):
            fit_kernel_ridge(ds, 1, gamma=0.0, ridge=0.1)
        with pytest.raises(ModelError):
            fit_kernel_ridge(ds, 1, gamma=1.0, ridge=-1.0)


class TestExternalScorer:
    def test_identity_first_column(self):
        p = external_scorer(fixture_command("identity_first_column.py"), _schema(2))
        assert p.score_rows([(3.0, 8.0), (4.0, -1.0)]).tolist() == [3.0, 4.0]

    def test_nonzero_exit_carries_status_and_stderr(self):
        p = external_scorer(fixture_command("failing_scorer.py"), _schema(1))
        with pytest.raises(ScorerError) as err:
            p.score_rows([(1.0,)])
        assert err.value.exit_status == 1
        assert "deliberate failure" in err.value.stderr_text

    def test_short_output_detected(self):
        p = external_scorer(fixture_command("short_output_scorer.py"), _schema(1))
        with pytest.raises(ScorerError, match="2 scores for 3 rows"):
            p.score_rows([(1.0,), (2.0,), (3.0,)])

    def test_unspawnable_command(self):
        p = external_scorer(["/nonexistent/binary-xyz"], _schema(1))
        with pytest.raises(ScorerError, match="spawn"):
            p.score_rows([(1.0,)])

    def test_output_not_utf8(self):
        p = external_scorer(fixture_command("non_utf8_output_scorer.py"), _schema(1))
        with pytest.raises(ScorerError, match="not UTF-8") as err:
            p.score_rows([(1.0,)])
        assert err.value.exit_status == 0

    def test_stderr_not_utf8_still_reports_the_failure(self):
        p = external_scorer(fixture_command("non_utf8_stderr_scorer.py"), _schema(1))
        with pytest.raises(ScorerError, match="failed") as err:
            p.score_rows([(1.0,)])
        assert err.value.exit_status == 3
        assert err.value.stderr_text == "bad byte �\n"

    def test_matches_in_process_linear_model(self):
        mu, betas = 0.25, [1.5, -2.0, 0.75]
        external = external_scorer(
            fixture_command("linear_scorer.py", str(mu), *[str(b) for b in betas]),
            _schema(3),
        )
        in_process = _linear(3, mu, betas)
        rng = np.random.Generator(np.random.PCG64(8))
        rows = [tuple(rng.normal(size=3)) for _ in range(50)]
        got = external.score_rows(rows)
        want = in_process.score_rows(rows)
        assert got == pytest.approx(want, abs=1e-9)

    def test_empty_batch_skips_spawn(self):
        p = external_scorer(["/nonexistent/binary-xyz"], _schema(1))
        assert p.score_rows([]).tolist() == []
