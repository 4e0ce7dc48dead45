import csv
import dataclasses
import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from explainkit import predict
from explainkit.predict import (
    KERNEL_BLOCK_ENTRIES,
    _format_cell,
    _lift_batch,
    _lift_train,
    _rbf,
)
from explainkit.tabular import NUMERIC, Column, Dataset, FeatureSchema

from conftest import fixture_command, make_regression, overflowing_table


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

    def test_a_column_near_the_float_limit_fits(self):
        # `a`'s norm overflows; its R diagonal is measured against its largest
        # entry, so the intercept's is not measured against an overflowed one
        m = fit_ols(overflowing_table(), "y")
        assert np.all(np.isfinite(m.coefficients)) and np.isfinite(m.intercept)

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

    def test_encode_columns_equals_a_loop_over_cells(self):
        labels = ["1", "10", "a,b", 'say "hi"', " pad ", "1", "a,b", "10"]
        ds = dataset_from_rows(
            ["g", "x", "y"],
            ["categorical", "numeric", "numeric"],
            [(g, float(i), float(i % 3)) for i, g in enumerate(labels)],
            "y",
        )
        enc = fit_ols(ds, 2).encoder
        columns = [c.values for c in ds.feature_columns()]
        expected = [
            [float(g == lv) for lv in enc.schema.levels[0] if lv != enc.reference_levels[0]]
            + [x]
            for g, x in zip(*columns)
        ]
        assert enc.encode_columns(columns).tolist() == expected
        assert enc.encode_columns([list(c) for c in columns]).tolist() == expected


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


def _block_rows(model):
    """Rows of one kernel block when `model` scores a batch."""
    return max(4, KERNEL_BLOCK_ENTRIES // len(model.dual_weights) // 4 * 4)


def _random_columns(p, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [rng.uniform(-2.5, 2.5, size=n) for _ in range(p)]


def _brute_force_scores(model, columns):
    """Kernel ridge scores by Python loops over features and training rows."""
    p = len(columns)
    want = []
    for i in range(len(columns[0])):
        zi = [(columns[k][i] - model.feature_means[k]) / model.feature_scales[k] for k in range(p)]
        total = model.response_mean
        for t, w in zip(model.train_standardized, model.dual_weights):
            total += w * np.exp(-model.gamma * sum((zi[k] - t[k]) ** 2 for k in range(p)))
        want.append(total)
    return want


def _with_duplicates(ds, copies):
    """The table with its first `copies` rows appended again."""
    x = np.column_stack([c.values for c in ds.columns])
    x = np.vstack([x, x[:copies]])
    names = [c.name for c in ds.columns]
    return dataset_from_rows(names, [NUMERIC] * len(names), [tuple(r) for r in x], "y")


class TestKernelScoring:
    @pytest.mark.parametrize("n_train", [5, 400])
    def test_blocks_equal_dense_kernel_bitwise(self, n_train):
        m = fit_kernel_ridge(make_regression(3, n_train, seed=61, noise=0.3), 3, 0.7, 0.1)
        b = _block_rows(m)
        for size in (1, b - 1, b, b + 1, 3 * b + 7):
            columns = _random_columns(3, size, seed=size)
            z = (np.column_stack(columns) - m.feature_means) / m.feature_scales
            # the batch as the scorer pads it: copies of its last row up to a multiple of 4
            z = np.concatenate([z, np.repeat(z[-1:], -size % 4, axis=0)])
            dense = _rbf(_lift_batch(z), _lift_train(m.train_standardized, m.gamma))
            want = m.response_mean + (dense @ m.dual_weights)[:size]
            assert np.array_equal(m.scores(columns), want), size

    def test_agrees_with_brute_force_loop(self):
        m = fit_kernel_ridge(make_regression(3, 6, seed=62, noise=0.3), 3, 0.6, 0.2)
        columns = _random_columns(3, 10, seed=63)
        want = _brute_force_scores(m, columns)
        np.testing.assert_allclose(m.scores(columns), want, rtol=1e-12, atol=0.0)

    def test_agrees_with_brute_force_loop_at_bench_shape(self):
        ds = make_regression(11, 400, seed=62, noise=0.3)
        m = fit_kernel_ridge(ds, 11, 0.1, 0.2)
        # training rows, nudged, so that many kernel entries are far from 0
        rng = np.random.Generator(np.random.PCG64(63))
        columns = [c.values[:10] + rng.normal(0.0, 0.1, 10) for c in ds.feature_columns()]
        want = _brute_force_scores(m, columns)
        np.testing.assert_allclose(m.scores(columns), want, rtol=1e-12, atol=0.0)

    def test_kernel_entries_stay_in_the_unit_interval_with_duplicate_rows(self):
        ds = _with_duplicates(make_regression(11, 400, seed=70, noise=0.3), 200)
        m = fit_kernel_ridge(ds, 11, 1.0, 0.1)
        t = m.train_standardized
        k = _rbf(_lift_batch(t), m.lifted_train)
        assert k.min() >= 0.0 and k.max() == 1.0
        # the exponent itself rounds above 0 for some pairs of equal rows
        assert np.any(_lift_batch(t) @ m.lifted_train > 0.0)

    def test_row_score_independent_of_batch_and_position(self, wine):
        m = fit_kernel_ridge(wine, wine.response_index, 1.0, 0.1)
        assert _block_rows(m) == 20
        features = [c.values for c in wine.feature_columns()]
        rng = np.random.Generator(np.random.PCG64(71))
        for r in (5, 100, 777):
            one = m.scores([c[r : r + 1] for c in features])[0]
            for n in (*range(1, 200), 1599):
                copies = m.scores([np.repeat(c[r], n) for c in features])
                assert np.all(copies == one), (r, n)
            for n in (7, 23, 50):
                others = rng.integers(0, wine.n_rows, n)
                for at in range(n):
                    rows = others.copy()
                    rows[at] = r
                    assert m.scores([c[rows] for c in features])[at] == one, (r, n, at)

    def test_blocks_written_into_one_64_byte_aligned_buffer(self, monkeypatch):
        m = fit_kernel_ridge(make_regression(3, 50, seed=72, noise=0.3), 3, 1.0, 0.1)
        b = _block_rows(m)
        batches = [_random_columns(3, size, seed=size) for size in (1, b + 1, 3 * b + 7)]
        want = [m.scores(columns) for columns in batches]
        seen = []
        rbf = predict._rbf

        def recording(lifted_rows, lifted_train, out=None):
            seen.append(out.ctypes.data)
            return rbf(lifted_rows, lifted_train, out)

        monkeypatch.setattr(predict, "_rbf", recording)
        for columns, scores in zip(batches, want):
            seen.clear()
            assert np.array_equal(m.scores(columns), scores)
            assert len(set(seen)) == 1 and seen[0] % 64 == 0, seen

    def test_kernel_memory_bounded_by_block_not_batch(self):
        m = fit_kernel_ridge(make_regression(3, 400, seed=64, noise=0.3), 3, 1.0, 0.1)
        columns = _random_columns(3, 4000, seed=65)
        tracemalloc.start()
        try:
            m.scores(columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense 4,000 x 400 kernel alone is 12.8 MB
        assert peak < 2 * 2**20

    def test_scoring_leaves_predictor_unchanged(self):
        m = fit_kernel_ridge(make_regression(3, 50, seed=66, noise=0.3), 3, 0.8, 0.1)
        fields = [f.name for f in dataclasses.fields(m) if f.name != "schema"]
        before = {name: np.copy(getattr(m, name)) for name in fields}
        columns = _random_columns(3, 3 * _block_rows(m) + 5, seed=67)
        first = m.scores(columns)
        for name in fields:
            assert np.array_equal(getattr(m, name), before[name]), name
        assert np.array_equal(m.lifted_train, _lift_train(m.train_standardized, m.gamma))
        assert np.array_equal(m.scores(columns), first)

    def test_read_only_columns_and_replaced_predictor_score_identically(self):
        m = fit_kernel_ridge(make_regression(3, 50, seed=68, noise=0.3), 3, 0.8, 0.1)
        columns = _random_columns(3, 700, seed=69)
        want = m.scores(columns)
        frozen = [np.copy(c) for c in columns]
        for c in frozen:
            c.flags.writeable = False
        assert np.array_equal(m.scores(frozen), want)
        copy = dataclasses.replace(m)
        assert np.array_equal(copy.lifted_train, m.lifted_train)
        assert np.array_equal(copy.scores(columns), want)
        wider = dataclasses.replace(m, gamma=2 * m.gamma)
        assert np.array_equal(wider.lifted_train, _lift_train(m.train_standardized, 2 * m.gamma))


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

    def test_unparsable_score_line_is_quoted(self, monkeypatch):
        started, popen = [], subprocess.Popen

        def spawn(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", spawn)
        script = "import sys; sys.stdin.read(); print('abc')"
        p = external_scorer([sys.executable, "-c", script], _schema(1))
        with pytest.raises(ScorerError, match="^unparsable score line 'abc'( |$)") as err:
            p.score_rows([(1.0,)])
        assert err.value.exit_status == 0
        assert len(started) == 1 and started[0].returncode is not None
        assert p._started == []

    def test_unspawnable_command(self):
        p = external_scorer(["/nonexistent/binary-xyz"], _schema(1))
        with pytest.raises(ScorerError, match="spawn"):
            p.score_rows([(1.0,)])

    @pytest.mark.parametrize(
        "command, timeout",
        [
            ([sys.executable], float("nan")),
            ([sys.executable], float("inf")),
            ([sys.executable], "5"),
            ([sys.executable], 0),
            ([sys.executable], -1),
            (sys.executable, None),  # one string, not a list of arguments
        ],
        ids=["nan", "inf", "str-timeout", "zero", "negative", "str-command"],
    )
    def test_bad_arguments_are_rejected_before_any_spawn(self, monkeypatch, command, timeout):
        def spawn(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "Popen", spawn)
        with pytest.raises(ScorerError, match="scorer (command|timeout) must be"):
            external_scorer(command, _schema(1), timeout).score_rows([(1.0,)])

    def test_a_failed_spare_spawn_reaps_the_process_started(self, monkeypatch):
        started, popen = [], subprocess.Popen

        def spawn(*args, **kwargs):
            if started:
                raise OSError("no second process")
            started.append(popen(*args, **kwargs))
            return started[0]

        monkeypatch.setattr(subprocess, "Popen", spawn)
        p = external_scorer(fixture_command("identity_first_column.py"), _schema(1))
        with pytest.raises(ScorerError, match="cannot spawn"):
            _score_ahead(p, [(1.0,)])
        assert started[0].returncode is not None
        assert p._started == []

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

    def test_hung_scorer_is_killed_at_the_timeout(self, tmp_path):
        pid_file = tmp_path / "pids"
        python, script = fixture_command("sleeping_scorer.py")
        p = external_scorer(
            [python, "-I", "-S", script, str(pid_file)], _schema(1), timeout=0.5
        )
        with pytest.raises(ScorerError, match=r"timed out after 0\.5 s"):
            _score_ahead(p, [(1.0,)])
        pids = _listed_pids(pid_file, wait_for=2)
        assert len(pids) == 2  # the scorer sent the payload, and the spare
        assert not any(map(_alive, pids))  # killed and reaped

    def test_one_process_per_payload(self, tmp_path):
        # a payload not known to be followed starts no spare; one told that
        # another follows starts the process the next payload takes
        pid_file = tmp_path / "pids"
        p = external_scorer(_recorder(tmp_path / "payload", pid_file), _schema(1))
        for calls in (1, 2):
            assert p.score_rows([(1.0,)]).tolist() == [0.0]
            assert p._started == []
            assert len(_listed_pids(pid_file)) == calls
        assert _score_ahead(p, [(1.0,)]).tolist() == [0.0]
        assert len(p._started) == 1
        assert p.score_rows([(1.0,)]).tolist() == [0.0]
        assert p._started == []
        assert len(_listed_pids(pid_file, wait_for=4)) == 4

    def test_garbage_collection_reaps_the_spare(self, tmp_path):
        pid_file = tmp_path / "pids"
        p = external_scorer(_recorder(tmp_path / "payload", pid_file), _schema(1))
        assert _score_ahead(p, [(1.0,)]).tolist() == [0.0]
        alive = [pid for pid in _listed_pids(pid_file, wait_for=2) if _alive(pid)]
        assert len(alive) == 1  # the spare waits for a payload
        del p
        gc.collect()
        assert not _alive(alive[0])

    def test_a_process_that_exits_leaves_no_scorer_running(self, tmp_path):
        pid_file = tmp_path / "pids"
        child = f"""
import time
from explainkit import external_scorer, predict
from explainkit.tabular import FeatureSchema
schema = FeatureSchema(("x1",), ("numeric",), (None,))
p = external_scorer({_recorder(tmp_path / "payload", pid_file)!r}, schema)
predict.LOOKAHEAD_ROWS = 0  # the layer offered along is left out: another payload follows
batch = schema.to_columns([(1.0,)])
[scores] = p.scores_of([batch], [[batch]])
assert scores.tolist() == [0.0]
deadline = time.monotonic() + 30
while open({str(pid_file)!r}).read().count("\\n") < 2 and time.monotonic() < deadline:
    time.sleep(0.01)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=60)
        pids = _listed_pids(pid_file)
        assert len(pids) == 2  # the scorer that answered, and the spare
        assert not any(map(_alive, pids))

    def test_a_process_reads_its_files_one_payload_early(self, tmp_path):
        # the process for payload k + 1 starts at payload k when payload k is
        # known to be followed, and reads its model then: a change made
        # after payload k reaches payload k + 2
        value, pid_file = tmp_path / "value", tmp_path / "pids"
        python, script = fixture_command("startup_scorer.py")
        p = external_scorer([python, "-I", "-S", script, str(value), str(pid_file)], _schema(1))
        value.write_text("1")
        assert _score_ahead(p, [(0.0,)]).tolist() == [1.0]
        _listed_pids(pid_file, wait_for=2)  # the spare has read the file
        value.write_text("2")
        assert p.score_rows([(0.0,)]).tolist() == [1.0]
        assert p.score_rows([(0.0,)]).tolist() == [2.0]

    def test_failure_is_the_same_from_a_fresh_process_and_from_the_spare(self):
        # every call of the failing scorer fails; a failure leaves no spare,
        # so its second call spawns afresh too
        p = external_scorer(fixture_command("failing_scorer.py"), _schema(1))
        first, second = (_scorer_error(p, [(1.0,)]) for _ in range(2))
        assert _described(first) == _described(second)
        assert (first.exit_status, first.stderr_text.strip()) == (1, "deliberate failure")
        # the identity scorer fails on a label that is not a number: after a
        # call that scores and starts a spare, the failing call is the spare's
        schema = FeatureSchema(("f",), ("categorical",), (("1", "x"),))
        fresh = _scorer_error(external_scorer(fixture_command("identity_first_column.py"), schema), [("x",)])
        p = external_scorer(fixture_command("identity_first_column.py"), schema)
        assert _score_ahead(p, [("1",)]).tolist() == [1.0]
        assert len(p._started) == 1
        assert _described(_scorer_error(p, [("x",)])) == _described(fresh)
        assert fresh.exit_status == 1 and "ValueError" in fresh.stderr_text

    @pytest.mark.parametrize(
        "budget, scored, pulled, spare",
        [
            # the second layer overflows at 5: none of it goes, the third is
            # never pulled, and the call that left it out starts a spare
            (3, [1, 2, 3], [2, 3, 4, 5], True),
            (6, [1, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7], False),
        ],
        ids=["cut", "fits"],
    )
    def test_lookahead_takes_whole_layers_within_the_budget(
        self, monkeypatch, budget, scored, pulled, spare
    ):
        monkeypatch.setattr(predict, "LOOKAHEAD_ROWS", budget)
        p = external_scorer(fixture_command("identity_first_column.py"), _schema(1))
        seen = []

        def layer(values):
            for v in values:
                seen.append(v)
                yield p.schema.to_columns([(float(v),)])

        ahead = map(layer, [[2, 3], [4, 5, 6], [7]])
        scores = p.scores_of([p.schema.to_columns([(1.0,)])], ahead)
        assert [s.tolist() for s in scores] == [[float(v)] for v in scored]
        assert seen == pulled
        assert len(p._started) == spare
        predict._reap(p._started)


def test_in_process_scorers_never_pull_ahead():
    # the base `Predictor.scores_of` scores its batches and leaves `ahead`
    def ahead():
        raise AssertionError("pulled a layer ahead")
        yield

    p = _linear(1, 0.5, [2.0])
    scores = p.scores_of([p.schema.to_columns([(1.0,)])], ahead())
    assert [s.tolist() for s in scores] == [[2.5]]


def _score_ahead(predictor, rows):
    """Score `rows` in a payload known to be followed by another (`_announced`)."""
    return _announced(predictor, predictor.schema.to_columns(rows))


def _announced(predictor, columns):
    """The scores of the batch `columns`, sent in a payload known to be
    followed by another. The one way to say so: with `LOOKAHEAD_ROWS` at 0,
    the layer offered along (the batch again) is left out, so another call
    must come."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predict, "LOOKAHEAD_ROWS", 0)
        [scores] = predictor.scores_of([columns], [[columns]])
    return scores


def _scorer_error(predictor, rows):
    with pytest.raises(ScorerError) as err:
        predictor.score_rows(rows)
    return err.value


def _described(error):
    return str(error), error.exit_status, error.stderr_text


def _alive(pid):
    """Whether process `pid` exists, as a zombie not yet reaped too."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _listed_pids(pid_file, wait_for=0):
    """The process ids in `pid_file`, one a line, once it lists `wait_for`."""
    deadline = time.monotonic() + 30
    while len(pid_file.read_text().split()) < wait_for and time.monotonic() < deadline:
        time.sleep(0.01)
    return [int(pid) for pid in pid_file.read_text().split()]


def _recorder(payload_file, pid_file=None):
    """`recording_scorer.py`, isolated and without site packages, so it
    starts fast."""
    python, script = fixture_command("recording_scorer.py")
    return [python, "-I", "-S", script, str(payload_file), *([str(pid_file)] if pid_file else [])]


def _cells(names, columns):
    """The header and every row of a batch as lists of formatted cells."""
    rows = ([_format_cell(col[i]) for col in columns] for i in range(len(columns[0])))
    return [list(names), *rows]


def _csv_writer_payload(names, columns, terminator="\n"):
    """The payload as `csv.writer` writes it, row by row with `terminator`,
    each row then ending in a newline: the reference for the per-column
    formatting of `ExternalPredictor.score_columns`. With `"\r\n"` the
    writer quotes a field holding a carriage return too."""
    lines = []
    for row in _cells(names, columns):
        buf = io.StringIO()
        csv.writer(buf, delimiter=",", lineterminator=terminator).writerow(row)
        lines.append(buf.getvalue()[: -len(terminator)] + "\n")
    return "".join(lines).encode("utf-8")


def _read_back(payload):
    """Every cell of a payload, as `csv.reader` reads it."""
    return list(csv.reader(io.StringIO(payload.decode("utf-8"), newline="")))


def _sent_payload(schema, columns, calls=1):
    """The bytes the scorer reads on its stdin; with `calls`, each call's
    bytes must be the same (each payload is `_announced`, so the first spawns
    its scorer and starts a spare, and later ones take it)."""
    with tempfile.TemporaryDirectory() as tmp:
        payload_file = Path(tmp) / "payload"
        p = external_scorer(_recorder(payload_file), schema)
        sent = []
        for _ in range(calls):
            scores = _announced(p, columns)
            assert scores.tolist() == [0.0] * len(columns[0])
            sent.append(payload_file.read_bytes())
        assert sent == sent[:1] * calls
        return sent[0]


# labels csv.writer quotes (delimiter, quote, newline), one it leaves bare
# although a reader splits on it (carriage return; the payload quotes it),
# the empty label and plain ones
LABELS = ("a,b", 'say "hi"', "two\nlines", '"', "cr\rx", "", " pad ", "é", "1", "z")
NUMBERS = (-0.0, 0.0, 2.5, -3.0, 1e15, 1e16, -1e16, 1e-300, 5e-324, 1.7976931348623157e308)


def _label_batch(p, labels):
    """Names, schema and columns of `labels` alone (p = 1) or between two
    numeric columns (p = 3), each label twice. An empty label alone on its
    row is written as ""; names need quotes too, and a % in a name is
    written as it is."""
    kinds = ("categorical",) if p == 1 else ("numeric", "categorical", "numeric")
    names = ("na,%me",) if p == 1 else ("x%s", 'say "y"', "z")
    levels = tuple(tuple(labels) if k == "categorical" else None for k in kinds)
    rows = len(labels) * 2
    texts = np.array([labels[i % len(labels)] for i in range(rows)], dtype=object)
    numbers = np.array([NUMBERS[i % len(NUMBERS)] for i in range(rows)])
    columns = [texts] if p == 1 else [numbers, texts, numbers[::-1].copy()]
    return names, FeatureSchema(names, kinds, levels), columns


@pytest.mark.parametrize("p", [1, 3])
def test_payload_bytes_equal_csv_writer(p):
    # the fresh process and the spare are sent the same bytes
    names, schema, columns = _label_batch(p, [lb for lb in LABELS if "\r" not in lb])
    assert _sent_payload(schema, columns, calls=2) == _csv_writer_payload(names, columns)


@pytest.mark.parametrize("p", [1, 3])
def test_payload_quotes_carriage_returns_for_csv_reader(p):
    names, schema, columns = _label_batch(p, LABELS)
    payload = _sent_payload(schema, columns)
    assert _read_back(payload) == _cells(names, columns)
    assert payload == _csv_writer_payload(names, columns, "\r\n")
    # the quotes around the label are the one change from plain csv.writer
    assert payload.count(b'"cr\rx"') == 2
    assert payload.replace(b'"cr\rx"', b"cr\rx") == _csv_writer_payload(names, columns)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_payload_bytes_equal_csv_writer_on_generated_batches(data):
    kind = st.sampled_from(("numeric", "categorical"))
    kinds = data.draw(st.lists(kind, min_size=1, max_size=4))
    rows = data.draw(st.integers(1, 6))
    label = st.text(alphabet='ab ,;%"\n\r\t\\\'é', max_size=4)
    number = st.floats(allow_nan=False, allow_infinity=False)
    columns = [
        np.array(data.draw(st.lists(label, min_size=rows, max_size=rows)), dtype=object)
        if kind == "categorical"
        else np.array(data.draw(st.lists(number, min_size=rows, max_size=rows)))
        for kind in kinds
    ]
    names = tuple(data.draw(st.text(alphabet='xy,%"\n', min_size=1, max_size=3)) for _ in kinds)
    schema = FeatureSchema(names, tuple(kinds), (None,) * len(kinds))
    payload = _sent_payload(schema, columns)
    assert _read_back(payload) == _cells(names, columns)
    assert payload == _csv_writer_payload(names, columns, "\r\n")
    if not any("\r" in str(v) for col in columns for v in col):
        assert payload == _csv_writer_payload(names, columns)


PAIR = FeatureSchema(("a", "b"), (NUMERIC, NUMERIC), (None, None))
LEVELS = FeatureSchema(("c",), ("categorical",), (("x", "y"),))


def linear_model(**changes):
    fields = dict(
        schema=PAIR, encoder=Encoder.for_schema(PAIR), intercept=0.0,
        coefficients=np.ones(2), feature_means=np.zeros(2),
    )
    return LinearModel(**{**fields, **changes})


ERROR_PATHS = {
    "batch-columns": (
        lambda: ConstantPredictor(PAIR, 1.0).scores([np.zeros(3)]),
        SchemaError, "batch has 1 columns, schema expects 2",
    ),
    "batch-lengths": (
        lambda: ConstantPredictor(PAIR, 1.0).scores([np.zeros(3), np.zeros(2)]),
        SchemaError, "batch columns have differing lengths: [2, 3]",
    ),
    "reference-level": (
        lambda: Encoder.for_schema(LEVELS, {"c": "z"}),
        SchemaError, "reference level 'z' not among levels of 'c'",
    ),
    "mean-length": (
        lambda: linear_model(feature_means=np.zeros(3)),
        ModelError, "coefficient and mean vectors differ in length",
    ),
    "std-error-length": (
        lambda: linear_model(std_errors=np.ones(1)),
        ModelError, "coefficient and standard-error vectors differ in length",
    ),
    "negative-std-error": (
        lambda: linear_model(std_errors=np.array([1.0, -1.0])),
        ModelError, "standard errors must be nonnegative",
    ),
    "linear-score-overflow": (
        lambda: linear_model(coefficients=np.full(2, 1e308)).score_one((1.5, 1.5)),
        ModelError, "predictor produced non-finite scores",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_path(case):
    call, error, message = ERROR_PATHS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
