import itertools
import math

import numpy as np
import pytest

from explainkit import (
    ConstantPredictor,
    ModelError,
    dataset_from_rows,
    fit_kernel_ridge,
    fit_ols,
    lm_break,
    relaxed_prediction,
    shapley_exact,
    shapley_sampled,
)
from explainkit.predict import Encoder, LinearModel, Predictor

from conftest import make_regression


def phi_of(estimate, name):
    return estimate.attribution.contribution_of(name)


def permutation_oracle(predictor, dataset, x_new):
    """All-orders enumeration: average marginal contribution per feature."""
    p = dataset.n_features
    phis = np.zeros(p)
    count = 0
    for order in itertools.permutations(range(p)):
        fixed = frozenset()
        prev = relaxed_prediction(predictor, dataset, x_new, fixed)
        for j in order:
            fixed = fixed | {j}
            cur = relaxed_prediction(predictor, dataset, x_new, fixed)
            phis[j] += cur - prev
            prev = cur
        count += 1
    return phis / count


def subset_oracle(predictor, dataset, x_new):
    """Direct weighted-subset formula, coded independently with factorials."""
    p = dataset.n_features
    phis = np.zeros(p)
    features = set(range(p))
    for j in range(p):
        for r in range(p):
            for subset in itertools.combinations(sorted(features - {j}), r):
                s = frozenset(subset)
                w = (
                    math.factorial(len(s))
                    * math.factorial(p - len(s) - 1)
                    / math.factorial(p)
                )
                gain = relaxed_prediction(
                    predictor, dataset, x_new, s | {j}
                ) - relaxed_prediction(predictor, dataset, x_new, s)
                phis[j] += w * gain
    return phis


def accumulation_loop(predictor, dataset, x_new):
    """Running sums in the fixed order exact Shapley promises: masks
    ascending, each feature's sum started at 0.0."""
    p = dataset.n_features
    phis = np.zeros(p)
    for mask in range((1 << p) - 1):
        size = mask.bit_count()
        w = math.exp(math.lgamma(size + 1) + math.lgamma(p - size) - math.lgamma(p + 1))
        v_s = relaxed_prediction(predictor, dataset, x_new, _pinned(mask, p))
        for j in range(p):
            if not mask >> j & 1:
                pinned = _pinned(mask | 1 << j, p)
                phis[j] += w * (relaxed_prediction(predictor, dataset, x_new, pinned) - v_s)
    return phis


def _pinned(mask, p):
    return frozenset(j for j in range(p) if mask >> j & 1)


class SignedZeroPredictor(Predictor):
    """Scores the smallest negative subnormal where x0 equals `x0` and 0.0
    elsewhere, so every weighted marginal of x0 underflows to -0.0."""

    def __init__(self, schema, x0):
        self.schema = schema
        self.x0 = x0

    def score_columns(self, columns):
        return np.where(columns[0] == self.x0, -5e-324, 0.0)


class TestExact:
    @pytest.mark.parametrize("model", ["kernel-ridge", "signed-zero"])
    def test_bitwise_equal_to_accumulation_loop(self, model):
        ds = make_regression(3, 12, seed=53, noise=0.4)
        x = ds.observation(2)
        if model == "kernel-ridge":
            m = fit_kernel_ridge(ds, 3, gamma=0.5, ridge=1e-2)
        else:
            m = SignedZeroPredictor(ds.schema(), x[0])
        loop = accumulation_loop(m, ds, x)
        est = shapley_exact(m, ds, x)
        got = [phi_of(est, name) for name in ds.schema().names]
        assert got == list(loop)
        assert list(np.signbit(got)) == list(np.signbit(loop))

    def test_additive_equals_lm_break(self):
        ds = make_regression(4, 30, seed=51, noise=0.3)
        m = fit_ols(ds, 4)
        x = ds.observation(3)
        est = shapley_exact(m, ds, x, baseline_mode="intercept")
        closed = lm_break(m, x, baseline_mode="intercept")
        for e in closed.entries:
            assert phi_of(est, e.feature) == pytest.approx(e.contribution, abs=1e-9)

    def test_constant_predictor(self):
        ds = make_regression(3, 10, seed=5)
        c = ConstantPredictor(schema=ds.schema(), value=9.0)
        est = shapley_exact(c, ds, ds.observation(0), baseline_mode="intercept")
        for e in est.attribution.entries:
            assert e.contribution == pytest.approx(0.0, abs=1e-12)
        assert est.attribution.baseline == pytest.approx(9.0, abs=1e-12)

    def test_matches_subset_oracle_nonlinear(self):
        ds = make_regression(4, 9, seed=52, noise=0.6)
        m = fit_kernel_ridge(ds, 4, gamma=0.6, ridge=1e-2)
        x = ds.observation(2)
        est = shapley_exact(m, ds, x)
        oracle = subset_oracle(m, ds, x)
        for j, name in enumerate(ds.feature_names):
            assert phi_of(est, name) == pytest.approx(oracle[j], abs=1e-12)

    def test_matches_permutation_oracle(self):
        ds = make_regression(4, 8, seed=53, noise=0.4)
        m = fit_kernel_ridge(ds, 4, gamma=0.5, ridge=1e-2)
        x = ds.observation(1)
        est = shapley_exact(m, ds, x)
        oracle = permutation_oracle(m, ds, x)
        for j, name in enumerate(ds.feature_names):
            assert phi_of(est, name) == pytest.approx(oracle[j], abs=1e-12)

    def test_efficiency(self):
        ds = make_regression(5, 25, seed=54, noise=0.5)
        m = fit_kernel_ridge(ds, 5, gamma=0.4, ridge=1e-2)
        x = ds.observation(6)
        est = shapley_exact(m, ds, x, baseline_mode="intercept")
        a = est.attribution
        assert a.baseline + sum(e.contribution for e in a.entries) == pytest.approx(
            m.score_one(x), rel=1e-9, abs=1e-9
        )

    def test_symmetry_on_duplicated_columns(self):
        # two identical columns, symmetric custom additive model
        rng = np.random.Generator(np.random.PCG64(60))
        col = rng.uniform(-1, 1, 12)
        other = rng.uniform(-1, 1, 12)
        rows = [(col[i], col[i], other[i]) for i in range(12)]
        ds = dataset_from_rows(["a", "b", "c"], ["numeric"] * 3, rows)
        schema = ds.schema()
        m = LinearModel(
            schema=schema,
            encoder=Encoder.for_schema(schema),
            intercept=0.3,
            coefficients=np.array([1.7, 1.7, -0.9]),
            feature_means=np.zeros(3),
        )
        x = (float(col[4]), float(col[4]), float(other[4]))
        est = shapley_exact(m, ds, x)
        assert phi_of(est, "a") == pytest.approx(phi_of(est, "b"), abs=1e-10)

    def test_dummy_feature_gets_zero(self):
        ds = make_regression(3, 15, seed=61)
        schema = ds.schema()
        m = LinearModel(
            schema=schema,
            encoder=Encoder.for_schema(schema),
            intercept=1.0,
            coefficients=np.array([2.0, 0.0, -1.0]),
            feature_means=np.zeros(3),
        )
        est = shapley_exact(m, ds, ds.observation(2))
        assert phi_of(est, "x2") == pytest.approx(0.0, abs=1e-10)

    def test_feature_cap(self, wine, wine_ols):
        with pytest.raises(ModelError, match="cap"):
            shapley_exact(wine_ols, wine, wine.observation(0), feature_cap=5)


class TestSampled:
    def test_single_feature_equals_exact(self):
        ds = make_regression(1, 20, seed=70, noise=0.2)
        m = fit_ols(ds, 1)
        x = ds.observation(0)
        exact = shapley_exact(m, ds, x)
        rng = np.random.Generator(np.random.PCG64(0))
        sampled = shapley_sampled(m, ds, x, n_permutations=7, rng=rng)
        assert phi_of(sampled, "x1") == pytest.approx(phi_of(exact, "x1"), abs=1e-12)
        assert sampled.std_errors[0] == pytest.approx(0.0, abs=1e-12)

    def test_converges_within_three_standard_errors(self):
        ds = make_regression(5, 40, seed=71, noise=0.5)
        m = fit_ols(ds, 5)
        x = ds.observation(8)
        exact = shapley_exact(m, ds, x)
        rng = np.random.Generator(np.random.PCG64(42))
        sampled = shapley_sampled(m, ds, x, n_permutations=2000, rng=rng)
        for j, name in enumerate(ds.feature_names):
            gap = abs(phi_of(sampled, name) - phi_of(exact, name))
            # for additive models every permutation gives the same marginal,
            # so gaps and errors are both near zero; tolerate float noise
            assert gap <= 3 * sampled.std_errors[j] + 1e-12

    def test_converges_for_nonadditive_model(self):
        ds = make_regression(5, 30, seed=72, noise=0.5)
        m = fit_kernel_ridge(ds, 5, gamma=0.5, ridge=1e-2)
        x = ds.observation(4)
        exact = shapley_exact(m, ds, x)
        rng = np.random.Generator(np.random.PCG64(42))
        sampled = shapley_sampled(m, ds, x, n_permutations=2000, rng=rng)
        for j, name in enumerate(ds.feature_names):
            gap = abs(sampled.unadjusted[j] - phi_of(exact, name))
            assert gap <= 3 * sampled.std_errors[j] + 1e-12

    def test_same_seed_bitwise_identical(self):
        ds = make_regression(4, 25, seed=73, noise=0.4)
        m = fit_kernel_ridge(ds, 4, gamma=0.7, ridge=1e-2)
        x = ds.observation(2)
        runs = []
        for _ in range(2):
            rng = np.random.Generator(np.random.PCG64(2024))
            runs.append(shapley_sampled(m, ds, x, n_permutations=50, rng=rng))
        assert runs[0].to_json_dict() == runs[1].to_json_dict()

    def test_adjustment_restores_exact_sum(self):
        ds = make_regression(4, 25, seed=74, noise=0.4)
        m = fit_kernel_ridge(ds, 4, gamma=0.3, ridge=1e-2)
        x = ds.observation(5)
        rng = np.random.Generator(np.random.PCG64(9))
        est = shapley_sampled(m, ds, x, n_permutations=25, rng=rng)
        a = est.attribution
        assert a.baseline + sum(e.contribution for e in a.entries) == pytest.approx(
            m.score_one(x), abs=1e-12
        )
        assert est.unadjusted is not None and len(est.unadjusted) == 4

    def test_requires_two_permutations(self, wine, wine_ols):
        rng = np.random.Generator(np.random.PCG64(1))
        with pytest.raises(ModelError, match="2 permutations"):
            shapley_sampled(wine_ols, wine, wine.observation(0), 1, rng)

    def test_std_errors_nonnegative(self):
        ds = make_regression(3, 20, seed=75, noise=0.3)
        m = fit_kernel_ridge(ds, 3, gamma=0.4, ridge=1e-2)
        rng = np.random.Generator(np.random.PCG64(4))
        est = shapley_sampled(m, ds, ds.observation(0), n_permutations=30, rng=rng)
        assert np.all(est.std_errors >= 0)
