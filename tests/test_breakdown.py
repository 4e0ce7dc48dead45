import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explainkit import (
    ConstantPredictor,
    ModelError,
    SchemaError,
    ag_break,
    attribution_text,
    dataset_from_rows,
    fit_kernel_ridge,
    fit_ols,
    lm_break,
    relaxed_prediction,
)
from explainkit.breakdown import INTERCEPT_ENTRY
from explainkit.predict import Encoder, LinearModel
from explainkit.tabular import FeatureSchema

from conftest import make_regression


def _linear(p, mu, betas, means):
    schema = FeatureSchema(
        names=tuple(f"x{i + 1}" for i in range(p)),
        kinds=("numeric",) * p,
        levels=(None,) * p,
    )
    return LinearModel(
        schema=schema,
        encoder=Encoder.for_schema(schema),
        intercept=mu,
        coefficients=np.asarray(betas, dtype=float),
        feature_means=np.asarray(means, dtype=float),
    )


def total(attribution):
    return attribution.baseline + sum(e.contribution for e in attribution.entries)


class TestLmBreak:
    def test_hand_case(self):
        m = _linear(1, 1.0, [2.0], [3.0])
        a = lm_break(m, (5.0,), baseline_mode="intercept")
        assert a.baseline == pytest.approx(7.0, abs=1e-12)
        assert a.entries[0].contribution == pytest.approx(4.0, abs=1e-12)
        assert a.final_prediction == pytest.approx(11.0, abs=1e-12)

    def test_unknown_baseline_mode_rejected(self):
        m = _linear(1, 1.0, [2.0], [3.0])
        with pytest.raises(SchemaError, match="unknown baseline mode"):
            lm_break(m, (5.0,), baseline_mode="mean")

    def test_at_the_mean_everything_vanishes(self):
        ds = make_regression(3, 50, seed=41, noise=0.3)
        m = fit_ols(ds, 3)
        x_bar = tuple(float(c.values.mean()) for c in ds.feature_columns())
        a = lm_break(m, x_bar, baseline_mode="intercept")
        for e in a.entries:
            assert e.contribution == pytest.approx(0.0, abs=1e-9)
        assert a.final_prediction == pytest.approx(a.baseline, abs=1e-9)

    def test_scale_shift_invariance(self):
        ds = make_regression(2, 60, seed=42, noise=0.5)
        m = fit_ols(ds, 2)
        x = ds.observation(5)
        before = lm_break(m, x).contribution_of("x1")

        # refit with x1 -> 10*x1 + 7
        cols = [c.values.copy() for c in ds.feature_columns()]
        cols[0] = 10.0 * cols[0] + 7.0
        rows = [
            (cols[0][i], cols[1][i], ds.response_values()[i])
            for i in range(ds.n_rows)
        ]
        ds2 = dataset_from_rows(["x1", "x2", "y"], ["numeric"] * 3, rows, "y")
        m2 = fit_ols(ds2, 2)
        after = lm_break(m2, (10.0 * x[0] + 7.0, x[1])).contribution_of("x1")
        assert after == pytest.approx(before, abs=1e-9)

    def test_entries_sorted_by_importance(self, wine, wine_ols):
        a = lm_break(wine_ols, wine.observation(4), baseline_mode="intercept")
        magnitudes = [abs(e.contribution) for e in a.entries]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_zero_baseline_prepends_intercept_entry(self):
        m = _linear(1, 1.0, [2.0], [3.0])
        a = lm_break(m, (5.0,))
        assert a.baseline == 0.0
        assert a.entries[0].feature == INTERCEPT_ENTRY
        assert a.entries[0].contribution == pytest.approx(7.0, abs=1e-12)
        assert total(a) == pytest.approx(a.final_prediction, abs=1e-12)

    def test_categorical_folds_to_single_entry(self):
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
        m = fit_ols(ds, 2)
        a = lm_break(m, ("b", 2.0), baseline_mode="intercept")
        assert sorted(e.feature for e in a.entries) == ["g", "x"]
        assert total(a) == pytest.approx(m.score_one(("b", 2.0)), abs=1e-9)


class TestAgBreak:
    def test_constant_predictor(self):
        ds = make_regression(3, 20, seed=10)
        c = ConstantPredictor(schema=ds.schema(), value=3.25)
        x = ds.observation(0)
        for direction in ("up", "down"):
            a = ag_break(c, ds, x, direction=direction, baseline_mode="intercept")
            assert a.baseline == pytest.approx(3.25, abs=1e-12)
            assert a.final_prediction == pytest.approx(3.25, abs=1e-12)
            for e in a.entries:
                assert e.contribution == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_matches_lm_break_on_wine(self, wine, wine_ols, direction):
        x = wine.observation(4)
        greedy = ag_break(wine_ols, wine, x, direction=direction, baseline_mode="intercept")
        closed = lm_break(wine_ols, x, baseline_mode="intercept")
        for e in closed.entries:
            assert greedy.contribution_of(e.feature) == pytest.approx(
                e.contribution, abs=1e-9
            )

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_telescoping_kernel_ridge(self, direction):
        ds = make_regression(5, 50, seed=23, noise=0.6)
        m = fit_kernel_ridge(ds, 5, gamma=0.5, ridge=1e-2)
        x = ds.observation(11)
        a = ag_break(m, ds, x, direction=direction, baseline_mode="intercept")
        f_new = m.score_one(x)
        assert total(a) == pytest.approx(f_new, rel=1e-9, abs=1e-9)
        assert a.final_prediction == f_new

    def test_permutation_equivariance(self):
        ds = make_regression(4, 30, seed=77, noise=0.4)
        m = fit_kernel_ridge(ds, 4, gamma=0.8, ridge=1e-2)
        x = ds.observation(3)
        a = ag_break(m, ds, x, direction="up", baseline_mode="intercept")

        perm = [2, 0, 3, 1]
        names = ds.feature_names
        cols = ds.feature_columns()
        rows = [
            tuple(cols[j].values[i] for j in perm) + (ds.response_values()[i],)
            for i in range(ds.n_rows)
        ]
        ds2 = dataset_from_rows(
            [names[j] for j in perm] + ["y"], ["numeric"] * 5, rows, "y"
        )
        m2 = fit_kernel_ridge(ds2, 4, gamma=0.8, ridge=1e-2)
        x2 = tuple(x[j] for j in perm)
        a2 = ag_break(m2, ds2, x2, direction="up", baseline_mode="intercept")
        for e in a.feature_entries():
            assert a2.contribution_of(e.feature) == pytest.approx(
                e.contribution, abs=1e-12
            )

    def test_determinism(self, wine, wine_ols):
        x = wine.observation(7)
        runs = [
            ag_break(wine_ols, wine, x, direction="down", baseline_mode="zero")
            for _ in range(2)
        ]
        assert runs[0].to_json_dict() == runs[1].to_json_dict()

    def test_down_each_removal_is_argmin(self):
        ds = make_regression(4, 25, seed=55, noise=0.5)
        m = fit_kernel_ridge(ds, 4, gamma=0.6, ridge=1e-2)
        x = ds.observation(2)
        a = ag_break(m, ds, x, direction="down", baseline_mode="intercept")
        f_new = m.score_one(x)
        removal_order = [e.feature for e in reversed(a.feature_entries())]
        name_to_idx = {n: i for i, n in enumerate(ds.feature_names)}
        fixed = set(range(4))
        for name in removal_order:
            j_removed = name_to_idx[name]
            dists = {
                j: abs(relaxed_prediction(m, ds, x, frozenset(fixed - {j})) - f_new)
                for j in fixed
            }
            best = min(dists.values())
            assert dists[j_removed] == pytest.approx(best, abs=1e-12)
            fixed.remove(j_removed)

    def test_up_entries_in_selection_order(self):
        ds = make_regression(3, 30, seed=66, noise=0.2)
        m = fit_kernel_ridge(ds, 3, gamma=0.5, ridge=1e-2)
        x = ds.observation(1)
        a = ag_break(m, ds, x, direction="up", baseline_mode="intercept")
        mean_score = a.baseline
        # first selected feature maximizes |f^{j} - mean| among all features
        devs = {
            j: abs(relaxed_prediction(m, ds, x, frozenset({j})) - mean_score)
            for j in range(3)
        }
        first = a.entries[0].feature
        assert devs[{n: i for i, n in enumerate(ds.feature_names)}[first]] == pytest.approx(
            max(devs.values()), abs=1e-12
        )

    def test_up_distance_literal_reading_changes_order_not_sum(self):
        ds = make_regression(4, 40, seed=88, noise=0.8)
        m = fit_kernel_ridge(ds, 4, gamma=0.4, ridge=1e-2)
        x = ds.observation(9)
        a = ag_break(m, ds, x, direction="up", up_distance="to-baseline")
        b = ag_break(m, ds, x, direction="up", up_distance="to-fnew")
        assert total(a) == pytest.approx(total(b), abs=1e-9)
        assert total(a) == pytest.approx(m.score_one(x), rel=1e-9, abs=1e-9)

    def test_response_never_a_candidate(self, wine, wine_ols):
        a = ag_break(wine_ols, wine, wine.observation(4), direction="up")
        assert "quality" not in {e.feature for e in a.entries}
        assert len(a.feature_entries()) == 11

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5, max_value=5),
                st.floats(min_value=-5, max_value=5),
            ),
            min_size=2,
            max_size=10,
        ),
        st.tuples(
            st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5)
        ),
        st.sampled_from(["up", "down"]),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_telescoping_property_nonadditive(self, rows, x_new, direction):
        from test_relax import ProductPredictor

        ds = dataset_from_rows(["x1", "x2"], ["numeric"] * 2, rows)
        f = ProductPredictor()
        a = ag_break(f, ds, x_new, direction=direction, baseline_mode="intercept")
        scale = max(1.0, abs(a.final_prediction))
        assert total(a) == pytest.approx(a.final_prediction, abs=1e-9 * scale)

    def test_zero_baseline_intercept_entry(self, wine, wine_ols):
        a = ag_break(wine_ols, wine, wine.observation(4), direction="up", baseline_mode="zero")
        assert a.baseline == 0.0
        assert a.entries[0].feature == INTERCEPT_ENTRY
        assert a.entries[0].contribution == pytest.approx(5.6360, abs=5e-4)
        assert total(a) == pytest.approx(a.final_prediction, rel=1e-9)


class TestSerialization:
    def test_json_shape(self, wine, wine_ols):
        a = ag_break(wine_ols, wine, wine.observation(4), direction="up", baseline_mode="intercept")
        d = a.to_json_dict()
        assert set(d) == {"method", "baseline_mode", "baseline", "entries", "final_prediction"}
        assert d["method"] == "ag-break-up"
        assert all(set(e) == {"feature", "value", "contribution"} for e in d["entries"])

    def test_text_layout_snapshot(self):
        m = _linear(2, 1.0, [2.0, -1.0], [3.0, 1.0])
        a = lm_break(m, (5.0, 1.5), baseline_mode="intercept")
        expected = (
            "                contribution\n"
            "baseline               6.000\n"
            "+ x1 = 5               4.000\n"
            "+ x2 = 1.5            -0.500\n"
            "final_prognosis        9.500\n"
        )
        assert attribution_text(a) == expected

    def test_text_layout_aligns_long_names(self):
        ds = make_regression(2, 20, seed=1)
        m = fit_ols(ds, 2)
        a = lm_break(m, ds.observation(0), baseline_mode="zero")
        object.__setattr__(a.entries[1], "feature", "x" * 40)
        lines = attribution_text(a).splitlines()
        assert len({len(l) for l in lines}) == 1  # fully aligned block


def test_a_contribution_that_overflows_is_a_model_error():
    # f(x_new) = 1.5e308 - 1.5e308 is finite; each term, 2.5e308 in size, is not
    schema = make_regression(2, 10, seed=4).schema()
    coefficients, means = np.array([1e308, -1e308]), np.full(2, -1.0)
    model = LinearModel(schema, Encoder.for_schema(schema), 0.0, coefficients, means)
    with pytest.raises(ModelError, match="^the contribution of 'x1' is inf"):
        lm_break(model, (1.5, 1.5))
