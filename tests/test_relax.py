import itertools
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from explainkit import (
    ConstantPredictor,
    ExternalPredictor,
    ModelError,
    SchemaError,
    ScorerError,
    add_predictions,
    ag_break,
    dataset_from_rows,
    fit_kernel_ridge,
    fit_ols,
    relaxation_trace,
    relaxed_prediction,
    sample_locally,
    shapley_exact,
    shapley_sampled,
)
from explainkit import predict
from explainkit.predict import Predictor
from explainkit.tabular import Column, Dataset, FeatureSchema

from conftest import fixture_command, make_regression


class ProductPredictor(Predictor):
    """f(x) = x1 * x2, a pure interaction for hand-checkable cases."""

    def __init__(self):
        self.schema = FeatureSchema(("x1", "x2"), ("numeric", "numeric"), (None, None))

    def score_columns(self, columns):
        self._check_columns(columns)
        return np.asarray(columns[0], dtype=float) * np.asarray(columns[1], dtype=float)


class SpoiledPredictor(Predictor):
    """Wraps a model and spoils the scores of every multi-row batch, so
    single-row predictions stay sound and only batches go bad."""

    def __init__(self, inner, spoil):
        self.inner = inner
        self.spoil = spoil
        self.schema = inner.schema

    def score_columns(self, columns):
        scores = self.inner.score_columns(columns)
        return self.spoil(scores) if len(scores) > 1 else scores


SPOILERS = {
    "non-finite": lambda s: np.concatenate([[np.nan], s[1:]]),
    "one-short": lambda s: s[:-1],
    "scalar": lambda s: float(np.mean(s)),
    "column": lambda s: s[:, None],
}


class CountingPredictor(Predictor):
    """Wraps a model and counts its score_columns calls and their rows."""

    def __init__(self, inner):
        self.inner = inner
        self.schema = inner.schema
        self.calls = 0
        self.rows = []

    def score_columns(self, columns):
        self.calls += 1
        self.rows.append(len(columns[0]))
        return self.inner.score_columns(columns)


class ColumnsOnlyPredictor(Predictor):
    """Wraps a model but refuses `score_rows`, and so `score_one`: an
    explanation that scores outside the relaxed-value engine fails."""

    def __init__(self, inner):
        self.inner = inner
        self.schema = inner.schema

    def score_columns(self, columns):
        return self.inner.score_columns(columns)

    def score_rows(self, rows):
        raise AssertionError("scored outside the relaxed-value engine")


def brute_force_relaxed(predictor, dataset, x_new, fixed):
    """Independent double-loop oracle: build each hybrid row cell by cell."""
    total = 0.0
    for i in range(dataset.n_rows):
        row = list(dataset.observation(i))
        for j in fixed:
            row[j] = x_new[j]
        total += predictor.score_one(tuple(row))
    return total / dataset.n_rows


def head_rows(dataset, n):
    """The first n rows of a dataset."""
    columns = tuple(Column(c.name, c.kind, c.values[:n], c.levels) for c in dataset.columns)
    return Dataset(columns=columns, response_index=dataset.response_index)


class TestRelaxedPrediction:
    def test_full_pin_is_model_prediction(self, wine, wine_ols):
        # every hybrid row of the full set is x_new, so it is scored as that
        # one row and its mean is f(x_new) itself, not a mean of n copies
        wine_head = head_rows(wine, 300)
        krr = fit_kernel_ridge(wine_head, wine_head.response_index, gamma=0.2, ridge=1e-2)
        for model, ds in ((wine_ols, wine), (krr, wine_head)):
            x = ds.observation(4)
            f = CountingPredictor(model)
            full = frozenset(range(ds.n_features))
            assert relaxed_prediction(f, ds, x, full) == model.score_one(x)
            assert f.rows == [1]

    def test_empty_pin_is_mean_score(self, wine, wine_ols):
        x = wine.observation(4)
        rows = [wine.observation(i) for i in range(wine.n_rows)]
        mean_score = float(np.mean(wine_ols.score_rows(rows)))
        assert relaxed_prediction(wine_ols, wine, x, frozenset()) == pytest.approx(
            mean_score, abs=1e-12
        )

    def test_wine_ols_empty_pin_equals_response_mean(self, wine, wine_ols):
        # intercept OLS: mean prediction equals mean response
        x = wine.observation(4)
        got = relaxed_prediction(wine_ols, wine, x, frozenset())
        assert got == pytest.approx(5.6360, abs=5e-4)
        assert got == pytest.approx(float(np.mean(wine.response_values())), abs=1e-9)

    def test_matches_brute_force_all_subsets(self):
        ds = make_regression(4, 10, seed=17, noise=0.5)
        m = fit_ols(ds, 4)
        x = ds.observation(3)
        for r in range(5):
            for fixed in itertools.combinations(range(4), r):
                fast = relaxed_prediction(m, ds, x, frozenset(fixed))
                slow = brute_force_relaxed(m, ds, x, fixed)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_matches_brute_force_kernel_ridge(self):
        ds = make_regression(3, 8, seed=170, noise=0.5)
        m = fit_kernel_ridge(ds, 3, gamma=0.7, ridge=1e-2)
        x = ds.observation(0)
        for r in range(4):
            for fixed in itertools.combinations(range(3), r):
                fast = relaxed_prediction(m, ds, x, frozenset(fixed))
                slow = brute_force_relaxed(m, ds, x, fixed)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_subsample_reduces_rows(self):
        ds = make_regression(2, 100, seed=2)
        m = fit_ols(ds, 2)
        x = ds.observation(0)
        rng = np.random.Generator(np.random.PCG64(5))
        a = relaxed_prediction(m, ds, x, frozenset({0}), subsample=10, rng=rng)
        rng = np.random.Generator(np.random.PCG64(5))
        b = relaxed_prediction(m, ds, x, frozenset({0}), subsample=10, rng=rng)
        assert a == b  # same seed, same subsample
        full = relaxed_prediction(m, ds, x, frozenset({0}))
        assert a != pytest.approx(full, abs=1e-12)

    def test_categorical_pinning(self):
        rows = [
            ("a", 1.0, 10.0),
            ("b", 2.0, 25.0),
            ("a", 3.0, 14.0),
            ("b", 4.0, 29.0),
            ("a", 5.0, 18.0),
            ("b", 0.0, 21.0),
            ("a", 2.0, 12.0),
        ]
        ds = dataset_from_rows(
            ["g", "x", "y"], ["categorical", "numeric", "numeric"], rows, "y"
        )
        m = fit_ols(ds, 2)
        x = ds.observation(1)  # ("b", 2.0)
        fast = relaxed_prediction(m, ds, x, frozenset({0}))
        slow = brute_force_relaxed(m, ds, x, (0,))
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_bad_feature_index(self, wine, wine_ols):
        with pytest.raises(SchemaError):
            relaxed_prediction(wine_ols, wine, wine.observation(0), frozenset({99}))

    def test_pinned_columns_are_read_only(self):
        ds = make_regression(2, 10, seed=6)
        m = fit_ols(ds, 2)

        class InPlacePredictor(Predictor):
            schema = m.schema

            def score_columns(self, columns):
                columns[0][:] = 0.0
                return m.score_columns(columns)

        with pytest.raises(ValueError, match="read-only"):
            relaxed_prediction(InPlacePredictor(), ds, ds.observation(0), frozenset({0}))

    @pytest.mark.parametrize("subsample", [None, 5])
    def test_background_columns_are_read_only(self, subsample):
        ds = make_regression(2, 10, seed=6)
        m = fit_ols(ds, 2)
        before = ds.columns[1].values.copy()

        class InPlacePredictor(Predictor):
            schema = m.schema

            def score_columns(self, columns):
                columns[1][:] = 0.0
                return m.score_columns(columns)

        rng = np.random.Generator(np.random.PCG64(5))
        with pytest.raises(ValueError, match="read-only"):
            relaxed_prediction(
                InPlacePredictor(), ds, ds.observation(0), frozenset({0}), subsample, rng
            )
        assert np.array_equal(ds.columns[1].values, before)


ENTRY_POINTS = {
    "ag-break-up": lambda f, ds, x: ag_break(f, ds, x, direction="up"),
    "ag-break-down": lambda f, ds, x: ag_break(f, ds, x, direction="down"),
    "shapley-exact": lambda f, ds, x: shapley_exact(f, ds, x),
    "shapley-sampled": lambda f, ds, x: shapley_sampled(
        f, ds, x, n_permutations=4, rng=np.random.Generator(np.random.PCG64(1))
    ),
    "trace": lambda f, ds, x: relaxation_trace(f, ds, x, [2, 0, 1], "down"),
    "add-predictions": lambda f, ds, x: add_predictions(
        sample_locally(ds, x, "y", size=10, seed=1), f
    ),
    "score-rows": lambda f, ds, x: f.score_rows(
        [ds.observation(i) for i in range(ds.n_rows)]
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_hybrid_scores_are_model_errors(entry):
    ds = make_regression(3, 20, seed=23)
    f = SpoiledPredictor(fit_ols(ds, 3), SPOILERS["non-finite"])
    with pytest.raises(ModelError, match="non-finite"):
        ENTRY_POINTS[entry](f, ds, ds.observation(0))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("spoiler", ["one-short", "scalar", "column"])
def test_wrong_shape_scores_are_model_errors(spoiler, entry):
    # one score per row or nothing: a short or reshaped batch would
    # otherwise average into a silently wrong relaxed prediction
    ds = make_regression(3, 20, seed=23)
    f = SpoiledPredictor(fit_ols(ds, 3), SPOILERS[spoiler])
    with pytest.raises(ModelError, match="shape"):
        ENTRY_POINTS[entry](f, ds, ds.observation(0))


BAD_MODES = {
    "ag-break-direction": lambda f, ds, x: ag_break(f, ds, x, direction="sideways"),
    "ag-break-baseline": lambda f, ds, x: ag_break(f, ds, x, baseline_mode="mean"),
    "ag-break-up-distance": lambda f, ds, x: ag_break(f, ds, x, up_distance="far"),
    "shapley-exact-baseline": lambda f, ds, x: shapley_exact(f, ds, x, baseline_mode="mean"),
    "shapley-sampled-baseline": lambda f, ds, x: shapley_sampled(
        f, ds, x, 4, np.random.Generator(np.random.PCG64(1)), baseline_mode="mean"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MODES))
def test_unknown_modes_rejected_before_scoring(case):
    ds = make_regression(3, 20, seed=23)
    f = CountingPredictor(fit_ols(ds, 3))
    with pytest.raises(SchemaError, match="unknown"):
        BAD_MODES[case](f, ds, ds.observation(0))
    assert f.calls == 0


def test_scorer_calls_per_explanation(wine, wine_ols):
    # wine has p=11: the greedy walk scores 1 + p(p+1)/2 pinned sets, exact
    # Shapley 2^p sets and the trace p+1 steps; f(x_new) is the full set, not
    # an extra call. Each pinned set is scored once per explanation, so a lost
    # cache or an added scoring pass changes these counts.
    x = wine.observation(4)
    cases = {
        "ag-break-up": (lambda f: ag_break(f, wine, x, direction="up"), 67),
        "ag-break-down": (lambda f: ag_break(f, wine, x, direction="down"), 67),
        "shapley-exact": (lambda f: shapley_exact(f, wine, x), 2048),
        "trace": (
            lambda f: relaxation_trace(f, wine, x, list(range(wine.n_features)), "up"),
            12,
        ),
    }
    for name, (explain, expected) in cases.items():
        f = CountingPredictor(wine_ols)
        explain(f)
        assert f.calls == expected, name


WINE_EXPLANATIONS = {
    "ag-break-up": lambda f, ds, x: ag_break(f, ds, x, direction="up"),
    "ag-break-down": lambda f, ds, x: ag_break(f, ds, x, direction="down"),
    "ag-break-to-fnew": lambda f, ds, x: ag_break(f, ds, x, up_distance="to-fnew"),
    "shapley-exact": lambda f, ds, x: shapley_exact(f, ds, x),
    "shapley-sampled": lambda f, ds, x: shapley_sampled(
        f, ds, x, n_permutations=20, rng=np.random.Generator(np.random.PCG64(3))
    ),
    "trace": lambda f, ds, x: relaxation_trace(f, ds, x, [3, 1, 4, 0, 2, 5, 6, 7, 8, 9, 10]),
}


@pytest.mark.parametrize("name", sorted(WINE_EXPLANATIONS))
def test_explanations_score_only_through_the_engine(wine, wine_ols, name):
    # f(x_new) comes from the engine's full set, so a scorer that only takes
    # feature columns explains exactly like the model it wraps
    x = wine.observation(4)
    explain = WINE_EXPLANATIONS[name]
    assert _dump(explain(ColumnsOnlyPredictor(wine_ols), wine, x)) == _dump(
        explain(wine_ols, wine, x)
    )


def added_contribution(predictor, dataset, x_new, fixed, j):
    """Signed change in relaxed prediction from additionally pinning feature j."""
    without = relaxed_prediction(predictor, dataset, x_new, fixed)
    return relaxed_prediction(predictor, dataset, x_new, fixed | {j}) - without


class TestRelaxedDistance:
    """|relaxed prediction - model prediction| for a pinned set."""

    def test_zero_at_full_pin(self, wine, wine_ols):
        x = wine.observation(4)
        full = frozenset(range(wine.n_features))
        distance = abs(relaxed_prediction(wine_ols, wine, x, full) - wine_ols.score_one(x))
        assert distance == pytest.approx(0.0, abs=1e-12)

    def test_constant_predictor_always_zero(self):
        ds = make_regression(3, 20, seed=9)
        c = ConstantPredictor(schema=ds.schema(), value=2.5)
        x = ds.observation(0)
        for fixed in [frozenset(), frozenset({1}), frozenset({0, 2})]:
            assert abs(relaxed_prediction(c, ds, x, fixed) - c.score_one(x)) == 0.0

    def test_additive_closed_form(self):
        ds = make_regression(3, 40, seed=12, coefficients=[2.0, -1.5, 0.5])
        m = fit_ols(ds, 3)
        x = ds.observation(7)
        for j in range(3):
            fixed = frozenset(range(3)) - {j}
            means = ds.feature_columns()[j].values.mean()
            expected = abs((means - x[j]) * m.coefficients[j])
            got = abs(relaxed_prediction(m, ds, x, fixed) - m.score_one(x))
            assert got == pytest.approx(expected, abs=1e-9)
            assert got == pytest.approx(
                abs(brute_force_relaxed(m, ds, x, fixed) - m.score_one(x)), abs=1e-12
            )


class TestAddedContribution:
    def test_constant_predictor(self):
        ds = make_regression(2, 15, seed=3)
        c = ConstantPredictor(schema=ds.schema(), value=1.0)
        x = ds.observation(0)
        assert added_contribution(c, ds, x, frozenset(), 0) == 0.0
        assert added_contribution(c, ds, x, frozenset({0}), 1) == 0.0

    def test_additive_independence_of_fixed_set(self):
        ds = make_regression(4, 30, seed=14)
        m = fit_ols(ds, 4)
        x = ds.observation(2)
        for j in range(4):
            values = []
            others = [k for k in range(4) if k != j]
            for r in range(4):
                for fixed in itertools.combinations(others, r):
                    values.append(added_contribution(m, ds, x, frozenset(fixed), j))
            assert max(values) - min(values) <= 1e-10

    def test_pure_interaction_hand_case(self):
        ds = dataset_from_rows(
            ["x1", "x2"], ["numeric"] * 2, [(0.0, 0.0), (2.0, 2.0)]
        )
        f = ProductPredictor()
        x = (2.0, 2.0)
        assert relaxed_prediction(f, ds, x, frozenset({0})) == pytest.approx(2.0)
        assert relaxed_prediction(f, ds, x, frozenset()) == pytest.approx(2.0)
        assert added_contribution(f, ds, x, frozenset(), 0) == pytest.approx(0.0)


class TestRelaxationTrace:
    def test_single_feature_down(self):
        ds = make_regression(1, 10, seed=4, noise=0.2)
        m = fit_ols(ds, 1)
        x = ds.observation(0)
        trace = relaxation_trace(m, ds, x, [0], "down")
        assert len(trace.steps) == 2
        rows = [ds.observation(i) for i in range(ds.n_rows)]
        assert trace.steps[0].mean == pytest.approx(m.score_one(x), abs=1e-12)
        assert trace.steps[1].mean == pytest.approx(
            float(np.mean(m.score_rows(rows))), abs=1e-12
        )

    def test_first_down_step_is_degenerate(self, wine, wine_ols):
        x = wine.observation(4)
        order = list(range(wine.n_features))
        trace = relaxation_trace(wine_ols, wine, x, order, "down")
        f_new = wine_ols.score_one(x)
        assert np.all(np.abs(trace.steps[0].scores - f_new) < 1e-12)

    def test_step_means_telescope_with_added_contribution(self):
        ds = make_regression(5, 40, seed=27, noise=0.4)
        m = fit_kernel_ridge(ds, 5, gamma=0.4, ridge=1e-2)
        x = ds.observation(3)
        order = [3, 0, 4, 1, 2]
        trace = relaxation_trace(m, ds, x, order, "up")
        fixed = frozenset()
        for step, j in zip(trace.steps[1:], order):
            delta = added_contribution(m, ds, x, fixed, j)
            assert step.mean - trace_mean_before(trace, step) == pytest.approx(
                delta, abs=1e-12
            )
            fixed = fixed | {j}

    def test_endpoints_down(self):
        ds = make_regression(3, 25, seed=31, noise=0.1)
        m = fit_ols(ds, 3)
        x = ds.observation(1)
        trace = relaxation_trace(m, ds, x, [2, 0, 1], "down")
        rows = [ds.observation(i) for i in range(ds.n_rows)]
        assert trace.steps[0].mean == pytest.approx(m.score_one(x), abs=1e-9)
        assert trace.steps[-1].mean == pytest.approx(
            float(np.mean(m.score_rows(rows))), abs=1e-9
        )

    def test_fixed_sets_shrink_or_grow_by_one(self):
        ds = make_regression(4, 12, seed=8)
        m = fit_ols(ds, 4)
        x = ds.observation(0)
        for direction in ("down", "up"):
            trace = relaxation_trace(m, ds, x, [0, 1, 2, 3], direction)
            for a, b in zip(trace.steps, trace.steps[1:]):
                assert abs(len(a.fixed) - len(b.fixed)) == 1

    def test_order_must_be_permutation(self):
        ds = make_regression(3, 10, seed=2)
        m = fit_ols(ds, 3)
        with pytest.raises(SchemaError, match="permutation"):
            relaxation_trace(m, ds, ds.observation(0), [0, 0, 1], "down")

    def test_json_shape(self):
        ds = make_regression(2, 6, seed=19)
        m = fit_ols(ds, 2)
        trace = relaxation_trace(m, ds, ds.observation(0), [1, 0], "down")
        d = trace.to_json_dict()
        assert d["direction"] == "down"
        assert len(d["steps"]) == 3
        step = d["steps"][1]
        assert set(step) == {"fixed", "relaxed_feature", "scores", "mean"}
        assert step["relaxed_feature"] == 1
        assert len(step["scores"]) == 6
        assert step["mean"] == pytest.approx(np.mean(step["scores"]), abs=1e-12)


def trace_mean_before(trace, step):
    idx = trace.steps.index(step)
    return trace.steps[idx - 1].mean


def test_base_scores_of_is_lazy():
    ds = make_regression(3, 10, seed=5)
    f = CountingPredictor(fit_ols(ds, 3))
    columns = [c.values for c in ds.feature_columns()]
    batches = f.scores_of(itertools.repeat(columns))
    next(batches)
    next(batches)
    assert f.calls == 2


# ---------------------------------------------------------------------------
# external scorers: several pinned sets in one payload


@dataclass(frozen=True, eq=False)
class CountingExternal(ExternalPredictor):
    """Records the row count of every payload the scorer is spawned for."""

    payloads: list = field(default_factory=list)

    def score_columns(self, columns):
        self.payloads.append(len(columns[0]))
        return super().score_columns(columns)


@dataclass(frozen=True, eq=False)
class PerMaskExternal(CountingExternal):
    """Keeps the base `Predictor.scores_of`: one payload per pinned set."""

    scores_of = Predictor.scores_of


BATCH_TABLE = make_regression(5, 12, seed=31)
BATCH_ROW = BATCH_TABLE.observation(3)
LINEAR_SCORER = ("linear_scorer.py", "0.5", "1.5", "-2.0", "0.75", "3.0", "-1.0")

EXPLANATIONS = {
    "ag-break-up": lambda f: ag_break(f, BATCH_TABLE, BATCH_ROW, direction="up"),
    "ag-break-down": lambda f: ag_break(f, BATCH_TABLE, BATCH_ROW, direction="down"),
    "trace": lambda f: relaxation_trace(f, BATCH_TABLE, BATCH_ROW, [2, 0, 4, 1, 3], "down"),
    "shapley-exact": lambda f: shapley_exact(f, BATCH_TABLE, BATCH_ROW),
}

# p = 5 features. Per pinned set: the greedy walk scores 1 + p(p+1)/2 sets,
# the trace p + 1 sets, exact Shapley 2^p sets; f(x_new) is the full set.
# Joined: one payload per greedy step, the start and full sets joining the
# first. Up's last step pins the full set, already scored, so it takes p - 1;
# Down takes p. One payload holds the whole trace, one all 2^p subsets.
SPAWNS = {
    "ag-break-up": (16, 4),
    "ag-break-down": (16, 5),
    "trace": (6, 1),
    "shapley-exact": (32, 1),
}


def _external(cls, *scorer):
    # These tests spawn the scorer about a hundred times; an isolated
    # interpreter without site packages starts in about half the time.
    python, *script = fixture_command(*scorer)
    return cls(schema=BATCH_TABLE.schema(), command=(python, "-I", "-S", *script))


def _dump(result) -> str:
    # JSON floats round-trip, so equal text means bitwise-equal results
    return json.dumps(result.to_json_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def per_mask_results():
    out = {}
    for name, explain in EXPLANATIONS.items():
        f = _external(PerMaskExternal, *LINEAR_SCORER)
        out[name] = (_dump(explain(f)), f.payloads)
    return out


@pytest.mark.parametrize("name", sorted(EXPLANATIONS))
def test_joined_payloads_give_identical_results(per_mask_results, name):
    per_mask, per_mask_payloads = per_mask_results[name]
    f = _external(CountingExternal, *LINEAR_SCORER)
    assert _dump(EXPLANATIONS[name](f)) == per_mask
    assert (len(per_mask_payloads), len(f.payloads)) == SPAWNS[name]
    assert len(f.payloads) <= BATCH_TABLE.n_features + 2
    assert sum(f.payloads) == sum(per_mask_payloads)


@pytest.mark.parametrize(
    "cap, payloads",
    [
        (30, [24, 24, 24]),  # two 12-row sets fit under the cap, three do not
        (40, [36, 36]),
        (5, [12] * 6),  # a set larger than the cap goes alone
    ],
)
def test_row_cap_splits_payloads(per_mask_results, monkeypatch, cap, payloads):
    monkeypatch.setattr(predict, "PAYLOAD_ROWS", cap)
    f = _external(CountingExternal, *LINEAR_SCORER)
    assert _dump(EXPLANATIONS["trace"](f)) == per_mask_results["trace"][0]
    assert f.payloads == payloads


# The first payload of the greedy walk joins the start set and five
# candidates of 12 rows each, plus the one-row full set; the trace's joins
# its six sets of 12 rows.
FIRST_PAYLOAD = {"ag-break-up": 73, "trace": 72}


@pytest.mark.parametrize(
    "scorer, message",
    [
        (("short_output_scorer.py",), "scorer returned {} scores for {} rows"),
        (("failing_scorer.py",), "failed"),
        (("linear_scorer.py", "nan", "1", "1", "1", "1", "1"), "non-finite"),
    ],
    ids=["short", "failing", "nan"],
)
@pytest.mark.parametrize("name", sorted(FIRST_PAYLOAD))
def test_scorer_failure_in_joined_payload(name, scorer, message):
    rows = FIRST_PAYLOAD[name]
    f = _external(CountingExternal, *scorer)
    with pytest.raises(ScorerError, match=message.format(rows - 1, rows)):
        EXPLANATIONS[name](f)
    assert f.payloads == [rows]
