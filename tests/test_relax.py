import gc
import itertools
import json
import sys
import threading
import weakref
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
from explainkit import predict, relax
from explainkit.predict import Encoder, LinearModel, Predictor
from explainkit.relax import RelaxedValues
from explainkit.tabular import Column, Dataset, FeatureSchema

from conftest import ScoredPredictor, fixture_command, make_regression


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


class CountingPredictor(ScoredPredictor):
    """Wraps a model and counts its score_columns calls and their rows."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0
        self.rows = []

    def score_columns(self, columns):
        self.calls += 1
        self.rows.append(len(columns[0]))
        return super().score_columns(columns)


class ColumnsOnlyPredictor(ScoredPredictor):
    """Wraps a model but refuses `score_rows`, and so `score_one`: an
    explanation that scores outside the relaxed-value engine fails."""

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

    @pytest.mark.parametrize("n_rows", [None, 5])
    def test_background_columns_are_read_only(self, n_rows):
        ds = make_regression(2, 10, seed=6)
        m = fit_ols(ds, 2)
        before = ds.columns[1].values.copy()

        class InPlacePredictor(Predictor):
            schema = m.schema

            def score_columns(self, columns):
                columns[1][:] = 0.0
                return m.score_columns(columns)

        x = ds.observation(0)
        with pytest.raises(ValueError, match="read-only"):
            if n_rows is None:
                relaxed_prediction(InPlacePredictor(), ds, x, frozenset({0}))
            else:
                RelaxedValues(InPlacePredictor(), ds, x, np.arange(n_rows)).means([1])
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


def test_non_finite_closed_form_is_a_model_error():
    # the base, 1e308 times the column means, overflows in the closed form,
    # which raises before the full set is scored
    ds = make_regression(2, 10, seed=4)
    schema = ds.schema()
    model = LinearModel(schema, Encoder.for_schema(schema), 0.0, np.full(2, 1e308), np.zeros(2))
    with pytest.raises(ModelError, match="^a pinned set's relaxed prediction overflows; rescale"):
        ag_break(model, ds, np.full(2, 2.0))


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
    "trace-direction": lambda f, ds, x: relaxation_trace(f, ds, x, [0, 1, 2], "sideways"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODES))
def test_unknown_modes_rejected_before_scoring(case):
    ds = make_regression(3, 20, seed=23)
    f = CountingPredictor(fit_ols(ds, 3))
    message = "^unknown (direction 'sideways'|baseline mode 'mean'|up_distance 'far')$"
    with pytest.raises(SchemaError, match=message):
        BAD_MODES[case](f, ds, ds.observation(0))
    assert f.calls == 0


# wine has p=11: the greedy walk scores 1 + p(p+1)/2 pinned sets, exact
# Shapley 2^p sets and the trace p+1 steps; f(x_new) is the full set, not an
# extra call.
WINE_SCORER_CALLS = {
    "ag-break-up": (lambda f, ds, x: ag_break(f, ds, x, direction="up"), 67),
    "ag-break-down": (lambda f, ds, x: ag_break(f, ds, x, direction="down"), 67),
    "shapley-exact": (lambda f, ds, x: shapley_exact(f, ds, x), 2048),
    "trace": (
        lambda f, ds, x: relaxation_trace(f, ds, x, list(range(ds.n_features)), "up"),
        12,
    ),
}


def test_scorer_calls_per_explanation(wine, wine_ols):
    # CountingPredictor has no additive view, so every pinned set is scored,
    # and each once per explanation: a lost cache or an added scoring pass
    # changes these counts.
    x = wine.observation(4)
    for name, (explain, expected) in WINE_SCORER_CALLS.items():
        f = CountingPredictor(wine_ols)
        explain(f, wine, x)
        assert f.calls == expected, name


@pytest.mark.parametrize("name", ["ag-break-up", "ag-break-down", "shapley-exact"])
def test_additive_view_scores_only_f_new(wine, wine_ols, monkeypatch, name):
    # OLS has an additive view: every pinned set but the full one takes the
    # closed form, so the explanation scores x_new alone, as one row
    rows = []
    score_columns = LinearModel.score_columns

    def recording(self, columns):
        rows.append(len(columns[0]))
        return score_columns(self, columns)

    monkeypatch.setattr(LinearModel, "score_columns", recording)
    WINE_SCORER_CALLS[name][0](wine_ols, wine, wine.observation(4))
    assert rows == [1]


# Rows of each call of an in-process scorer without an additive view. Only
# the external scorer takes sets `ahead`, so each call scores just the sets
# asked for (n background rows each; f(x_new) is one):
# Up scores the start set, the first step's 11 candidates and f(x_new), then
# the candidates of steps 2 to 10; Down scores f(x_new), then every step's.
IN_PROCESS_ROWS = {
    "ag-break-up": lambda n: [n] * 12 + [1] + [n] * 54,
    "ag-break-down": lambda n: [1] + [n] * 66,
}


@pytest.mark.parametrize("name", sorted(IN_PROCESS_ROWS))
def test_in_process_scorers_take_no_lookahead(wine, wine_ols, name):
    # the lookahead budget is the external scorer's alone; OLS, with its
    # view, still scores f(x_new) alone (see the test above)
    f = CountingPredictor(wine_ols)
    WINE_SCORER_CALLS[name][0](f, wine, wine.observation(4))
    assert f.rows == IN_PROCESS_ROWS[name](wine.n_rows)


def test_trace_encodes_only_the_rows_it_scores(wine, wine_ols, monkeypatch):
    # the closed-form terms are built on first use, so a trace, which scores
    # the rows of every step, never encodes the background on its own
    calls = []
    encode_columns = Encoder.encode_columns

    def recording(self, columns):
        calls.append(len(columns[0]))
        return encode_columns(self, columns)

    monkeypatch.setattr(Encoder, "encode_columns", recording)
    relaxation_trace(wine_ols, wine, wine.observation(4), list(range(wine.n_features)))
    assert len(calls) == wine.n_features + 1


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
    # feature columns explains exactly like the model it wraps, scored
    # without its additive view
    x = wine.observation(4)
    explain = WINE_EXPLANATIONS[name]
    assert _dump(explain(ColumnsOnlyPredictor(wine_ols), wine, x)) == _dump(
        explain(ScoredPredictor(wine_ols), wine, x)
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

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_full_step_is_f_new_bit_for_bit(self, wine, wine_ols, direction):
        # OLS scores n copies of row 410 with a last bit off in the last copy;
        # the full step repeats the one-row score instead
        x = wine.observation(410)
        trace = relaxation_trace(wine_ols, wine, x, list(range(wine.n_features)), direction)
        full = trace.steps[0 if direction == "down" else -1]
        assert np.array_equal(full.scores, np.full(wine.n_rows, wine_ols.score_one(x)))

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_full_step_mean_is_f_new_bit_for_bit(self, wine, wine_ols, direction):
        # np.mean of row 41's 1,599 equal scores is 5.730295687132682, one
        # bit above f(x_new) = 5.730295687132681
        x = wine.observation(41)
        trace = relaxation_trace(wine_ols, wine, x, list(range(wine.n_features)), direction)
        full = trace.steps[0 if direction == "down" else -1]
        assert full.mean == wine_ols.score_one(x)

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
    """Records the row count of every payload the scorer is sent, whether a
    spare waits after it, and the number of scorer processes started."""

    payloads: list = field(default_factory=list)
    spares: list = field(default_factory=list)
    starts: list = field(default_factory=lambda: [0])

    def score_columns(self, columns):
        self.payloads.append(len(columns[0]))
        scores = super().score_columns(columns)
        self.spares.append(bool(self._started))
        return scores

    def _spawn(self):
        self.starts[0] += 1
        return super()._spawn()


def _starts_one_ahead(f):
    """Each payload of an explanation but the last starts the process the
    next one takes, so k payloads start k processes."""
    k = len(f.payloads)
    return f.spares == [True] * (k - 1) + [False] and f.starts[0] == k


@dataclass(frozen=True, eq=False)
class PerMaskExternal(CountingExternal):
    """Keeps the base `Predictor.scores_of` and takes no lookahead: one
    payload per pinned set, each scored when it is asked for."""

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
# Joined: the greedy walk's first payload takes the start and full sets and
# the first step's candidates, and looks ahead: all 2^p sets are 373 rows
# (31 of 12 rows and the one-row full set), within `LOOKAHEAD_ROWS`, so one
# payload holds them all. One payload holds the whole trace (5 sets of 12
# rows and the one-row full set), one all 2^p subsets.
SPAWNS = {
    "ag-break-up": (16, 1),
    "ag-break-down": (16, 1),
    "trace": (6, 1),
    "shapley-exact": (32, 1),
}

# Rows scored (per pinned set, joined). The lookahead scores the 16 sets the
# greedy walk never asks for as well, 192 rows.
ROWS = {
    "ag-break-up": (181, 373),
    "ag-break-down": (181, 373),
    "trace": (61, 61),
    "shapley-exact": (373, 373),
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
    assert (sum(per_mask_payloads), sum(f.payloads)) == ROWS[name]
    assert _starts_one_ahead(f)


@pytest.mark.parametrize(
    "cap, payloads",
    [
        (30, [25, 24, 12]),  # the one-row full set and two 12-row sets fit
        (40, [37, 24]),
        (5, [1] + [12] * 5),  # a set larger than the cap goes alone
    ],
)
def test_row_cap_splits_payloads(per_mask_results, monkeypatch, cap, payloads):
    monkeypatch.setattr(predict, "PAYLOAD_ROWS", cap)
    f = _external(CountingExternal, *LINEAR_SCORER)
    assert _dump(EXPLANATIONS["trace"](f)) == per_mask_results["trace"][0]
    assert f.payloads == payloads
    assert _starts_one_ahead(f)  # a later payload of the same call follows


@pytest.mark.parametrize(
    "budget, spares", [(5_000, [False]), (0, [True, True, True, False, False])]
)
def test_a_spare_starts_only_where_another_payload_is_known_to_follow(
    monkeypatch, budget, spares
):
    # a walk whose every set fits in one payload starts no spare, and leaves
    # every set the trace needs in the row; one that left a layer out starts
    # one at each payload but its last, and the trace after it is not
    # announced, so it spawns afresh and starts none
    monkeypatch.setattr(predict, "LOOKAHEAD_ROWS", budget)
    f = _external(CountingExternal, *LINEAR_SCORER)
    EXPLANATIONS["ag-break-up"](f)
    EXPLANATIONS["trace"](f)
    assert (f.spares, f.starts[0]) == (spares, len(spares))


# Layers of the greedy lookahead on the 12-row table: 10 sets two flips from
# the start, 10 three flips, 5 four flips (120, 120 and 60 rows), then the
# one set five flips away: Up's full set, already in the first payload, or
# Down's empty set, 12 rows. Each step that needs a call adds whole layers
# while their rows stay within the budget.
@pytest.mark.parametrize(
    "direction, budget, payloads",
    [
        ("up", 0, [73, 48, 36, 24]),  # no lookahead: one payload per step
        ("down", 0, [61, 48, 36, 24, 12]),
        # the first step's two-flip layer does not fit, the second step's does
        ("up", 119, [73, 48 + 72, 24]),
        ("up", 120, [73 + 120, 36 + 36]),
        ("down", 120, [61 + 120, 36 + 36 + 12]),
        ("up", 240, [73 + 240, 24]),
        ("up", 300, [373]),
    ],
)
def test_lookahead_budget_cuts_whole_layers(
    per_mask_results, monkeypatch, direction, budget, payloads
):
    monkeypatch.setattr(predict, "LOOKAHEAD_ROWS", budget)
    f = _external(CountingExternal, *LINEAR_SCORER)
    name = f"ag-break-{direction}"
    assert _dump(EXPLANATIONS[name](f)) == per_mask_results[name][0]
    assert f.payloads == payloads
    assert _starts_one_ahead(f)  # a walk that left a layer out calls again


# The first payload of the greedy walk joins the start set, five candidates
# of 12 rows each and the one-row full set, and looks ahead to the other 26
# sets; the trace's joins its one-row full set and five sets of 12 rows.
FIRST_PAYLOAD = {"ag-break-up": 373, "trace": 61}


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


# ---------------------------------------------------------------------------
# the row's slot: scored sets shared across calls for one explained row


def _wine_sample(wine, rows=400, features=None, seed=1):
    """A seeded sample of wine rows with the response and the named features."""
    picked = np.sort(np.random.Generator(np.random.PCG64(seed)).choice(wine.n_rows, rows, False))
    names = [*(features or wine.feature_names), "quality"]
    columns = tuple(Column(c.name, c.kind, c.values[picked]) for c in wine.columns
                    if c.name in names)
    return Dataset(columns=columns, response_index=len(columns) - 1)


def _copy(dataset):
    """An equal dataset with columns of its own."""
    columns = tuple(Column(c.name, c.kind, c.values, c.levels) for c in dataset.columns)
    return Dataset(columns=columns, response_index=dataset.response_index)


@pytest.fixture(scope="module")
def krr_sample(wine):
    """(make a fresh predictor, dataset, x): kernel ridge on 400 wine rows;
    x has citric_acid 0.0."""
    ds = _wine_sample(wine)
    model = fit_kernel_ridge(ds, ds.response_index, gamma=1.0, ridge=0.1)
    return (lambda: CountingPredictor(model)), ds, ds.observation(26)


@pytest.fixture(scope="module")
def external_sample(wine):
    """(make a fresh predictor, dataset, x): the linear scorer on 400 wine rows
    of three features."""
    ds = _wine_sample(wine, features=("volatile_acidity", "sulphates", "alcohol"))
    python, *script = fixture_command("linear_scorer.py", "2.5", "-1.2", "0.9", "0.3")

    def make():
        return CountingExternal(schema=ds.schema(), command=(python, "-I", "-S", *script))

    return make, ds, ds.observation(3)


def _down_order(attribution, dataset):
    """The features in the order a Down walk released them."""
    index_of = {name: j for j, name in enumerate(dataset.feature_names)}
    return [index_of[e.feature] for e in attribution.feature_entries()][::-1]


def _methods(order):
    """Every explanation of one row, as (f, ds, x) -> its result as text."""
    return {
        "ag-break-up": lambda f, ds, x: _dump(ag_break(f, ds, x, direction="up")),
        "ag-break-down": lambda f, ds, x: _dump(ag_break(f, ds, x, direction="down")),
        "trace-down": lambda f, ds, x: _dump(relaxation_trace(f, ds, x, order, "down")),
        "trace-up": lambda f, ds, x: _dump(relaxation_trace(f, ds, x, order, "up")),
        "shapley-sampled": lambda f, ds, x: _dump(shapley_sampled(
            f, ds, x, n_permutations=10, rng=np.random.Generator(np.random.PCG64(5))
        )),
        "shapley-exact": lambda f, ds, x: _dump(shapley_exact(f, ds, x)),
        "relaxed": lambda f, ds, x: repr(relaxed_prediction(f, ds, x, order[:2])),
    }


@pytest.mark.parametrize("setup", ["krr_sample", "external_sample"])
def test_results_do_not_depend_on_what_ran_before(request, setup):
    # each method alone on a fresh predictor object, then all of them in turn
    # on one object, both ways round: every result is the same, bit for bit
    make, ds, x = request.getfixturevalue(setup)
    order = _down_order(ag_break(make(), ds, x, direction="down"), ds)
    methods = _methods(order)
    alone = {name: explain(make(), ds, x) for name, explain in methods.items()}
    for names in (list(methods), list(methods)[::-1]):
        f = make()
        for name in names:
            assert methods[name](f, ds, x) == alone[name], name


@pytest.mark.parametrize("setup", ["krr_sample", "external_sample"])
@pytest.mark.parametrize("direction", ["up", "down"])
def test_walks_make_the_same_calls_after_the_row_was_scored(request, setup, direction):
    # a walk scores every set of its own, so its calls, payloads and
    # lookahead do not depend on what the row's slot holds
    make, ds, x = request.getfixturevalue(setup)
    fresh, f = make(), make()
    ag_break(fresh, ds, x, direction=direction)
    shapley_exact(f, ds, x)  # leaves every pinned set's mean in the slot
    ag_break(f, ds, x, direction="up" if direction == "down" else "down")
    sent = f.rows if hasattr(f, "rows") else f.payloads
    before = len(sent)
    ag_break(f, ds, x, direction=direction)
    assert sent[before:] == (fresh.rows if hasattr(f, "rows") else fresh.payloads)


@pytest.mark.parametrize("setup", ["krr_sample", "external_sample"])
def test_trace_along_the_down_path_scores_nothing(request, setup):
    # the walk leaves its path's score arrays in the slot, the full set's one
    # row x_new among them, and the trace repeats that score for its full step
    make, ds, x = request.getfixturevalue(setup)
    f = make()
    order = _down_order(ag_break(f, ds, x, direction="down"), ds)
    before = len(f.rows) if hasattr(f, "rows") else len(f.payloads)
    relaxation_trace(f, ds, x, order, "down")
    sent = f.rows if hasattr(f, "rows") else f.payloads
    assert sent[before:] == []


TRACE_ORDERS = ([2, 0, 4, 1, 3], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 3, 0, 4, 2])


@pytest.fixture(scope="module")
def fresh_traces():
    """Each trace of BATCH_ROW along TRACE_ORDERS, both ways, on a fresh predictor."""
    return {
        (tuple(order), direction): _dump(relaxation_trace(
            _external(CountingExternal, *LINEAR_SCORER), BATCH_TABLE, BATCH_ROW, order, direction
        ))
        for order in TRACE_ORDERS for direction in ("down", "up")
    }


@pytest.mark.parametrize("budget", [5_000, 50, 0])
def test_traces_after_a_walk_match_fresh_ones(fresh_traces, monkeypatch, budget):
    # the Up walk leaves every set it scored in the row, its candidates and
    # lookahead sets too; traces along any order read them as a fresh trace
    # would score them, and with every set scored (5,000 rows) score nothing
    monkeypatch.setattr(predict, "LOOKAHEAD_ROWS", budget)
    f = _external(CountingExternal, *LINEAR_SCORER)
    EXPLANATIONS["ag-break-up"](f)
    walked = list(f.payloads)
    for (order, direction), fresh in fresh_traces.items():
        assert _dump(relaxation_trace(f, BATCH_TABLE, BATCH_ROW, order, direction)) == fresh
    assert budget < 5_000 or f.payloads == walked


def test_calls_of_the_kernel_ridge_request_sequence():
    # Up, Down, the trace along Down's path and sampled Shapley, as a
    # `krr-attrib` request makes them: the calls and rows each one scores
    ds = make_regression(5, 40, seed=12, noise=0.3)
    f = CountingPredictor(fit_kernel_ridge(ds, "y", gamma=0.5, ridge=0.1))
    x, counts = ds.observation(5), []

    def counted(explain):
        calls, rows = f.calls, sum(f.rows)
        result = explain()
        counts.append((f.calls - calls, sum(f.rows) - rows))
        return result

    counted(lambda: ag_break(f, ds, x, direction="up"))
    down = counted(lambda: ag_break(f, ds, x, direction="down", baseline_mode="intercept"))
    counted(lambda: relaxation_trace(f, ds, x, _down_order(down, ds), "down"))
    rng = np.random.Generator(np.random.PCG64(3))
    counted(lambda: shapley_sampled(f, ds, x, 8, rng, baseline_mode="intercept"))
    # each walk scores 15 sets of 40 rows and the one-row full set, one call
    # each; the trace finds Down's path in the row; Shapley's permutations
    # reach 6 sets that neither walk scored
    assert counts == [(16, 601), (16, 601), (0, 0), (6, 240)]


class HoldingPredictor(ScoredPredictor):
    """Wraps a model and records, as it scores each batch, how many of the
    score arrays it returned before are still alive."""

    def __init__(self, inner):
        super().__init__(inner)
        self.returned = []
        self.alive = []

    def score_columns(self, columns):
        self.alive.append(sum(ref() is not None for ref in self.returned))
        scores = super().score_columns(columns)
        self.returned.append(weakref.ref(scores))
        return scores


def test_means_keep_no_score_array():
    # exact Shapley asks for all 2^p sets in one call; each array goes once
    # its mean is cached, so when a set is scored only the last one is alive
    ds = make_regression(5, 40, seed=12, noise=0.3)
    f = HoldingPredictor(fit_kernel_ridge(ds, "y", gamma=0.5, ridge=0.1))
    RelaxedValues(f, ds, ds.observation(3)).means(range(1 << 5))
    assert len(f.alive) == 32 and max(f.alive) <= 1
    assert all(ref() is None for ref in f.returned)


def _trace_calls_after_down_walk(walked, traced):
    """Scorer calls of a trace along the Down path, made after a Down walk;
    each is (predictor, dataset, x) and `traced` may share `walked`'s f."""
    f, ds, x = walked
    order = _down_order(ag_break(f, ds, x, direction="down"), ds)
    g, ds, x = traced
    before = g.calls
    relaxation_trace(g, ds, x, order, "down")
    return g.calls - before


def test_the_slot_is_keyed_by_predictor_object_columns_and_x_bits(krr_sample):
    make, ds, x = krr_sample
    p = ds.n_features
    f = make()
    assert _trace_calls_after_down_walk((f, ds, x), (f, ds, x)) == 0
    # another predictor object, even of the same model
    assert _trace_calls_after_down_walk((f, ds, x), (make(), ds, x)) == p + 1
    # an equal dataset with columns of its own
    assert _trace_calls_after_down_walk((f, ds, x), (f, _copy(ds), x)) == p + 1
    # x differing only in the sign of a zero
    assert x[2] == 0.0
    negative = (*x[:2], -0.0, *x[3:])
    assert _trace_calls_after_down_walk((f, ds, x), (f, ds, negative)) == p + 1


def test_explicit_background_rows_neither_read_nor_take_the_slot(krr_sample):
    make, ds, x = krr_sample
    f = make()
    order = _down_order(ag_break(f, ds, x, direction="down"), ds)  # scored the empty set
    before = f.calls
    RelaxedValues(f, ds, x, np.arange(ds.n_rows)).means([0])
    assert f.calls == before + 1
    # and the slot still holds the walk's row
    before = f.calls
    relaxation_trace(f, ds, x, order, "down")
    assert f.calls == before


def test_an_additive_predictor_shares_nothing(wine, wine_ols, monkeypatch):
    # its closed-form values take other last bits in other batches, so even
    # the trace after its own Down walk scores every step: the full set as
    # the one row x_new, then n rows for each of the others
    rows = []
    score_columns = LinearModel.score_columns

    def recording(self, columns):
        rows.append(len(columns[0]))
        return score_columns(self, columns)

    monkeypatch.setattr(LinearModel, "score_columns", recording)
    x = wine.observation(4)
    order = _down_order(ag_break(wine_ols, wine, x, direction="down"), wine)
    shapley_sampled(wine_ols, wine, x, 4, np.random.Generator(np.random.PCG64(1)))
    rows.clear()
    relaxation_trace(wine_ols, wine, x, order, "down")
    assert rows == [1] + [wine.n_rows] * wine.n_features
    assert all(row.predictor() is not wine_ols for row in relax._slot)


@pytest.mark.parametrize("setup", ["krr_sample", "external_sample"])
def test_the_slot_does_not_keep_a_dropped_predictor(request, setup):
    make, ds, x = request.getfixturevalue(setup)
    f = make()
    ag_break(f, ds, x, direction="down")
    assert [row.predictor() for row in relax._slot] == [f]
    dropped = weakref.ref(f)
    del f
    gc.collect()
    assert dropped() is None
    assert relax._slot == []


def test_concurrent_explanations_match_serial_ones():
    # threads explaining different rows with one predictor take the slot from
    # each other mid-explanation; every result still equals the serial one
    ds = make_regression(4, 30, seed=41, noise=0.3)
    model = fit_kernel_ridge(ds, 4, gamma=0.5, ridge=0.1)

    def explain(f, i):
        x = ds.observation(i)
        order = _down_order(ag_break(f, ds, x, direction="down"), ds)
        return [
            _dump(ag_break(f, ds, x, direction="up")),
            _dump(relaxation_trace(f, ds, x, order, "down")),
            _dump(shapley_exact(f, ds, x)),
            repr(relaxed_prediction(f, ds, x, order[:2])),
        ]

    rows = list(range(6))
    serial = {i: explain(CountingPredictor(model), i) for i in rows}
    f, wrong = CountingPredictor(model), []

    def worker(k):
        try:
            for i in (rows[k:] + rows[:k]) * 4:
                if explain(f, i) != serial[i]:
                    wrong.append(i)
        except Exception as exc:  # reported below, not lost in the thread
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


ONE_FEATURE = FeatureSchema(("a",), ("numeric",), (None,))


@pytest.mark.parametrize("explain", [ag_break, lambda *args: relaxation_trace(*args, [0])])
def test_a_mean_score_that_overflows_is_a_model_error(explain):
    # each score is finite, but the mean of two 1.5e308 overflows
    ds = dataset_from_rows(["a", "y"], ["numeric"] * 2, [(1.0, 0.0), (2.0, 0.0)], "y")
    with pytest.raises(ModelError, match="^the mean of a pinned set's scores overflows"):
        explain(ConstantPredictor(ONE_FEATURE, 1.5e308), ds, (1.0,))


def test_background_means_that_overflow_are_a_model_error():
    # the closed form's column mean of two 1.5e308 overflows
    ds = dataset_from_rows(["a", "y"], ["numeric"] * 2, [(1.5e308, 0.0), (1.5e308, 1.0)], "y")
    encoder = Encoder.for_schema(ONE_FEATURE)
    model = LinearModel(ONE_FEATURE, encoder, 0.0, np.array([1e-300]), np.zeros(1))
    with pytest.raises(ModelError, match="^a pinned set's relaxed prediction overflows; rescale"):
        ag_break(model, ds, (1.0,))
