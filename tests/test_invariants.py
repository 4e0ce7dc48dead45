"""Invariants of every relaxed-value explanation, on generated tables and
scorers, against a brute-force oracle.

Tables have 1-5 features and 2-30 rows, numeric and categorical; half of
them are all numeric. Labels include int-like ones and ones that need CSV
quotes; some rows are duplicates and some columns constant. Each table is
explained with four scorers, and an all-numeric one with a fifth:

- "ols": `fit_ols` where the fit succeeds, else a linear model with fixed
  coefficients over the same encoder. Its additive view gives closed-form
  relaxed values.
- "ols-scored": the same model without the view, so hybrid rows are scored.
- "interacting": a non-additive scorer.
- "constant": `ConstantPredictor`.
- "kernel-ridge": `fit_kernel_ridge`.

Tolerance: values that agree mathematically must agree within 1e-12
relative to the size of the terms that form them. For a linear model that
size is |intercept| plus, per encoded column, the largest |coef_k e_k| over
the table's rows and x_new; for kernel ridge, 1 plus |response mean| plus the
sum of |dual weights|, each kernel entry being in [0, 1]; for the other
scorers it is 1 plus a bound on |score|. f(x_new), the value of the full
pinned set, must equal `score_one(x_new)` bitwise. The Shapley values of
both estimators sum to f(x_new) minus the mean score over the table, scored
row by row (efficiency). A feature a scorer never reads must get a
contribution within 1e-12 of zero (the Shapley dummy axiom), and a copy of
a feature the same exact Shapley value as the feature itself (symmetry).
Sampled Shapley averages the marginals along the permutations its
generator draws, one fresh draw per permutation. Sampled Shapley and
`live` give the same bits for the same seed, and
`load_csv` reads back every table `csv.writer` writes. On small numeric
tables the greedy breakdown through the external `linear_scorer.py`
fixture, with a lookahead budget that fits the whole lattice of pinned
sets or cuts it, equals bitwise that of an in-process twin of the fixture.
"""

import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explainkit import (
    ConstantPredictor,
    ExplainError,
    ModelError,
    add_predictions,
    ag_break,
    dataset_from_rows,
    fit_explanation,
    fit_kernel_ridge,
    fit_ols,
    lm_break,
    load_csv,
    sample_locally,
    shapley_exact,
    shapley_sampled,
)
from explainkit import predict
from explainkit.predict import Encoder, LinearModel, Predictor, external_scorer
from explainkit.relax import RelaxedValues
from explainkit.tabular import CATEGORICAL, NUMERIC

from conftest import ScoredPredictor, fixture_command

RELATIVE_TOLERANCE = 1e-12

# int-like labels, labels a CSV writer must quote, and plain ones; ints
# become the labels "1" to "3"
LABELS = st.sampled_from(("1", "10", "a,b", 'say "hi"', " pad ", "x;y", "z")) | st.integers(1, 3)
NUMBERS = st.integers(-16, 16).map(lambda v: v / 4)

HARNESS = settings(max_examples=40, deadline=None, derandomize=True)


class InteractingPredictor(Predictor):
    """Non-additive: tanh of a weighted sum of the encoded columns, plus
    their product; the columns of feature `unread` are left out of both."""

    def __init__(self, schema, unread=None):
        self.schema = schema
        self.encoder = Encoder.for_schema(schema)
        self.read = np.array(self.encoder.feature_of_encoded) != unread
        self.weights = np.linspace(-1.0, 1.5, self.encoder.n_encoded)[self.read]

    def score_columns(self, columns):
        e = self.encoder.encode_columns(columns)[:, self.read]
        return np.tanh(e @ self.weights) + np.prod(e, axis=1)


@st.composite
def cases(draw):
    """A table with a response, an observation, pinned-set masks and
    background rows (None for the whole table)."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(2, 30))
    kind = st.just(NUMERIC) if draw(st.booleans()) else st.sampled_from((NUMERIC, CATEGORICAL))
    kinds = draw(st.lists(kind, min_size=p, max_size=p))
    columns = []
    for kind in kinds:
        cell = NUMBERS if kind == NUMERIC else LABELS
        if draw(st.integers(0, 4)) == 0:  # constant column
            columns.append([draw(cell)] * n)
        else:
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    rows = [list(r) for r in zip(*columns)]
    index = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=3)):
        rows[dst] = list(rows[src])  # duplicate rows
    y = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    names = [f"f{j}" for j in range(p)] + ["y"]
    ds = dataset_from_rows(names, [*kinds, NUMERIC], [(*r, v) for r, v in zip(rows, y)], "y")
    # each cell of x_new comes from some row, so x_new need not be a row
    x_new = ds.schema().validate_observation([rows[draw(index)][j] for j in range(p)])
    masks = draw(st.lists(st.integers(0, (1 << p) - 1), min_size=1, max_size=6))
    background = draw(st.none() | st.lists(index, min_size=1, max_size=n, unique=True))
    if background is not None:
        background = np.array(sorted(background))
    return ds, x_new, masks, background


def fixed_linear_model(ds, unread=None):
    """A linear model with fixed coefficients, zero on feature `unread`."""
    encoder = Encoder.for_schema(ds.schema())
    encoded = encoder.encode_columns([c.values for c in ds.feature_columns()])
    coefficients = np.linspace(-2.0, 3.0, encoder.n_encoded)
    coefficients[np.array(encoder.feature_of_encoded) == unread] = 0.0
    return LinearModel(
        schema=encoder.schema,
        encoder=encoder,
        intercept=0.75,
        coefficients=coefficients,
        feature_means=encoded.mean(axis=0),
    )


def linear_model(ds):
    """OLS of the response when the fit succeeds, else fixed coefficients."""
    try:
        return fit_ols(ds, "y")
    except ModelError:
        return fixed_linear_model(ds)


def linear_size(model, columns):
    terms = np.abs(model.encoder.encode_columns(columns) * model.coefficients)
    return abs(model.intercept) + float(terms.max(axis=0).sum())


def interacting_size(f, columns):
    return 1.0 + float(np.abs(f.encoder.encode_columns(columns)).max(axis=0).prod())


def scorers(ds, x_new):
    """(name, predictor, size of the terms forming its values) per scorer."""
    columns = [np.append(c.values, x) for c, x in zip(ds.feature_columns(), x_new)]
    ols = linear_model(ds)
    interacting = InteractingPredictor(ds.schema())
    constant = ConstantPredictor(schema=ds.schema(), value=-1.25)
    named = [
        ("ols", ols, linear_size(ols, columns)),
        ("ols-scored", ScoredPredictor(ols), linear_size(ols, columns)),
        ("interacting", interacting, interacting_size(interacting, columns)),
        ("constant", constant, 1.25),
    ]
    if all(c.kind == NUMERIC for c in ds.feature_columns()):
        krr = fit_kernel_ridge(ds, "y", gamma=0.5, ridge=0.1)
        size = 1.0 + abs(krr.response_mean) + float(np.abs(krr.dual_weights).sum())
        named.append(("kernel-ridge", krr, size))
    return named


def oracle(predictor, ds, x_new, mask, background):
    """Relaxed value by brute force: each hybrid row built cell by cell and
    scored alone."""
    rows = range(ds.n_rows) if background is None else background
    total = 0.0
    for i in rows:
        row = list(ds.observation(int(i)))
        for j in range(ds.n_features):
            if mask >> j & 1:
                row[j] = x_new[j]
        total += float(predictor.score_rows([row])[0])
    return total / len(rows)


def assert_close(a, b, size, what):
    assert abs(a - b) <= RELATIVE_TOLERANCE * size, (what, a, b, size)


@HARNESS
@given(cases())
def test_relaxed_values_match_the_oracle(case):
    ds, x_new, masks, background = case
    for name, f, size in scorers(ds, x_new):
        values = RelaxedValues(f, ds, x_new, background)
        got = values.means([*masks, values.full])
        for mask, value in zip(masks, got):
            if mask != values.full:
                assert_close(value, oracle(f, ds, x_new, mask, background), size, (name, mask))
        assert got[-1] == f.score_one(x_new), name


@HARNESS
@given(cases())
def test_closed_form_equals_scored_path(case):
    ds, x_new, _, background = case
    (_, ols, size), (_, scored, _), *_ = scorers(ds, x_new)
    closed = RelaxedValues(ols, ds, x_new, background)
    rows = RelaxedValues(scored, ds, x_new, background)
    every = range(1 << ds.n_features)
    for mask, a, b in zip(every, closed.means(every), rows.means(every)):
        assert_close(a, b, size, mask)


def explanations(f, ds, x_new, baseline):
    rng = np.random.Generator(np.random.PCG64(11))
    return {
        "ag-break-up": ag_break(f, ds, x_new, "up", baseline),
        "ag-break-up-to-fnew": ag_break(f, ds, x_new, "up", baseline, "to-fnew"),
        "ag-break-down": ag_break(f, ds, x_new, "down", baseline),
        "shapley-exact": shapley_exact(f, ds, x_new, baseline).attribution,
        "shapley-sampled": shapley_sampled(f, ds, x_new, 3, rng, baseline).attribution,
    }


@HARNESS
@given(cases(), st.sampled_from(("zero", "intercept")))
def test_every_explanation_telescopes(case, baseline):
    ds, x_new, _, _ = case
    for name, f, size in scorers(ds, x_new):
        f_new = f.score_one(x_new)
        for method, a in explanations(f, ds, x_new, baseline).items():
            assert a.final_prediction == f_new, (name, method)
            total = a.baseline + sum(e.contribution for e in a.entries)
            assert_close(total, f_new, size, (name, method))


@HARNESS
@given(cases())
def test_shapley_values_are_efficient(case):
    ds, x_new, _, _ = case
    for name, f, size in scorers(ds, x_new):
        gain = f.score_one(x_new) - oracle(f, ds, x_new, 0, None)
        exact = shapley_exact(f, ds, x_new, "intercept").attribution
        rng = np.random.Generator(np.random.PCG64(12))
        sampled = shapley_sampled(f, ds, x_new, 4, rng, "intercept")
        for method, phis in (
            ("exact", [e.contribution for e in exact.entries]),
            ("sampled", [e.contribution for e in sampled.attribution.entries]),
            ("sampled-unadjusted", sampled.unadjusted),
        ):
            assert_close(float(np.sum(phis)), gain, size, (name, method))


@HARNESS
@given(cases())
def test_additive_explanations_agree(case):
    ds, x_new, _, _ = case
    for name, f, size in scorers(ds, x_new)[:2]:
        reference = lm_break(f.inner if name == "ols-scored" else f, x_new, "intercept")
        results = explanations(f, ds, x_new, "intercept")
        for method in ("ag-break-up", "ag-break-down", "shapley-exact"):
            a = results[method]
            assert_close(a.baseline, reference.baseline, size, (name, method))
            for e in reference.entries:
                assert_close(a.contribution_of(e.feature), e.contribution, size, (name, method))


@HARNESS
@given(cases(), st.data())
def test_unread_feature_gets_no_contribution(case, data):
    ds, x_new, _, _ = case
    unread = data.draw(st.integers(0, ds.n_features - 1))
    name = ds.feature_names[unread]
    for f in (fixed_linear_model(ds, unread), InteractingPredictor(ds.schema(), unread)):
        for method, a in explanations(f, ds, x_new, "intercept").items():
            assert abs(a.contribution_of(name)) <= 1e-12, (type(f).__name__, method)


def with_copy_of(ds, x_new, j):
    """The table and observation with a copy of feature j as the last feature."""
    features = ds.feature_columns()
    y = ds.columns[ds.response_index].values.tolist()
    rows = [(*r, r[j], v) for r, v in zip(zip(*(c.values.tolist() for c in features)), y)]
    kinds = [c.kind for c in features]
    out = dataset_from_rows(
        [*ds.feature_names, "copy", "y"], [*kinds, kinds[j], NUMERIC], rows, "y"
    )
    return out, out.schema().validate_observation([*x_new, x_new[j]])


@HARNESS
@given(cases(), st.data())
def test_copied_feature_gets_an_equal_shapley_value(case, data):
    ds, x_new, _, _ = case
    j = data.draw(st.integers(0, ds.n_features - 1))
    ds, x_new = with_copy_of(ds, x_new, j)
    copy = ds.n_features - 1
    owner = np.array(Encoder.for_schema(ds.schema()).feature_of_encoded)

    def tied(weights):  # the copy's encoded columns weighted as feature j's
        weights = weights.copy()
        weights[owner == copy] = weights[owner == j]
        return weights

    linear = fixed_linear_model(ds)
    linear = dataclasses.replace(linear, coefficients=tied(linear.coefficients))
    interacting = InteractingPredictor(ds.schema())
    interacting.weights = tied(interacting.weights)
    columns = [np.append(c.values, x) for c, x in zip(ds.feature_columns(), x_new)]
    for f, size in (
        (linear, linear_size(linear, columns)),
        (ScoredPredictor(linear), linear_size(linear, columns)),
        (interacting, interacting_size(interacting, columns)),
    ):
        for baseline in ("zero", "intercept"):
            a = shapley_exact(f, ds, x_new, baseline).attribution
            phi_j, phi_copy = (a.contribution_of(name) for name in (ds.feature_names[j], "copy"))
            assert_close(phi_j, phi_copy, size, (type(f).__name__, baseline))


def values(attribution):
    """Baseline, contributions and final prediction, as one float array."""
    contributions = [e.contribution for e in attribution.entries]
    return np.array([attribution.baseline, *contributions, attribution.final_prediction])


@HARNESS
@given(cases(), st.integers(0, 2**32 - 1))
def test_sampled_shapley_is_seed_deterministic(case, seed):
    ds, x_new, _, _ = case
    for name, f, _ in scorers(ds, x_new)[2:]:
        runs = [
            shapley_sampled(f, ds, x_new, 5, np.random.Generator(np.random.PCG64(seed)))
            for _ in range(2)
        ]
        a, b = (
            np.concatenate([r.std_errors, r.unadjusted, values(r.attribution)]).tobytes()
            for r in runs
        )
        assert a == b, name


@HARNESS
@given(cases(), st.integers(0, 2**32 - 1))
def test_sampled_shapley_averages_the_permutations_its_generator_draws(case, seed):
    """Permutation t is the generator's t-th `permutation(p)` draw: the
    estimate and its standard errors are the mean and the spread of the
    oracle's marginals along the permutations a twin generator draws."""
    ds, x_new, _, _ = case
    p = ds.n_features
    for name, f, size in scorers(ds, x_new)[2:]:
        got = shapley_sampled(f, ds, x_new, 6, np.random.Generator(np.random.PCG64(seed)))
        twin = np.random.Generator(np.random.PCG64(seed))
        value = {}
        marginals = np.zeros((6, p))
        for t in range(6):
            mask = 0
            for j in twin.permutation(p):
                for m in (mask, mask | 1 << int(j)):
                    if m not in value:
                        value[m] = oracle(f, ds, x_new, m, None)
                marginals[t, j] = value[mask | 1 << int(j)] - value[mask]
                mask |= 1 << int(j)
        spread = marginals.std(axis=0, ddof=1) / np.sqrt(6)
        for j in range(p):
            assert_close(got.unadjusted[j], marginals[:, j].mean(), size, (name, j))
            assert_close(got.std_errors[j], spread[j], size, (name, j))


def live_result(ds, x_new, seed, white_box):
    """The local sample, its scores and the surrogate fitted to them, or the
    error the fit raised."""
    local = sample_locally(ds, x_new, "y", size=12, seed=seed)
    local = add_predictions(local, InteractingPredictor(local.schema))
    sample = (
        [c.tobytes() if c.dtype != object else c.tolist() for c in local.feature_values],
        local.response.tobytes(),
    )
    try:
        fit = fit_explanation(local, white_box=white_box)
    except ExplainError as exc:
        return sample, (type(exc), str(exc))
    model = fit.model
    numbers = [fit.lambda_, fit.r2, model.intercept, *model.coefficients]
    if model.std_errors is not None:
        numbers += [model.intercept_std_error, *model.std_errors]
    return sample, (fit.selected_features, np.array(numbers).tobytes())


@HARNESS
@given(cases(), st.integers(0, 2**32 - 1), st.sampled_from(("ols", "lasso")))
def test_live_is_seed_deterministic(case, seed, white_box):
    ds, x_new, _, _ = case
    assert live_result(ds, x_new, seed, white_box) == live_result(ds, x_new, seed, white_box)


def not_a_number(label):
    try:
        float(label)
    except ValueError:
        return True
    return False


# non-empty, not a number, and not only whitespace: a one-column row of
# spaces is a blank line, which the loader skips
CSV_LABELS = st.text(alphabet='ab ,;"\n\r\t', min_size=1, max_size=8).filter(
    lambda s: s.strip() and not_a_number(s)
)
CSV_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_csv_round_trip(data):
    p = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    delimiter = data.draw(st.sampled_from((",", ";", "\t") if p > 1 else (",",)))
    kinds = data.draw(st.lists(st.sampled_from((NUMERIC, CATEGORICAL)), min_size=p, max_size=p))
    columns = [
        data.draw(st.lists(CSV_NUMBERS if k == NUMERIC else CSV_LABELS, min_size=n, max_size=n))
        for k in kinds
    ]
    names = [f"f{j}" for j in range(p)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            for row in [names, *zip(*columns)]:
                # blank and whitespace-only lines between rows are skipped
                fh.write(data.draw(st.sampled_from(("", "", "\n", "  \r\n", "\t\n"))))
                writer.writerow(row)
        ds = load_csv(str(path))
    assert [c.name for c in ds.columns] == names
    assert [c.kind for c in ds.columns] == kinds
    assert [c.values.tolist() for c in ds.columns] == columns


class TwinLinearScorer(Predictor):
    """In-process twin of the `linear_scorer.py` fixture: mu + sum(b * c) over
    each row's cells as Python floats, in the fixture's order."""

    def __init__(self, schema, mu, betas):
        self.schema, self.mu, self.betas = schema, mu, betas

    def score_columns(self, columns):
        rows = zip(*(c.tolist() for c in columns))
        return np.array([self.mu + sum(b * c for b, c in zip(self.betas, row)) for row in rows])


@st.composite
def numeric_cases(draw):
    """A small numeric table with a response, a row to explain, the scorer's
    mu and betas, and a lookahead budget below the rows of the pinned sets
    that the greedy walk's first call does not need (0 when there are none)."""
    p = draw(st.sampled_from((4, 3, 2, 1)))  # p >= 3 for a lattice to cut
    n = draw(st.integers(2, 5))
    number = NUMBERS | st.floats(-1e3, 1e3, allow_subnormal=False)
    rows = draw(st.lists(st.tuples(*[number] * (p + 1)), min_size=n, max_size=n))
    names = [f"f{j}" for j in range(p)] + ["y"]
    ds = dataset_from_rows(names, [NUMERIC] * (p + 1), rows, "y")
    coefficients = draw(st.lists(NUMBERS | st.floats(-4, 4), min_size=p + 1, max_size=p + 1))
    cut = draw(st.integers(0, max(0, n * (2**p - p - 2) - 1)))
    return ds, ds.observation(draw(st.integers(0, n - 1))), coefficients, cut


@settings(max_examples=10, deadline=None, derandomize=True)
@given(numeric_cases())
def test_external_breakdown_equals_its_in_process_twin(case):
    ds, x_new, (mu, *betas), cut = case
    python, *script = fixture_command("linear_scorer.py", *map(repr, (mu, *betas)))
    external = external_scorer((python, "-I", "-S", *script), ds.schema())
    twin = TwinLinearScorer(ds.schema(), mu, betas)
    for direction in ("up", "down"):
        want = canonical(ag_break(twin, ds, x_new, direction=direction))
        assert canonical(ag_break(external, ds, x_new, direction=direction)) == want
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(predict, "LOOKAHEAD_ROWS", cut)
            assert canonical(ag_break(external, ds, x_new, direction=direction)) == want


def canonical(attribution):
    # JSON floats round-trip, so equal text means bitwise-equal results
    return json.dumps(attribution.to_json_dict(), sort_keys=True)
