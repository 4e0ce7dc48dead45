"""Acceptance gate: one test per release criterion.

Each test prints a single [ACn] PASS/FAIL line (visible with `pytest -s` or
on failure) and then asserts. Tolerances are pinned here, not configurable.

AC5's standard-error shrink check follows the 1/sqrt(m) law: quadrupling the
permutations shrinks the standard errors by a factor in [1.84, 2.26] on a
non-additive scorer, and on an additive scorer the standard errors are zero
up to roundoff.
"""

import itertools
import math
import time

import numpy as np
import pytest

from explainkit import (
    ConstantPredictor,
    ScorerError,
    add_predictions,
    ag_break,
    dataset_from_rows,
    external_scorer,
    fit_explanation,
    fit_kernel_ridge,
    fit_ols,
    lasso_coordinate_descent,
    lm_break,
    relaxed_prediction,
    sample_locally,
    shapley_exact,
    shapley_sampled,
)
from explainkit.predict import Encoder, LinearModel
from explainkit.tabular import Column, Dataset

from conftest import GOLDEN_DIR, fixture_command, make_regression
from golden_cases import CASES


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{criterion}] {status}"
    if detail:
        line += f" - {detail}"
    print(line)


def _subset_rows(dataset: Dataset, n: int) -> Dataset:
    cols = tuple(
        Column(c.name, c.kind, c.values[:n], c.levels) for c in dataset.columns
    )
    return Dataset(columns=cols, response_index=dataset.response_index)


def _telescoping_gap(attribution) -> float:
    total = attribution.baseline + sum(e.contribution for e in attribution.entries)
    f = attribution.final_prediction
    return abs(total - f) / max(1.0, abs(f))


def test_ac1_telescoping_identity(wine, wine_ols):
    """100 seeded (predictor, x_new) pairs, both directions, 1e-9 relative."""
    start = time.monotonic()
    pairs = []

    for row in (0, 4, 99, 500):
        pairs.append((wine_ols, wine, wine.observation(row)))
    constant = ConstantPredictor(schema=wine.schema(), value=5.0)
    for row in (7, 1000):
        pairs.append((constant, wine, wine.observation(row)))
    wine_sub = _subset_rows(wine, 150)
    wine_krr = fit_kernel_ridge(wine_sub, wine_sub.response_index, gamma=0.2, ridge=1e-2)
    for row in (3, 50, 90, 120):
        pairs.append((wine_krr, wine_sub, wine_sub.observation(row)))

    kinds = ("ols", "krr", "const")
    for i in range(90):
        p = 2 + (i % 7)
        n = 30 + (i * 13) % 51
        ds = make_regression(p, n, seed=9000 + i, noise=0.5)
        kind = kinds[i % 3]
        if kind == "ols":
            predictor = fit_ols(ds, p)
        elif kind == "krr":
            predictor = fit_kernel_ridge(ds, p, gamma=0.5, ridge=1e-2)
        else:
            predictor = ConstantPredictor(schema=ds.schema(), value=float(i))
        pairs.append((predictor, ds, ds.observation(i % n)))

    assert len(pairs) == 100
    worst = 0.0
    for predictor, ds, x in pairs:
        for direction in ("up", "down"):
            a = ag_break(predictor, ds, x, direction=direction, baseline_mode="intercept")
            worst = max(worst, _telescoping_gap(a))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report("AC1", ok, f"worst relative gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_ac2_additive_equivalence_on_wine(wine, wine_ols):
    """lm-break, both ag-break directions, and exact Shapley agree pairwise."""
    start = time.monotonic()
    x = wine.observation(4)
    f_new = wine_ols.score_one(x)
    attributions = {
        "lm": lm_break(wine_ols, x, baseline_mode="intercept"),
        "up": ag_break(wine_ols, wine, x, direction="up", baseline_mode="intercept"),
        "down": ag_break(wine_ols, wine, x, direction="down", baseline_mode="intercept"),
        "shapley": shapley_exact(wine_ols, wine, x, baseline_mode="intercept").attribution,
    }
    worst = 0.0
    for a, b in itertools.combinations(attributions.values(), 2):
        for name in wine.feature_names:
            worst = max(worst, abs(a.contribution_of(name) - b.contribution_of(name)))
    final_gap = max(abs(a.final_prediction - f_new) for a in attributions.values())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and final_gap <= 1e-12 and elapsed < 300.0
    _report("AC2", ok, f"worst pairwise gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert final_gap <= 1e-12
    assert elapsed < 300.0


def test_ac3_relaxed_prediction_brute_force_oracle():
    """Full-enumeration estimator matches a double-loop oracle at 1e-12."""
    start = time.monotonic()

    def oracle(predictor, dataset, x_new, fixed):
        total = 0.0
        for i in range(dataset.n_rows):
            row = list(dataset.observation(i))
            for j in fixed:
                row[j] = x_new[j]
            total += predictor.score_one(tuple(row))
        return total / dataset.n_rows

    worst = 0.0
    ds = make_regression(4, 10, seed=301, noise=0.6)
    for predictor in (
        fit_ols(ds, 4),
        fit_kernel_ridge(ds, 4, gamma=0.7, ridge=1e-2),
    ):
        x = ds.observation(5)
        for r in range(5):
            for fixed in itertools.combinations(range(4), r):
                got = relaxed_prediction(predictor, ds, x, frozenset(fixed))
                want = oracle(predictor, ds, x, fixed)
                worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("AC3", ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_ac4_shapley_axioms():
    failures = []

    # efficiency at 1e-9
    ds = make_regression(5, 30, seed=401, noise=0.5)
    m = fit_kernel_ridge(ds, 5, gamma=0.4, ridge=1e-2)
    x = ds.observation(3)
    est = shapley_exact(m, ds, x, baseline_mode="intercept")
    a = est.attribution
    eff_gap = abs(
        a.baseline + sum(e.contribution for e in a.entries) - m.score_one(x)
    )
    if eff_gap > 1e-9:
        failures.append(f"efficiency gap {eff_gap:.2e}")

    # symmetry on duplicated columns at 1e-10
    rng = np.random.Generator(np.random.PCG64(402))
    col = rng.uniform(-1, 1, 12)
    other = rng.uniform(-1, 1, 12)
    dup = dataset_from_rows(
        ["a", "b", "c"],
        ["numeric"] * 3,
        [(col[i], col[i], other[i]) for i in range(12)],
    )
    sym_model = LinearModel(
        schema=dup.schema(),
        encoder=Encoder.for_schema(dup.schema()),
        intercept=0.1,
        coefficients=np.array([1.3, 1.3, -0.7]),
        feature_means=np.zeros(3),
    )
    sym = shapley_exact(sym_model, dup, (float(col[2]), float(col[2]), 0.4)).attribution
    sym_gap = abs(sym.contribution_of("a") - sym.contribution_of("b"))
    if sym_gap > 1e-10:
        failures.append(f"symmetry gap {sym_gap:.2e}")

    # dummy feature at 1e-10
    ds3 = make_regression(3, 15, seed=403)
    dummy_model = LinearModel(
        schema=ds3.schema(),
        encoder=Encoder.for_schema(ds3.schema()),
        intercept=1.0,
        coefficients=np.array([2.0, 0.0, -1.0]),
        feature_means=np.zeros(3),
    )
    dummy = shapley_exact(dummy_model, ds3, ds3.observation(1)).attribution
    dummy_phi = abs(dummy.contribution_of("x2"))
    if dummy_phi > 1e-10:
        failures.append(f"dummy phi {dummy_phi:.2e}")

    # all-permutations enumeration oracle at p=4, 1e-12
    ds4 = make_regression(4, 8, seed=404, noise=0.5)
    m4 = fit_kernel_ridge(ds4, 4, gamma=0.5, ridge=1e-2)
    x4 = ds4.observation(2)
    est4 = shapley_exact(m4, ds4, x4).attribution
    phis = np.zeros(4)
    for order in itertools.permutations(range(4)):
        fixed = frozenset()
        prev = relaxed_prediction(m4, ds4, x4, fixed)
        for j in order:
            fixed = fixed | {j}
            cur = relaxed_prediction(m4, ds4, x4, fixed)
            phis[j] += cur - prev
            prev = cur
    phis /= math.factorial(4)
    oracle_gap = max(
        abs(est4.contribution_of(name) - phis[j])
        for j, name in enumerate(ds4.feature_names)
    )
    if oracle_gap > 1e-12:
        failures.append(f"permutation-oracle gap {oracle_gap:.2e}")

    _report("AC4", not failures, "; ".join(failures) or "all four axioms hold")
    assert not failures, failures


def _sampled_setup():
    ds = make_regression(5, 40, seed=71, noise=0.5)
    m = fit_ols(ds, 5)
    x = ds.observation(8)
    return ds, m, x


def test_ac5_sampled_shapley_convergence():
    """p=5 OLS, 2000 permutations, seed 42: within 3 reported std errors.

    A 1e-12 absolute allowance covers float roundoff: for an additive model
    every permutation yields the same marginal, so sampling variance is zero
    and the only sampled-vs-exact gap is arithmetic noise (~1e-14), far
    below every tolerance this suite uses for derived quantities.
    """
    ds, m, x = _sampled_setup()
    exact = shapley_exact(m, ds, x).attribution
    rng = np.random.Generator(np.random.PCG64(42))
    sampled = shapley_sampled(m, ds, x, n_permutations=2000, rng=rng)
    gaps = np.array(
        [
            abs(sampled.unadjusted[j] - exact.contribution_of(name))
            for j, name in enumerate(ds.feature_names)
        ]
    )
    bound = 3 * sampled.std_errors + 1e-12
    ok = bool(np.all(gaps <= bound))
    _report("AC5-convergence", ok, f"max gap {gaps.max():.2e}")
    assert ok, (gaps, sampled.std_errors)


def test_ac5_stderr_shrink_band():
    """Quadrupling the permutations (2000 -> 8000) halves the std errors.

    Errors are std/sqrt(m), so the shrink factor is 2. On the non-additive
    kernel-ridge scorer it must lie in [1.84, 2.26], both for the mean over
    features and for every feature. On the additive OLS scorer every
    permutation yields the same marginals, so the standard errors are zero
    up to roundoff (<= 1e-12) at both permutation counts and their ratio
    carries no information.
    """

    def std_errors(model, n_permutations):
        rng = np.random.Generator(np.random.PCG64(42))
        return shapley_sampled(model, ds, x, n_permutations, rng).std_errors

    ds, ols, x = _sampled_setup()
    ols_small, ols_large = std_errors(ols, 2000), std_errors(ols, 8000)
    ols_max = float(max(ols_small.max(), ols_large.max()))
    with np.errstate(divide="ignore", invalid="ignore"):
        ols_ratio = float(np.mean(ols_small / ols_large))

    krr = fit_kernel_ridge(ds, 5, gamma=0.5, ridge=1e-2)
    ratios = std_errors(krr, 2000) / std_errors(krr, 8000)
    mean_ratio = float(ratios.mean())

    ols_ok = ols_max <= 1e-12
    in_band = (ratios >= 1.84) & (ratios <= 2.26)
    krr_ok = bool(1.84 <= mean_ratio <= 2.26 and in_band.all())
    detail = (
        f"kernel-ridge ratio mean {mean_ratio:.3f}, per feature "
        f"{ratios.min():.3f}-{ratios.max():.3f} (band [1.84, 2.26]); "
        f"OLS std errors max {ols_max:.1e} (<= 1e-12), ratio {ols_ratio:.3f} is roundoff"
    )
    _report("AC5-shrink-band", ols_ok and krr_ok, detail)
    assert ols_ok, detail
    assert krr_ok, detail


def test_ac6_live_exact_recovery(wine, wine_ols):
    """Linear black box, size=500 seed=42 OLS surrogate: exact recovery."""
    x = wine.observation(4)
    local = sample_locally(wine, x, "quality", size=500, seed=42)
    local = add_predictions(local, wine_ols)
    fit = fit_explanation(local, white_box="ols")
    coef_gap = float(np.max(np.abs(fit.model.coefficients - wine_ols.coefficients)))
    intercept_gap = abs(fit.model.intercept - wine_ols.intercept)
    r2_gap = abs(fit.r2 - 1.0)
    ok = coef_gap <= 1e-8 and intercept_gap <= 1e-8 and r2_gap <= 1e-12
    _report("AC6", ok, f"coef gap {coef_gap:.2e}, r2 gap {r2_gap:.2e}")
    assert coef_gap <= 1e-8
    assert intercept_gap <= 1e-8
    assert r2_gap <= 1e-12


def test_ac7_lasso_correctness():
    """Orthonormal design: soft-threshold closed form, lambda_max zeroing,
    monotone objective."""
    n, k = 64, 6
    rng = np.random.Generator(np.random.PCG64(701))
    a = rng.normal(size=(n, k + 2))
    a = a - a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    x = float(np.sqrt(n)) * q[:, :k]

    beta_true = np.array([2.0, -1.0, 0.5, 0.0, 3.0, -0.2])
    y = x @ beta_true + rng.normal(0, 0.1, n)
    y = y - y.mean()
    ols = x.T @ y / n
    lam_max = float(np.max(np.abs(ols)))

    failures = []
    for lam in (0.0, 0.1, 0.5 * lam_max, 0.9 * lam_max):
        fit = lasso_coordinate_descent(x, y, lam)
        expected = np.sign(ols) * np.maximum(np.abs(ols) - lam, 0.0)
        gap = float(np.max(np.abs(fit.coefficients - expected)))
        if gap > 1e-8:
            failures.append(f"soft-threshold gap {gap:.2e} at lambda={lam:.3f}")
        if np.any(np.diff(fit.objectives) > 1e-12):
            failures.append(f"objective increased at lambda={lam:.3f}")
    for lam in (lam_max, 1.7 * lam_max):
        fit = lasso_coordinate_descent(x, y, lam)
        if not np.all(fit.coefficients == 0.0):
            failures.append(f"nonzero slopes at lambda={lam:.3f} >= lambda_max")
    _report("AC7", not failures, "; ".join(failures) or "closed form matches")
    assert not failures, failures


def test_ac8_neighborhood_shape_properties():
    """1000 seeded runs over random (p, size): locality, coverage,
    bitwise reproducibility."""
    start = time.monotonic()
    master = np.random.Generator(np.random.PCG64(801))
    datasets = {p: make_regression(p, 15, seed=7000 + p) for p in range(1, 21)}
    failures = []
    for run in range(1000):
        p = int(master.integers(1, 21))
        size = int(master.integers(0, 201))
        seed = int(master.integers(0, 2**63 - 1))
        ds = datasets[p]
        # explained point off the training data: coincidental draws impossible
        x = tuple(float(v) for v in 10.0 + master.uniform(0.0, 1.0, p))
        local = sample_locally(ds, x, "y", size=size, seed=seed)
        for i in range(size):
            diff = [j for j, (a, b) in enumerate(zip(local.row(i), x)) if a != b]
            if len(diff) > 1:
                failures.append(f"run {run}: row {i} differs in {len(diff)} coords")
            if p <= size and i < p and diff != [i]:
                failures.append(f"run {run}: row {i} should perturb feature {i}")
        again = sample_locally(ds, x, "y", size=size, seed=seed)
        for a, b in zip(local.feature_values, again.feature_values):
            if not np.array_equal(a, b):
                failures.append(f"run {run}: not bitwise reproducible")
        if failures:
            break
    elapsed = time.monotonic() - start
    _report("AC8", not failures, f"{elapsed:.1f}s" if not failures else failures[0])
    assert not failures, failures


def test_ac9_wine_baseline_quantity(wine, wine_ols):
    """Intercept baseline equals mean(quality) = 5.6360 within 5e-4."""
    x = wine.observation(4)
    a = ag_break(wine_ols, wine, x, direction="up", baseline_mode="intercept")
    mean_quality = float(np.mean(wine.response_values()))
    identity_gap = abs(a.baseline - mean_quality)
    value_gap = abs(a.baseline - 5.6360)
    ok = identity_gap <= 1e-9 and value_gap <= 5e-4
    _report("AC9", ok, f"baseline {a.baseline:.6f}")
    assert identity_gap <= 1e-9
    assert value_gap <= 5e-4


def test_ac10_rendering_determinism():
    """Waterfall, forest, trace: byte-identical across runs and equal to the
    committed golden files."""
    failures = []
    for name, builder in sorted(CASES.items()):
        first = builder().svg_text.encode("utf-8")
        second = builder().svg_text.encode("utf-8")
        golden = (GOLDEN_DIR / name).read_bytes()
        if first != second:
            failures.append(f"{name}: two runs differ")
        if first != golden:
            failures.append(f"{name}: differs from committed golden")
    _report("AC10", not failures, "; ".join(failures) or "3 documents byte-stable")
    assert not failures, failures


def test_ac11_external_scorer_protocol(wine):
    """Fixture scorer matches in-process linear model within 1e-9 over 1000
    rows; failure paths raise the scorer error class."""
    schema = wine.schema()
    mu = 0.125
    betas = [0.01 * (j + 1) * (-1) ** j for j in range(11)]
    command = fixture_command("linear_scorer.py", str(mu), *[str(b) for b in betas])
    external = external_scorer(command, schema)
    in_process = LinearModel(
        schema=schema,
        encoder=Encoder.for_schema(schema),
        intercept=mu,
        coefficients=np.array(betas),
        feature_means=np.zeros(11),
    )
    rows = [wine.observation(i) for i in range(1000)]
    got = external.score_rows(rows)
    want = in_process.score_rows(rows)
    score_gap = float(np.max(np.abs(got - want)))

    failures = []
    if score_gap > 1e-9:
        failures.append(f"score gap {score_gap:.2e}")
    with pytest.raises(ScorerError) as err:
        external_scorer(fixture_command("failing_scorer.py"), schema).score_rows(rows[:3])
    if err.value.exit_status != 1 or "deliberate failure" not in (err.value.stderr_text or ""):
        failures.append("nonzero-exit error lacks status or stderr")
    with pytest.raises(ScorerError) as err:
        external_scorer(fixture_command("short_output_scorer.py"), schema).score_rows(rows[:3])
    if "2 scores for 3 rows" not in str(err.value):
        failures.append("short-output error lacks line-count detail")
    _report("AC11", not failures, f"score gap {score_gap:.2e} over 1000 rows")
    assert not failures, failures
