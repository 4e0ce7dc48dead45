"""Workloads of the explainkit benchmark: inputs, set-up, one request, and
the output check of every request.

Each workload is a closed loop over one fitted scorer: the benchmark writes
its input table to CSV, the program loads it with ``load_csv`` and fits the
scorer once (the set-up), and every request then explains one more row,
drawn from the workload seed, through the same library calls the ``explain``
command makes. Why each workload exists, and which layers it loads and
bypasses, is written down in README.md next to this file.

Importing this module imports explainkit, so the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import explainkit as ek
import explainkit.cli as ek_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WINE = ROOT / "tests" / "data" / "winequality_red.csv"
SCORER = BENCH_DIR / "linear_scorer.py"
REFERENCE = BENCH_DIR / "reference.json"
SCORER_COEFFICIENTS = "scorer_coefficients.json"  # in the run's work directory

RESPONSE = "quality"
SAMPLE_ROWS = 400
EXTERNAL_FEATURES = 5
KRR_GAMMA = 1.0
KRR_RIDGE = 0.1
SAMPLED_PERMUTATIONS = 50
LOCAL_SIZE = 500

# Relative tolerance of telescoping and of the attribution cross-checks,
# the same 1e-9 the acceptance suite states for the telescoping identity.
REL_TOL = 1e-9
# The lasso solver stops when no coefficient moves by 1e-9 in a sweep, so
# its optimality conditions hold to about that; 1e-7 leaves a margin.
KKT_TOL = 1e-7
# Reference lasso fits: lambda and the selected features must match what
# was recorded; r2 may move by this much under a differently converged solver.
REFERENCE_R2_TOL = 1e-6
REFERENCE_LAMBDA_REL_TOL = 1e-9


def program_location() -> Path:
    return Path(ek.__file__).resolve().parent


# ---------------------------------------------------------------------------
# inputs


def _wine_lines() -> tuple[str, list[str]]:
    lines = WINE.read_text(encoding="utf-8").splitlines()
    return lines[0], [ln for ln in lines[1:] if ln.strip()]


def _sample_lines(seed: int) -> tuple[str, list[str]]:
    header, rows = _wine_lines()
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = np.sort(rng.choice(len(rows), size=SAMPLE_ROWS, replace=False))
    return header, [rows[i] for i in keep]


def _first_features(line: str) -> str:
    cells = line.split(";")
    return ";".join(cells[:EXTERNAL_FEATURES] + cells[-1:])


def write_table(table: str, seed: int, path: Path) -> Path:
    """Write the workload's input table, made from the wine fixture and `seed`."""
    if table == "full":
        header, rows = _wine_lines()
    elif table == "sample":
        header, rows = _sample_lines(seed)
    elif table == "sample5":
        header, rows = _sample_lines(seed)
        header, rows = _first_features(header), [_first_features(r) for r in rows]
    else:
        raise ValueError(f"unknown table {table!r}")
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def request_plan(seed: int, n_rows: int):
    """Endless stream of (row, request seed) pairs drawn from the workload seed."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    while True:
        yield int(rng.integers(0, n_rows)), int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# set-up


@dataclass
class State:
    dataset: object
    predictor: object
    workdir: Path
    reference_model: object = None  # what `prepare` returned, for the checks


def _feature_order(attribution, dataset) -> list[int]:
    index_of = {name: j for j, name in enumerate(dataset.feature_names)}
    return [index_of[e.feature] for e in attribution.feature_entries()]


def _export(result, workdir: Path, name: str) -> Path:
    path = workdir / f"{name}.json"
    ek_cli.export_json(result, str(path))
    return path


def _surrogate_payload(fit, white_box: str) -> dict:
    model = fit.model
    return {
        "white_box": white_box,
        "lambda": fit.lambda_,
        "r2": fit.r2,
        "selected_features": list(fit.selected_features),
        "intercept": model.intercept,
        "coefficients": [float(c) for c in model.coefficients],
    }


# ---------------------------------------------------------------------------
# checks


def _telescopes(attribution, label: str, problems: list[str]) -> None:
    total = attribution.baseline + sum(e.contribution for e in attribution.entries)
    f = attribution.final_prediction
    gap = abs(total - f) / max(1.0, abs(f))
    if not gap <= REL_TOL:
        problems.append(f"{label}: telescoping gap {gap:.3e}")


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def _same_contributions(a, b, names, label: str, problems: list[str]) -> None:
    scale = a.final_prediction
    for name in names:
        ca, cb = a.contribution_of(name), b.contribution_of(name)
        if not _close(ca, cb, scale):
            problems.append(f"{label}: {name} contributes {ca!r} vs {cb!r}")
            return


def _mean_score(attribution) -> float:
    if attribution.baseline_mode == "intercept":
        return attribution.baseline
    return attribution.contribution_of("(intercept)")


def _trace_ends(trace, order, f_new: float, mean_score: float, n_rows: int,
                problems: list[str]) -> None:
    steps = trace.steps
    if len(steps) != len(order) + 1:
        problems.append(f"trace: {len(steps)} steps for {len(order)} features")
        return
    if [s.relaxed_feature for s in steps[1:]] != list(order):
        problems.append("trace: steps do not follow the requested order")
    if any(len(s.scores) != n_rows for s in steps):
        problems.append("trace: a step does not score every background row")
    if not _close(steps[0].mean, f_new, f_new):
        problems.append(f"trace: first mean {steps[0].mean!r} is not f(x_new) {f_new!r}")
    if not _close(steps[-1].mean, mean_score, mean_score):
        problems.append(f"trace: last mean {steps[-1].mean!r} is not the mean score {mean_score!r}")


def _svg_ok(doc, label: str, problems: list[str]) -> None:
    text = doc.svg_text
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        problems.append(f"{label}: not an SVG document")


def _json_reads_back(path: Path, key: str, want, problems: list[str]) -> None:
    try:
        got = json.loads(path.read_text(encoding="utf-8"))[key]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{path.name}: cannot read back {key!r}: {exc}")
        return
    if got != want:
        problems.append(f"{path.name}: {key} reads back as {got!r}, wrote {want!r}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    table = ""

    def prepare(self, table_path: Path, workdir: Path):
        """Untimed work before any set-up: write the inputs the set-up reads
        besides the table, and return what the checks compare against (or None)."""
        return None

    def setup(self, table_path: Path, workdir: Path) -> State:
        raise NotImplementedError

    def request(self, state: State, row: int, request_seed: int) -> dict:
        raise NotImplementedError

    def check(self, state: State, row: int, request_seed: int, out: dict) -> list[str]:
        raise NotImplementedError

    def reference_cases(self) -> list[dict]:
        """Untimed cases checked against values recorded in reference.json."""
        return []


class OlsAttrib(Workload):
    """Full wine table, OLS: every additive method, the trace, renders, JSON."""

    name = "ols-attrib"
    table = "full"

    def setup(self, table_path, workdir):
        dataset = ek.load_csv(str(table_path), response_name=RESPONSE)
        model = ek.fit_ols(dataset, dataset.response_index)
        return State(dataset, model, workdir)

    def request(self, state, row, request_seed):
        ds, model, wd = state.dataset, state.predictor, state.workdir
        x = ds.observation(row)
        up = ek.ag_break(model, ds, x, direction="up", baseline_mode="zero")
        down = ek.ag_break(model, ds, x, direction="down", baseline_mode="intercept")
        lm = ek.lm_break(model, x, baseline_mode="intercept")
        shap = ek.shapley_exact(model, ds, x, baseline_mode="intercept")
        order = _feature_order(down, ds)[::-1]
        trace = ek.relaxation_trace(model, ds, x, order, "down")
        waterfall = ek.render_waterfall(up)
        trace_svg = ek.render_trace(trace)
        files = {
            name: _export(result, wd, name)
            for name, result in (
                ("ag_up", up), ("ag_down", down), ("lm", lm), ("shapley", shap),
                ("trace", trace),
            )
        }
        return dict(x=x, up=up, down=down, lm=lm, shap=shap, order=order,
                    trace=trace, waterfall=waterfall, trace_svg=trace_svg, files=files)

    def check(self, state, row, request_seed, out):
        problems: list[str] = []
        model, ds = state.predictor, state.dataset
        x = np.array(out["x"], dtype=float)
        f_new = model.intercept + float(x @ model.coefficients)
        mean_score = model.intercept + float(model.feature_means @ model.coefficients)
        shap = out["shap"].attribution
        attributions = {"ag-up": out["up"], "ag-down": out["down"], "lm": out["lm"],
                        "shapley": shap}
        for label, a in attributions.items():
            _telescopes(a, label, problems)
            if not _close(a.final_prediction, f_new, f_new):
                problems.append(f"{label}: final {a.final_prediction!r} is not f(x_new) {f_new!r}")
            if not _close(_mean_score(a), mean_score, mean_score):
                problems.append(f"{label}: mean score {_mean_score(a)!r} vs {mean_score!r}")
        names = ds.feature_names
        for label in ("ag-up", "ag-down", "shapley"):
            _same_contributions(out["lm"], attributions[label], names, f"lm vs {label}", problems)
        _trace_ends(out["trace"], out["order"], f_new, mean_score, ds.n_rows, problems)
        _svg_ok(out["waterfall"], "waterfall", problems)
        _svg_ok(out["trace_svg"], "trace svg", problems)
        for name, a in (("ag_up", out["up"]), ("ag_down", out["down"]), ("lm", out["lm"]),
                        ("shapley", shap)):
            _json_reads_back(out["files"][name], "final_prediction", a.final_prediction, problems)
        _json_reads_back(out["files"]["trace"], "direction", "down", problems)
        return problems


def _kernel_ridge_setup(table_path: Path, workdir: Path) -> State:
    dataset = ek.load_csv(str(table_path), response_name=RESPONSE)
    model = ek.fit_kernel_ridge(dataset, dataset.response_index, KRR_GAMMA, KRR_RIDGE)
    return State(dataset, model, workdir)


class KrrAttrib(Workload):
    """400 sampled wine rows, RBF kernel ridge: greedy, trace, sampled Shapley."""

    name = "krr-attrib"
    table = "sample"

    def setup(self, table_path, workdir):
        return _kernel_ridge_setup(table_path, workdir)

    def request(self, state, row, request_seed):
        ds, model, wd = state.dataset, state.predictor, state.workdir
        x = ds.observation(row)
        up = ek.ag_break(model, ds, x, direction="up", baseline_mode="zero")
        down = ek.ag_break(model, ds, x, direction="down", baseline_mode="intercept")
        order = _feature_order(down, ds)[::-1]
        trace = ek.relaxation_trace(model, ds, x, order, "down")
        rng = np.random.Generator(np.random.PCG64(request_seed))
        sampled = ek.shapley_sampled(model, ds, x, n_permutations=SAMPLED_PERMUTATIONS,
                                     rng=rng, baseline_mode="intercept")
        waterfall = ek.render_waterfall(up)
        trace_svg = ek.render_trace(trace)
        files = {
            name: _export(result, wd, name)
            for name, result in (("ag_up", up), ("ag_down", down), ("trace", trace),
                                 ("shapley", sampled))
        }
        return dict(up=up, down=down, order=order, trace=trace, sampled=sampled,
                    waterfall=waterfall, trace_svg=trace_svg, files=files)

    def check(self, state, row, request_seed, out):
        problems: list[str] = []
        up, down = out["up"], out["down"]
        sampled = out["sampled"]
        f_new = up.final_prediction
        mean_score = _mean_score(up)
        for label, a in (("ag-up", up), ("ag-down", down), ("shapley", sampled.attribution)):
            _telescopes(a, label, problems)
            if not _close(a.final_prediction, f_new, f_new):
                problems.append(f"{label}: final {a.final_prediction!r} vs ag-up {f_new!r}")
            if not _close(_mean_score(a), mean_score, mean_score):
                problems.append(f"{label}: mean score {_mean_score(a)!r} vs ag-up {mean_score!r}")
        se = sampled.std_errors
        if (sampled.n_permutations != SAMPLED_PERMUTATIONS or se is None
                or len(se) != state.dataset.n_features
                or not np.all(np.isfinite(se)) or np.any(se < 0)):
            problems.append("shapley: missing or invalid standard errors")
        _trace_ends(out["trace"], out["order"], f_new, mean_score, state.dataset.n_rows,
                    problems)
        _svg_ok(out["waterfall"], "waterfall", problems)
        _svg_ok(out["trace_svg"], "trace svg", problems)
        for name, a in (("ag_up", up), ("ag_down", down), ("shapley", sampled.attribution)):
            _json_reads_back(out["files"][name], "final_prediction", a.final_prediction, problems)
        _json_reads_back(out["files"]["shapley"], "n_permutations", SAMPLED_PERMUTATIONS,
                         problems)
        return problems


class LassoSurrogate(Workload):
    """400 sampled wine rows, kernel ridge black box: local lasso and OLS surrogates."""

    name = "lasso-surrogate"
    table = "sample"

    def setup(self, table_path, workdir):
        return _kernel_ridge_setup(table_path, workdir)

    def request(self, state, row, request_seed):
        ds, model, wd = state.dataset, state.predictor, state.workdir
        x = ds.observation(row)
        local = ek.sample_locally(ds, x, RESPONSE, size=LOCAL_SIZE, seed=request_seed)
        local = ek.add_predictions(local, model)
        lasso = ek.fit_explanation(local, white_box="lasso")
        ols = ek.fit_explanation(local, white_box="ols")
        forest = ek.render_forest(ols)
        files = {
            "lasso": _export(_surrogate_payload(lasso, "lasso"), wd, "lasso"),
            "ols": _export(_surrogate_payload(ols, "ols"), wd, "ols"),
        }
        return dict(x=x, local=local, lasso=lasso, ols=ols, forest=forest, files=files)

    def check(self, state, row, request_seed, out):
        problems: list[str] = []
        local, lasso, ols = out["local"], out["lasso"], out["ols"]
        if local.n_rows != LOCAL_SIZE or local.response is None:
            problems.append(f"local dataset has {local.n_rows} rows, wanted {LOCAL_SIZE}")
            return problems
        enc = np.column_stack([np.asarray(c, dtype=float) for c in local.feature_values])
        y = np.asarray(local.response, dtype=float)
        if not np.all(np.isfinite(y)):
            problems.append("local responses are not finite")
            return problems
        origin = np.array(out["x"], dtype=float)
        if np.any((enc != origin).sum(axis=1) > 1):
            problems.append("a simulated row changes more than one feature")
        for label, fit in (("lasso", lasso), ("ols", ols)):
            _r2_matches(fit, enc, y, label, problems)
            nonzero = tuple(name for name, c in zip(local.schema.names, fit.model.coefficients)
                            if c != 0.0)
            if nonzero != tuple(fit.selected_features):
                problems.append(f"{label}: selected {fit.selected_features} but nonzero {nonzero}")
        _lasso_optimal(lasso, enc, y, problems)
        if ols.r2 < lasso.r2 - REL_TOL:
            problems.append(f"ols r2 {ols.r2!r} below lasso r2 {lasso.r2!r}")
        _svg_ok(out["forest"], "forest", problems)
        _json_reads_back(out["files"]["lasso"], "lambda", lasso.lambda_, problems)
        _json_reads_back(out["files"]["ols"], "r2", ols.r2, problems)
        return problems

    def reference_cases(self):
        return json.loads(REFERENCE.read_text(encoding="utf-8"))["lasso_surrogate"]["cases"]


def _r2_matches(fit, enc, y, label: str, problems: list[str]) -> None:
    pred = fit.model.intercept + enc @ np.asarray(fit.model.coefficients)
    rss = float(np.sum((y - pred) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = max(0.0, min(1.0, 1.0 - rss / tss)) if tss > 0.0 else fit.r2
    if not abs(r2 - fit.r2) <= REL_TOL:
        problems.append(f"{label}: r2 {fit.r2!r} but the coefficients give {r2!r}")


def _lasso_optimal(fit, enc, y, problems: list[str]) -> None:
    """Subgradient (KKT) conditions of the standardized lasso problem at the
    reported lambda: |g_j| <= lambda where beta_j = 0, g_j = lambda sign(beta_j)
    elsewhere, with g = Z'(y - mean y - Z beta) / n."""
    lam = fit.lambda_
    scales = enc.std(axis=0)
    usable = scales > 0
    z = (enc[:, usable] - enc[:, usable].mean(axis=0)) / scales[usable]
    beta = np.asarray(fit.model.coefficients)[usable] * scales[usable]
    g = z.T @ (y - y.mean() - z @ beta) / len(y)
    for gj, bj in zip(g, beta):
        bad = abs(gj - lam * math.copysign(1.0, bj)) > KKT_TOL if bj != 0.0 else abs(gj) > lam + KKT_TOL
        if bad:
            problems.append(f"lasso: not optimal at lambda {lam!r} (gradient {gj!r}, beta {bj!r})")
            return


class ExternalBreakdown(Workload):
    """400 sampled rows of five wine features, linear scorer in a subprocess."""

    name = "external-breakdown"
    table = "sample5"

    def prepare(self, table_path, workdir):
        # The scorer's coefficients stand for a model trained elsewhere, so
        # the OLS fit that makes them is not part of the timed set-up.
        dataset = ek.load_csv(str(table_path), response_name=RESPONSE)
        ols = ek.fit_ols(dataset, dataset.response_index)
        coefficients = [ols.intercept, *[float(b) for b in ols.coefficients]]
        (workdir / SCORER_COEFFICIENTS).write_text(json.dumps(coefficients), encoding="utf-8")
        return ols

    def setup(self, table_path, workdir):
        dataset = ek.load_csv(str(table_path), response_name=RESPONSE)
        coefficients = json.loads((workdir / SCORER_COEFFICIENTS).read_text(encoding="utf-8"))
        command = [sys.executable, str(SCORER), *[repr(float(c)) for c in coefficients]]
        scorer = ek.external_scorer(command, dataset.schema())
        return State(dataset, scorer, workdir)

    def request(self, state, row, request_seed):
        ds, scorer, wd = state.dataset, state.predictor, state.workdir
        x = ds.observation(row)
        up = ek.ag_break(scorer, ds, x, direction="up", baseline_mode="zero")
        waterfall = ek.render_waterfall(up)
        return dict(x=x, up=up, waterfall=waterfall, file=_export(up, wd, "ag_up"))

    def check(self, state, row, request_seed, out):
        problems: list[str] = []
        up = out["up"]
        lm = ek.lm_break(state.reference_model, out["x"], baseline_mode="zero")
        _telescopes(up, "external ag-up", problems)
        if not _close(up.final_prediction, lm.final_prediction, lm.final_prediction):
            problems.append(f"external final {up.final_prediction!r} vs ols {lm.final_prediction!r}")
        _same_contributions(lm, up, ["(intercept)", *state.dataset.feature_names],
                            "ols lm vs external ag-up", problems)
        _svg_ok(out["waterfall"], "waterfall", problems)
        _json_reads_back(out["file"], "final_prediction", up.final_prediction, problems)
        return problems


WORKLOADS = {w.name: w for w in (OlsAttrib(), KrrAttrib(), LassoSurrogate(), ExternalBreakdown())}


def reference_counts() -> dict:
    """Exact per-request (or per-call) counts recorded when the benchmark was defined."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["exact_counts"]


def lasso_reference(case: dict, workdir: Path) -> dict:
    """Fit the lasso surrogate of one reference case and return what is recorded."""
    w = WORKLOADS["lasso-surrogate"]
    table = write_table(w.table, case["table_seed"], workdir / "reference_table.csv")
    state = w.setup(table, workdir)
    x = state.dataset.observation(case["row"])
    local = ek.add_predictions(
        ek.sample_locally(state.dataset, x, RESPONSE, size=LOCAL_SIZE, seed=case["request_seed"]),
        state.predictor,
    )
    fit = ek.fit_explanation(local, white_box="lasso")
    return {"lambda": fit.lambda_, "selected_features": list(fit.selected_features),
            "r2": fit.r2}


def check_reference(case: dict, workdir: Path) -> list[str]:
    got = lasso_reference(case, workdir)
    problems = []
    if not abs(got["lambda"] - case["lambda"]) <= REFERENCE_LAMBDA_REL_TOL * abs(case["lambda"]):
        problems.append(f"reference {case['name']}: lambda {got['lambda']!r}, recorded {case['lambda']!r}")
    if got["selected_features"] != case["selected_features"]:
        problems.append(f"reference {case['name']}: selected {got['selected_features']}, "
                        f"recorded {case['selected_features']}")
    if not abs(got["r2"] - case["r2"]) <= REFERENCE_R2_TOL:
        problems.append(f"reference {case['name']}: r2 {got['r2']!r}, recorded {case['r2']!r}")
    return problems
