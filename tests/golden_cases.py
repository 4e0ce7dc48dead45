"""Builders for the golden-file rendering cases.

Each builder is a pure function of committed inputs (the wine fixture and
fixed seeds), so the documents they produce must be byte-identical across
runs and platforms. Run this module directly to (re)write the golden files:

    python tests/golden_cases.py
"""

from pathlib import Path

from explainkit import (
    add_predictions,
    fit_explanation,
    fit_kernel_ridge,
    fit_ols,
    lm_break,
    load_csv,
    relaxation_trace,
    render_forest,
    render_trace,
    render_waterfall,
    sample_locally,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
WINE_CSV = Path(__file__).parent / "data" / "winequality_red.csv"


def waterfall_document():
    wine = load_csv(str(WINE_CSV), response_name="quality")
    model = fit_ols(wine, wine.response_index)
    attribution = lm_break(model, wine.observation(4), baseline_mode="intercept")
    return render_waterfall(attribution)


def forest_document():
    wine = load_csv(str(WINE_CSV), response_name="quality")
    model = fit_ols(wine, wine.response_index)
    local = sample_locally(wine, wine.observation(4), "quality", size=200, seed=42)
    local = add_predictions(local, model)
    fit = fit_explanation(local, white_box="ols")
    return render_forest(fit)


def trace_document():
    from conftest import make_regression

    ds = make_regression(4, 25, seed=2024, noise=0.5)
    model = fit_kernel_ridge(ds, 4, gamma=0.5, ridge=1e-2)
    trace = relaxation_trace(model, ds, ds.observation(3), [2, 0, 3, 1], "down")
    return render_trace(trace)


CASES = {
    "waterfall.svg": waterfall_document,
    "forest.svg": forest_document,
    "trace.svg": trace_document,
}


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, builder in CASES.items():
        doc = builder()
        path = GOLDEN_DIR / name
        path.write_bytes(doc.svg_text.encode("utf-8"))
        print(f"wrote {path} ({len(doc.svg_text)} bytes)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    main()
