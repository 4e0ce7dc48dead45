"""Deterministic figure emitters: waterfall, forest, and relaxation-trace
plots as hand-built SVG with aligned-text fallbacks.

Rendering is a pure function of its inputs: fixed 800 x (40*rows + 80)
layout, fixed decimal formatting, no timestamps. Identical inputs yield
byte-identical documents, which makes golden-file testing possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .breakdown import Attribution, _fmt, _fmt_array, attribution_text
from .errors import ModelError
from .live import SurrogateFit
from .relax import DOWN, RelaxationTrace

WIDTH = 800
ROW_HEIGHT = 40
MARGIN_LEFT = 230
MARGIN_RIGHT = 30
MARGIN_TOP = 44
MARGIN_BOTTOM = 36

POSITIVE_FILL = "#2166ac"
NEGATIVE_FILL = "#b2182b"
NEUTRAL_STROKE = "#333333"
GRID_STROKE = "#cccccc"
MEAN_FILL = "#d62728"
LINE_STROKE = "#999999"

# the standard normal's 97.5% quantile, `statistics.NormalDist().inv_cdf(0.975)`
Z_975 = 1.9599639845400536


def _escape(text: str) -> str:
    """`text` with `&`, `>` and `<` escaped as `xml.sax.saxutils.escape` does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class PlotDocument:
    kind: str
    svg_text: str
    text_fallback: str
    width: int
    height: int


def _x_scale(lo: float, hi: float):
    if hi <= lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.05 + 1e-9
        lo, hi = lo - pad, hi + pad
    else:
        pad = (hi - lo) * 0.05
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    if not math.isfinite(span):
        raise ModelError("the plot's value range overflows; rescale the response")
    inner = WIDTH - MARGIN_LEFT - MARGIN_RIGHT

    def to_x(v: float) -> float:
        return MARGIN_LEFT + (v - lo) / span * inner

    return to_x, lo, hi


def _rule(x: float, height: int, stroke: str) -> str:
    """Vertical line at x across the full plot height; `stroke` holds the
    line's stroke attributes."""
    return (
        f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_TOP - 8)}" '
        f'x2="{_fmt(x)}" y2="{_fmt(height - MARGIN_BOTTOM + 8)}" {stroke}/>\n'
    )


def _open(kind: str, rows: int, lo: float, hi: float):
    """The opening parts of a `kind` plot of `rows` rows (at least one) over
    [lo, hi]: header, title, and the axis at the padded range's ends.
    Returns (parts, to_x, lo, hi, height), with the padded lo and hi."""
    height = ROW_HEIGHT * max(rows, 1) + 80
    to_x, lo, hi = _x_scale(lo, hi)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}" font-family="monospace" font-size="12">\n'
        f"<title>{kind}</title>\n"
    ]
    for v in (lo, hi):
        x = to_x(v)
        parts.append(_rule(x, height, f'stroke="{GRID_STROKE}" stroke-width="1"'))
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(height - MARGIN_BOTTOM + 22)}" '
            f'text-anchor="middle">{_fmt(v)}</text>\n'
        )
    return parts, to_x, lo, hi, height


def _row_label(y: float, label: str) -> str:
    """A row's label, right-aligned left of the plot, with its baseline at y."""
    return (
        f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y)}" '
        f'text-anchor="end">{_escape(label)}</text>\n'
    )


def _close(kind: str, parts: list[str], height: int, text_fallback: str) -> PlotDocument:
    """The plot of `parts`, closed."""
    parts.append("</svg>\n")
    return PlotDocument(kind, "".join(parts), text_fallback, WIDTH, height)


def _text_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned-text table: a left-aligned label column, then right-aligned
    columns of six-decimal numbers."""
    width = max(len(label) for label, *_ in rows)
    lines = [f"{headers[0]:<{width}}" + "".join(f" {h:>12}" for h in headers[1:])]
    for label, *numbers in rows:
        lines.append(f"{label:<{width}}" + "".join(f" {v:>12.6f}" for v in numbers))
    return "\n".join(lines) + "\n"


def render_waterfall(attribution: Attribution) -> PlotDocument:
    """Cumulative bar chart from the baseline to the final prediction.

    Each bar adds one entry's contribution to the running total started at
    the baseline, so consecutive bars chain and the last bar's far edge
    lands exactly on the final prediction. A solid rule marks the baseline
    and a dashed one the final prediction. Bars are ordered by decreasing
    |contribution|, which generally differs from the greedy order, so the
    bar edges need not trace the relaxed predictions of an ag-break walk.
    """
    entries = sorted(attribution.entries, key=lambda e: -abs(e.contribution))

    cumulative = [attribution.baseline]
    for e in entries:
        cumulative.append(cumulative[-1] + e.contribution)
    ends = cumulative + [attribution.final_prediction]
    parts, to_x, _, _, height = _open("waterfall", len(entries), min(ends), max(ends))

    for i, e in enumerate(entries):
        start, end = cumulative[i], cumulative[i + 1]
        x0, x1 = to_x(min(start, end)), to_x(max(start, end))
        y = MARGIN_TOP + i * ROW_HEIGHT
        fill = POSITIVE_FILL if e.contribution >= 0 else NEGATIVE_FILL
        parts.append(_row_label(y + 20, e.label))
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y + 8)}" '
            f'width="{_fmt(max(x1 - x0, 0.5))}" height="24" fill="{fill}"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(x1 + 4)}" y="{_fmt(y + 24)}" '
            f'text-anchor="start">{_fmt(e.contribution)}</text>\n'
        )

    xb = to_x(attribution.baseline)
    parts.append(_rule(xb, height, f'stroke="{NEUTRAL_STROKE}" stroke-width="1.5"'))
    xf = to_x(attribution.final_prediction)
    parts.append(
        _rule(xf, height, f'stroke="{NEUTRAL_STROKE}" stroke-width="1" stroke-dasharray="4,3"')
    )
    parts.append(
        f'<text x="{_fmt(xf)}" y="{_fmt(MARGIN_TOP - 16)}" text-anchor="middle">'
        f'final {_fmt(attribution.final_prediction)}</text>\n'
    )
    return _close("waterfall", parts, height, attribution_text(attribution))


def render_forest(fit: SurrogateFit) -> PlotDocument:
    """Coefficient point estimates with 95% normal-approximation intervals."""
    model = fit.model
    if model.std_errors is None or model.intercept_std_error is None:
        raise ModelError(
            "surrogate carries no standard errors; refit the selected features with OLS"
        )
    names = ["(intercept)", *model.encoder.encoded_names]
    estimates = [model.intercept, *model.coefficients.tolist()]
    errors = [model.intercept_std_error, *model.std_errors.tolist()]

    lows = [e - Z_975 * s for e, s in zip(estimates, errors)]
    highs = [e + Z_975 * s for e, s in zip(estimates, errors)]
    parts, to_x, _, _, height = _open("forest", len(names), min(lows + [0.0]), max(highs + [0.0]))
    parts.append(_rule(to_x(0.0), height, f'stroke="{NEUTRAL_STROKE}" stroke-width="1"'))

    for i, (name, est, low, high) in enumerate(zip(names, estimates, lows, highs)):
        y = MARGIN_TOP + i * ROW_HEIGHT + ROW_HEIGHT / 2
        parts.append(_row_label(y + 4, name))
        parts.append(
            f'<line x1="{_fmt(to_x(low))}" y1="{_fmt(y)}" '
            f'x2="{_fmt(to_x(high))}" y2="{_fmt(y)}" '
            f'stroke="{NEUTRAL_STROKE}" stroke-width="2"/>\n'
        )
        parts.append(
            f'<circle cx="{_fmt(to_x(est))}" cy="{_fmt(y)}" r="4" fill="{POSITIVE_FILL}"/>\n'
        )

    table = _text_table(
        ("coefficient", "estimate", "low", "high"), list(zip(names, estimates, lows, highs))
    )
    return _close("forest", parts, height, table)


def _silverman_bandwidth(scores: np.ndarray) -> float:
    """Silverman's rule; inf or nan where the scores' spread overflows."""
    if scores.min() == scores.max():  # np.std may give them about 1e-16
        return 0.0
    n = len(scores)
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(scores))
        q75, q25 = np.percentile(scores, [75, 25])
        iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def _density(scores: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    # one (grid x scores) array, updated in place; squaring before halving
    # rounds as halving first would, since scaling by a power of two is exact
    # except where exp of the result is 1 or 0 either way. exp is slow where
    # it underflows; exp(-750) is 0, so zero those arguments and results,
    # which takes in those whose square overflows
    z = grid[:, None] - scores[None, :]
    with np.errstate(over="ignore"):
        z /= bandwidth
        z *= z
    z *= -0.5
    underflow = z < -750.0
    np.putmask(z, underflow, 0.0)
    np.exp(z, out=z)
    np.putmask(z, underflow, 0.0)
    return z.sum(axis=1) / (len(scores) * bandwidth * math.sqrt(2 * math.pi))


def render_trace(trace: RelaxationTrace) -> PlotDocument:
    """Violin silhouettes of the conditional score distributions per step (a
    thin rect for equal scores or a density 0 on the whole grid), with the
    conditional mean marked and per-observation connecting lines."""
    if not trace.steps:
        raise ModelError("trace has no steps")
    steps = trace.steps
    all_scores = np.concatenate([s.scores for s in steps])
    parts, to_x, lo, hi, height = _open(
        "trace", len(steps), float(all_scores.min()), float(all_scores.max())
    )

    sign = "-" if trace.direction == DOWN else "+"
    labels = [
        "start" if j is None else f"{sign}{trace.feature_names[j]}"
        for j in (step.relaxed_feature for step in steps)
    ]
    centers = [MARGIN_TOP + i * ROW_HEIGHT + ROW_HEIGHT / 2 for i in range(len(steps))]

    # per-observation gray polylines between consecutive steps: each step's
    # points are formatted as one array, and each polyline joins one row of them
    suffixes = [f",{_fmt(y)}" for y in centers]
    columns = [
        [x + suffix for x in _fmt_array(to_x(step.scores))]
        for step, suffix in zip(steps, suffixes)
    ]
    for row in zip(*columns):
        parts.append(
            f'<polyline points="{" ".join(row)}" fill="none" '
            f'stroke="{LINE_STROKE}" stroke-width="0.4"/>\n'
        )

    half = ROW_HEIGHT * 0.4
    grid = np.linspace(lo, hi, 81)
    grid_x = _fmt_array(to_x(grid))
    for label, step, y in zip(labels, steps, centers):
        parts.append(_row_label(y + 4, label))
        bw = _silverman_bandwidth(step.scores)
        dens = _density(step.scores, grid, bw) if bw > 0 else np.zeros_like(grid)
        peak = dens.max()
        if peak > 0:
            scaled = dens / peak * half
            upper = map("{},{}".format, grid_x, _fmt_array(y - scaled))
            lower = map("{},{}".format, grid_x[::-1], _fmt_array(y + scaled[::-1]))
            parts.append(
                f'<polygon points="{" ".join([*upper, *lower])}" '
                f'fill="#a6bddb" fill-opacity="0.6" stroke="{NEUTRAL_STROKE}" '
                f'stroke-width="0.5"/>\n'
            )
        else:
            x = to_x(float(step.scores[0]))
            parts.append(
                f'<rect x="{_fmt(x - 1)}" y="{_fmt(y - half)}" width="2" '
                f'height="{_fmt(2 * half)}" fill="#a6bddb" stroke="{NEUTRAL_STROKE}" '
                f'stroke-width="0.5"/>\n'
            )
        parts.append(
            f'<circle cx="{_fmt(to_x(step.mean))}" cy="{_fmt(y)}" r="4" '
            f'fill="{MEAN_FILL}"/>\n'
        )

    text_rows = [
        (label, step.mean, float(step.scores.min()), float(step.scores.max()))
        for label, step in zip(labels, steps)
    ]
    return _close("trace", parts, height, _text_table(("step", "mean", "min", "max"), text_rows))
