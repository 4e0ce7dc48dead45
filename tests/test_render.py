import hashlib
import math
import re
import xml.etree.ElementTree as ET
from statistics import NormalDist
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explainkit import (
    ModelError,
    dataset_from_rows,
    fit_ols,
    relaxation_trace,
    render_forest,
    render_trace,
    render_waterfall,
)
from explainkit.breakdown import Attribution, AttributionEntry, _fmt, _fmt_array
from explainkit.cli import export_json
from explainkit.render import Z_975, _density, _escape, _silverman_bandwidth, _x_scale
from explainkit.live import SurrogateFit
from explainkit.predict import ConstantPredictor, Encoder, LinearModel
from explainkit.relax import RelaxationTrace, TraceStep
from explainkit.tabular import FeatureSchema

from conftest import GOLDEN_DIR, make_regression
from golden_cases import CASES


def attribution_for(baseline, contributions, final=None, names=None):
    names = names or [f"f{i + 1}" for i in range(len(contributions))]
    entries = tuple(
        AttributionEntry(n, 1.0, c) for n, c in zip(names, contributions)
    )
    if final is None:
        final = baseline + sum(contributions)
    return Attribution(
        method="lm-break",
        baseline_mode="intercept",
        baseline=baseline,
        entries=entries,
        final_prediction=final,
    )


def unmasked_density(scores, grid, bandwidth):
    """`render._density` without the zeroing of underflowing exponents."""
    z = grid[:, None] - scores[None, :]
    z /= bandwidth
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    return z.sum(axis=1) / (len(scores) * bandwidth * math.sqrt(2 * math.pi))


def rect_extents(svg):
    """Horizontal extents of each bar rect, in document order."""
    out = []
    for m in re.finditer(r'<rect x="([0-9.\-]+)" y="[0-9.\-]+" width="([0-9.\-]+)"', svg):
        x, w = float(m.group(1)), float(m.group(2))
        out.append((x, x + w))
    return out


def line_x(svg):
    return [float(m.group(1)) for m in re.finditer(r'<line x1="([0-9.\-]+)"', svg)]


# markup characters, quotes, entities already escaped, non-ASCII text
MARKUP = st.sampled_from(
    ("&", "<", ">", '"', "'", "&amp;", "&lt;", "&#38;", "é", "≤", "\U0001d465")
)


class TestWaterfall:
    def test_all_zero_contributions_degenerate_bars(self):
        a = attribution_for(5.0, [0.0, 0.0, 0.0])
        doc = render_waterfall(a)
        ET.fromstring(doc.svg_text)
        extents = rect_extents(doc.svg_text)
        xs = {e[0] for e in extents}
        assert len(xs) == 1  # all bars start at the baseline abscissa
        assert all(e[1] - e[0] <= 0.5 for e in extents)

    def test_two_entry_cumulative_arithmetic(self):
        a = attribution_for(5.0, [1.0, -0.5])
        doc = render_waterfall(a)
        svg = doc.svg_text
        extents = rect_extents(svg)
        assert len(extents) == 2

        def to_x(v):
            # invert from the known anchors: baseline 5 -> bar1 start
            return extents[0][0] + (v - 5.0) * (extents[0][1] - extents[0][0]) / 1.0

        # bar 1 spans [5, 6], bar 2 spans [6, 5.5] drawn as [5.5, 6]
        assert extents[1][1] == pytest.approx(to_x(6.0), abs=0.51)
        assert extents[1][0] == pytest.approx(to_x(5.5), abs=0.51)

    def test_final_edge_matches_final_prediction(self, wine, wine_ols):
        from explainkit import lm_break

        a = lm_break(wine_ols, wine.observation(4), baseline_mode="intercept")
        doc = render_waterfall(a)
        svg = doc.svg_text
        extents = rect_extents(svg)
        # last bar touches the final-prediction dashed rule within half a pixel
        final_rule = line_x(svg)[-1]
        last = extents[-1]
        assert min(abs(last[0] - final_rule), abs(last[1] - final_rule)) <= 0.5

    def test_byte_determinism(self):
        a = attribution_for(2.0, [0.3, -0.8, 0.1])
        assert render_waterfall(a).svg_text == render_waterfall(a).svg_text

    def test_dimensions(self):
        a = attribution_for(0.0, [1.0] * 7)
        doc = render_waterfall(a)
        assert doc.width == 800
        assert doc.height == 40 * 7 + 80
        assert f'height="{doc.height}"' in doc.svg_text

    def test_sort_importance_vs_given(self):
        a = attribution_for(0.0, [0.1, -2.0, 1.0], names=["a", "b", "c"])
        by_imp = render_waterfall(a).svg_text
        assert by_imp.index("b = 1") < by_imp.index("a = 1")

    def test_label_escaping(self):
        a = Attribution(
            method="lm-break",
            baseline_mode="intercept",
            baseline=0.0,
            entries=(AttributionEntry("a<b&c", "x>y", 1.0),),
            final_prediction=1.0,
        )
        doc = render_waterfall(a)
        ET.fromstring(doc.svg_text)
        assert "a&lt;b&amp;c" in doc.svg_text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(MARKUP | st.text()).map("".join))
    def test_escape_is_saxutils_escape(self, text):
        assert _escape(text) == saxutils.escape(text)


def make_surrogate(stderr_scale=0.1):
    schema = FeatureSchema(("u", "v"), ("numeric", "numeric"), (None, None))
    model = LinearModel(
        schema=schema,
        encoder=Encoder.for_schema(schema),
        intercept=1.0,
        coefficients=np.array([0.5, -0.25]),
        feature_means=np.zeros(2),
        std_errors=np.array([stderr_scale, stderr_scale * 2]),
        intercept_std_error=stderr_scale / 2,
    )
    return SurrogateFit(model=model, lambda_=0.0, selected_features=("u", "v"), r2=0.9)


class TestForest:
    def test_zero_coefficient_zero_stderr(self):
        schema = FeatureSchema(("u",), ("numeric",), (None,))
        model = LinearModel(
            schema=schema,
            encoder=Encoder.for_schema(schema),
            intercept=0.0,
            coefficients=np.array([0.0]),
            feature_means=np.zeros(1),
            std_errors=np.array([0.0]),
            intercept_std_error=0.0,
        )
        fit = SurrogateFit(model=model, lambda_=0.0, selected_features=(), r2=0.0)
        doc = render_forest(fit)
        ET.fromstring(doc.svg_text)
        # interval endpoints coincide with the zero reference line
        circles = re.findall(r'<circle cx="([0-9.\-]+)"', doc.svg_text)
        zero_line = line_x(doc.svg_text)[2]  # after the two axis gridlines
        assert float(circles[0]) == pytest.approx(zero_line, abs=0.01)

    def test_confidence_quantile(self):
        fit = make_surrogate(stderr_scale=1.0)
        doc = render_forest(fit)
        # extract the "u" row interval from the text fallback: est 0.5, se 1.0
        for line in doc.text_fallback.splitlines():
            if line.startswith("u "):
                _, est, low, high = line.split()
                half = (float(high) - float(low)) / 2
                assert half == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_constant_is_normal_quantile(self):
        assert Z_975 == NormalDist().inv_cdf(0.975)

    def test_exact_fit_zero_width_intervals(self):
        ds = make_regression(2, 50, seed=7)  # noiseless linear response
        model = fit_ols(ds, 2)
        fit = SurrogateFit(model=model, lambda_=0.0, selected_features=("x1", "x2"), r2=1.0)
        doc = render_forest(fit)
        for line in doc.text_fallback.splitlines()[1:]:
            name, est, low, high = line.split()
            assert float(high) - float(low) == pytest.approx(0.0, abs=1e-8)

    def test_missing_stderr_advises_refit(self):
        fit = make_surrogate()
        object.__setattr__(fit.model, "std_errors", None)
        with pytest.raises(ModelError, match="refit"):
            render_forest(fit)


# tiny negatives, signed zeros, and odd sixteenths: the floats that lie
# exactly halfway between two three-decimal numbers
EDGE_VALUES = st.sampled_from(
    (0.0625, 2.1875, -2.1875, 0.0005, -0.0005, -0.0004999, -1e-300, 0.0, -0.0)
) | st.integers(-20000, 20000).map(lambda k: (2 * k + 1) / 16)


class TestFmtArray:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats() | EDGE_VALUES))
    @example([])
    @example([-0.0, 0.0, -1e-4, 1e-4, -0.0005, 0.0005, 0.0625, -0.0625, 2.1875, -2.1875])
    def test_equals_fmt_elementwise(self, values):
        assert _fmt_array(np.array(values, dtype=float)) == [_fmt(v) for v in values]


class TestTrace:
    def test_constant_scores_spike(self):
        ds = dataset_from_rows(
            ["x", "y"], ["numeric"] * 2, [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)], "y"
        )
        c = ConstantPredictor(schema=ds.schema(), value=2.0)
        trace = relaxation_trace(c, ds, (1.0,), [0], "down")
        doc = render_trace(trace)
        ET.fromstring(doc.svg_text)
        assert doc.svg_text.count("<rect") == 2  # spike markers, no violins
        assert doc.svg_text.count("<polygon") == 0

    def test_first_down_step_is_spike(self):
        ds = make_regression(2, 20, seed=30, noise=0.3)
        m = fit_ols(ds, 2)
        trace = relaxation_trace(m, ds, ds.observation(0), [0, 1], "down")
        doc = render_trace(trace)
        # step 0 scores are all f(x_new): rendered as the spike rect
        assert doc.svg_text.count("<rect") == 1
        assert doc.svg_text.count("<polygon") == 2

    @pytest.mark.parametrize("row", [41, 410])
    def test_fully_pinned_wine_step_is_spike(self, wine, wine_ols, row):
        # row 41's 1,599 fully pinned scores are equal, yet np.std gives them a
        # bandwidth of about 1e-16; row 410's may differ in the last bit, so
        # their density is 0 on the whole grid. Either way: a rect, no polygon
        # of zero height.
        trace = relaxation_trace(wine_ols, wine, wine.observation(row), range(11), "down")
        svg = render_trace(trace).svg_text
        assert svg.count("<rect") == 1
        polygons = re.findall(r'<polygon points="([^"]*)"', svg)
        assert len(polygons) == 11
        for points in polygons:
            assert len({xy.split(",")[1] for xy in points.split()}) > 1

    def test_density_equals_the_unmasked_formula_on_wine_steps(self, wine, wine_ols):
        # row 4 Up: up to 69% of a step's exponents lie below -746
        trace = relaxation_trace(wine_ols, wine, wine.observation(4), range(11), "up")
        scores = np.concatenate([s.scores for s in trace.steps])
        _, lo, hi = _x_scale(float(scores.min()), float(scores.max()))
        grid = np.linspace(lo, hi, 81)
        for step in trace.steps:
            bw = _silverman_bandwidth(step.scores)
            if bw > 0:
                assert np.array_equal(
                    _density(step.scores, grid, bw), unmasked_density(step.scores, grid, bw)
                )

    def test_density_equals_the_unmasked_formula_down_to_minus_a_million(self):
        # exponents -(grid - score)^2 * 1e6; grid point 0.5 is 0.027 above the
        # largest score, so its density is a sum of denormals
        rng = np.random.Generator(np.random.PCG64(5))
        scores = np.append(rng.uniform(0.0, 0.473, 2000), 0.473)
        grid = np.linspace(0.0, 1.0, 81)
        bw = 1.0 / math.sqrt(2e6)
        exponents = -0.5 * ((grid[:, None] - scores[None, :]) / bw) ** 2
        for low, high in ((-1e6, -1e5), (-800.0, -750.0), (-750.0, -708.0), (-708.0, 0.0)):
            assert np.any((exponents >= low) & (exponents < high))
        expected = unmasked_density(scores, grid, bw)
        assert 0.0 < expected[40] < np.finfo(float).tiny
        assert np.array_equal(_density(scores, grid, bw), expected)

    def test_polyline_per_observation(self):
        ds = make_regression(2, 9, seed=31, noise=0.3)
        m = fit_ols(ds, 2)
        trace = relaxation_trace(m, ds, ds.observation(0), [1, 0], "up")
        doc = render_trace(trace)
        assert doc.svg_text.count("<polyline") == 9

    def test_mean_markers_count(self):
        ds = make_regression(3, 12, seed=32, noise=0.3)
        m = fit_ols(ds, 3)
        trace = relaxation_trace(m, ds, ds.observation(0), [0, 1, 2], "down")
        doc = render_trace(trace)
        assert doc.svg_text.count("<circle") == 4

    def test_byte_determinism(self):
        ds = make_regression(2, 10, seed=33, noise=0.2)
        m = fit_ols(ds, 2)
        trace = relaxation_trace(m, ds, ds.observation(1), [0, 1], "down")
        assert render_trace(trace).svg_text == render_trace(trace).svg_text

    def test_wine_scale_bytes_are_pinned(self, tmp_path):
        """SVG and JSON of a 1,599-row, 12-step trace keep their exact bytes.

        The scores are drawn, not scored, so no BLAS path moves their last
        bits. Step 0 is all equal (the spike rect); step 6 is so narrow that
        its density underflows to zero on 80 of the 81 grid points; step 9
        holds zeros of both signs and values that print with exponents.
        """
        rng = np.random.Generator(np.random.PCG64(1599))
        n, p = 1599, 11
        steps = [TraceStep(frozenset(range(p)), None, np.full(n, 5.625))]
        for k in range(1, p + 1):
            scores = rng.normal(5.0 + 0.3 * np.sin(k), 0.1 * k, n)
            if k == 6:
                scores = 5.0 + 5e-3 * rng.standard_normal(n)
            if k == 9:
                scores[:4] = (0.0, -0.0, 1e-300, -2.5e-8)
            steps.append(TraceStep(frozenset(range(p - k)), p - k, scores))
        names = tuple(f"f{j}" for j in range(p - 1)) + ("a<b & ñ",)
        trace = RelaxationTrace("down", names, tuple(steps))

        svg = render_trace(trace).svg_text.encode("utf-8")
        export_json(trace, str(tmp_path / "trace.json"))
        digests = (
            hashlib.sha256(svg).hexdigest(),
            hashlib.sha256((tmp_path / "trace.json").read_bytes()).hexdigest(),
        )
        assert digests == (
            "603f3aa4948078c3bd2906d3e351c6691048d445fe09e4202db15376c26e891c",
            "7a8041ae53a5d82e035f52cf811a5b805411f40a7b6bd05e8e419ba0c1a057bd",
        )


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_committed_golden(self, name):
        doc = CASES[name]()
        golden = (GOLDEN_DIR / name).read_bytes()
        assert doc.svg_text.encode("utf-8") == golden

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_well_formed_xml(self, name):
        ET.fromstring(CASES[name]().svg_text)


def test_a_trace_without_steps_is_a_model_error():
    with pytest.raises(ModelError, match="^trace has no steps$"):
        render_trace(RelaxationTrace("down", ("a",), ()))


def test_a_trace_whose_range_overflows_is_a_model_error():
    scores = np.array([-1.7e308, 1.7e308])
    trace = RelaxationTrace("up", ("a",), (TraceStep(frozenset(), None, scores),))
    with pytest.raises(ModelError, match="^the plot's value range overflows; rescale the"):
        render_trace(trace)


def test_scores_whose_spread_overflows_draw_a_rect(recwarn):
    # their squared deviations overflow and their quartiles coincide, so the
    # bandwidth is inf: the density is 0 on the whole grid
    scores = np.array([0.0] * 6 + [1e155, -1e155])
    assert _silverman_bandwidth(scores) == math.inf
    trace = RelaxationTrace("up", ("a",), (TraceStep(frozenset(), None, scores),))
    svg = render_trace(trace).svg_text
    assert "<rect" in svg and "<polygon" not in svg
    assert not recwarn.list
