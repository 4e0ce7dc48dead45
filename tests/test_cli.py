import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explainkit import cli
from explainkit.cli import (
    MAX_PERMUTATIONS,
    MAX_SIZE,
    SUBCOMMANDS,
    _canonical_json,
    export_json,
    parse_args,
    run,
)
from explainkit.errors import UsageError

from conftest import WINE_CSV, fixture_command, overflowing_table


def wine_args(*extra):
    return [
        "--data",
        str(WINE_CSV),
        "--response",
        "quality",
        *extra,
    ]


class TestParsing:
    def test_defaults_materialized(self):
        cfg = parse_args(["breakdown", *wine_args("--row", "5")])
        assert cfg.direction == "up"
        assert cfg.baseline == "zero"
        assert not hasattr(cfg, "seed")  # a breakdown draws nothing
        assert parse_args(["live", *wine_args("--row", "5")]).seed == 42

    def test_row_and_observation_mutually_exclusive(self):
        with pytest.raises(UsageError):
            parse_args(["breakdown", *wine_args("--row", "1", "--observation", "1,2")])
        with pytest.raises(UsageError):
            parse_args(["breakdown", *wine_args()])

    def test_external_command_after_dashes(self):
        cfg = parse_args(
            ["breakdown", *wine_args("--row", "1", "--model", "external"), "--", "cmd", "a"]
        )
        assert cfg.external_command == ("cmd", "a")

    def test_external_without_command_rejected(self):
        with pytest.raises(UsageError, match="external"):
            parse_args(["breakdown", *wine_args("--row", "1", "--model", "external")])

    def test_command_without_external_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["breakdown", *wine_args("--row", "1"), "--", "cmd"])

    @pytest.mark.parametrize(
        "argv, flag, bound",
        [
            (["live"], "--size", MAX_SIZE),
            (["shapley", "--method", "sample"], "--permutations", MAX_PERMUTATIONS),
        ],
    )
    def test_upper_bounds(self, capsys, argv, flag, bound):
        # parsing only: a run past the bound stops before it loads the data
        subcommand, *flags = argv
        cfg = parse_args([subcommand, *wine_args("--row", "5", *flags, flag, str(bound))])
        assert getattr(cfg, flag[2:]) == bound
        assert run([subcommand, *wine_args("--row", "5", *flags, flag, str(bound + 1))]) == 1
        expected = f"usage error: {flag} must be between {0 if flag == '--size' else 2} and {bound}"
        assert capsys.readouterr() == ("", expected + "\n")

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["breakdown", *wine_args("--row", "1", "--frobnicate")])


def _value(flag):
    """A value argparse takes for `flag`: its first choice, else 1."""
    return str(cli.FLAGS[flag][0].get("choices", [1])[0])


# (subcommand, flag) for each flag read only under a condition on a flag the
# subcommand also takes
CONDITIONAL = [
    (subcommand, flag)
    for flag, (_, takes, needs) in cli.FLAGS.items()
    if needs
    for subcommand in takes
    if subcommand in cli.FLAGS[needs[0]][1]
]
COMMON = {"data", "response", "row", "observation", "model", "json_path", "svg_path", "text_path"}


class TestFlagTable:
    # parsing only: each usage error comes before the data is loaded

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_a_flag_the_subcommand_does_not_take_is_a_usage_error(self, capsys, subcommand):
        untaken = [flag for flag, (_, takes, _) in cli.FLAGS.items() if subcommand not in takes]
        assert untaken
        for flag in untaken:
            assert run([subcommand, *wine_args("--row", "5"), flag, _value(flag)]) == 1, flag
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("usage error: ") and flag in err

    @pytest.mark.parametrize("subcommand, flag", CONDITIONAL)
    def test_a_conditional_flag_is_read_only_under_its_condition(self, capsys, subcommand, flag):
        keywords, _, (on, value) = cli.FLAGS[flag]
        other = next(v for v in cli.FLAGS[on][0]["choices"] if v != value)
        argv = [subcommand, *wine_args("--row", "5")]
        assert run([*argv, on, other, flag, _value(flag)]) == 1
        assert capsys.readouterr() == ("", f"usage error: {flag} is read only with {on} {value}\n")
        unmet = parse_args([*argv, on, other])
        met = parse_args([*argv, on, value, *(["--", "cmd"] if value == "external" else [])])
        assert not cli._reads(unmet, flag) and cli._reads(met, flag)
        assert getattr(met, cli._DESTS[flag]) == keywords.get("default")

    def test_live_always_reads_the_seed(self):
        config = parse_args(["live", *wine_args("--row", "5", "--seed", "3")])
        assert config.seed == 3 and cli._reads(config, "--seed")

    @pytest.mark.parametrize(
        "argv, read",
        [
            (["breakdown"], {"direction", "baseline", "up_distance"}),
            (["breakdown", "--direction", "down"], {"direction", "baseline"}),
            (["breakdown", "--model", "kernel-ridge"],
             {"gamma", "ridge", "direction", "baseline", "up_distance"}),
            (["shapley"], {"baseline", "method"}),
            (["shapley", "--method", "sample"], {"baseline", "method", "permutations", "seed"}),
            (["live"], {"size", "white_box", "seed"}),
            (["live", "--white-box", "lasso"], {"size", "white_box", "seed", "lambda"}),
            (["trace", "--direction", "down"], {"direction"}),
        ],
    )
    def test_the_envelope_echoes_the_flags_the_run_reads(self, argv, read):
        config = parse_args([*argv, *wine_args("--row", "5")])
        expected = COMMON | read | {"subcommand", "external_command"}
        assert cli._echo(config).keys() == expected

    def test_a_flag_is_given_by_its_full_name(self, capsys):
        sampled = ["shapley", *wine_args("--row", "5"), "--method", "sample"]
        breakdown = ["breakdown", *wine_args("--row", "5")]
        assert parse_args([*sampled, "--permutations", "9"]).permutations == 9
        assert parse_args([*breakdown, "--model", "ols"]).model == "ols"
        for argv in ([*sampled, "--perm", "9"], [*breakdown, "--m", "ols"]):
            assert run(argv) == 1
            expected = f"usage error: unrecognized arguments: {' '.join(argv[-2:])}\n"
            assert capsys.readouterr() == ("", expected)

    def test_the_fuzz_draws_every_flag_but_data(self):
        assert FLAG_VALUES.keys() == cli.FLAGS.keys() - {"--data"}


class TestRunBreakdown:
    def test_wine_intercept_baseline(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run(
            [
                "breakdown",
                *wine_args(
                    "--row", "5",
                    "--model", "ols",
                    "--direction", "up",
                    "--baseline", "intercept",
                    "--json", str(out),
                ),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        result = doc["result"]
        assert result["baseline"] == pytest.approx(5.636, abs=5e-4)
        telescoped = result["baseline"] + sum(
            e["contribution"] for e in result["entries"]
        )
        assert telescoped == pytest.approx(result["final_prediction"], rel=1e-9)
        assert "seed" not in doc and "seed" not in doc["config"]
        assert doc["version"]
        assert doc["config"]["subcommand"] == "breakdown"

    def test_row_zero_is_usage_error(self, tmp_path, capsys):
        code = run(["breakdown", *wine_args("--row", "0")])
        assert code == 1
        assert "1-indexed" in capsys.readouterr().err

    def test_row_out_of_range(self, capsys):
        code = run(["breakdown", *wine_args("--row", "1600")])
        assert code == 1

    def test_missing_data_file_is_data_error(self, capsys):
        code = run(
            ["breakdown", "--data", "/nope.csv", "--response", "y", "--row", "1"]
        )
        assert code == 2

    def test_svg_and_text_outputs(self, tmp_path):
        svg = tmp_path / "w.svg"
        txt = tmp_path / "w.txt"
        code = run(
            ["breakdown", *wine_args("--row", "5", "--svg", str(svg), "--text", str(txt))]
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert "final_prognosis" in txt.read_text()

    def test_inline_observation(self, tmp_path):
        out = tmp_path / "o.json"
        obs = "7.4,0.7,0,1.9,0.076,11,34,0.9978,3.51,0.56,9.4"
        code = run(
            ["breakdown", *wine_args("--observation", obs, "--json", str(out))]
        )
        assert code == 0
        row5 = json.loads(out.read_text())
        out2 = tmp_path / "o2.json"
        assert run(["breakdown", *wine_args("--row", "5", "--json", str(out2))]) == 0
        assert row5["result"] == json.loads(out2.read_text())["result"]

    def test_external_model_end_to_end(self, tmp_path):
        out = tmp_path / "ext.json"
        small = tmp_path / "small.csv"
        small.write_text("a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n2,2,6\n1,0,2\n")
        cmd = fixture_command("linear_scorer.py", "0.0", "1.0", "1.0")
        code = run(
            [
                "breakdown",
                "--data", str(small),
                "--response", "y",
                "--row", "2",
                "--model", "external",
                "--json", str(out),
                "--",
                *cmd,
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["final_prediction"] == pytest.approx(3.0)

    def test_external_failure_is_model_error(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        small.write_text("a,y\n1,2\n2,3\n")
        code = run(
            [
                "breakdown",
                "--data", str(small),
                "--response", "y",
                "--row", "1",
                "--model", "external",
                "--",
                *fixture_command("failing_scorer.py"),
            ]
        )
        assert code == 2
        assert "deliberate failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scorer, message",
        [
            (["non_utf8_output_scorer.py"], "scorer output is not UTF-8"),
            (["non_utf8_stderr_scorer.py"], "exit status 3 | stderr: bad byte �"),
            # these fail on the first payload, which joins the start set, the
            # first greedy step's candidates and the one-row full set
            (["short_output_scorer.py"], "scorer returned 12 scores for 13 rows"),
            (["failing_scorer.py"], "exit status 1 | stderr: deliberate failure"),
            (["linear_scorer.py", "nan", "1.0", "1.0"], "scorer produced non-finite scores"),
        ],
        ids=["output-not-utf8", "stderr-not-utf8", "short", "failing", "nan"],
    )
    def test_bad_scorer_is_exit_2(self, tmp_path, capsys, scorer, message):
        small = tmp_path / "small.csv"
        small.write_text("a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n")
        code = run(
            [
                "breakdown",
                "--data", str(small),
                "--response", "y",
                "--row", "1",
                "--model", "external",
                "--",
                *fixture_command(*scorer),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert message in err

    def test_a_temporary_file_that_cannot_be_made_is_exit_2(self, tmp_path, capsys, monkeypatch):
        small = tmp_path / "small.csv"
        small.write_text("a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        code = run(
            [
                "breakdown",
                "--data", str(small),
                "--response", "y",
                "--row", "1",
                "--model", "external",
                "--",
                *fixture_command("identity_first_column.py"),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot spawn ") and err.count("\n") == 1
        assert "No such file or directory" in err


    def test_hung_scorer_times_out_with_exit_2(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        small.write_text("a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n")
        pid_file = tmp_path / "pids"
        code = run(
            [
                "breakdown",
                "--data", str(small),
                "--response", "y",
                "--row", "1",
                "--model", "external",
                "--scorer-timeout", "0.5",
                "--",
                *fixture_command("sleeping_scorer.py", str(pid_file)),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "timed out after 0.5 s" in err
        assert "Traceback" not in err
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 1  # one payload, so no spare: every set fits in it
        for pid in pids:
            with pytest.raises(ProcessLookupError):  # killed and reaped
                os.kill(pid, 0)

    def test_scorer_timeout_leaves_the_artifacts_alone(self, tmp_path):
        # a timeout bounds how long a spawn may run, not what it computes, so
        # it is not echoed into the envelope
        small = tmp_path / "small.csv"
        small.write_text("a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n2,2,6\n1,0,2\n")
        out = tmp_path / "out.json"
        outputs = []
        for flags in ([], ["--scorer-timeout", "30"]):
            argv = ["breakdown", "--data", str(small), "--response", "y", "--row", "2"]
            argv += ["--model", "external", *flags, "--json", str(out), "--"]
            assert run([*argv, *fixture_command("linear_scorer.py", "0.0", "1.0", "1.0")]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "x"])
    def test_bad_scorer_timeout_is_usage_error(self, capsys, seconds):
        argv = ["breakdown", *wine_args("--row", "1", "--model", "external")]
        argv += ["--scorer-timeout", seconds, "--", *fixture_command("linear_scorer.py", "0.0")]
        assert run(argv) == 1
        assert "--scorer-timeout" in capsys.readouterr().err


class TestRunShapley:
    def test_exact_cap_is_model_error(self, tmp_path, capsys):
        import numpy as np

        wide = tmp_path / "wide.csv"
        names = [f"x{i}" for i in range(20)] + ["y"]
        rng = np.random.Generator(np.random.PCG64(0))
        rows = []
        for r in range(30):
            cells = rng.uniform(0, 9, 20)
            rows.append(",".join(f"{c:.3f}" for c in cells) + f",{r}")
        wide.write_text(",".join(names) + "\n" + "\n".join(rows) + "\n")
        code = run(
            ["shapley", "--data", str(wide), "--response", "y", "--row", "1", "--method", "exact"]
        )
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_sampled_reproducible(self, tmp_path):
        ds = tmp_path / "d.csv"
        rows = ["a,b,y"]
        for i in range(12):
            rows.append(f"{i % 5},{(i * 3) % 7},{i}")
        ds.write_text("\n".join(rows) + "\n")
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            code = run(
                [
                    "shapley",
                    "--data", str(ds),
                    "--response", "y",
                    "--row", "3",
                    "--method", "sample",
                    "--permutations", "50",
                    "--seed", "7",
                    "--json", str(out),
                ]
            )
            assert code == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["result"] == outs[1]["result"]
        assert outs[0]["result"]["n_permutations"] == 50
        assert len(outs[0]["result"]["std_errors"]) == 2


class TestRunLive:
    def test_surrogate_json(self, tmp_path):
        out = tmp_path / "live.json"
        code = run(
            [
                "live",
                *wine_args("--row", "5", "--size", "100", "--seed", "11", "--json", str(out)),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["white_box"] == "ols"
        assert result["r2"] == pytest.approx(1.0, abs=1e-9)
        assert len(result["coefficients"]) == 11

    def test_lasso_with_lambda(self, tmp_path):
        out = tmp_path / "lasso.json"
        code = run(
            [
                "live",
                *wine_args(
                    "--row", "5", "--size", "80", "--white-box", "lasso",
                    "--lambda", "0.05", "--json", str(out),
                ),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["lambda"] == 0.05
        assert all(c["std_error"] is None for c in result["coefficients"])


class TestRunTrace:
    def test_trace_json_and_svg(self, tmp_path):
        out = tmp_path / "trace.json"
        svg = tmp_path / "trace.svg"
        small = tmp_path / "small.csv"
        small.write_text("a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n2,2,6\n1,0,2\n")
        code = run(
            [
                "trace",
                "--data", str(small),
                "--response", "y",
                "--row", "1",
                "--direction", "down",
                "--json", str(out),
                "--svg", str(svg),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        steps = doc["result"]["steps"]
        assert len(steps) == 3
        assert steps[0]["fixed"] == [0, 1]
        assert steps[-1]["fixed"] == []
        assert svg.read_text().startswith("<svg")

    def test_external_trace_after_its_walk_sends_nothing(self, tmp_path):
        # the greedy walk leaves its path's score arrays for the trace, the
        # full set's one row x_new among them, so the trace finds every step
        # there: the 9 processes are the walk's, and the trace starts none
        pids = tmp_path / "pids"
        scorer = fixture_command("recording_scorer.py", str(tmp_path / "payload.csv"), str(pids))
        code = run(["trace", *wine_args("--row", "5", "--model", "external"), "--", *scorer])
        assert code == 0
        assert len(pids.read_text().split()) == 9


class TestExitCodes:
    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("a,y\nr\xe9d,1\nblue,2\n".encode("latin-1"))
        assert run(["breakdown", "--data", str(bad), "--response", "y", "--row", "1"]) == 2
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, value, capsys):
        argv = ["live", *wine_args("--row", "5", "--white-box", "lasso", "--lambda", value)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("subcommand", [["shapley", "--method", "sample"], ["live"]])
    def test_negative_seed_is_usage_error(self, subcommand, capsys):
        assert run([*subcommand, *wine_args("--row", "5", "--seed", "-1")]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_live_size_zero_is_data_error(self, capsys):
        assert run(["live", *wine_args("--row", "5", "--size", "0")]) == 2
        assert "increase size" in capsys.readouterr().err

    def test_no_feature_columns_is_data_error(self, tmp_path, capsys):
        only = tmp_path / "only.csv"
        only.write_text("y\n1\n2\n3\n")
        argv = ["breakdown", "--data", str(only), "--response", "y", "--row", "1"]
        assert run([*argv, "--model", "kernel-ridge"]) == 2
        assert "no feature columns" in capsys.readouterr().err


class TestExportJson:
    def test_byte_identical_across_calls(self, tmp_path):
        payload = {"b": 2.0, "a": [1.5, -0.318]}
        f1, f2 = tmp_path / "1.json", tmp_path / "2.json"
        export_json(payload, str(f1))
        export_json(payload, str(f2))
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().endswith("\n")

    def test_shortest_round_trip_decimals(self, tmp_path):
        f = tmp_path / "n.json"
        export_json({"contribution": -0.318}, str(f))
        assert "-0.318" in f.read_text()

    def test_keys_sorted(self, tmp_path):
        f = tmp_path / "k.json"
        export_json({"zeta": 1, "alpha": 2}, str(f))
        text = f.read_text()
        assert text.index("alpha") < text.index("zeta")

    def test_single_step_trace_exports(self, tmp_path):
        import numpy as np

        from explainkit.relax import RelaxationTrace, TraceStep

        trace = RelaxationTrace(
            direction="down",
            feature_names=("a",),
            steps=(
                TraceStep(
                    fixed=frozenset({0}),
                    relaxed_feature=None,
                    scores=np.array([1.0, 1.0]),
                ),
            ),
        )
        f = tmp_path / "t.json"
        export_json(trace, str(f))
        assert len(json.loads(f.read_text())["steps"]) == 1


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = (
    FINITE
    | FINITE.map(np.float64)
    | st.sampled_from((-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e22))
)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
KEYS = st.text() | st.sampled_from(("é", "\u2028", 'q"\\/', "\x00\n\t", "\U0001f600"))
JSON_VALUES = st.recursive(
    SCALARS | st.lists(FLOATS),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.one_of(FLOATS, st.integers(), st.booleans(), st.none()))
    | st.dictionaries(KEYS, inner),
    max_leaves=30,
)
NON_FINITE = st.sampled_from((float("nan"), float("inf"), -float("inf"), np.float64("nan")))


def json_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


class TestCanonicalJson:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [[], [[]]]})
    @example([1.0, 2, True, None, -0.0])
    def test_equals_json_dumps(self, value):
        assert _canonical_json(value) == json_dumps(value)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(FLOATS), NON_FINITE, st.data())
    def test_non_finite_float_raises_as_json_does(self, floats, bad, data):
        floats.insert(data.draw(st.integers(0, len(floats))), bad)
        value = data.draw(st.sampled_from((floats, tuple(floats), [1, floats], {"k": floats})))
        with pytest.raises(ValueError) as expected:
            json_dumps(value)
        with pytest.raises(ValueError) as got:
            _canonical_json(value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "value",
        [[np.int64(3)], {"a": {1, 2}}, [1.0, object()], np.bool_(True), {(1, 2): 3}, {1.5: np.nan}],
    )
    def test_unsupported_values_raise_as_json_does(self, value):
        with pytest.raises((TypeError, ValueError)) as expected:
            json_dumps(value)
        with pytest.raises(expected.type, match="^" + re.escape(str(expected.value)) + "$"):
            _canonical_json(value)

    @pytest.mark.parametrize("value", [{3: "i", 1.5: "f", True: "t", -0.0: "z"}, {None: 1}])
    def test_int_float_bool_and_none_keys_as_json(self, value):
        assert _canonical_json(value) == json_dumps(value)


class TestReproducibility:
    def test_identical_runs_identical_bytes(self, tmp_path):
        out_json, out_svg = tmp_path / "a.json", tmp_path / "a.svg"
        argv = [
            "breakdown",
            *wine_args(
                "--row", "9", "--direction", "down",
                "--json", str(out_json), "--svg", str(out_svg),
            ),
        ]
        assert run(argv) == 0
        first = (out_json.read_bytes(), out_svg.read_bytes())
        out_json.unlink()
        out_svg.unlink()
        assert run(argv) == 0
        assert (out_json.read_bytes(), out_svg.read_bytes()) == first

    def test_input_file_untouched(self, tmp_path):
        before = WINE_CSV.read_bytes()
        run(["breakdown", *wine_args("--row", "5")])
        assert WINE_CSV.read_bytes() == before


SMALL_CSV = b"a,b,y\n1,2,3\n2,1,4\n3,3,9\n0,1,1\n2,2,6\n1,0,2\n"

SCORERS = {
    "linear": fixture_command("linear_scorer.py", "0.0", "1.0", "1.0"),
    "nan": fixture_command("linear_scorer.py", "nan", "1.0", "1.0"),
    "failing": fixture_command("failing_scorer.py"),
    "short": fixture_command("short_output_scorer.py"),
}

OUTPUTS = ("--json", "--svg", "--text")

FLAG_VALUES = {
    "--response": st.sampled_from(["y", "a", "zz"]),
    "--row": st.integers(-1, 8).map(str),
    "--observation": st.sampled_from(["1,2", "1", "a,b", "nan,1", "1,2,3"]),
    "--model": st.sampled_from(["ols", "kernel-ridge", "external", "tree"]),
    "--gamma": st.sampled_from(["1", "0", "-1", "nan", "inf", "x"]),
    "--ridge": st.sampled_from(["0.1", "0", "-inf"]),
    "--direction": st.sampled_from(["up", "down", "left"]),
    "--baseline": st.sampled_from(["zero", "intercept", "mean"]),
    "--up-distance": st.sampled_from(["to-baseline", "to-fnew", "far"]),
    "--size": st.integers(-1, 30).map(str),
    "--white-box": st.sampled_from(["ols", "lasso", "ridge"]),
    "--lambda": st.sampled_from(["0.05", "0", "-1", "nan", "inf", "x"]),
    "--method": st.sampled_from(["exact", "sample"]),
    "--permutations": st.integers(-1, 5).map(str),
    "--seed": st.integers(-3, 3).map(str),
    "--scorer-timeout": st.sampled_from(["30", "0", "-1", "nan", "x"]),
    **{flag: st.sampled_from(["out", "missing/out"]) for flag in OUTPUTS},
}

CSV_BYTES = st.one_of(
    st.just(SMALL_CSV),
    st.binary(max_size=64),
    st.tuples(st.integers(0, len(SMALL_CSV)), st.binary(min_size=1, max_size=6)).map(
        lambda t: SMALL_CSV[: t[0]] + t[1] + SMALL_CSV[t[0] :]
    ),
)


def _drawn_flags(subcommand):
    """Flag lists for `subcommand`. Each flag is drawn three times as often
    from the flags `subcommand` takes (per `cli.FLAGS`) as from all, and a flag
    read only under a condition mostly follows the flag and value that meet
    it, so most runs get past parsing and some give a flag the run would not
    read."""
    own = [flag for flag in FLAG_VALUES if subcommand in cli.FLAGS[flag][1]]

    def given(flag):
        needs = cli.FLAGS[flag][2]
        met = needs and subcommand in cli.FLAGS[needs[0]][1]
        before = st.sampled_from([[], [needs], [needs]]) if met else st.just([])
        return st.tuples(before, FLAG_VALUES[flag]).map(lambda t: [*t[0], (flag, t[1])])

    drawn = st.sampled_from([*own, *own, *own, *FLAG_VALUES]).flatmap(given)
    return st.lists(drawn, max_size=5).map(lambda groups: [p for g in groups for p in g])


COMMANDS = st.sampled_from(SUBCOMMANDS).flatmap(lambda s: st.tuples(st.just(s), _drawn_flags(s)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=CSV_BYTES, command=COMMANDS, scorer=st.sampled_from([None, *SCORERS]))
@example(data=b"a,y\n\xff,1\n2,3\n", command=("breakdown", []), scorer=None)
@example(
    data=SMALL_CSV,
    command=("live", [("--white-box", "lasso"), ("--lambda", "nan")]),
    scorer=None,
)
@example(
    data=SMALL_CSV,
    command=("shapley", [("--method", "sample"), ("--seed", "-1")]),
    scorer=None,
)
@example(data=SMALL_CSV, command=("live", [("--seed", "-1")]), scorer=None)
@example(
    data=b"y\n1\n2\n3\n", command=("breakdown", [("--model", "kernel-ridge")]), scorer=None
)
@example(data=SMALL_CSV, command=("trace", []), scorer="nan")
@example(
    data=SMALL_CSV,
    command=("live", [("--white-box", "lasso"), ("--size", "2"), ("--seed", "8")]),
    scorer=None,
)
def test_cli_exit_code_contract(data, command, scorer):
    """Whatever the CSV bytes, flags and scorer, `run` returns 0, 1 or 2,
    never raises, and on failure prints nothing on stdout and its own
    diagnostic on stderr (an external scorer's stderr follows it)."""
    subcommand, flags = command
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [subcommand, "--data", path, "--response", "y"]
        if not any(flag == "--observation" for flag, _ in flags):
            argv += ["--row", "2"]
        if scorer is not None:
            argv += ["--model", "external"]
        for flag, value in flags:
            argv += [flag, os.path.join(tmp, value) if flag in OUTPUTS else value]
        if scorer is not None:
            argv += ["--", *SCORERS[scorer]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "usage error: "))


# argv after "<subcommand> --data small.csv --response y", and the exit code
LIVE = ["live", "--row", "2", "--size", "30"]
LASSO = [*LIVE, "--white-box", "lasso"]
BRANCHES = {
    "kernel-ridge": (["breakdown", "--row", "2", "--model", "kernel-ridge"], 0),
    "live-forest": ([*LIVE, "--svg", "f.svg", "--text", "f.txt"], 0),
    "lasso-svg": ([*LASSO, "--svg", "f"], 1),
    "lasso-text": ([*LASSO, "--text", "f"], 1),
    "nothing-after-dashes": (["breakdown", "--row", "2", "--model", "external", "--"], 1),
    "one-permutation": (["shapley", "--row", "2", "--method", "sample", "--permutations", "1"], 1),
    "bad-observation": (["breakdown", "--observation", "1,x"], 1),
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_cli_branch(tmp_path, monkeypatch, capsys, name):
    (tmp_path / "small.csv").write_bytes(SMALL_CSV)
    monkeypatch.chdir(tmp_path)
    (subcommand, *flags), code = BRANCHES[name]
    assert run([subcommand, "--data", "small.csv", "--response", "y", *flags]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "f").exists()
    elif name == "kernel-ridge":
        assert json.loads(out)["config"]["model"] == "kernel-ridge" and err == ""
    else:
        assert out == err == ""
        assert (tmp_path / "f.svg").read_text().startswith("<svg")
        assert (tmp_path / "f.txt").read_text()


def test_a_column_near_the_float_limit_is_named(tmp_path, capsys):
    # the black-box OLS fit must not blame '(intercept)' for `a`'s magnitude
    ds, data = overflowing_table(), tmp_path / "big.csv"
    rows = zip(*(c.values.tolist() for c in ds.columns))
    data.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{y!r}\n" for a, b, y in rows))
    argv = ["live", "--data", str(data), "--response", "y", "--row", "1", "--model", "ols"]
    assert run([*argv, "--white-box", "lasso", "--size", "40"]) == 2
    assert capsys.readouterr() == ("", "error: the spread of 'a' overflows; rescale it\n")


@pytest.mark.parametrize(
    "subcommand, renderer", [("trace", "render_trace"), ("breakdown", "render_waterfall")]
)
def test_the_plot_is_rendered_only_for_svg_or_text(tmp_path, monkeypatch, subcommand, renderer):
    (tmp_path / "small.csv").write_bytes(SMALL_CSV)
    monkeypatch.chdir(tmp_path)
    render, docs = getattr(cli, renderer), []
    monkeypatch.setattr(cli, renderer, lambda result: docs.append(render(result)) or docs[-1])
    argv = [subcommand, "--data", "small.csv", "--response", "y", "--row", "2"]
    assert run([*argv, "--json", "out.json"]) == 0
    assert docs == []
    assert run([*argv, "--svg", "out.svg", "--text", "out.txt"]) == 0
    assert len(docs) == 1
    assert (tmp_path / "out.svg").read_text() == docs[0].svg_text
    assert (tmp_path / "out.txt").read_text() == docs[0].text_fallback


def test_surrogate_standard_errors_that_overflow_end_in_one_error_line(tmp_path, capsys):
    # a feature of scale 1e-200: the surrogate's standard errors overflow, which
    # more rows would not mend, so the line gives no "increase size" advice
    data = tmp_path / "tiny.csv"
    data.write_text("a,y\n" + "".join(f"{k * 1e-200!r},{k % 3}\n" for k in range(1, 9)))
    argv = ["live", "--data", str(data), "--response", "y", "--row", "1", "--size", "40"]
    assert run([*argv, "--model", "kernel-ridge"]) == 2
    expected = "error: least-squares standard errors overflow; rescale the data\n"
    assert capsys.readouterr() == ("", expected)


# relaxed means, fits and local predictions near the float limit overflow
OVERFLOW_CSV = b"a,b,y\n1,2,1e308\n2,1,-1e308\n3,5,1e308\n4,4,1\n5,3,6\n6,6,2\n"
OVERFLOW_RUNS = [
    ["breakdown", "--direction", "up"],
    ["breakdown", "--direction", "down"],
    ["shapley", "--method", "exact"],
    ["shapley", "--method", "sample"],
    ["trace"],
    ["live"],
    ["live", "--white-box", "lasso"],
]


def test_scores_near_the_float_limit_end_in_one_error_line(tmp_path, capsys):
    # tier-1 makes warnings errors, so a numpy warning would raise out of `run`
    data = tmp_path / "big.csv"
    data.write_bytes(OVERFLOW_CSV)
    for model in ("ols", "kernel-ridge"):
        for subcommand, *flags in OVERFLOW_RUNS:
            argv = [subcommand, "--data", str(data), "--response", "y", "--row", "2"]
            assert run([*argv, "--model", model, *flags]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "overflow" in err


# tables of a scratch fuzz whose runs raised or printed numpy warnings
FUZZED_OVERFLOW_CSVS = [
    b"a,b,y\n7,5,3\n6,9,4\n2,1e+200,1e+308\n2,6,4\n",
    b"a,b,y\n2,9,1.7e+308\n3,9,-1e+300\n8,0,1e+300\n",
    b"a,b,y\n9,1e+154,-1e+308\n9,1e-300,-1.7e+308\n8,1,3\n",
    b"a,b,y\n9,4,3\n2,8,1e+300\n1,3,0\n",
]


@pytest.mark.parametrize("data", FUZZED_OVERFLOW_CSVS)
def test_overflowing_tables_keep_the_exit_code_contract(tmp_path, capsys, data):
    (tmp_path / "t.csv").write_bytes(data)
    for model in ("ols", "kernel-ridge"):
        for subcommand, *flags in OVERFLOW_RUNS:
            argv = [subcommand, "--data", str(tmp_path / "t.csv"), "--response", "y", "--row", "1"]
            code = run([*argv, "--model", model, *flags])
            out, err = capsys.readouterr()
            assert code in (0, 2)
            if code:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            else:
                assert err == ""


# A derandomized fuzz of the exit-code contract: small tables with awkward
# cells, crossed with every subcommand and scorer kind, run in process.
FUZZ_TABLES = {
    "extreme": OVERFLOW_CSV,
    "huge-feature": b"a,b,y\n1e300,1,2\n-1e300,2,3\n5e299,3,1\n-1e300,4,5\n1e300,0,4\n",
    "tiny": b"a,b,y\n1e-300,5e-324,1e-300\n2e-300,0,-1e-300\n3e-300,5e-324,2e-300\n4e-300,0,0\n",
    "constant": b"a,b,y\n1,2,3\n1,2,3\n1,2,3\n1,2,3\n1,2,3\n",
    "constant-feature": b"a,b,y\n1,2,3\n1,5,4\n1,1,9\n1,0,2\n1,3,6\n",
    "duplicate": b"a,b,y\n1,2,3\n1,2,3\n2,1,4\n2,1,4\n3,3,9\n3,3,9\n",
    "two-rows": b"a,b,y\n1,2,3\n2,1,4\n",
    "ragged": b"a,b,y\n1,2,3\n2,1\n3,3,9\n",
    "quoted": b'a,b,y\n"1",lo,3\n2,"x,y",4\n3,"q""z",9\n0,lo,1\n2,"x,y",6\n',
    "non-utf8": b"a,b,y\n1,\xff,3\n2,1,4\n3,3,9\n",
    "non-finite": b"a,b,y\n1,nan,3\n2,inf,4\n3,-inf,9\n0,1,1\n2,2,6\n",
    "signed-zero": b"a;b;y\n\n-0.0;0;0\n0.0;-0;-0.0\n1;2;3\n  \n2;1;-0.0\n3;3;9\n",
    # 8 features over 12 rows: exact Shapley scores 256 pinned sets
    "wide": b",".join(b"x%d" % j for j in range(8)) + b",y\n" + b"".join(
        b",".join(b"%d" % ((i * i * (j + 2) + 3 * j + i) % 13) for j in range(9)) + b"\n"
        for i in range(12)
    ),
}
# the external scorer spawns a process per payload, so it runs on these only
FUZZ_EXTERNAL = ("extreme", "tiny", "duplicate")
FUZZ_RUNS = [
    ["breakdown", "--direction", "up"],
    ["breakdown", "--direction", "down", "--baseline", "intercept", "--svg", "f.svg"],
    ["shapley", "--method", "exact", "--text", "f.txt"],
    ["shapley", "--method", "sample", "--permutations", "4"],
    ["live", "--size", "20"],
    ["live", "--size", "20", "--white-box", "lasso", "--json", "f.json", "--text", "f.txt"],
    ["trace", "--direction", "up"],
    ["trace", "--direction", "down", "--svg", "f.svg", "--text", "f.txt"],
]
FUZZ_SCORER = [sys.executable, "-I", "-S", *fixture_command("linear_scorer.py", "1", "2", "-1")[1:]]


@pytest.mark.parametrize("table", sorted(FUZZ_TABLES))
def test_fuzzed_tables_keep_the_exit_code_contract(tmp_path, monkeypatch, table):
    (tmp_path / "t.csv").write_bytes(FUZZ_TABLES[table])
    monkeypatch.chdir(tmp_path)
    models = [["--model", "ols"], ["--model", "kernel-ridge"]]
    if table in FUZZ_EXTERNAL:
        models.append(["--model", "external", "--", *FUZZ_SCORER])
    for model in models:
        for subcommand, *flags in FUZZ_RUNS:
            argv = [subcommand, "--data", "t.csv", "--response", "y", "--row", "2", *flags]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run([*argv, *model])  # an exception out of `run` fails the test
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2), argv
            if code:
                assert out == "" and err.count("\n") == 1, (argv, model, err)
                assert err.startswith("usage error: " if code == 1 else "error: "), err
            else:
                assert err == "", (argv, model, err)
