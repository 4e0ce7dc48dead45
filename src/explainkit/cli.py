"""Command-line entry point: `explain <subcommand> [flags] [-- external cmd]`.

Subcommands tie the pipeline together: load data, build or wrap a scorer,
run an explanation method, and write JSON / SVG / text artifacts. A flag the
run would not read is a usage error. Runs are reproducible: the JSON output
echoes every flag the run read, defaults filled in (the seed defaults to 42).

Exit codes: 0 success, 1 usage error, 2 data or model error; diagnostics go
to standard error.
"""

from __future__ import annotations

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .breakdown import ag_break
from .errors import ExplainError, UsageError
from .live import add_predictions, fit_explanation, sample_locally
from .predict import external_scorer, fit_kernel_ridge, fit_ols
from .relax import relaxation_trace
from .render import render_forest, render_trace, render_waterfall
from .shapley import shapley_exact, shapley_sampled
from .tabular import load_csv

SUBCOMMANDS = ("breakdown", "shapley", "live", "trace")
# Sampled Shapley holds about 0.6 KB per permutation and a lasso `live` about
# 0.53 KB per local row on wine (p = 11), so either bound is about 0.6 GB there.
MAX_PERMUTATIONS = MAX_SIZE = 1_000_000

# Every flag once: its argparse keywords, the subcommands that take it, and the
# (flag, value) under which a run reads it (None: always; a condition on a flag
# the subcommand does not take holds, so `live` always reads --seed).
FLAGS = {
    "--data": (dict(required=True, help="CSV file to explain against"), SUBCOMMANDS, None),
    "--response": (dict(required=True, help="response column name"), SUBCOMMANDS, None),
    "--row": (dict(type=int, help="1-indexed row to explain"), SUBCOMMANDS, None),
    "--observation": (dict(help="inline feature values, comma separated"), SUBCOMMANDS, None),
    "--model": (dict(choices=["ols", "kernel-ridge", "external"], default="ols"),
                SUBCOMMANDS, None),
    "--scorer-timeout": (dict(type=float, metavar="SECONDS"), SUBCOMMANDS, ("--model", "external")),
    "--gamma": (dict(type=float, default=1.0), SUBCOMMANDS, ("--model", "kernel-ridge")),
    "--ridge": (dict(type=float, default=0.1), SUBCOMMANDS, ("--model", "kernel-ridge")),
    "--direction": (dict(choices=["up", "down"], default="up"), ("breakdown", "trace"), None),
    "--baseline": (dict(choices=["zero", "intercept"], default="zero"),
                   ("breakdown", "shapley"), None),
    "--up-distance": (dict(choices=["to-baseline", "to-fnew"], default="to-baseline"),
                      ("breakdown", "trace"), ("--direction", "up")),
    "--size": (dict(type=int, default=500), ("live",), None),
    "--white-box": (dict(choices=["ols", "lasso"], default="ols"), ("live",), None),
    "--lambda": (dict(type=float, dest="lambda_"), ("live",), ("--white-box", "lasso")),
    "--method": (dict(choices=["exact", "sample"], default="exact"), ("shapley",), None),
    "--permutations": (dict(type=int, default=1000), ("shapley",), ("--method", "sample")),
    "--seed": (dict(type=int, default=42), ("shapley", "live"), ("--method", "sample")),
    "--json": (dict(dest="json_path"), SUBCOMMANDS, None),
    "--svg": (dict(dest="svg_path"), SUBCOMMANDS, None),
    "--text": (dict(dest="text_path"), SUBCOMMANDS, None),
}
_DESTS = {flag: kw.get("dest", flag[2:].replace("-", "_")) for flag, (kw, _, _) in FLAGS.items()}
# what a given flag's value must be beyond its type
RULES = {
    "--scorer-timeout": (lambda t: 0 < t < math.inf, "a positive number of seconds"),
    "--size": (lambda n: 0 <= n <= MAX_SIZE, f"between 0 and {MAX_SIZE}"),
    "--permutations": (lambda n: 2 <= n <= MAX_PERMUTATIONS, f"between 2 and {MAX_PERMUTATIONS}"),
    "--seed": (lambda n: n >= 0, "nonnegative"),
    **dict.fromkeys(("--gamma", "--ridge", "--lambda"), (math.isfinite, "finite")),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _reads(config: argparse.Namespace, flag: str) -> bool:
    """Whether a run of `config`, which holds its subcommand's flags, reads `flag`."""
    _, takes, needs = FLAGS[flag]
    return config.subcommand in takes and (
        needs is None or getattr(config, _DESTS[needs[0]], needs[1]) == needs[1]
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="explain", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, (keywords, takes, _) in FLAGS.items():
            if name in takes:  # None marks a flag not given; parse_args fills defaults
                p.add_argument(flag, **{**keywords, "default": None})
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The subcommand's flags, defaults filled in, plus `external_command`:
    the words after `--`, or None. A flag given where the run would not read
    it is a usage error."""
    argv, external_command = list(argv), None
    if "--" in argv:
        split = argv.index("--")
        argv, external_command = argv[:split], tuple(argv[split + 1 :])
        if not external_command:
            raise UsageError("nothing follows '--'")
    ns = _build_parser().parse_args(argv)
    given = [flag for flag in FLAGS if getattr(ns, _DESTS[flag], None) is not None]
    for flag, (keywords, takes, _) in FLAGS.items():
        if ns.subcommand in takes and flag not in given:
            setattr(ns, _DESTS[flag], keywords.get("default"))
    for flag in given:
        if not _reads(ns, flag):
            raise UsageError("{} is read only with {} {}".format(flag, *FLAGS[flag][2]))
        if flag in RULES and not RULES[flag][0](getattr(ns, _DESTS[flag])):
            raise UsageError(f"{flag} must be {RULES[flag][1]}")

    if ns.model == "external" and not external_command:
        raise UsageError("--model external requires '-- <command ...>'")
    if ns.model != "external" and external_command:
        raise UsageError("'-- <command>' is only valid with --model external")
    if (ns.row is None) == (ns.observation is None):
        raise UsageError("exactly one of --row or --observation is required")

    ns.external_command = external_command
    return ns


def _echo(config: argparse.Namespace) -> dict:
    """The flags the run read, as echoed into the JSON envelope, but for the
    timeout: how long a spawn may run bounds the run, not what it computes."""
    out = {_DESTS[f].rstrip("_"): getattr(config, _DESTS[f]) for f in FLAGS if _reads(config, f)}
    out.pop("scorer_timeout", None)
    command = config.external_command
    out.update(subcommand=config.subcommand, external_command=list(command) if command else None)
    return out


def _canonical_json(payload) -> str:
    """Sorted keys, shortest-round-trip numbers, two-space indent, no
    trailing newline. Identical inputs produce identical text.

    Text and errors are those of `json.dumps(payload, sort_keys=True,
    indent=2, allow_nan=False)`, which with an indent runs `json`'s
    pure-Python encoder; this writer joins each all-float list at once.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_scalar(value) -> str | None:
    """JSON text of a str, None, bool, int or float, as `json` writes it;
    None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return None


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of `value` to `out`; `newline` is a line break
    and the indent of the line `value` starts on."""
    text = _json_scalar(value)
    inner = newline + "  "
    if text is not None:
        out.append(text)
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        for k, (key, item) in enumerate(sorted(value.items())):
            name = key if isinstance(key, str) else _json_scalar(key)
            if name is None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
            out.append(("," if k else "{") + inner + encode_basestring_ascii(name) + ": ")
            _write_json(item, inner, out)
        out.append(newline + "}")
    else:
        try:
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, value)))
        except TypeError:  # not all floats
            for k, item in enumerate(value):
                out.append(("," if k else "[") + inner)
                _write_json(item, inner, out)
        else:
            if "n" in out[-1]:  # of float reprs, only "nan", "inf" and "-inf" hold an "n"
                for item in value:
                    _json_scalar(item)  # raises on the first non-finite value
        out.append(newline + "]")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def export_json(result, path: str) -> None:
    """Write canonical JSON, newline-terminated."""
    payload = result.to_json_dict() if hasattr(result, "to_json_dict") else result
    _write_text(path, _canonical_json(payload) + "\n")


def _surrogate_json(fit, white_box: str) -> dict:
    model = fit.model
    n = len(model.coefficients)
    std_errors = [None] * n if model.std_errors is None else model.std_errors.tolist()
    return {
        "white_box": white_box,
        "lambda": fit.lambda_,
        "r2": fit.r2,
        "selected_features": list(fit.selected_features),
        "intercept": model.intercept,
        "intercept_std_error": model.intercept_std_error,
        "coefficients": [
            {
                "feature": name,
                "estimate": float(est),
                "std_error": se,
            }
            for name, est, se in zip(model.encoder.encoded_names, model.coefficients, std_errors)
        ],
    }


def _resolve_observation(config: argparse.Namespace, dataset) -> tuple:
    if config.row is not None:
        if not (1 <= config.row <= dataset.n_rows):
            raise UsageError(
                f"--row {config.row} out of range 1..{dataset.n_rows} (rows are 1-indexed)"
            )
        return dataset.observation(config.row - 1)
    cells = config.observation.split(",")
    try:
        return dataset.schema().validate_observation(cells)
    except ExplainError as exc:
        raise UsageError(f"bad --observation: {exc}") from exc


def _build_predictor(config: argparse.Namespace, dataset):
    if config.model == "ols":
        return fit_ols(dataset, dataset.response_index)
    if config.model == "kernel-ridge":
        return fit_kernel_ridge(dataset, dataset.response_index, config.gamma, config.ridge)
    return external_scorer(list(config.external_command), dataset.schema(), config.scorer_timeout)


def _execute(config: argparse.Namespace):
    """Returns (result payload dict, plot): `plot` renders the run's one
    PlotDocument when called, or is None for a lasso `live`, whose
    surrogate has no standard errors to plot."""
    dataset = load_csv(config.data, response_name=config.response)
    x_new = _resolve_observation(config, dataset)
    predictor = _build_predictor(config, dataset)

    if config.subcommand == "breakdown":
        attribution = ag_break(
            predictor,
            dataset,
            x_new,
            direction=config.direction,
            baseline_mode=config.baseline,
            up_distance=config.up_distance,
        )
        return attribution.to_json_dict(), lambda: render_waterfall(attribution)

    if config.subcommand == "shapley":
        if config.method == "exact":
            estimate = shapley_exact(
                predictor, dataset, x_new, baseline_mode=config.baseline
            )
        else:
            rng = np.random.Generator(np.random.PCG64(config.seed))
            estimate = shapley_sampled(
                predictor,
                dataset,
                x_new,
                n_permutations=config.permutations,
                rng=rng,
                baseline_mode=config.baseline,
            )
        return estimate.to_json_dict(), lambda: render_waterfall(estimate.attribution)

    if config.subcommand == "live":
        local = sample_locally(
            dataset, x_new, config.response, size=config.size, seed=config.seed
        )
        local = add_predictions(local, predictor)
        fit = fit_explanation(local, white_box=config.white_box, lambda_=config.lambda_)
        plot = (lambda: render_forest(fit)) if fit.model.std_errors is not None else None
        return _surrogate_json(fit, config.white_box), plot

    # trace: walk the greedy order of the matching ag-break direction
    attribution = ag_break(
        predictor,
        dataset,
        x_new,
        direction=config.direction,
        baseline_mode="intercept",
        up_distance=config.up_distance,
    )
    order = [dataset.feature_names.index(e.feature) for e in attribution.feature_entries()]
    if config.direction == "down":
        order = list(reversed(order))  # release least important first
    trace = relaxation_trace(predictor, dataset, x_new, order, config.direction)
    return trace.to_json_dict(), lambda: render_trace(trace)


def _write_outputs(config: argparse.Namespace, envelope: dict, plot) -> None:
    """Write the requested artifacts, rendering the plot once if `--svg` or
    `--text` asks for it, or print the envelope when none is asked for."""
    if config.json_path:
        export_json(envelope, config.json_path)
    if config.svg_path or config.text_path:
        if plot is None:
            kind = "SVG" if config.svg_path else "text"
            raise UsageError(f"no {kind} output defined for this configuration")
        doc = plot()
        if config.svg_path:
            _write_text(config.svg_path, doc.svg_text)
        if config.text_path:
            _write_text(config.text_path, doc.text_fallback)
    if not (config.json_path or config.svg_path or config.text_path):
        print(_canonical_json(envelope))


def run(argv: list[str]) -> int:
    try:
        config = parse_args(argv)
        result, plot = _execute(config)
        envelope = {"version": __version__, "config": _echo(config), "result": result}
        _write_outputs(config, envelope, plot)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ExplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reading and spawning raise ExplainError, so a write failed
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
