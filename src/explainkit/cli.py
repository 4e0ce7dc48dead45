"""Command-line entry point: `explain <subcommand> [flags] [-- external cmd]`.

Subcommands tie the pipeline together: load data, build or wrap a scorer,
run an explanation method, and write JSON / SVG / text artifacts. Runs are
reproducible: the seed is always materialized (default 42) and the full
configuration is echoed into every JSON output.

Exit codes: 0 success, 1 usage error, 2 data or model error. Diagnostics
go to standard error.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="explain", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--data", required=True, help="CSV file to explain against")
        p.add_argument("--response", required=True, help="response column name")
        p.add_argument("--row", type=int, help="1-indexed row to explain")
        p.add_argument("--observation", help="inline feature values, comma separated")
        p.add_argument(
            "--model", choices=["ols", "kernel-ridge", "external"], default="ols"
        )
        p.add_argument("--scorer-timeout", type=float, dest="scorer_timeout", metavar="SECONDS")
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--ridge", type=float, default=0.1)
        p.add_argument("--direction", choices=["up", "down"], default="up")
        p.add_argument("--baseline", choices=["zero", "intercept"], default="zero")
        p.add_argument(
            "--up-distance",
            choices=["to-baseline", "to-fnew"],
            default="to-baseline",
            dest="up_distance",
        )
        p.add_argument("--size", type=int, default=500)
        p.add_argument("--white-box", choices=["ols", "lasso"], default="ols", dest="white_box")
        p.add_argument("--lambda", type=float, default=None, dest="lambda_")
        p.add_argument("--method", choices=["exact", "sample"], default="exact")
        p.add_argument("--permutations", type=int, default=1000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--json", dest="json_path")
        p.add_argument("--svg", dest="svg_path")
        p.add_argument("--text", dest="text_path")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed flags, plus `external_command`: the words after `--`, or None."""
    argv = list(argv)
    external_command: tuple[str, ...] | None = None
    if "--" in argv:
        split = argv.index("--")
        external_command = tuple(argv[split + 1 :])
        argv = argv[:split]
        if not external_command:
            raise UsageError("nothing follows '--'")
    ns = _build_parser().parse_args(argv)

    if ns.model == "external" and not external_command:
        raise UsageError("--model external requires '-- <command ...>'")
    if ns.model != "external" and external_command:
        raise UsageError("'-- <command>' is only valid with --model external")
    if ns.scorer_timeout is not None and not 0 < ns.scorer_timeout < math.inf:
        raise UsageError("--scorer-timeout must be a positive number of seconds")
    if (ns.row is None) == (ns.observation is None):
        raise UsageError("exactly one of --row or --observation is required")
    if not 0 <= ns.size <= MAX_SIZE:
        raise UsageError(f"--size must be between 0 and {MAX_SIZE}")
    if ns.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not all(math.isfinite(v) for v in (ns.gamma, ns.ridge, ns.lambda_ or 0.0)):
        raise UsageError("--gamma, --ridge and --lambda must be finite")
    sampled = ns.subcommand == "shapley" and ns.method == "sample"
    if sampled and not 2 <= ns.permutations <= MAX_PERMUTATIONS:
        raise UsageError(f"--permutations must be between 2 and {MAX_PERMUTATIONS}")

    ns.external_command = external_command
    return ns


def _echo(config: argparse.Namespace) -> dict:
    """The configuration as echoed into the JSON envelope."""
    out = vars(config).copy()
    out["lambda"] = out.pop("lambda_")
    # how long a spawn may run bounds the run, not what it computes
    del out["scorer_timeout"]
    command = config.external_command
    out["external_command"] = list(command) if command else None
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
    schema = dataset.schema()
    if config.row is not None:
        if not (1 <= config.row <= dataset.n_rows):
            raise UsageError(
                f"--row {config.row} out of range 1..{dataset.n_rows} (rows are 1-indexed)"
            )
        return dataset.observation(config.row - 1)
    cells = config.observation.split(",")
    try:
        return schema.validate_observation(cells)
    except ExplainError as exc:
        raise UsageError(f"bad --observation: {exc}") from exc


def _build_predictor(config: argparse.Namespace, dataset):
    if config.model == "ols":
        return fit_ols(dataset, dataset.response_index)
    if config.model == "kernel-ridge":
        return fit_kernel_ridge(dataset, dataset.response_index, config.gamma, config.ridge)
    return external_scorer(list(config.external_command), dataset.schema(), config.scorer_timeout)


def _feature_order_from_entries(attribution, schema) -> list[int]:
    index_of = {name: j for j, name in enumerate(schema.names)}
    return [index_of[e.feature] for e in attribution.feature_entries()]


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
    order = _feature_order_from_entries(attribution, dataset.schema())
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
        envelope = {
            "version": __version__,
            "seed": config.seed,
            "config": _echo(config),
            "result": result,
        }
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
