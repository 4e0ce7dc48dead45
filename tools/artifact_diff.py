"""Diff the `explain` artifacts of the working tree against a git revision.

Run from anywhere inside the repository:

    python tools/artifact_diff.py REF

REF is any git revision (commit, branch or tag). Its `src/` is exported
with `git archive` into a temporary directory, so the working tree is left
alone. One fixed matrix of `explain` runs then goes through both source
trees with identical inputs:

  * breakdown up, down (intercept baseline) and up to-fnew;
  * exact and sampled Shapley;
  * live with the OLS and the lasso white box;
  * trace up and down;

with `--model ols` on the wine fixture (row 5), and `--model kernel-ridge`
and `--model external` (tests/fixtures/linear_scorer.py) on a seeded
200-row, 3-feature sample of it (row 3). A fourth setup runs `--model ols`
on that sample plus a categorical feature, `pH` cut into the labels
low/mid/high at fixed points (row 3), so label handling is covered too.
Kernel ridge and the linear scorer accept only numeric features, so their
setups stay numeric. A fifth setup runs `--model kernel-ridge` on the whole
wine fixture (row 5), for breakdown down and trace up and down only (about
2 s each; exact Shapley there takes about 35 s). Kernel ridge pads each
batch to a multiple of 4 rows, so at either size a row gets the same bits
whatever batch it is scored in (unpadded, most batch sizes gave other last
bits at both); this setup scores kernel blocks of 20 rows, where the
200-row one has blocks of 160. The `kernel-ridge` and `external` setups
add two library-level runs each, so later calls meet what earlier ones
left in the relaxed-value slot of `explainkit.relax` (one CLI run per
process meets it only in `trace`). In one, a process makes Up, Down, the
trace along Down's path and sampled Shapley in turn. In the other, it
makes Up, then the Down trace along the fixed order `OFF_PATH_ORDER`,
which is Down's path in neither setup, so the trace reads score arrays
the Up walk scored off its own path. A sixth setup, `external-flushing`,
runs the same scorer as `python -u`, so it writes every score with its own
write, for breakdown up and trace up only. That makes 45 runs.

Every difference is reported: exit code, JSON envelope (temporary paths
normalised), SVG, text, stdout and stderr. The differing JSON leaves of a
run are grouped by path with list indices removed (for example
`$.result.entries[].contribution`); each group is listed with its count
and, for numeric leaves, the largest absolute and relative difference, so
a change at roundoff can say by how much and where. Exits 0 when every run
agrees and 1 otherwise. Two trees compared on one host agree bit for bit; results
from different hosts may differ in the last bits with BLAS threading.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WINE = ROOT / "tests" / "data" / "winequality_red.csv"
SCORER = ROOT / "tests" / "fixtures" / "linear_scorer.py"

RESPONSE = "quality"
SUBSET_SEED = 7
SUBSET_ROWS = 200
SUBSET_FEATURES = ("volatile_acidity", "sulphates", "alcohol")
# the categorical feature of the labelled sample: (source column, cut points, labels)
LABEL_SOURCE, LABEL_CUTS, LABELS = "pH", (3.25, 3.38), ("low", "mid", "high")
LABEL_NAME = "pH_band"
# intercept, then one coefficient per subset feature
SCORER_COEFFICIENTS = ("2.5", "-1.2", "0.9", "0.3")

# (case, explain arguments); data, response, row, model and outputs are added per setup
EXPLANATIONS = (
    ("breakdown-up", ["breakdown", "--direction", "up"]),
    ("breakdown-down", ["breakdown", "--direction", "down", "--baseline", "intercept"]),
    ("breakdown-to-fnew", ["breakdown", "--up-distance", "to-fnew"]),
    ("shapley-exact", ["shapley", "--method", "exact"]),
    ("shapley-sampled", ["shapley", "--method", "sample", "--permutations", "200",
                         "--seed", "3"]),
    ("live-ols", ["live", "--size", "300", "--seed", "5"]),
    ("live-lasso", ["live", "--white-box", "lasso", "--size", "300", "--seed", "5"]),
    ("trace-up", ["trace", "--direction", "up"]),
    ("trace-down", ["trace", "--direction", "down"]),
)
# a lasso surrogate has no standard errors, hence no forest plot or text table
JSON_ONLY = {"live-lasso"}
# the cases of the full-table kernel-ridge setup; the others take far longer there
KRR_WINE_CASES = ("breakdown-down", "trace-up", "trace-down")
# the cases of the setup whose scorer flushes every line
FLUSHING_CASES = ("breakdown-up", "trace-up")

ARTIFACTS = ("exit", "json", "svg", "text", "stdout", "stderr")

# the library-level runs: the setups that have them, and each one's script,
# which takes the JSON output path and then `explain trace` arguments
LIBRARY_SETUPS = ("kernel-ridge", "external")
# a Down release order of the three subset features that neither setup's Down takes
OFF_PATH_ORDER = [2, 1, 0]
LIBRARY_START = """\
import json, sys
import numpy as np
from explainkit import ag_break, load_csv, relaxation_trace, shapley_sampled
from explainkit.cli import _build_predictor, _resolve_observation, parse_args

out, *argv = sys.argv[1:]
config = parse_args(argv)
dataset = load_csv(config.data, response_name=config.response)
x = _resolve_observation(config, dataset)
predictor = _build_predictor(config, dataset)
up = ag_break(predictor, dataset, x, direction="up")
"""
LIBRARY_END = """\
with open(out, "w", encoding="utf-8") as fh:
    json.dump({k: v.to_json_dict() for k, v in results.items()}, fh, sort_keys=True, indent=2)
"""
LIBRARY_RUNS = {
    "library-sequence": LIBRARY_START + """\
down = ag_break(predictor, dataset, x, direction="down", baseline_mode="intercept")
index_of = {name: j for j, name in enumerate(dataset.feature_names)}
order = [index_of[e.feature] for e in down.feature_entries()][::-1]
trace = relaxation_trace(predictor, dataset, x, order, "down")
sampled = shapley_sampled(predictor, dataset, x, 200, np.random.Generator(np.random.PCG64(3)))
results = {"up": up, "down": down, "trace": trace, "shapley-sampled": sampled}
""" + LIBRARY_END,
    "library-off-path": LIBRARY_START + f"""\
trace = relaxation_trace(predictor, dataset, x, {OFF_PATH_ORDER!r}, "down")
results = {{"up": up, "trace": trace}}
""" + LIBRARY_END,
}


def _git(*args: str) -> bytes:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"artifact_diff: git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def export_src(ref: str, dest: Path) -> str:
    """Extract REF's src/ into dest; returns the resolved commit id."""
    commit = _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    archive = _git("archive", "--format=tar", commit, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    if not (dest / "src" / "explainkit").is_dir():
        sys.exit(f"artifact_diff: {ref} has no src/explainkit")
    return commit


def write_inputs(work: Path) -> tuple[Path, Path, Path, Path]:
    """Copy the wine fixture and the scorer into `work`, and write the seeded
    small table (SUBSET_ROWS wine rows, SUBSET_FEATURES and the response) with
    and without the categorical LABEL_NAME feature."""
    wine, subset, labelled, scorer = (
        work / "wine.csv", work / "subset.csv", work / "labelled.csv", work / "scorer.py"
    )
    wine.write_bytes(WINE.read_bytes())
    scorer.write_bytes(SCORER.read_bytes())
    with open(WINE, newline="") as fh:
        header, *rows = list(csv.reader(fh, delimiter=";"))
    keep = [header.index(name) for name in SUBSET_FEATURES]
    source, response = header.index(LABEL_SOURCE), header.index(RESPONSE)
    rng = np.random.default_rng(SUBSET_SEED)
    picked = np.sort(rng.choice(len(rows), size=SUBSET_ROWS, replace=False))
    with open(subset, "w", newline="") as plain_fh, open(labelled, "w", newline="") as fh:
        plain = csv.writer(plain_fh, lineterminator="\n")
        with_label = csv.writer(fh, lineterminator="\n")
        plain.writerow([*SUBSET_FEATURES, RESPONSE])
        with_label.writerow([*SUBSET_FEATURES, LABEL_NAME, RESPONSE])
        for i in picked:
            cells = [rows[i][k] for k in keep]
            label = LABELS[int(np.searchsorted(LABEL_CUTS, float(rows[i][source]), "right"))]
            plain.writerow([*cells, rows[i][response]])
            with_label.writerow([*cells, label, rows[i][response]])
    return wine, subset, labelled, scorer


def matrix(work: Path) -> list[tuple[str, list[str], list[str]]]:
    """(run name, explain arguments, external command) for every run."""
    wine, subset, labelled, scorer = write_inputs(work)
    command = ["--", sys.executable, str(scorer), *SCORER_COEFFICIENTS]
    flushing = ["--", sys.executable, "-u", str(scorer), *SCORER_COEFFICIENTS]
    every = tuple(case for case, _ in EXPLANATIONS)
    setups = (
        ("ols", "ols", wine, 5, [], every),
        ("kernel-ridge", "kernel-ridge", subset, 3, [], every),
        ("external", "external", subset, 3, command, every),
        ("ols-labelled", "ols", labelled, 3, [], every),
        ("kernel-ridge-wine", "kernel-ridge", wine, 5, [], KRR_WINE_CASES),
        ("external-flushing", "external", subset, 3, flushing, FLUSHING_CASES),
    )
    runs = []
    for setup, model, data, row, tail, cases in setups:
        common = ["--data", str(data), "--response", RESPONSE, "--row", str(row)]
        for case, args in EXPLANATIONS:
            if case in cases:
                runs.append((f"{setup}/{case}", [*args, *common, "--model", model], tail))
        if setup in LIBRARY_SETUPS:
            for case in LIBRARY_RUNS:
                runs.append((f"{setup}/{case}", ["trace", *common, "--model", model], tail))
    return runs


def run_all(tree: Path, out_root: Path, work: Path, runs) -> dict[str, dict[str, str | None]]:
    """Run the matrix under one source tree; artifacts come back with the
    temporary paths replaced by tags, so the two trees compare directly."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, args, tail in runs:
        out = out_root / name
        out.mkdir(parents=True)
        case = name.split("/")[1]
        files = {"json": out / "result.json"}
        if case in LIBRARY_RUNS:
            command = ["-c", LIBRARY_RUNS[case], str(files["json"]), *args]
        else:
            if case not in JSON_ONLY:
                files.update(svg=out / "figure.svg", text=out / "figure.txt")
            outputs = [arg for kind, path in files.items() for arg in (f"--{kind}", str(path))]
            command = ["-m", "explainkit.cli", *args, *outputs]
        proc = subprocess.run(
            [sys.executable, *command, *tail], cwd=work, env=env, capture_output=True, text=True
        )
        texts = {"exit": str(proc.returncode), "stdout": proc.stdout, "stderr": proc.stderr}
        for kind in ("json", "svg", "text"):
            path = files.get(kind)
            exists = path is not None and path.exists()
            texts[kind] = path.read_text(encoding="utf-8") if exists else None
        tags = ((out, "<out>"), (tree, "<tree>"), (work, "<work>"))
        results[name] = {kind: _normalise(text, tags) for kind, text in texts.items()}
    return results


def _normalise(text: str | None, tags) -> str | None:
    """Replace each temporary path by its tag (innermost paths come first)."""
    if text is not None:
        for path, tag in tags:
            text = text.replace(str(path), tag)
    return text


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_diffs(a, b, path: str = "$") -> list[tuple[str, str, float | None, float | None]]:
    """Every differing leaf: (path, description, abs difference, rel difference)."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                found.append((f"{path}.{key}", "only in REF", None, None))
            elif key not in a:
                found.append((f"{path}.{key}", "only in the working tree", None, None))
            else:
                found += json_diffs(a[key], b[key], f"{path}.{key}")
        return found
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(path, f"length {len(a)} != {len(b)}", None, None)]
        return [
            d for i, (x, y) in enumerate(zip(a, b)) for d in json_diffs(x, y, f"{path}[{i}]")
        ]
    if _is_number(a) and _is_number(b):
        if a == b:
            return []
        delta = abs(a - b)
        return [(path, f"{a!r} != {b!r}", delta, delta / max(abs(a), abs(b)))]
    if type(a) is type(b) and a == b:
        return []
    return [(path, f"{a!r} != {b!r}", None, None)]


def leaf_groups(leaves) -> list[str]:
    """One line per group of differing leaves that share a path once list
    indices are removed: the count, then the largest absolute and relative
    difference of its numeric leaves and the first of its other leaves."""
    groups: dict[str, list] = {}
    for leaf_path, what, delta, rel in leaves:
        groups.setdefault(re.sub(r"\[\d+\]", "[]", leaf_path), []).append((what, delta, rel))
    lines = []
    for path, found in groups.items():
        numeric = [(delta, rel) for _, delta, rel in found if delta is not None]
        other = [what for what, delta, _ in found if delta is None]
        line = f"    {path}: {len(found)} differ"
        if numeric:
            line += (f", max abs {max(d for d, _ in numeric):.3g},"
                     f" max rel {max(r for _, r in numeric):.3g}")
        if other:
            line += f", e.g. {other[0]}"
        lines.append(line)
    return lines


def first_line_diff(a: str | None, b: str | None) -> str:
    if a is None or b is None:
        return "missing in " + ("REF" if a is None else "the working tree")
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {i}: {x[:80]!r} != {y[:80]!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def compare(ref: dict, tree: dict) -> tuple[dict[str, int], float, float]:
    """Print every difference; returns counts per artifact and the largest
    absolute and relative numeric JSON differences."""
    counts = dict.fromkeys(ARTIFACTS, 0)
    worst_abs = worst_rel = 0.0
    for name in ref:
        for kind in ARTIFACTS:
            a, b = ref[name][kind], tree[name][kind]
            if a == b:
                continue
            counts[kind] += 1
            if kind == "json" and a is not None and b is not None:
                leaves = json_diffs(json.loads(a), json.loads(b))
                numeric = [d for d in leaves if d[2] is not None]
                detail = f"{len(leaves)} leaves differ" if leaves else "only bytes differ"
                if numeric:
                    run_abs = max(d[2] for d in numeric)
                    run_rel = max(d[3] for d in numeric)
                    worst_abs, worst_rel = max(worst_abs, run_abs), max(worst_rel, run_rel)
                    detail += (f", {len(numeric)} numeric: max abs {run_abs:.3g},"
                               f" max rel {run_rel:.3g}")
                print(f"DIFF {name} json: {detail}")
                for line in leaf_groups(leaves):
                    print(line)
            else:
                print(f"DIFF {name} {kind}: {first_line_diff(a, b)}")
    return counts, worst_abs, worst_rel


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        work = Path(tmp)
        ref_tree = work / "ref"
        commit = export_src(args.ref, ref_tree)
        runs = matrix(work)
        ref = run_all(ref_tree, work / "out-ref", work, runs)
        tree = run_all(ROOT, work / "out-tree", work, runs)
        counts, worst_abs, worst_rel = compare(ref, tree)
    total = sum(counts.values())
    per_kind = ", ".join(f"{kind} {counts[kind]}" for kind in ARTIFACTS)
    failed = sum(result["exit"] != "0" for result in ref.values())
    print(f"artifact_diff: {len(runs)} runs ({failed} exit non-zero under REF), "
          f"{args.ref} ({commit[:12]}) against the working tree: {total} differences "
          f"({per_kind}); largest numeric JSON difference abs {worst_abs:.3g}, "
          f"rel {worst_rel:.3g}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
