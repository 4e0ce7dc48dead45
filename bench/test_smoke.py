"""Smoke tests of the benchmark itself (not of explainkit).

Run from the root of a checkout: python3 -m pytest bench/test_smoke.py -q
They take about a minute: every workload runs a few requests, and two short
runs of run.py check what it prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_DIR = BENCH_DIR / ".work" / "smoke"


@pytest.fixture
def workdir(request):
    path = SMOKE_DIR / request.node.name.replace("[", "-").replace("]", "")
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _state(name: str, workdir: Path, seed: int = 3):
    w = workloads.WORKLOADS[name]
    table = workloads.write_table(w.table, seed, workdir / "table.csv")
    reference = w.prepare(table, workdir)
    state = w.setup(table, workdir)
    state.reference_model = reference
    return w, state


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_a_couple_of_requests(name, workdir):
    w, state = _state(name, workdir)
    plan = workloads.request_plan(3, state.dataset.n_rows)
    for _ in range(2):
        row, request_seed = next(plan)
        out = w.request(state, row, request_seed)
        assert w.check(state, row, request_seed, out) == []


def _corrupted(out: dict) -> dict:
    out = dict(out)
    if "up" in out:
        a = out["up"]
        last = a.entries[-1]
        shifted = replace(last, contribution=last.contribution + 0.5)
        out["up"] = replace(a, entries=(*a.entries[:-1], shifted))
    else:
        out["lasso"] = replace(out["lasso"], lambda_=out["lasso"].lambda_ * 2.0)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_result_fails_its_check(name, workdir):
    w, state = _state(name, workdir)
    row, request_seed = next(workloads.request_plan(5, state.dataset.n_rows))
    out = w.request(state, row, request_seed)
    assert w.check(state, row, request_seed, _corrupted(out)) != []


def test_corrupted_requests_count_as_failed(workdir, monkeypatch):
    w, state = _state("lasso-surrogate", workdir)
    honest = w.request
    monkeypatch.setattr(w, "request", lambda *args: _corrupted(honest(*args)))
    tally = bench_run.Tally()
    plan = workloads.request_plan(7, state.dataset.n_rows)
    times, passed, _, _ = bench_run.closed_loop(w, state, plan, 0.0, tally)
    assert passed == 0
    assert tally.attempted == len(times) == bench_run.MIN_REQUESTS
    assert tally.failed == tally.attempted


def test_lasso_reference_cases_pass(workdir):
    for case in workloads.WORKLOADS["lasso-surrogate"].reference_cases():
        assert workloads.check_reference(case, workdir) == []


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lasso-surrogate", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = _printed_metrics(proc.stdout)
    for name, unit in want.items():
        assert printed[name] == (result["metrics"][name]["value"], unit)
    assert printed["failed_ratio"] == (0.0, "ratio")


def test_refuses_to_run_without_the_program():
    bare = SMOKE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    try:
        proc = _run(0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
