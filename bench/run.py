"""explainkit benchmark: run one workload as a closed loop and report its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ols-attrib --seed 1 --seconds 20 --trace 0

One client in one process sends each request only after the previous one has
finished. The seed makes the input table and the rows explained. Every
request's output is checked; a request that raises or fails its check counts
as failed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, the machine facts and, with
``--trace 1``, the layer shares and the exact counts.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` alternates untraced and traced requests and reports the
per-layer metrics of the traced ones (medians over requests), plus the
tracing overhead. The workloads are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# Fresh set-ups are spread evenly through the timed loop, so their median
# samples the whole run rather than one moment of a shared machine's load.
FRESH_SETUPS = 15
# A tail percentile needs ten requests beyond it, so at least eleven requests.
MIN_REQUESTS = 11
MIN_TRACE_REQUESTS = 3  # of each kind, untraced and traced
# Stop a loop whose requests are far slower than sized for, so a run ends in time.
HARD_STOP_S = 120.0
TAIL_BEYOND = 10

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in env if k in os.environ} or "unset (default)",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measuring


def fresh_setup(workload: str, table: Path, workdir: Path) -> float:
    """Seconds from starting a new Python process to it being ready to explain."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(table),
               str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"fresh set-up of {workload} failed (exit {proc.returncode})")
    return ready - start


class Tally:
    """Attempted and failed requests; the first few problems are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems


def checked_request(workload, state, row, request_seed, tally, label, tracer=None):
    """Run one request and check it; returns (milliseconds, passed)."""
    if tracer is not None:
        root = tracer.begin_request(label)
    start = time.perf_counter_ns()
    try:
        out, error = workload.request(state, row, request_seed), None
    except Exception as exc:  # a failing request is counted, not fatal
        out, error = None, exc
    ms = (time.perf_counter_ns() - start) / 1e6
    if tracer is not None:
        tracer.end_request(root)
    if error is not None:
        problems = [f"{type(error).__name__}: {error}"]
    else:
        try:
            problems = workload.check(state, row, request_seed, out)
        except Exception as exc:  # output the check cannot read is a failed request
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return ms, tally.record(f"{label} (row {row}, request seed {request_seed})", problems)


def closed_loop(workload, state, plan, seconds, tally, tracer=None, fresh=None):
    """Requests back to back for `seconds`. Without a tracer returns
    (times_ms, passed, request_s, setups_s); with one, untraced and traced
    requests alternate and it returns (untraced_ms, traced_ms, traced_labels).

    `fresh`, if given, makes one fresh set-up and returns its seconds; it is
    called FRESH_SETUPS times, evenly spaced over the loop's `seconds` (the
    rest after the last request if the loop ends early). `request_s` is the
    loop's time without them."""
    times, traced, labels, setups = [], [], [], []
    passed = 0
    start = time.perf_counter()
    in_setups = 0.0
    minimum = MIN_REQUESTS if tracer is None else MIN_TRACE_REQUESTS
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if fresh is not None and len(setups) < FRESH_SETUPS and \
                elapsed >= seconds * len(setups) / FRESH_SETUPS:
            setups.append(fresh())
            in_setups += time.perf_counter() - start - elapsed
            continue
        enough = min((len(times), len(traced)) if tracer else (len(times),)) >= minimum
        if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
            break
        row, request_seed = next(plan)
        use_tracer = tracer is not None and i % 2 == 1
        label = f"request {i}"
        ms, ok = checked_request(workload, state, row, request_seed, tally, label,
                                 tracer if use_tracer else None)
        if use_tracer:
            traced.append(ms)
            labels.append(label)
        else:
            times.append(ms)
        passed += ok
        i += 1
    if tracer is not None:
        return times, traced, labels
    request_s = time.perf_counter() - start - in_setups
    while fresh is not None and len(setups) < FRESH_SETUPS:
        setups.append(fresh())
    return times, passed, request_s, setups


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten requests beyond it: (value, percentile)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# one run


def run(args, workdir: Path) -> tuple[dict, list[str]]:
    import spans
    import workloads

    if workloads.program_location() != (SRC / "explainkit").resolve():
        raise RuntimeError(f"explainkit imported from {workloads.program_location()}, not {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    lines = [f"# machine {json.dumps(machine_facts(args.seed), sort_keys=True)}"]
    table = workloads.write_table(workload.table, args.seed, workdir / "table.csv")
    reference = workload.prepare(table, workdir)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # Traced in-process set-ups give the set-up layer metrics.
    setup_labels = [f"setup {i}" for i in range(FRESH_SETUPS if tracer else 1)]
    for label in setup_labels:
        root = tracer.begin_request(label) if tracer is not None else None
        state = workload.setup(table, workdir)
        if tracer is not None:
            tracer.end_request(root)
    state.reference_model = reference

    tally = Tally()
    cases = workload.reference_cases()
    for case in cases:
        tally.record(f"reference {case['name']}", workloads.check_reference(case, workdir))
    plan = workloads.request_plan(args.seed, state.dataset.n_rows)
    row, request_seed = next(plan)
    checked_request(workload, state, row, request_seed, tally, "warm-up")

    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        times, passed, elapsed, setups = closed_loop(
            workload, state, plan, args.seconds, tally,
            fresh=lambda: fresh_setup(workload.name, table, workdir))
        tail_ms, tail_pct = tail(times)
        metrics["explain_p50_ms"] = (statistics.median(times), "ms")
        metrics["explain_tail_ms"] = (tail_ms, "ms")
        metrics["explain_per_s"] = (passed / elapsed, "1/s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        lines.append(f"# {workload.name} seed {args.seed}: {len(times)} timed requests in "
                     f"{elapsed:.2f} s, {len(cases)} reference cases and 1 warm-up untimed")
        lines.append(f"# explain_tail_ms is p{tail_pct:.1f} of {len(times)} requests")
        lines.append(f"# setup_s is the median of {len(setups)} fresh processes: "
                     + ", ".join(f"{s:.4f}" for s in setups))
    else:
        untraced, traced, labels = closed_loop(workload, state, plan, args.seconds, tally, tracer)
        tracer.uninstall()
        layer, left_out = spans.layer_metrics(tracer, setup_labels, labels)
        metrics.update(layer)
        p50_untraced, p50_traced = statistics.median(untraced), statistics.median(traced)
        metrics["tracing.overhead_pct"] = (100.0 * (p50_traced - p50_untraced) / p50_untraced, "%")
        lines.append(f"# {workload.name} seed {args.seed}: {len(untraced)} untraced and "
                     f"{len(traced)} traced requests; p50 {p50_untraced:.3f} ms untraced, "
                     f"{p50_traced:.3f} ms traced")
        for name in left_out:
            lines.append(f"missing {name}: a boundary it needs is not in the program "
                         f"({', '.join(tracer.missing)})")
        for layer_name, share in spans.layer_shares(tracer, labels).items():
            lines.append(f"share {layer_name} {share:.4f}")
        recorded = workloads.reference_counts().get(workload.name, {})
        for name, seen in spans.exact_counts(tracer, labels).items():
            if name not in recorded:
                continue
            if len(seen) > 1:
                tally.record(f"count {name}", [f"varies between requests: {seen}"])
            lines.append(f"count {name} {' '.join(map(str, seen))} "
                         f"(recorded at definition: {recorded[name]})")

    lines.append(f"metric failed_ratio {tally.failed / tally.attempted!r} ratio "
                 f"({tally.failed} of {tally.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value!r} {unit}")
    for problem in tally.problems:
        print(f"failed {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "explainkit" / "__init__.py").is_file():
        print(f"error: no explainkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not workloads.WINE.is_file():
        print(f"error: input fixture {workloads.WINE} not found", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, lines = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
