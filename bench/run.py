"""pairvis benchmark: three seeded workloads driven through the public entry points.

    python3 bench/run.py --workload scalar|grid|oracle|all --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it runs a fixed op list, each op untraced and traced, and reports per-layer
metrics and the tracing overhead.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before it
print the same metrics as a table.  Result files (with the environment) and
trace spans go to ``.bench_out/`` at the repository root.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Stream, scalar_pool, grid_pool, validate_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "points_per_s": "points/s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}
CHECKS = (
    "normalization_all_bases", "decomposition_residual", "radon_closed_vs_numeric", "moment_quadrature",
    "epsilon_within_bound", "no_communication_identity", "envelope_pin_points", "corrected_slice_identity",
)
PER_LAYER = {
    "state.psi.points": "count",
    "state.psi.s": "s",
    "density.density_at.points": "count",
    "density.density_at.s": "s",
    "density.density_at.points_per_s": "points/s",
    "density.quadrature_2d.calls": "count",
    "density.quadrature_2d.nodes": "count",
    "density.quadrature_2d.self_s": "s",
    "density.integrate_1d_batch.nodes": "count",
    "density.integrate_1d_batch.s": "s",
    "density.normalization_mass.s": "s",
    "density.Density2D.evaluate.cells": "count",
    "density.Density2D.evaluate.s": "s",
    "density.Density2D.to_csv_text.bytes": "count",
    "density.Density2D.to_csv_text.s": "s",
    "density.Density2D.to_json_text.bytes": "count",
    "density.Density2D.to_json_text.s": "s",
    "radon.radon_numeric.calls": "count",
    "radon.radon_numeric.s": "s",
    "radon.radon_numeric.self_s": "s",
    "visibility.visibility_report.calls": "count",
    "visibility.visibility_report.s": "s",
    "visibility.epsilon_and_bound.s": "s",
    "corrected.corrected_f.s": "s",
    "corrected.corrected_density.points": "count",
    "corrected.corrected_density.s": "s",
    "correlation.complementarity_sums.s": "s",
    "mpcore.workdps.calls": "count",
    "mpcore.workdps.dps_p50": "count",
    "mpcore.workdps.dps_max": "count",
    **{f"validation.{check}.s": "s" for check in CHECKS},
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.out.bytes": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "1",
}
SETUP_LAUNCHES = 15
TRACE_BLOCKS = {"scalar": 2, "grid": 1, "oracle": 1}
# the child imports the CLI and builds its parser, which every CLI call pays
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pairvis.cli; "
    "pairvis.cli.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class Tally:
    """Op outcomes of one run; only ops flagged ``timed`` enter the timing metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latencies = []
        self.points = 0
        self.cells = 0

    def add(self, op, result, timed: bool) -> None:
        self.attempted += 1
        if not result.ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.describe()}: {result.error}")
        if timed:
            self.latencies.append(result.latency)
            if result.ok:
                self.points += op.points
                self.cells += result.cells

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def launch_setup() -> float:
    """Seconds from launching a fresh interpreter until the CLI parser is built."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return seconds


def import_pairvis() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"pairvis.{name}")
               for name in ("cli", "state", "density", "radon", "correlation")}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"pairvis was imported from {origin}, not from {SRC}")
    return modules


def load_refs(workload: str) -> dict:
    """Stored references of ``workload``; refuses ones generated from another pool."""
    if workload == "oracle":
        return {}
    with open(BENCH_DIR / "refs" / f"{workload}.json", encoding="utf-8") as handle:
        refs = json.load(handle)
    pool = scalar_pool() if workload == "scalar" else grid_pool()
    current = {f"{slot}/{i}": entry for slot, entries in pool.items() for i, entry in enumerate(entries)}
    stored = {key: entry["input"] for key, entry in refs["entries"].items()}
    if stored != current:
        raise RuntimeError(f"refs/{workload}.json does not match the workload pool; run bench/make_refs.py")
    return refs["entries"]


def _openblas_threads():
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this repository
    return lines[1]


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "openblas_threads": _openblas_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def run_workload(runner, workload: str, seed: int, seconds: float) -> tuple[Tally, dict, list]:
    """Warm up, then run whole blocks until the ops have been busy for ``seconds``.

    Whole blocks keep the op mix of every run the same, whatever the seed, so
    the rates (totals over busy time) compare across seeds and commits.  The
    set-up launches run between ops, spread evenly over the busy time, so a
    slow stretch of the machine moves few of them; they are not timed as ops.
    """
    stream = Stream(workload, seed)
    tally = Tally()
    for op in stream.warmup():
        tally.add(op, runner.run(op), timed=False)
    setup = []
    blocks = 0
    while blocks == 0 or tally.busy < seconds:
        blocks += 1
        for op in stream.block(blocks):
            tally.add(op, runner.run(op), timed=True)
            if len(setup) < SETUP_LAUNCHES and tally.busy >= len(setup) * seconds / SETUP_LAUNCHES:
                setup.append(launch_setup())
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch_setup())
    if workload == "oracle":
        op = validate_op()
        tally.add(op, runner.run(op), timed=False)
    lat = tally.latencies
    busy = tally.busy
    metrics = {
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "points_per_s": tally.points / busy,
        "cells_per_s": tally.cells / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    return tally, metrics | {"op_latency_samples": len(lat), "blocks": blocks, "busy_s": busy}, setup


def run_traced(runner, workload: str, seed: int) -> tuple[Tally, dict, object]:
    """Run a fixed op list both untraced and traced; per-layer metrics and overhead.

    Each op runs twice in a row, alternating which pass goes first, so that
    both passes see the same machine state and the overhead is their
    difference.  The op list is fixed per seed, so every count repeats.
    """
    from tracer import Tracer

    stream = Stream(workload, seed)
    ops = [op for block in range(1, 1 + TRACE_BLOCKS[workload]) for op in stream.block(block)]
    if workload == "oracle":
        ops.append(validate_op())
    tally = Tally()
    for op in stream.warmup():
        tally.add(op, runner.run(op), timed=False)
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    out_bytes = 0
    for index, op in enumerate(ops):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                runner.tracer = tracer
            try:
                result = runner.run(op)
            finally:
                if traced:
                    runner.tracer = None
                    tracer.uninstall()
            tally.add(op, result, timed=False)
            seconds[traced] += result.latency
            out_bytes += result.out_bytes if traced else 0
    summary = tracer.summary()
    summary.update({"cli.out.bytes": out_bytes, "trace.untraced_s": seconds[False], "trace.traced_s": seconds[True],
                    "trace.overhead_frac": seconds[True] / seconds[False] - 1.0})
    return tally, summary, tracer


def print_result(workload: str, tally: Tally, metrics: dict, units: dict) -> None:
    failed_frac = tally.failed / tally.attempted
    for name, unit in units.items():
        print(f"{workload:<7} {name:<40} {metrics[name]:>16.6g} {unit}")
    print(f"{workload:<7} {'failed_ops_frac':<40} {failed_frac:>16.6g} 1  ({tally.failed}/{tally.attempted} ops)")
    if "op_latency_samples" in metrics:
        print(f"{workload:<7} {'op_latency_samples':<40} {metrics['op_latency_samples']:>16d} count")
    for error in tally.errors:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def run_all(args) -> int:
    """Run each workload in its own process; print each table and a combined last line."""
    combined = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="busy time to measure; whole blocks run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairvis" / "__init__.py").is_file():
        print(f"error: no pairvis sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from checks import Runner

    wall_start = time.perf_counter()
    modules = import_pairvis()
    refs = load_refs(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    setup = []
    try:
        runner = Runner(modules, refs, tmp_dir)
        if args.trace:
            tally, metrics, tracer = run_traced(runner, args.workload, args.seed)
            units = PER_LAYER
        else:
            tally, metrics, setup = run_workload(runner, args.workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    for name in units:
        metrics.setdefault(name, 0.0)  # a layer the workload never enters
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "metrics": metrics,
        "failed_ops_frac": tally.failed / tally.attempted, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, "setup_samples_s": setup, "wall_s": time.perf_counter() - wall_start,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        tracer.write_spans(f"{stem}-spans.jsonl")
    print_result(args.workload, tally, metrics, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
