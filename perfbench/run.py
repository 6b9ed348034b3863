"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload gallery-16p-meet --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
a fixed amount of work untraced and traced and reports the per-layer
metrics (see ``perfbench/README.md``).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run is
appended to ``perfbench/history/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

_PROCESS_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HISTORY = BENCH_DIR / "history" / "runs.jsonl"
WORK_DIR = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="build the workload's inputs in this fresh process and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def _workers() -> int:
    return min(2, os.cpu_count() or 1)


def _work_dir(args: argparse.Namespace) -> Path:
    return WORK_DIR / f"{args.workload}-{os.getpid()}"


def _setup_seconds(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Wall of ``SETUP_PROBES`` fresh processes that only set up, unscaled
    and in reference seconds."""
    from reference import Speedometer  # noqa: PLC0415

    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-probe",
    ]
    walls, scaled = [], []
    speed = Speedometer()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
        scaled.append(walls[-1] * speed.factor())
    return walls, scaled


def _git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", ".", ":!perfbench/history"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "dirty": None}
    return {"git_sha": sha, "dirty": bool(status.strip())}


def _metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def _print_layers(workload: str, layers) -> None:
    print(f"layers of {workload}, ranked by self time (share of the traced wall):")
    for layer, seconds, share in layers:
        print(f"  {layer:<22} {seconds * 1e3:10.1f} ms  {share * 100:5.1f}%")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: PLC0415 - after sys.path points at the checkout

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = _work_dir(args)
    if args.setup_probe:
        workloads.setup(args.workload, args.seed, work_dir, _workers())
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown: it is not set-up time

    units = _metric_units(args.trace)
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())["per_layer"]
    missing = sorted(set(_metric_units(1)) - set(predictions))
    if missing:
        print(f"error: no prediction recorded for {missing}", file=sys.stderr)
        return 2

    setup_walls, setup_scaled = _setup_seconds(args)
    print(f"setup: {SETUP_PROBES} fresh processes, unscaled median {median(setup_walls):.3f} s")
    inputs = workloads.setup(args.workload, args.seed, work_dir, _workers())
    try:
        if args.workload == workloads.CAMPAIGN:
            outcome = (
                workloads.trace_campaign(inputs)
                if args.trace
                else workloads.measure_campaign(inputs, args.seconds)
            )
        else:
            outcome = (
                workloads.trace_calls(inputs)
                if args.trace
                else workloads.measure_calls(inputs, args.seconds)
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run's directory is still there
            pass

    metrics = dict(outcome.metrics)
    if not args.trace:
        metrics["setup_s"] = median(setup_scaled)
    elif outcome.metrics:
        # A traced run reports every per-layer metric; layers that do no
        # work on this workload read 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}

    for note in outcome.notes:
        print(note)
    print(f"digest {args.workload} seed={args.seed} trace={args.trace}: {outcome.digest}")
    print(
        f"fail_frac {outcome.failed}/{outcome.attempted} = "
        f"{outcome.failed / max(outcome.attempted, 1):g}"
    )
    if args.trace and outcome.layers:
        _print_layers(args.workload, outcome.layers)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps(outcome.spans, indent=1) + "\n")
        print(f"span tree written to {span_file.relative_to(ROOT)}")
    for name in units:
        if name in metrics:
            print(f"  {name:<52} {metrics[name]:.6g} {units[name]}")

    absent = [name for name in units if name not in metrics]
    if absent:
        print(f"error: metrics not measured: {absent}", file=sys.stderr)
        return 1
    _append_history(args, metrics, outcome)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _append_history(args: argparse.Namespace, metrics: dict, outcome) -> None:
    """Append this run to the history; earlier records are never rewritten."""
    record = {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **_git_state(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "trace_overhead_ratio": metrics.get("trace.overhead_ratio"),
        "metrics": metrics,
        "process_s": time.perf_counter() - _PROCESS_START,
    }
    HISTORY.parent.mkdir(exist_ok=True)
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
