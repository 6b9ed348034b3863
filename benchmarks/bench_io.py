"""Machine-readable benchmark result emission.

Each perf benchmark records its measurements into a ``BENCH_<suite>.json``
file (one JSON object per suite, keyed by test name) so the performance
trajectory is tracked across PRs instead of living only in pytest stdout.
CI uploads the files as workflow artifacts; ``benchmarks/baselines/`` holds
the recorded reference numbers the regression gates compare against.

The output directory defaults to ``bench-results/`` at the repository root
(git-ignored, so a test run never rewrites tracked files) and can be
redirected with ``REPRO_BENCH_RESULTS_DIR``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

__all__ = ["record_bench_result", "load_baseline"]


#: Default output directory: ``<repo>/bench-results``.
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench-results"


def _results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    return Path(override) if override else DEFAULT_RESULTS_DIR


def record_bench_result(suite: str, test_name: str, **payload: Any) -> Path:
    """Merge one test's measurements into ``BENCH_<suite>.json``.

    The file holds ``{test_name: {...payload, "recorded_at": epoch}}``;
    re-running a test overwrites its own entry and leaves the others alone,
    so a partial benchmark run still produces a coherent artifact.
    """
    path = _results_dir() / f"BENCH_{suite}.json"
    try:
        existing = json.loads(path.read_text())
        if not isinstance(existing, dict):
            existing = {}
    except (FileNotFoundError, json.JSONDecodeError):
        existing = {}
    existing[test_name] = {**payload, "recorded_at": time.time()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(suite: str) -> dict[str, Any]:
    """Load the committed reference numbers for a suite (empty if none)."""
    path = Path(__file__).resolve().parent / "baselines" / f"BENCH_{suite}_baseline.json"
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}
