"""Machine-readable benchmark result emission.

Each perf benchmark records its measurements into a ``BENCH_<suite>.json``
file (one JSON object per suite, keyed by test name) so the performance
trajectory is tracked across PRs instead of living only in pytest stdout.
CI uploads the files as workflow artifacts; ``benchmarks/baselines/`` holds
the recorded reference numbers the regression gates compare against.

Next to the latest-value files, every record is appended as one JSON line
to ``history.jsonl`` -- time, git commit and dirty flag, Python version,
platform, CPU count, suite, test name and payload -- so a new run never
overwrites the trajectory of the previous ones.

The output directory defaults to ``bench-results/`` at the repository root
(git-ignored, so a test run never rewrites tracked files) and can be
redirected with ``REPRO_BENCH_RESULTS_DIR``; both files follow it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Optional

__all__ = ["record_bench_result", "load_baseline"]


REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default output directory: ``<repo>/bench-results``.
DEFAULT_RESULTS_DIR = REPO_ROOT / "bench-results"


def _results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    return Path(override) if override else DEFAULT_RESULTS_DIR


def _git_state() -> tuple[Optional[str], Optional[bool]]:
    """``(commit sha, tracked files modified)``, or ``(None, None)`` outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def _nproc() -> Optional[int]:
    """CPUs this process may run on, as ``nproc`` prints them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def record_bench_result(suite: str, test_name: str, **payload: Any) -> Path:
    """Merge one test's measurements into ``BENCH_<suite>.json``.

    The file holds ``{test_name: {...payload, "recorded_at": epoch}}``;
    re-running a test overwrites its own entry and leaves the others alone,
    so a partial benchmark run still produces a coherent artifact.  The
    record is also appended to ``history.jsonl`` in the same directory.
    """
    recorded_at = time.time()
    sha, dirty = _git_state()
    entry = {
        "recorded_at": recorded_at,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": _nproc(),
        "suite": suite,
        "test": test_name,
        "payload": payload,
    }
    history = _results_dir() / "history.jsonl"
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")

    path = _results_dir() / f"BENCH_{suite}.json"
    try:
        existing = json.loads(path.read_text())
        if not isinstance(existing, dict):
            existing = {}
    except (FileNotFoundError, json.JSONDecodeError):
        existing = {}
    existing[test_name] = {**payload, "recorded_at": recorded_at}
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
