"""The benchmark result writer keeps the latest values and an append-only history."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_io", Path(__file__).resolve().parent.parent / "benchmarks" / "bench_io.py"
)
bench_io = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_io)


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_history_appends_one_line_per_record(results_dir):
    bench_io.record_bench_result("demo", "test_a", wall_s=1.5)
    history = results_dir / "history.jsonl"
    first = history.read_bytes()
    bench_io.record_bench_result("demo", "test_a", wall_s=2.5)

    content = history.read_bytes()
    assert content.startswith(first)
    lines = content.decode().splitlines()
    assert len(lines) == 2
    entries = [json.loads(line) for line in lines]
    assert [entry["payload"] for entry in entries] == [{"wall_s": 1.5}, {"wall_s": 2.5}]
    for entry in entries:
        assert entry["suite"] == "demo" and entry["test"] == "test_a"
        assert set(entry) == {
            "recorded_at", "git_sha", "git_dirty", "python", "platform", "nproc",
            "suite", "test", "payload",
        }
        assert (entry["git_sha"] is None) == (entry["git_dirty"] is None)

    latest = json.loads((results_dir / "BENCH_demo.json").read_text())
    assert latest["test_a"]["wall_s"] == 2.5
    assert latest["test_a"]["recorded_at"] == entries[1]["recorded_at"]
