"""Tests for the benchmark harness's shared helpers."""

import json
import os
import platform

import pytest

from benchmarks import common
from benchmarks.common import (
    ALL_APPS,
    bench_config,
    format_table,
    geomean,
    record,
    speedups_vs,
)
from repro.analysis.metrics import RunMetrics
from repro.config import Design


def metrics(makespan):
    return RunMetrics(
        design="X", app="a", makespan=makespan, avg_unit_time=1.0,
        max_unit_time=makespan, wait_fraction=0.0, total_busy_cycles=1,
        tasks_executed=1, task_messages=0, data_messages=0,
    )


def test_all_apps_are_the_papers_eight():
    assert ALL_APPS == ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr",
                        "wcc"]


def test_bench_config_unit_override():
    cfg = bench_config(Design.B, units=256)
    assert cfg.topology.total_units == 256
    assert cfg.design is Design.B


def test_geomean():
    assert geomean([4.0, 1.0]) == pytest.approx(2.0)


def test_geomean_rejects_empty_sequence():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean(x for x in ())


def test_speedups_vs_baseline():
    results = {
        "tree": {"C": metrics(300), "O": metrics(100)},
    }
    s = speedups_vs(results, "C")
    assert s["tree"]["O"] == pytest.approx(3.0)
    assert s["tree"]["C"] == pytest.approx(1.0)


def test_format_table_shape():
    out = format_table("t", ["a", "b"], [[1, 2.5]])
    lines = [l for l in out.splitlines() if l]
    assert lines[0] == "=== t ==="
    assert lines[1].split() == ["a", "b"]
    assert "2.50" in lines[-1]


def test_record_merges_keys_and_stamps_the_machine(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "REPO_ROOT", tmp_path)
    (tmp_path / "BENCH_x.json").write_text("{torn")  # starts fresh
    record("BENCH_x.json", "a", {"wall_s": 1.5})
    record("BENCH_x.json", "b", {"wall_s": 2.0})
    data = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert sorted(data) == ["a", "b"]
    assert data["a"] == {
        "wall_s": 1.5,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
    }
