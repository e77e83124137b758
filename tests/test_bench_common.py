"""Tests for the benchmark harness's shared helpers."""

import json
import os
import platform

from benchmarks import common
from benchmarks.common import ALL_APPS, bench_config, record
from repro.config import Design


def test_all_apps_are_the_papers_eight():
    assert ALL_APPS == ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr",
                        "wcc"]


def test_bench_config_unit_override():
    cfg = bench_config(Design.B, units=256)
    assert cfg.topology.total_units == 256
    assert cfg.design is Design.B


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
