"""Tests for result reporting helpers."""

import json

import pytest

from repro.analysis.metrics import RunMetrics
from repro.analysis.report import (
    energy_table,
    geomean,
    metrics_table,
    speedup_summary,
    speedups,
    text_table,
    to_json,
)
from repro.energy import EnergyBreakdown


def metrics(app="tree", design="O", makespan=100):
    return RunMetrics(
        design=design, app=app, makespan=makespan, avg_unit_time=40.0,
        max_unit_time=makespan, wait_fraction=0.25, total_busy_cycles=80,
        tasks_executed=10, task_messages=3, data_messages=1,
    )


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])


def test_geomean_rejects_empty_sequence():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean(x for x in ())


def test_speedups_relative_to_baseline():
    results = {"tree": {"C": metrics(makespan=300),
                        "O": metrics(makespan=100)}}
    s = speedups(results, "C")
    assert s["tree"]["O"] == pytest.approx(3.0)
    assert s["tree"]["C"] == pytest.approx(1.0)
    assert speedups(results, "O")["tree"]["C"] == pytest.approx(1 / 3)


def test_text_table_alignment():
    out = text_table(["a", "bb"], [[1, 2.5], [100, 3.25]], title="t")
    lines = out.splitlines()
    assert lines[0] == "=== t ==="
    assert "100" in lines[4]
    assert all(len(l) == len(lines[1]) for l in lines[2:])


def test_speedup_summary_geomean_row():
    results = {
        "tree": {"C": metrics(makespan=200), "O": metrics(makespan=100)},
        "bfs": {"C": metrics("bfs", makespan=400),
                "O": metrics("bfs", makespan=100)},
    }
    out = speedup_summary(results, "C", ["C", "O"])
    assert "geomean" in out
    # geomean of 2x and 4x = 2.83x
    assert "2.83" in out


def test_metrics_table_contains_fields():
    out = metrics_table([metrics()])
    assert "tree" in out and "wait" in out


def test_to_json_round_trips():
    results = {"tree": {"O": metrics()}}
    payload = json.loads(to_json(results))
    assert payload["tree"]["O"]["makespan"] == 100


def test_energy_table_skips_missing():
    m = metrics()
    out = energy_table({"x": m})
    assert "x" not in out  # no energy attached
    m.energy = EnergyBreakdown(1e6, 2e6, 3e6, 4e6)
    out = energy_table({"x": m})
    assert "x" in out and "10.00" in out
