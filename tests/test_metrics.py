"""Tests for run metrics collection (Fig. 2 / Fig. 10 reporting)."""

import pytest

from repro.analysis import RunMetrics, collect_metrics
from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.energy import EnergyBreakdown
from repro.runtime.runner import run_app
from repro.sim import StatsRegistry


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


#: The machine-wide totals metrics and energy collection sum: task
#: messages, data messages (lent plus returned), SRAM accesses, bank
#: words by master, and link bytes.
TOTALS = (
    ".tasks_forwarded", ".blocks_lent", ".blocks_returned",
    ".sram_accesses", ".local_words_64bit", ".comm_words_64bit", ".bytes",
)


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_metrics_equal_one_registry_pass_per_total(monkeypatch, design):
    """RunMetrics, energy included, are what one ``sum_counters`` pass
    per machine-wide total made of them."""
    result = run_app(make_app("tree", scale=0.05), tiny_config(design))
    got = collect_metrics(result.system, "tree")
    summed = []

    def one_pass_each(self, *suffixes):
        summed.extend(suffixes)
        return tuple(self.sum_counters(s) for s in suffixes)

    monkeypatch.setattr(StatsRegistry, "sum_suffixes", one_pass_each)
    assert got == collect_metrics(result.system, "tree")
    assert got == result.metrics
    if design is not Design.H:
        assert sorted(summed) == sorted(TOTALS)
        assert got.task_messages > 0
        assert got.energy.comm_dram_pj > 0
