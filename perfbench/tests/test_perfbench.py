"""Tests of the benchmark's own code.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
The per-layer checks on the real workloads run each one once, traced
and untraced, so the file takes about a minute.
"""

import importlib
import json
import resource
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.harness import Workload
from perfbench.run import BOUNDED, END_TO_END
from perfbench.summary import NAME_RE, tail_percentile
from perfbench.tracer import MODEL_ENTRY_POINTS, Tracer

from repro.apps.linked_list import LinkedListApp
from repro.config import Design, scaled_config
from repro.runtime.requests import OpenLoopApp, run_openloop
from repro.runtime.runner import run_app
from repro.apps import make_app
from repro.sim.engine import Simulator

ROOT = Path(__file__).resolve().parents[2]
TINY_LL = Workload("tiny-ll", "closed", "ll", "O", 0.05, "test")
TINY_TREE = Workload("tiny-tree", "open", "tree", "O", 0.1, "test")
TINY_SWEEP = Workload("tiny-sweep", "sweep", "", "", 0.02, "test")


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


@pytest.fixture
def short_stream(monkeypatch):
    monkeypatch.setattr(harness, "N_HOT", 300)
    monkeypatch.setattr(harness, "N_BURST", 150)
    monkeypatch.setattr(harness, "SKEW_SHIFT_AT", 30_000)


# -- names and percentiles ----------------------------------------------
def test_metric_names_match_pattern():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(harness.PER_LAYER) + list(END_TO_END)
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(BOUNDED)
    assert set(BOUNDED) <= set(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_p99_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1000)), 990) == 989
    with pytest.raises(ValueError, match="need at least 10"):
        tail_percentile(list(range(999)), 990)


# -- failure counting ------------------------------------------------------
def test_failed_frac_counts_a_failed_verification(monkeypatch, workdir):
    monkeypatch.setattr(LinkedListApp, "verify", lambda self: False)
    res = harness.measure(TINY_LL, 17, 0.0, workdir)
    assert res["attempted"] == res["reps"] >= harness.MIN_REPS
    assert res["failed"] == res["attempted"]


def test_failed_frac_counts_a_stream_that_does_not_drain(
        monkeypatch, short_stream):
    original = OpenLoopApp._on_complete

    def drop_odd(self, req_id, now):  # half the requests never complete
        if req_id % 2 == 0:
            original(self, req_id, now)

    monkeypatch.setattr(OpenLoopApp, "_on_complete", drop_odd)
    rep = harness.simulate(TINY_TREE, 17)
    assert rep.attempted == 450
    assert rep.failed >= 225


def test_no_failures_on_a_clean_run(workdir):
    res = harness.measure(TINY_LL, 17, 0.0, workdir)
    assert res["failed"] == 0


# -- the harness runs what run_app and run_openloop run --------------------
def test_split_steps_match_run_app():
    rep = harness.simulate(TINY_LL, 17, keep=True)
    ref = run_app(make_app("ll", scale=0.05, seed=17),
                  scaled_config(harness.UNITS, Design.O, seed=17), shards=1)
    system = rep.state["system"]
    assert system.makespan == ref.system.makespan
    assert system.stats.as_dict() == ref.system.stats.as_dict()


def test_split_steps_match_run_openloop(short_stream):
    rep = harness.simulate(TINY_TREE, 17, keep=True)
    ref = run_openloop("tree", scaled_config(harness.UNITS, Design.O, seed=17),
                       harness.openloop_spec(), scale=0.1, seed=17, shards=1)
    assert rep.state["app"].recorder.samples == ref.app.recorder.samples
    assert rep.state["system"].makespan == ref.system.makespan


def test_seed_changes_inputs():
    a = harness.simulate(TINY_LL, 17)
    b = harness.simulate(TINY_LL, 18)
    assert a.digests == harness.simulate(TINY_LL, 17).digests
    assert a.digests != b.digests


# -- tracing oracle ----------------------------------------------------------
def _entry_points():
    return {
        (mod, cls, attr): vars(getattr(importlib.import_module(mod), cls))[attr]
        for mod, cls, attrs in MODEL_ENTRY_POINTS for attr in attrs
    }


def test_traced_run_is_bit_identical_and_leaves_nothing_behind(workdir):
    before = _entry_points()
    schedule = Simulator.schedule
    res = harness.trace(TINY_LL, 17, workdir)
    assert res["oracle_ok"] and res["failed"] == 0
    after = _entry_points()
    assert all(after[key] is value for key, value in before.items())
    assert Simulator.schedule is schedule


def test_self_times_cover_the_traced_repetition():
    tracer = Tracer()
    with tracer:
        rep = harness.simulate(TINY_LL, 17, tracer=tracer)
    assert harness.self_time_problems(tracer, rep.total_s) == []
    assert tracer.get("sim", "Simulator.run").calls == 1
    assert tracer.calls_where("ndp", "event ") > 0


def test_self_time_oracle_refuses_bad_spans():
    tracer = Tracer()
    with tracer:
        rep = harness.simulate(TINY_LL, 17, tracer=tracer)
    # a child charged to the wrong parent leaves that parent short
    parent = tracer.get("sim", "Simulator.run")
    parent.self_s = -1e-3
    problems = harness.self_time_problems(tracer, rep.total_s)
    assert any("Simulator.run" in p for p in problems)
    # spans that cover only part of the repetition
    partial = Tracer(targets=())
    with partial:
        rep = harness.simulate(TINY_LL, 17)
        partial.call("bench", "short", sum, range(10))
    assert any("sum to" in p
               for p in harness.self_time_problems(partial, rep.total_s))


def test_peak_memory_excludes_what_ran_before(workdir):
    ballast = b"\x01" * (128 << 20)  # an earlier, larger workload
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = harness.measure(TINY_LL, 17, 0.0, workdir)
    assert own_mb >= 128
    assert 0 < res["end_to_end"]["peak_rss_mb"]["median"] < own_mb - 64
    assert res["failed"] == 0
    del ballast


# -- per-layer outcomes on the real workloads -------------------------------
def test_balancer_is_off_on_closed_pr_B(workdir):
    res = harness.trace(harness.WORKLOADS["closed-pr-B"], 17, workdir)
    assert res["oracle_ok"]
    layer = res["per_layer"]
    assert layer["balance.plan_calls"] == 0
    assert layer["balance.blocks_lent"] == 0
    assert layer["bridge.l2_rounds"] > 0


def test_no_level2_rounds_on_closed_ll_O(workdir):
    res = harness.trace(harness.WORKLOADS["closed-ll-O"], 17, workdir)
    assert res["oracle_ok"]
    layer = res["per_layer"]
    assert layer["bridge.l2_rounds"] == 0
    assert layer["balance.blocks_lent"] > 0


def test_warm_pass_hits_every_cell(workdir):
    rep = harness.sweep(TINY_SWEEP, 17, workdir)
    assert rep.failed == 0
    assert rep.extra["exec.cells"] == 16
    assert rep.extra["exec.hit_ratio"] == 1.0
    assert not any(workdir.iterdir())  # the private cache is removed
