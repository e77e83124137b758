"""Runtime sanitizer tests for the event engine.

Two halves: (1) negative tests proving each sanitizer check actually
fires on the corruption it guards against, and (2) equivalence tests
proving sanitized runs are bit-identical to plain runs -- the sanitizer
observes, it must never perturb.
"""

import heapq
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.runtime.runner import run_app
from repro.sim import SimulationError, Simulator, sanitize_from_env

REPO_ROOT = Path(__file__).resolve().parent.parent


def noop():
    pass


# ----------------------------------------------------------------------
# mode selection
# ----------------------------------------------------------------------
def test_env_flag_parsing(monkeypatch):
    for value, expected in [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False), ("no", False),
    ]:
        monkeypatch.setenv("NDPBRIDGE_SANITIZE", value)
        assert sanitize_from_env() is expected
    monkeypatch.delenv("NDPBRIDGE_SANITIZE")
    assert sanitize_from_env() is False


def test_env_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    assert Simulator().sanitize is True
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "0")
    assert Simulator().sanitize is False
    # Explicit argument beats the environment.
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    assert Simulator(sanitize=False).sanitize is False


# ----------------------------------------------------------------------
# negative tests: every check must fire
# ----------------------------------------------------------------------
def test_float_delay_rejected():
    sim = Simulator(sanitize=True)
    with pytest.raises(SimulationError, match="must be an int"):
        sim.schedule(1.5, noop)
    # The plain engine silently truncates (historical behaviour).
    plain = Simulator(sanitize=False)
    plain.schedule(1.5, noop)
    assert plain.run() == 1


def test_float_absolute_time_rejected():
    sim = Simulator(sanitize=True)
    with pytest.raises(SimulationError, match="must be an int"):
        sim.schedule_at(10.0, noop)


def test_non_callable_callback_rejected():
    sim = Simulator(sanitize=True)
    with pytest.raises(SimulationError, match="not callable"):
        sim.schedule(1, "not a function")


def test_schedule_into_past_still_raises():
    sim = Simulator(sanitize=True)
    with pytest.raises(ValueError, match="past"):
        sim.schedule(-1, noop)
    sim.schedule(10, noop)
    sim.run()
    with pytest.raises(ValueError, match="current time"):
        sim.schedule_at(5, noop)


def test_time_running_backwards_detected():
    sim = Simulator(sanitize=True)
    sim.schedule(10, noop)
    sim.run()
    assert sim.now == 10
    # Corrupt the heap behind the API's back: an entry in the past.
    heapq.heappush(sim._queue, (5, sim._seq, noop))
    sim._seq += 1
    sim._scheduled_total += 1
    with pytest.raises(SimulationError, match="order violated|backwards"):
        sim.run()


def test_seq_collision_detected():
    sim = Simulator(sanitize=True)
    # Two heap entries sharing (time, seq): strict (time, seq) dispatch
    # ordering must refuse the duplicate.
    heapq.heappush(sim._queue, (3, 0, noop))
    heapq.heappush(sim._queue, (3, 0, noop))
    sim._scheduled_total += 2
    with pytest.raises(SimulationError, match="order violated"):
        sim.run()


def test_event_conservation_violation_detected():
    sim = Simulator(sanitize=True)
    sim.schedule(1, noop)
    sim.schedule(2, noop)
    sim._queue.pop()  # lose an event without accounting for it
    with pytest.raises(SimulationError, match="conservation"):
        sim.audit()


def test_audit_runs_automatically_at_run_exit():
    sim = Simulator(sanitize=True)
    sim.schedule(1, noop)
    sim._queue.pop()
    with pytest.raises(SimulationError, match="conservation"):
        sim.run()


# ----------------------------------------------------------------------
# positive tests: clean runs pass every check
# ----------------------------------------------------------------------
def test_audit_clean_after_normal_run():
    sim = Simulator(sanitize=True)
    fired = []
    for i in range(20):
        sim.schedule(i, lambda i=i: fired.append(i))
    assert sim.run() == 19
    sim.audit()  # explicit re-audit must also pass
    assert fired == list(range(20))
    assert sim.scheduled_total == 20
    assert sim.events_processed == 20


def test_audit_clean_on_stopped_and_until_exits():
    sim = Simulator(sanitize=True)
    sim.schedule(1, noop)
    sim.schedule(100, noop)
    assert sim.run(until=10) == 10
    sim.schedule(0, sim.stop)
    sim.run()
    sim.audit()


def test_sanitized_step_checks_order():
    sim = Simulator(sanitize=True)
    sim.schedule(1, noop)
    sim.schedule(2, noop)
    assert sim.step() and sim.step()
    assert not sim.step()
    sim.audit()


# ----------------------------------------------------------------------
# equivalence: the sanitizer observes, never perturbs
# ----------------------------------------------------------------------
def _makespan(sanitize: bool) -> tuple:
    app = make_app("ht", scale=0.03, seed=7)
    config = tiny_config(Design.O)
    result = run_app(app, config)
    sim = result.system.sim
    assert sim.sanitize is sanitize
    return (result.metrics.makespan, result.metrics.tasks_executed,
            sim.events_processed)


def test_sanitized_run_bit_identical(monkeypatch):
    monkeypatch.delenv("NDPBRIDGE_SANITIZE", raising=False)
    plain = _makespan(sanitize=False)
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    sanitized = _makespan(sanitize=True)
    assert plain == sanitized


def test_tier1_determinism_suites_pass_under_sanitize():
    """Re-run the engine + exec determinism tests with the sanitizer on."""
    env = dict(os.environ)
    env["NDPBRIDGE_SANITIZE"] = "1"
    env["NDPBRIDGE_CACHE"] = "0"
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-x", "-q",
            "tests/test_sim_engine.py", "tests/test_exec.py",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
