"""Shared fixtures for the NDPBridge test suite."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tiny_system_b():
    """A 16-unit design-B system with a trivial no-op task function."""
    system = NDPSystem(tiny_config(Design.B))
    system.registry.register("noop", lambda ctx, task: None)
    return system


@pytest.fixture
def tiny_system_o():
    """A 16-unit full-NDPBridge (design O) system."""
    system = NDPSystem(tiny_config(Design.O))
    system.registry.register("noop", lambda ctx, task: None)
    return system


def noop_task(addr: int, ts: int = 0, workload: int = 10) -> Task:
    return Task(func="noop", ts=ts, data_addr=addr, workload=workload,
                actual_cycles=workload)


@pytest.fixture
def analyze_cli():
    """Run the static-analysis gate, ``python -m repro.analyze ARGS``.

    The gate runs from the repository root in a clean environment, so
    relative paths such as ``src`` name the repository's own tree.
    """
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analyze", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
    return run
