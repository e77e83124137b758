"""Shared fixtures for the NDPBridge test suite."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session", autouse=True)
def session_result_cache(tmp_path_factory):
    """Cache results in a per-session directory, not the checkout's
    ``.ndpbridge-cache/``, unless ``NDPBRIDGE_CACHE_DIR`` names one."""
    if "NDPBRIDGE_CACHE_DIR" in os.environ:
        yield
        return
    os.environ["NDPBRIDGE_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("ndpbridge-cache")
    )
    yield
    del os.environ["NDPBRIDGE_CACHE_DIR"]


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


def attr_names(obj):
    """Instance attribute names: ``__dict__`` keys plus filled slots."""
    names = dict.fromkeys(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                names[slot] = None
    return list(names)


def _is_model_object(obj) -> bool:
    if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
        return False
    return type(obj).__module__.startswith("repro.")


def component_registry(root, root_id="system"):
    """Every ``repro.*`` object reachable from ``root``, by attribute path.

    Depth-first over instance attributes in sorted order, into lists and
    tuples by index and dicts by sorted key, so the result is a pure
    function of the object graph (``system.units[3].sketch``).  Each
    object is listed once, under the first path that reaches it.
    """
    registry = {}
    seen = set()

    def visit(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        registry[path] = obj
        for name in sorted(attr_names(obj)):
            value = getattr(obj, name)
            if _is_model_object(value):
                visit(value, f"{path}.{name}")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if _is_model_object(item):
                        visit(item, f"{path}.{name}[{i}]")
            elif isinstance(value, dict):
                for key in sorted(value, key=repr):
                    if _is_model_object(value[key]):
                        visit(value[key], f"{path}.{name}[{key!r}]")

    visit(root, root_id)
    return registry


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
