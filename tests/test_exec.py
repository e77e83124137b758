"""Tests for the parallel + cached execution subsystem (repro.exec).

Determinism is the contract: a cell's metrics must be bit-identical
whether the simulation ran in-process, in a pool worker, or came back
from the on-disk cache.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.metrics import RunMetrics
from repro.config import ConfigError, Design, tiny_config
from repro.energy import EnergyBreakdown
from repro.exec import (
    CellRequest,
    ResultCache,
    cell_key,
    code_version,
    config_fingerprint,
    default_jobs,
    execute_cells,
    metrics_from_payload,
    metrics_to_payload,
    run_matrix,
)
from repro.exec import cache as cache_module

REPO_ROOT = Path(__file__).resolve().parent.parent

APP = "ht"
SCALE = 0.03
SEED = 3


def request(design=Design.B, seed=SEED, scale=SCALE):
    return CellRequest(
        app=APP, config=tiny_config(design), scale=scale, seed=seed
    )


def sample_metrics(with_energy=True):
    energy = EnergyBreakdown(
        core_sram_pj=1.5, local_dram_pj=2.25, comm_dram_pj=0.125,
        static_pj=10.0,
    ) if with_energy else None
    return RunMetrics(
        design="B", app="ht", makespan=12345, avg_unit_time=17.25,
        max_unit_time=12345, wait_fraction=0.333251953125,
        total_busy_cycles=99, tasks_executed=42, task_messages=7,
        data_messages=3, energy=energy, extra={"x": 1.75},
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_metrics_payload_round_trip_exact():
    for with_energy in (True, False):
        m = sample_metrics(with_energy)
        # Through actual JSON text, as the on-disk cache does.
        payload = json.loads(json.dumps(metrics_to_payload(m)))
        assert metrics_from_payload(payload) == m


def test_config_fingerprint_distinguishes_configs():
    base = tiny_config(Design.B)
    assert config_fingerprint(base) == config_fingerprint(tiny_config(Design.B))
    assert config_fingerprint(base) != config_fingerprint(tiny_config(Design.O))
    assert config_fingerprint(base) != config_fingerprint(
        base.replace(seed=base.seed + 1)
    )


def test_cell_key_sensitivity():
    base = request()
    assert base.key == request().key
    assert base.key != request(seed=SEED + 1).key
    assert base.key != request(scale=SCALE * 2).key
    assert base.key != request(design=Design.O).key
    assert base.key != cell_key(
        "ll", tiny_config(Design.B), SCALE, SEED
    )


def test_code_version_is_stable_within_process():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_code_version_hashes_what_a_run_imports(monkeypatch):
    """The cache key covers every ``repro`` module a run loads, and no
    analyzer file: editing the analyzer alone must keep cached cells."""
    probe = (
        "import sys\n"
        "import repro.exec\n"
        "from repro import Design, make_app, run_app\n"
        "from repro.config import scaled_config\n"
        "run_app(make_app('tree', scale=0.05, seed=1), "
        "scaled_config(128, Design.O))\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'repro':\n"
        "        print(module.__file__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=REPO_ROOT, capture_output=True,
        text=True, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                        "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = {Path(line).resolve() for line in proc.stdout.split()}

    hashed = []
    read_bytes = Path.read_bytes

    def spy(path):
        hashed.append(path.resolve())
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    monkeypatch.setattr(cache_module, "_code_version", None)
    code_version()
    package = Path(repro.__file__).resolve().parent
    assert package / "exec" / "cache.py" in loaded
    assert sorted(loaded - set(hashed)) == []
    analyzer = [
        p for p in hashed
        if p.relative_to(package).parts[0] in ("analyze", "lint")
    ]
    assert analyzer == []


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    m = sample_metrics()
    key = request().key
    assert cache.get(key) is None
    cache.put(key, m)
    assert cache.get(key) == m
    assert cache.hits == 1 and cache.misses == 1


def test_cache_corrupt_file_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = request().key
    cache.put(key, sample_metrics())
    path = cache._path(key)
    path.write_text("{not json")
    assert cache.get(key) is None


def sample_payload_text(drop=None, **override):
    metrics = {**metrics_to_payload(sample_metrics()), **override}
    metrics.pop(drop, None)
    return json.dumps({"format": 1, "metrics": metrics})


REQUIRED_FIELDS = [f for f in metrics_to_payload(sample_metrics())
                   if f not in ("energy", "extra")]


@pytest.mark.parametrize("text", [
    pytest.param("{}", id="empty-object"),
    pytest.param("null", id="null"),
    pytest.param("[]", id="empty-list"),
    pytest.param('"metrics"', id="string"),
    pytest.param('{"metrics": {}}', id="empty-metrics"),
    pytest.param('{"metrics": null}', id="null-metrics"),
    pytest.param('{"metrics": []}', id="list-metrics"),
    pytest.param(sample_payload_text(energy=[1, 2]),
                 id="energy-not-a-mapping"),
    pytest.param(sample_payload_text(extra=5), id="extra-not-a-mapping"),
] + [pytest.param(sample_payload_text(drop=f), id=f"missing-{f}")
     for f in REQUIRED_FIELDS])
def test_cache_wrong_shape_file_is_a_miss(tmp_path, text):
    cache = ResultCache(tmp_path)
    key = request().key
    cache.put(key, sample_metrics())
    cache._path(key).write_text(text)
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_wrong_shape_cache_file_is_resimulated_and_overwritten(tmp_path):
    req = request()
    fresh = execute_cells([req], jobs=1, cache=None)
    cache = ResultCache(tmp_path)
    cache.put(req.key, fresh[0])
    cache._path(req.key).write_text('{"metrics": {}}')
    assert execute_cells([req], jobs=1, cache=cache) == fresh
    assert (cache.hits, cache.misses) == (0, 1)
    again = ResultCache(tmp_path)
    assert again.get(req.key) == fresh[0]
    assert (again.hits, again.misses) == (1, 0)


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(request().key, sample_metrics())
    assert cache.clear() == 1
    assert cache.get(request().key) is None


def test_cache_disabled_via_env(monkeypatch):
    monkeypatch.setenv("NDPBRIDGE_CACHE", "0")
    assert ResultCache.from_env() is None
    monkeypatch.setenv("NDPBRIDGE_CACHE", "1")
    monkeypatch.setenv("NDPBRIDGE_CACHE_DIR", "/tmp/some-cache")
    cache = ResultCache.from_env()
    assert cache is not None and str(cache.root) == "/tmp/some-cache"


# ----------------------------------------------------------------------
# execution determinism: fresh vs cached vs subprocess
# ----------------------------------------------------------------------
def test_fresh_cached_and_subprocess_results_identical(tmp_path):
    reqs = [request(Design.B), request(Design.O)]

    fresh = execute_cells(reqs, jobs=1, cache=None)
    pooled = execute_cells(reqs, jobs=2, cache=None)

    cache = ResultCache(tmp_path)
    primed = execute_cells(reqs, jobs=1, cache=cache)
    hits_before = cache.hits
    cached = execute_cells(reqs, jobs=1, cache=cache)
    assert cache.hits == hits_before + len(reqs)

    for a, b, c, d in zip(fresh, pooled, primed, cached):
        assert a == b == c == d
        assert a.makespan > 0


def test_double_run_same_seed_identical(tmp_path):
    a = execute_cells([request()], jobs=1, cache=None)[0]
    b = execute_cells([request()], jobs=1, cache=None)[0]
    assert a.makespan == b.makespan
    assert a == b


def test_run_matrix_shape_and_keys(tmp_path):
    configs = {"base": tiny_config(Design.B), "full": tiny_config(Design.O)}
    results = run_matrix(
        ["ht", "ll"], configs, scale=SCALE, seed=SEED,
        jobs=1, cache=ResultCache(tmp_path),
    )
    assert list(results) == ["ht", "ll"]
    for app in results:
        assert list(results[app]) == ["base", "full"]
        assert results[app]["base"].design == "B"
        assert results[app]["full"].design == "O"
        assert results[app]["full"].app == app
    # Same cells, same metrics as running the requests one by one.
    assert results["ll"]["full"] == execute_cells(
        [CellRequest(app="ll", config=configs["full"], scale=SCALE,
                     seed=SEED)], jobs=1, cache=None,
    )[0]


# ----------------------------------------------------------------------
# worker count: NDPBRIDGE_JOBS
# ----------------------------------------------------------------------
def test_default_jobs_reads_the_knob(monkeypatch):
    monkeypatch.delenv("NDPBRIDGE_JOBS", raising=False)
    assert default_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("NDPBRIDGE_JOBS", "3")
    assert default_jobs() == 3


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_default_jobs_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("NDPBRIDGE_JOBS", value)
    with pytest.raises(ConfigError, match="NDPBRIDGE_JOBS"):
        default_jobs()


def test_bench_engine_records_the_jobs_the_pool_used(monkeypatch, tmp_path):
    from benchmarks import bench_engine

    monkeypatch.setenv("NDPBRIDGE_JOBS", "3")
    used, recorded = [], {}

    def fake_matrix(apps, configs, **kwargs):
        used.append(kwargs["jobs"])
        if len(used) == 1:
            time.sleep(0.02)  # the cold pass, which the bench asserts slower
        return {app: dict.fromkeys(configs, 1) for app in apps}

    class Benchmark:
        def pedantic(self, fn, **kwargs):
            return fn()

    monkeypatch.setattr(bench_engine, "exec_run_matrix", fake_matrix)
    monkeypatch.setattr(
        bench_engine, "record",
        lambda path, key, payload: recorded.update(payload),
    )
    bench_engine.test_fig10_matrix_cold_vs_warm(Benchmark(), tmp_path)
    assert used == [3, 3]
    assert recorded["jobs"] == 3
