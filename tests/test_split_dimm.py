"""Tests for the split-DIMM (chameleon-s) variant (Section V-A)."""

from dataclasses import replace

import pytest

from repro.config import Design, default_config, tiny_config, validate_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


def split(cfg):
    return cfg.replace(comm=replace(cfg.comm, split_dimm=True))


def tiny_split(design=Design.B):
    return split(tiny_config(design))


def test_preset_builds_and_validates():
    cfg = split(default_config())
    validate_config(cfg)
    assert cfg.comm.split_dimm


def test_link_bandwidth_reduced():
    normal = tiny_config(Design.B)
    split = tiny_split()
    assert split.chip_link_bytes_per_cycle == pytest.approx(
        0.75 * normal.chip_link_bytes_per_cycle
    )
    # The channel toward the host is unaffected.
    assert split.channel_bytes_per_cycle == normal.channel_bytes_per_cycle


def test_communication_is_slower_end_to_end():
    def run(cfg):
        system = NDPSystem(cfg)
        system.registry.register("noop", lambda ctx, task: None)
        bank = system.addr_map.bank_bytes

        def spray(ctx, task):
            for i in range(200):
                ctx.enqueue_task("noop", task.ts,
                                 (1 + i % 15) * bank + i * 256, workload=2)

        system.registry.register("spray", spray)
        system.seed_task(Task(func="spray", ts=0, data_addr=0))
        system.run()
        return system.makespan

    assert run(tiny_split()) > run(tiny_config(Design.B))


def test_compute_only_work_unaffected():
    def run(cfg):
        system = NDPSystem(cfg)
        system.registry.register("t", lambda ctx, task: None)
        system.seed_task(Task(func="t", ts=0, data_addr=0,
                              workload=5000, actual_cycles=5000))
        system.run()
        return system.makespan

    assert run(tiny_split()) == run(tiny_config(Design.B))


def test_invalid_pin_fraction_rejected():
    from repro.config import ConfigError

    cfg = tiny_config(Design.B)
    bad = cfg.replace(
        comm=replace(cfg.comm, split_dimm_data_pin_fraction=0.0)
    )
    with pytest.raises(ConfigError):
        validate_config(bad)
