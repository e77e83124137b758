"""Property tests: the bridge fabric under randomized message storms.

Hypothesis generates random communication patterns (who sprays how many
tasks at whom, with what workloads and timestamps) and the tests check
the conservation invariants that must survive any pattern: every message
delivers, every task executes exactly once, and buffers drain.
"""

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import Design, SystemConfig, TopologyConfig, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

spray_spec = st.tuples(
    st.integers(min_value=0, max_value=15),      # source unit
    st.integers(min_value=0, max_value=15),      # destination unit
    st.integers(min_value=1, max_value=40),      # messages
    st.integers(min_value=1, max_value=60),      # per-task workload
)


def run_storm(sprays: List[Tuple[int, int, int, int]], design: Design):
    system = NDPSystem(tiny_config(design, seed=3))
    bank = system.addr_map.bank_bytes
    delivered = []

    def leaf(ctx, task):
        delivered.append(ctx.unit_id)

    def spray(ctx, task):
        dst, count, workload = task.args
        for i in range(count):
            ctx.enqueue_task(
                "leaf", task.ts, dst * bank + (i % 64) * 256,
                workload=workload,
            )

    system.registry.register("leaf", leaf)
    system.registry.register("spray", spray)
    for src, dst, count, workload in sprays:
        system.seed_task(Task(
            func="spray", ts=0, data_addr=src * bank,
            workload=4, args=(dst, count, workload),
        ))
    system.run()
    return system, delivered


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sprays=st.lists(spray_spec, min_size=1, max_size=10))
def test_storm_conserves_tasks_on_bridges(sprays):
    system, delivered = run_storm(sprays, Design.B)
    expected = sum(count for _, _, count, _ in sprays)
    assert len(delivered) == expected
    tr = system.tracker
    assert tr.total_created == tr.total_completed
    assert tr.task_messages_in_flight == 0
    # Every buffer drained.
    for bridge in system.fabric.rank_bridges:
        assert bridge._backup_bytes == 0
        assert all(b.is_empty() for b in bridge.scatter_buffers.values())
        assert len(bridge.up_mailbox) == 0
    for unit in system.units:
        assert unit.mailbox.is_empty()
        assert not unit._backlog


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sprays=st.lists(spray_spec, min_size=1, max_size=8))
def test_storm_conserves_tasks_with_balancing(sprays):
    system, delivered = run_storm(sprays, Design.O)
    expected = sum(count for _, _, count, _ in sprays)
    assert len(delivered) == expected
    system.finish()  # the end-of-run checks, lending metadata included


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sprays=st.lists(spray_spec, min_size=1, max_size=8))
def test_storm_conserves_tasks_on_host_path(sprays):
    system, delivered = run_storm(sprays, Design.C)
    expected = sum(count for _, _, count, _ in sprays)
    assert len(delivered) == expected


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sprays=st.lists(spray_spec, min_size=1, max_size=6))
def test_storm_across_ranks(sprays):
    """Same invariants on a 2-rank system (level-2 bridge in play)."""
    topo = TopologyConfig(
        channels=1, ranks_per_channel=2, chips_per_rank=4, banks_per_chip=4,
        channel_bits=32,
    )
    system = NDPSystem(
        SystemConfig(topology=topo, seed=3).with_design(Design.B)
    )
    bank = system.addr_map.bank_bytes
    hits = []
    system.registry.register("leaf", lambda ctx, t: hits.append(ctx.unit_id))

    def spray(ctx, task):
        dst, count, workload = task.args
        for i in range(count):
            ctx.enqueue_task("leaf", task.ts,
                             (dst * 2) * bank + i * 256, workload=workload)

    system.registry.register("spray", spray)
    for src, dst, count, workload in sprays:
        system.seed_task(Task(
            func="spray", ts=0, data_addr=src * bank,
            workload=4, args=(dst, count, workload),
        ))
    system.run()
    assert len(hits) == sum(c for _, _, c, _ in sprays)
    assert len(system.fabric.level2.down_buffers[0]) == 0
