"""Tests for the level-2 bridge: cross-rank routing and load balancing."""

from repro import make_app, run_app
from repro.config import (
    BridgeConfig,
    Design,
    SystemConfig,
    TopologyConfig,
    scaled_config,
)
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

from .conftest import noop_task
from .test_cross_rank_lb import skewed_run


def two_rank_config(design=Design.B, seed=7):
    topo = TopologyConfig(
        channels=1, ranks_per_channel=2, chips_per_rank=4, banks_per_chip=4,
        channel_bits=32,
    )
    return SystemConfig(topology=topo, seed=seed).with_design(design)


def make_system(design=Design.B):
    system = NDPSystem(two_rank_config(design))
    system.registry.register("noop", lambda ctx, task: None)
    return system


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


class TestCrossRankRouting:
    def test_level2_exists_for_multi_rank(self):
        sys_ = make_system()
        assert sys_.has_level2
        assert len(sys_.fabric.rank_bridges) == 2

    def test_cross_rank_task_delivery(self):
        sys_ = make_system()
        # Unit 0 is in rank 0, unit 31 in rank 1.
        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 31))

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.units[31].tasks_executed == 1
        l2 = sys_.fabric.level2
        assert l2._stat_routed.value >= 1
        assert l2.channel_links[0].total_bytes > 0

    def test_intra_rank_traffic_stays_below(self):
        sys_ = make_system()

        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 5))  # rank 0

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.fabric.level2._stat_routed.value == 0

    def test_cross_rank_is_slower_than_intra_rank(self):
        def run(dst):
            sys_ = make_system()

            def spawn(ctx, task):
                ctx.enqueue_task("noop", task.ts, bank_addr(sys_, dst))

            sys_.registry.register("spawn", spawn)
            sys_.seed_task(Task(func="spawn", ts=0,
                                data_addr=bank_addr(sys_, 0)))
            sys_.run()
            return sys_.makespan

        assert run(31) > run(15)  # other rank vs same rank


class TestCrossRankBalancing:
    def test_idle_rank_receives_work(self):
        sys_ = make_system(Design.O)
        # Load only rank 0 heavily: many independent tasks on unit 3.
        for i in range(400):
            sys_.seed_task(noop_task(
                bank_addr(sys_, 3, offset=i * 64), workload=400,
            ))
        sys_.run()
        rank1_units = sys_.units[16:]
        executed_rank1 = sum(u.tasks_executed for u in rank1_units)
        assert executed_rank1 > 0, "cross-rank balancing never triggered"
        l2 = sys_.fabric.level2
        assert l2._stat_schedules.value >= 1

    def test_balancing_beats_no_balancing_on_skew(self):
        def run(design):
            sys_ = make_system(design)
            for i in range(400):
                sys_.seed_task(noop_task(
                    bank_addr(sys_, 3, offset=i * 64), workload=400,
                ))
            sys_.run()
            return sys_.makespan

        assert run(Design.O) < run(Design.B)


def up_mailbox_refusals(system):
    return sum(
        bridge.up_mailbox.dropped_messages
        for bridge in system.fabric.rank_bridges
    )


def down_buffer_refusals(system):
    return sum(buf.dropped_messages for buf in system.fabric.level2.down_buffers)


def assert_drained(system):
    tracker = system.tracker
    assert tracker.total_completed == tracker.total_created
    system.finish()  # the end-of-run checks, lending metadata included


class TestBoundedBufferOverflow:
    """A full level-1 up mailbox or level-2 down buffer refuses a push,
    and the bridge must keep the refused message (Section V-A: the
    level-1 backup buffer, the level-2 soft overflow).  At the default
    sizes no other tier-1 run fills either, so these runs shrink the
    bridge mailboxes until they do.  ``max_cycles`` bounds each run, so a
    bridge that drops a refused message (a stall) or bounces it forever
    (a livelock) fails within seconds."""

    def test_plain_route_and_level2_down_buffer(self):
        # Design B never lends: every up-bound message is a task for
        # another rank, taking _route_to's plain cross-rank route.
        config = scaled_config(256, Design.B, seed=17).replace(
            bridge=BridgeConfig(mailbox_bytes=4096), max_cycles=500_000
        )
        system = run_app(make_app("wcc", scale=0.05, seed=17), config).system
        assert up_mailbox_refusals(system) > 0
        assert down_buffer_refusals(system) > 0
        assert_drained(system)

    def test_lend_route_up_mailbox(self):
        system = skewed_run(
            bridge=BridgeConfig(mailbox_bytes=512), max_cycles=500_000
        )
        assert system.fabric.level2._stat_schedules.value >= 1
        assert up_mailbox_refusals(system) > 0
        assert_drained(system)


class TestRoundsCoverTheirCompletions:
    """Every scatter a level-1 round makes, and every route and delivery
    a level-2 round makes, completes while that round is active: no
    later than, and before, the round's ``_round_done``.  So none of
    them needs to re-check the round trigger; ``_round_done`` does."""

    def test_completions_run_inside_their_round(self, monkeypatch):
        from repro.bridge.level1 import Level1Bridge
        from repro.bridge.level2 import Level2Bridge

        seen = {}

        def inside_round(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                seen.setdefault(f"{cls.__name__}.{name}", []).append(
                    self._round_active
                )
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        inside_round(Level1Bridge, "_deliver")
        inside_round(Level2Bridge, "_deliver")
        inside_round(Level2Bridge, "_route_messages")
        # Two ranks of 64 units, so the level-2 bridge runs.
        for app, design in (("pr", Design.B), ("tree", Design.O)):
            seen.clear()
            run_app(make_app(app, scale=0.1, seed=7),
                    scaled_config(128, design, seed=7))
            assert sorted(seen) == [
                "Level1Bridge._deliver",
                "Level2Bridge._deliver",
                "Level2Bridge._route_messages",
            ], app
            for name, active in seen.items():
                assert all(active), f"{app}: {name} ran outside its round"
