"""Property-based end-to-end tests.

Hypothesis generates random task graphs (fan-outs, timestamps, target
units, workloads) and runs them on several designs, checking the
system-level invariants that must hold for *any* program:

* every created task completes exactly once (conservation);
* all designs compute identical application-visible results;
* balanced runs pass the end-of-run lending-metadata checks;
* determinism: re-running the same program reproduces cycle counts.
"""

from dataclasses import dataclass
from typing import List, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

N_UNITS = 16

# A program is a list of seed specs: (target_element, ts, workload,
# fanout); every executed task appends to a result log and spawns
# `fanout` children on derived elements at ts or ts+1.
seed_spec = st.tuples(
    st.integers(min_value=0, max_value=127),     # element index
    st.integers(min_value=0, max_value=2),       # timestamp
    st.integers(min_value=1, max_value=200),     # workload
    st.integers(min_value=0, max_value=3),       # fanout
)
program_strategy = st.lists(seed_spec, min_size=1, max_size=25)


@dataclass
class _ProgramResult:
    executed: List[Tuple[int, int]]
    makespan: int
    system: object


def run_program(program, design, seed=5) -> _ProgramResult:
    system = NDPSystem(tiny_config(design, seed=seed))
    arr = system.partition.allocate("elements", 128, element_size=64)
    executed: List[Tuple[int, int]] = []

    def fn(ctx, task):
        element = system.partition.index_of(arr, task.data_addr)
        depth, fanout = task.args
        executed.append((element, task.ts))
        if depth >= 2:
            return
        for k in range(fanout):
            child_el = (element * 7 + k * 13 + 1) % 128
            child_ts = task.ts + (k % 2)
            ctx.enqueue_task(
                "fn", child_ts,
                system.partition.addr_of(arr, child_el),
                workload=10 + 5 * k,
                args=(depth + 1, max(0, fanout - 1)),
            )

    system.registry.register("fn", fn)
    for element, ts, workload, fanout in program:
        system.seed_task(Task(
            func="fn", ts=ts,
            data_addr=system.partition.addr_of(arr, element),
            workload=workload, actual_cycles=workload,
            args=(0, fanout),
        ))
    system.run()
    return _ProgramResult(executed, system.makespan, system)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=program_strategy)
def test_conservation_on_bridge_design(program):
    result = run_program(program, Design.B)
    tr = result.system.tracker
    assert tr.total_created == tr.total_completed == len(result.executed)
    assert tr.task_messages_in_flight == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=program_strategy)
def test_all_designs_agree_on_results(program):
    reference = None
    for design in (Design.C, Design.B, Design.O):
        result = run_program(program, design)
        canonical = sorted(result.executed)
        if reference is None:
            reference = canonical
        assert canonical == reference, f"{design} diverged"


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=program_strategy)
def test_balanced_runs_pass_audit(program):
    # run() ends in finish(), which checks the lending metadata; a second
    # finish() checks it again.
    run_program(program, Design.O).system.finish()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=program_strategy)
def test_determinism_property(program):
    a = run_program(program, Design.O)
    b = run_program(program, Design.O)
    assert a.makespan == b.makespan
    assert a.executed == b.executed
