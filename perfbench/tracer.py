"""Span tracer that measures each ``repro`` layer from outside.

The tracer wraps the public entry points of every layer package -- and
every callback handed to ``Simulator.schedule``/``schedule_at``,
attributed to the module that defined it -- in spans.  Spans are folded
into per-entry-point records while the run goes: call count, inclusive
seconds and self seconds (inclusive minus the time covered by child
spans).  Nothing in ``src/`` is edited: wrappers are installed on the
classes for the duration of a ``with Tracer(...)`` block and the original
attributes are put back on exit, which :meth:`Tracer.assert_restored`
proves.

Self time is exact bookkeeping, not sampling: every span adds its
duration to its parent's child total, so the self times of all records
plus the time outside any span (the ``bench`` layer) sum to the traced
wall time up to float rounding.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Module prefix -> layer, longest prefix first.  A callback or entry
#: point is charged to the layer of the module that defines it.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.stats", "stats"),
    ("repro.sim", "sim"),
    ("repro.ndp", "ndp"),
    ("repro.dram", "dram"),
    ("repro.bridge", "bridge"),
    ("repro.links", "bridge"),
    ("repro.messages", "messages"),
    ("repro.balance", "balance"),
    ("repro.runtime.requests", "requests"),
    ("repro.runtime", "runtime"),
    ("repro.apps", "apps"),
    ("repro.workloads", "workloads"),
    ("repro.analysis", "analysis"),
    ("repro.energy", "analysis"),
    ("repro.exec", "exec"),
)

#: Every layer a report names, in report order.  ``bench`` is the time
#: the benchmark's own code spends outside any span.
LAYERS = (
    "sim", "stats", "ndp", "dram", "bridge", "messages", "balance",
    "runtime", "requests", "apps", "workloads", "analysis", "exec",
    "other", "bench",
)

#: Entry points of the simulation layers: (module, class, attribute).
#: Properties are wrapped through their getter.  ``Simulator.schedule``
#: and ``schedule_at`` additionally wrap the callback they are handed,
#: and ``TaskRegistry.lookup`` wraps the task function it returns, so
#: dispatched events and application task bodies become spans too.
MODEL_ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.sim.engine", "Simulator", ("run", "schedule", "schedule_at")),
    ("repro.sim.stats", "Counter", ("add",)),
    ("repro.ndp.unit", "NDPUnit", (
        "accept_task", "deliver_task_message", "deliver_data_message",
        "on_mailbox_drained", "recall_block", "handle_schedule",
        "commit_lend", "retry_parked", "collect_state", "on_epoch",
    )),
    ("repro.ndp.cache", "L1Cache", ("access", "invalidate_range")),
    ("repro.dram.bank", "DRAMBank", ("access",)),
    ("repro.bridge.level1", "Level1Bridge", (
        "start", "handle_schedule_from_l2", "assign_incoming_bundle",
        "notify_enqueue", "receive_from_l2", "aggregate_load",
        "receiver_target",
    )),
    ("repro.bridge.level2", "Level2Bridge", ("start", "maybe_start_round")),
    ("repro.bridge.fabric", "BridgeFabric",
     ("start", "notify_enqueue", "try_direct")),
    ("repro.bridge.host_path", "HostForwardingFabric",
     ("start", "notify_enqueue", "try_direct")),
    ("repro.bridge.triggering", "CommTrigger", ("should_start_round",)),
    ("repro.links.link", "Link", ("transfer", "occupy_until")),
    ("repro.messages.mailbox", "Mailbox", ("enqueue", "fetch", "drain_all")),
    ("repro.messages.buffers", "MessageBuffer",
     ("push", "force_push", "pop_up_to")),
    ("repro.messages.types", "Message", ("wire_bytes",)),
    ("repro.balance.policy", "SchedulingPolicy", ("plan", "w_th")),
    ("repro.balance.sketch", "HotDataSketch", ("observe",)),
    ("repro.balance.reserved_queue", "ReservedQueue",
     ("reserve", "pop_one", "extract", "evict")),
    ("repro.balance.metadata", "IsLentBitmap", ("set_lent", "clear_lent")),
    ("repro.balance.metadata", "DataBorrowedTable",
     ("insert", "remove", "lookup")),
    ("repro.runtime.tracker", "RunTracker", (
        "task_created", "task_completed", "message_departed",
        "message_delivered", "check_progress",
    )),
    ("repro.runtime.system", "NDPSystem", ("spawn", "seed_task")),
    ("repro.runtime.program", "TaskRegistry", ("lookup", "dispatch_cost")),
    ("repro.runtime.program", "TaskContext", ("enqueue_task",)),
    ("repro.runtime.requests", "OpenLoopApp", ("_on_complete",)),
)

#: Entry points of the exec layer, traced in the parent process of a
#: sweep (pool workers are separate processes the tracer cannot reach).
EXEC_ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.exec.runner", "CellRequest", ("key",)),
    ("repro.exec.cache", "ResultCache", ("get", "put")),
)

#: Entry points whose ``False`` returns are counted (rejections).
COUNT_FALSE = frozenset({"Mailbox.enqueue", "MessageBuffer.push"})

#: Marker set on every wrapper, so a leftover one can be detected.
MARKER = "__perfbench_span__"


def layer_of(module: Optional[str]) -> str:
    """The layer that owns ``module`` (``other`` outside ``repro``)."""
    if module:
        for prefix, layer in LAYER_OF_MODULE:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _callback_module(callback: Callable[..., object]) -> Optional[str]:
    fn = getattr(callback, "__func__", callback)  # bound method -> function
    return getattr(fn, "__module__", None)


class Record:
    """Aggregated spans of one entry point (or one callback module)."""

    __slots__ = ("layer", "name", "calls", "incl_s", "self_s", "falses")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.falses = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer, "name": self.name, "calls": self.calls,
            "incl_s": self.incl_s, "self_s": self.self_s,
            "false_returns": self.falses,
        }


class Tracer:
    """Install span wrappers on entry; restore the originals on exit.

    ``targets`` lists ``(module, class, attributes)`` to wrap; ``globals``
    lists ``(module, function)`` module-level functions to wrap.  Steps
    the benchmark itself drives are timed with :meth:`call`.
    """

    def __init__(
        self,
        targets: Iterable[Tuple[str, str, Tuple[str, ...]]] = MODEL_ENTRY_POINTS,
        globals_: Iterable[Tuple[str, str]] = (),
    ) -> None:
        self.targets = tuple(targets)
        self.globals = tuple(globals_)
        self.records: Dict[str, Record] = {}
        # Child-time accumulators, one per open span; index 0 is the root.
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[object, str, object]] = []
        self._clock = time.perf_counter
        self._t0 = 0.0
        self.wall_s = 0.0
        self._task_wrappers: Dict[object, Callable[..., object]] = {}

    # -- records ------------------------------------------------------------
    def record(self, layer: str, name: str) -> Record:
        key = f"{layer}:{name}"
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = Record(layer, name)
        return rec

    def _span(self, fn: Callable[..., object], rec: Record,
              count_false: bool = False) -> Callable[..., object]:
        stack = self._stack
        clock = self._clock

        if count_false:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec.calls += 1
                    rec.incl_s += dt
                    rec.self_s += dt - child
                if result is False:
                    rec.falses += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec.calls += 1
                    rec.incl_s += dt
                    rec.self_s += dt - child

        setattr(wrapper, MARKER, True)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def call(self, layer: str, name: str, fn: Callable[..., object],
             *args: object) -> object:
        """Run one benchmark-driven step as a span."""
        return self._span(fn, self.record(layer, name))(*args)

    # -- special wrappers ----------------------------------------------------
    def _event(self, callback: Callable[[], None]) -> Callable[[], None]:
        module = _callback_module(callback)
        rec = self.record(layer_of(module), f"event {module}")
        return self._span(callback, rec)  # type: ignore[return-value]

    def _wrap_schedule(self, original: Callable[..., None],
                       rec: Record) -> Callable[..., None]:
        event = self._event

        def schedule(sim, when, callback):
            return original(sim, when, event(callback))

        return self._span(schedule, rec)  # type: ignore[return-value]

    def _wrap_lookup(self, original: Callable[..., object],
                     rec: Record) -> Callable[..., object]:
        cache = self._task_wrappers

        def lookup(registry, name):
            fn = original(registry, name)
            wrapped = cache.get(fn)
            if wrapped is None:
                module = _callback_module(fn)
                task_rec = self.record(layer_of(module), f"task {name}")
                wrapped = cache[fn] = self._span(fn, task_rec)
            return wrapped

        return self._span(lookup, rec)

    # -- install / restore ---------------------------------------------------
    def _install(self) -> None:
        for module_name, class_name, attrs in self.targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            layer = layer_of(module_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                qual = f"{class_name}.{attr}"
                rec = self.record(layer, qual)
                if isinstance(original, property):
                    new: object = property(
                        self._span(original.fget, rec), original.fset,
                        original.fdel, original.__doc__,
                    )
                elif qual in ("Simulator.schedule", "Simulator.schedule_at"):
                    new = self._wrap_schedule(original, rec)
                elif qual == "TaskRegistry.lookup":
                    new = self._wrap_lookup(original, rec)
                else:
                    new = self._span(original, rec, qual in COUNT_FALSE)
                self._saved.append((cls, attr, original))
                setattr(cls, attr, new)
        for module_name, fn_name in self.globals:
            module = importlib.import_module(module_name)
            original = getattr(module, fn_name)
            rec = self.record(layer_of(module_name), fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name, self._span(original, rec))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self._install()
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s = self._clock() - self._t0
        self._restore()
        self._task_wrappers.clear()

    def assert_restored(self) -> None:
        """Raise if any wrapper is still installed after the block."""
        for module_name, class_name, attrs in self.targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            for attr in attrs:
                value = cls.__dict__[attr]
                fn = value.fget if isinstance(value, property) else value
                if getattr(fn, MARKER, False):
                    raise AssertionError(f"span wrapper left on {class_name}.{attr}")
        for module_name, fn_name in self.globals:
            fn = getattr(importlib.import_module(module_name), fn_name)
            if getattr(fn, MARKER, False):
                raise AssertionError(f"span wrapper left on {module_name}.{fn_name}")

    # -- reports -------------------------------------------------------------
    @property
    def root_self_s(self) -> float:
        """Traced time outside every span (the benchmark's own code)."""
        return self.wall_s - self._stack[0]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count and self seconds (``bench`` included)."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for rec in self.records.values():
            out[rec.layer]["calls"] += rec.calls
            out[rec.layer]["self_s"] += rec.self_s
        out["bench"]["self_s"] += self.root_self_s
        return out

    def get(self, layer: str, name: str) -> Record:
        return self.records.get(f"{layer}:{name}") or Record(layer, name)

    def calls_where(self, layer: str, prefix: str) -> int:
        """Span count of every record of ``layer`` named ``prefix...``."""
        return sum(
            r.calls for r in self.records.values()
            if r.layer == layer and r.name.startswith(prefix)
        )
