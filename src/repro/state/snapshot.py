"""Deterministic snapshot/restore of a live simulation.

The snapshot contract (docs/ARCHITECTURE.md, "State inventory &
checkpointing"):

* :func:`snapshot` freezes a running :class:`~repro.runtime.system.NDPSystem`
  (and, when given, its attached application) into a
  :class:`SystemSnapshot`: one closure-aware deep clone of the whole
  object graph -- event queue, component attributes, RNG streams,
  sanitizer and auditor counters, tracker state.  The live system is
  untouched and keeps running ("capture and continue").
* :func:`restore` / :meth:`SystemSnapshot.fork` produce an *independent*
  live system from the frozen graph.  A snapshot can be forked any
  number of times; forks never share mutable state with each other or
  with the blob.
* The oracle is bit-identity: running a forked system to completion
  yields exactly the makespan, event count and metrics of the
  uninterrupted run.  ``tests/test_snapshot.py`` asserts this across
  the full app x design matrix, plain and sanitized.

:meth:`SystemSnapshot.manifest` re-encodes the snapshot symbolically --
every queued callback as ``(owner id, method name)`` against a component
registry derived from the same attribute walk the static inventory
models, every RNG stream by name/seed digest -- so two snapshots of
identical states produce identical manifests even though the raw blobs
are object graphs.

Snapshots are in-memory objects, deliberately: the format version
(:data:`SNAPSHOT_FORMAT_VERSION`) is carried in the meta block so a
future serialized format can reject stale blobs.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, List, Optional, Set, Tuple

from .clone import SnapshotError, deep_clone
from .inventory import StateInventory

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SystemSnapshot",
    "component_registry",
    "restore",
    "run_app_with_snapshot",
    "snapshot",
    "verify_inventory",
]

SNAPSHOT_FORMAT_VERSION = 1


def _is_model_object(obj: Any) -> bool:
    """Objects owned by the simulation tree (never stdlib containers)."""
    if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
        return False
    return type(obj).__module__.startswith("repro.")


def _attr_names(obj: Any) -> List[str]:
    """Instance attribute names: ``__dict__`` keys plus filled slots."""
    names = list(getattr(obj, "__dict__", ()) or ())
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()) or ():
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                names.append(slot)
    seen = set()
    out = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def component_registry(root: Any, root_id: str = "system") -> Dict[str, Any]:
    """Deterministic owner-id -> object map over the model graph.

    Depth-first over instance attributes in sorted order, descending
    into lists/tuples by index and dicts by sorted key, registering
    every ``repro.*`` object under a stable path-like id
    (``system.units[3].sketch``).  The walk is a pure function of the
    object graph, so two identical systems produce identical
    registries -- the manifest and the queue re-encoding build on this.
    """
    registry: Dict[str, Any] = {}
    seen: Dict[int, str] = {}

    def visit(obj: Any, path: str) -> None:
        if id(obj) in seen:
            return
        seen[id(obj)] = path
        registry[path] = obj
        for name in sorted(_attr_names(obj)):
            try:
                value = getattr(obj, name)
            except AttributeError:  # pragma: no cover - slot race
                continue
            descend(value, f"{path}.{name}")

    def descend(value: Any, path: str) -> None:
        if _is_model_object(value):
            visit(value, path)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if _is_model_object(item):
                    visit(item, f"{path}[{i}]")
        elif isinstance(value, dict):
            for key in sorted(value, key=repr):
                item = value[key]
                if _is_model_object(item):
                    visit(item, f"{path}[{key!r}]")

    visit(root, root_id)
    return registry


def _describe_callback(payload: Any, owner_of: Dict[int, str]) -> str:
    """Symbolic (owner-id, method-name) encoding of one queue payload."""
    if isinstance(payload, types.MethodType):
        owner = owner_of.get(
            id(payload.__self__), type(payload.__self__).__name__
        )
        return f"{owner}.{payload.__func__.__name__}"
    if isinstance(payload, functools.partial):
        return f"partial:{_describe_callback(payload.func, owner_of)}"
    if isinstance(payload, types.FunctionType):
        owner = ""
        for cell in payload.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:
                continue
            path = owner_of.get(id(contents))
            if path is not None:
                owner = f"@{path}"
                break
        return f"closure:{payload.__qualname__}{owner}"
    return f"callable:{type(payload).__name__}"


def _deep_size(
    obj: Any,
    seen: Optional[Set[int]] = None,
    owners: Collection[int] = frozenset(),
) -> int:
    """Approximate retained bytes of an object graph (bench metric).

    Calls that share ``seen`` count each object once.  The walk does not
    enter an object whose id is in ``owners``, ``obj`` itself excepted:
    its bytes are left to its own call.
    """
    seen = set() if seen is None else seen
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or (item is not obj and id(item) in owners):
            continue
        seen.add(id(item))
        if isinstance(item, (type, types.ModuleType)):
            continue
        try:
            total += sys.getsizeof(item)
        except TypeError:  # pragma: no cover - exotic object
            continue
        if isinstance(item, types.FunctionType):
            # Count closure cells and defaults, never __globals__.
            for cell in item.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:
                    pass
            stack.extend(item.__defaults__ or ())
            continue
        if isinstance(item, types.MethodType):
            stack.append(item.__self__)
            continue
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        d = getattr(item, "__dict__", None)
        if isinstance(d, dict):
            stack.append(d)
        for name in _attr_names(item):
            if not isinstance(d, dict) or name not in d:
                try:
                    stack.append(getattr(item, name))
                except AttributeError:
                    pass
    return total


@dataclass
class SystemSnapshot:
    """A frozen, re-forkable image of one running system (+ app).

    ``fork()`` clones the frozen graph again, so the blob itself is
    never handed out -- every fork is independent of the blob and of
    every other fork.
    """

    meta: Dict[str, Any]
    _system: Any = field(repr=False)
    _app: Any = field(default=None, repr=False)

    def fork(self) -> Tuple[Any, Any]:
        """An independent live (system, app) pair from the frozen image."""
        return deep_clone((self._system, self._app))

    def manifest(self) -> Dict[str, Any]:
        """Deterministic symbolic encoding of the frozen state.

        Queue entries become ``(time, seq, owner-id.method)`` strings,
        components become their sorted attribute inventories, RNG
        streams their (name, seed, state digest).  Two snapshots of
        identical simulation states yield identical manifests.
        """
        system = self._system
        registry = component_registry(system)
        owner_of = {id(obj): path for path, obj in registry.items()}
        sim = system.sim
        queue = [
            [time, seq, _describe_callback(payload, owner_of)]
            for time, seq, payload in sim.queue_entries()
        ]
        components = {
            path: {
                "class": type(obj).__name__,
                "attrs": sorted(_attr_names(obj)),
            }
            for path, obj in registry.items()
        }
        rng_streams = {}
        from ..sim.rng import DeterministicRNG

        for path, obj in registry.items():
            if isinstance(obj, DeterministicRNG):
                rng_streams[path] = {
                    "name": obj.name,
                    "seed": obj.seed,
                    "digest": obj.state_digest(),
                }
        manifest: Dict[str, Any] = {
            "version": self.meta["version"],
            "cycle": self.meta["cycle"],
            "engine": {
                "now": sim.now,
                "seq": sim._seq,
                "events_processed": sim.events_processed,
                "pending_events": sim.pending_events,
                "scheduled_total": sim.scheduled_total,
                "sanitize": sim.sanitize,
            },
            "queue": queue,
            "components": components,
            "rng": rng_streams,
            "tracker": {
                "epoch": system.tracker.epoch,
                "created": system.tracker.total_created,
                "completed": system.tracker.total_completed,
                "finished": system.tracker.finished,
            },
        }
        if getattr(system, "auditor", None) is not None:
            auditor = system.auditor
            manifest["auditor"] = {
                "created_by_type": dict(
                    sorted(auditor.created_by_type.items())
                ),
                "delivered_by_type": dict(
                    sorted(auditor.delivered_by_type.items())
                ),
                "dropped_by_type": dict(
                    sorted(auditor.dropped_by_type.items())
                ),
            }
        return manifest

    def manifest_digest(self) -> str:
        import json

        blob = json.dumps(self.manifest(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def size_bytes(self) -> int:
        """Approximate retained size of the frozen image."""
        return _deep_size((self._system, self._app))


def snapshot(
    system: Any,
    app: Any = None,
    inventory: Optional[StateInventory] = None,
) -> SystemSnapshot:
    """Freeze a live system (and optionally its app) mid-run.

    The live objects are untouched.  When ``inventory`` is given the
    live attribute sets are first cross-checked against the static
    declaration inventory (:func:`verify_inventory`); a mismatch means
    the analyzer and the runtime disagree about where state lives, and
    the snapshot refuses rather than silently under-capturing.
    """
    if inventory is not None:
        problems = verify_inventory(system, inventory)
        if problems:
            raise SnapshotError(
                "live state disagrees with the static inventory: "
                + "; ".join(problems[:5])
            )
    sim = system.sim
    frozen_system, frozen_app = deep_clone((system, app))
    meta = {
        "version": SNAPSHOT_FORMAT_VERSION,
        "cycle": sim.now,
        "seq": sim._seq,
        "events_processed": sim.events_processed,
        "pending_events": sim.pending_events,
        "sanitize": sim.sanitize,
    }
    return SystemSnapshot(meta=meta, _system=frozen_system, _app=frozen_app)


def restore(snap: SystemSnapshot) -> Tuple[Any, Any]:
    """An independent live (system, app) pair from a snapshot."""
    if snap.meta.get("version") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format v{snap.meta.get('version')} is not "
            f"v{SNAPSHOT_FORMAT_VERSION}"
        )
    return snap.fork()


def verify_inventory(
    system: Any, inventory: StateInventory
) -> List[str]:
    """Cross-check live ``__dict__`` keys against the static inventory.

    For every registered model object whose class the inventory knows,
    every live instance attribute must be statically declared.
    Instance attributes that *shadow a class-level callable* are
    sanctioned instrumentation (the sanitizer's scheduling wrappers,
    the flow auditor's observation hooks) and are skipped -- they wrap
    behaviour, they do not carry model state of their own.
    """
    known: Dict[str, Any] = {}
    for mod in inventory.modules.values():
        for ci in mod.classes.values():
            known.setdefault(ci.name, ci)
    problems: List[str] = []
    for path, obj in component_registry(system).items():
        ci = known.get(type(obj).__name__)
        if ci is None:
            continue
        declared = inventory.declared_attrs(ci)
        declared = declared | set(ci.borrowed) | set(ci.owned)
        for attr in _attr_names(obj):
            if attr in declared:
                continue
            shadowed = getattr(type(obj), attr, None)
            if callable(shadowed) or isinstance(shadowed, property):
                continue  # instrumentation wrapper over a method
            problems.append(
                f"{path} ({type(obj).__name__}) holds undeclared "
                f"attribute '{attr}'"
            )
    return problems


def run_app_with_snapshot(
    app: Any,
    config: Any,
    snapshot_at: int,
    verify: bool = True,
    inventory: Optional[StateInventory] = None,
) -> Tuple[Any, SystemSnapshot]:
    """``run_app`` twin that snapshots at cycle ``snapshot_at``.

    Runs a fresh system to ``snapshot_at``, freezes it, then *forks the
    snapshot* and runs the fork to completion -- the returned
    ``RunResult`` comes entirely from the restored system, so comparing
    it against a plain ``run_app`` proves snapshot+restore is
    bit-identical to running through.  Returns ``(result, snapshot)``.
    """
    from ..analysis.metrics import collect_metrics
    from ..config import Design
    from ..runtime.runner import RunResult, VerificationError, build_system

    if config.design is Design.H:
        raise SnapshotError(
            "snapshots cover the NDP system model; design H runs on the "
            "host baseline"
        )
    system = build_system(config)
    app.attach(system)
    app.seed_tasks(system)
    system.start()
    system.advance(until=snapshot_at)
    snap = snapshot(system, app, inventory=inventory)
    forked_system, forked_app = snap.fork()
    forked_system.finish()
    if verify and not forked_app.verify():
        raise VerificationError(
            f"{forked_app.name} on design {config.design.value}: "
            "restored run does not match the reference"
        )
    metrics = collect_metrics(forked_system, forked_app.name)
    return (
        RunResult(app=forked_app, system=forked_system, metrics=metrics),
        snap,
    )
