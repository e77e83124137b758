"""simstate -- mutable-state inventory analysis + snapshot/restore.

simlint (:mod:`repro.lint`) checks per-file determinism invariants and
simflow (:mod:`repro.flow`) checks the message protocol; simstate closes
the loop on *state*: a static inventory proving every byte of mutable
simulation state is enumerable, and a runtime snapshot/restore subsystem
(:mod:`repro.state.snapshot`) verified bit-identical against it.

Static rules (``python -m repro.state src``):

=======  ==============================================================
rule     invariant
=======  ==============================================================
ST001    every attribute written outside ``__init__`` is declared at
         construction time (snapshot completeness)
ST002    no unsnapshottable state on components (file handles,
         threads/locks, generators, lambdas held as attributes)
ST003    no module- or class-level mutable state in simulation
         packages (fork-safety for pool workers, replay-safety)
ST004    all RNG state flows through ``sim/rng.py`` named streams
ST005    mutable containers aliased across components declare a single
         registered owner (``_snapshot_owns_`` / ``_snapshot_borrowed_``)
=======  ==============================================================

Suppress per line with ``# simstate: ignore[ST001]`` (bare ``ignore``
silences the line); module-wide exceptions live in
:mod:`repro.state.allowlist` with mandatory justifications.

Runtime half: :func:`~repro.state.snapshot.snapshot` freezes a live
system (event queue, component attributes, RNG streams, sanitizer and
auditor counters, tracker state) into a re-forkable
:class:`~repro.state.snapshot.SystemSnapshot`;
:func:`~repro.state.snapshot.restore` produces an independent live
system that continues bit-identically to an uninterrupted run.
"""

from .checker import (
    STATE_SCOPE_PREFIXES,
    analyze_paths,
    analyze_sources,
    build_tree_inventory,
)
from .inventory import (
    ClassInventory,
    ModuleInventory,
    StateInventory,
    build_inventory,
    inventory_as_dict,
    scan_module,
)
from .rules import STATE_RULE_CODES, STATE_RULES, StateRule
from .snapshot import (
    SnapshotError,
    SystemSnapshot,
    component_registry,
    restore,
    run_app_with_snapshot,
    snapshot,
)

__all__ = [
    "STATE_RULES",
    "STATE_RULE_CODES",
    "STATE_SCOPE_PREFIXES",
    "ClassInventory",
    "ModuleInventory",
    "SnapshotError",
    "StateInventory",
    "StateRule",
    "SystemSnapshot",
    "analyze_paths",
    "analyze_sources",
    "build_inventory",
    "build_tree_inventory",
    "component_registry",
    "inventory_as_dict",
    "restore",
    "run_app_with_snapshot",
    "scan_module",
    "snapshot",
]
