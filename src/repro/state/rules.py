"""The simstate rules (ST001-ST005).

Like simflow's rules, these see the whole tree at once -- the inventory
(:mod:`repro.state.inventory`) already did the AST work, so each rule is
a filter that turns inventory facts into findings.  Each rule yields
``(module_path, line, col, message)``; :mod:`repro.analyze` maps
findings back onto files and applies ``# simstate: ignore[STxxx]``
suppressions and the module allowlist.

=======  =============================================================
rule     invariant
=======  =============================================================
ST001    every attribute written outside ``__init__`` is declared in
         ``__init__`` (snapshot completeness: no dynamic attributes)
ST002    no unsnapshottable state on components: file handles,
         threads/locks/sockets, generators, lambdas held as attributes
ST003    no module- or class-level mutable state in simulation
         packages (fork-safety for pool workers, replay-safety for
         restore)
ST004    all RNG state flows through ``sim/rng.py`` named streams
ST005    mutable containers passed into a constructor and stored must
         declare ownership (``_snapshot_owns_`` / ``_snapshot_borrowed_``)
=======  =============================================================
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .inventory import StateInventory

#: (module_path, line, col, message)
Finding = Tuple[str, int, int, str]

#: simstate analyses the packages whose objects live inside a running
#: simulation and therefore inside a snapshot.  Analysis/plotting/CLI
#: layers hold no simulated state and are out of scope by construction.
STATE_SCOPE_PREFIXES: Tuple[str, ...] = (
    "repro/sim/",
    "repro/bridge/",
    "repro/ndp/",
    "repro/runtime/",
    "repro/balance/",
    "repro/links/",
    "repro/dram/",
    "repro/messages/",
)


class StateRule:
    """Base class: whole-inventory check yielding findings."""

    code: str = "ST000"
    name: str = "base"
    description: str = ""

    def check(self, inv: StateInventory) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class UndeclaredAttribute(StateRule):
    code = "ST001"
    name = "undeclared-attribute"
    description = (
        "an attribute is written outside __init__/__post_init__ but "
        "never declared at construction time -- the snapshot inventory "
        "cannot enumerate it, so restore would silently drop state"
    )

    def check(self, inv: StateInventory) -> Iterator[Finding]:
        for module_path in sorted(inv.modules):
            mod = inv.modules[module_path]
            for name in sorted(mod.classes):
                ci = mod.classes[name]
                declared = inv.declared_attrs(ci)
                for write in ci.outside_writes:
                    if write.attr in declared:
                        continue
                    yield (
                        module_path, write.line, write.col,
                        f"attribute '{write.attr}' is written in "
                        f"{ci.name}.{write.method}() but never declared "
                        f"in __init__ -- declare it at construction "
                        f"time so the snapshot inventory is complete",
                    )
                for write in ci.dynamic_writes:
                    yield (
                        module_path, write.line, write.col,
                        f"setattr() with a dynamic attribute name in "
                        f"{ci.name}.{write.method}() -- the state "
                        f"inventory cannot enumerate dynamic attributes",
                    )


class UnsnapshottableState(StateRule):
    code = "ST002"
    name = "unsnapshottable-state"
    description = (
        "a component stores state that cannot be captured by "
        "snapshot/restore: open file handles, thread/lock/socket "
        "objects, generator expressions, or lambdas held as "
        "attributes (scheduled callbacks are sanctioned via the "
        "engine queue, not as component attributes)"
    )

    def check(self, inv: StateInventory) -> Iterator[Finding]:
        for module_path in sorted(inv.modules):
            mod = inv.modules[module_path]
            for name in sorted(mod.classes):
                ci = mod.classes[name]
                for site in ci.value_sites:
                    yield (
                        module_path, site.line, site.col,
                        f"{ci.name}.{site.method}() stores {site.kind} "
                        f"in attribute '{site.attr}' -- unsnapshottable "
                        f"state must not live on simulation objects",
                    )


class ModuleLevelState(StateRule):
    code = "ST003"
    name = "module-level-state"
    description = (
        "module- or class-level mutable state in a simulation package "
        "-- pool worker forks and snapshot restore cannot capture it, "
        "so runs would diverge (ALL_CAPS literal constant tables are "
        "exempt; stateful factories like itertools.count() never are)"
    )

    def check(self, inv: StateInventory) -> Iterator[Finding]:
        for module_path in sorted(inv.modules):
            mod = inv.modules[module_path]
            for binding in mod.module_mutable:
                where = (
                    f"class {binding.scope}" if binding.scope
                    else "module"
                )
                yield (
                    module_path, binding.line, binding.col,
                    f"{where}-level mutable state '{binding.name}' "
                    f"({binding.kind}) -- move it onto a component or "
                    f"allowlist it with a written justification",
                )
            for name, line, col in mod.global_stmts:
                yield (
                    module_path, line, col,
                    f"'global {name}' rebinds module state from inside "
                    f"a simulation package -- fork/restore cannot "
                    f"capture it",
                )


class UnmanagedRNG(StateRule):
    code = "ST004"
    name = "unmanaged-rng"
    description = (
        "an RNG is constructed outside the sim/rng.py named-stream "
        "facade -- its state cannot be captured/restored; derive a "
        "substream from the system root instead"
    )

    def check(self, inv: StateInventory) -> Iterator[Finding]:
        for module_path in sorted(inv.modules):
            mod = inv.modules[module_path]
            for callee, line, col in mod.rng_calls:
                yield (
                    module_path, line, col,
                    f"RNG constructed via {callee}() outside the "
                    f"named-stream facade -- use "
                    f"DeterministicRNG.substream() from the system "
                    f"root so snapshot/restore can capture its state",
                )


class UnownedAlias(StateRule):
    code = "ST005"
    name = "unowned-alias"
    description = (
        "a mutable container passed into __init__ is stored as an "
        "attribute without registered ownership -- aliasing across "
        "components breaks per-object restore; declare the attribute "
        "in _snapshot_owns_ (sole owner) or _snapshot_borrowed_ "
        "(owner registered elsewhere)"
    )

    def check(self, inv: StateInventory) -> Iterator[Finding]:
        for module_path in sorted(inv.modules):
            mod = inv.modules[module_path]
            for name in sorted(mod.classes):
                ci = mod.classes[name]
                sanctioned = set(ci.borrowed) | set(ci.owned)
                for site in ci.alias_sites:
                    if site.attr in sanctioned:
                        continue
                    yield (
                        module_path, site.line, site.col,
                        f"{ci.name}.__init__ stores mutable container "
                        f"parameter '{site.param}' as attribute "
                        f"'{site.attr}' without registered ownership "
                        f"-- declare it in _snapshot_owns_ or "
                        f"_snapshot_borrowed_",
                    )


STATE_RULES: Tuple[StateRule, ...] = (
    UndeclaredAttribute(),
    UnsnapshottableState(),
    ModuleLevelState(),
    UnmanagedRNG(),
    UnownedAlias(),
)

STATE_RULE_CODES = frozenset(rule.code for rule in STATE_RULES)
