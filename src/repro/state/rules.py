"""The simstate rules (ST001, ST003, ST004).

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
         ``__init__`` (a component's state can be read off its
         constructor: no dynamic attributes)
ST003    no module- or class-level mutable state in simulation
         packages (a pool worker keeps module state from one cell to
         the next)
ST004    all RNG state flows through ``sim/rng.py`` named streams (a
         run is reproducible from its seed only if every stream
         derives from the root)
=======  =============================================================
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .inventory import StateInventory

#: (module_path, line, col, message)
Finding = Tuple[str, int, int, str]

#: simstate analyses the packages whose objects live inside a running
#: simulation.  Analysis/plotting/CLI layers hold no simulated state and
#: are out of scope by construction.
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
        "never declared at construction time -- a component's state "
        "must be readable off its constructor"
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
                        f"time so the constructor lists all its state",
                    )
                for write in ci.dynamic_writes:
                    yield (
                        module_path, write.line, write.col,
                        f"setattr() with a dynamic attribute name in "
                        f"{ci.name}.{write.method}() -- the constructor "
                        f"cannot list a dynamic attribute",
                    )


class ModuleLevelState(StateRule):
    code = "ST003"
    name = "module-level-state"
    description = (
        "module- or class-level mutable state in a simulation package "
        "-- a pool worker keeps it from one cell to the next, so a "
        "cell's result would depend on the cells run before it "
        "(ALL_CAPS literal constant tables are exempt; stateful "
        "factories like itertools.count() never are)"
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
                    f"a simulation package -- a pool worker carries it "
                    f"into the next cell",
                )


class UnmanagedRNG(StateRule):
    code = "ST004"
    name = "unmanaged-rng"
    description = (
        "an RNG is constructed outside the sim/rng.py named-stream "
        "facade -- a run is reproducible from its seed only if every "
        "stream derives from the system root; derive a substream "
        "instead"
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
                    f"root so the run is reproducible from its seed",
                )


STATE_RULES: Tuple[StateRule, ...] = (
    UndeclaredAttribute(),
    ModuleLevelState(),
    UnmanagedRNG(),
)

STATE_RULE_CODES = frozenset(rule.code for rule in STATE_RULES)
