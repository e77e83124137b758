"""simstate -- the mutable-state inventory and its rules.

simlint (:mod:`repro.lint`) checks per-file determinism invariants and
simflow (:mod:`repro.flow`) checks the message protocol; simstate checks
where simulation *state* lives: a static inventory of every class's
declared attributes, module-level bindings and RNG constructions.

Static rules (:mod:`repro.state.rules` over
:mod:`repro.state.inventory`, run by ``python -m repro.analyze src``):

=======  ==============================================================
rule     invariant
=======  ==============================================================
ST001    every attribute written outside ``__init__`` is declared at
         construction time (a component's state can be read off its
         constructor)
ST003    no module- or class-level mutable state in simulation
         packages (a pool worker keeps module state from one cell to
         the next)
ST004    all RNG state flows through ``sim/rng.py`` named streams (a
         run is reproducible from its seed only if every stream
         derives from the root)
=======  ==============================================================

Suppress per line with ``# simstate: ignore[ST001]`` (bare ``ignore``
silences the line); module-wide exceptions live in
:data:`repro.analyze.ALLOWLIST` with mandatory justifications.  No
runtime module imports this package.
"""
