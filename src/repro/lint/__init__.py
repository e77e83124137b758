"""simlint -- the repo's static analysis: determinism, simulation state
and the message protocol.

The simulation engine promises bit-identical cycle counts for identical
seeds (see :mod:`repro.sim.engine`), and the result cache
(:mod:`repro.exec.cache`) happily serves any number that was ever
computed -- so a single code path that lets wall-clock time, unseeded
randomness, or hash iteration order leak into event ordering silently
corrupts every figure downstream.  simlint walks the source tree with
:mod:`ast` (stdlib only, no third-party deps) and mechanically enforces
the invariants that are otherwise protected only by convention:

=======  ==============================================================
rule     invariant
=======  ==============================================================
SL001    no wall-clock reads (``time.time``, ``datetime.now``, ...)
         outside ``benchmarks/`` and ``scripts/``
SL002    no global/unseeded ``random`` or ``numpy.random`` outside the
         sanctioned ``repro/sim/rng.py``
SL003    no iteration over ``set``/``frozenset`` in modules that call
         ``schedule*`` -- hash order must never feed event order
SL006    ``schedule*()`` lambda callbacks must not close over names a
         loop rebinds (late-binding hazard)
SL007    no builtin ``hash()`` -- salted per process
         (``PYTHONHASHSEED``), so exec workers disagree
SL008    no builtin ``id()`` in sort keys or comparisons inside
         ``sim/``/``bridge/`` -- allocation addresses differ across
         processes and runs
SL009    no module- or class-level mutable state in the simulation
         packages -- a pool worker keeps it from one cell to the next
SL010    no RNG constructed outside the ``sim/rng.py`` named-stream
         facade in the simulation packages -- a run is reproducible
         from its seed only if every stream derives from the root
SL011    every bounded ``Mailbox.enqueue()`` / ``MessageBuffer.push()``
         in ``messages/``, ``bridge/``, ``ndp/`` handles the False
         backpressure return
SL012    rejection branches of those calls provably escape (raise /
         return False / spill unbounded) -- a blocking wait can
         deadlock the bridge buffer cycle
SL013    every environment read in ``repro`` names a knob declared in
         ``repro/exec/knobs.py``
SL014    no process-context reads (pid, cwd, hostname, ``id``, ...) in
         the simulation packages a pool worker runs
=======  ==============================================================

The rules live in :mod:`repro.lint.rules`.  Findings can be suppressed
per line with ``# simlint: ignore[SL003]`` (comma-separate multiple
rules; bare ``# simlint: ignore`` silences the line entirely) or
sanctioned centrally in :data:`repro.analyze.ALLOWLIST`, where every
entry must carry a written justification.

Run it as ``python -m repro.analyze [paths...]`` (defaults to
``src/``).
"""
