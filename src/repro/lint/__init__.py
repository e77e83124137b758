"""simlint -- determinism & simulator-invariant static analysis.

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
SL004    no float arithmetic assigned to cycle/time-named variables in
         ``sim/``, ``bridge/``, ``links/`` -- simulated time is integral
SL005    no mutable default arguments on methods of ``Component``
         subclasses
SL006    ``schedule*()`` lambda callbacks must not close over loop
         variables (late-binding hazard)
SL007    no builtin ``hash()`` -- salted per process
         (``PYTHONHASHSEED``), so exec workers disagree
SL008    no builtin ``id()`` in sort keys or comparisons inside
         ``sim/``/``bridge/`` -- allocation addresses differ across
         processes and runs
=======  ==============================================================

The rules live in :mod:`repro.lint.rules`.  Findings can be suppressed
per line with ``# simlint: ignore[SL003]`` (comma-separate multiple
rules; bare ``# simlint: ignore`` silences the line entirely) or
sanctioned centrally in :data:`repro.analyze.ALLOWLIST`, where every
entry must carry a written justification.

Run it with the other three analyzers as ``python -m repro.analyze
[paths...]`` (defaults to ``src/``).
"""
