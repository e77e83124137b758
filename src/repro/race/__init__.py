"""simrace -- process-boundary static analysis for the exec pool.

Rules RC002, RC003 and RC005 (:mod:`repro.race.rules`) run over the
tree as part of ``python -m repro.analyze src``, sharing simlint's
finding model, suppression syntax (``# simrace: ignore[RC002]``) and
SARIF output.  The env-knob registry RC003 enforces lives with the
runtime, in :mod:`repro.exec.knobs`, so pool workers never load the
analyzers.
"""
