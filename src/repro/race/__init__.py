"""simrace -- process-boundary static analysis for the exec pool.

``python -m repro.race src`` runs rules RC002, RC003 and RC005 over the
tree (:mod:`repro.race.rules`), sharing simlint's finding model,
suppression syntax (``# simrace: ignore[RC002]``) and SARIF output.  The
env-knob registry RC003 enforces lives with the runtime, in
:mod:`repro.exec.knobs`, so pool workers never load the analyzers.
"""

from .checker import analyze_paths, race_file, race_source
from .rules import RACE_RULE_CODES, RACE_RULES

__all__ = [
    "RACE_RULES",
    "RACE_RULE_CODES",
    "analyze_paths",
    "race_file",
    "race_source",
]
