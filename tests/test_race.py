"""Tests of simlint's two exec-pool rules and the knob registry.

SL013 (every environment read names a declared knob) and SL014 (no
process-context reads in worker-executed modules) keep serial, pooled
and cached cells bit-identical; they were simrace's RC003 and RC005.
Their hazard fixtures sit with every other simlint rule's in
``tests/test_lint.py``; this module holds more hazards, the clean
variants and scopes, and the environment-knob registry; fixture and
test names keep the former codes.  Meta-tests run them through the real
gate, ``python -m repro.analyze``.
"""

import json

from repro.analyze import check_sources
from repro.exec.knobs import ENV_REGISTRY, is_registered
from repro.lint.rules import RULES

RACE_CODES = ("SL013", "SL014")


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [d.rule for d in check_sources([(path, module_path, source)])]


# ----------------------------------------------------------------------
# SL013 -- declared environment knobs
# ----------------------------------------------------------------------
RC003_UNDECLARED = """\
import os

FAST = os.environ.get("NDPBRIDGE_TURBO", "0")
"""

RC003_NONLITERAL = """\
import os

def read(name):
    return os.getenv(name)
"""

RC003_SUBSCRIPT = 'import os\nv = os.environ["NDPBRIDGE_SECRET"]\n'

RC003_CLEAN = """\
import os

jobs = os.environ.get("NDPBRIDGE_JOBS")
workers = os.getenv("NDPBRIDGE_JOBS", "1")
"""


def test_rc003_undeclared_knob():
    assert codes(RC003_UNDECLARED, module_path="repro/exec/x.py") == ["SL013"]


def test_rc003_non_literal_name():
    assert codes(RC003_NONLITERAL, module_path="repro/exec/x.py") == ["SL013"]


def test_rc003_environ_subscript():
    assert codes(RC003_SUBSCRIPT, module_path="repro/exec/x.py") == ["SL013"]


def test_rc003_registered_knobs_are_clean():
    assert codes(RC003_CLEAN, module_path="repro/exec/x.py") == []


def test_rc003_benchmarks_are_exempt():
    assert codes(
        RC003_UNDECLARED,
        module_path="bench.py",
        path="benchmarks/bench.py",
    ) == []


# ----------------------------------------------------------------------
# SL014 -- worker-context independence
# ----------------------------------------------------------------------
RC005_PID = "import os\n\ndef tag():\n    return os.getpid()\n"
RC005_START = (
    "import multiprocessing\n\n"
    "def mode():\n    return multiprocessing.get_start_method()\n"
)
RC005_CLEAN = "import os\n\ndef sep():\n    return os.sep\n"


def test_rc005_pid_read():
    assert codes(RC005_PID, module_path="repro/ndp/unit.py") == ["SL014"]


def test_rc005_start_method_read():
    assert codes(RC005_START, module_path="repro/sim/engine.py") == ["SL014"]


def test_rc005_context_free_os_use_is_clean():
    assert codes(RC005_CLEAN, module_path="repro/ndp/unit.py") == []


def test_rc005_out_of_scope_module_is_clean():
    # exec/ is parent-side orchestration; pid reads there are fine
    # (the cache uses one for tempfile naming).
    assert codes(RC005_PID, module_path="repro/exec/cache.py") == []


# ----------------------------------------------------------------------
# the environment-knob registry
# ----------------------------------------------------------------------
def test_registry_covers_known_knobs():
    names = [knob.name for knob in ENV_REGISTRY]
    assert "NDPBRIDGE_JOBS" in names
    assert len(set(names)) == len(names)
    assert is_registered("NDPBRIDGE_CACHE")
    assert not is_registered("NDPBRIDGE_SANITIZE")  # every run checks now
    assert not is_registered("NDPBRIDGE_TURBO")


def test_registry_entries_are_justified():
    for knob in ENV_REGISTRY:
        assert knob.justification.strip(), knob.name


# ----------------------------------------------------------------------
# meta: the exec-pool rules through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "ndp" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(RC003_UNDECLARED)
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith(f"{bad}:3:") and " SL013 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in RACE_CODES:
        assert code in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "ndp" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(RC003_UNDECLARED)
    out = tmp_path / "race.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    [run] = report["runs"]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.code for rule in RULES]
    result = run["results"][0]
    assert result["ruleId"] == "SL013"
    assert rule_ids[result["ruleIndex"]] == "SL013"
