"""simrace static-analysis test suite (rules RC002, RC003, RC005).

Mirrors the simlint/simflow contract: every RC rule must
(a) catch its hazard in a positive fixture, (b) stay quiet under a
``# simrace: ignore[RULE]`` comment, and (c) stay quiet on a clean
variant of the same code.  The environment-knob registry is exercised
directly, and meta-tests assert the repository's own tree is clean
through the real gate, ``python -m repro.analyze`` -- plus the gate's
``--baseline`` mode.
"""

import json

import pytest

from repro.analyze import baseline_fingerprints, check_sources
from repro.exec.knobs import ENV_REGISTRY, is_registered
from repro.race.rules import RACE_RULE_CODES, RACE_RULES


def race_source(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    """simrace's findings for one module."""
    return dict(check_sources([(path, module_path, source)]))["simrace"]


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [
        d.rule
        for d in race_source(source, path=path, module_path=module_path)
    ]


# ----------------------------------------------------------------------
# RC002 -- process-boundary payload safety
# ----------------------------------------------------------------------
RC002_LAMBDA = """\
from concurrent.futures import ProcessPoolExecutor

def run():
    pool = ProcessPoolExecutor()
    pool.submit(lambda: 1)
"""

RC002_CLOSURE = """\
from concurrent.futures import ProcessPoolExecutor

def run(xs):
    def job():
        return sum(xs)
    with ProcessPoolExecutor() as pool:
        pool.submit(job)
"""

RC002_OPEN = """\
from concurrent.futures import ProcessPoolExecutor

def run(fn):
    fh = open("trace.log")
    with ProcessPoolExecutor() as pool:
        return pool.submit(fn, fh)
"""

RC002_GENERATOR = """\
from concurrent.futures import ProcessPoolExecutor

def run(fn, xs):
    with ProcessPoolExecutor() as pool:
        pool.map(fn, (x * 2 for x in xs))
"""

RC002_CLEAN = """\
from concurrent.futures import ProcessPoolExecutor

def job(x):
    return x + 1

def run(xs):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(job, xs))
"""


def test_rc002_lambda_argument():
    assert codes(RC002_LAMBDA, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_closure_argument():
    assert codes(RC002_CLOSURE, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_open_handle_in_builders():
    assert codes(RC002_OPEN, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_generator_argument():
    assert codes(RC002_GENERATOR, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_module_level_callable_is_clean():
    assert codes(RC002_CLEAN, module_path="repro/exec/x.py") == []


# ----------------------------------------------------------------------
# RC003 -- declared environment knobs
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
    assert codes(RC003_UNDECLARED, module_path="repro/exec/x.py") == ["RC003"]


def test_rc003_non_literal_name():
    assert codes(RC003_NONLITERAL, module_path="repro/exec/x.py") == ["RC003"]


def test_rc003_environ_subscript():
    assert codes(RC003_SUBSCRIPT, module_path="repro/exec/x.py") == ["RC003"]


def test_rc003_registered_knobs_are_clean():
    assert codes(RC003_CLEAN, module_path="repro/exec/x.py") == []


def test_rc003_benchmarks_are_exempt():
    assert codes(
        RC003_UNDECLARED,
        module_path="bench.py",
        path="benchmarks/bench.py",
    ) == []


# ----------------------------------------------------------------------
# RC005 -- worker-context independence
# ----------------------------------------------------------------------
RC005_PID = "import os\n\ndef tag():\n    return os.getpid()\n"
RC005_START = (
    "import multiprocessing\n\n"
    "def mode():\n    return multiprocessing.get_start_method()\n"
)
RC005_CLEAN = "import os\n\ndef sep():\n    return os.sep\n"


def test_rc005_pid_read():
    assert codes(RC005_PID, module_path="repro/ndp/unit.py") == ["RC005"]


def test_rc005_start_method_read():
    assert codes(RC005_START, module_path="repro/sim/engine.py") == ["RC005"]


def test_rc005_context_free_os_use_is_clean():
    assert codes(RC005_CLEAN, module_path="repro/ndp/unit.py") == []


def test_rc005_out_of_scope_module_is_clean():
    # exec/ is parent-side orchestration; pid reads there are fine
    # (the cache uses one for tempfile naming).
    assert codes(RC005_PID, module_path="repro/exec/cache.py") == []


# ----------------------------------------------------------------------
# suppression
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "source,module_path,code",
    [
        (RC002_LAMBDA, "repro/exec/x.py", "RC002"),
        (RC003_UNDECLARED, "repro/exec/x.py", "RC003"),
        (RC005_PID, "repro/ndp/unit.py", "RC005"),
    ],
)
def test_simrace_ignore_silences_rule(source, module_path, code):
    lines = source.splitlines()
    diag = race_source(source, module_path=module_path)[0]
    lines[diag.line - 1] += f"  # simrace: ignore[{code}] fixture"
    assert codes("\n".join(lines) + "\n", module_path=module_path) == []


def test_simlint_ignore_does_not_silence_simrace():
    lines = RC005_PID.splitlines()
    lines[-1] += "  # simlint: ignore[RC005]"
    assert codes("\n".join(lines) + "\n") == ["RC005"]


def test_syntax_error_yields_rc000():
    assert codes("def broken(:\n") == ["RC000"]


# ----------------------------------------------------------------------
# the environment-knob registry
# ----------------------------------------------------------------------
def test_registry_covers_known_knobs():
    names = [knob.name for knob in ENV_REGISTRY]
    assert "NDPBRIDGE_JOBS" in names
    assert len(set(names)) == len(names)
    assert is_registered("NDPBRIDGE_SANITIZE")
    assert not is_registered("NDPBRIDGE_TURBO")


def test_registry_entries_are_justified():
    for knob in ENV_REGISTRY:
        assert knob.justification.strip(), knob.name


# ----------------------------------------------------------------------
# meta: simrace through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
def test_cli_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "simrace: clean" in proc.stdout


def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "ndp" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(RC003_UNDECLARED)
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith("simrace: ") and " RC003 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in RACE_RULE_CODES:
        assert code in proc.stdout
    assert "simrace: ignore" in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "ndp" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(RC003_UNDECLARED)
    out = tmp_path / "race.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    run = report["runs"][2]
    assert run["tool"]["driver"]["name"] == "simrace"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.code for rule in RACE_RULES]
    result = run["results"][0]
    assert result["ruleId"] == "RC003"
    assert rule_ids[result["ruleIndex"]] == "RC003"


# ----------------------------------------------------------------------
# the gate's --baseline mode
# ----------------------------------------------------------------------
def _bad_tree(tmp_path):
    bad = tmp_path / "repro" / "ndp" / "bad.py"
    bad.parent.mkdir(parents=True)
    # Trips simlint (SL009, a mutable module global) and simrace (RC003)
    # at once.
    bad.write_text("seen = {}\n" + RC003_UNDECLARED)
    return bad


def test_analyze_baseline_suppresses_known_findings(analyze_cli, tmp_path):
    bad = _bad_tree(tmp_path)
    baseline = tmp_path / "baseline.sarif"
    first = analyze_cli("--format", "sarif", "-o", str(baseline), str(bad))
    assert first.returncode == 1
    again = analyze_cli("--baseline", str(baseline), str(bad))
    assert again.returncode == 0, again.stdout + again.stderr
    assert "baseline finding(s) suppressed" in again.stdout
    assert "analyze: clean" in again.stdout


def test_analyze_baseline_fails_on_new_finding(analyze_cli, tmp_path):
    bad = _bad_tree(tmp_path)
    baseline = tmp_path / "baseline.sarif"
    analyze_cli("--format", "sarif", "-o", str(baseline), str(bad))
    # A brand-new hazard in a second file is NOT in the baseline.
    worse = bad.parent / "worse.py"
    worse.write_text(RC005_PID)
    proc = analyze_cli("--baseline", str(baseline), str(bad.parent))
    assert proc.returncode == 1
    assert "RC005" in proc.stdout
    assert "new finding(s)" in proc.stdout


def test_analyze_baseline_ignores_line_shifts(analyze_cli, tmp_path):
    bad = _bad_tree(tmp_path)
    baseline = tmp_path / "baseline.sarif"
    analyze_cli("--format", "sarif", "-o", str(baseline), str(bad))
    prints = baseline_fingerprints(json.loads(baseline.read_text()))
    assert prints
    # Shift every finding down ten lines; fingerprints must not change.
    bad.write_text("\n" * 10 + bad.read_text())
    proc = analyze_cli("--baseline", str(baseline), str(bad))
    assert proc.returncode == 0, proc.stdout
