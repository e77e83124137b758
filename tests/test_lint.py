"""simlint test suite.

Every rule must (a) catch its hazard in a positive fixture, (b) stay
quiet when the finding line carries a ``# simlint: ignore[RULE]``
comment, and (c) stay quiet when the module is allowlisted.  A meta-test
asserts the repository's own ``src/`` tree is clean through the real
gate, ``python -m repro.analyze``, which is what makes the CI gate
meaningful.
"""

import json

import pytest

from repro.analyze import (
    ALLOWLIST,
    TOOLS,
    AllowlistEntry,
    check_sources,
    is_allowlisted,
    iter_python_files,
)
from repro.lint.rules import RULES

RULE_CODES = [rule.code for rule in RULES]


def lint(source, module_path="repro/sim/fixture.py", path="fixture.py"):
    """simlint's findings for one module."""
    return dict(check_sources([(path, module_path, source)]))["simlint"]


def codes(source, module_path="repro/sim/fixture.py", path="fixture.py"):
    return [d.rule for d in lint(source, module_path, path)]


# ----------------------------------------------------------------------
# per-rule fixtures: (source, module_path, line_to_suppress)
# ----------------------------------------------------------------------
FIXTURES = {
    "SL001": (
        "import time\n"
        "def f():\n"
        "    return time.time()\n",
        "repro/sim/fixture.py",
        3,
    ),
    "SL002": (
        "import random\n"
        "def f():\n"
        "    return random.random()\n",
        "repro/balance/fixture.py",
        1,
    ),
    "SL003": (
        "def f(sim, banks):\n"
        "    for b in set(banks):\n"
        "        sim.schedule(1, b)\n",
        "repro/bridge/fixture.py",
        2,
    ),
    "SL004": (
        "class L:\n"
        "    def f(self, n):\n"
        "        self.delay = n / 2\n",
        "repro/links/fixture.py",
        3,
    ),
    "SL005": (
        "from repro.sim import Component\n"
        "class B(Component):\n"
        "    def f(self, xs=[]):\n"
        "        return xs\n",
        "repro/ndp/fixture.py",
        3,
    ),
    "SL006": (
        "def f(sim, tasks):\n"
        "    for t in tasks:\n"
        "        sim.schedule(1, lambda: go(t))\n",
        "repro/ndp/fixture.py",
        3,
    ),
    "SL007": (
        "def key_of(name):\n"
        "    return hash(name) % 64\n",
        "repro/runtime/fixture.py",
        2,
    ),
    "SL008": (
        "def f(xs):\n"
        "    return sorted(xs, key=lambda x: id(x))\n",
        "repro/bridge/fixture.py",
        2,
    ),
}


def test_every_rule_has_a_fixture():
    assert set(FIXTURES) == set(RULE_CODES)
    assert len(RULES) >= 6


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_fires_on_hazard(code):
    source, module_path, _ = FIXTURES[code]
    assert code in codes(source, module_path), (
        f"{code} failed to detect its hazard fixture"
    )


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_suppressed_by_ignore_comment(code):
    source, module_path, line = FIXTURES[code]
    lines = source.splitlines()
    lines[line - 1] += f"  # simlint: ignore[{code}] fixture justification"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_suppressed_by_bare_ignore(code):
    source, module_path, line = FIXTURES[code]
    lines = source.splitlines()
    lines[line - 1] += "  # simlint: ignore"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_respects_allowlist(code, monkeypatch):
    source, module_path, _ = FIXTURES[code]
    entry = AllowlistEntry(
        rule=code,
        module=module_path,
        justification="fixture: testing the allowlist mechanism",
    )
    monkeypatch.setattr("repro.analyze.ALLOWLIST", ALLOWLIST + (entry,))
    assert code not in codes(source, module_path)


# ----------------------------------------------------------------------
# negatives: sanctioned idioms must NOT be flagged
# ----------------------------------------------------------------------
def test_sorted_set_iteration_is_clean():
    src = (
        "def f(sim, banks):\n"
        "    for b in sorted(set(banks)):\n"
        "        sim.schedule(1, b)\n"
    )
    assert codes(src, "repro/bridge/fixture.py") == []


def test_set_membership_without_iteration_is_clean():
    src = (
        "def f(sim, live, uid):\n"
        "    live = set(live)\n"
        "    if uid in live:\n"
        "        sim.schedule(1, print)\n"
    )
    assert codes(src, "repro/bridge/fixture.py") == []


def test_set_attribute_iteration_is_flagged():
    src = (
        "class B:\n"
        "    def __init__(self):\n"
        "        self._pending = set()\n"
        "    def f(self, sim):\n"
        "        for uid in self._pending:\n"
        "            sim.schedule(1, print)\n"
    )
    assert "SL003" in codes(src, "repro/bridge/fixture.py")


def test_int_laundered_division_is_clean():
    src = (
        "import math\n"
        "class L:\n"
        "    def f(self, n, bw):\n"
        "        self.delay = math.ceil(n / bw)\n"
        "        self.busy_cycles = int(n / bw)\n"
    )
    assert codes(src, "repro/links/fixture.py") == []


def test_float_time_outside_scoped_dirs_is_clean():
    source, _, _ = FIXTURES["SL004"]
    assert codes(source, "repro/analysis/fixture.py") == []


def test_bandwidth_names_are_not_time_names():
    src = "class L:\n    def f(self, n):\n        self.bytes_per_cycle = n / 2\n"
    assert codes(src, "repro/links/fixture.py") == []


def test_default_bound_lambda_is_clean():
    src = (
        "def f(sim, tasks):\n"
        "    for t in tasks:\n"
        "        sim.schedule(1, lambda t=t: go(t))\n"
    )
    assert codes(src, "repro/ndp/fixture.py") == []


def test_wall_clock_allowed_in_benchmarks():
    src = "import time\nstart = time.time()\n"
    diags = lint(src, path="benchmarks/bench_x.py", module_path="bench_x.py")
    assert diags == []


def test_lambda_outside_loop_is_clean():
    src = "def f(sim, task):\n    sim.schedule(1, lambda: go(task))\n"
    assert codes(src, "repro/ndp/fixture.py") == []


def test_comprehension_lambda_is_flagged():
    src = (
        "def f(sim, tasks):\n"
        "    return [sim.schedule(1, lambda: go(t)) for t in tasks]\n"
    )
    assert "SL006" in codes(src, "repro/ndp/fixture.py")


def test_id_in_comparison_is_flagged():
    src = (
        "def f(a, b):\n"
        "    return id(a) < id(b)\n"
    )
    assert "SL008" in codes(src, "repro/sim/fixture.py")


def test_id_outside_scoped_dirs_is_clean():
    source, _, _ = FIXTURES["SL008"]
    assert codes(source, "repro/analysis/fixture.py") == []


def test_plain_id_call_is_clean():
    # id() as an identity probe (e.g. caching, debug) is fine; only
    # ordering on it is nondeterministic.
    src = (
        "def f(xs, seen):\n"
        "    return [x for x in xs if id(x) not in seen]\n"
    )
    assert codes(src, "repro/bridge/fixture.py") == []


# ----------------------------------------------------------------------
# machinery
# ----------------------------------------------------------------------
def test_allowlist_entries_carry_justifications():
    all_codes = {rule.code for tool in TOOLS for rule in tool.rules}
    for entry in ALLOWLIST:
        assert entry.justification.strip(), entry
        assert entry.rule in all_codes, entry


def test_rng_module_is_allowlisted_for_sl002():
    assert is_allowlisted("SL002", "repro/sim/rng.py")
    assert codes("import random\n", "repro/sim/rng.py") == []


def test_diagnostic_format_is_greppable():
    source, module_path, line = FIXTURES["SL002"]
    diags = lint(source, path="x/y.py", module_path=module_path)
    assert diags and diags[0].format().startswith(f"x/y.py:{line}:")
    assert " SL002 " in diags[0].format()


def test_syntax_error_reported_not_crashed():
    diags = lint("def f(:\n", path="broken.py", module_path="broken.py")
    assert [d.rule for d in diags] == ["SL000"]


def test_iter_python_files_deterministic_order(tmp_path):
    for name in ("b.py", "a.py", "c.txt"):
        (tmp_path / name).write_text("x = 1\n")
    files = iter_python_files([tmp_path])
    assert [f.name for f in files] == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# meta: simlint through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
SL001_SOURCE = "import time\nt = time.time()\n"


def test_cli_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "simlint: clean" in proc.stdout


def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(SL001_SOURCE)
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith("simlint: ") and " SL001 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in RULE_CODES:
        assert code in proc.stdout
    assert "simlint: ignore" in proc.stdout
    # Every allowlist entry is shown, whichever family it exempts.
    for entry in ALLOWLIST:
        assert f"{entry.rule}  {entry.module}" in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(SL001_SOURCE)
    out = tmp_path / "lint.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["version"] == "2.1.0"
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == RULE_CODES
    result = run["results"][0]
    assert result["ruleId"] == "SL001"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] >= 1  # SARIF columns are 1-based
    # ruleIndex must point back into the driver rule table.
    assert rule_ids[result["ruleIndex"]] == "SL001"


def test_cli_sarif_clean_is_exit_0(analyze_cli, tmp_path):
    good = tmp_path / "repro" / "sim" / "ok.py"
    good.parent.mkdir(parents=True)
    good.write_text("x = 1\n")
    proc = analyze_cli("--format", "sarif", str(good))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert len(report["runs"]) == len(TOOLS)
    assert all(run["results"] == [] for run in report["runs"])
