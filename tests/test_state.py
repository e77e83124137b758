"""Tests of simlint's two module-state rules and of the gate as a whole.

SL009 (no module- or class-level mutable state) and SL010 (no RNG built
outside the ``sim/rng.py`` named-stream facade) guard what a pool worker
carries from one simulated cell to the next.  Their hazard fixtures sit
with every other simlint rule's in ``tests/test_lint.py``; this module
holds their clean variants, scope, exemptions and allowlist entries.
Meta-tests run them through the real gate, ``python -m repro.analyze``,
and pin the gate's cross-family text and SARIF output.
"""

import json

import pytest

from repro.analyze import ALLOWLIST, TOOLS, check_sources
from repro.lint.rules import RULES

from .test_lint import FIXTURES

STATE_CODES = ("SL009", "SL010")


def analyze_sources(modules):
    """simlint's findings for ``(path, module_path, source)`` triples."""
    return dict(check_sources(modules))["simlint"]


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [
        d.rule for d in analyze_sources([(path, module_path, source)])
    ]


#: Clean variants of each hazard fixture: same shape, hazard removed.
CLEAN = {
    # ALL_CAPS literal table: a read-only constant, exempt.
    "SL009": (
        "LIMITS = {'depth': 4, 'fanout': 8}\n"
        "def limit(k):\n"
        "    return LIMITS[k]\n",
        "repro/bridge/fixture.py",
    ),
    # Substreams derived from the system root are the sanctioned path.
    "SL010": (
        "def jitter(rng):\n"
        "    return rng.substream('link').random()\n",
        "repro/links/fixture.py",
    ),
}

#: An empty container is useful only if something fills it, so an
#: ALL_CAPS name does not make it a constant table.
EMPTY_CONTAINERS = {
    "module-dict": "_CACHE = {}\n",
    "module-list": "SEEN = []\n",
    "annotated-dict": "MEMO: dict = {}\n",
    "class-list": "class Thing:\n    POOL = []\n",
}


def test_every_rule_has_fixtures():
    assert set(STATE_CODES) <= {rule.code for rule in RULES}
    assert set(STATE_CODES) <= set(FIXTURES)
    assert set(CLEAN) == set(STATE_CODES)


@pytest.mark.parametrize("code", sorted(CLEAN))
def test_clean_variant_passes(code):
    source, module_path = CLEAN[code]
    assert code not in codes(source, module_path)


@pytest.mark.parametrize("name", sorted(EMPTY_CONTAINERS))
def test_empty_all_caps_container_is_state(name):
    assert "SL009" in codes(EMPTY_CONTAINERS[name], "repro/sim/thing.py")


def test_other_family_ignore_does_not_silence_state_rules():
    source, module_path, line = FIXTURES["SL009"]
    lines = source.splitlines()
    lines[line - 1] += "  # simflow: ignore  # simrace: ignore"
    assert "SL009" in codes("\n".join(lines) + "\n", module_path)


def test_allowlisted_module_is_exempt():
    # repro/runtime/task.py carries a real SL009 allowlist entry (the
    # monotonic task-id counter); the same hazard at that path is quiet,
    # and loud one directory over.
    source = "ids = {}\n"
    assert "SL009" not in codes(source, "repro/runtime/task.py")
    assert "SL009" in codes(source, "repro/runtime/other.py")


def test_allowlist_entries_are_validated():
    all_codes = {rule.code for tool in TOOLS for rule in tool.rules}
    for entry in ALLOWLIST:
        assert entry.rule in all_codes
        assert entry.justification.strip()


# ----------------------------------------------------------------------
# scope and exemptions
# ----------------------------------------------------------------------
def test_out_of_scope_modules_are_ignored():
    source, _, _ = FIXTURES["SL009"]
    assert codes(source, "repro/analysis/fixture.py") == []
    assert codes(source, "repro/exec/fixture.py") == []


def test_dunder_module_metadata_is_exempt():
    source = "__all__ = ['a', 'b']\n"
    assert "SL009" not in codes(source, "repro/sim/fixture.py")


def test_syntax_error_reported_not_crashed():
    # One <prefix>000 finding from each family whose scope holds it.
    results = check_sources(
        [("broken.py", "repro/bridge/broken.py", "def f(:\n")]
    )
    assert [d.rule for _, diags in results for d in diags] == [
        "SL000", "FL000", "RC000",
    ]


# ----------------------------------------------------------------------
# meta: the state rules through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
def test_cli_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src", "benchmarks", "scripts")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "simlint: clean" in proc.stdout


def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("seen = {}\n")
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith("simlint: ") and " SL009 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in STATE_CODES:
        assert code in proc.stdout
    for entry in ALLOWLIST:
        if entry.rule in STATE_CODES:
            assert f"{entry.rule}  {entry.module}" in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("seen = {}\n")
    out = tmp_path / "state.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["version"] == "2.1.0"
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.code for rule in RULES]
    result = run["results"][0]
    assert result["ruleId"] == "SL009"
    assert rule_ids[result["ruleIndex"]] == "SL009"


# ----------------------------------------------------------------------
# the gate across all three families
# ----------------------------------------------------------------------
def test_analyze_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for tool in ("simlint", "simflow", "simrace"):
        assert f"{tool}: clean" in proc.stdout
    assert "analyze: clean -- 3 tools" in proc.stdout


def test_analyze_exit_1_and_tool_prefix(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    # One file tripping two different tools at once.
    bad.write_text("seen = {}\ndef f(mb, m):\n    mb.enqueue(m)\n")
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert "simlint: " in proc.stdout and "SL009" in proc.stdout
    assert "simflow: " in proc.stdout and "FL002" in proc.stdout


def test_analyze_merged_sarif(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("seen = {}\n")
    out = tmp_path / "merged.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    names = [r["tool"]["driver"]["name"] for r in report["runs"]]
    assert names == [tool.name for tool in TOOLS]
    assert names == ["simlint", "simflow", "simrace"]
    lint_run = report["runs"][0]
    assert [r["ruleId"] for r in lint_run["results"]] == ["SL009"]
