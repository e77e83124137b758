"""Tests of simlint's two module-state rules and of the gate as a whole.

SL009 (no module- or class-level mutable state) and SL010 (no RNG built
outside the ``sim/rng.py`` named-stream facade) guard what a pool worker
carries from one simulated cell to the next.  Their hazard fixtures sit
with every other simlint rule's in ``tests/test_lint.py``; this module
holds their clean variants, scope, exemptions and allowlist entries.
Meta-tests run them through the real gate, ``python -m repro.analyze``,
and pin the gate's text and SARIF output when one file trips two rules.
"""

import json

import pytest

from repro.analyze import ALLOWLIST, check_sources
from repro.lint.rules import RULE_CODES, RULES

from .test_lint import FIXTURES

STATE_CODES = ("SL009", "SL010")


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [d.rule for d in check_sources([(path, module_path, source)])]


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
    # The retired families' comments are no suppression syntax.
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
    for entry in ALLOWLIST:
        assert entry.rule in RULE_CODES
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
    # One SL000 finding, wherever the module sits.
    assert codes("def f(:\n", "repro/bridge/broken.py") == ["SL000"]


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
        row.startswith(f"{bad}:1:") and " SL009 " in row
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
    [run] = report["runs"]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.code for rule in RULES]
    result = run["results"][0]
    assert result["ruleId"] == "SL009"
    assert rule_ids[result["ruleIndex"]] == "SL009"


# ----------------------------------------------------------------------
# the gate as a whole
# ----------------------------------------------------------------------
def test_analyze_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "simlint: clean\n"


def test_analyze_exit_1_and_tool_prefix(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    # One file tripping a state rule and a protocol rule at once: one
    # row per finding, in line order, then one verdict.
    bad.write_text("seen = {}\ndef f(mb, m):\n    mb.enqueue(m)\n")
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    rows = proc.stdout.splitlines()
    assert [row.split(" ")[1] for row in rows[:-1]] == ["SL009", "SL011"]
    assert rows[0].startswith(f"{bad}:1:0: SL009 ")
    assert rows[1].startswith(f"{bad}:3:4: SL011 ")
    assert rows[-1] == "simlint: 2 finding(s)"


def test_analyze_merged_sarif(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("seen = {}\ndef f(mb, m):\n    mb.enqueue(m)\n")
    out = tmp_path / "merged.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    [run] = report["runs"]
    assert run["tool"]["driver"]["name"] == "simlint"
    assert [r["ruleId"] for r in run["results"]] == ["SL009", "SL011"]
