"""simstate static-analysis test suite.

Mirrors the simlint/simflow contract: every ST rule must (a) catch its
hazard in a positive fixture, (b) stay quiet under a
``# simstate: ignore[RULE]`` comment, and (c) stay quiet on a clean
variant of the same code.  Allowlisted module paths are exercised with
a real allowlist entry.  Meta-tests assert the repository's own
simulation tree is clean through the real gate, ``python -m
repro.analyze``, and pin the gate's cross-family text and SARIF output.
A live system, paused mid-run, holds no attribute the inventory does
not declare.
"""

import json
from pathlib import Path

import pytest

from repro.analyze import ALLOWLIST, TOOLS, build_tree_inventory, check_sources
from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.runtime.runner import build_system
from repro.state.rules import STATE_RULE_CODES, STATE_RULES

from .conftest import attr_names, component_registry

REPO_ROOT = Path(__file__).resolve().parent.parent


def analyze_sources(modules):
    """simstate's findings for ``(path, module_path, source)`` triples."""
    return dict(check_sources(modules))["simstate"]


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [
        d.rule for d in analyze_sources([(path, module_path, source)])
    ]


# ----------------------------------------------------------------------
# per-rule fixtures: (source, module_path, line_to_suppress)
# ----------------------------------------------------------------------
FIXTURES = {
    # Attribute materialized mid-run, invisible to the inventory.
    "ST001": (
        "class Unit:\n"
        "    def __init__(self):\n"
        "        self.busy = False\n"
        "    def step(self):\n"
        "        self.backlog = []\n",
        "repro/ndp/fixture.py",
        5,
    ),
    # Module-level mutable cache: a pool worker keeps it across cells.
    "ST003": (
        "seen = {}\n"
        "def mark(k):\n"
        "    seen[k] = True\n",
        "repro/bridge/fixture.py",
        1,
    ),
    # RNG built outside the named-stream facade.
    "ST004": (
        "import random\n"
        "def jitter():\n"
        "    return random.Random(7).random()\n",
        "repro/links/fixture.py",
        3,
    ),
}

#: Clean variants of each fixture: same shape, hazard removed.
CLEAN = {
    # The attribute is declared at construction time.
    "ST001": (
        "class Unit:\n"
        "    def __init__(self):\n"
        "        self.busy = False\n"
        "        self.backlog = []\n"
        "    def step(self):\n"
        "        self.backlog = []\n",
        "repro/ndp/fixture.py",
    ),
    # ALL_CAPS literal table: a read-only constant, exempt.
    "ST003": (
        "LIMITS = {'depth': 4, 'fanout': 8}\n"
        "def limit(k):\n"
        "    return LIMITS[k]\n",
        "repro/bridge/fixture.py",
    ),
    # Substreams derived from the system root are the sanctioned path.
    "ST004": (
        "def jitter(rng):\n"
        "    return rng.substream('link').random()\n",
        "repro/links/fixture.py",
    ),
}


def test_every_rule_has_fixtures():
    assert set(FIXTURES) == set(STATE_RULE_CODES)
    assert set(CLEAN) == set(STATE_RULE_CODES)
    assert len(STATE_RULES) == 3


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
    lines[line - 1] += f"  # simstate: ignore[{code}] fixture justification"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_suppressed_by_bare_ignore(code):
    source, module_path, line = FIXTURES[code]
    lines = source.splitlines()
    lines[line - 1] += "  # simstate: ignore"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(CLEAN))
def test_clean_variant_passes(code):
    source, module_path = CLEAN[code]
    assert code not in codes(source, module_path)


def test_simlint_ignore_does_not_silence_simstate():
    source, module_path, line = FIXTURES["ST003"]
    lines = source.splitlines()
    lines[line - 1] += "  # simlint: ignore"
    assert "ST003" in codes("\n".join(lines) + "\n", module_path)


def test_allowlisted_module_is_exempt():
    # repro/runtime/task.py carries a real ST003 allowlist entry (the
    # monotonic task-id counter); the same hazard at that path is quiet,
    # and loud one directory over.
    source = "ids = {}\n"
    assert "ST003" not in codes(source, "repro/runtime/task.py")
    assert "ST003" in codes(source, "repro/runtime/other.py")


def test_allowlist_entries_are_validated():
    all_codes = {rule.code for tool in TOOLS for rule in tool.rules}
    for entry in ALLOWLIST:
        assert entry.rule in all_codes
        assert entry.justification.strip()


# ----------------------------------------------------------------------
# scope, inheritance, and inventory mechanics
# ----------------------------------------------------------------------
def test_out_of_scope_modules_are_ignored():
    source, _, _ = FIXTURES["ST003"]
    assert codes(source, "repro/analysis/fixture.py") == []
    assert codes(source, "repro/exec/fixture.py") == []


def test_st001_sees_cross_module_inheritance():
    base = (
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.cursor = 0\n"
    )
    child = (
        "class Child(Base):\n"
        "    def step(self):\n"
        "        self.cursor += 1\n"
    )
    diags = analyze_sources([
        ("base.py", "repro/sim/base_fixture.py", base),
        ("child.py", "repro/ndp/child_fixture.py", child),
    ])
    assert [d.rule for d in diags] == []


def test_st001_flags_dynamic_setattr():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def poke(self, name):\n"
        "        setattr(self, name, 1)\n"
    )
    assert "ST001" in codes(source)


def test_dunder_module_metadata_is_exempt():
    source = "__all__ = ['a', 'b']\n"
    assert "ST003" not in codes(source, "repro/sim/fixture.py")


def test_syntax_error_reported_not_crashed():
    diags = analyze_sources(
        [("broken.py", "repro/bridge/broken.py", "def f(:\n")]
    )
    assert [d.rule for d in diags] == ["ST000"]


def test_tree_inventory_covers_component_classes():
    inv = build_tree_inventory([REPO_ROOT / "src"])
    units = inv.classes_named("NDPUnit")
    assert units, "NDPUnit missing from the tree inventory"
    declared = inv.declared_attrs(units[0])
    assert "sim" in declared  # assigned in NDPUnit.__init__


def test_verify_inventory_clean_on_live_system():
    """Every attribute a paused live system holds is statically declared
    (ST001's promise), for every class the inventory knows."""
    inventory = build_tree_inventory([REPO_ROOT / "src"])
    app = make_app("tree", scale=0.1, seed=7)
    system = build_system(tiny_config(Design.O))
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=5000)

    problems = []
    for path, obj in component_registry(system).items():
        classes = inventory.classes_named(type(obj).__name__)
        if not classes:
            continue
        declared = inventory.declared_attrs(classes[0])
        for attr in attr_names(obj):
            if attr in declared:
                continue
            # An instance attribute shadowing a method or property is an
            # instrumentation wrapper (the sanitizer's scheduling hooks,
            # the flow auditor's observers), not model state of its own.
            shadowed = getattr(type(obj), attr, None)
            if callable(shadowed) or isinstance(shadowed, property):
                continue
            problems.append(
                f"{path} ({type(obj).__name__}) holds undeclared "
                f"attribute '{attr}'"
            )
    assert problems == [], "\n".join(problems)
    system.finish()


# ----------------------------------------------------------------------
# meta: simstate through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
def test_cli_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "simstate: clean" in proc.stdout


def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("seen = {}\n")
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith("simstate: ") and " ST003 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in STATE_RULE_CODES:
        assert code in proc.stdout
    assert "simstate: ignore" in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("seen = {}\n")
    out = tmp_path / "state.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["version"] == "2.1.0"
    run = report["runs"][2]
    assert run["tool"]["driver"]["name"] == "simstate"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.code for rule in STATE_RULES]
    result = run["results"][0]
    assert result["ruleId"] == "ST003"
    assert rule_ids[result["ruleIndex"]] == "ST003"


def test_cli_inventory_dump(analyze_cli, tmp_path):
    out = tmp_path / "inventory.json"
    proc = analyze_cli("--inventory", "-o", str(out), "src/repro/ndp")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(out.read_text())
    assert any("ndp" in key for key in data)


# ----------------------------------------------------------------------
# the gate across all four families
# ----------------------------------------------------------------------
def test_analyze_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for tool in ("simlint", "simflow", "simstate", "simrace"):
        assert f"{tool}: clean" in proc.stdout
    assert "analyze: clean -- 4 tools" in proc.stdout


def test_analyze_exit_1_and_tool_prefix(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    # One file tripping two different tools at once.
    bad.write_text("seen = {}\ndef f(mb, m):\n    mb.enqueue(m)\n")
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert "simstate: " in proc.stdout and "ST003" in proc.stdout
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
    assert names == ["simlint", "simflow", "simstate", "simrace"]
    state_run = report["runs"][2]
    assert [r["ruleId"] for r in state_run["results"]] == ["ST003"]
