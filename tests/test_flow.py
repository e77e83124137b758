"""simflow static-analysis test suite.

Mirrors the simlint suite's contract: every FL rule must (a) catch its
hazard in a positive fixture, (b) stay quiet under a
``# simflow: ignore[RULE]`` comment, and (c) stay quiet on a clean
variant of the same code.  A meta-test asserts the repository's own
protocol layer is clean through the real gate, ``python -m
repro.analyze``, which is what makes the CI flow gate meaningful.
"""

import json

import pytest

from repro.analyze import TOOLS, check_sources
from repro.flow.rules import FLOW_RULE_CODES, FLOW_RULES


def analyze_sources(modules):
    """simflow's findings for ``(path, module_path, source)`` triples."""
    return dict(check_sources(modules))["simflow"]


def codes(source, module_path="repro/bridge/fixture.py", path="fixture.py"):
    return [
        d.rule for d in analyze_sources([(path, module_path, source)])
    ]


# ----------------------------------------------------------------------
# per-rule fixtures: (source, module_path, line_to_suppress)
# ----------------------------------------------------------------------
FIXTURES = {
    # Bare-expression enqueue: the False return is discarded.
    "FL002": (
        "def f(mailbox, msg):\n"
        "    mailbox.enqueue(msg)\n",
        "repro/bridge/fixture.py",
        2,
    ),
    # Rejection branch neither raises nor spills -- a blocking wait.
    "FL003": (
        "def f(buf, msg):\n"
        "    if not buf.push(msg):\n"
        "        pass\n",
        "repro/bridge/fixture.py",
        2,
    ),
    # Private balance-metadata poke from a message handler.
    "FL004": (
        "def handle(self, msg):\n"
        "    self.islent._lent.add(msg.block_id)\n",
        "repro/ndp/fixture.py",
        2,
    ),
}

#: Clean variants of each fixture: same shape, hazard removed.
CLEAN = {
    # The return value is checked.
    "FL002": (
        "def f(mailbox, msg):\n"
        "    if not mailbox.enqueue(msg):\n"
        "        raise RuntimeError('full')\n",
        "repro/bridge/fixture.py",
    ),
    # The rejection branch escapes by spilling to an unbounded store.
    "FL003": (
        "def f(self, buf, msg):\n"
        "    if not buf.push(msg):\n"
        "        self._backlog.append(msg)\n",
        "repro/bridge/fixture.py",
    ),
    # The public API is used instead.
    "FL004": (
        "def handle(self, msg):\n"
        "    self.islent.set_lent(msg.block_id)\n",
        "repro/ndp/fixture.py",
    ),
}


def test_every_rule_has_fixtures():
    assert set(FIXTURES) == set(FLOW_RULE_CODES)
    assert set(CLEAN) == set(FLOW_RULE_CODES)
    assert len(FLOW_RULES) == 3


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
    lines[line - 1] += f"  # simflow: ignore[{code}] fixture justification"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_suppressed_by_bare_ignore(code):
    source, module_path, line = FIXTURES[code]
    lines = source.splitlines()
    lines[line - 1] += "  # simflow: ignore"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(CLEAN))
def test_clean_variant_passes(code):
    source, module_path = CLEAN[code]
    assert code not in codes(source, module_path)


def test_simlint_ignore_does_not_silence_simflow():
    source, module_path, line = FIXTURES["FL002"]
    lines = source.splitlines()
    lines[line - 1] += "  # simlint: ignore"
    assert "FL002" in codes("\n".join(lines) + "\n", module_path)


# ----------------------------------------------------------------------
# scope and rule mechanics
# ----------------------------------------------------------------------
def test_out_of_scope_modules_are_ignored():
    source, _, _ = FIXTURES["FL002"]
    assert codes(source, "repro/analysis/fixture.py") == []
    assert codes(source, "repro/sim/fixture.py") == []


def test_fl003_while_drain_is_sanctioned():
    source = (
        "def drain(self, queue, target):\n"
        "    while queue and target.push(queue[0]):\n"
        "        queue.popleft()\n"
    )
    assert "FL003" not in codes(source)


def test_fl003_local_sink_call_escapes():
    source = (
        "class B:\n"
        "    def _overflow(self, msg):\n"
        "        self._backup.append(msg)\n"
        "    def route(self, msg):\n"
        "        if not self.up.push(msg):\n"
        "            self._overflow(msg)\n"
    )
    assert "FL003" not in codes(source)


def test_syntax_error_reported_not_crashed():
    diags = analyze_sources(
        [("broken.py", "repro/bridge/broken.py", "def f(:\n")]
    )
    assert [d.rule for d in diags] == ["FL000"]


# ----------------------------------------------------------------------
# meta: simflow through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
FL002_SOURCE = "def f(mb, m):\n    mb.enqueue(m)\n"


def test_cli_clean_on_repo_src(analyze_cli):
    proc = analyze_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "simflow: clean" in proc.stdout


def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(FL002_SOURCE)
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith("simflow: ") and " FL002 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in FLOW_RULE_CODES:
        assert code in proc.stdout
    assert "simflow: ignore" in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(FL002_SOURCE)
    out = tmp_path / "flow.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["version"] == "2.1.0"
    assert len(report["runs"]) == len(TOOLS)
    run = report["runs"][1]
    assert run["tool"]["driver"]["name"] == "simflow"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == list(FLOW_RULE_CODES)
    result = run["results"][0]
    assert result["ruleId"] == "FL002"
    assert result["locations"][0]["physicalLocation"]["region"][
        "startLine"
    ] == 2
    assert rule_ids[result["ruleIndex"]] == "FL002"
