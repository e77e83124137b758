"""Tests of simlint's two message-protocol rules.

SL011 (every bounded ``enqueue``/``push`` handles the False return) and
SL012 (every rejection branch escapes instead of waiting) guard the
bounded bridge buffers of the paper's Section V-A; they were simflow's
FL002 and FL003.  Their hazard fixtures sit with every other simlint
rule's in ``tests/test_lint.py``; this module holds their clean
variants, scope and escape patterns (test names keep the former codes).
Meta-tests run them through the real gate, ``python -m repro.analyze``.
"""

import json

import pytest

from repro.analyze import check_sources
from repro.lint.rules import RULES

from .test_lint import FIXTURES

FLOW_CODES = ("SL011", "SL012")


def codes(source, module_path="repro/bridge/fixture.py", path="fixture.py"):
    return [d.rule for d in check_sources([(path, module_path, source)])]


#: Clean variants of each hazard fixture: same shape, hazard removed.
CLEAN = {
    # The return value is checked.
    "SL011": (
        "def f(mailbox, msg):\n"
        "    if not mailbox.enqueue(msg):\n"
        "        raise RuntimeError('full')\n",
        "repro/bridge/fixture.py",
    ),
    # The rejection branch escapes by spilling to an unbounded store.
    "SL012": (
        "def f(self, buf, msg):\n"
        "    if not buf.push(msg):\n"
        "        self._backlog.append(msg)\n",
        "repro/bridge/fixture.py",
    ),
}


def test_every_rule_has_fixtures():
    assert set(FLOW_CODES) <= {rule.code for rule in RULES}
    assert set(FLOW_CODES) <= set(FIXTURES)
    assert set(CLEAN) == set(FLOW_CODES)


@pytest.mark.parametrize("code", sorted(CLEAN))
def test_clean_variant_passes(code):
    source, module_path = CLEAN[code]
    assert code not in codes(source, module_path)


# ----------------------------------------------------------------------
# scope and rule mechanics
# ----------------------------------------------------------------------
def test_out_of_scope_modules_are_ignored():
    source, _, _ = FIXTURES["SL011"]
    assert codes(source, "repro/analysis/fixture.py") == []
    assert codes(source, "repro/sim/fixture.py") == []


def test_fl003_while_drain_is_sanctioned():
    source = (
        "def drain(self, queue, target):\n"
        "    while queue and target.push(queue[0]):\n"
        "        queue.popleft()\n"
    )
    assert "SL012" not in codes(source)


def test_fl003_local_sink_call_escapes():
    source = (
        "class B:\n"
        "    def _overflow(self, msg):\n"
        "        self._backup.append(msg)\n"
        "    def route(self, msg):\n"
        "        if not self.up.push(msg):\n"
        "            self._overflow(msg)\n"
    )
    assert "SL012" not in codes(source)


def test_syntax_error_reported_not_crashed():
    assert codes("def f(:\n", "repro/bridge/broken.py") == ["SL000"]


# ----------------------------------------------------------------------
# meta: the protocol rules through the real gate, python -m repro.analyze
# ----------------------------------------------------------------------
SL011_SOURCE = "def f(mb, m):\n    mb.enqueue(m)\n"


def test_cli_exit_1_on_finding(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(SL011_SOURCE)
    proc = analyze_cli(str(bad))
    assert proc.returncode == 1
    assert any(
        row.startswith(f"{bad}:2:") and " SL011 " in row
        for row in proc.stdout.splitlines()
    ), proc.stdout


def test_cli_list_rules(analyze_cli):
    proc = analyze_cli("--list-rules")
    assert proc.returncode == 0
    for code in FLOW_CODES:
        assert code in proc.stdout


def test_cli_sarif_output(analyze_cli, tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(SL011_SOURCE)
    out = tmp_path / "flow.sarif"
    proc = analyze_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["version"] == "2.1.0"
    [run] = report["runs"]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [rule.code for rule in RULES]
    result = run["results"][0]
    assert result["ruleId"] == "SL011"
    assert result["locations"][0]["physicalLocation"]["region"][
        "startLine"
    ] == 2
    assert rule_ids[result["ruleIndex"]] == "SL011"
