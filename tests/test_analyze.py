"""The static-analysis core, :mod:`repro.analyze`, beyond any one rule.

The rule fixtures and their path through the real gate live in
``tests/test_{lint,flow,state,race}.py``.  This module pins what the
core decides for every rule at once: which files the gate is given and
checks, and which module path -- and so which rule scope -- each file
gets.  It also pins that a simulation run never loads the analyzers,
and that the rule reference in ``docs/analysis.md`` names exactly the
rules the gate runs.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import check_sources, module_path_of
from repro.lint.rules import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the files the gate is given
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "where",
    [["no_such_dir"], ["empty"], ["missing.py"], ["src", "missing.py"]],
    ids=["no_such_dir", "empty", "missing.py", "src-missing.py"],
)
def test_no_python_files_is_a_usage_error(where, analyze_cli, tmp_path):
    # A mistyped CI path must fail the gate, not pass it unchecked, even
    # next to a real one.
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("x = 1\n")
    proc = analyze_cli(
        *(str(REPO_ROOT / w if w == "src" else tmp_path / w) for w in where)
    )
    assert proc.returncode == 2
    assert "no python files" in proc.stderr


@pytest.mark.parametrize("reverse", [False, True], ids=["a-b", "b-a"])
def test_every_file_is_checked_when_two_share_a_module_path(
    reverse, analyze_cli, tmp_path
):
    hazards = {
        "repro/bridge/x.py": "def f(buf, msg):\n    buf.push(msg)\n",
        "repro/sim/y.py": "seen = {}\n",
    }
    for where in ("a", "b"):
        for module_path, source in hazards.items():
            path = tmp_path / where / module_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    proc = analyze_cli(*(dirs[::-1] if reverse else dirs))
    assert proc.returncode == 1
    found = sorted(
        row.split(" ")[1]
        for row in proc.stdout.splitlines()
        if " SL011 " in row or " SL009 " in row
    )
    assert found == ["SL009", "SL009", "SL011", "SL011"]
    for where in ("a", "b"):
        for module_path in hazards:
            assert str(tmp_path / where / module_path) in proc.stdout


# ----------------------------------------------------------------------
# rule scoping must not depend on where the checkout lives
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path,module_path",
    [
        ("/x/repro/src/repro/sim/rng.py", "repro/sim/rng.py"),
        ("src/repro/sim/engine.py", "repro/sim/engine.py"),
        ("benchmarks/bench_x.py", "bench_x.py"),
    ],
)
def test_module_path_of_takes_the_last_repro_component(path, module_path):
    assert module_path_of(Path(path)) == module_path


def test_exemptions_ignore_directories_above_the_package():
    path = "/x/scripts/src/repro/sim/bad.py"
    source = (
        "import os\nimport time\n"
        "t = time.time()\n"
        "v = os.environ['NDPBRIDGE_SECRET']\n"
    )
    found = check_sources([(path, module_path_of(Path(path)), source)])
    assert {"SL001", "SL013"} <= {d.rule for d in found}


# ----------------------------------------------------------------------
# the runtime never loads the analyzers
# ----------------------------------------------------------------------
def _run_probe(checks, **env):
    """Run ``checks`` in a fresh interpreter after a plain run of ``ll``
    and an import of ``repro.exec``, which pool workers import."""
    probe = (
        "import sys\n"
        "from repro import Design, make_app, run_app\n"
        "from repro.config import tiny_config\n"
        "import repro.exec\n"
        "run_app(make_app('ll', scale=0.05, seed=1), "
        "tiny_config(Design.B))\n"
        + checks
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin", **env},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_and_exec_import_no_analyzer():
    """Zero fast-path cost: a plain run loads no analyzer, no checking
    code and no sharded-engine module."""
    _run_probe(
        "banned = ('repro.analyze', 'repro.lint')\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith(banned) or 'shard' in m)\n"
        "assert not loaded, f'plain run imported {loaded}'\n"
    )


# ----------------------------------------------------------------------
# the rule reference documents exactly the rules the gate runs
# ----------------------------------------------------------------------
def test_analysis_doc_rule_tables_match_tools():
    doc = (REPO_ROOT / "docs" / "analysis.md").read_text()
    tables = doc.split("\n## Rule table\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| ([A-Z]{2}\d{3}) \|", tables, re.M)
    codes = [rule.code for rule in RULES]
    assert sorted(documented) == sorted(codes)
