"""The static-analysis core, :mod:`repro.analyze`, beyond any one family.

Each family's rule fixtures and its path through the real gate live in
``tests/test_{lint,flow,state,race}.py``.  This module pins what the
core decides for all four at once: which files the gate is given, and
which module path -- and so which rule scope -- each file gets.
"""

from pathlib import Path

import pytest

from repro.analyze import check_sources, module_path_of


# ----------------------------------------------------------------------
# the files the gate is given
# ----------------------------------------------------------------------
@pytest.mark.parametrize("where", ["no_such_dir", "empty"])
def test_no_python_files_is_a_usage_error(where, analyze_cli, tmp_path):
    # A mistyped CI path must fail the gate, not pass it unchecked.
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("x = 1\n")
    proc = analyze_cli(str(tmp_path / where))
    assert proc.returncode == 2
    assert "no python files" in proc.stderr


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
    results = dict(check_sources([(path, module_path_of(Path(path)), source)]))
    assert "SL001" in [d.rule for d in results["simlint"]]
    assert "RC003" in [d.rule for d in results["simrace"]]
