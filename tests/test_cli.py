"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def no_cells(monkeypatch):
    """Fail the test if any cell reaches the simulator."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran before the arguments were checked")

    monkeypatch.setattr("repro.cli.run_app", refuse)
    monkeypatch.setattr("repro.cli.run_matrix", refuse)


def test_run_command(capsys):
    rc = main([
        "run", "--app", "ht", "--design", "B",
        "--units", "64", "--scale", "0.05", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ht" in out
    assert "makespan" in out
    assert "energy" in out


def test_matrix_command(capsys):
    rc = main([
        "matrix", "--apps", "ht", "--designs", "C,B",
        "--units", "64", "--scale", "0.05",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "geomean" in out
    assert "speedup over design C" in out


def test_matrix_json(capsys):
    rc = main([
        "matrix", "--apps", "ht", "--designs", "C,B",
        "--units", "64", "--scale", "0.05", "--json",
    ])
    assert rc == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert "ht" in payload and "B" in payload["ht"]


def test_designs_and_apps_lists(capsys):
    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "O" in out
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "tree" in out


def test_unknown_design_rejected(no_cells):
    with pytest.raises(SystemExit):
        main(["matrix", "--designs", "Z", "--apps", "ht"])
    with pytest.raises(SystemExit, match="unknown design 'Z'"):
        main(["run", "--app", "ht", "--design", "Z"])
    # A repeated design would print a duplicated column.
    with pytest.raises(SystemExit, match="invalid --designs 'C,c'"):
        main(["matrix", "--designs", "C,c", "--apps", "ht"])


def test_unknown_app_rejected(no_cells):
    with pytest.raises(SystemExit):
        main(["matrix", "--designs", "C", "--apps", "sorting"])
    # Rejected before any cell reaches the worker pool.
    with pytest.raises(SystemExit, match="unknown app 'nope'"):
        main(["sweep", "--param", "g_xfer", "--values", "128",
              "--apps", "nope"])
    # A repeated app would simulate each of its cells twice.
    with pytest.raises(SystemExit, match="invalid --apps 'll,ll'"):
        main(["matrix", "--designs", "C", "--apps", "ll,ll"])
    with pytest.raises(SystemExit, match="invalid --apps 'll,ll'"):
        main(["sweep", "--param", "g_xfer", "--values", "128",
              "--apps", "ll,ll"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--param", "i_state", "--values", "1000,4000",
        "--apps", "ht", "--units", "64", "--scale", "0.05",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "i_state sweep" in out
    assert "i_state=1000" in out and "i_state=4000" in out


def test_sweep_rejects_unknown_param():
    with pytest.raises(SystemExit):
        main(["sweep", "--param", "bogus", "--values", "1"])
    with pytest.raises(SystemExit, match="invalid --values '128,abc'"):
        main(["sweep", "--param", "g_xfer", "--values", "128,abc",
              "--apps", "ht"])
    # Each of these is a one-line usage error before any cell runs.
    with pytest.raises(SystemExit, match="invalid --values '128,128'"):
        main(["sweep", "--param", "g_xfer", "--values", "128,128",
              "--apps", "ht"])
    with pytest.raises(SystemExit, match="G_xfer .100. must be a multiple"):
        main(["sweep", "--param", "g_xfer", "--values", "100",
              "--apps", "ht"])
    with pytest.raises(SystemExit, match="I_state must be positive"):
        main(["sweep", "--param", "i_state", "--values", "0",
              "--apps", "ht"])
    with pytest.raises(SystemExit, match="at least one G_xfer chunk"):
        main(["sweep", "--param", "max_chunks", "--values", "0",
              "--apps", "ht"])


def test_invalid_units_friendly_error(no_cells):
    with pytest.raises(SystemExit, match="invalid --units"):
        main(["run", "--app", "ht", "--design", "B", "--units", "10",
              "--scale", "0.05"])
    # Multiples of 64 below one rank used to simulate 64 units.
    with pytest.raises(SystemExit, match="invalid --units 0"):
        main(["run", "--app", "ht", "--design", "B", "--units", "0"])
    with pytest.raises(SystemExit, match="invalid --units -64"):
        main(["matrix", "--apps", "ht", "--designs", "C", "--units", "-64"])
    with pytest.raises(SystemExit, match="invalid --units 0"):
        main(["sweep", "--param", "g_xfer", "--values", "128",
              "--apps", "ht", "--units", "0"])


@pytest.mark.parametrize("command", [
    ["run", "--app", "ht", "--design", "B"],
    ["matrix", "--apps", "ht", "--designs", "C"],
    ["sweep", "--param", "g_xfer", "--values", "128,256", "--apps", "ht"],
])
def test_invalid_scale_and_seed_rejected(command, no_cells):
    for scale in ("0", "-1"):
        with pytest.raises(SystemExit, match=f"invalid --scale {scale}"):
            main(command + ["--scale", scale])
    with pytest.raises(SystemExit,
                       match="invalid --seed -1: seed must be non-negative"):
        main(command + ["--seed", "-1"])


def test_apps_lists_extensions(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "join (extension)" in out
    assert "tc (extension)" in out
