"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``     one (app, design) pair, printing the paper-style metrics::

    python -m repro run --app tree --design O --units 64 --scale 0.5

``matrix``  the Fig.-10 app x design grid with a speedup table::

    python -m repro matrix --designs C,B,W,O --apps tree,bfs --scale 0.25

``sweep``   one communication parameter across values on design O::

    python -m repro sweep --param g_xfer --values 256,64,1024 --apps tree,pr

Both grids run through :func:`repro.exec.run_matrix`: cells fan out
over worker processes and land in the on-disk result cache.

``designs`` / ``apps``  list what is available.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List

from .analysis.report import (
    energy_table,
    geomean,
    metrics_table,
    speedup_summary,
    text_table,
    to_json,
)
from .apps import APP_CLASSES, EXTENSION_APPS, make_app
from .config import ConfigError, Design, scaled_config, validate_config
from .exec import run_matrix
from .runtime.runner import run_app


def _parse_design(text: str) -> Design:
    try:
        return Design(text.strip().upper())
    except ValueError:
        raise SystemExit(f"unknown design {text!r}; "
                         f"choose from {[d.value for d in Design]}")


def _unique(flag: str, text: str, items: list) -> list:
    if len(set(items)) != len(items):
        raise SystemExit(f"invalid {flag} {text!r}: "
                         f"each value may appear only once")
    return items


def _parse_designs(text: str) -> List[Design]:
    return _unique("--designs", text,
                   [_parse_design(token) for token in text.split(",")])


def _parse_apps(text: str) -> List[str]:
    apps = [a.strip() for a in text.split(",")]
    known = set(APP_CLASSES) | set(EXTENSION_APPS)
    for app_name in apps:
        if app_name not in known:
            raise SystemExit(f"unknown app {app_name!r}; "
                             f"choose from {sorted(known)}")
    return _unique("--apps", text, apps)


def _parse_values(text: str) -> List[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise SystemExit(f"invalid --values {text!r}: {exc}")


def _check_scale(scale: float) -> None:
    if not scale > 0:
        raise SystemExit(f"invalid --scale {scale}: must be positive")


def _config(design: Design, units: int, seed: int):
    try:
        cfg = scaled_config(units, design, seed=seed)
    except ValueError as exc:
        raise SystemExit(f"invalid --units {units}: {exc}")
    try:
        return validate_config(cfg)
    except ConfigError as exc:
        raise SystemExit(f"invalid --seed {seed}: {exc}")


def cmd_run(args) -> int:
    design = _parse_design(args.design)
    _check_scale(args.scale)
    config = _config(design, args.units, args.seed)
    app = make_app(args.app, scale=args.scale, seed=args.seed)
    result = run_app(app, config, verify=not args.no_verify)
    print(metrics_table([result.metrics], title=f"{args.app} on {design.value}"))
    if result.metrics.energy is not None:
        print()
        print(energy_table({f"{args.app}/{design.value}": result.metrics}))
    return 0


def cmd_matrix(args) -> int:
    designs = _parse_designs(args.designs)
    apps = _parse_apps(args.apps)
    _check_scale(args.scale)
    configs = {d.value: _config(d, args.units, args.seed) for d in designs}
    results = run_matrix(apps, configs, scale=args.scale, seed=args.seed)
    if args.json:
        print(to_json(results))
    else:
        print(speedup_summary(
            results, designs[0].value, [d.value for d in designs]
        ))
    return 0


#: ``sweep --param`` name -> the ``CommConfig`` field it sets.
SWEEP_PARAMS = {
    "g_xfer": "g_xfer_bytes",
    "i_state": "i_state_cycles",
    "max_chunks": "max_chunks_per_round",
}


def cmd_sweep(args) -> int:
    """Sweep one communication parameter across values (Fig.-16 style)."""
    apps = _parse_apps(args.apps)
    values = _unique("--values", args.values, _parse_values(args.values))
    _check_scale(args.scale)
    base = _config(Design.O, args.units, args.seed)
    configs = {}
    for value in values:
        cfg = base.replace(
            comm=replace(base.comm, **{SWEEP_PARAMS[args.param]: value})
        )
        try:
            validate_config(cfg)
        except ConfigError as exc:
            raise SystemExit(f"invalid --values {value} for --param "
                             f"{args.param}: {exc}")
        configs[f"{args.param}={value}"] = cfg
    results = run_matrix(apps, configs, scale=args.scale, seed=args.seed)
    # One row per value: its makespan on every app, then its geomean
    # speedup over the first value.
    gm = {
        label: geomean(results[app][label].makespan for app in apps)
        for label in configs
    }
    base_gm = next(iter(gm.values()))
    rows = [
        [label] + [results[app][label].makespan for app in apps]
        + [base_gm / gm[label]]
        for label in configs
    ]
    print(text_table(["variant"] + apps + ["geomean"], rows,
                     title=f"{args.param} sweep (design O)"))
    return 0


def cmd_designs(_args) -> int:
    for design in Design:
        print(f"{design.value}: {design.name}")
    return 0


def cmd_apps(_args) -> int:
    for name in sorted(APP_CLASSES):
        print(name)
    for name in sorted(EXTENSION_APPS):
        print(f"{name} (extension)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NDPBridge (ISCA 2024) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one app on one design")
    run_p.add_argument("--app", required=True,
                       choices=sorted(APP_CLASSES) + sorted(EXTENSION_APPS))
    run_p.add_argument("--design", required=True)
    run_p.add_argument("--units", type=int, default=64)
    run_p.add_argument("--scale", type=float, default=0.25)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--no-verify", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    matrix_p = sub.add_parser("matrix", help="app x design sweep")
    matrix_p.add_argument("--apps", default="tree,bfs,pr")
    matrix_p.add_argument("--designs", default="C,B,W,O")
    matrix_p.add_argument("--units", type=int, default=64)
    matrix_p.add_argument("--scale", type=float, default=0.25)
    matrix_p.add_argument("--seed", type=int, default=42)
    matrix_p.add_argument("--json", action="store_true")
    matrix_p.set_defaults(fn=cmd_matrix)

    sweep_p = sub.add_parser("sweep", help="parameter sweep on design O")
    sweep_p.add_argument("--param", required=True,
                         choices=list(SWEEP_PARAMS))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values, first is baseline")
    sweep_p.add_argument("--apps", default="tree,pr")
    sweep_p.add_argument("--units", type=int, default=64)
    sweep_p.add_argument("--scale", type=float, default=0.25)
    sweep_p.add_argument("--seed", type=int, default=42)
    sweep_p.set_defaults(fn=cmd_sweep)

    sub.add_parser("designs", help="list designs").set_defaults(fn=cmd_designs)
    sub.add_parser("apps", help="list applications").set_defaults(fn=cmd_apps)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
