"""The one remaining shard value: ``shards=1`` pins the serial engine.

The sharded conservative-window engine is gone; ``run_app`` keeps its
``shards`` keyword for callers that pin the engine explicitly.  Two
contracts stay:

* ``shards=1`` is bit-identical to a plain ``run_app`` across the full
  app x design matrix -- the keyword selects the serial engine and
  perturbs nothing;
* any other value raises ``ConfigError`` instead of silently running
  something else.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigError, Design, tiny_config

APPS = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"]
NDP_DESIGNS = [Design.C, Design.B, Design.W, Design.O]


@pytest.mark.parametrize("design", NDP_DESIGNS)
@pytest.mark.parametrize("app", APPS)
def test_one_shard_matches_serial(app, design):
    """shards=1 through ``run_app`` == plain run_app."""
    from repro import make_app, run_app

    cfg = tiny_config(design)
    serial = run_app(make_app(app, scale=0.1, seed=7), cfg)
    pinned = run_app(make_app(app, scale=0.1, seed=7), cfg, shards=1)
    assert pinned.metrics.as_dict() == serial.metrics.as_dict()


def test_explicit_shards_are_strict():
    from repro import make_app, run_app

    for shards in (0, 2, 4):
        with pytest.raises(ConfigError, match="sharded engine was removed"):
            run_app(make_app("ll", scale=0.05), tiny_config(Design.O),
                    shards=shards)
