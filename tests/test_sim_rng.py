"""Determinism tests for the named RNG streams."""

import pytest

from repro.config import Design, scaled_config
from repro.runtime.system import NDPSystem
from repro.sim import DeterministicRNG


def test_same_seed_same_sequence():
    a = DeterministicRNG(7)
    b = DeterministicRNG(7)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_seeds_differ():
    a = DeterministicRNG(7)
    b = DeterministicRNG(8)
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_substreams_independent_of_draw_order():
    root1 = DeterministicRNG(42)
    _ = [root1.random() for _ in range(5)]
    s1 = root1.substream("unit3")

    root2 = DeterministicRNG(42)
    s2 = root2.substream("unit3")
    assert [s1.random() for _ in range(10)] == [s2.random() for _ in range(10)]


def test_substream_names_disjoint():
    root = DeterministicRNG(1)
    a = root.substream("a")
    b = root.substream("b")
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_nested_substreams():
    r = DeterministicRNG(5)
    x = r.substream("x").substream("y")
    x2 = DeterministicRNG(5).substream("x").substream("y")
    assert x.randint(0, 10**9) == x2.randint(0, 10**9)


def test_helpers_work():
    r = DeterministicRNG(3)
    assert 0 <= r.randint(0, 5) <= 5
    assert r.choice([1, 2, 3]) in (1, 2, 3)
    assert sorted(r.sample(range(10), 3))[0] >= 0
    lst = list(range(6))
    r.shuffle(lst)
    assert sorted(lst) == list(range(6))
    assert 1.0 <= r.uniform(1.0, 2.0) <= 2.0
    assert r.paretovariate(2.0) >= 1.0


@pytest.mark.parametrize("design,streams", [
    (Design.O, 131), (Design.W, 3), (Design.B, 1), (Design.C, 1),
])
def test_system_builds_only_streams_it_draws_from(monkeypatch, design,
                                                  streams):
    """A 128-unit machine (two ranks) builds its root stream plus the
    streams something draws from: a sketch stream per unit on O and a
    policy stream per rank bridge on W and O."""
    built = []
    init = DeterministicRNG.__init__

    def counting(self, seed, name="root"):
        built.append(name)
        init(self, seed, name)

    monkeypatch.setattr(DeterministicRNG, "__init__", counting)
    NDPSystem(scaled_config(128, design))
    assert len(built) == streams


def test_streams_derived_from_root_match_nested_derivation():
    """Deriving ``unit5/sketch`` straight from the root draws the same
    sequence as deriving ``unit5`` and then ``sketch``."""
    system = NDPSystem(scaled_config(128, Design.O))
    root = DeterministicRNG(system.config.seed)
    pairs = [
        (system.units[5].sketch.rng,
         root.substream("unit5").substream("sketch")),
        (system.fabric.rank_bridges[1].policy.rng,
         root.substream("fabric").substream("bridge1").substream("policy")),
    ]
    for got, nested in pairs:
        assert [got.random() for _ in range(8)] == [
            nested.random() for _ in range(8)
        ]
