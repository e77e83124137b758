"""Determinism tests for the named RNG streams."""

import copy
import pickle
import random

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


#: Arguments of each delegating method; ``shuffle`` and ``random_fn``
#: are drawn apart (see ``_draw``).
ARGS = {
    "random": (),
    "randint": (-5, 10**6),
    "choice": ("abcdefgh",),
    "sample": (range(100), 7),
    "uniform": (1.0, 9.0),
    "expovariate": (0.25,),
    "paretovariate": (1.83,),
}


def _draw(stream, method):
    """One draw of ``method`` from a stream or a ``random.Random``."""
    if method == "random_fn":
        if isinstance(stream, DeterministicRNG):
            return stream.random_fn()()
        return stream.random()
    if method == "shuffle":
        items = list(range(20))
        stream.shuffle(items)
        return items
    return getattr(stream, method)(*ARGS[method])


def _count_derivations(monkeypatch):
    """The stream names seeded from now on, in order."""
    derived = []
    derive = DeterministicRNG._derive

    def counting(seed, name):
        derived.append(name)
        return derive(seed, name)

    monkeypatch.setattr(DeterministicRNG, "_derive", staticmethod(counting))
    return derived


@pytest.mark.parametrize("method", sorted(ARGS) + ["random_fn", "shuffle"])
def test_stream_seeded_on_first_draw_matches_an_eager_one(monkeypatch,
                                                          method):
    """A stream is seeded by its first draw, once, and then draws and
    ends in the state of a ``random.Random`` seeded as it is built."""
    eager = random.Random(DeterministicRNG._derive(23, "root/unit7/sketch"))
    derived = _count_derivations(monkeypatch)
    lazy = DeterministicRNG(23).substream("unit7/sketch")
    assert derived == []
    got = [_draw(lazy, method) for _ in range(5)]
    assert derived == ["root/unit7/sketch"]
    assert got == [_draw(eager, method) for _ in range(5)]
    assert lazy._rng.getstate() == eager.getstate()


def test_building_a_machine_seeds_no_stream(monkeypatch):
    """Of the 131 streams a 128-unit O machine builds, none is seeded
    before something draws from it."""
    derived = _count_derivations(monkeypatch)
    system = NDPSystem(scaled_config(128, Design.O))
    assert derived == []
    system.units[3].sketch.rng.random()
    assert derived == ["root/unit3/sketch"]


@pytest.mark.parametrize("clone", [
    lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_unseeded_stream_clones_like_a_seeded_one(clone):
    """A stream not yet drawn from pickles and copies, as an eagerly
    seeded one did, and the clone draws the stream's sequence."""
    twin = clone(DeterministicRNG(9, "policy"))
    reference = DeterministicRNG(9, "policy")
    assert [twin.random() for _ in range(4)] == [
        reference.random() for _ in range(4)
    ]
