"""The event engine's argument checks, which every run makes.

``Simulator.schedule`` and ``schedule_at`` accept only an exact ``int``
time: a float would drift and break bit-identical replays, and a numpy
integer would leak its type into every time derived from it.  Negative
delays and past times keep their ``ValueError``.
"""

import pytest

from repro.sim import SimulationError, Simulator


def noop():
    pass


def test_float_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="delay must be an int"):
        sim.schedule(1.5, noop)
    with pytest.raises(SimulationError, match="delay must be an int"):
        sim.schedule(2.0, noop)  # integral, but still a float
    assert sim.pending_events == 0


def test_float_absolute_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="absolute time must be an int"):
        sim.schedule_at(10.0, noop)
    assert sim.pending_events == 0


def test_numpy_integer_delay_rejected():
    np = pytest.importorskip("numpy")
    sim = Simulator()
    with pytest.raises(SimulationError, match="delay must be an int"):
        sim.schedule(np.int64(3), noop)
    assert sim.pending_events == 0


def test_numpy_integer_absolute_time_rejected():
    np = pytest.importorskip("numpy")
    sim = Simulator()
    with pytest.raises(SimulationError, match="absolute time must be an int"):
        sim.schedule_at(np.int32(3), noop)
    assert sim.pending_events == 0


def test_bool_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="delay must be an int"):
        sim.schedule(True, noop)


def test_non_callable_callback_rejected():
    sim = Simulator()
    sim.schedule(1, "not a function")
    with pytest.raises(TypeError, match="not callable"):
        sim.run()


def test_schedule_into_past_still_raises():
    sim = Simulator()
    with pytest.raises(ValueError, match="past"):
        sim.schedule(-1, noop)
    sim.schedule(10, noop)
    sim.run()
    with pytest.raises(ValueError, match="current time"):
        sim.schedule_at(5, noop)
