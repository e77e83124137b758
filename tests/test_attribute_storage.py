"""Hot model objects keep their attributes where CPython indexes them.

CPython 3.11 lets the instances of a class share one key table for at
most 30 attribute names (``SHARED_KEYS_MAX_SIZE``).  An instance that
sets a 31st attribute gets an ordinary dict of its own, and every
``self.x`` on it becomes a hinted hash lookup (``LOAD_ATTR_WITH_HINT``)
instead of an indexed load.  So a model class keeps at most 30
attributes or declares ``__slots__``; the two largest, ``NDPUnit`` and
``Level1Bridge``, are slotted.
"""

import pytest

from repro.apps import make_app
from repro.bridge.level1 import Level1Bridge
from repro.config import Design, scaled_config
from repro.ndp.unit import NDPUnit
from repro.runtime.runner import build_system

from .conftest import component_registry

#: CPython 3.11's ``SHARED_KEYS_MAX_SIZE``.
SHARED_KEYS_MAX = 30

#: Classes that must be slotted, and must therefore carry no dict.
SLOTTED = (NDPUnit, Level1Bridge)


def briefly_run(design):
    """A 128-unit system of ``design`` (the host baseline at its own
    size) partway through a small linked-list run."""
    system = build_system(scaled_config(128, design, seed=17))
    app = make_app("ll", scale=0.05, seed=17)
    app.attach(system)
    app.seed_tasks(system)
    if design is Design.H:
        system.run()
    else:
        system.start()
        system.advance(20_000)
    return system


@pytest.mark.parametrize("design", list("CBWORH"))
def test_model_objects_fit_the_shared_key_limit(design):
    system = briefly_run(Design(design))
    registry = component_registry(system)
    kinds = {type(obj).__name__ for obj in registry.values()}
    expected = {"Simulator", "RunTracker", "StatsRegistry"}
    if design != "H":
        expected |= {"NDPUnit", "DRAMBank", "Mailbox", "L1Cache"}
    if design in "BWO":
        expected |= {"Level1Bridge", "Level2Bridge", "Link",
                     "MessageBuffer"}
    assert expected <= kinds, expected - kinds
    oversized = {
        path: len(vars(obj)) for path, obj in registry.items()
        if hasattr(obj, "__dict__") and len(vars(obj)) > SHARED_KEYS_MAX
    }
    assert not oversized, oversized
    for path, obj in registry.items():
        if isinstance(obj, SLOTTED):
            assert not hasattr(obj, "__dict__"), path


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda c: c.__name__)
def test_hot_classes_have_no_dict(cls):
    """Neither the class nor a base gives its instances a ``__dict__``."""
    assert "__slots__" in vars(cls)
    assert not any("__dict__" in vars(klass) for klass in cls.__mro__)
