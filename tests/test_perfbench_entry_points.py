"""The benchmark's tracer finds the model's entry points by name.

``perfbench/tracer.py`` reads ``cls.__dict__[attr]`` for every entry of
``MODEL_ENTRY_POINTS`` and ``EXEC_ENTRY_POINTS`` and wraps it as a
function or a property.  Renaming, moving or turning one of them into
something else breaks ``perfbench/run.py --trace 1`` with a ``KeyError``
that no other test sees.
"""

import importlib
import types

from perfbench.tracer import EXEC_ENTRY_POINTS, MODEL_ENTRY_POINTS


def test_traced_entry_points_are_functions_or_properties_of_their_class():
    bad = []
    for module, cls_name, attrs in MODEL_ENTRY_POINTS + EXEC_ENTRY_POINTS:
        owner = getattr(importlib.import_module(module), cls_name)
        for attr in attrs:
            value = vars(owner).get(attr)
            if not isinstance(value, (types.FunctionType, property)):
                bad.append(f"{module}.{cls_name}.{attr}: {type(value).__name__}")
    assert not bad, "perfbench traces names that are gone: " + ", ".join(bad)
