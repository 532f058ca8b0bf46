"""The benchmark's layer tracer must find every entry point it wraps.

``perfbench/layers.py`` wraps public functions and methods by name from
outside the program: a method through ``owner.__dict__[name]``, so it must
be defined in its class body, and a function as a module attribute.  A
rename or a move that breaks one of those lookups would only surface when
the benchmark runs; this test catches it in the fast suite.
"""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

_LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.ENTRY_POINTS


@pytest.mark.parametrize("entry", _entry_points(), ids=lambda entry: f"{entry[0]}:{entry[1]}")
def test_entry_point_resolves(entry):
    module_name, path, _layer, _count, _is_iter = entry
    module = import_module(module_name)
    owner_name, _, name = path.rpartition(".")
    if owner_name:
        target = vars(getattr(module, owner_name)).get(name)
    else:
        target = getattr(module, name, None)
    assert callable(target), f"{module_name}.{path} does not resolve to a callable"
