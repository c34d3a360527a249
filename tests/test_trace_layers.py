"""Every layer the traced benchmark run wraps must exist in picard_lod.

``perfbench/tracing.py`` patches functions by name; a rename or removal in
the package would otherwise only show up as a silently missing layer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LAYERS = _load_tracing().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_resolves(layer):
    mod_name, attrs = LAYERS[layer]
    mod = importlib.import_module(f"picard_lod.{mod_name}")
    for attr in (attrs,) if isinstance(attrs, str) else attrs:
        obj = mod
        for part in attr.split("."):
            assert hasattr(obj, part), f"{layer}: picard_lod.{mod_name}.{attr} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"{layer}: picard_lod.{mod_name}.{attr} is not callable"
