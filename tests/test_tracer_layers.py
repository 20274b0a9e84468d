"""The benchmark tracer wraps cconvex functions by name; a rename or a
removal would only show as an AttributeError under ``perfbench/run.py
--trace 1``.  This reads the tracer's ``LAYERS`` table without importing
the benchmark package."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_layer_exists():
    layers = traced_layers()
    assert "jensen" in layers and "grids" in layers
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"cconvex.{mod}"), name, None))]
    assert missing == []
