"""The benchmark's traced layers must name functions that exist.

`arithbench/run.py --trace 1` wraps each `module.fn` listed in its LAYERS
and SETUP_LAYERS tuples; a function deleted or moved in the package would
break it.  The tuples are read with `ast`, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "arithbench" / "run.py"


def _traced_layers():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("LAYERS", "SETUP_LAYERS")
            for t in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    assert names, f"no LAYERS tuple found in {RUN_PY}"
    return sorted(set(names))


@pytest.mark.parametrize("layer", _traced_layers())
def test_bench_layer_resolves(layer):
    module, fn = layer.split(".")
    assert callable(getattr(importlib.import_module(f"arithsurf.{module}"), fn, None))
