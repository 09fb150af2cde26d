"""The benchmark's traced layers must name functions that exist, and the
`laws` workload must reach each layer its smoke test expects it to call.

`arithbench/run.py --trace 1` wraps each `module.fn` listed in its LAYERS
and SETUP_LAYERS tuples; a function deleted or moved in the package would
break it.  `arithbench/test_smoke.py` requires calls on each of its
LAW_LAYERS in a traced 48-case seed-7 `laws` run, which the tier-1 suite
does not run; the same check runs here in-process.  The tuples are read with
`ast`, without importing the benchmark.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import arithsurf
from arithsurf.errors import ArithsurfError

BENCH = Path(__file__).resolve().parent.parent / "arithbench"
RUN_PY = BENCH / "run.py"
SMOKE_PY = BENCH / "test_smoke.py"


def _tuples(path, names):
    """The string tuples assigned to the given top-level names in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in names for t in node.targets
        ):
            found.extend(ast.literal_eval(node.value))
    assert found, f"no {' or '.join(names)} tuple found in {path}"
    return sorted(set(found))


def _traced_layers():
    return _tuples(RUN_PY, ("LAYERS", "SETUP_LAYERS"))


@pytest.mark.parametrize("layer", _traced_layers())
def test_bench_layer_resolves(layer):
    module, fn = layer.split(".")
    assert callable(getattr(importlib.import_module(f"arithsurf.{module}"), fn, None))


def test_laws_workload_calls_every_law_layer(monkeypatch):
    spec = importlib.util.spec_from_file_location("arithbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.law_pool(arithsurf, workloads.Draws("laws", 7), 48)
    call, _ = workloads.law_runner(arithsurf)
    layers = _tuples(SMOKE_PY, ("LAW_LAYERS",))
    calls = Counter()
    modules = [m for n, m in list(sys.modules.items())
               if n == "arithsurf" or n.startswith("arithsurf.")]

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # like the benchmark's tracer: replace the function under every module
    # name that holds it, since the package binds with `from .x import y`
    for layer in layers:
        module, fn = layer.split(".")
        original = getattr(importlib.import_module(f"arithsurf.{module}"), fn)
        wrapper = counting(layer, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapper)
    for case in pool:
        try:
            call(case)
        except ArithsurfError:
            pass
    assert [layer for layer in layers if not calls[layer]] == []
