"""The benchmark's traced layers must name functions that exist, and the
`laws` and `oracle` workloads must reach each layer they are expected to call.

`arithbench/run.py --trace 1` wraps each `module.fn` listed in its LAYERS
and SETUP_LAYERS tuples; a function deleted or moved in the package would
break it.  `arithbench/test_smoke.py` requires calls on each of its
LAW_LAYERS in a traced 48-case seed-7 `laws` run, which the tier-1 suite
does not run; the same check runs here in-process, and one on the layers
that a seeded `oracle` pool reaches (ORACLE_LAYERS).  The tuples are read with
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


def _workloads():
    spec = importlib.util.spec_from_file_location("arithbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _layer_calls(monkeypatch, layers, call, pool):
    """Calls on each layer while `call` runs the pool's cases in-process."""
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
    return calls


def test_laws_workload_calls_every_law_layer(monkeypatch):
    workloads = _workloads()
    pool = workloads.law_pool(arithsurf, workloads.Draws("laws", 7), 48)
    call, _ = workloads.law_runner(arithsurf)
    layers = _tuples(SMOKE_PY, ("LAW_LAYERS",))
    calls = _layer_calls(monkeypatch, layers, call, pool)
    assert [layer for layer in layers if not calls[layer]] == []


# The oracle's traced layers.  Every lattice of the oracle is a tail, so of
# the smoke test's LATTICE_LAYERS it reaches neither centext.gamma_discrepancy
# nor centext.line_norm (contraction scalar and unit norms are 1 on tails) nor
# qlinalg.rref, qlinalg.solve_coords, qlinalg.intersection or qlinalg.gram_det
# (no elimination runs on tails): the smoke test's `oracle` check reads 0 on
# those six.
ORACLE_LAYERS = ("centext.commutator_pairing", "centext.pushforward", "centext.contract",
                 "centext.pair_data", "centext.apply_lattice", "qlinalg.det")


def test_oracle_workload_calls_every_oracle_layer(monkeypatch):
    assert set(ORACLE_LAYERS) < set(_tuples(SMOKE_PY, ("LATTICE_LAYERS",)))
    workloads = _workloads()
    pool = workloads.oracle_pool(arithsurf, workloads.Draws("oracle", 7), 12)
    call, judge = workloads.oracle_runner(arithsurf)
    calls = _layer_calls(monkeypatch, ORACLE_LAYERS, lambda case: judge(case, call(case)), pool)
    assert [layer for layer in ORACLE_LAYERS if not calls[layer]] == []


PROBES = ("_is_coordinate", "_probe_pair_data", "_probe_rref", "_probe_pairing")


def _probes():
    """The traced benchmark's probe functions, compiled from their
    definitions in run.py without running the rest of it."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    defs = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in PROBES]
    assert sorted(node.name for node in defs) == sorted(PROBES)
    namespace = {}
    exec(compile(ast.Module(body=defs, type_ignores=[]), str(RUN_PY), "exec"), namespace)
    return namespace


class _Counts:
    """The benchmark tracer's count(), keeping every call."""

    def __init__(self):
        self.seen = []

    def count(self, name, k=1):
        self.seen.append((name, k))


def test_bench_probes_read_tails_general_lattices_and_pairings(monkeypatch):
    """`--trace 1` runs these probes on the arguments of pair_data, rref and
    commutator_pairing; here they run on the same calls of an oracle pairing
    (every lattice a tail) and of a sum and intersection of general
    lattices, so an attribute they read that the package renames fails."""
    from arithsurf import centext, qlinalg

    probes = _probes()
    tracer = _Counts()
    for module, name, probe in ((centext, "pair_data", "_probe_pair_data"),
                                (qlinalg, "rref", "_probe_rref"),
                                (centext, "rref", "_probe_rref"),
                                (centext, "commutator_pairing", "_probe_pairing")):
        def probed(*args, _fn=getattr(module, name), _probe=probes[probe]):
            _probe(tracer, args)
            return _fn(*args)
        monkeypatch.setattr(module, name, probed)

    window = (-1, 2)
    g, h = (centext.mult_operator(arithsurf.parse_laurent(text), window)
            for text in ("t + 3*t^2", "2*t^-1"))
    centext.commutator_pairing(g, h, centext.standard_lattice(window))
    A = centext.Lattice(3, [(1, 1, 0), (0, 0, 2)])
    B = centext.Lattice(3, [(0, 1, 1)])
    centext.lattice_sum(A, B)
    centext.lattice_intersection(A, B)

    counts = Counter((name, k) for name, k in tracer.seen if name != "rref.cells")
    assert counts[("pairing.dim", 4)] == 1
    assert counts[("pair_data.coordinate", True)] > 0
    assert counts[("pair_data.coordinate", False)] == 1
    assert ("rref.cells", 6) in tracer.seen  # the basis of A, 2 x 3
    assert probes["_is_coordinate"](centext.standard_lattice(window))
    assert not probes["_is_coordinate"](A)
