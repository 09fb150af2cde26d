"""Smoke test of the benchmark itself on a handful of cases per workload.

    python3 -m pytest -q arithbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed, that a traced
run records calls on the layers its workload targets and none on the layers
it bypasses, and that only crashes count as failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

LAW_LAYERS = (
    "modp.factor_mod_p", "padic.padic_factor", "padic.dedekind_p_maximal",
    "symbols.branch_decomposition", "roots.archimedean_places",
    "symbols.archimedean_symbol", "surface.curves_through_point",
    "surface.points_on_vertical", "primes.factor_integer", "intpoly.resultant",
    "surface.points_on_horizontal",
)
LATTICE_LAYERS = (
    "centext.commutator_pairing", "centext.pushforward", "centext.contract",
    "centext.gamma_discrepancy", "centext.pair_data", "centext.apply_lattice",
    "centext.line_norm", "qlinalg.rref", "qlinalg.det", "qlinalg.solve_coords",
    "qlinalg.intersection", "qlinalg.gram_det",
)
# workload -> (cases, layers it must call, module prefixes it must not call)
SMOKE = {
    "laws": (48, LAW_LAYERS, ("qlinalg.", "centext.")),
    "oracle": (2, LATTICE_LAYERS, ("modp.", "padic.")),
    "dense": (36, LATTICE_LAYERS, ("modp.", "padic.")),
}


def run(workload, trace):
    cases = SMOKE[workload][0]
    proc = subprocess.run(
        [sys.executable, "arithbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--cases", str(cases),
         "--trace-cases", str(cases)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return details, result["metrics"]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_end_to_end_metrics(workload):
    details, metrics = run(workload, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert len(details["inputs_sha256"]) == len(details["outputs_sha256"]) == 64


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_traced_layers(workload):
    _, metrics = run(workload, 1)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    _, targets, bypassed = SMOKE[workload]
    for layer in targets:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    for name, m in metrics.items():
        if name.endswith(".calls") and name.startswith(bypassed):
            assert m["value"] == 0, name
    share = metrics["centext.pair_data.coordinate_share"]["value"]
    if workload == "oracle":
        assert share == 1.0
    if workload == "dense":
        assert 0 < share < 1


def test_failed_counts_only_crashes():
    sys.path.insert(0, str(ROOT / "arithbench"))
    import run

    class Refusal(Exception):
        pass

    def call(case):
        if case == "refuse":
            raise Refusal("outside the supported class")
        if case == "crash":
            raise ZeroDivisionError("division by zero")
        return case

    def judge(case, result):
        if result == "ok":
            return run.VERIFIED, result, None
        return "inconclusive", result, "UnsupportedOrder"

    loop = run.run_cases(["ok", "unsure", "refuse", "crash"], call, judge, Refusal, count=4)
    assert loop["verified"] == 1 and loop["crashed"] == 1
    assert loop["outcomes"] == {"crashed.ZeroDivisionError": 1,
                                "inconclusive.UnsupportedOrder": 1, "refused.Refusal": 1}


def test_same_seed_same_fingerprints():
    first, _ = run("laws", 1)
    second, _ = run("laws", 1)
    assert first["inputs_sha256"] == second["inputs_sha256"]
    assert first["outputs_sha256"] == second["outputs_sha256"]


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "arithbench"
    bench.mkdir()
    for path in (ROOT / "arithbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "arithbench/run.py", "--workload", "laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
