"""The `dense` workload's outputs, pinned by digest.

The two pairing goldens reach only a few `centext` values; these digests pin
every judged output (Prop A, Prop B and gamma of exact sequences) of the
benchmark's `dense` pool, so a change to the linear algebra under them that
moves a value shows here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import arithsurf

# sha256 over the judge outputs of the benchmark's `dense` pool of 60 cases,
# one line per case
DENSE_DIGESTS = {
    1: "5f3fa68a87fad8e86337a415cafe65c95f01e06ca8cd3c5256e2453efcf508d3",
    7: "92084268f449f2947fa96113a9bf5bdd2cab56b4a6f1e23a67ca1e2b519119b7",
}


def _dense_digest(seed, size=60):
    """The digest that DENSE_DIGESTS pins for the seed."""
    path = Path(__file__).resolve().parent.parent / "arithbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("arithbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    call, judge = workloads.dense_runner(arithsurf)
    digest = hashlib.sha256()
    for case in workloads.dense_pool(arithsurf, workloads.Draws("dense", seed), size):
        digest.update(judge(case, call(case))[1].encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DENSE_DIGESTS))
def test_dense_outputs_match_their_digest(seed):
    """Every value is exact and canonical, so a faster kernel leaves these
    digests alone."""
    assert _dense_digest(seed) == DENSE_DIGESTS[seed], (
        f"the dense outputs at seed {seed} moved; if that is meant, re-derive the digest "
        "with PYTHONPATH=src python -c \"import sys; sys.path.insert(0, 'tests'); "
        f"from test_dense_digest import _dense_digest as d; print(d({seed}))\" "
        "and put it in DENSE_DIGESTS")
