"""The `oracle` workload's exact pairings, pinned by digest.

The benchmark judges the window oracle by its 30-digit logarithm; these
digests pin the exact value (q, r) of q * sqrt(r) = <mult-f, mult-g>_A on the
exact window for every case of the benchmark's `oracle` pool, so a change to
the lattice code under it that moves a value shows here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import arithsurf
from arithsurf.centext import auto_window, commutator_pairing, mult_operator, standard_lattice

# sha256 over the exact pairings of the benchmark's `oracle` pool of 120
# cases, one line "q r" per case
ORACLE_DIGESTS = {
    1: "366d2794511edf591db01912664f34953c458fe87173bb0794678354977ee134",
    7: "8da183a4abfcb0c6b71423bd0dea90dbd37b3e7280427662e850181bf5675324",
}


def _oracle_digest(seed, size=120):
    """The digest that ORACLE_DIGESTS pins for the seed."""
    path = Path(__file__).resolve().parent.parent / "arithbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("arithbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digest = hashlib.sha256()
    for case in workloads.oracle_pool(arithsurf, workloads.Draws("oracle", seed), size):
        f, g = case.data
        window = auto_window(f, g)
        value = commutator_pairing(mult_operator(f, window), mult_operator(g, window),
                                   standard_lattice(window))
        digest.update(f"{value.q} {value.r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(ORACLE_DIGESTS))
def test_oracle_pairings_match_their_digest(seed):
    """Every pairing is exact and canonical, so a change that only takes a
    different path to it leaves these digests alone."""
    assert _oracle_digest(seed) == ORACLE_DIGESTS[seed], (
        f"the oracle pairings at seed {seed} moved; if that is meant, re-derive the digest "
        "with PYTHONPATH=src python -c \"import sys; sys.path.insert(0, 'tests'); "
        f"from test_oracle_digest import _oracle_digest as d; print(d({seed}))\" "
        "and put it in ORACLE_DIGESTS")
