"""arithsurf benchmark: one closed-loop caller timing the public functions of
the package from outside.

    python3 arithbench/run.py --workload laws --seed 1 --seconds 50 --trace 0

Run from the root of a source tree; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it holds the details
(fingerprints, tail percentile, outcomes by type, raw times, environment),
which are also written to arithbench/results/ with the spans of a traced run.
End-to-end times are on the reference clock (refclock.py).  A wrong answer
exits 1; a source tree without src/arithsurf exits 2.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "arithsurf"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from refclock import REF_SECONDS, RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import VERIFIED, WORKLOADS, Draws, WrongAnswer  # noqa: E402

# Cases generated per run: about what a 50-second run gets through at the
# seed's speed, so it seldom comes back to a case it has already run; a faster
# program wraps round (see pool_passes in the details).
POOL_SIZE = {"laws": 5000, "oracle": 120, "dense": 800}
# Cases run by --trace 1 untraced, traced, then untraced again: a fixed prefix
# of the pool, so call counts repeat exactly for a seed.
TRACE_CASES = {"laws": 800, "oracle": 12, "dense": 90}
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# The highest percentile with at least 10 samples above it in a 50-second run
# at three quarters of the seed's speed (about 3200 laws cases, 55 oracle pairs,
# 350 dense cases), fixed so that runs of different lengths report the same one.
TAIL_PERCENTILE = {"laws": 99, "oracle": 80, "dense": 95}

LAYERS = (
    "laws.verify_point_law",
    "laws.verify_vertical_law",
    "laws.verify_horizontal_law",
    "primes.factor_integer",
    "intpoly.resultant",
    "modp.factor_mod_p",
    "padic.padic_factor",
    "padic.dedekind_p_maximal",
    "roots.archimedean_places",
    "surface.curves_through_point",
    "surface.points_on_vertical",
    "surface.points_on_horizontal",
    "symbols.branch_decomposition",
    "symbols.archimedean_symbol",
    "centext.nu_arch_oracle",
    "centext.prop_b_check",
    "centext.group_mul",
    "centext.gamma_sequence",
    "centext.commutator_pairing",
    "centext.pushforward",
    "centext.contract",
    "centext.gamma_discrepancy",
    "centext.pair_data",
    "centext.apply_lattice",
    "centext.line_norm",
    "qlinalg.rref",
    "qlinalg.det",
    "qlinalg.solve_coords",
    "qlinalg.intersection",
    "qlinalg.gram_det",
)
SETUP_LAYERS = ("qlinalg.rref", "qlinalg.det")
LAW_INCONCLUSIVE = ("UnsupportedOrder", "UnsupportedFactorization",
                    "InsufficientPrecision", "FactorizationTimeout")


def _is_coordinate(lattice):
    """Is the lattice spanned by standard basis vectors?  Read from its rref
    basis, whose rows are then unit vectors."""
    rows = getattr(lattice, "rref_basis", None) or lattice.basis
    return all(sum(1 for x in row if x) == 1 for row in rows)


def _probe_pair_data(tracer, args):
    tracer.count("pair_data.coordinate", all(_is_coordinate(L) for L in args[:2]))


def _probe_rref(tracer, args):
    rows = args[0]
    if isinstance(rows, (list, tuple)) and rows:
        tracer.count("rref.cells", len(rows) * len(rows[0]))


def _probe_pairing(tracer, args):
    if len(args) > 2:
        tracer.count("pairing.dim", args[2].n)


PROBES = {
    "centext.pair_data": _probe_pair_data,
    "qlinalg.rref": _probe_rref,
    "centext.commutator_pairing": _probe_pairing,
}


def import_package():
    """Import arithsurf from ./src afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "arithsurf" or n.startswith("arithsurf.")]:
        del sys.modules[name]
    if sys.path[0] != str(PACKAGE_DIR.parent):
        sys.path.insert(0, str(PACKAGE_DIR.parent))
    import arithsurf

    if Path(arithsurf.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise ImportError(f"arithsurf imported from {arithsurf.__file__}, not {PACKAGE_DIR}")
    return arithsurf


def make_pool(workload, ars, seed, size, tick=None):
    return WORKLOADS[workload][0](ars, Draws(workload, seed, tick), size)


def setup(workload, seed, size):
    """Import plus input generation, repeated; returns the last package and
    pool, and the median time raw and on the reference clock, with reference
    samples taken between generated cases as in the timed loop."""
    ref = RefClock()
    ref.warm_up()
    raw = []
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S:
        start, spent = ref.tick(), ref.spent()
        ars = import_package()
        pool = make_pool(workload, ars, seed, size, ref.tick)
        raw.append(time.perf_counter() - start - (ref.spent() - spent))
    gc.collect()  # the earlier imports' module cycles, so the timed loop does not pay for them
    setup_s = statistics.median(raw)
    return ars, pool, setup_s, setup_s * ref.scale()


def run_cases(pool, call, judge, refusal, seconds=None, count=None, tracer=None, ref=None):
    """Closed loop over the pool: the next case starts when the previous one
    returns.  Stops after `count` cases or once `seconds` have passed.

    A case is verified, inconclusive (a verdict the judge accepts as correct
    but not conclusive), refused (it raised `refusal`, the package's typed
    error) or crashed (it raised anything else).  With a RefClock `ref`,
    reference samples are taken between cases; they count in no case and not
    in busy_s."""
    latencies, outcomes = [], Counter()
    verified = crashed = 0
    outputs = hashlib.sha256()
    clock = time.perf_counter
    if ref is not None:
        ref.warm_up()
        spent = ref.spent()
    start = clock()
    i = 0
    while count is None or i < count:
        case = pool[i % len(pool)]
        if tracer is not None:
            tracer.case = i
        t0 = clock() if ref is None else ref.tick()
        try:
            result = call(case)
            error = None
        except Exception as exc:  # every refusal or crash is counted, by type
            error = exc
        t1 = clock()
        if tracer is not None:
            tracer.case = -1
        latencies.append(t1 - t0)
        if error is None:
            status, out, reason = judge(case, result)
        else:
            status = "refused" if isinstance(error, refusal) else "crashed"
            reason = type(error).__name__
            out = f"{reason}: {error}"
        if status == VERIFIED:
            verified += 1
        else:
            outcomes[f"{status}.{reason}"] += 1
            crashed += status == "crashed"
        if i < len(pool):
            outputs.update(hashlib.sha256(out.encode()).digest())
        i += 1
        if seconds is not None and t1 - start >= seconds:
            break
    wall_s = clock() - start
    return {
        "wall_s": wall_s,
        "busy_s": wall_s - (ref.spent() - spent if ref is not None else 0.0),
        "latencies": latencies,
        "verified": verified,
        "crashed": crashed,
        "outcomes": dict(sorted(outcomes.items())),
        "outputs_sha256": outputs.hexdigest(),
        "outputs_hashed": min(i, len(pool)),
    }


def percentile(latencies, q):
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def end_to_end(loop, ref, setup_raw_s, setup_s, q):
    """Timings raw and on the reference clock of the timed loop."""
    raw, scale = loop["latencies"], ref.scale()
    tail_s = percentile(raw, q)
    metrics = {
        "verified_per_s": (loop["verified"] / (loop["busy_s"] * scale), "1/s"),
        "case_p50_ms": (statistics.median(raw) * scale * 1e3, "ms"),
        "case_tail_ms": (tail_s * scale * 1e3, "ms"),
        "verified_ratio": (loop["verified"] / len(raw), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "tail_percentile": q,
        "tail_samples_beyond": sum(1 for x in raw if x > tail_s),
        "reference": {"nominal_ms": REF_SECONDS * 1e3, "mean_ms": REF_SECONDS / scale * 1e3,
                      "samples": len(ref.times), "spent_s": ref.spent()},
        "raw": {"verified_per_s": loop["verified"] / loop["busy_s"],
                "case_p50_ms": statistics.median(raw) * 1e3,
                "case_tail_ms": tail_s * 1e3,
                "setup_s": setup_raw_s},
    }
    return metrics, details


def per_layer(tracer, loop, untraced_s):
    metrics = {}
    run = tracer.summary(in_case=True)
    for name in LAYERS:
        metrics[f"{name}.calls"] = (run[name]["calls"], "count")
        metrics[f"{name}.total_s"] = (run[name]["total_s"], "s")
        metrics[f"{name}.self_s"] = (run[name]["self_s"], "s")
    before = tracer.summary(in_case=False)
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}.calls"] = (before[name]["calls"], "count")
        metrics[f"setup.{name}.total_s"] = (before[name]["total_s"], "s")
    counts = tracer.counts
    branches = run["symbols.branch_decomposition"]["calls"]
    pair_calls = run["centext.pair_data"]["calls"]
    pairings = run["centext.commutator_pairing"]["calls"]
    metrics["padic.ladder_attempts"] = (
        run["padic.padic_factor"]["calls"] / branches if branches else 0.0, "calls/call")
    for err in LAW_INCONCLUSIVE:
        metrics[f"laws.inconclusive.{err}"] = (loop["outcomes"].get(f"inconclusive.{err}", 0), "count")
    metrics["cases.raised"] = (
        sum(v for k, v in loop["outcomes"].items() if k.startswith(("refused.", "crashed."))), "count")
    metrics["centext.pair_data.coordinate_share"] = (
        counts.get("pair_data.coordinate", 0) / pair_calls if pair_calls else 0.0, "ratio")
    metrics["qlinalg.rref.cells"] = (counts.get("rref.cells", 0), "count")
    metrics["centext.window_dim"] = (
        counts.get("pairing.dim", 0) / pairings if pairings else 0.0, "dim")
    metrics["trace_overhead"] = (loop["wall_s"] / untraced_s, "ratio")
    return metrics


def environment():
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "ARITHSURF_PREC_BITS": os.environ.get("ARITHSURF_PREC_BITS"),
    }


def git_revision():
    """HEAD of the source tree read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def benchmark(workload, seed, seconds, trace, pool_size=None, trace_cases=None):
    """Run one workload; returns (result line, details)."""
    size = pool_size or POOL_SIZE[workload]
    ars, pool, setup_raw_s, setup_s = setup(workload, seed, size)
    make_runner = WORKLOADS[workload][1]
    refusal = ars.ArithsurfError
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "pool_size": len(pool),
        "inputs_sha256": hashlib.sha256("\n".join(c.text for c in pool).encode()).hexdigest(),
        "environment": environment(),
    }
    if trace:
        count = min(trace_cases or TRACE_CASES[workload], len(pool))
        before = run_cases(pool, *make_runner(ars), refusal, count=count)
        tracer = Tracer(LAYERS, PROBES)
        with tracer.installed():
            pool = make_pool(workload, ars, seed, size)  # traced input generation
            loop = run_cases(pool, *make_runner(ars), refusal, count=count, tracer=tracer)
        after = run_cases(pool, *make_runner(ars), refusal, count=count)
        # untraced time on either side of the traced pass, so drift cancels
        untraced_s = (before["wall_s"] + after["wall_s"]) / 2
        metrics = per_layer(tracer, loop, untraced_s)
        details["untraced_wall_s"] = untraced_s
    else:
        ref = RefClock()
        loop = run_cases(pool, *make_runner(ars), refusal, seconds=seconds, ref=ref)
        metrics, extra = end_to_end(loop, ref, setup_raw_s, setup_s, TAIL_PERCENTILE[workload])
        details.update(extra)
        tracer = None
    details.update({
        "cases": len(loop["latencies"]),
        "pool_passes": len(loop["latencies"]) / len(pool),
        "wall_s": loop["wall_s"],
        "outcomes": loop["outcomes"],
        "outputs_sha256": loop["outputs_sha256"],
        "outputs_hashed": loop["outputs_hashed"],
    })
    attempted = len(loop["latencies"])
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": loop["crashed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details, tracer


def write_results(result, details, tracer):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, help="pool size (smoke tests)")
    parser.add_argument("--trace-cases", type=int, help="cases per traced pass (smoke tests)")
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"no arithsurf sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    try:
        result, details, tracer = benchmark(args.workload, args.seed, args.seconds,
                                            args.trace, args.cases, args.trace_cases)
    except WrongAnswer as exc:
        print(f"wrong answer on {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    write_results(result, details, tracer)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
