"""pdakit benchmark: construct, simulate and sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs per process, on one thread, in a closed loop: each call
starts when the previous one returns.  After a timed set-up, the workload's
pass (a fixed list of operations) repeats until --seconds have elapsed.  Every
output is checked; each failed check counts as a failed operation.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 passes alternate untraced and traced, and the metrics are
the per-layer ones from the traced passes plus the tracing overhead, and the
allocation peak of each construction and placement stage from a first,
untimed pass.  The line
before it ({"info": ...}) holds the Python version, nproc, the seed, the sample
counts and the workload-specific figures named in README.md.  --workload all
runs each workload in its own process and prints every figure by name with its
unit; it exits non-zero when any check fails.

Every time reported is in reference-speed seconds: raw time scaled by the
host's speed, which a calibration loop measures while the run goes on
(speed.py, README.md).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import REF_S, SpeedClock
from tracing import MEMORY_STAGES, PROBES, Tracer, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("construct", "simulate", "sweep")
SETUP_REPEATS = 3
MIN_PASSES = 3
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 600

END_TO_END = {"setup_s": "s", "wall_s": "s", "array_p50_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("subspaces", "designs", "constructions", "triples", "pda", "sim", "cli", "bench")
TIMED_CALLS = (
    "subspaces.enumerate_subspaces", "designs.from_reference", "designs.certify",
    "constructions.build_triple", "constructions.closed_form_row",
    "triples.complete_matching", "triples.orientations", "triples.triple_to_pda",
    "triples.check_conditions", "triples.direct_product",
    "pda.validate_pda", "pda.canonical_relabel", "pda.text_io", "pda.json_io",
    "sim.verify_scheme", "sim.place", "sim.deliver", "sim.decode",
    "cli.construct", "cli.validate", "cli.simulate", "cli.product",
)
COUNTS = ("subspaces.enumerate_subspaces.count", "constructions.triple.cells",
          "constructions.triple.nnz", "triples.direct_product.calls", "sim.demands",
          "sim.failures", "sim.users_decoded", "trace.spans")
PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_CALLS},
    **{name: "count" for name in COUNTS},
    **{f"{stage}.alloc_peak_mb": "MB" for stage in MEMORY_STAGES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.probe_s": "s",
}

# Imports pdakit in a fresh interpreter, between two calibrations of its own,
# and prints the import time scaled as in speed.py, then the raw time.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import REF_S, calibration_loop
c0 = time.perf_counter(); calibration_loop(); t0 = time.perf_counter()
import pdakit
t1 = time.perf_counter(); calibration_loop(); c1 = time.perf_counter()
print((t1 - t0) * 2 * REF_S / ((t0 - c0) + (c1 - t1)), t1 - t0)
"""


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _metric(value, unit):
    return {"value": value, "unit": unit}


def import_seconds() -> tuple[float, float]:
    """Time to import pdakit in a fresh interpreter: scaled and raw."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    scaled, raw = out.stdout.split()
    return float(scaled), float(raw)


def run_workload(args) -> int:
    import pdakit
    if Path(pdakit.__file__).resolve().parent != SRC / "pdakit":
        print(f"pdakit imported from {pdakit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from oracle import Checker, load_reference
    from workloads import WORKLOADS, Stats

    wl = WORKLOADS[args.workload]
    reference = load_reference()
    # Untraced and traced passes keep their samples and counts apart.
    chk, stats, traced_stats = Checker(), Stats(), Stats()
    # Every time the run reports is in reference-speed seconds (speed.py),
    # measured while the clock calibrates.
    clock = SpeedClock()
    tracer, plain = Tracer(True), Tracer(False)
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        # The import probes run before the clock, so that no signal lands in them.
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        preps = []
        with clock.running():
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                state = wl.setup(args.seed, reference, workdir, stats, chk)
                preps.append((t0, time.perf_counter()))

        passes, traced_passes = [], []
        if args.trace:
            # The first pass records each stage's allocation peak; tracemalloc
            # slows it too much to time it, and the clock is stopped so that
            # no calibration allocates inside a stage.  It also warms up:
            # traced and untraced passes are compared, so neither may be the
            # first pass.
            memory = Tracer(True, memory=True)
            wl.run_pass(state, memory, chk, Stats())
        # Passes run while the next one is expected to end within --seconds,
        # and at least MIN_PASSES run, so that the median drops one pass that
        # a burst of load on the machine slowed down.
        start = time.perf_counter()
        with clock.running():
            while True:
                traced = bool(args.trace) and len(passes) > len(traced_passes)
                # End-to-end samples come from untraced passes only.
                tr, st = (tracer, traced_stats) if traced else (plain, stats)
                t0 = time.perf_counter()
                wl.run_pass(state, tr, chk, st)
                (traced_passes if traced else passes).append((t0, time.perf_counter()))
                raw = [b - a for a, b in passes + traced_passes]
                expected_end = time.perf_counter() - start + statistics.median(raw)
                if expected_end > args.seconds and len(raw) >= MIN_PASSES:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = (statistics.median(scaled for scaled, _ in imports)
               + statistics.median(clock.seconds(a, b) for a, b in preps))
    walls = [clock.seconds(a, b) for a, b in passes]
    traced_walls = [clock.seconds(a, b) for a, b in traced_passes]

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "passes": len(walls), "pass_s": walls,
            "pass_raw_s": [b - a for a, b in passes],
            "calibration": {"ref_s": REF_S, "runs": len(clock.loop_s),
                            "median_s": statistics.median(clock.loop_s)},
            "traced_passes": len(traced_walls), "setup_repeats": SETUP_REPEATS,
            "setup_import_raw_s": [raw for _, raw in imports],
            "setup_prep_raw_s": [b - a for a, b in preps],
            "samples": {"arrays": len(stats.array_latency),
                        "construct_pda": sum(map(len, stats.array_latency.values())),
                        "demands": stats.demands, "users_decoded": stats.users_decoded,
                        "checks": chk.attempted}}
    if args.trace:
        metrics = per_layer_metrics(tracer, traced_stats, memory, walls, traced_walls,
                                    clock.seconds)
        tracer.write(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        # An array's latency is the median of its construct_pda calls; the
        # percentiles are taken over the workload's distinct arrays.
        per_array = [statistics.median(clock.seconds(a, b) for a, b in v)
                     for v in stats.array_latency.values()]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "array_p50_s": _metric(statistics.median(per_array), "s"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        }
        info["report"] = workload_report(metrics, stats, per_array, walls, chk,
                                         clock.seconds)
        for name, m in info["report"].items():
            print(f"{args.workload:<10} {name:<22} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    correct = chk.failed == 0
    print(json.dumps({"correct": correct, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0 if correct else 1


def workload_report(metrics: dict, stats, per_array: list, walls: list, chk,
                    seconds) -> dict:
    """Every end-to-end figure that applies to this workload, with its unit."""
    report = dict(metrics)
    if len(per_array) >= 100:  # p90 only with at least ten samples above it
        report["array_p90_s"] = _metric(statistics.quantiles(per_array, n=10)[-1], "s")
    if stats.arrays:
        report["arrays_per_s"] = _metric(stats.arrays / sum(walls), "1/s")
    if stats.demands:
        verify_s = sum(seconds(a, b) for a, b in stats.verify_spans)
        report["demands_per_s"] = _metric(stats.demands / verify_s, "1/s")
    if stats.users_decoded:
        decode_s = sum(seconds(a, b) for a, b in stats.decode_spans)
        report["users_decoded_per_s"] = _metric(stats.users_decoded / decode_s, "1/s")
    report["error_rate"] = _metric(chk.error_rate, "ratio")
    return report


def per_layer_metrics(tracer, traced_stats, memory, walls: list, traced_walls: list,
                      seconds) -> dict:
    """Per-pass busy seconds and counts from the traced passes, and each
    stage's allocation peak from the memory pass."""
    n = len(traced_walls)
    by_name, by_layer = tracer.self_seconds(seconds)
    counts = {**tracer.counts,
              "triples.direct_product.calls": traced_stats.products,
              "sim.demands": traced_stats.demands,
              "sim.failures": traced_stats.demand_failures,
              "sim.users_decoded": traced_stats.users_decoded,
              "trace.spans": len(tracer.spans)}
    out = {}
    for name in TIMED_CALLS:
        out[f"{name}.s"] = _metric(by_name.get(name, 0.0) / n, "s")
    for name in COUNTS:
        total = counts.get(name, 0)
        out[name] = _metric(total // n if total % n == 0 else total / n, "count")
    for stage in MEMORY_STAGES:
        out[f"{stage}.alloc_peak_mb"] = _metric(memory.alloc_peak_mb.get(stage, 0.0), "MB")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _metric(by_layer.get(layer, 0.0) / n, "s")
    out["trace.overhead_s"] = _metric(statistics.median(traced_walls)
                                      - statistics.median(walls), "s")
    out["trace.probe_s"] = _metric(sum(by_name.get(p, 0.0) for p in PROBES) / n, "s")
    return out


def run_all(args) -> int:
    """Each workload in its own process; print every figure with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"]
        except (IndexError, ValueError, KeyError):
            print(f"{name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        figures = info.get("report", result["metrics"])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} python={info['python']} nproc={info['nproc']} "
              f"seed={info['seed']} passes={info['passes']} samples={info['samples']}")
        for metric, m in figures.items():
            print(f"{name:<10} {metric:<40} {m['value']:>14.6g} {m['unit']}")
        if proc.returncode or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "pdakit" / "__init__.py").is_file():
        print(f"no pdakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
