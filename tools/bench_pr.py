"""Write a BENCH_<pr>.json: perfbench medians, the construct ladder and the
sim rung, for a parent checkout against this one.

    python3 tools/bench_pr.py --parent ../parent --out BENCH_11.json

--parent is a plain copy of the parent commit's tree (`git archive` it into a
directory).  The script runs RUNS rounds; the side that goes first alternates,
parent first in round 1.  In a round each side runs every perfbench workload
in its own process (`perfbench/run.py --workload NAME --seed SEED --seconds
SECONDS`, the gated settings; reference-speed seconds), then every ladder
rung in a fresh process: construct_pda's wall seconds (total_s), the array's
SHA-256 digest and ru_maxrss, then the sim rung in a fresh process:
verify_scheme's wall seconds (total_s) on the K=651 array (pg q=2 k=6 m=2
t=2, set 1; N=4 files, sampled, 20 samples), the SHA-256 of its report's JSON
and ru_maxrss.  Rung times are raw wall seconds.  Every metric
is reported with each side's runs, median and quartiles, and the number of
rounds in which the change read lower.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # the fewest pairs a claimed gain may rest on
SEED = 7
SECONDS = 30
WORKLOADS = ("construct", "simulate", "sweep")
GATED = ("setup_s", "wall_s", "array_p50_s", "peak_rss_mb", "error_rate")
# name -> (q, k, m, t), each built in orientation 1
RUNGS = {"pg_q2_k6_m2_t2": (2, 6, 2, 2), "pg_q2_k7_m2_t1": (2, 7, 2, 1),
         "pg_q2_k8_m2_t1": (2, 8, 2, 1)}

RUNG_CODE = """
import hashlib, json, resource, sys, time
from pdakit import ConstructionSpec, construct_pda, format_pda
q, k, m, t = map(int, sys.argv[1:])
t0 = time.perf_counter()
p = construct_pda(ConstructionSpec("pg", 1, q=q, k=k, m=m, t=t))
total = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"params_kfqs": [p.k, p.f, p.q, p.s],
                  "digest": hashlib.sha256(format_pda(p).encode()).hexdigest(),
                  "total_s": round(total, 3), "peak_rss_mb": round(rss, 1)}))
"""

# verify_scheme on the K=651 array, built first and outside the timed call
SIM_RUNG = (2, 6, 2, 2)
SIM_CODE = """
import hashlib, json, resource, sys, time
from pdakit import ConstructionSpec, construct_pda, verify_scheme
q, k, m, t = map(int, sys.argv[1:])
p = construct_pda(ConstructionSpec("pg", 1, q=q, k=k, m=m, t=t))
t0 = time.perf_counter()
rep = verify_scheme(p, 4, mode="sampled", samples=20, seed=7)
total = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"demands": rep.demands_tested, "ok": rep.ok,
                  "digest": hashlib.sha256(json.dumps(rep.to_json()).encode()).hexdigest(),
                  "total_s": round(total, 3), "peak_rss_mb": round(rss, 1)}))
"""


def _stdout_lines(cmd: list, tree: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd[1:4])} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def perfbench(tree: Path, workload: str) -> dict:
    """The gated end-to-end figures of one perfbench run."""
    lines = _stdout_lines([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS)], tree)
    report = json.loads(lines[-2])["info"]["report"]
    return {name: report[name]["value"] for name in GATED}


def rung(tree: Path, params: tuple, code: str = RUNG_CODE) -> dict:
    lines = _stdout_lines([sys.executable, "-c", code, *map(str, params)], tree)
    return json.loads(lines[-1])


def summarize(parent_runs: list, change_runs: list) -> dict:
    """Both sides' runs, medians and quartiles; the rounds (pairs) in which
    the change read lower, ties counting for neither side."""
    p, c = statistics.median(parent_runs), statistics.median(change_runs)
    return {"parent_runs": parent_runs, "change_runs": change_runs,
            "parent_median": p, "change_median": c,
            "change_pct": round(100 * (c - p) / p, 1) if p else 0.0,
            "parent_quartiles": statistics.quantiles(parent_runs, n=4)[::2],
            "change_quartiles": statistics.quantiles(change_runs, n=4)[::2],
            "change_lower_in": sum(b < a for a, b in zip(parent_runs, change_runs))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    bench = {side: {w: [] for w in WORKLOADS} for side in sides}
    ladder = {side: {name: [] for name in RUNGS} for side in sides}
    sim = {side: [] for side in sides}
    for i in range(RUNS):
        for side in sorted(sides, reverse=i % 2 == 0):  # parent, change; then change, parent
            for w in WORKLOADS:
                bench[side][w].append(perfbench(sides[side], w))
            for name, params in RUNGS.items():
                ladder[side][name].append(rung(sides[side], params))
            sim[side].append(rung(sides[side], SIM_RUNG, SIM_CODE))
            print(f"round {i + 1}/{RUNS}: {side} done", file=sys.stderr)

    out = {"command": f"python3 tools/bench_pr.py --parent PARENT --out {args.out.name}",
           "runs_per_side": RUNS,
           "order": "alternating: parent first in odd rounds, change first in even ones",
           "host": {"python": platform.python_version(), "nproc": os.cpu_count()},
           "perfbench": {"command": f"python3 perfbench/run.py --workload W --seed "
                                    f"{SEED} --seconds {SECONDS}",
                         "time_unit": "reference-speed seconds (perfbench/README.md)"},
           "end_to_end": {w: {m: summarize([r[m] for r in bench["parent"][w]],
                                           [r[m] for r in bench["change"][w]])
                              for m in GATED} for w in WORKLOADS},
           "ladder": {"what": "construct_pda(pg, set 1), one fresh process per rung "
                              "and run; raw wall seconds and ru_maxrss"}}
    for name, params in RUNGS.items():
        runs = {side: ladder[side][name] for side in sides}
        digests = {r["digest"] for side in sides for r in runs[side]}
        out["ladder"][name] = {
            "q_k_m_t": list(params), "params_kfqs": runs["change"][0]["params_kfqs"],
            "digests_equal": len(digests) == 1, "digest": min(digests),
            **{stat: summarize([r[stat] for r in runs["parent"]],
                               [r[stat] for r in runs["change"]])
               for stat in ("total_s", "peak_rss_mb")}}
    digests = {r["digest"] for side in sides for r in sim[side]}
    out["sim"] = {
        "what": "verify_scheme(p, 4, mode='sampled', samples=20, seed=7) on pg q=2 k=6 "
                "m=2 t=2 set 1, built first; one fresh process per run; raw wall "
                "seconds of the call and ru_maxrss of the process",
        "q_k_m_t": list(SIM_RUNG), "demands": sim["change"][0]["demands"],
        "all_ok": all(r["ok"] for side in sides for r in sim[side]),
        "report_digests_equal": len(digests) == 1, "report_digest": min(digests),
        **{stat: summarize([r[stat] for r in sim["parent"]], [r[stat] for r in sim["change"]])
           for stat in ("total_s", "peak_rss_mb")}}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
