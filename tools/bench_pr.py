"""Write a BENCH_<n>.json: perfbench medians, the construct ladder, the
product rung and the sim rung, for a parent checkout against this one.

    python3 tools/bench_pr.py --parent ../parent --out BENCH_20.json

--parent is a plain copy of the parent commit's tree (`git archive` it into
a directory).  The script runs RUNS rounds; the side that goes first
alternates, parent first in round 1.  In a round each side runs every
perfbench workload in its own process (`perfbench/run.py --workload NAME
--seed SEED --seconds SECONDS`, the gated settings; reference-speed
seconds), then every ladder rung (LADDER: the six pg systems of
ROADMAP.md's Baseline table, q = 3 among them, two at k = 8, and one
tdesign-lambda design, each in orientation 1) in a fresh process:
construct_pda's wall seconds (total_s), the array's SHA-256 digest and
ru_maxrss right after it, and from its stats dict the seconds of its build,
match and emit stages (build_s, match_s, emit_s, their reference-speed
seconds at the whole call's rate) and ru_maxrss after each; then, on that
array, the pda layer's two figures: validate_pda on a fresh equal array
(validate_s), and canonical_relabel plus the text and the JSON round trips
(io_s); then the orientations rung in a fresh process: construct_pda on
orientations 1, 2 and 3 of pg q=2 k=6 m=2 t=2, in that order, each call
timed (o1_s, o2_s, o3_s, and total_s their sum) with its stats' reused
flag, the only rung in which construct_pda reuses the cells of the call
before; then the product rung in a fresh process: direct_product of pg q=2
k=3 m=1 t=1 and pg q=2 k=5 m=2 t=1, both set 1, built and validated before
the timer starts, called 7 times (total_s, the fastest call: a single cold
call varies by tens of milliseconds from run to run), the product's SHA-256
digest and ru_maxrss after the calls; then the sim rung in a fresh process
on the K=651 array (pg q=2 k=6 m=2 t=2, set 1; N=4 files): verify_scheme's
wall seconds (total_s, sampled, 20 samples) and the SHA-256 of its report's
JSON, then, as in perfbench's simulate pass, place plus size_bytes of every
cache (place_s) and decode for users 0, 41, 82, ... on 3 seeded demands
(decode_s, the decode calls alone) with the SHA-256 of the decoded files,
and ru_maxrss; last, untimed, the same users and demands decode from faulty
caches, one fault per cache written through the mapping (a corrupt, a
dropped and a 17-byte starred packet of the demanded file), and the rung
records the SHA-256 of the DecodeError texts raised (a decoded file counts
as its digest) and how many were raised; it also times exhaustive
verify_scheme (4096 demands, N=4, seed 7) on tdesign-b complete:6:3 t1=1
t2=2, set 1 (small_s), and sampled verify_scheme (200 samples, N=4, seed 7)
on the sweep's largest array, pg q=3 k=4 m=1 t=2, set 1 (K=130, the words
form; sampled_s), each with its report's SHA-256, and records which demand
loop form ("words" or "cells", from verify_scheme's stats) each
verify_scheme call ran.
Each rung script times its calls under the measured tree's SpeedClock
(perfbench/speed.py, imported by CLOCK_CODE, which runs ahead of every rung
script): a field NAME_s is raw wall seconds, which include any calibration
that lands inside a call (one every 0.25 s), and NAME_ref_s beside it is the
same calls in reference-speed seconds, which leave the calibrations out and
scale by the host's speed, so that sides run minutes apart compare; both
are rounded to 10 us.  Each timed call starts right after a gc.collect(),
so a cyclic collection lands in it by its own allocations alone.  A rung's
peak_rss_mb can include one calibration's tables (about 0.7 MB), so it and
the raw NAME_s fields do not compare with BENCH files written before the
rungs ran under the clock (BENCH_24.json and earlier).  Every rung is
summarized by one rule (summarize_rung): a float field is reported with each side's runs, median
and quartiles, and the number of rounds in which the change read lower; a
bool, whether it held in every run; a digest, whether every run gave the
same one; any other field once, or per side when runs differ.  Each side's
src/pdakit/*.py line counts are recorded too.
Both sides run uncompiled (BYTECODE), as a fresh checkout does: each from a
copy of its src and perfbench made without any __pycache__.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # the fewest pairs a claimed gain may rest on
SEED = 7
SECONDS = 30
WORKLOADS = ("construct", "simulate", "sweep")
GATED = ("setup_s", "wall_s", "array_p50_s", "peak_rss_mb", "error_rate")
# Both sides run uncompiled, as a fresh checkout does: a parent copied by
# `git archive` has no __pycache__, while a working tree keeps what earlier
# runs wrote, which cut perfbench's setup_s by half on that side alone.  A
# PYTHONPYCACHEPREFIX would hide the standard library's .pyc as well and
# more than double setup_s again, so each side runs from a copy instead.
BYTECODE = ("uncompiled: each side runs from a copy of its src and perfbench made without "
            "__pycache__, with PYTHONDONTWRITEBYTECODE=1, so every process compiles pdakit "
            "and perfbench from source; the standard library's .pyc are read as usual")
# name -> ConstructionSpec keywords, each built in orientation 1 (the default)
LADDER = {"pg_q2_k5_m2_t1": dict(family="pg", q=2, k=5, m=2, t=1),
          "pg_q2_k6_m2_t2": dict(family="pg", q=2, k=6, m=2, t=2),
          "pg_q3_k5_m2_t1": dict(family="pg", q=3, k=5, m=2, t=1),
          "pg_q2_k8_m1_t1": dict(family="pg", q=2, k=8, m=1, t=1),
          "pg_q2_k7_m2_t1": dict(family="pg", q=2, k=7, m=2, t=1),
          "pg_q2_k8_m2_t1": dict(family="pg", q=2, k=8, m=2, t=1),
          "tdesign_lambda_complete_12_4": dict(family="tdesign-lambda", design="complete:12:4",
                                               t0=2, t1=1, t2=1)}

# Run ahead of each rung script, from the measured tree's root, so that the
# tree's own perfbench/speed.py times the calls.
CLOCK_CODE = """
import gc, sys, time
from contextlib import contextmanager
sys.path.insert(0, "perfbench")
from speed import SpeedClock
clock, spans = SpeedClock(), {}  # field name -> raw (start, end) of each timed call


@contextmanager
def timing(name):
    # Each call starts with the collector's counts at zero, so a collection
    # lands in it by its own allocations, not by how many the tree's imports
    # and earlier calls made: otherwise one lands in pg_q2_k5's validate
    # call on one side only (+1 ms, 10 of 10 pairs) when neither touches it.
    gc.collect()
    t0 = time.perf_counter()
    yield
    spans.setdefault(name, []).append((t0, time.perf_counter()))


def seconds(name, pick=sum):  # once the clock has stopped; to 10 us, for calls of a few ms
    return {name + "_s": round(pick(b - a for a, b in spans[name]), 5),
            name + "_ref_s": round(pick(clock.seconds(a, b) for a, b in spans[name]), 5)}
"""

RUNG_CODE = """
import hashlib, json, resource, sys
from pdakit import (ConstructionSpec, Pda, canonical_relabel, construct_pda, format_pda,
                    parse_pda, pda_from_json, pda_to_json, validate_pda)
spec = ConstructionSpec(**json.loads(sys.argv[1]))
stats = {}
with clock.running():
    with timing("total"):
        p = construct_pda(spec, stats=stats)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fresh = Pda(p.k, p.f, p.q, p.s, p.grid)  # equal, with nothing cached on it
    with timing("validate"):
        valid = validate_pda(fresh).ok
    with timing("io"):
        canon = canonical_relabel(p)
        text = parse_pda(format_pda(p))
        obj = pda_from_json(json.loads(json.dumps(pda_to_json(p))))
out = {"params_kfqs": [p.k, p.f, p.q, p.s],
       "digest": hashlib.sha256(format_pda(p).encode()).hexdigest(),
       "all_valid": valid, "round_trips_equal": canon == text == obj == p,
       **seconds("total"), "peak_rss_mb": round(rss, 1),
       **seconds("validate"), **seconds("io")}
# construct_pda's own stage seconds, in reference speed at the whole call's
# rate, and its ru_maxrss after each stage
scale = out["total_ref_s"] / out["total_s"] if out["total_s"] else 0.0
for stage in ("build", "match", "emit"):
    out.update({stage + "_s": round(stats[stage + "_s"], 5),
                stage + "_ref_s": round(stats[stage + "_s"] * scale, 5),
                stage + "_rss_mb": stats[stage + "_rss_mb"]})
print(json.dumps(out))
"""

# orientations 1, 2 and 3 of one system in one process: the only rung that
# runs construct_pda on cells held from the call before
ORIENTATIONS = LADDER["pg_q2_k6_m2_t2"]
ORIENTATIONS_CODE = """
import hashlib, json, resource, sys
from pdakit import ConstructionSpec, construct_pda, format_pda
kw = json.loads(sys.argv[1])
reused, digest = [], hashlib.sha256()
with clock.running():
    for o in (1, 2, 3):
        stats = {}
        with timing(f"o{o}"):
            p = construct_pda(ConstructionSpec(orientation=o, **kw), stats=stats)
        reused.append(str(stats["reused"]))
        digest.update(format_pda(p).encode())
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
spans["total"] = spans["o1"] + spans["o2"] + spans["o3"]
print(json.dumps({"digest": digest.hexdigest(), "reused": ", ".join(reused),
                  **seconds("total"), **seconds("o1"), **seconds("o2"), **seconds("o3"),
                  "peak_rss_mb": round(rss, 1)}))
"""

# direct_product of two arrays, each built and validated outside the timed
# calls; the fastest of 7 calls in one process
PRODUCT_FACTORS = (dict(family="pg", q=2, k=3, m=1, t=1), LADDER["pg_q2_k5_m2_t1"])
PRODUCT_CODE = """
import hashlib, json, resource, sys
from pdakit import ConstructionSpec, construct_pda, direct_product, format_pda, validate_pda
a, b = (construct_pda(ConstructionSpec(**kw)) for kw in json.loads(sys.argv[1]))
assert validate_pda(a).ok and validate_pda(b).ok
with clock.running():
    for _ in range(7):
        with timing("total"):
            p = direct_product(a, b)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"params_kfqs": [p.k, p.f, p.q, p.s],
                  "digest": hashlib.sha256(format_pda(p).encode()).hexdigest(),
                  **seconds("total", min), "peak_rss_mb": round(rss, 1)}))
"""

# verify_scheme, then place and decode, on the K=651 array, exhaustive
# verify_scheme on a small array and sampled verify_scheme on the sweep's
# largest, each built first and outside the timed calls
SIM_RUNG = LADDER["pg_q2_k6_m2_t2"]
SIM_SMALL = dict(family="tdesign-b", design="complete:6:3", t1=1, t2=2)  # K=6: 4^6 demands
SIM_SAMPLED = dict(family="pg", q=3, k=4, m=1, t=2)  # K=130: 200 samples, words form
SIM_CODE = """
import hashlib, json, random, resource, sys
from pdakit import (ConstructionSpec, DecodeError, FileLibrary, construct_pda, decode,
                    deliver, place, verify_scheme)
spec, small_spec, sampled_spec = json.loads(sys.argv[1])
p = construct_pda(ConstructionSpec(**spec))
small = construct_pda(ConstructionSpec(**small_spec))
wide = construct_pda(ConstructionSpec(**sampled_spec))


def timed_verify(name, *args, **kwargs):  # report, loop form (from its stats)
    stats = {}
    with timing(name):
        rep = verify_scheme(*args, **kwargs, stats=stats)
    return rep, stats["loop"]


def report_digest(rep):
    return hashlib.sha256(json.dumps(rep.to_json()).encode()).hexdigest()


rng = random.Random(7)
lib = FileLibrary.random(4, p.f, 16, seed=rng.randrange(2 ** 32))
demands = [tuple(rng.randrange(4) for _ in range(p.k)) for _ in range(3)]
decoded = hashlib.sha256()
with clock.running():
    rep, loop = timed_verify("total", p, 4, mode="sampled", samples=20, seed=7)
    small_rep, small_loop = timed_verify("small", small, 4, mode="exhaustive", seed=7)
    sampled_rep, sampled_loop = timed_verify("sampled", wide, 4, mode="sampled",
                                             samples=200, seed=7)
    with timing("place"):
        caches = place(p, lib)
        sizes = [c.size_bytes() for c in caches]
    for demand in demands:
        tx = deliver(p, lib, demand)
        for u in range(0, p.k, 41):
            with timing("decode"):
                out = decode(p, caches[u], tx, demand, u)
            decoded.update(out)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
texts, errors = [], 0  # per decode, the DecodeError text or the decoded file's digest
for demand in demands:
    tx = deliver(p, lib, demand)
    for fault in ("corrupt", "drop", "long"):
        faulty = place(p, lib)
        for u in range(0, p.k, 41):
            packets = faulty[u].packets
            key = (demand[u], next(iter(packets))[1])  # the user's first starred row
            pk = packets[key]
            if fault == "corrupt":
                packets[key] = bytes([pk[0] ^ 1]) + pk[1:]
            elif fault == "drop":
                del packets[key]
            else:
                packets[key] = bytes(1) + pk
            try:
                texts.append(hashlib.sha256(decode(p, faulty[u], tx, demand, u)).hexdigest())
            except DecodeError as e:
                texts.append(str(e))
                errors += 1
print(json.dumps({"demands": rep.demands_tested,
                  "all_ok": rep.ok and small_rep.ok and sampled_rep.ok,
                  "report_digest": report_digest(rep),
                  "small_demands": small_rep.demands_tested,
                  "small_report_digest": report_digest(small_rep),
                  "sampled_demands": sampled_rep.demands_tested,
                  "sampled_report_digest": report_digest(sampled_rep),
                  "loops": f"{loop}, {small_loop}, {sampled_loop}",
                  "decoded_digest": decoded.hexdigest(),
                  "error_digest": hashlib.sha256(json.dumps(texts).encode()).hexdigest(),
                  "decode_errors": errors,
                  **seconds("total"), **seconds("small"), **seconds("sampled"),
                  **seconds("place"),
                  **seconds("decode"), "peak_rss_mb": round(rss, 1)}))
"""
# name -> (script, its argument): the ladder, then the orientations, product
# and sim rungs
RUNGS = {**{name: (RUNG_CODE, spec) for name, spec in LADDER.items()},
         "orientations": (ORIENTATIONS_CODE, ORIENTATIONS),
         "product": (PRODUCT_CODE, PRODUCT_FACTORS),
         "sim": (SIM_CODE, (SIM_RUNG, SIM_SMALL, SIM_SAMPLED))}


def fresh_copy(tree: Path, into: Path) -> Path:
    """tree's src and perfbench copied into into, every __pycache__ left out."""
    for sub in ("src", "perfbench"):
        shutil.copytree(tree / sub, into / sub, ignore=shutil.ignore_patterns("__pycache__"))
    return into


def _stdout_lines(cmd: list, tree: Path) -> list:
    """cmd's stdout lines, run in tree on its own src, writing no .pyc."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
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


def rung(tree: Path, code: str, arg) -> dict:
    lines = _stdout_lines([sys.executable, "-c", CLOCK_CODE + code,
                           json.dumps(arg)], tree)
    return json.loads(lines[-1])


def src_lines(tree: Path) -> dict:
    """Lines per src/pdakit/*.py file, and their total."""
    files = {f.name: len(f.read_text().splitlines())
             for f in sorted((tree / "src" / "pdakit").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


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


def summarize_rung(parent: list, change: list) -> dict:
    """Each field of a rung's runs by one rule: a float in every run through
    summarize; a bool in every run, whether it held in every run; a *digest
    field, whether it was the same in every run (<name>s_equal) and its
    least value; any other field, one that a side lacks (None there)
    included, once, or each side's runs when they differ."""
    out = {}
    for name in dict.fromkeys([*parent[0], *change[0]]):
        runs = {"parent": [r.get(name) for r in parent], "change": [r.get(name) for r in change]}
        every = runs["parent"] + runs["change"]
        kinds = set(map(type, every))
        if kinds == {float}:
            out[name] = summarize(runs["parent"], runs["change"])
        elif kinds == {bool}:
            out[name] = all(every)
        elif name.endswith("digest"):
            out[name + "s_equal"], out[name] = len(set(every)) == 1, min(every)
        else:
            out[name] = every[0] if all(v == every[0] for v in every) else runs
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    bench = {side: {w: [] for w in WORKLOADS} for side in trees}
    runs = {side: {name: [] for name in RUNGS} for side in trees}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: fresh_copy(tree, Path(tmp) / side) for side, tree in trees.items()}
        for i in range(RUNS):
            for side in sorted(sides, reverse=i % 2 == 0):  # parent, change; then change, parent
                for w in WORKLOADS:
                    bench[side][w].append(perfbench(sides[side], w))
                for name, (code, arg) in RUNGS.items():
                    runs[side][name].append(rung(sides[side], code, arg))
                print(f"round {i + 1}/{RUNS}: {side} done", file=sys.stderr)
    rungs = {name: summarize_rung(runs["parent"][name], runs["change"][name]) for name in RUNGS}

    out = {"command": f"python3 tools/bench_pr.py --parent PARENT --out {args.out.name}",
           "runs_per_side": RUNS,
           "order": "alternating: parent first in odd rounds, change first in even ones",
           "host": {"python": platform.python_version(), "nproc": os.cpu_count()},
           "bytecode": BYTECODE,
           "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
           "perfbench": {"command": f"python3 perfbench/run.py --workload W --seed "
                                    f"{SEED} --seconds {SECONDS}",
                         "time_unit": "reference-speed seconds (perfbench/README.md)"},
           "end_to_end": {w: {m: summarize([r[m] for r in bench["parent"][w]],
                                           [r[m] for r in bench["change"][w]])
                              for m in GATED} for w in WORKLOADS},
           "ladder": {"what": "construct_pda(spec), one fresh process per rung and run; "
                              "wall seconds (raw and reference-speed) and ru_maxrss after "
                              "it; build_s, match_s and emit_s with their ru_maxrss after, "
                              "from construct_pda's stats, the reference-speed ones at the "
                              "whole call's rate; then validate_s, validate_pda on a fresh "
                              "equal array, and io_s, canonical_relabel plus the text and "
                              "JSON round trips",
                      **{name: {"spec": spec, **rungs[name]} for name, spec in LADDER.items()}},
           "orientations": {
               "what": "construct_pda on orientations 1, 2 and 3 of the spec, in that order, "
                       "in one fresh process per run: each call's wall seconds (o1_s, o2_s, "
                       "o3_s; total_s their sum), raw and reference-speed; reused, each "
                       "call's stats['reused']; the SHA-256 of the three arrays' text, and "
                       "ru_maxrss after the calls",
               "spec": ORIENTATIONS, **rungs["orientations"]},
           "product": {
               "what": "direct_product(a, b), the factors built and validated first, one fresh "
                       "process per run; wall seconds (raw and reference-speed) of the "
                       "fastest of 7 calls in that process, and ru_maxrss after them",
               "factors": PRODUCT_FACTORS, **rungs["product"]},
           "sim": {
               "what": "on pg q=2 k=6 m=2 t=2 set 1, built first, one fresh process per run: "
                       "total_s is verify_scheme(p, 4, mode='sampled', samples=20, seed=7); "
                       "place_s is place plus size_bytes of every cache; decode_s is the 48 "
                       "decode calls (users 0, 41, ... on 3 demands, deliver untimed); raw "
                       "wall seconds and, as *_ref_s, reference-speed seconds, and ru_maxrss "
                       "of the process; error_digest is the SHA-256 of the DecodeError "
                       "texts (or decoded files' digests) of the same calls on caches with a "
                       "corrupt, a dropped or a 17-byte starred packet; small_s is "
                       "verify_scheme(small, 4, mode='exhaustive', seed=7), 4096 demands on "
                       "tdesign-b complete:6:3 t1=1 t2=2 set 1; sampled_s is "
                       "verify_scheme(wide, 4, mode='sampled', samples=200, seed=7) on pg "
                       "q=3 k=4 m=1 t=2 set 1 (K=130, the words form); loops are the demand "
                       "loop forms of the three verify_scheme calls, from their stats",
               "spec": SIM_RUNG, "small_spec": SIM_SMALL, "sampled_spec": SIM_SAMPLED,
               **rungs["sim"]}}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
