"""Re-run the mutation checks: each mutant in MUTANTS replaces one exact
snippet of src/pdakit with another, and must make a tier-1 test fail.

    python3 tools/mutants.py --out MUTANTS_<n>.json

Each mutant runs on its own copy of src/ in a temporary directory, one at a
time: the snippet (which must occur exactly once) is replaced, and pytest
runs the mutant's tier-1 subset from the repository's root with PYTHONPATH
on the copy, stopping at the first failure (-x).  A mutant is killed when a
test fails or the run passes TIMEOUT (a mutant can make a loop never
end), and survived when every test of its subset passes.  Before the
mutants, the union of their subsets runs once on an unmutated copy and must
pass, or nothing is written.  The JSON holds, per mutant, its entry,
killed or survived, the test that killed it (the first that failed, or the
one running at the timeout) and the seconds taken.  The process group of a
run is killed at its timeout.  Standard library only; pytest runs in a
child process.  tests/test_mutants_tool.py checks, in tier-1, only that
each snippet occurs exactly once in src/, so a refactor that moves code
must update this table.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 60  # seconds per pytest run; every subset passes in a few seconds

SIM, CLI, CONS, TRI = "pdakit/sim.py", "pdakit/cli.py", "pdakit/constructions.py", "pdakit/triples.py"
PDA = "pdakit/pda.py"
T_SIM, T_CLI, T_PDA = "tests/test_sim.py", "tests/test_cli.py", "tests/test_pda.py"
T_CONS, T_TRI = "tests/test_constructions.py", "tests/test_triples.py"
T_PROP = "tests/test_properties.py"
T_CHECKS = [T_TRI, T_PROP]  # the triple conditions and their oracles
T_VALID = [T_PDA, T_PROP]  # the validator and its per-cell oracle
T_TABLE = [f"{T_SIM}::test_tail_table_never_outgrows_the_words_table",
           f"{T_SIM}::test_table_check_catches_a_flip_at_each_block_edge"]

# name, file under src/, snippet, replacement, what the mutant breaks, the
# tier-1 subset (pytest paths or node ids) that must kill it
MUTANTS = [
    # the exhaustive check's tail table and head partial
    dict(name="tail from the head users", file=SIM,
         snippet="    for row in words[k - r:]:\n",
         replacement="    for row in words[:r]:\n",
         breaks="the tail table folds the first r users instead of the last r",
         tests=T_TABLE),
    dict(name="head not refreshed at a block start", file=SIM,
         snippet="    for first in demands:\n"
                 "        head = reduce(xor, map(getitem, heads, first), 0)\n",
         replacement="    head = None\n"
                     "    for first in demands:\n"
                     "        if head is None:\n"
                     "            head = reduce(xor, map(getitem, heads, first), 0)\n",
         breaks="every block keeps the first block's head partial",
         tests=T_TABLE),
    dict(name="block draws past its end", file=SIM,
         snippet="zip(tail, chain((first,), demands))",
         replacement="zip(chain((first,), demands), tail)",
         breaks="zip draws a demand after the tail runs out, losing one per block",
         tests=T_TABLE),
    dict(name="tail one user past the bound", file=SIM,
         snippet="    while r < k and n ** (r + 1) <= k * n:\n",
         replacement="    while r < k and n ** r <= k * n:\n",
         breaks="the tail table holds up to N times the words table's entries",
         tests=T_TABLE),
    # sampled demands in bulk
    dict(name="low byte of each word", file=SIM,
         snippet='.to_bytes(4 * m, "little")[3::4]',
         replacement='.to_bytes(4 * m, "little")[0::4]',
         breaks="sampled demands leave randrange's stream: the low byte, not the top",
         tests=[f"{T_SIM}::test_sampled_demands_follow_randrange"]),
    dict(name="every batch at DRAW_BATCH", file=SIM,
         snippet="            m = min(total - len(values), DRAW_BATCH)\n",
         replacement="            m = DRAW_BATCH\n",
         breaks="a batch draws past the last value wanted, moving the generator's state",
         tests=[f"{T_SIM}::test_sampled_demands_follow_randrange"]),
    dict(name="draw_s left out", file=SIM,
         snippet="stats.update(setup_s=t1 - t0, draw_s=draw_s, ",
         replacement="stats.update(setup_s=t1 - t0, ",
         breaks="verify_scheme's stats lose draw_s",
         tests=[f"{T_SIM}::test_verify_scheme_stats", f"{T_CLI}::test_simulate_stats_line"]),
    dict(name="N < 1 check removed", file=SIM,
         snippet="    if n < 1:  # no draw is ever below n, so neither route would end\n",
         replacement="    if False:  # no draw is ever below n, so neither route would end\n",
         breaks="sampling with no files spins forever instead of raising ValueError",
         tests=[f"{T_SIM}::test_sampled_demands_follow_randrange"]),
    dict(name="negative samples check removed", file=SIM,
         snippet="    if samples < 0:",
         replacement="    if False:",
         breaks="a negative sample count runs only the adversarial demands, labelled sampled, "
                "or fails in islice, by the draw route",
         tests=[f"{T_SIM}::test_negative_samples_are_refused_before_any_draw",
                f"{T_CLI}::test_simulate_negative_samples_exits_3"]),
    dict(name="main keeps each call's options", file=CLI,
         snippet="        args = parser.parse_args(argv)\n",
         replacement="        args = parser.parse_args(argv)\n"
                     "        parser._subparsers._group_actions[0].choices[args.command]"
                     ".set_defaults(**vars(args))\n",
         breaks="one main call's options become the next call's defaults",
         tests=[T_CLI]),
    # construct_pda's kept cells and its stats
    dict(name="cells keyed with the orientation", file=CONS,
         snippet="    key = replace(spec, orientation=1)\n",
         replacement="    key = spec\n",
         breaks="another orientation of the same system builds and matches again",
         tests=[T_CONS, T_TRI]),
    dict(name="cells cache unbounded", file=CONS,
         snippet="    reused = _held is not None and _held[0] == key\n",
         replacement="    every = construct_pda.__dict__.setdefault(\"every\", {})\n"
                     "    if _held is not None:\n"
                     "        every[_held[0]] = _held\n"
                     "    _held = every.get(key, _held)\n"
                     "    reused = _held is not None and _held[0] == key\n",
         breaks="every system built stays held for the life of the process",
         tests=[T_CONS, T_TRI]),
    dict(name="C_XY's ones without d", file=TRI,
         snippet="        edges += d * len(xs)\n",
         replacement="        edges += len(xs)\n",
         breaks="construct_pda's nnz_xy counts one edge per row instead of d",
         tests=[f"{T_CONS}::test_construct_pda_stats"]),
    dict(name="match_s not the sum of its stages", file=CONS,
         snippet='stats.update(match_s=stats["scan_s"] + stats["cells_s"],',
         replacement='stats.update(match_s=stats["cells_s"],',
         breaks="match_s leaves out the E1-E3 scan",
         tests=[f"{T_CONS}::test_construct_pda_stats"]),
    # sim's inputs held to their contracts
    dict(name="size_bytes sums every payload", file=SIM,
         snippet="sum(len(pk) for pk in packets.values() if isinstance(pk, (bytes, bytearray)))",
         replacement="sum(len(pk) for pk in packets.values())",
         breaks="size_bytes raises TypeError on an int payload and counts a str by characters",
         tests=[T_SIM]),
    dict(name="decode without the join check", file=SIM,
         snippet="    try:\n"
                 '        sent = b"".join(transmissions)\n'
                 "    except TypeError as exc:\n"
                 '        raise ValueError(f"transmissions must be bytes-like: {exc}") from None\n',
         replacement='    sent = b"".join(transmissions)\n',
         breaks="decode raises TypeError, not ValueError, on a transmission that is not bytes",
         tests=[T_SIM]),
    # the one packed payload form and its peel
    dict(name="peel slot one byte short", file=SIM,
         snippet='acc = int.from_bytes(sent[(v - 1) * size:v * size], "big")',
         replacement='acc = int.from_bytes(sent[(v - 1) * size:v * size - 1], "big")',
         breaks="a coded row's payload is read one byte short",
         tests=[T_SIM]),
    dict(name="peel slot from the wrong end", file=SIM,
         snippet='acc = int.from_bytes(sent[(v - 1) * size:v * size], "big")',
         replacement='acc = int.from_bytes(sent[len(sent) - v * size:len(sent) - (v - 1) * size],'
                     ' "big")',
         breaks="payload s is read from the bottom of the packed bytes, not the top",
         tests=[T_SIM]),
    dict(name="_pack_cells prepends", file=SIM,
         snippet='        packed += acc.to_bytes(size, "big")\n',
         replacement='        packed[:0] = acc.to_bytes(size, "big")\n',
         breaks="the cell-by-cell packer puts symbol 1 in the bottom slot",
         tests=[T_SIM]),
    # the packers that the sender and verify_scheme's check share: the check
    # reads the same packer, so only deliver and decode tests kill these
    dict(name="_pack_cells skips each symbol's first cell", file=SIM,
         snippet="        for j, k in zip(rows, cols):\n            acc ^= wanted[k][j]\n",
         replacement="        for j, k in zip(rows[1:], cols[1:]):\n"
                     "            acc ^= wanted[k][j]\n",
         breaks="deliver leaves each symbol's first cell out of its XOR; deliver and decode "
                "tests kill it, not verify_scheme's check, which reads the same packer",
         tests=[f"{T_SIM}::test_deliver_xors_demanded_packets",
                f"{T_SIM}::test_decode_tiny_exhaustive"]),
    dict(name="_words leaves each user's first slot zero", file=SIM,
         snippet="            for j, at in mine:\n",
         replacement="            for j, at in mine[1:]:\n",
         breaks="the words table drops each user's first packet; the tests that hold it to "
                "deliver and decode kill it, not verify_scheme's check, which reads the "
                "same table",
         tests=[f"{T_SIM}::test_words_hold_each_users_packets_in_their_symbols_slots",
                f"{T_PROP}::test_verify_scheme_agrees_with_decode_on_a_faulty_cache"]),
    dict(name="_int_rows without its key check", file=SIM,
         snippet="\n                and isinstance(key, tuple) and len(key) == 2):\n",
         replacement="):\n",
         breaks="a cache entry whose key is not a (file, row) pair crashes the peel",
         tests=[T_SIM, T_PROP]),
    dict(name="_demand_of without its int check", file=SIM,
         snippet="    if not set(map(type, demand)) <= {int}:",
         replacement="    if False:",
         breaks="a demand entry that is not an int (True, 1.5) is served as a file",
         tests=[T_SIM]),
    dict(name="decode without its user int check", file=SIM,
         snippet="    if type(user) is not int:\n",
         replacement="    if False:\n",
         breaks="decode takes True as user 1 and fails on 1.0 with a TypeError",
         tests=[T_SIM]),
    dict(name="FileLibrary.random without the size check", file=SIM,
         snippet="        _require_sizes(n, f, packet_size)  # before any draw\n",
         replacement="",
         breaks="a float size fails in range or randbytes with a TypeError, not ValueError",
         tests=[T_SIM]),
    # the triple conditions, scanned from the index lists
    dict(name="E1 from the symbols' lists", file=TRI,
         snippet="    col_sums = set(map(len, xs_of_z))\n",
         replacement="    col_sums = set(map(len, t.ys_of_z))\n",
         breaks="E1 and D_Z count each column's symbols instead of its rows",
         tests=T_CHECKS),
    dict(name="E1 tolerates two column sums", file=TRI,
         snippet="    if len(col_sums) > 1:\n",
         replacement="    if len(col_sums) > 2:\n",
         breaks="E1 passes a C_XZ whose columns hold two different sums",
         tests=T_CHECKS),
    dict(name="E2 from the rows' lists", file=TRI,
         snippet='    if not all(zs_of_y):\n'
                 '        wit["E2"] = (ly[list(map(bool, zs_of_y)).index(False)],)\n',
         replacement='    if not all(t.zs_of_x):\n'
                     '        wit["E2"] = (ly[list(map(bool, t.zs_of_x)).index(False)],)\n',
         breaks="E2 looks for a row, not a symbol, that meets no column",
         tests=T_CHECKS),
    dict(name="E2 names the first symbol that meets a column", file=TRI,
         snippet="list(map(bool, zs_of_y)).index(False)",
         replacement="list(map(bool, zs_of_y)).index(True)",
         breaks="E2's witness is a symbol that does meet a column",
         tests=T_CHECKS),
    dict(name="D_X and D_Y from each other's lists", file=TRI,
         snippet="    return wit, _degree(t.zs_of_x), _degree(zs_of_y), d_z\n",
         replacement="    return wit, _degree(zs_of_y), _degree(t.zs_of_x), d_z\n",
         breaks="E7 and E2' read the degrees of the other side",
         tests=T_CHECKS),
    dict(name="E3 fold skips a z", file=TRI,
         snippet="        for z in zs:\n            hit = col & x_masks[z]\n",
         replacement="        for z in zs[1:]:\n            hit = col & x_masks[z]\n",
         breaks="E3 leaves each symbol's first column out of its fold",
         tests=T_CHECKS),
    dict(name="E3 passes a pair met twice", file=TRI,
         snippet="            multi |= seen & hit\n",
         replacement="",
         breaks="E3 accepts an incident (x, y) that two columns hold",
         tests=T_CHECKS),
    # E4, E5 and E6 from one walk of the column graphs
    dict(name="E4 and E5 pass a pair met by none", file=TRI,
         snippet="if c != 1), None)",
         replacement="if c > 1), None)",
         breaks="E4 and E5 accept an incident pair with no third coordinate",
         tests=T_CHECKS),
    dict(name="E4 witness from the first failing column", file=TRI,
         snippet="        if i is not None and (e4 is None or xs[i] < e4[0]):\n",
         replacement="        if i is not None and e4 is None:\n",
         breaks="E4 names the first failing column's pair, not the least row's",
         tests=T_CHECKS),
    dict(name="E5 never scanned", file=TRI,
         snippet="        if j is not None and (e5 is None or ys[j] < e5[0]):\n",
         replacement="        if False:\n",
         breaks="E5 always holds",
         tests=T_CHECKS),
    dict(name="E6 accepts degree 0", file=TRI,
         snippet=" and 0 not in sums else None\n",
         replacement=" else None\n",
         breaks="E6 passes a column whose graph has no edge",
         tests=T_CHECKS),
    dict(name="E6 skips column 0 in check_conditions", file=TRI,
         snippet="    degrees = tuple(degrees)\n",
         replacement="    degrees = tuple(degrees)[1:]\n",
         breaks="check_conditions leaves the first column out of E6 and e6_degrees",
         tests=T_CHECKS),
    dict(name="E6 lets unequal sides through", file=TRI,
         snippet="    sums = set(rows + cols)\n",
         replacement="    sums = set(rows)\n",
         breaks="E6 reads the rows' degrees alone: a column with more symbols than rows, "
                "or with symbols of another degree, passes",
         tests=T_CHECKS),
    dict(name="E1' left out of _require_degrees", file=TRI,
         snippet="""    for name, d in (("E1'", d_z), ("E2'", d_y), ("E7", d_x)):\n""",
         replacement="""    for name, d in (("E2'", d_y), ("E7", d_x)):\n""",
         breaks="an orientation is emitted although the column degree D_Z is not constant",
         tests=T_CHECKS),
    dict(name="E2' left out of _require_degrees", file=TRI,
         snippet="""(("E1'", d_z), ("E2'", d_y), ("E7", d_x))""",
         replacement="""(("E1'", d_z), ("E7", d_x))""",
         breaks="an orientation is emitted although the symbol degree D_Y is not constant",
         tests=T_CHECKS),
    dict(name="E7 left out of _require_degrees", file=TRI,
         snippet="""(("E1'", d_z), ("E2'", d_y), ("E7", d_x)):""",
         replacement="""(("E1'", d_z), ("E2'", d_y)):""",
         breaks="an orientation is emitted although the row degree D_X is not constant",
         tests=T_CHECKS),
    # the validator, from the symbol map's index lists
    dict(name="C1 passes a column with too few stars", file=PDA,
         snippet="        if stars != p.q:\n",
         replacement="        if stars > p.q:\n",
         breaks="C1 accepts a column with fewer than Q stars",
         tests=T_VALID),
    dict(name="C2 passes a missing symbol", file=PDA,
         snippet="    if len(cells) != s:  # every symbol is in 1..s, so one is missing\n",
         replacement="    if len(cells) > s:  # every symbol is in 1..s, so one is missing\n",
         breaks="C2 accepts an array in which a declared symbol never occurs",
         tests=T_VALID),
    dict(name="non-star masks skip a cell", file=PDA,
         snippet="        for j, b in zip(rows, map(bit, cols)):\n",
         replacement="        for j, b in zip(rows[1:], map(bit, cols[1:])):\n",
         breaks="each symbol's first cell is left out of its row's non-star mask",
         tests=T_VALID),
    dict(name="C3 drops the column-distinctness test", file=PDA,
         snippet="        if mine.bit_count() == left:\n",
         replacement="        if True:\n",
         breaks="C3 accepts a symbol repeated in a column",
         tests=T_VALID),
    dict(name="C3 counts against len - 1", file=PDA,
         snippet="        mine, left = sum(map(bit, cols)), len(cols)\n",
         replacement="        mine, left = sum(map(bit, cols)), len(cols) - 1\n",
         breaks="every symbol fails the bit counts and is walked pair by pair",
         tests=T_VALID),
    dict(name="C3 walk checks one crossing cell", file=PDA,
         snippet="            if grid[j1][k2] != STAR or grid[j2][k1] != STAR:\n",
         replacement="            if grid[j1][k2] != STAR:\n",
         breaks="C3's walk misses a non-star crossing cell in the first cell's column",
         tests=T_VALID),
]


def _last_test(output: str) -> str | None:
    """The node id of the last test pytest -v started, from its output."""
    ids = re.findall(r"^(tests/\S+::\S+)", output, re.M)
    return ids[-1] if ids else None


def run_tests(src: Path, tests: list) -> tuple[str | None, float]:
    """Run pytest on tests with src first on the path, stopping at the first
    failure: (the failing test, the one running at the timeout, or None
    when all passed; seconds)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONUNBUFFERED": "1"}  # a run killed at its timeout still shows its last test
    # -v names each test as it starts; assertion diffs stay at the quiet
    # level, since a full diff of two long failure lists takes minutes
    cmd = [sys.executable, "-m", "pytest", "-x", "-v", "-o", "verbosity_assertions=0",
           "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return f"timeout after {TIMEOUT} s in {_last_test(out)}", time.perf_counter() - start
    took = time.perf_counter() - start
    if proc.returncode == 0:
        return None, took
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", out, re.M)
    return (failed[0] if failed else f"pytest exited {proc.returncode}"), took


def apply(src: Path, mutant: dict) -> None:
    """Replace the mutant's snippet in the copy at src, exactly once."""
    path = src / mutant["file"]
    text = path.read_text()
    if text.count(mutant["snippet"]) != 1:
        raise SystemExit(f"{mutant['name']}: snippet occurs {text.count(mutant['snippet'])} "
                         f"times in {mutant['file']}, not once")
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    ignore = shutil.ignore_patterns("__pycache__")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(SRC, base, ignore=ignore)
        every = list(dict.fromkeys(t for m in MUTANTS for t in m["tests"]))
        failed, took = run_tests(base, every)
        if failed:
            raise SystemExit(f"the unmutated subsets fail ({failed}); fix that first")
        results = []
        for m in MUTANTS:
            src = Path(tmp) / "mutant"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(SRC, src, ignore=ignore)
            apply(src, m)
            killer, secs = run_tests(src, m["tests"])
            results.append({**m, "status": "survived" if killer is None else "killed",
                            "killed_by": killer, "seconds": round(secs, 1)})
            print(f"{results[-1]['status']:8} {m['name']}: {killer}", file=sys.stderr)
    out = {"command": f"python3 tools/mutants.py --out {args.out.name}",
           "python": platform.python_version(), "timeout_s": TIMEOUT,
           "baseline_s": round(took, 1),
           "killed": sum(r["status"] == "killed" for r in results),
           "survived": [r["name"] for r in results if r["status"] == "survived"],
           "mutants": results}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 1 if out["survived"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
