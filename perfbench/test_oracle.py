"""Tests of the benchmark itself: every oracle check can fail.

    python3 -m pytest -q perfbench
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pdakit import (ConstructionSpec, FileLibrary, Pda, STAR, construct_pda,  # noqa: E402
                    decode, deliver, format_pda, place)

import run  # noqa: E402
from oracle import (Checker, check_array, check_decoded, check_exit, digest,  # noqa: E402
                    load_reference, spec_key)
from speed import PERIOD_S, REF_S, SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Stats, admissible_specs, build_array, run_cli  # noqa: E402

PG7 = ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1)
PLAIN = Tracer(False)


def _pg7():
    p = construct_pda(PG7)
    return p, load_reference()["sweep"][spec_key(PG7)]


def _check(p, ref_digest) -> Checker:
    chk = Checker()
    check_array(chk, PLAIN, "pg7", p, (7, 7, 4, 7), ref_digest)
    return chk


def test_reference_array_passes_every_check():
    p, ref = _pg7()
    chk = _check(p, ref)
    assert chk.attempted == 5 and chk.failed == 0


def test_one_changed_cell_fails_digest_and_validation():
    p, ref = _pg7()
    grid = [list(row) for row in p.grid]
    j, k = next((j, k) for j, row in enumerate(grid) for k, v in enumerate(row) if v == STAR)
    grid[j][k] = 1
    bad = Pda(p.k, p.f, p.q, p.s, tuple(map(tuple, grid)))
    chk = _check(bad, ref)
    assert chk.failed == 2
    assert any("invalid" in f for f in chk.failures)
    assert any("digest" in f for f in chk.failures)


def test_flipped_transmission_byte_fails_decode():
    p, _ = _pg7()
    lib = FileLibrary.random(2, p.f, 16, seed=3)
    caches = place(p, lib)
    demand = tuple(u % 2 for u in range(p.k))
    tx = deliver(p, lib, demand)
    chk = Checker()
    check_decoded(chk, "clean", decode(p, caches[0], tx, demand, 0), lib, demand[0])
    assert chk.failed == 0
    sym = next(v for v in (row[0] for row in p.grid) if v != STAR)
    flipped = bytearray(tx[sym - 1])
    flipped[0] ^= 0xFF
    tx[sym - 1] = bytes(flipped)
    check_decoded(chk, "flipped", decode(p, caches[0], tx, demand, 0), lib, demand[0])
    assert chk.failed == 1 and chk.attempted == 2


def test_wrong_cli_exit_code_counts_as_failure(tmp_path):
    good, bad = tmp_path / "good.pda", tmp_path / "bad.pda"
    good.write_text(format_pda(construct_pda(PG7)))
    bad.write_text("2 2 2 1\n* *\n1 1\n")  # C1 fails: exit code 2
    chk = Checker()
    check_exit(chk, "validate good", run_cli(["validate", str(good)]))
    assert chk.failed == 0
    check_exit(chk, "validate bad", run_cli(["validate", str(bad)]))
    assert chk.failed == 1 and "exit code 2" in chk.failures[0]


def test_exception_in_an_operation_counts_as_failure():
    chk = Checker()
    with chk.guard("op"):
        raise ValueError("boom")
    assert (chk.attempted, chk.failed) == (1, 1)


def test_traced_stages_build_the_reference_arrays():
    reference = load_reference()["sweep"]
    tracer = Tracer(True)
    for spec in admissible_specs():
        with tracer.op("array"):
            p = build_array(tracer, spec, Stats())
        assert digest(p) == reference[spec_key(spec)], spec_key(spec)
    names = {s[0] for s in tracer.spans}
    assert {"constructions.build_triple", "triples.complete_matching",
            "triples.orientations", "triples.triple_to_pda"} <= names


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.op("x"):
        tracer.call("pda.inner", sum, range(10_000))
    by_name, by_layer = tracer.self_seconds(lambda a, b: b - a)
    (_, s0, e0, _, _), (_, s1, e1, parent, op) = tracer.spans
    assert parent == 0 and op == 0
    assert abs(by_name["bench.x"] - ((e0 - s0) - (e1 - s1)) / 1e9) < 1e-9
    assert by_layer["pda"] == by_name["pda.inner"]


def test_speed_clock_scales_each_stretch_and_skips_calibrations():
    clock = SpeedClock()
    # Calibrations over [0, 1], [10, 11] and [20, 23]: loops of 1, 1 and 3 s.
    clock._starts, clock._ends = [0.0, 10.0, 20.0], [1.0, 11.0, 23.0]
    clock.loop_s = [1.0, 1.0, 3.0]
    assert clock.seconds(1, 10) == pytest.approx(9 * REF_S)
    assert clock.seconds(5, 15) == pytest.approx(5 * REF_S + 4 * REF_S / 2)
    assert clock.seconds(2, 8) + clock.seconds(8, 18) == pytest.approx(clock.seconds(2, 18))
    for a, b in ((0.5, 5), (5, 21)):
        with pytest.raises(ValueError):
            clock.seconds(a, b)


def test_speed_clock_calibrates_on_its_timer_while_running():
    clock = SpeedClock()
    previous = signal.getsignal(signal.SIGALRM)
    with clock.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * PERIOD_S:
            pass
        t1 = time.perf_counter()
    assert len(clock.loop_s) >= 4  # start, at least two timer calibrations, end
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert clock.seconds(t0, t1) > 0


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOAD_NAMES)


def test_memory_tracer_records_each_stage_allocation_peak():
    tracer = Tracer(True, memory=True)
    build_array(tracer, PG7, Stats())
    peaks = tracer.alloc_peak_mb
    assert set(peaks) == {"constructions.build_triple", "triples.complete_matching",
                          "triples.orientations"}
    assert all(v > 0 for v in peaks.values())
