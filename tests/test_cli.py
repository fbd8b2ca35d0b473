import csv
import io
import itertools
import json
import sys
import time
from collections import Counter

import pytest

import pdakit.cli
import pdakit.constructions
import pdakit.pda
import pdakit.sim
import pdakit.triples
from pdakit.cli import main
from pdakit.constructions import ConstructionSpec, construct_pda
from pdakit.designs import catalog_lookup, design_to_json
from pdakit.pda import format_pda, parse_pda

from conftest import TINY


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.pda"
    path.write_text(format_pda(TINY))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.pda"
    path.write_text("2 2 2 1\n* *\n1 1\n")
    return str(path)


@pytest.fixture
def counted(monkeypatch):
    """Record every file the CLI reads and every array any module validates."""
    calls = {"read": [], "validate": []}
    real_read, real_validate = pdakit.cli._read_pda, pdakit.pda.validate_pda

    def read(path):
        calls["read"].append(path)
        return real_read(path)

    def validate(p):
        calls["validate"].append(p)
        return real_validate(p)

    monkeypatch.setattr(pdakit.cli, "_read_pda", read)
    for name, module in list(sys.modules.items()):
        if name.startswith("pdakit") and hasattr(module, "validate_pda"):
            monkeypatch.setattr(module, "validate_pda", validate)
    return calls


# --- construct ------------------------------------------------------------


def test_construct_pg_stdout(run):
    code, out, err = run("construct", "pg", "--q", "2", "--k", "3",
                         "--m", "1", "--t", "1")
    assert code == 0
    assert out.splitlines()[0] == "7 7 4 7"
    assert "K=7 F=7 Q=4 S=7" in err
    assert "R*=3/5" in err
    assert err == ("family=pg q=2,k=3,m=1,t=1 set=1 K=7 F=7 Q=4 S=7 M/N=4/7 R=1 "
                   "R*=3/5 R/R*=5/3 F*(MN)=35\n")
    parsed = parse_pda(out)
    assert (parsed.k, parsed.f, parsed.q, parsed.s) == (7, 7, 4, 7)


def test_construct_tdesign_b(run):
    code, out, _ = run("construct", "tdesign-b", "--design", "complete:4:2",
                       "--t1", "1", "--t2", "1")
    assert code == 0
    assert out.splitlines()[0] == "4 4 1 6"


def test_construct_to_file_with_json(run, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run("construct", "config", "--design", "fano", "--set", "2",
                       "--out", str(target), "--json")
    assert code == 0
    assert "K=7" in out  # summary goes to stdout when the array goes to a file
    obj = json.loads(target.read_text())
    assert (obj["K"], obj["F"], obj["Q"], obj["S"]) == (7, 7, 4, 7)
    assert obj["provenance"]["family"] == "config"
    assert obj["provenance"]["orientation"] == 2


def test_construct_missing_args(run):
    code, _, err = run("construct", "pg", "--k", "3", "--m", "1", "--t", "1")
    assert code == 3 and "--q" in err


def test_construct_inadmissible(run):
    code, _, err = run("construct", "pg", "--q", "2", "--k", "3", "--m", "1",
                       "--t", "2", "--set", "2")
    assert code == 3 and "inadmissible" in err


def test_construct_bad_hypotheses(run):
    code, _, err = run("construct", "tdesign-b", "--design", "fano",
                       "--t1", "1", "--t2", "2")
    assert code == 3 and "max" in err


def test_config_of_one_point_blocks_is_refused_alike_by_tabulate_and_construct(run):
    """No two points of complete:4:1 share a block: the closed form and the
    builder refuse it with one text, so tabulate shows no row construct fails."""
    want = "error: a configuration needs blocks of at least 2 points, got k=1\n"
    for cmd in ("tabulate", "construct"):
        assert run(cmd, "config", "--design", "complete:4:1") == (3, "", want)


def test_construct_design_without_t_parameters(run):
    code, _, err = run("construct", "tdesign-a", "--design", "td:3:3", "--t0", "1")
    assert code == 3 and err == "error: design carries no t-design parameters\n"


def test_construct_condition_error_exits_3(run, monkeypatch):
    """A condition failing in the builder is a construction failure; no
    family input reaches it once the closed form has admitted the spec."""
    def fail(spec, stats=None):
        raise pdakit.triples.ConditionError("E6", "columns differ in degree")

    monkeypatch.setattr(pdakit.cli, "construct_pda", fail)
    code, out, err = run("construct", "config", "--design", "fano")
    assert (code, out) == (3, "")
    assert err == "construction failed: E6 fails: columns differ in degree\n"


def test_construct_stats_line(run, fresh_cells):
    """--stats adds construct_pda's stats as the last stderr line, one JSON
    object whose stage keys cover build, match and emit; stdout is unchanged."""
    argv = ("construct", "pg", "--q", "2", "--k", "3", "--m", "1", "--t", "1")
    code, out, err = run(*argv, "--stats")
    assert code == 0 and (out, err.splitlines()[0] + "\n") == run(*argv)[1:]
    lines = err.splitlines()
    assert len(lines) == 2
    stats = json.loads(lines[1])
    for stage in ("build", "match", "emit"):
        assert stats[f"{stage}_s"] > 0 and stats[f"{stage}_rss_mb"] > 0, stage
    assert stats["reused"] is False and stats["kuhn_runs"] == stats["column_keys"] == 1
    assert (stats["size_x"], stats["size_y"], stats["size_z"]) == (7, 7, 7)


# --- validate -------------------------------------------------------------


def test_validate_ok(run, tiny_file):
    code, out, _ = run("validate", tiny_file)
    assert code == 0 and "OK: valid" in out


def test_validate_failure(run, bad_file):
    code, out, _ = run("validate", bad_file)
    assert code == 2 and "params" in out


def test_validate_json(run, tiny_file):
    code, out, _ = run("validate", "--json", tiny_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["K"] == 2


def test_validate_parse_error(run, tmp_path):
    junk = tmp_path / "junk.pda"
    junk.write_text("not a pda\n")
    code, _, err = run("validate", str(junk))
    assert code == 3 and "parse error" in err


def test_validate_non_utf8_file(run, tmp_path):
    path = tmp_path / "latin1.pda"
    path.write_bytes(b"2 2 1 1\n* 1\n1 *\n# caf\xe9\n")
    code, _, err = run("validate", str(path))
    assert code == 3 and err.startswith("parse error:")


@pytest.mark.parametrize("text", [
    '{"K": 2, "F": 2,',
    '{"K": 2, "F": 2, "Q": 1, "S": ' + "1" * 5000 + "}",
    '{"grid": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["truncated", "past-int-digit-limit", "past-recursion-limit"])
def test_validate_malformed_json(run, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run("validate", str(path))
    assert code == 3 and err.startswith("parse error:")


def test_validate_missing_file(run, tmp_path):
    code, _, err = run("validate", str(tmp_path / "nope.pda"))
    assert code == 3


def test_validate_json_input(run, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"K": 2, "F": 2, "Q": 1, "S": 1,
                                "grid": [["*", 1], [1, "*"]]}))
    code, out, _ = run("validate", str(path))
    assert code == 0 and "OK" in out


# --- simulate -------------------------------------------------------------


def test_simulate_reports_rate(run, tiny_file):
    code, out, _ = run("simulate", tiny_file, "--files", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["rate"] == "1/2"
    assert obj["mode"] == "exhaustive"
    assert obj["failures"] == []


def test_simulate_default_library_size(run, tiny_file):
    code, out, _ = run("simulate", tiny_file)
    assert code == 0
    assert json.loads(out)["demands_tested"] == 4  # N = min(K, 4) = 2


def test_simulate_stats_line(run, tiny_file):
    """--stats prints verify_scheme's stats as one JSON line on stderr."""
    code, out, err = run("simulate", tiny_file, "--files", "2", "--stats")
    assert code == 0 and out == run("simulate", tiny_file, "--files", "2")[1]
    stats = json.loads(err)
    assert set(stats) == {"setup_s", "draw_s", "loop_s", "demands_per_s", "users_peeled",
                          "loop", "words_bytes", "truth", "table_bytes"}
    assert stats["loop"] == "words" and stats["users_peeled"] == 0
    # 2x2 array, N=2: both users fold into a 4-entry tail of one 16-byte slot
    assert stats["truth"] == "table" and stats["table_bytes"] == 4 * 16
    assert 0 <= stats["draw_s"] <= stats["setup_s"]


def test_main_calls_share_no_state(run, tiny_file, fresh_cells):
    """The parser is built once per process, yet each main call starts from
    the defaults: no --stats and no --set carries over to the next call."""
    assert pdakit.cli._build_parser() is pdakit.cli._build_parser()
    code, _, err = run("simulate", tiny_file, "--stats")
    assert code == 0 and json.loads(err)["loop"] == "words"
    assert run("simulate", tiny_file)[::2] == (0, "")  # no stats line
    argv = ("construct", "pg", "--q", "2", "--k", "3", "--m", "1", "--t", "1", "--json")
    code, out, _ = run(*argv, "--set", "2")
    assert code == 0 and json.loads(out)["provenance"]["orientation"] == 2
    code, out, err = run(*argv)
    assert code == 0 and json.loads(out)["provenance"]["orientation"] == 1
    assert (out, err) == run(*argv, "--set", "1")[1:] and "set=1" in err


def test_simulate_refuses_invalid(run, bad_file):
    code, _, err = run("simulate", bad_file)
    assert code == 2 and "refusing" in err


def test_simulate_rejects_empty_library(run, tiny_file):
    code, _, err = run("simulate", tiny_file, "--files", "0")
    assert code == 3 and "error" in err


def test_simulate_negative_samples_exits_3(run, tiny_file):
    code, out, err = run("simulate", tiny_file, "--samples", "-1")
    assert code == 3 and out == "" and "samples must be at least 0, not -1" in err


def test_simulate_exhaustive_limit_exits_3(run, tmp_path, monkeypatch):
    path = tmp_path / "wide.pda"
    path.write_text(format_pda(construct_pda(ConstructionSpec("pg", 1, q=2, k=4, m=1, t=1))))

    def product(*args, **kwargs):  # 4^15 tuples must never be asked for
        raise AssertionError("demand product built")

    monkeypatch.setattr(itertools, "product", product)
    code, out, err = run("simulate", str(path), "--mode", "exhaustive")
    assert code == 3 and out == ""
    assert "4^15 demand vectors" in err


def test_simulate_corrupt_cache_exits_4(run, tiny_file, monkeypatch):
    real_place = pdakit.sim.place

    def place(p, lib):
        caches = real_place(p, lib)
        caches[0].packets[(0, 0)] = bytes(lib.packet_size)  # user 0's file-0 star packet
        return caches

    monkeypatch.setattr(pdakit.sim, "place", place)
    code, out, _ = run("simulate", tiny_file, "--files", "2")
    assert code == 4
    # user 0 reads file 0 row 0 as its own row when it wants file 0, and as
    # the side packet of symbol 1 when user 1 wants file 0
    assert json.loads(out)["failures"] == [{"demand": d, "user": 0}
                                           for d in ([0, 0], [0, 1], [1, 0])]


def test_simulate_reads_and_validates_once(run, tiny_file, counted):
    code, _, _ = run("simulate", tiny_file)
    assert code == 0
    assert counted["read"] == [tiny_file]
    assert counted["validate"] == [TINY]


# --- product --------------------------------------------------------------


def test_product(run, tiny_file):
    code, out, err = run("product", tiny_file, tiny_file)
    assert code == 0
    assert out.splitlines()[0] == "4 4 3 1"
    assert "K=4 F=4 Q=3 S=1" in err
    assert "R/R*" in err


def test_product_to_file(run, tiny_file, tmp_path):
    target = tmp_path / "prod.pda"
    code, out, _ = run("product", tiny_file, tiny_file, "--out", str(target))
    assert code == 0 and "K=4" in out
    assert parse_pda(target.read_text()).k == 4


def test_product_invalid_factor(run, tiny_file, bad_file):
    code, _, err = run("product", tiny_file, bad_file)
    assert code == 2 and "second factor is not a valid PDA" in err


def test_product_validates_each_factor_once(run, tiny_file, tmp_path, counted):
    pg7 = construct_pda(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1))
    pg7_file = tmp_path / "pg7.pda"
    pg7_file.write_text(format_pda(pg7))
    code, out, _ = run("product", tiny_file, str(pg7_file))
    assert code == 0
    assert counted["read"] == [tiny_file, str(pg7_file)]
    # each factor once, then the product once
    assert counted["validate"][:2] == [TINY, pg7]
    assert counted["validate"][2:] == [parse_pda(out)]


# --- tabulate -------------------------------------------------------------


def test_tabulate_pg_text(run):
    code, out, _ = run("tabulate", "pg", "--q", "2", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["family", "params", "set"]
    assert len(lines) == 1 + 9  # (m,t) in {(1,1),(1,2),(2,1)} x 3 orientations
    assert any("no (" in ln for ln in lines)  # inadmissible rows are flagged


def test_tabulate_pg_range_csv(run):
    code, out, _ = run("tabulate", "pg", "--q", "2", "--k", "2..3",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["family", "params", "set", "K"]
    assert len(rows) == 1 + 3 + 9
    seven = [r for r in rows if r[1] == "q=2,k=3,m=1,t=1" and r[2] == "1"]
    assert seven[0][3:7] == ["7", "7", "4", "7"]


def test_tabulate_design_families(run):
    code, out, _ = run("tabulate", "config", "--design", "fano")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = run("tabulate", "tdesign-a", "--design", "sqs8")
    assert code == 0 and len(out.splitlines()) == 4  # only t0 = 2 is admissible
    code, out, _ = run("tabulate", "tdesign-b", "--design", "complete:4:2")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = run("tabulate", "tdesign-lambda", "--design", "sqs8")
    assert code == 0 and len(out.splitlines()) == 1 + 9


def test_tabulate_missing_args(run):
    code, _, err = run("tabulate", "pg", "--k", "3")
    assert code == 3 and "--q" in err
    code, _, err = run("tabulate", "config")
    assert code == 3 and "--design" in err
    code, _, err = run("tabulate", "pg", "--q", "2", "--k", "x..3")
    assert code == 3 and "bad range" in err
    # ASCII decimals only; int() reads each of these
    for span in ("\u0663", "+3", " 3", "3_0", "2..\u0663", "\uff12..3"):
        code, out, err = run("tabulate", "pg", "--q", "2", "--k", span)
        assert code == 3 and "bad range" in err and out == ""
    for ref in ("complete:\u0664:2", "complete:+4:2", "complete:4_0:2", "td:3:\uff13"):
        code, out, err = run("tabulate", "config", "--design", ref)
        assert code == 3 and "malformed design reference" in err and out == ""


def test_tabulate_no_admissible_combo(run):
    # a plain 2-design leaves tdesign-b with no (t1, t2) split
    code, _, err = run("tabulate", "tdesign-b", "--design", "fano")
    assert code == 3 and "no admissible" in err


@pytest.mark.parametrize("span", ["3..2", "0", "1"])
def test_tabulate_pg_empty_span(run, span):
    # a reversed range, and k < 2, which has no (m, t): no row, so no table
    code, out, err = run("tabulate", "pg", "--q", "2", "--k", span)
    assert (code, out) == (3, "")
    assert "no admissible" in err and f"--k {span}:" in err


def test_tabulate_resolves_and_certifies_the_design_once(run, monkeypatch):
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    # the hypothesis checks; a catalog design's self-check of its fixed
    # blocks runs inside from_reference, which is counted as a whole
    for module in (pdakit.cli, pdakit.constructions):
        for fn in ("from_reference", "certify_t_design", "certify_configuration"):
            monkeypatch.setattr(module, fn, counting(fn, getattr(module, fn)))
    code, out, _ = run("tabulate", "tdesign-lambda", "--design", "sqs8")
    assert code == 0 and calls == {"from_reference": 1, "certify_t_design": 1}
    rows = out.splitlines()[1:]
    assert len(rows) == 9 and all("design=sqs8," in r for r in rows)
    calls.clear()
    code, out, _ = run("tabulate", "config", "--design", "fano")
    assert code == 0 and calls == {"from_reference": 1, "certify_configuration": 1}
    assert all(r.split()[1] == "design=fano" for r in out.splitlines()[1:])


def test_tabulate_pg_huge_f_star(run):
    # an exact F*(MN) past 4300 digits crashed the text conversion or took minutes
    for q in (2, 3):
        start = time.perf_counter()
        code, out, _ = run("tabulate", "pg", "--q", str(q), "--k", "8", "--format", "csv")
        assert code == 0 and time.perf_counter() - start < 5
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert Counter(r[1] for r in rows) == {f"q={q},k=8,m={m},t={t}": 3
                                               for m in range(1, 8) for t in range(1, 9 - m)}
        assert all(len(r[11]) <= 4300 for r in rows)
        if q == 2:
            f_star = {(r[1], r[2]): r[11] for r in rows}
            assert f_star["q=2,k=8,m=1,t=5", "1"] == "~3.01e+5304"  # C(97155, 94489)


# --- designs --------------------------------------------------------------


def test_designs_show(run):
    code, out, _ = run("designs", "show", "fano")
    assert code == 0
    obj = json.loads(out)
    assert obj["v"] == 7 and len(obj["blocks"]) == 7
    assert obj["tag"]["t-design"]["lambda"] == 1


def test_designs_certify_reference(run):
    code, out, _ = run("designs", "certify", "sts:9")
    assert code == 0 and "OK: certified" in out


def test_designs_certify_file(run, tmp_path):
    path = tmp_path / "fano.json"
    path.write_text(json.dumps(design_to_json(catalog_lookup("fano"))))
    code, out, _ = run("designs", "certify", str(path))
    assert code == 0
    assert "2-(7,3,1) design" in out and "configuration" in out


def test_designs_certify_broken_file(run, tmp_path):
    obj = design_to_json(catalog_lookup("fano"))
    obj["blocks"] = obj["blocks"][1:]  # drop a block, keep the tag
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run("designs", "certify", str(path))
    assert code == 2 and "FAIL" in out


def test_designs_certify_untagged(run, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"v": 3, "blocks": [[0, 1]]}))
    code, _, err = run("designs", "certify", str(path))
    assert code == 3 and "no parameters" in err


def _fano_with(**changes) -> dict:
    obj = design_to_json(catalog_lookup("fano"))
    for path, value in changes.items():
        *outer, last = path.split("__")
        target = obj
        for key in outer:
            target = target[key]
        if value is KeyError:
            del target[last]
        else:
            target[last] = value
    return obj


@pytest.mark.parametrize("obj", [
    _fano_with(v=True),
    _fano_with(v=7.0),
    _fano_with(v="7"),
    _fano_with(blocks=[[0, True, 2]]),
    _fano_with(blocks=[[0, 1.7, 3]]),
    _fano_with(blocks=[[0, "1", 3]]),
    _fano_with(**{"tag__t-design__lambda": True}),
    _fano_with(**{"tag__configuration__r": 3.0}),
    _fano_with(**{"tag__t-design__lambda": KeyError}),
    _fano_with(**{"tag__t-design__v": KeyError}),
    _fano_with(**{"tag__configuration__k": KeyError}),
], ids=["v-bool", "v-float", "v-string", "point-bool", "point-float", "point-string",
        "lambda-bool", "r-float", "lambda-missing", "tag-v-missing", "config-k-missing"])
def test_designs_certify_rejects_non_int_and_missing_keys(run, tmp_path, obj):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(obj))
    code, out, err = run("designs", "certify", str(path))
    assert code == 3 and "malformed design object" in err and out == ""


@pytest.mark.parametrize("payload", [
    b'{"v": 3, "blocks": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    b'{"v": 3, "blocks": [[0, 1]',
    b'{"v": 3, "blocks": [[0, 1]], "tag": "\xff"}',
], ids=["nested-past-recursion-limit", "truncated", "not-utf-8"])
def test_designs_certify_unreadable_file_is_parse_error(run, tmp_path, payload):
    path = tmp_path / "design.json"
    path.write_bytes(payload)
    code, _, err = run("designs", "certify", str(path))
    assert code == 3 and err.startswith("parse error:")


# --- argparse plumbing ----------------------------------------------------


def test_usage_errors_exit_3(run):
    code, _, err = run("bogus")
    assert code == 3
    code, _, err = run("construct", "nofamily")
    assert code == 3
    code, _, _ = run()
    assert code == 3


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
