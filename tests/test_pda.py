import json
import re
from fractions import Fraction

import pytest

import pdakit.pda as pda
from pdakit import direct_product
from pdakit.pda import (InvalidPdaError, Pda, PdaFormatError, STAR, canonical_relabel,
                        format_pda, parse_pda, pda_from_json, pda_to_json,
                        require_valid, scheme_parameters, validate_pda)

from conftest import all_pdas

TINY = Pda(2, 2, 1, 1, ((STAR, 1), (1, STAR)))


def test_valid_examples():
    assert validate_pda(TINY).ok
    p = Pda(3, 3, 1, 3, ((STAR, 1, 2), (2, STAR, 3), (3, 1, STAR)))
    # symbol 1 appears at (0,1) and (2,1): same column, so this must fail
    assert not validate_pda(p).ok

    good = Pda(3, 3, 2, 1, ((STAR, STAR, 1), (STAR, 1, STAR), (1, STAR, STAR)))
    assert validate_pda(good).ok


def test_params_checked_first():
    rep = validate_pda(Pda(2, 2, 2, 1, ((STAR, STAR), (STAR, STAR))))
    assert rep.condition == "params" and "Q < F" in rep.detail
    rep = validate_pda(Pda(1, 2, 1, 0, ((STAR,), (STAR,))))
    assert rep.condition == "params"


def test_range_violation():
    rep = validate_pda(Pda(2, 2, 1, 1, ((STAR, 5), (1, STAR))))
    assert rep.condition == "range" and "(0,1)" in rep.detail


def test_c1_violation():
    rep = validate_pda(Pda(1, 3, 1, 1, ((STAR,), (STAR,), (1,))))
    assert rep.condition == "C1" and "column 0" in rep.detail


def test_c2_violation():
    rep = validate_pda(Pda(2, 2, 1, 2, ((STAR, 1), (1, STAR))))
    assert rep.condition == "C2" and "symbol 2" in rep.detail


def test_c3_same_row():
    rep = validate_pda(Pda(2, 2, 1, 1, ((1, 1), (STAR, STAR))))
    assert rep.condition == "C3" and "repeats" in rep.detail


def test_c3_same_column():
    # C1 and C2 hold; summed, the symbol's three column bits carry into a mask
    # that holds each cell's own bit, so only the bit count shows the repeat
    rep = validate_pda(Pda(1, 4, 1, 1, ((STAR,), (1,), (1,), (1,))))
    assert (rep.condition, rep.detail) == (
        "C3", "symbol 1 repeats in a row or column at (1,0) and (2,0)")


def test_c3_crossing_cell():
    p = Pda(2, 3, 1, 2, ((STAR, 2), (1, STAR), (2, 1)))
    rep = validate_pda(p)
    assert rep.condition == "C3" and "crossing" in rep.detail


def test_c3_walks_only_a_failing_symbol(monkeypatch, sweep):
    # the per-symbol bit counts decide C3; the pairwise walk that names the
    # witness runs for a symbol that fails them, so on no valid array
    walked, real = [], pda._c3_failure
    monkeypatch.setattr(pda, "_c3_failure",
                        lambda grid, sym, *cells: walked.append(sym) or real(grid, sym, *cells))
    for p in all_pdas(sweep):
        assert validate_pda(Pda(p.k, p.f, p.q, p.s, p.grid)).ok  # a fresh array: no cached report
    assert walked == []
    # symbol 2 comes first and fails: (2,1), crossing its cells, holds 1
    rep = validate_pda(Pda(2, 3, 1, 2, ((STAR, 2), (1, STAR), (2, 1))))
    assert rep.condition == "C3" and walked == [2]


def test_pda_shape_errors():
    with pytest.raises(ValueError):
        Pda(2, 2, 1, 1, ((STAR, 1),))  # wrong row count
    with pytest.raises(ValueError):
        Pda(2, 2, 1, 1, ((STAR,), (1,)))  # wrong row width
    with pytest.raises(ValueError):
        Pda(2, 2, 1, 1, ((STAR, -1), (1, STAR)))


def test_pda_reports_its_shape_before_its_entries():
    """A short row, or a missing one, is named before a bad entry in an
    earlier row: the shape is checked whole before any entry."""
    with pytest.raises(ValueError, match="^grid row has 1 entries, declared K=2$"):
        Pda(2, 2, 1, 1, ((STAR, -1), (1,)))
    with pytest.raises(ValueError, match="^grid has 1 rows, declared F=2$"):
        Pda(2, 2, 1, 1, ((STAR, -1),))


def test_pda_keeps_its_own_grid():
    g = [[STAR, 1], [1, STAR]]
    p = Pda(2, 2, 1, 1, g)
    assert validate_pda(p).ok
    g[0][0] = 1  # would break C1 in p if p held the caller's rows
    assert p.grid == ((STAR, 1), (1, STAR))
    assert validate_pda(Pda(2, 2, 1, 1, p.grid)).ok
    assert hash(p) == hash(Pda(2, 2, 1, 1, ((STAR, 1), (1, STAR))))


def test_scheme_parameters():
    assert scheme_parameters(TINY) == (2, 2, Fraction(1, 2), Fraction(1, 2))


def test_canonical_relabel_returns_a_canonical_array_itself():
    assert canonical_relabel(TINY) is TINY
    shuffled = Pda(3, 3, 2, 3, ((STAR, STAR, 3), (STAR, 2, STAR), (1, STAR, STAR)))
    c = canonical_relabel(shuffled)
    assert c is not shuffled and canonical_relabel(c) is c
    overdeclared = Pda(2, 2, 1, 2, ((STAR, 1), (1, STAR)))  # S=2, one symbol occurs
    assert canonical_relabel(overdeclared) == TINY


def _public(p: Pda) -> Pda:
    """p rebuilt through the public constructor, which checks every entry."""
    assert type(p.grid) is tuple and all(type(row) is tuple for row in p.grid)
    return Pda(p.k, p.f, p.q, p.s, p.grid)


def test_trusted_producers_build_what_the_public_constructor_accepts(sweep):
    """Every array the emitter, the product, relabeling and both parsers
    build without the per-entry check passes it, and equals its rebuild."""
    for p in all_pdas(sweep):  # every sweep spec and orientation, the products, TINY
        reversed_symbols = Pda(p.k, p.f, p.q, p.s, tuple(
            tuple(STAR if v == STAR else p.s + 1 - v for v in row) for row in p.grid))
        for q in (p, canonical_relabel(p), canonical_relabel(reversed_symbols),
                  parse_pda(format_pda(p)), pda_from_json(json.loads(json.dumps(pda_to_json(p))))):
            assert q == _public(q)
        assert canonical_relabel(reversed_symbols) == p  # sweep arrays come out canonical
    for _, a, b, prod in sweep["products"]:
        assert prod == _public(prod) == direct_product(_public(a), _public(b))


def test_canonical_relabel():
    p = Pda(2, 2, 1, 2, ((STAR, 2), (2, STAR)))  # symbol 1 unused
    c = canonical_relabel(p)
    assert c == TINY
    assert canonical_relabel(c) == c
    shuffled = Pda(3, 3, 2, 3, ((STAR, STAR, 3), (STAR, 2, STAR), (1, STAR, STAR)))
    relabeled = canonical_relabel(shuffled)
    assert relabeled.grid == ((STAR, STAR, 1), (STAR, 2, STAR), (3, STAR, STAR))


def test_format_parse_round_trip():
    text = format_pda(TINY)
    assert text == "2 2 1 1\n* 1\n1 *\n"
    assert parse_pda(text) == TINY
    bigger = Pda(3, 3, 2, 1, ((STAR, STAR, 1), (STAR, 1, STAR), (1, STAR, STAR)))
    assert parse_pda(format_pda(bigger)) == bigger


def test_parse_errors():
    with pytest.raises(PdaFormatError, match="empty"):
        parse_pda("  \n \n")
    with pytest.raises(PdaFormatError, match="header"):
        parse_pda("1 2 3\n* *\n")
    with pytest.raises(PdaFormatError, match="non-integer"):
        parse_pda("a 2 1 1\n* 1\n1 *\n")
    with pytest.raises(PdaFormatError, match="grid rows"):
        parse_pda("2 2 1 1\n* 1\n")
    with pytest.raises(PdaFormatError, match="bad token"):
        parse_pda("2 2 1 1\n* 01\n1 *\n")
    with pytest.raises(PdaFormatError, match="bad token"):
        parse_pda("2 2 1 1\n* x\n1 *\n")
    with pytest.raises(PdaFormatError, match="bad token"):
        parse_pda("2 2 1 1\n* 0\n1 *\n")
    with pytest.raises(PdaFormatError, match="entries"):
        parse_pda("2 2 1 1\n* 1 1\n1 *\n")


def test_json_round_trip():
    obj = pda_to_json(TINY)
    assert obj == {"K": 2, "F": 2, "Q": 1, "S": 1, "grid": [["*", 1], [1, "*"]]}
    assert pda_from_json(obj) == TINY
    # survives a serialization pass
    assert pda_from_json(json.loads(json.dumps(obj))) == TINY


def test_json_provenance():
    obj = pda_to_json(TINY, provenance={"family": "manual"})
    assert obj["provenance"] == {"family": "manual"}
    assert pda_from_json(obj) == TINY  # provenance is advisory


def test_json_malformed():
    with pytest.raises(PdaFormatError):
        pda_from_json({"K": 2, "F": 2, "Q": 1, "S": 1, "grid": [["*", 0], [1, "*"]]})
    with pytest.raises(PdaFormatError):
        pda_from_json({"K": 2, "F": 2, "Q": 1, "grid": [["*", 1], [1, "*"]]})
    with pytest.raises(PdaFormatError):
        pda_from_json({"K": 2, "F": 2, "Q": 1, "S": 1, "grid": [["*", "x"], [1, "*"]]})


HEADER = {"K": 2, "F": 2, "Q": 1, "S": 1}


@pytest.mark.parametrize("obj, text", [
    ({"K": 2, "F": 2, "Q": 1, "grid": 5}, "malformed PDA object: 'S'"),
    ({**HEADER, "grid": 5}, "malformed PDA object: 'int' object is not iterable"),
    ({**HEADER, "grid": [["*", 1], "x"]}, "grid row must be a list, got 'x'"),
    ({**HEADER, "grid": [["*", 0], "x"]}, "bad grid value 0"),
    ({**HEADER, "grid": [[True, 1], "x"]}, "bad grid value True"),
])
def test_json_names_the_first_fault(obj, text):
    with pytest.raises(PdaFormatError) as exc:
        pda_from_json(obj)
    assert str(exc.value) == text


@pytest.mark.parametrize("text", [
    "2 2 1 1\n* ١\n١ *\n",   # Arabic-Indic digit one as a symbol
    "2 2 1 1\n* ²\n1 *\n",        # superscript two as a symbol
    "2 2 1 1_0\n* 1\n1 *\n",           # digit separator in a header field
    "2 ٢ 1 1\n* 1\n1 *\n",        # non-ASCII digit in the header
    "2 2 1 +1\n* 1\n1 *\n",            # sign in a header field
    pytest.param("2 2 1 1\n* " + "1" * 5000 + "\n1 *\n", id="past-int-digit-limit"),
])
def test_parse_accepts_only_ascii_decimals(text):
    with pytest.raises(PdaFormatError):
        parse_pda(text)


@pytest.mark.parametrize("text, text_error", [
    ("2 2 1 1\n* 1\x1c1 *\n", "expected 2 grid rows, found 1"),  # no row break but \n
    ("2 2 1 1\n* 1\x0b\n1 *\n", r"bad token '1\x0b'"),
    ("2 2 1 1\n* 1\x0c\n1 *\n", r"bad token '1\x0c'"),
    ("2 2 1 1\n* 1\u2028\n1 *\n", r"bad token '1\u2028'"),
    ("2 2 1 1\n*\x851\n1 *\n", r"bad token '*\x851'"),
    ("2 2 1 1\n*\xa01\n1 *\n", r"bad token '*\xa01'"),  # NBSP splits no tokens
    ("2 2 1 1\n*\u30001\n1 *\n", r"bad token '*\u30001'"),
    ("2 2 1 1\n* 1\r\r\n1 *\n", r"bad token '1\r'"),  # one \r before \n is dropped
    ("2 2 1 1\n* 1\r1 *\n1 *\n", r"bad token '1\r1'"),  # a lone \r ends no row
    ("2\xa02 1 1\n* 1\n1 *\n", "header must be 'K F Q S'"),
    ("2 2 1 1\x0c\n* 1\n1 *\n", "non-integer header field"),
    ("2 2 1 1\n* 1\n1 *\n\x0c\n", "expected 2 grid rows, found 3"),  # not a blank line
])
def test_parse_reads_rows_at_newlines_and_tokens_at_spaces_and_tabs(text, text_error):
    with pytest.raises(PdaFormatError, match=re.escape(text_error)):
        parse_pda(text)


def test_parse_drops_carriage_returns_and_skips_blank_lines():
    assert parse_pda("2 2 1 1\r\n\r\n*\t 1 \r\n \t\n1\t\t*\r\n") == TINY
    assert parse_pda("\n2 2 1 1\n* 1\n1 *") == TINY  # the last row needs no newline


@pytest.mark.parametrize("field, value", [
    ("K", 2.9), ("F", "2"), ("Q", True), ("S", 1.0), ("K", None),
])
def test_json_header_must_be_int(field, value):
    obj = pda_to_json(TINY)
    obj[field] = value
    with pytest.raises(PdaFormatError):
        pda_from_json(obj)


@pytest.mark.parametrize("grid", [
    [["*", True], [True, "*"]],
    [["*", 1.0], [1, "*"]],
    ["*1", [1, "*"]],
    [["*", "*"], "**"],
])
def test_json_grid_values_must_be_int_or_star(grid):
    with pytest.raises(PdaFormatError):
        pda_from_json({"K": 2, "F": 2, "Q": 1, "S": 1, "grid": grid})


@pytest.mark.parametrize("grid, match", [
    ([["*", 1]], "^grid has 1 rows, declared F=2$"),
    ([["*", 1], [1, "*", 1]], "^grid row has 3 entries, declared K=2$"),
    ([["*"], [1, "*"]], "^grid row has 1 entries, declared K=2$"),
])
def test_json_grid_shape_is_checked(grid, match):
    with pytest.raises(PdaFormatError, match=match):
        pda_from_json({"K": 2, "F": 2, "Q": 1, "S": 1, "grid": grid})


@pytest.mark.parametrize("bad", [True, False, -1, 1.0, 0.0, "1", None])
@pytest.mark.parametrize("where", [(0, 1), (1, 0)])
def test_pda_rejects_an_entry_that_is_not_an_int_at_least_zero(bad, where):
    grid = [[STAR, 1], [1, STAR]]
    grid[where[0]][where[1]] = bad
    with pytest.raises(ValueError, match="^grid entries must be STAR or positive symbol ints$"):
        Pda(2, 2, 1, 1, tuple(map(tuple, grid)))


def test_pda_rejects_bool_and_non_int_fields():
    with pytest.raises(ValueError):
        Pda(2, 2, 1, 1, ((STAR, True), (True, STAR)))
    with pytest.raises(ValueError):
        Pda(2, 2, True, 1, ((STAR, 1), (1, STAR)))
    with pytest.raises(ValueError):
        Pda(2.0, 2, 1, 1, ((STAR, 1), (1, STAR)))


def test_symbol_cells():
    # symbol -> (rows, cols), cell i at (rows[i], cols[i]), row-major
    assert TINY.symbol_cells == {1: ([0, 1], [1, 0])}
    p = Pda(3, 3, 2, 1, ((STAR, STAR, 1), (STAR, 1, STAR), (1, STAR, STAR)))
    assert p.symbol_cells is p.symbol_cells  # built once per array
    assert p.symbol_cells == {1: ([0, 1, 2], [2, 1, 0])}
    # keys in first-occurrence order, and only for symbols that occur
    p = Pda(3, 2, 1, 4, ((STAR, 3, 1), (3, STAR, STAR)))
    assert list(p.symbol_cells.items()) == [(3, ([0, 1], [1, 0])), (1, ([0], [2]))]


def test_star_columns():
    p = Pda(3, 2, 1, 2, ((STAR, 1, 2), (1, STAR, STAR)))
    assert p.star_columns == (b"\x01\x00", b"\x00\x01", b"\x00\x01")
    assert p.star_columns is p.star_columns  # built once per array


def test_validation_scans_once_per_array(monkeypatch):
    scans = []
    real_scan = pda._scan

    def scan(p):
        scans.append(p)
        return real_scan(p)

    monkeypatch.setattr(pda, "_scan", scan)
    p = Pda(3, 3, 2, 1, ((STAR, STAR, 1), (STAR, 1, STAR), (1, STAR, STAR)))
    assert validate_pda(p) is validate_pda(p)
    require_valid(p, "unused")
    assert scans == [p]
    again = Pda(p.k, p.f, p.q, p.s, p.grid)  # an equal array is a new object: scanned
    assert validate_pda(again).ok and len(scans) == 2


def test_validation_cache_does_not_leak_into_a_changed_array():
    assert validate_pda(TINY).ok
    flipped = Pda(2, 2, 1, 1, ((STAR, STAR), (1, STAR)))  # cell (0,1) made a star
    rep = validate_pda(flipped)
    assert (rep.ok, rep.condition, rep.detail) == (False, "C1", "column 1 has 2 stars, declared Q=1")
    with pytest.raises(InvalidPdaError, match=r"^bad \(C1: column 1 has 2 stars, declared Q=1\)$"):
        require_valid(flipped, "bad")
    assert validate_pda(TINY).ok


def test_huge_declared_symbol_count_is_cheap():
    # only occurring symbols get a map entry, so S = 10**9 costs nothing
    p = parse_pda("2 2 1 1000000000\n* 1\n1 *\n")
    rep = validate_pda(p)
    assert rep.condition == "C2" and "symbol 2" in rep.detail
