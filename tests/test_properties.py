"""Property tests: the validator against the definitions of C1-C3 and
against a per-cell scan, canonical relabeling against a per-cell reference,
the file formats' round trips, the text parser's failure mode, the simulator on
random valid arrays, with and without a faulty cached packet or payload,
placed caches against plain dicts under random edits, decode on the sweep
arrays against a per-cell reference peel, the triple conditions E1-E7,
construct_pda's matching path, complete_matching against the report's
matchable_ok, direct_product against the product of the incidence matrices,
the design certificates against their definitions, pda_to_triple against
per-cell sums, and both directions of the equivalence of arrays with systems
that meet E1-E5.  Examples are
derandomized, so every run sees the same inputs."""

import itertools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pdakit.sim as sim
import pdakit.triples
from pdakit.constructions import ConstructionSpec, build_triple, construct_pda
from pdakit.designs import (_CATALOG, Design, as_t_design, catalog_lookup, certify_configuration,
                            certify_t_design, complete_design, steiner_triple_system,
                            transversal_design)
from pdakit.pda import (Pda, PdaFormatError, STAR, canonical_relabel, format_pda,
                        parse_pda, pda_from_json, pda_to_json, validate_pda)
from pdakit.sim import (CacheContents, DecodeError, FileLibrary, decode, deliver, place,
                        verify_scheme)
from pdakit.triples import (ConditionError, TripleSystem, _match_column, _matched_cells,
                            _oriented_pda, check_conditions, complete_matching,
                            direct_product, pda_to_triple, set_bits, triple_to_pda)

from conftest import all_pdas, decode_failures, triple_route_product

FIXED = settings(derandomize=True, database=None, deadline=None)


def oracle(p: Pda) -> str:
    """The first condition p breaks, straight from the definitions; '' if none."""
    cells = [(j, k, v) for j, row in enumerate(p.grid) for k, v in enumerate(row)]
    if min(p.k, p.f, p.q, p.s) < 1 or p.q >= p.f:
        return "params"
    if any(v != STAR and v > p.s for _, _, v in cells):
        return "range"
    if any([row[k] for row in p.grid].count(STAR) != p.q for k in range(p.k)):
        return "C1"
    if {v for _, _, v in cells} - {STAR} != set(range(1, p.s + 1)):
        return "C2"
    for j1, k1, v1 in cells:
        for j2, k2, v2 in cells:
            if v1 == v2 != STAR and (j1, k1) != (j2, k2) and (
                    j1 == j2 or k1 == k2
                    or p.grid[j1][k2] != STAR or p.grid[j2][k1] != STAR):
                return "C3"
    return ""


@st.composite
def valid_pdas(draw):
    """Q stars per column at random rows, then each other cell, row-major,
    joins a symbol it is C3-compatible with or opens a new one."""
    k, f = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    q = draw(st.integers(1, f - 1))
    stars = [set(draw(st.permutations(range(f)))[:q]) for _ in range(k)]
    groups: list[list[tuple[int, int]]] = []
    grid = [[STAR] * k for _ in range(f)]
    for j in range(f):
        for c in range(k):
            if j in stars[c]:
                continue
            fits = [i for i, g in enumerate(groups) if all(
                j != j2 and c != k2 and j in stars[k2] and j2 in stars[c] for j2, k2 in g)]
            pick = draw(st.integers(0, len(fits)))
            if pick == len(fits):
                groups.append([])
                fits.append(len(groups) - 1)
            groups[fits[pick]].append((j, c))
            grid[j][c] = fits[pick] + 1
    return Pda(k, f, q, len(groups), tuple(map(tuple, grid)))


@st.composite
def any_pdas(draw):
    """Well-formed grids of up to 5x5 with arbitrary declared Q and S."""
    k, f = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.sampled_from([STAR, 1, 2, 3, 4, 5, 6])
    grid = tuple(tuple(draw(cell) for _ in range(k)) for _ in range(f))
    return Pda(k, f, draw(st.integers(0, 6)), draw(st.integers(0, 6)), grid)


@st.composite
def mutated_pdas(draw):
    """A valid array with one symbol cell rewritten: close to the C1-C3 boundary."""
    p = draw(valid_pdas())
    j, c = draw(st.sampled_from([(j, c) for j, c in itertools.product(range(p.f), range(p.k))
                                 if p.grid[j][c] != STAR]))
    grid = [list(row) for row in p.grid]
    grid[j][c] = draw(st.integers(STAR, p.s + 1))
    return Pda(p.k, p.f, p.q, p.s, tuple(map(tuple, grid)))


@settings(FIXED, max_examples=400)
@given(st.one_of(valid_pdas(), mutated_pdas(), any_pdas()))
def test_validator_matches_definitions(p):
    rep = validate_pda(p)
    assert (rep.ok, rep.condition) == (oracle(p) == "", oracle(p))


def per_cell_scan(p: Pda) -> tuple[bool, str, str]:
    """(ok, condition, detail) as a scan that visits every cell reports it:
    range and C1 cell by cell, C2 symbol by symbol, C3 pair by pair."""
    if min(p.k, p.f, p.q, p.s) < 1:
        return False, "params", "K, F, Q, S must all be positive"
    if p.q >= p.f:
        return False, "params", f"need Q < F, got Q={p.q}, F={p.f}"
    grid, s = p.grid, p.s
    for j, row in enumerate(grid):
        for k, v in enumerate(row):
            if v != STAR and not 1 <= v <= s:
                return False, "range", f"cell ({j},{k}) holds {v}, outside 1..{s}"
    for k in range(p.k):
        stars = sum(1 for row in grid if row[k] == STAR)
        if stars != p.q:
            return False, "C1", f"column {k} has {stars} stars, declared Q={p.q}"
    cells: dict[int, list] = {}
    for j, row in enumerate(grid):
        for k, v in enumerate(row):
            if v != STAR:
                cells.setdefault(v, []).append((j, k))
    for sym in range(1, s + 1):
        if sym not in cells:
            return False, "C2", f"symbol {sym} never occurs"
    for sym, occ in cells.items():
        for a in range(len(occ)):
            j1, k1 = occ[a]
            for b in range(a + 1, len(occ)):
                j2, k2 = occ[b]
                if j1 == j2 or k1 == k2:
                    return False, "C3", (f"symbol {sym} repeats in a row or column at "
                                         f"({j1},{k1}) and ({j2},{k2})")
                if grid[j1][k2] != STAR or grid[j2][k1] != STAR:
                    return False, "C3", (f"cells ({j1},{k1}) and ({j2},{k2}) share symbol "
                                         f"{sym} but a crossing cell is not a star")
    return True, "", ""


@settings(FIXED, max_examples=400)
@given(st.one_of(valid_pdas(), mutated_pdas(), any_pdas()))
def test_validator_reports_as_the_per_cell_scan(p):
    rep = validate_pda(p)
    assert (rep.ok, rep.condition, rep.detail) == per_cell_scan(p)


def relabel_per_cell(p: Pda) -> Pda:
    """Symbols renumbered 1..S in first-occurrence row-major order, cell by cell."""
    mapping: dict[int, int] = {}
    rows = tuple(tuple(STAR if v == STAR else mapping.setdefault(v, len(mapping) + 1)
                       for v in row) for row in p.grid)
    return Pda(p.k, p.f, p.q, len(mapping), rows)


@settings(FIXED, max_examples=200)
@given(st.one_of(valid_pdas(), mutated_pdas(), any_pdas()))
def test_canonical_relabel_matches_the_per_cell_reference(p):
    c = canonical_relabel(p)
    assert c == relabel_per_cell(p) == Pda(c.k, c.f, c.q, c.s, c.grid)
    assert (c is p) == (c == p)  # an array that is already canonical comes back as is
    assert canonical_relabel(c) is c


@settings(FIXED, max_examples=150)
@given(st.one_of(valid_pdas(), any_pdas()))
def test_text_and_json_round_trip(p):
    assert parse_pda(format_pda(p)) == p
    assert pda_from_json(json.loads(json.dumps(pda_to_json(p)))) == p


def format_per_cell(p: Pda) -> str:
    """The text format, one str() call per cell."""
    lines = [f"{p.k} {p.f} {p.q} {p.s}"]
    for row in p.grid:
        lines.append(" ".join("*" if v == STAR else str(v) for v in row))
    return "\n".join(lines) + "\n"


@settings(FIXED, max_examples=200)
@given(st.one_of(valid_pdas(), mutated_pdas(), any_pdas()))
def test_format_matches_the_per_cell_reference(p):
    assert format_pda(p) == format_per_cell(p)


def test_format_reads_no_symbol_map():
    # past S, and far past any table a formatter could size by the largest entry
    p = Pda(3, 2, 1, 2, ((STAR, 10 ** 30, 5), (7, STAR, STAR)))
    assert format_pda(p) == format_per_cell(p) == f"3 2 1 2\n* {10 ** 30} 5\n7 * *\n"
    # building the map on every formatted array raised simulate's peak RSS
    assert "symbol_cells" not in p.__dict__


# Any code points, lone surrogates included, drawn without Hypothesis's
# Unicode tables, which cost seconds to build on a cold cache.
ANY_TEXT = st.lists(st.integers(0, 0x10FFFF)).map(lambda cs: "".join(map(chr, cs)))
NEAR_PDA = st.text(alphabet="0123456789* \n\r\t\x0b\x1c\x85\xa0\u2028\u3000+-_١²").map(
    lambda t: "2 2 1 1\n" + t)


@settings(FIXED, max_examples=300)
@given(st.one_of(ANY_TEXT, NEAR_PDA))
def test_parse_fails_only_with_format_error(text):
    try:
        parse_pda(text)
    except PdaFormatError:
        pass


def parse_per_token(text: str) -> Pda:
    """The text parser, checking each grid token as it is read.  The grammar
    by regular expressions: a line ends at a newline, less one carriage
    return before it; a token is a run of other than spaces and tabs."""
    lines = [ln for ln in re.split(r"\r?\n", text) if re.search(r"[^ \t]", ln)]
    if not lines:
        raise PdaFormatError("empty PDA file")
    header = re.findall(r"[^ \t]+", lines[0])
    if len(header) != 4:
        raise PdaFormatError(f"header must be 'K F Q S', got {lines[0]!r}")
    try:
        if not all(x.isascii() and x.isdigit() for x in header):
            raise ValueError
        k, f, q, s = (int(x) for x in header)
    except ValueError:
        raise PdaFormatError(f"non-integer header field in {lines[0]!r}") from None
    if len(lines) - 1 != f:
        raise PdaFormatError(f"expected {f} grid rows, found {len(lines) - 1}")
    grid = []
    for ln in lines[1:]:
        row = []
        for tok in re.findall(r"[^ \t]+", ln):
            if tok == "*":
                row.append(STAR)
                continue
            try:
                if not (tok.isascii() and tok.isdigit() and tok[0] != "0"):
                    raise ValueError
                row.append(int(tok))
            except ValueError:
                raise PdaFormatError(
                    f"bad token {tok!r}; want '*' or a positive decimal") from None
        if len(row) != k:
            raise PdaFormatError(f"row {ln!r} has {len(row)} entries, expected {k}")
        grid.append(tuple(row))
    return Pda(k, f, q, s, tuple(grid))


def parsed(parse, text: str):
    try:
        return parse(text)
    except PdaFormatError as exc:
        return f"PdaFormatError: {exc}"


# Grids of mostly stars and good symbols, some bad tokens among them, rows of
# any length, under a header whose F matches the row count.
GRID_TOKEN = st.sampled_from(["*"] * 6 + ["1", "2", "17", "1" * 5000, "0", "01", "+3",
                                          "-1", "١", "²", "*1", "**", "x"])


@st.composite
def near_grids(draw):
    rows = draw(st.lists(st.lists(GRID_TOKEN, min_size=1, max_size=4), min_size=1, max_size=4))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t", "\u3000", "\xa0", "\x0b"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\r", "\x0c", "\x1c", "\u2028"]))
    k = draw(st.integers(1, 4))
    return f"{k} {len(rows)} 1 1{end}" + end.join(sep.join(r) for r in rows) + end


@settings(FIXED, max_examples=400)
@given(st.one_of(NEAR_PDA, near_grids()))
def test_parse_matches_the_per_token_reference(text):
    assert parsed(parse_pda, text) == parsed(parse_per_token, text)


@pytest.mark.parametrize("text, bad", [
    ("3 2 1 1\n* * 01\n1 * *\n", "'01'"),          # after stars
    ("3 2 1 1\n* x y\n1 * *\n", "'x'"),            # the first of two in a row
    ("2 2 1 1\n* * x\n1 *\n", "'x'"),              # in a row of the wrong length
    ("2 2 1 1\n* 1\n* * 0\n", "'0'"),              # in the last row
    ("2 3 1 1\n* 1 1\n* x\n1 *\n", "3 entries"),  # a long row before the bad token
])
def test_parse_names_the_first_fault_in_reading_order(text, bad):
    assert parsed(parse_pda, text) == parsed(parse_per_token, text)
    assert bad in parsed(parse_pda, text)


@settings(FIXED, max_examples=60)
@given(valid_pdas())
def test_verify_scheme_decodes_every_valid_array(p):
    assert oracle(p) == ""
    rep = verify_scheme(p, 2)
    assert rep.ok and rep.demands_tested == 2 ** p.k


@settings(FIXED, max_examples=80)
@given(valid_pdas(), st.integers(1, 3), st.sampled_from(["corrupt", "drop"]),
       st.integers(0, 2 ** 16), st.integers(0, 127))
def test_verify_scheme_agrees_with_decode_on_a_faulty_cache(p, n, fault, pick, bit):
    """verify_scheme's failures are exactly the (demand, user) pairs for which
    deliver then decode, on the same caches, raises or returns a wrong file."""
    real_place, seen = sim.place, {}

    def faulty_place(p, lib):
        caches = real_place(p, lib)
        cache = caches[pick % p.k]
        key = sorted(cache.packets)[pick % len(cache.packets)]
        pk = cache.packets.pop(key)
        if fault == "corrupt":
            cache.packets[key] = (int.from_bytes(pk, "big") ^ 1 << bit).to_bytes(len(pk), "big")
        seen.update(lib=lib, caches=caches)
        return caches

    sim.place = faulty_place
    try:
        rep = verify_scheme(p, n, mode="exhaustive")
    finally:
        sim.place = real_place
    lib, caches = seen["lib"], seen["caches"]
    expect = []
    for demand in itertools.product(range(n), repeat=p.k):
        tx = deliver(p, lib, demand)
        for user in range(p.k):
            try:
                good = decode(p, caches[user], tx, demand, user) == lib.file(demand[user])
            except DecodeError:
                good = False
            if not good:
                expect.append((demand, user))
    assert rep.failures == expect
    assert rep.demands_tested == n ** p.k


@settings(FIXED, max_examples=80)
@given(valid_pdas(), st.integers(1, 3), st.integers(0, 2 ** 16), st.integers(0, 2 ** 16),
       st.integers(0, 127))
def test_a_flipped_transmission_bit_changes_only_the_rows_holding_its_symbol(
        p, n, pick, symbol, bit):
    """Flipping bit `bit` of transmission s changes each user's decoded file
    in exactly the rows whose cell in its column holds s, in that same bit of
    the row's packet: the peel reads payload s from s's slot."""
    s = symbol % p.s + 1
    lib = FileLibrary.random(n, p.f, packet_size=16, seed=pick)
    demand = tuple(random.Random(pick).randrange(n) for _ in range(p.k))
    tx = deliver(p, lib, demand)
    flipped = list(tx)
    flipped[s - 1] = (int.from_bytes(tx[s - 1], "big") ^ 1 << bit).to_bytes(16, "big")
    for user, cache in enumerate(place(p, lib)):
        want = lib.packets[demand[user]]
        got = decode(p, cache, flipped, demand, user)
        rows = [got[16 * j:16 * (j + 1)] for j in range(p.f)]
        for j, row in enumerate(p.grid):
            expect = int.from_bytes(want[j], "big") ^ (row[user] == s) << bit
            assert rows[j] == expect.to_bytes(16, "big"), (user, j, s)


@settings(FIXED, max_examples=80)
@given(valid_pdas(), st.integers(1, 3), st.sampled_from(["corrupt", "drop"]),
       st.integers(0, 2 ** 16), st.integers(0, 2 ** 16), st.integers(0, 127))
def test_verify_scheme_agrees_with_decode_on_a_faulty_cache_and_payload(
        p, n, fault, pick, symbol, bit):
    """One cached packet corrupted or dropped, and on about half the demands
    one payload flipped in the same bit, so the faults sometimes cancel: users
    peeled from a faulty cache and users judged by the payload check agree
    with deliver then decode, in both forms of the demand loop."""
    real_place, real_transmit, seen = sim.place, sim._transmit, {}

    def faulty_place(p, lib):
        caches = real_place(p, lib)
        cache = caches[pick % p.k]
        key = sorted(cache.packets)[pick % len(cache.packets)]
        pk = cache.packets.pop(key)
        if fault == "corrupt":
            cache.packets[key] = (int.from_bytes(pk, "big") ^ 1 << bit).to_bytes(len(pk), "big")
        seen.update(lib=lib, caches=caches)
        return caches

    def faulty_transmit(p, ints, demand, size, words=None):
        payloads = real_transmit(p, ints, demand, size, words)
        if (sum(demand) + symbol) % 2:  # payload symbol % S + 1, in its slot from the top
            payloads ^= 1 << (bit + 8 * size * (p.s - 1 - symbol % p.s))
        return payloads

    real_budget = sim.MAX_WORDS_BYTES
    sim.place, sim._transmit = faulty_place, faulty_transmit
    try:
        reports = []
        for budget in (real_budget, 0):  # the words loop, then the cells loop
            sim.MAX_WORDS_BYTES = budget
            reports.append(verify_scheme(p, n, mode="exhaustive"))
        expect = decode_failures(p, seen["lib"], seen["caches"], n)
    finally:
        sim.place, sim._transmit, sim.MAX_WORDS_BYTES = real_place, real_transmit, real_budget
    for rep in reports:
        assert rep.failures == expect
        assert rep.demands_tested == n ** p.k


@settings(FIXED, max_examples=80)
@given(valid_pdas(), st.integers(1, 3), st.sampled_from(["exhaustive", "sampled", "adversarial"]),
       st.sampled_from(["clean", "corrupt", "drop"]), st.integers(0, 2 ** 16),
       st.integers(0, 2 ** 8))
def test_words_and_cells_loops_give_the_same_report(p, n, mode, edit, pick, seed):
    """The demand loop on the words table and cell by cell (a table budget of
    0) give byte-identical report JSON, with clean caches and with one cache
    edited."""
    real_place, real_budget = sim.place, sim.MAX_WORDS_BYTES

    def edited_place(p, lib):
        caches = real_place(p, lib)
        if edit != "clean":
            cache = caches[pick % p.k]
            key = sorted(cache.packets)[pick % len(cache.packets)]
            pk = cache.packets.pop(key)
            if edit == "corrupt":
                cache.packets[key] = bytes([pk[0] ^ 1]) + pk[1:]
        return caches

    reports, loops = [], []
    sim.place = edited_place
    try:
        for budget in (real_budget, 0):
            sim.MAX_WORDS_BYTES, stats = budget, {}
            rep = verify_scheme(p, n, mode=mode, samples=10, seed=seed, stats=stats)
            reports.append(json.dumps(rep.to_json()))
            loops.append(stats["loop"])
    finally:
        sim.place, sim.MAX_WORDS_BYTES = real_place, real_budget
    assert loops == ["words", "cells"]
    assert reports[0] == reports[1]


CACHE_EDITS = st.lists(st.tuples(
    st.sampled_from(["set", "own", "pop", "del", "get"]),
    st.integers(0, 3), st.integers(0, 5),  # file (3 is outside the library), row
    st.binary(max_size=17)), max_size=25)


@settings(FIXED, max_examples=150)
@given(valid_pdas(), st.integers(0, 4), CACHE_EDITS)
def test_placed_cache_behaves_as_a_dict(p, user, edits):
    """set, pop, del, get and writing the library's own bytes back, on a
    placed cache and on a dict copy of it: after every step the two agree on
    items (in order), len, membership, size_bytes and the rows the decoder
    reads; and _clean is true exactly while no write or delete has reached
    the view."""
    lib = FileLibrary.random(3, p.f, packet_size=4, seed=user)
    view = place(p, lib)[user % p.k].packets
    plain = dict(view)
    touched = False  # a write or a delete has reached the view
    for op, i, j, value in edits:
        key = (i, j)
        if op == "own":
            op, value = "set", lib.packets[i][j] if i < 3 and j < p.f else value
        outcomes = []
        for cache in (view, plain):
            try:
                if op == "set":
                    cache[key] = value
                    outcomes.append(None)
                elif op == "pop":
                    outcomes.append(cache.pop(key, "absent"))
                elif op == "del":
                    del cache[key]
                    outcomes.append(None)
                else:
                    outcomes.append(cache.get(key))
            except KeyError:
                outcomes.append(KeyError)
        assert outcomes[0] == outcomes[1]
        if op == "set" or op in ("pop", "del") and outcomes[0] not in (KeyError, "absent"):
            touched = True
        assert list(view.items()) == list(plain.items())
        assert len(view) == len(plain)
        assert all((key in view) == (key in plain)
                   for key in itertools.product(range(4), range(6)))
        assert (CacheContents(0, view).size_bytes()
                == CacheContents(0, plain).size_bytes() == sum(map(len, plain.values())))
        by_row = {}
        for (i2, j2), pk in plain.items():
            if len(pk) == 4:  # the library's packet size: other lengths are left out
                by_row.setdefault(j2, {})[i2] = int.from_bytes(pk, "big")
        assert {j2: got for j2, got in sim._int_rows(view, 4).items() if got} == by_row
        assert sim._clean(view, lib, p.star_columns[user % p.k]) == (not touched)


def reference_decode(p: Pda, cache, transmissions: list, demand: tuple, user: int):
    """decode from the definition, cell by cell: a starred row j is
    cache[(demand[user], j)], and a coded row j with symbol s is payload s XOR
    cache[(demand[k2], j2)] over s's other cells (j2, k2).  None if a packet
    it reads is missing or is not a transmission's length."""
    size = len(transmissions[0])
    cells: dict[int, list] = {}
    for j, row in enumerate(p.grid):
        for k, v in enumerate(row):
            cells.setdefault(v, []).append((j, k))
    out = []
    for j, row in enumerate(p.grid):
        v = row[user]
        if v == STAR:
            acc, reads = bytes(size), [(demand[user], j)]
        else:
            acc = transmissions[v - 1]
            reads = [(demand[k2], j2) for j2, k2 in cells[v] if (j2, k2) != (j, user)]
        for key in reads:
            pk = cache.get(key)
            if pk is None or len(pk) != size:
                return None
            acc = bytes(a ^ b for a, b in zip(acc, pk))
        out.append(acc)
    return b"".join(out)


def _reads(p: Pda, user: int, demand: tuple) -> list:
    """The (file, row) keys the user's decode of this demand reads."""
    out = []
    for j, row in enumerate(p.grid):
        v = row[user]
        out += ([(demand[user], j)] if v == STAR else
                [(demand[k2], j2) for j2, k2 in zip(*p.symbol_cells[v]) if (j2, k2) != (j, user)])
    return out


@settings(FIXED, max_examples=250)
@given(st.data())
def test_decode_matches_the_per_cell_reference(sweep, data):
    """On sweep arrays, clean, corrupt, dropped and overlong caches, placed
    views and plain dicts, transmissions of the library's packet length or
    shorter, and demands inside the library or not: decode returns what the
    reference peel does, and raises DecodeError exactly where it gives
    None."""
    pdas = all_pdas(sweep)
    p = pdas[data.draw(st.integers(0, len(pdas) - 1), label="array")]
    n = data.draw(st.integers(1, 3), label="files")
    user = data.draw(st.integers(0, p.k - 1), label="user")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    demand = [rng.randrange(n) for _ in range(p.k)]
    if data.draw(st.booleans(), label="outside"):
        demand[rng.randrange(p.k)] = n  # a file the library lacks
    demand = tuple(demand)
    # packets whose first 8 bytes are zero, so 8-byte transmissions of them
    # equal the 16-byte packets as ints
    short = data.draw(st.booleans(), label="short")
    lib = FileLibrary(n, p.f, 16, tuple(tuple(bytes(8) + rng.randbytes(8) for _ in range(p.f))
                                        for _ in range(n)))
    tx = deliver(p, lib, [min(d, n - 1) for d in demand])
    if short:
        tx = [t[8:] for t in tx]
    cache = place(p, lib)[user].packets
    if data.draw(st.booleans(), label="dict"):
        cache = dict(cache)
    fault = data.draw(st.sampled_from(["clean", "corrupt", "drop", "overlong"]), label="fault")
    if fault != "clean":
        read = [key for key in _reads(p, user, demand) if key in cache]
        keys = read if read and data.draw(st.booleans(), label="read") else sorted(cache)
        key = keys[rng.randrange(len(keys))]
        pk = cache.pop(key)
        if fault == "corrupt":
            cache[key] = (int.from_bytes(pk, "big") ^ 1 << rng.randrange(128)).to_bytes(16, "big")
        elif fault == "overlong":
            cache[key] = rng.choice([b"\0" + pk, pk + b"\0"])
    expect = reference_decode(p, cache, tx, demand, user)
    try:
        got = decode(p, CacheContents(user, cache), tx, demand, user)
    except DecodeError:
        got = None
    assert got == expect


# --- triple conditions against their definitions --------------------------


def _transpose(rows, ncols: int) -> list:
    """Column masks, bit by bit."""
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(ncols)]


def _common(counts) -> int | None:
    """The one value all counts share, if they share one and it is positive."""
    counts = set(counts)
    return counts.pop() if len(counts) == 1 and 0 not in counts else None


def reference_report(t: TripleSystem) -> dict:
    """Every field of check_conditions(t) from the definitions: one count per
    incident pair, in row-major order, and E6 per column from the degree of
    each of its rows and symbols (a column with neither is 0).  witnesses is
    in condition order."""
    lx, ly, lz = t.labels_x, t.labels_y, t.labels_z
    nx, ny, nz = len(lx), len(ly), len(lz)
    cols_xy, cols_xz, cols_yz = _transpose(t.xy, ny), _transpose(t.xz, nz), _transpose(t.yz, nz)
    wit = {}
    sums = {m.bit_count() for m in cols_xz}
    if len(sums) > 1:
        wit["E1"] = tuple(sorted(sums))
    d_z = sums.pop() if len(sums) == 1 else None
    lonely = [y for y in range(ny) if not t.yz[y]]
    if lonely:
        wit["E2"] = (ly[lonely[0]],)

    def first_pair(rows, width, count, la, lb):
        for i, row in enumerate(rows):
            for j in range(width):
                if row >> j & 1 and count(i, j) != 1:
                    return la[i], lb[j]
        return None

    for name, pair in (
            ("E3", first_pair(t.xy, ny, lambda x, y: (t.xz[x] & t.yz[y]).bit_count(), lx, ly)),
            ("E4", first_pair(t.xz, nz, lambda x, z: (t.xy[x] & cols_yz[z]).bit_count(), lx, lz)),
            ("E5", first_pair(t.yz, nz, lambda y, z: (cols_xy[y] & cols_xz[z]).bit_count(),
                              ly, lz))):
        if pair is not None:
            wit[name] = pair
    degrees = []
    for z in range(nz):
        xs = [x for x in range(nx) if t.xz[x] >> z & 1]
        ys = [y for y in range(ny) if t.yz[y] >> z & 1]
        if not xs and not ys:
            degrees.append(0)
            continue
        degrees.append(_common([sum(t.xy[x] >> y & 1 for y in ys) for x in xs]
                               + [sum(t.xy[x] >> y & 1 for x in xs) for y in ys]))
        if degrees[-1] is None and "E6" not in wit:
            wit["E6"] = (lz[z],)
    d_x, d_y = _common(m.bit_count() for m in t.xz), _common(m.bit_count() for m in t.yz)
    return {"flags": tuple(c not in wit for c in ("E1", "E2", "E3", "E4", "E5", "E6"))
            + (bool(d_z), d_y is not None, d_x is not None),
            "degrees": (d_x, d_y, d_z), "e6_degrees": tuple(degrees), "witnesses": wit}


def reference_matching_path(t: TripleSystem):
    """construct_pda's matching path as the full scan gave it: the first of
    E1, E2, E3, E6 that fails; then column by column, _match_column run on
    the global masks, without a memo; then the degrees.  The cells as lists
    (x, y, z), or the ConditionError's (condition, message, witness)."""
    ref = reference_report(t)
    for name in ("E1", "E2", "E3", "E6"):
        if name in ref["witnesses"]:
            return name, f"{name} fails", ref["witnesses"][name]
    cells = ([], [], [])
    for z, (xs, ys) in enumerate(zip(_transpose(t.xz, len(t.labels_z)),
                                     _transpose(t.yz, len(t.labels_z)))):
        pairs = _match_column(set_bits(xs), ys, t.xy)
        cells[0].extend(pairs.values())
        cells[1].extend(pairs)
        cells[2].extend([z] * len(pairs))
    d_x, d_y, d_z = ref["degrees"]
    for name, d in (("E1'", d_z), ("E2'", d_y), ("E7", d_x)):
        if not d:
            return name, f"{name} fails: degrees are not constant and positive", None
    return cells


def matching_path(t: TripleSystem):
    """What construct_pda's path, _matched_cells then _oriented_pda, hands
    the emitter in orientation 3, (X, Z, Y) as (row, column, symbol), as
    lists (x, y, z); or the ConditionError's (condition, message, witness)."""
    handed = []
    with mock.patch.object(pdakit.triples, "_emit", lambda f, k, x, z, y: handed.append(
            [list(x), list(y), list(z)])):
        try:
            _oriented_pda(_matched_cells(t), 3, "test")
        except ConditionError as exc:
            return exc.condition, str(exc), exc.witness
    return tuple(handed[0])


@pytest.fixture(scope="module")
def sweep_systems(sweep):
    """Each distinct sweep system, raw and matched."""
    raw = {(spec.family, spec.label()): spec for spec, _, _ in sweep["built"]}
    out = []
    for spec in raw.values():
        t = build_triple(spec)
        out += [t, complete_matching(t)]
    return out


@st.composite
def small_systems(draw):
    """Arbitrary systems of up to 4 rows, symbols and columns (no column at all
    allowed)."""
    nx, ny, nz = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))

    def masks(n, width):
        return tuple(draw(st.integers(0, (1 << width) - 1)) for _ in range(n))

    return TripleSystem(tuple(range(nx)), tuple(f"y{i}" for i in range(ny)),
                        tuple(f"z{i}" for i in range(nz)), masks(nx, ny), masks(nx, nz),
                        masks(ny, nz))


def _flipped(data, systems) -> TripleSystem:
    """A sweep system, raw or matched, with up to three bits of xy, xz or yz
    flipped; or a small arbitrary one."""
    if data.draw(st.integers(0, 4), label="arbitrary") == 0:
        return data.draw(small_systems(), label="system")
    t = systems[data.draw(st.integers(0, len(systems) - 1), label="system")]
    widths = {"xy": len(t.labels_y), "xz": len(t.labels_z), "yz": len(t.labels_z)}
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        name = data.draw(st.sampled_from(sorted(widths)), label="matrix")
        rows = list(getattr(t, name))
        rows[data.draw(st.integers(0, len(rows) - 1))] ^= 1 << data.draw(
            st.integers(0, widths[name] - 1))
        t = replace(t, **{name: tuple(rows)})
    return t


@settings(FIXED, max_examples=150)
@given(st.data())
def test_check_conditions_matches_the_definitions(sweep_systems, data):
    t = _flipped(data, sweep_systems)
    rep, ref = check_conditions(t), reference_report(t)
    assert (rep.e1, rep.e2, rep.e3, rep.e4, rep.e5, rep.e6, rep.e1p, rep.e2p,
            rep.e7) == ref["flags"]
    assert (rep.d_x, rep.d_y, rep.d_z) == ref["degrees"]
    assert rep.e6_degrees == ref["e6_degrees"]
    assert list(rep.witnesses.items()) == list(ref["witnesses"].items())
    # triple_to_pda scans E1-E5 alone, and refuses the first that fails
    failing = [c for c in ("E1", "E2", "E3", "E4", "E5") if c in ref["witnesses"]]
    if failing:
        with pytest.raises(ConditionError) as exc:
            triple_to_pda(t)
        assert (exc.value.condition, str(exc.value), exc.value.witness) == (
            failing[0], f"{failing[0]} fails: triple system does not describe an array",
            ref["witnesses"][failing[0]])


# --- arrays and systems meeting E1-E5 are one thing ------------------------


@settings(FIXED, max_examples=200)
@given(valid_pdas())
def test_a_valid_array_is_a_system_meeting_e1_to_e5(p):
    t = pda_to_triple(p)
    assert check_conditions(t).necessary_ok
    assert reference_report(t)["flags"][:5] == (True,) * 5
    assert triple_to_pda(t) == canonical_relabel(p)


def triple_per_cell(p: Pda) -> tuple:
    """C_XY, C_XZ and C_YZ of a valid array as row masks, summed cell by cell:
    C3 puts a symbol at most once in any row or column, so sums are unions."""
    xy = tuple(sum(1 << (v - 1) for v in row if v != STAR) for row in p.grid)
    xz = tuple(sum(1 << z for z, v in enumerate(row) if v != STAR) for row in p.grid)
    yz = tuple(sum(1 << z for z in p.symbol_cells[y][1]) for y in range(1, p.s + 1))
    return xy, xz, yz


def _assert_triple_as_per_cell(p: Pda) -> None:
    t = pda_to_triple(p)
    assert (t.labels_x, t.labels_y, t.labels_z) == (
        tuple(range(p.f)), tuple(range(1, p.s + 1)), tuple(range(p.k)))
    assert (t.xy, t.xz, t.yz) == triple_per_cell(p)


@settings(FIXED, max_examples=200)
@given(valid_pdas())
def test_pda_to_triple_matches_the_per_cell_sums(p):
    _assert_triple_as_per_cell(p)


@pytest.mark.parametrize("o", (1, 2, 3))
@pytest.mark.parametrize("k, m, t", ((6, 2, 2), (7, 1, 1)))
def test_pda_to_triple_matches_the_per_cell_sums_on_large_arrays(k, m, t, o):
    _assert_triple_as_per_cell(construct_pda(ConstructionSpec("pg", o, q=2, k=k, m=m, t=t)))


def _symbols(t: TripleSystem) -> list:
    """Each symbol as the pair (its rows mask, its columns mask), sorted: the
    system up to renaming its symbols."""
    return sorted(zip(_transpose(t.xy, len(t.labels_y)), t.yz))


@settings(FIXED, max_examples=200)
@given(st.data())
def test_a_system_meeting_e1_to_e5_is_a_valid_array(sweep_systems, data):
    """A system meeting E1-E5 is an array that validates and reads back as
    the system, up to renaming symbols; one with no star in its columns (every
    column holding every row) has Q = 0 and is refused as degenerate.  Any
    other system is refused for the first of E1-E5 it fails."""
    t = _flipped(data, sweep_systems)
    failing = [c for c in ("E1", "E2", "E3", "E4", "E5") if c in reference_report(t)["witnesses"]]
    if failing:
        with pytest.raises(ConditionError) as exc:
            triple_to_pda(t)
        assert exc.value.condition == failing[0]
        return
    nx, ny, nz = len(t.labels_x), len(t.labels_y), len(t.labels_z)
    if all(col.bit_count() == nx for col in _transpose(t.xz, nz)):
        with pytest.raises(ValueError, match="Q = 0"):
            triple_to_pda(t)
        return
    p = triple_to_pda(t)
    assert validate_pda(p).ok
    assert (p.k, p.f, p.s) == (nz, nx, ny)
    back = pda_to_triple(p)
    assert back.xz == t.xz and _symbols(back) == _symbols(t)


@settings(FIXED, max_examples=150)
@given(st.data())
def test_matching_path_matches_the_full_scan(sweep_systems, data):
    # E6 decided once per column key, inside the matching, against the full
    # report's E6 and then the column-by-column matching
    t = _flipped(data, sweep_systems)
    assert matching_path(t) == reference_matching_path(t)


def _lists_of(t: TripleSystem) -> TripleSystem:
    """t as a builder gives it: C_XY's row masks, and C_XZ and C_YZ as each
    row's ascending column indices, read off bit by bit."""
    nz = len(t.labels_z)

    def lists(rows):
        return [[z for z in range(nz) if row >> z & 1] for row in rows]

    return TripleSystem._of_lists(t.labels_x, t.labels_y, t.labels_z, t.xy,
                                  lists(t.xz), lists(t.yz))


def _matched_or_error(t: TripleSystem):
    """_matched_cells(t) as plain values, or its ConditionError's (condition,
    message, witness)."""
    try:
        m = _matched_cells(t)
    except ConditionError as exc:
        return exc.condition, str(exc), exc.witness
    return [list(c) for c in m.cells], m.sizes, m.degrees, m.column_keys, m.nnz_xy


@settings(FIXED, max_examples=150)
@given(st.data())
def test_the_list_path_matches_the_mask_path(sweep_systems, data):
    # one system built from index lists, as the families build it, and from
    # masks: the same _Matched cells, degrees and counts, or the same
    # ConditionError, the definitions' first failing E1, E2, E3 or E6; the
    # one from lists makes no mask of C_XZ or C_YZ on the way
    t = _flipped(data, sweep_systems)
    listed = _lists_of(t)
    assert _matched_or_error(listed) == _matched_or_error(t)
    assert matching_path(listed) == reference_matching_path(t)
    report = check_conditions(listed)
    assert not {"xz", "yz", "cols_xz", "cols_yz"} & vars(listed).keys()
    assert report == check_conditions(t) and report.witnesses == reference_report(t)["witnesses"]
    assert listed == t  # its masks, made on first read, are t's


def test_matching_path_on_hand_made_failures():
    def system(xy, xz, yz, ny, nz):
        return TripleSystem(tuple(range(len(xy))), tuple(f"y{i}" for i in range(ny)),
                            tuple(f"z{i}" for i in range(nz)), xy, xz, yz)

    cases = [
        # z0 holds both rows and no symbol, z1 pairs each row with its one
        # symbol: a column with one side empty fails E6 like any whose sides
        # differ in size
        (system((0b01, 0b10), (0b11, 0b11), (0b10, 0b10), 2, 2), "E6", ("z0",)),
        # the same empty side before an irregular column: the first wins
        (system((0b11, 0b01), (0b11, 0b11), (0b10, 0b10), 2, 2), "E6", ("z0",)),
        # sides of unequal size, both nonempty
        (system((0b1, 0b1), (0b1, 0b1), (0b1,), 1, 1), "E6", ("z0",)),
        # one row, one symbol, no edge between them
        (system((0b0,), (0b1,), (0b1,), 1, 1), "E6", ("z0",)),
        # every column matches, but x0 lies in both and x1 in none
        (system((0b11, 0b00), (0b11, 0b00), (0b01, 0b10), 2, 2), "E7", None),
        # z0 matches x0-y0 and x1-y1, z1 matches x2-y0 and x3-y2: y0 lies in
        # both columns, y1 and y2 in one
        (system((0b001, 0b010, 0b001, 0b100), (0b01, 0b01, 0b10, 0b10), (0b11, 0b01, 0b10),
                3, 2), "E2'", None),
        # no symbol and no column: nothing fails before the degrees
        (system((0,), (0,), (), 0, 0), "E1'", None),
        (system((0b0,), (0b0,), (0b0,), 1, 1), "E2", ("y0",)),
    ]
    for t, condition, witness in cases:
        got = matching_path(t)
        assert got == reference_matching_path(t)
        assert got[0] == condition and got[2] == witness, got


@settings(FIXED, max_examples=150)
@given(st.data())
def test_the_report_and_the_matcher_agree(sweep_systems, data):
    """matchable_ok holds exactly when complete_matching raises nothing; a
    refusal names the report's first failing condition of E1, E2, E3, E6,
    with that condition's witness."""
    t = _flipped(data, sweep_systems)
    rep = check_conditions(t)
    try:
        complete_matching(t)
    except ConditionError as exc:
        failing = [c for c in ("E1", "E2", "E3", "E6") if c in rep.witnesses]
        assert failing, exc
        assert (exc.condition, exc.witness) == (failing[0], rep.witnesses[failing[0]])
        assert not rep.matchable_ok
    else:
        assert rep.matchable_ok


# --- products ---------------------------------------------------------------


@settings(FIXED, max_examples=150)
@given(valid_pdas(), valid_pdas())
def test_direct_product_equals_the_triple_route(a, b):
    prod = direct_product(a, b)
    assert validate_pda(prod).ok
    assert prod == triple_route_product(a, b)


# --- design certificates against their definitions -------------------------


def reference_configuration(d: Design, v: int, r: int, b: int, k: int) -> tuple:
    """certify_configuration's (ok, condition, witness) from the definition
    of a (v_r, b_k)-configuration, point by point and pair by pair, with the
    two counting identities b k = v r and r (k - 1) <= v - 1 checked too."""
    blocks = d.blocks
    if d.v != v:
        return False, "point-count", (d.v, v)
    if len(blocks) != b:
        return False, "block-count", (len(blocks), b)
    for i, blk in enumerate(blocks):
        if len(blk) != k:
            return False, "block-size", (i, len(blk))
    for p in range(v):
        held = sum(p in blk for blk in blocks)
        if held != r:
            return False, "replication", (p, held)
    for i, blk in enumerate(blocks):
        for pair in itertools.combinations(blk, 2):
            earlier = [j for j in range(i) if set(pair) <= set(blocks[j])]
            if earlier:
                return False, "pair-repeated", (pair, earlier[0], i)
    if b * k != v * r:
        return False, "incidence-count", (b * k, v * r)
    if (k - 1) * r > v - 1:
        return False, "size-bound", (k, r, v)
    return True, "", ()


def reference_t_design(d: Design, t: int, v: int, k: int, lam: int) -> tuple:
    """certify_t_design's (ok, condition, witness) from the definition of a
    t-(v,k,lam) design, subset by subset, with the block count
    b C(k,t) = lam C(v,t) checked too."""
    if d.v != v:
        return False, "point-count", (d.v, v)
    for i, blk in enumerate(d.blocks):
        if len(blk) != k:
            return False, "block-size", (i, len(blk))
    for sub in itertools.combinations(range(v), t):
        held = sum(set(sub) <= set(blk) for blk in d.blocks)
        if held != lam:
            return False, "coverage", (sub, held)
    if d.b * comb(k, t) != lam * comb(v, t):
        return False, "block-count", (d.b, Fraction(lam * comb(v, t), comb(k, t)))
    return True, "", ()


# the catalog, each builder, and a retagged design: the ones that certify
KNOWN_DESIGNS = ([make() for make in _CATALOG.values()]
                 + [complete_design(v, k) for v in range(2, 7) for k in range(1, v)]
                 + [steiner_triple_system(v) for v in (7, 9, 13)]
                 + [transversal_design(k, n) for k, n in ((2, 2), (3, 3), (4, 3), (3, 4))]
                 + [as_t_design(catalog_lookup("sqs8"), 2)])


@st.composite
def small_designs(draw):
    """Up to 8 blocks, repeats allowed, on up to 7 points."""
    v = draw(st.integers(1, 7))
    block = st.sets(st.integers(0, v - 1), min_size=1).map(tuple)
    return Design(v, tuple(draw(st.lists(block, max_size=8))))


@settings(FIXED, max_examples=400)
@given(st.one_of(st.sampled_from(KNOWN_DESIGNS), small_designs()), st.data())
def test_certificates_match_the_definitions(d, data):
    """Each certifier returns the reference's verdict, on parameters read off
    the design and then moved by at most one."""
    def near(value):
        return value + data.draw(st.sampled_from((-1, 0, 0, 0, 1)))

    k0 = len(d.blocks[0]) if d.blocks else 1  # a design may have no block
    v, r, b, k = near(d.v), near(sum(0 in blk for blk in d.blocks)), near(d.b), near(k0)
    if v >= 1:
        cert = certify_configuration(d, v, r, b, k)
        assert (cert.ok, cert.condition, cert.witness) == reference_configuration(d, v, r, b, k)
    t = data.draw(st.integers(1, k0))
    lam = near(sum(set(range(t)) <= set(blk) for blk in d.blocks))
    if not (v > k >= t >= 1 and lam >= 1):
        with pytest.raises(ValueError):
            certify_t_design(d, t, v, k, lam)
        return
    cert = certify_t_design(d, t, v, k, lam)
    assert (cert.ok, cert.condition, cert.witness) == reference_t_design(d, t, v, k, lam)
