import itertools
import random
import re
from fractions import Fraction

import pytest

import pdakit.sim as sim
from pdakit.constructions import ConstructionSpec, construct_pda
from pdakit.pda import Pda, STAR
from pdakit.sim import (CacheContents, DecodeError, FileLibrary, decode,
                        deliver, place, verify_scheme)

from conftest import TINY, decode_failures


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_library_shape_and_determinism():
    lib = FileLibrary.random(3, 4, packet_size=8, seed=5)
    assert lib.n == 3 and lib.f == 4
    assert all(len(pk) == 8 for f in lib.packets for pk in f)
    assert len(lib.file(0)) == 32
    assert lib.file(1) == b"".join(lib.packets[1])
    again = FileLibrary.random(3, 4, packet_size=8, seed=5)
    assert lib == again
    assert FileLibrary.random(3, 4, packet_size=8, seed=6) != lib
    with pytest.raises(ValueError):
        FileLibrary.random(0, 4)


@pytest.mark.parametrize("packets", [
    ((b"ab", b"c"),),  # packets longer than packet_size: deliver overflowed
    ((b"a",),),  # fewer packets than f: deliver ran off the file
    ((b"a", b"b", b"c"),),  # more packets than f
    ((b"a", b"b"), (b"c", b"d")),  # more files than n
    ((b"a", "b"),),  # a packet that is not bytes
    ((b"a", bytearray(b"b")),),
])
def test_library_checks_its_shape(packets):
    """A library holds n files of f packets, each a bytes object of exactly
    packet_size bytes, or is refused before deliver can read it."""
    with pytest.raises(ValueError):
        FileLibrary(1, 2, 1, packets)


def test_library_keeps_its_own_packets():
    files = [[b"a", b"b"]]
    lib = FileLibrary(1, 2, 1, files)
    caches = place(TINY, lib)
    files[0][1] = b"z"  # would change what deliver reads but not the cached ints
    assert lib.packets == ((b"a", b"b"),)
    tx = deliver(TINY, lib, (0, 0))
    assert tx == [bytes([ord("a") ^ ord("b")])]
    assert decode(TINY, caches[0], tx, (0, 0), 0) == lib.file(0) == b"ab"


def test_library_needs_positive_sizes():
    for n, f, size in ((0, 2, 1), (1, 0, 1), (1, 2, 0), (1.0, 2, 1)):
        with pytest.raises(ValueError, match="^need n, f, packet_size >= 1$"):
            FileLibrary(n, f, size, ((b"a", b"b"),))
    for n, f, size in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, -1)):
        with pytest.raises(ValueError, match="^need n, f, packet_size >= 1$"):
            FileLibrary.random(n, f, size)
    lib = FileLibrary(1, 2, 1, ((b"a", b"b"),))
    assert deliver(TINY, lib, (0, 0)) == [bytes([ord("a") ^ ord("b")])]


@pytest.mark.parametrize("n, f, size", [(2.0, 2, 1), (2, 2.0, 1), (2, 2, 2.0), (True, 2, 1)])
def test_library_sizes_are_ints_on_every_route(n, f, size):
    """One rule for the constructor and random, checked before any draw:
    a float or a bool size is a ValueError, not a TypeError from range or
    randbytes, and so it is for verify_scheme's library too."""
    with pytest.raises(ValueError, match="^need n, f, packet_size >= 1$"):
        FileLibrary(n, f, size, ((b"a", b"b"),) * 2)
    with pytest.raises(ValueError, match="^need n, f, packet_size >= 1$"):
        FileLibrary.random(n, f, size)
    if type(f) is int:  # verify_scheme takes F from the array
        with pytest.raises(ValueError, match="^need n, f, packet_size >= 1$"):
            verify_scheme(TINY, n, packet_size=size)


def test_place_fills_starred_rows():
    lib = FileLibrary.random(2, 2, seed=0)
    caches = place(TINY, lib)
    assert len(caches) == 2
    # user 0 stars row 0, user 1 stars row 1
    assert set(caches[0].packets) == {(0, 0), (1, 0)}
    assert set(caches[1].packets) == {(0, 1), (1, 1)}
    assert caches[0].packets[(1, 0)] == lib.packets[1][0]
    assert caches[0].size_bytes() == 2 * 16


def test_size_bytes_counts_only_bytes_payloads():
    """On the 2x2 array: a plain mapping's bytes and bytearray payloads, the
    ones decode reads, by length; an int or a str payload counts nothing."""
    lib = FileLibrary.random(2, 2, seed=0)
    edited = place(TINY, lib)[0]
    edited.packets[(0, 0)] = 7
    edited.packets[(1, 0)] = "seventeen chars.."
    edited.packets[(0, 1)] = bytearray(3)
    assert edited.size_bytes() == 3
    plain = {(0, 0): b"ab", (1, 0): 5, (0, 1): "xyz", (1, 1): bytearray(b"c")}
    assert CacheContents(0, plain).size_bytes() == 3


def test_placed_cache_repr_shows_its_packets():
    lib = FileLibrary(2, 2, 1, ((b"a", b"b"), (b"c", b"d")))
    assert repr(place(TINY, lib)[0].packets) == "PlacedPackets({(0, 0): b'a', (1, 0): b'c'})"


def test_place_shares_keys_across_users():
    p = construct_pda(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1))
    lib = FileLibrary.random(3, p.f, seed=0)
    keys = {}
    for cache in place(p, lib):
        assert list(cache.packets) == [(i, j) for j, row in enumerate(p.grid)
                                       if row[cache.user] == STAR for i in range(3)]
        for key in cache.packets:
            assert keys.setdefault(key, key) is key


def test_place_rejects_mismatched_library():
    with pytest.raises(ValueError, match="packets per file"):
        place(TINY, FileLibrary.random(2, 3))


def test_deliver_xors_demanded_packets():
    lib = FileLibrary.random(2, 2, seed=1)
    log = deliver(TINY, lib, (0, 1))
    # symbol 1 sits at cells (0,1) and (1,0): row 0 of user 1's file,
    # row 1 of user 0's file
    assert log == [_xor(lib.packets[1][0], lib.packets[0][1])]
    with pytest.raises(ValueError, match="entries"):
        deliver(TINY, lib, (0,))
    with pytest.raises(ValueError, match="library"):
        deliver(TINY, lib, (0, 5))


def test_decode_tiny_exhaustive():
    lib = FileLibrary.random(2, 2, seed=2)
    caches = place(TINY, lib)
    for demand in itertools.product(range(2), repeat=2):
        log = deliver(TINY, lib, demand)
        for user in range(2):
            got = decode(TINY, caches[user], log, demand, user)
            assert got == lib.file(demand[user])


def test_decode_constructed_array_spot():
    p = construct_pda(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1))
    lib = FileLibrary.random(3, p.f, packet_size=4, seed=3)
    caches = place(p, lib)
    for demand in ((0,) * 7, (0, 1, 2, 0, 1, 2, 0)):
        log = deliver(p, lib, demand)
        assert len(log) == p.s
        for user in range(p.k):
            assert decode(p, caches[user], log, demand, user) == lib.file(demand[user])


def test_decode_raises_on_broken_structure():
    # same symbol twice in one row: the side packet is never cached
    broken = Pda(2, 2, 1, 1, ((1, 1), (STAR, STAR)))
    lib = FileLibrary.random(2, 2, seed=4)
    caches = place(broken, lib)
    log = deliver(broken, lib, (0, 1))
    with pytest.raises(DecodeError, match="C3"):
        decode(broken, caches[0], log, (0, 1), 0)


def test_decode_missing_star_packet():
    lib = FileLibrary.random(2, 2, seed=0)
    empty = CacheContents(0, {})
    log = deliver(TINY, lib, (0, 0))
    with pytest.raises(DecodeError, match="missing"):
        decode(TINY, empty, log, (0, 0), 0)


def test_verify_scheme_exhaustive():
    rep = verify_scheme(TINY, 2)
    assert rep.mode == "exhaustive"
    assert rep.demands_tested == 4
    assert rep.ok and rep.failures == []
    assert rep.rate == Fraction(1, 2)
    assert rep.bytes_per_demand == 16
    assert rep.pda == (2, 2, 1, 1)


def test_verify_scheme_modes():
    adv = verify_scheme(TINY, 2, mode="adversarial")
    assert adv.mode == "adversarial" and adv.demands_tested == 3
    samp = verify_scheme(TINY, 2, mode="sampled", samples=50)
    assert samp.mode == "sampled"
    assert 3 <= samp.demands_tested <= 4  # dedup against only 4 possible demands
    with pytest.raises(ValueError, match="unknown mode"):
        verify_scheme(TINY, 2, mode="everything")


def test_adversarial_demands_are_distinct():
    # with K=1 the all-distinct demand (0,) is also the first all-alike one
    one_user = Pda(1, 2, 1, 1, ((STAR,), (1,)))
    assert sim._demand_set(one_user, 2, "adversarial", 0, None) == ([(0,), (1,)], "adversarial")
    assert verify_scheme(one_user, 2, mode="adversarial").demands_tested == 2
    assert verify_scheme(one_user, 1, mode="adversarial").demands_tested == 1


def sampled_per_draw(k: int, n: int, samples: int, rng: random.Random) -> list:
    """The sampled demand set with one rng.randrange call per entry."""
    seen = dict.fromkeys((i,) * k for i in range(n))
    if n >= k:
        seen.setdefault(tuple(range(k)), None)
    for _ in range(samples):
        seen.setdefault(tuple(rng.randrange(n) for _ in range(k)), None)
    return list(seen)


@pytest.mark.parametrize("k", [1, 7, 130])
def test_sampled_demands_follow_randrange(k):
    """Both routes, bulk words below n = 256 and one getrandbits per draw
    from 256 on, give rng.randrange(n)'s values and leave rng where it
    would.  A non-power-of-two n rejects draws, so the bulk route tops its
    first batch up; that it reads each word's top byte at offsets 3, 7, ...
    of getrandbits(32 * m)'s little-endian bytes is pinned here."""
    users = Pda(k, 1, 0, 0, ((STAR,) * k,))  # only K is read
    for n in [*range(1, 9), 127, 128, 255, 256, 257, 1000]:
        for samples in (20, 200):
            for seed in range(5 if samples == 20 else 2):
                rng, ref = random.Random(seed), random.Random(seed)
                got = sim._demand_set(users, n, "sampled", samples, rng)
                assert got == (sampled_per_draw(k, n, samples, ref), "sampled")
                assert rng.random() == ref.random()  # nothing drawn past the last demand
    with pytest.raises(ValueError, match="at least one file"):
        sim._demand_set(users, 0, "sampled", 1, random.Random(0))


def test_negative_samples_are_refused_before_any_draw():
    """samples < 0 raises one ValueError naming it, on either draw route
    (N < 256 in bulk, N >= 256 one draw at a time) and in every mode,
    before the generator moves."""
    square = Pda(2, 2, 1, 1, ((STAR, 1), (1, STAR)))
    for n in (2, 256):
        for mode in ("sampled", "auto", "exhaustive", "adversarial"):
            rng = random.Random(7)
            with pytest.raises(ValueError, match="samples must be at least 0, not -3"):
                sim._demand_set(square, n, mode, -3, rng)
            assert rng.random() == random.Random(7).random()
        with pytest.raises(ValueError, match="not -3"):
            verify_scheme(square, n, mode="sampled", samples=-3)
    assert sim._demand_set(square, 2, "sampled", 0, random.Random(7)) == (
        [(0, 0), (1, 1), (0, 1)], "sampled")


def test_verify_scheme_exhaustive_limit(monkeypatch):
    # K=20 columns, one star each, every symbol cell its own symbol
    wide = Pda(20, 2, 1, 20, tuple(tuple(STAR if (k + j) % 2 else k + 1 for k in range(20))
                                   for j in range(2)))
    built = []

    def product(values, repeat):  # stands in for the 2^20-tuple product
        built.append((len(values), repeat))
        return iter([(0,) * repeat])

    tables = []  # the words table is built after the demand set, so never here
    real_words = sim._words
    monkeypatch.setattr(itertools, "product", product)
    monkeypatch.setattr(sim, "_words", lambda p, lib: tables.append(p) or real_words(p, lib))
    assert sim.MAX_EXHAUSTIVE == 2 ** 20
    for n in (3, 4):
        with pytest.raises(ValueError, match=rf"{n}\^20 demand vectors.*2\^20"):
            verify_scheme(wide, n, mode="exhaustive")
    assert built == [] and tables == []
    assert verify_scheme(wide, 2, mode="exhaustive").demands_tested == 1
    assert built == [(2, 20)]


def test_verify_scheme_auto_switches_to_sampling():
    p = construct_pda(ConstructionSpec("config", 1, design="sts:13"))
    rep = verify_scheme(p, 4, samples=20)
    assert rep.mode == "sampled"
    assert rep.demands_tested <= 4 + 1 + 20
    assert rep.ok


def test_verify_scheme_seed_reproducible():
    p = construct_pda(ConstructionSpec("config", 1, design="fano"))
    a = verify_scheme(p, 3, mode="sampled", samples=10, seed=7)
    b = verify_scheme(p, 3, mode="sampled", samples=10, seed=7)
    assert (a.demands_tested, a.failures) == (b.demands_tested, b.failures)


def test_verify_scheme_refuses_invalid():
    with pytest.raises(ValueError, match="refusing"):
        verify_scheme(Pda(2, 2, 1, 1, ((1, 1), (STAR, STAR))), 2)


def test_report_json():
    rep = verify_scheme(TINY, 2)
    obj = rep.to_json()
    assert obj["pda"] == {"K": 2, "F": 2, "Q": 1, "S": 1}
    assert obj["rate"] == "1/2"
    assert obj["failures"] == []
    assert obj["mode"] == "exhaustive"
    assert obj["demands_tested"] == 4
    assert obj["bytes"] == 16


# --- fault injection: verify_scheme reads what place and delivery produced ---

FANO_PG = construct_pda(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1))  # K=F=7


def _loops(monkeypatch):
    """Set verify_scheme's demand loop to each form in turn, yielding its
    name: on the words table, then cell by cell (a table budget of 0)."""
    for form, budget in (("words", sim.MAX_WORDS_BYTES), ("cells", 0)):
        monkeypatch.setattr(sim, "MAX_WORDS_BYTES", budget)
        yield form


def _flip(payloads: int, p: Pda, symbol: int, bit: int, size: int) -> int:
    """The packed payloads with bit `bit` of payload `symbol` flipped."""
    return payloads ^ (1 << (bit + 8 * size * (p.s - symbol)))


def test_decode_demand_outside_the_library():
    p = FANO_PG
    lib = FileLibrary.random(2, p.f, seed=0)
    caches = place(p, lib)
    tx = deliver(p, lib, (0,) * 7)
    # file 9 is in no row of the cache: a side packet of it is not blamed on C3
    with pytest.raises(DecodeError) as exc:
        decode(p, caches[0], tx, (0, 0, 0, 0, 0, 0, 9), 0)
    assert str(exc.value) == ("user 0: packet (9,0) for cell (0,6) missing from cache; "
                              "the cache holds no packet of file 9")
    with pytest.raises(DecodeError) as exc:
        decode(p, caches[0], tx, (9, 0, 0, 0, 0, 0, 0), 0)  # the user's own position
    assert str(exc.value) == "user 0: packet (9,0) for cell (0,0) missing from cache"
    # a negative entry is outside every library, in either position
    for demand in ((0, 0, 0, 0, 0, 0, -1), (-1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="^demand entry outside the library$"):
            decode(p, caches[0], tx, demand, 0)


def test_decode_blames_c3_only_for_a_crossing_cell_that_is_not_a_star():
    p = FANO_PG
    lib = FileLibrary.random(2, 7, seed=0)
    caches = place(p, lib)
    demand = (0, 1, 1, 1, 1, 1, 1)
    tx = deliver(p, lib, demand)
    # cell (0,0) is a star: the array is valid and the cache lost the packet
    assert p.grid[0][0] == STAR
    del caches[0].packets[(1, 0)]
    with pytest.raises(DecodeError) as exc:
        decode(p, caches[0], tx, demand, 0)
    assert str(exc.value) == "user 0: packet (1,0) for cell (0,6) missing from cache"
    # symbol 1 twice in row 0: the crossing cell of user 0 is not a star
    broken = Pda(2, 2, 1, 1, ((1, 1), (STAR, STAR)))
    lib = FileLibrary.random(2, 2, seed=4)
    with pytest.raises(DecodeError) as exc:
        decode(broken, place(broken, lib)[0], deliver(broken, lib, (0, 1)), (0, 1), 0)
    assert str(exc.value) == ("user 0: packet (1,0) for cell (0,1) missing from cache; "
                              "condition C3 is broken")


def _reads(p, user, demand):
    """Every cached (file, row) the user's decode of this demand reads."""
    out = set()
    for j, row in enumerate(p.grid):
        if row[user] == STAR:
            out.add((demand[user], j))
        else:
            out |= {(demand[k2], j2) for j2, k2 in zip(*p.symbol_cells[row[user]])
                    if (j2, k2) != (j, user)}
    return out


@pytest.mark.parametrize("fault", ["corrupt", "drop"])
def test_verify_records_faulty_cached_packet(monkeypatch, fault):
    user, file = 3, 1
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)
    real_place = sim.place

    def place(p, lib):
        caches = real_place(p, lib)
        pk = caches[user].packets.pop((file, row))
        if fault == "corrupt":
            caches[user].packets[(file, row)] = bytes([pk[0] ^ 1]) + pk[1:]
        return caches

    monkeypatch.setattr(sim, "place", place)
    expect = [(d, user) for d in itertools.product(range(3), repeat=7)
              if (file, row) in _reads(FANO_PG, user, d)]
    for _ in _loops(monkeypatch):
        rep = verify_scheme(FANO_PG, 3, mode="exhaustive")
        assert not rep.ok
        assert rep.failures == expect
        assert 0 < len(expect) < rep.demands_tested


def test_verify_records_corrupt_transmission(monkeypatch):
    symbol = 2
    real_transmit, forms = sim._transmit, []

    def transmit(p, ints, demand, size, words=None):
        forms.append("cells" if words is None else "words")
        return _flip(real_transmit(p, ints, demand, size, words), p, symbol, 7, size)

    monkeypatch.setattr(sim, "_transmit", transmit)
    listeners = sorted(set(FANO_PG.symbol_cells[symbol][1]))
    assert 0 < len(listeners) < FANO_PG.k
    for loop in _loops(monkeypatch):
        forms.clear()
        rep = verify_scheme(FANO_PG, 2, mode="exhaustive")
        assert set(forms) == {loop}
        assert rep.failures == [(d, u) for d in itertools.product(range(2), repeat=7)
                                for u in listeners]


def test_verify_records_cancelling_double_fault(monkeypatch):
    """A side packet in user 3's cache and the payload whose peel reads it,
    flipped in the same bit, cancel in that user's decode of that row.  So a
    user with a faulty cache must be peeled from its cache, never judged by
    the payload check alone."""
    user, file, bit = 3, 1, 5
    j, s = next((j, row[user]) for j, row in enumerate(FANO_PG.grid) if row[user] != STAR)
    j2, k2 = next(c for c in zip(*FANO_PG.symbol_cells[s]) if c != (j, user))
    real_place, real_transmit, seen = sim.place, sim._transmit, {}

    def place(p, lib):
        caches = real_place(p, lib)
        pk = caches[user].packets[(file, j2)]
        caches[user].packets[(file, j2)] = (
            int.from_bytes(pk, "big") ^ 1 << bit).to_bytes(len(pk), "big")
        seen.update(lib=lib, caches=caches)
        return caches

    def transmit(p, ints, demand, size, words=None):  # deliver's calls included
        return _flip(real_transmit(p, ints, demand, size, words), p, s, bit, size)

    monkeypatch.setattr(sim, "place", place)
    monkeypatch.setattr(sim, "_transmit", transmit)
    for _ in _loops(monkeypatch):
        rep = verify_scheme(FANO_PG, 2, mode="exhaustive")
        expect = decode_failures(FANO_PG, seen["lib"], seen["caches"], 2)  # deliver reads the patch
        assert rep.failures == expect
        cancelled = [d for d in itertools.product(range(2), repeat=7)
                     if d[k2] == file and (d, user) not in expect]
        assert cancelled
        # the other users in symbol s's columns have clean caches and always fail
        others = set(FANO_PG.symbol_cells[s][1]) - {user}
        assert {(d, k) for d, k in expect if k in others} == {
            (d, k) for d in itertools.product(range(2), repeat=7) for k in others}


def test_verify_scheme_streams_demands(monkeypatch):
    """Each demand is transmitted before the next one is drawn, so neither
    the exhaustive demand set nor its payloads are held."""
    events = []
    real_product, real_transmit = itertools.product, sim._transmit

    def product(values, repeat):
        for demand in real_product(values, repeat=repeat):
            events.append("draw")
            yield demand

    def transmit(p, ints, demand, size, words=None):
        events.append("send" if (words is None) == (loop == "cells") else "other form")
        return real_transmit(p, ints, demand, size, words)

    monkeypatch.setattr(itertools, "product", product)
    monkeypatch.setattr(sim, "_transmit", transmit)
    for loop in _loops(monkeypatch):
        events.clear()
        rep = verify_scheme(FANO_PG, 2, mode="exhaustive")
        assert rep.ok and rep.demands_tested == 2 ** 7
        assert events == ["draw", "send"] * 2 ** 7


def test_clean_users_are_never_peeled(monkeypatch):
    """verify_scheme peels only users whose cache is faulty."""
    calls = []
    real_peel, real_place = sim._peel, sim.place

    def peel(p, packets, by_row, user, *rest):
        if user not in calls:  # the users peeled, in the order first peeled
            calls.append(user)
        return real_peel(p, packets, by_row, user, *rest)

    monkeypatch.setattr(sim, "_peel", peel)
    user, file = 3, 1
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)

    def place(p, lib):
        caches = real_place(p, lib)
        pk = caches[user].packets[(file, row)]
        caches[user].packets[(file, row)] = bytes([pk[0] ^ 1]) + pk[1:]
        return caches

    for _ in _loops(monkeypatch):
        calls.clear()
        monkeypatch.setattr(sim, "place", real_place)
        assert verify_scheme(FANO_PG, 3, mode="exhaustive").ok
        assert calls == []

        monkeypatch.setattr(sim, "place", place)
        rep = verify_scheme(FANO_PG, 3, mode="exhaustive")
        assert calls == [user]
        assert rep.failures == [(d, user) for d in itertools.product(range(3), repeat=7)
                                if (file, row) in _reads(FANO_PG, user, d)]


def _count_decoders(monkeypatch) -> list:
    calls, real_peel = [], sim._peel

    def peel(p, packets, by_row, user, *rest):
        if user not in calls:  # the users peeled, in the order first peeled
            calls.append(user)
        return real_peel(p, packets, by_row, user, *rest)

    monkeypatch.setattr(sim, "_peel", peel)
    return calls


@pytest.mark.parametrize("edit", ["rewrite", "reinsert", "extra"])
def test_edited_cache_still_holding_the_library_is_peeled(monkeypatch, edit):
    """A cache written back to the library's own bytes, or given extra keys
    outside its starred rows, still holds every starred packet, but it was
    written to: its user is peeled, and decodes right."""
    calls = _count_decoders(monkeypatch)
    user, file = 3, 1
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)
    other = next(j for j, r in enumerate(FANO_PG.grid) if r[user] != STAR)
    real_place = sim.place

    def place(p, lib):
        caches = real_place(p, lib)
        packets = caches[user].packets
        pk = packets[(file, row)]
        if edit == "rewrite":
            packets[(file, row)] = bytes(len(pk))
            packets[(file, row)] = bytes(pk)  # equal bytes, another object
        elif edit == "reinsert":
            packets[(file, row)] = packets.pop((file, row))
        else:
            packets[(file, other)] = bytes(len(pk))  # not a starred row
            packets[(9, row)] = pk  # not a file of the library
        return caches

    monkeypatch.setattr(sim, "place", place)
    for _ in _loops(monkeypatch):
        calls.clear()
        assert verify_scheme(FANO_PG, 3, mode="exhaustive").ok
        assert calls == [user]


def test_plain_dict_caches_are_peeled(monkeypatch):
    """Caches that are not placed views, here dict copies with one corrupt
    packet, are all peeled, and give the same report as the views do."""
    user, file = 3, 1
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)
    real_place = sim.place

    def corrupt(caches):
        pk = caches[user].packets[(file, row)]
        caches[user].packets[(file, row)] = bytes([pk[0] ^ 1]) + pk[1:]
        return caches

    calls = _count_decoders(monkeypatch)
    for _ in _loops(monkeypatch):
        monkeypatch.setattr(sim, "place", lambda p, lib: corrupt(real_place(p, lib)))
        with_views = verify_scheme(FANO_PG, 3, mode="exhaustive").to_json()
        calls.clear()
        monkeypatch.setattr(sim, "place", lambda p, lib: corrupt(
            [CacheContents(c.user, dict(c.packets)) for c in real_place(p, lib)]))
        with_dicts = verify_scheme(FANO_PG, 3, mode="exhaustive").to_json()
        assert calls == list(range(FANO_PG.k))
        assert with_dicts == with_views and with_views["failures"]


# --- decode checks its inputs as deliver does ---

_LIB = FileLibrary.random(2, FANO_PG.f, seed=5)
_TX = deliver(FANO_PG, _LIB, (0,) * 7)


@pytest.mark.parametrize("user, demand, tx, match", [
    (-1, (0,) * 7, _TX, "user -1 outside 0..6"),
    (7, (0,) * 7, _TX, "user 7 outside"),
    (0, (0,) * 6, _TX, "needs 7 entries"),
    (0, (0,) * 8, _TX, "needs 7 entries"),
    (0, (0,) * 7, _TX[:-1], "S=7 transmissions, got 6"),
    (0, (0,) * 7, _TX + _TX[:1], "S=7 transmissions, got 8"),
    (0, (0,) * 7, [], "S=7 transmissions, got 0"),
    (0, (0,) * 7, _TX[:-1] + [_TX[-1] + b"\0"], "differ in length: 16 to 17 bytes"),
    (4, (0,) * 7, _TX[:-1] + [_TX[-1] + b"\0"], "differ in length: 16 to 17 bytes"),
    (0, (0,) * 7, [_TX[0] + b"\0"] + _TX[1:], "differ in length: 16 to 17 bytes"),
    (0, (0,) * 7, [_TX[0][:-1]] + _TX[1:], "differ in length: 15 to 16 bytes"),
    (0, (0,) * 7, [tx.decode("latin-1") for tx in _TX], "must be bytes-like: .* str found"),
    (0, (0,) * 7, _TX[:-1] + [0], "must be bytes-like: .* int found"),
])
def test_decode_checks_its_inputs(user, demand, tx, match):
    caches = place(FANO_PG, _LIB)
    with pytest.raises(ValueError, match=match):
        decode(FANO_PG, caches[user % 7], tx, demand, user)


@pytest.mark.parametrize("bad", [1.5, True, "0", None])
def test_a_demand_entry_that_is_not_an_int_is_refused(bad):
    """Not served as file 1 (True) nor failing deep inside (1.5), in either
    position, by deliver or decode."""
    caches = place(FANO_PG, _LIB)
    for demand in ((0,) * 6 + (bad,), (bad,) + (0,) * 6):
        with pytest.raises(ValueError, match=f"^demand entry {bad!r} is not an int$"):
            deliver(FANO_PG, _LIB, demand)
        with pytest.raises(ValueError, match=f"^demand entry {bad!r} is not an int$"):
            decode(FANO_PG, caches[0], _TX, demand, 0)


@pytest.mark.parametrize("bad", [1.0, True, "0", None])
def test_a_user_that_is_not_an_int_is_refused(bad):
    """Not decoded as user 1 (True) nor failing in a tuple index (1.0)."""
    caches = place(FANO_PG, _LIB)
    with pytest.raises(ValueError, match=f"^{re.escape(f'user {bad!r} is not an int')}$"):
        decode(FANO_PG, caches[1], _TX, (0,) * 7, bad)


def test_the_empty_demand_of_an_array_without_users_is_served():
    """K = 0: the empty demand passes the entry checks, and no transmission
    is sent."""
    empty = Pda(0, 1, 0, 0, ((),))
    assert deliver(empty, _LIB, ()) == deliver(empty, _LIB, []) == []
    with pytest.raises(ValueError, match=r"^user 0 outside 0\.\.-1$"):
        decode(empty, CacheContents(0, {}), [], (), 0)


@pytest.mark.parametrize("kind", ["view", "dict"])
def test_cache_entries_decode_cannot_read_are_skipped(monkeypatch, kind):
    """A key that is not a (file, row) pair is never read, and a payload that
    is not bytes is not used: decode names the first packet it cannot use,
    and verify_scheme records the failures instead of raising."""
    user = 0
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)
    real_place, seen = sim.place, {}

    def place(p, lib):
        caches = real_place(p, lib)
        if kind == "dict":
            caches = [CacheContents(c.user, dict(c.packets)) for c in caches]
        packets = caches[user].packets
        packets[5] = packets[(1, 0, 0)] = packets["ab"] = b"\0" * 16  # not (file, row) keys
        packets[(0, row)] = "abcd" * 4  # the right length, not bytes
        seen.update(lib=lib, caches=caches)
        return caches

    caches = place(FANO_PG, _LIB)
    assert decode(FANO_PG, caches[user], deliver(FANO_PG, _LIB, (1,) * 7), (1,) * 7,
                  user) == _LIB.file(1)  # reads no packet of file 0
    with pytest.raises(DecodeError, match=fr"^user 0: packet \(0,{row}\) for cell "
                                          fr"\({row},0\) is a str, not bytes$"):
        decode(FANO_PG, caches[user], _TX, (0,) * 7, user)

    monkeypatch.setattr(sim, "place", place)
    for _ in _loops(monkeypatch):
        rep = verify_scheme(FANO_PG, 2, mode="exhaustive")
        assert rep.failures == [(d, user) for d in itertools.product(range(2), repeat=7)
                                if (0, row) in _reads(FANO_PG, user, d)]
        assert rep.failures == decode_failures(FANO_PG, seen["lib"], seen["caches"], 2)


def test_decode_rejects_a_cached_packet_longer_than_the_transmissions():
    caches = place(FANO_PG, _LIB)
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[0] == STAR)
    caches[0].packets[(0, row)] = b"\1" + _LIB.packets[0][row]  # 17 bytes
    with pytest.raises(DecodeError, match=fr"^user 0: packet \(0,{row}\) for cell \({row},0\) "
                                          f"is 17 bytes, not the 16 bytes of a transmission"):
        decode(FANO_PG, caches[0], _TX, (0,) * 7, 0)
    # transmissions shorter than the library's packets, on an unedited cache:
    # every cached packet is too long, so the first one read is named
    first = next(j for j, r in enumerate(FANO_PG.grid) if r[1] == STAR)
    with pytest.raises(DecodeError, match=fr"^user 1: packet \(0,{first}\) for cell "
                                          fr"\({first},1\) is 16 bytes, not the 8 bytes"):
        decode(FANO_PG, caches[1], [t[:8] for t in _TX], (0,) * 7, 1)


@pytest.mark.parametrize("kind", ["view", "dict"])
def test_library_packets_longer_than_the_transmissions_are_not_used(kind):
    """16-byte library packets whose first 8 bytes are zero equal, as ints,
    the 8-byte packets that transmissions cut to their last 8 bytes carry; a
    placed cache never written to holds no packet of the transmissions'
    length, as a dict copy of it does not, so nothing decodes."""
    rnd = FileLibrary.random(2, FANO_PG.f, packet_size=8, seed=5)
    lib = FileLibrary(2, FANO_PG.f, 16, tuple(tuple(bytes(8) + pk for pk in file)
                                              for file in rnd.packets))
    demand = (0,) * 7
    tx = [t[8:] for t in deliver(FANO_PG, lib, demand)]
    assert tx == deliver(FANO_PG, rnd, demand)
    for cache in place(FANO_PG, lib):
        packets = cache.packets if kind == "view" else dict(cache.packets)
        user = cache.user
        with pytest.raises(DecodeError, match=fr"^user {user}: packet \(0,\d\) for cell "
                                              r"\(\d,\d\) is 16 bytes, not the 8 bytes of a "
                                              r"transmission$"):
            decode(FANO_PG, CacheContents(user, packets), tx, demand, user)
        assert cache.packets._own is None


@pytest.mark.parametrize("kind", ["view", "dict"])
def test_a_cached_packet_of_another_length_is_not_right(monkeypatch, kind):
    """A starred packet stored with a leading zero byte has the library's
    value as an int but not its length: decode names it, read for the user's
    own cell or as a side packet, and verify_scheme fails the user on every
    demand that reads it."""
    user, file = 0, 0
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)
    real_place, seen = sim.place, {}

    def place(p, lib):
        caches = real_place(p, lib)
        if kind == "dict":
            caches = [CacheContents(c.user, dict(c.packets)) for c in caches]
        caches[user].packets[(file, row)] = b"\0" + lib.packets[file][row]
        seen.update(lib=lib, caches=caches)
        return caches

    caches = place(FANO_PG, _LIB)
    side = next(d for d in itertools.product(range(2), repeat=7)
                if d[user] == 1 and (file, row) in _reads(FANO_PG, user, d))
    for demand in ((0,) * 7, side):
        with pytest.raises(DecodeError, match=fr"^user 0: packet \(0,{row}\) for cell "
                                              fr"\({row},\d\) is 17 bytes, not the 16 bytes"):
            decode(FANO_PG, caches[user], deliver(FANO_PG, _LIB, demand), demand, user)
    assert decode(FANO_PG, caches[user], deliver(FANO_PG, _LIB, (1,) * 7),
                  (1,) * 7, user) == _LIB.file(1)  # this demand does not read it

    monkeypatch.setattr(sim, "place", place)
    for _ in _loops(monkeypatch):
        rep = verify_scheme(FANO_PG, 2, mode="exhaustive")
        assert rep.failures == [(d, user) for d in itertools.product(range(2), repeat=7)
                                if (file, row) in _reads(FANO_PG, user, d)]
        assert rep.failures == decode_failures(FANO_PG, seen["lib"], seen["caches"], 2)


# --- a placed cache is the library until its first write or delete ---

def test_reads_leave_a_placed_cache_uncopied(monkeypatch):
    caches = place(FANO_PG, _LIB)
    packets = caches[0].packets
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[0] == STAR)
    assert packets.get((1, row)) == _LIB.packets[1][row] and packets.get((9, row)) is None
    assert (1, row) in packets and (9, row) not in packets
    assert packets.pop((9, row), "absent") == "absent"
    assert len(list(packets.items())) == len(packets) == len(dict(packets))
    assert caches[0].size_bytes() == len(packets) * 16
    assert decode(FANO_PG, caches[0], _TX, (0,) * 7, 0) == _LIB.file(0)
    assert all(c.packets._own is None for c in caches)

    seen = []
    real_place = sim.place
    monkeypatch.setattr(sim, "place", lambda p, lib: seen.extend(real_place(p, lib)) or seen)
    assert verify_scheme(FANO_PG, 2, mode="exhaustive").ok
    assert len(seen) == 7 and all(c.packets._own is None for c in seen)


def test_deleting_an_absent_key_leaves_a_placed_cache_unedited(monkeypatch):
    """del of a key the cache does not hold raises KeyError and copies
    nothing, so the cache is still clean without a scan."""
    caches = place(FANO_PG, _LIB)
    packets = caches[0].packets
    before = list(packets.items())
    coded = next(j for j, r in enumerate(FANO_PG.grid) if r[0] != STAR)
    for key in ((9, 0), (0, coded), (0, FANO_PG.f), "key"):
        with pytest.raises(KeyError):
            del packets[key]
    assert packets._own is None and list(packets.items()) == before

    calls = _count_decoders(monkeypatch)
    real_place = sim.place

    def place_and_delete(p, lib):
        caches = real_place(p, lib)
        with pytest.raises(KeyError):
            del caches[0].packets[(9, 0)]
        return caches

    monkeypatch.setattr(sim, "place", place_and_delete)
    for _ in _loops(monkeypatch):
        assert verify_scheme(FANO_PG, 2, mode="exhaustive").ok
        assert calls == []


@pytest.mark.parametrize("edit", ["set", "del", "extra"])
def test_writing_one_cache_leaves_the_rest_alone(edit):
    lib = FileLibrary.random(2, FANO_PG.f, seed=5)
    caches = place(FANO_PG, lib)
    before = [dict(c.packets) for c in caches]
    packets_before = lib.packets
    row_ints_before = [dict(row) for row in lib._row_ints]
    user = 3
    row = next(j for j, r in enumerate(FANO_PG.grid) if r[user] == STAR)
    packets = caches[user].packets
    if edit == "set":
        packets[(1, row)] = bytes(16)
    elif edit == "del":
        del packets[(1, row)]
    else:
        packets[(9, 0)] = bytes(16)
    assert packets._own is not None and dict(packets) != before[user]
    assert all(c.packets._own is None and dict(c.packets) == before[k]
               for k, c in enumerate(caches) if k != user)
    assert lib.packets is packets_before and lib == FileLibrary.random(2, FANO_PG.f, seed=5)
    assert lib._row_ints == row_ints_before
    demand = (0, 1, 1, 0, 1, 0, 1)
    tx = deliver(FANO_PG, lib, demand)
    for k in range(FANO_PG.k):
        if k != user:
            assert decode(FANO_PG, caches[k], tx, demand, k) == lib.file(demand[k])
    assert all(sim._int_rows(caches[0].packets, 16)[j] is lib._row_ints[j]
               for j, r in enumerate(FANO_PG.grid) if r[0] == STAR)
    assert sim._int_rows(caches[user].packets, 16)[row] is not lib._row_ints[row]
    assert lib._row_ints == row_ints_before


# --- the demand loop's two forms ---

def test_words_hold_each_users_packets_in_their_symbols_slots():
    """words[k][i] from the definition: slot s (symbol 1 on top) holds packet
    (i, j) for the cell (j, k) with symbol s, and every other byte is zero."""
    p = FANO_PG
    lib = FileLibrary.random(3, p.f, packet_size=4, seed=2)
    words = sim._words(p, lib)
    assert len(words) == p.k and all(len(row) == lib.n for row in words)
    for k in range(p.k):
        for i in range(lib.n):
            slots = [bytes(4)] * p.s
            for j, row in enumerate(p.grid):
                if row[k] != STAR:
                    slots[row[k] - 1] = lib.packets[i][j]
            assert words[k][i].to_bytes(p.s * 4, "big") == b"".join(slots)
    # a demand's payloads are the XOR of the users' words, as deliver sends them
    demand = (0, 1, 2, 0, 1, 2, 0)
    packed = b"".join(deliver(p, lib, demand))
    total = 0
    for k, i in enumerate(demand):
        total ^= words[k][i]
    assert total.to_bytes(p.s * 4, "big") == packed


def test_words_budget_picks_the_loop(monkeypatch):
    """The table is built exactly when K * N * S * packet_size fits in
    MAX_WORDS_BYTES, and both forms give the same report."""
    need = FANO_PG.k * 3 * FANO_PG.s * 16
    reports = {}
    for budget, form in ((need, "words"), (need - 1, "cells"), (1 << 20, "words")):
        monkeypatch.setattr(sim, "MAX_WORDS_BYTES", budget)
        stats = {}
        reports[budget] = verify_scheme(FANO_PG, 3, stats=stats).to_json()
        assert stats["loop"] == form and stats["words_bytes"] == need
    assert reports[need] == reports[need - 1] == reports[1 << 20]


def test_verify_scheme_stats(monkeypatch):
    """stats on a sweep array (the words table) and on the K=651 array (cell
    by cell: its table would need 27 MB); None leaves the report alone."""
    p = construct_pda(ConstructionSpec("tdesign-b", 1, design="complete:6:3", t1=1, t2=2))
    stats = {}
    rep = verify_scheme(p, 4, stats=stats)
    assert rep.to_json() == verify_scheme(p, 4, stats=None).to_json()
    assert set(stats) == {"setup_s", "draw_s", "loop_s", "demands_per_s", "users_peeled",
                          "loop", "words_bytes", "truth", "table_bytes"}
    assert stats["loop"] == "words" and stats["users_peeled"] == 0
    assert stats["words_bytes"] == p.k * 4 * p.s * 16 <= sim.MAX_WORDS_BYTES
    # K=6, N=4: the tail folds the last 2 users (4^2 <= 24 < 4^3), 16 entries
    assert stats["truth"] == "table" and stats["table_bytes"] == 16 * p.s * 16
    assert rep.demands_tested == 4 ** p.k == 4096
    assert stats["setup_s"] > 0 and stats["loop_s"] > 0
    assert 0 <= stats["draw_s"] <= stats["setup_s"]  # the lazy product: about 0
    assert stats["demands_per_s"] == pytest.approx(4096 / stats["loop_s"])

    big = construct_pda(ConstructionSpec("pg", 1, q=2, k=6, m=2, t=2))
    stats = {}
    rep = verify_scheme(big, 4, mode="sampled", samples=2, stats=stats)
    assert big.k == 651 and rep.ok
    assert stats["loop"] == "cells" and stats["users_peeled"] == 0
    assert stats["words_bytes"] == 651 * 4 * big.s * 16 > sim.MAX_WORDS_BYTES
    assert stats["truth"] == "cells" and stats["table_bytes"] == 0
    assert stats["demands_per_s"] == pytest.approx(rep.demands_tested / stats["loop_s"])
    assert 0 <= stats["draw_s"] <= stats["setup_s"]  # 2 x 651 sampled draws

    user, real_place = 3, sim.place

    def place(p, lib):
        caches = real_place(p, lib)
        caches[user].packets[(0, 0)] = caches[user].packets[(0, 0)]  # written: peeled
        return caches

    monkeypatch.setattr(sim, "place", place)
    stats = {}
    assert verify_scheme(FANO_PG, 2, stats=stats).ok
    assert stats["users_peeled"] == 1

    stats = {}  # sampled in the words form: the sender's reduce again, no table
    assert verify_scheme(FANO_PG, 2, mode="sampled", samples=5, stats=stats).ok
    assert stats["loop"] == "words" and stats["truth"] == "words"
    assert stats["table_bytes"] == 0


# --- the exhaustive check: a tail table and a head partial ---

TD43 = construct_pda(ConstructionSpec("config", 1, design="td:4:3"))  # K=F=12, S=9


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_tail_table_never_outgrows_the_words_table(k, n):
    """The tail folds the last r users, r the most with N^r <= K * N (all K
    when N is 1), so it never holds more entries than the words table; entry
    i is the XOR of those users' words at the i-th choice in product order."""
    rng = random.Random(k * 10 + n)
    words = [[rng.getrandbits(64) for _ in range(n)] for _ in range(k)]
    heads, tail = sim._tail_table(words, n)
    r = k - len(heads)
    assert heads == words[:k - r]
    assert len(tail) == n ** r <= k * n
    assert r == k or n ** (r + 1) > k * n
    for i, choice in enumerate(itertools.product(range(n), repeat=r)):
        want = 0
        for row, file in zip(words[k - r:], choice):
            want ^= row[file]
        assert tail[i] == want


@pytest.mark.parametrize("p, n, block, flip_at", [
    (FANO_PG, 1, 1, [0]),             # N=1: r = K, one demand, no head
    (TINY, 2, 4, [0, 3]),             # K <= r: the tail alone, one block
    (TD43, 2, 16, [80, 95, 4095]),    # 256 blocks: a block's first and last, the last demand
], ids=["one-file", "tail-only", "many-blocks"])
def test_table_check_catches_a_flip_at_each_block_edge(monkeypatch, p, n, block, flip_at):
    """An explicit exhaustive run with one bit of payload 1 flipped at the
    demands of the given product indices fails exactly the users in symbol
    1's columns at those demands, in the table route and cell by cell."""
    order = {d: i for i, d in enumerate(itertools.product(range(n), repeat=p.k))}
    real_transmit = sim._transmit

    def transmit(p, ints, demand, size, words=None):
        sent = real_transmit(p, ints, demand, size, words)
        return _flip(sent, p, 1, 0, size) if order[demand] in flip_at else sent

    monkeypatch.setattr(sim, "_transmit", transmit)
    listeners = sorted(set(p.symbol_cells[1][1]))
    demands = list(order)
    expect = [(demands[i], u) for i in flip_at for u in listeners]
    for loop in _loops(monkeypatch):
        stats = {}
        rep = verify_scheme(p, n, mode="exhaustive", stats=stats)
        assert rep.demands_tested == n ** p.k and rep.failures == expect
        if loop == "words":
            assert stats["truth"] == "table" and stats["table_bytes"] == block * p.s * 16
