"""Bit-exact simulation of the caching scheme a PDA induces.

Placement: user k caches packet row j of every file iff cell (j,k) is a star,
so caches are filled before any demand exists.  A placed cache is a view of
the library (`PlacedPackets`): it holds the user's star mask and copies no
packet until its first write or delete, which makes it a dict of its own.
Delivery: one XOR transmission per symbol, combining the demanded packets at
that symbol's cells.  Decoding peels each transmission with side packets that
condition C3 guarantees are cached, read from the user's own cache, so a
corrupt or missing packet is a failure that `verify_scheme` records.

A demand's S payloads take one form in this module: one int, or its bytes,
payload s in the slot of packet_size bytes at (s-1)*packet_size from the top.
There is one sender, `_transmit`, which `deliver` and `verify_scheme` call.
With the words table (`_words`: per user and file, that file's packets at the
user's non-star cells, each in its symbol's slot) the payloads are the XOR of
the K users' demanded words; without it `_pack_cells` XORs them cell by cell.
`verify_scheme` builds the table when it fits in MAX_WORDS_BYTES (K * N * S *
packet_size bytes); `deliver` sends one demand and never builds it.

There is one peel, `_peel`: one pass down the user's column, in row order,
reading a coded row's payload as its slot of the packed bytes, and a packet
from the cache, only if it is bytes of the transmissions' length under a
(file, row) key, as it reaches it.  `decode` peels the joined transmissions
once; `verify_scheme` peels on every demand for each user whose cache is
faulty.  By C3 every side packet a user needs sits in a starred row of its
own cache, so for a user whose cache holds the library's packets a coded row
decodes right iff its payload equals the library XOR over its symbol's
cells: `verify_scheme` checks the packed payloads once per demand against
that XOR, instead of peeling those users.  On an exhaustive run in the
words form the check folds the users through a tail table (`_tail_table`:
the XORs of the last r users' words over all their choices) and a head
partial (the first K - r users' XOR, once per block of the product), a
walk apart from the sender's K-word reduce, so a fault in `_transmit`
shows.  Sampled and adversarial runs check with the sender's reduce, and
the cells form with `_pack_cells`.  Every route reads the same `_words`
table or packer as the sender, so a fault in those is not caught (ROADMAP
item 1, still open).  Only a placed cache never written to or deleted from
counts as holding the library's packets; every other cache is peeled.
"""

import itertools
import random
import time
from collections import defaultdict
from collections.abc import MutableMapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import getitem, xor

from .pda import STAR, Pda, require_valid


class DecodeError(RuntimeError):
    """A packet the decoder needs is not in the user's cache."""


def _require_sizes(n, f, packet_size) -> None:
    """ValueError unless n, f and packet_size are each an int >= 1 (type(),
    so neither 2.0 nor True passes)."""
    if not all(type(x) is int and x >= 1 for x in (n, f, packet_size)):
        raise ValueError("need n, f, packet_size >= 1")


@dataclass(frozen=True)
class FileLibrary:
    n: int
    f: int
    packet_size: int
    packets: tuple[tuple[bytes, ...], ...]  # n files x f packets

    def __post_init__(self):
        # files of its own, which no caller's list can change under the caches
        object.__setattr__(self, "packets", tuple(map(tuple, self.packets)))
        n, f, size, packets = self.n, self.f, self.packet_size, self.packets
        _require_sizes(n, f, size)
        if len(packets) != n or any(len(file) != f for file in packets):
            raise ValueError(f"a library of {n} files needs {f} packets in each")
        if not all(type(pk) is bytes and len(pk) == size for file in packets for pk in file):
            raise ValueError(f"every packet must be {size} bytes")

    @classmethod
    def random(cls, n: int, f: int, packet_size: int = 16, seed: int = 0) -> "FileLibrary":
        _require_sizes(n, f, packet_size)  # before any draw
        rng = random.Random(seed)
        packets = tuple(tuple(rng.randbytes(packet_size) for _ in range(f))
                        for _ in range(n))
        return cls(n, f, packet_size, packets)

    def file(self, i: int) -> bytes:
        return b"".join(self.packets[i])

    # The library is immutable, so these cannot go stale.
    @cached_property
    def _row_keys(self) -> list[tuple]:
        """Per row j: the (file, j) keys, shared by every cache placed from
        this library."""
        return [tuple((i, j) for i in range(self.n)) for j in range(self.f)]

    @cached_property
    def _ints(self) -> list[list[int]]:
        """Per file i: its packets as ints, in row order."""
        return [[int.from_bytes(pk, "big") for pk in file] for file in self.packets]

    @cached_property
    def _row_ints(self) -> list[dict[int, int]]:
        """Per row j: file -> packet (i, j) as an int."""
        return [dict(enumerate(row)) for row in zip(*self._ints)]


class PlacedPackets(MutableMapping):
    """One user's cache as `place` fills it: (file, row) -> payload.

    Until its first write or delete it is a view of the library's packets in
    the user's starred rows, iterated row-major, then by file, over the
    library's shared key tuples, and holds only the star mask.  That first
    write or delete copies the view, in the same order, into a dict of its
    own, and from then on the cache is that dict, and no longer clean for
    `verify_scheme`, whatever it holds.  Keys are (file, row) int pairs."""

    __slots__ = ("_lib", "_mask", "_own")

    def __init__(self, lib: FileLibrary, mask: bytes):
        self._lib, self._mask = lib, mask  # mask[j] is 1 iff row j is starred
        self._own = None  # the cache's own dict, from its first write or delete on

    def _placed(self, key) -> bool:
        try:
            i, j = key
            return 0 <= i < self._lib.n and 0 <= j < len(self._mask) and self._mask[j] == 1
        except (TypeError, ValueError):
            return False

    def _edited(self) -> dict:
        """The cache's own dict, copied from the view on first use."""
        if self._own is None:
            packets = self._lib.packets
            self._own = {key: packets[key[0]][key[1]] for key in self}
        return self._own

    def __getitem__(self, key):
        if self._own is not None:
            return self._own[key]
        if not self._placed(key):
            raise KeyError(key)
        return self._lib.packets[key[0]][key[1]]

    def __setitem__(self, key, value) -> None:
        self._edited()[key] = value

    def __delitem__(self, key) -> None:
        if self._own is None and not self._placed(key):
            raise KeyError(key)  # nothing to delete, so nothing to copy
        del self._edited()[key]

    def __iter__(self):
        if self._own is not None:
            return iter(self._own)
        return chain.from_iterable(compress(self._lib._row_keys, self._mask))

    def __len__(self) -> int:
        return self._mask.count(1) * self._lib.n if self._own is None else len(self._own)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def _clean(packets, lib: FileLibrary, mask: bytes) -> bool:
    """Whether packets is lib's placement on mask, never written to or
    deleted from, which holds lib's starred packets by construction."""
    return (isinstance(packets, PlacedPackets) and packets._own is None
            and packets._lib is lib and packets._mask == mask)


def _int_rows(packets, size: int) -> dict[int, dict[int, int]]:
    """row -> file -> packet as an int, over a cache's mapping of (file, row)
    -> payload, leaving out each entry whose key is not a pair (as `_placed`
    does) or whose payload is not bytes or a bytearray of size bytes: the
    cache grouped by row, as `_peel` reads it.  An untouched `PlacedPackets`
    gives the library's own row dicts, shared and whole: read them only;
    none when the library's packets are not size bytes."""
    if isinstance(packets, PlacedPackets):
        if packets._own is None:
            lib, mask = packets._lib, packets._mask
            if lib.packet_size != size:
                return {}
            return {j: lib._row_ints[j] for j in compress(range(len(mask)), mask)}
        packets = packets._own
    by_row = defaultdict(dict)
    for key, pk in packets.items():
        if (isinstance(pk, (bytes, bytearray)) and len(pk) == size
                and isinstance(key, tuple) and len(key) == 2):
            by_row[key[1]][key[0]] = int.from_bytes(pk, "big")
    return by_row


@dataclass(frozen=True)
class CacheContents:
    """A user's cache.  `place` gives packets as a `PlacedPackets` view of the
    library, a dict of its own from its first write or delete on; any other
    mapping of (file index, row) -> payload is accepted too."""
    user: int
    packets: MutableMapping  # (file index, row) -> payload

    def size_bytes(self) -> int:
        """The bytes of every packet held: an untouched view's from the
        library's packet size, any other mapping's by summing the lengths of
        its bytes and bytearray payloads, the only ones `decode` reads."""
        packets = self.packets
        if isinstance(packets, PlacedPackets):
            if packets._own is None:
                return len(packets) * packets._lib.packet_size
            packets = packets._own
        return sum(len(pk) for pk in packets.values() if isinstance(pk, (bytes, bytearray)))


def place(p: Pda, lib: FileLibrary) -> list[CacheContents]:
    """Fill every user's cache: the starred rows of every file.

    Each cache is a `PlacedPackets` view of lib on the user's star mask, so
    nothing is copied until a cache's first write or delete."""
    if lib.f != p.f:
        raise ValueError(f"library has {lib.f} packets per file, array needs {p.f}")
    return [CacheContents(k, PlacedPackets(lib, mask)) for k, mask in enumerate(p.star_columns)]


def _words(p: Pda, lib: FileLibrary) -> list[list[int]]:
    """Per user k and file i, one int: file i's packets at k's non-star
    cells, each in its symbol's slot of packet_size bytes, symbol 1 in the
    top slot, zero bytes in every other slot.  By C3 no two of a column's
    cells share a symbol, so no slot is written twice."""
    size = lib.packet_size
    width = p.s * size
    slots = [[] for _ in range(p.k)]  # per user, (row, first byte of the slot)
    for s, (rows, cols) in p.symbol_cells.items():
        at = (s - 1) * size
        for j, k in zip(rows, cols):
            slots[k].append((j, at))
    words = []
    for mine in slots:
        row = []
        for file in lib.packets:
            buf = bytearray(width)
            for j, at in mine:
                buf[at:at + size] = file[j]
            row.append(int.from_bytes(buf, "big"))
        words.append(row)
    return words


def _pack_cells(p: Pda, ints: list[list[int]], demand: tuple, size: int) -> int:
    """The S payloads packed in one int, cell by cell: per symbol 1..S, the
    XOR of the demanded packets at its cells, appended as size bytes."""
    wanted = list(map(ints.__getitem__, demand))  # per user, its demanded file's packets
    packed = bytearray()
    for rows, cols in map(p.symbol_cells.get, range(1, p.s + 1), repeat(((), ()))):
        acc = 0
        for j, k in zip(rows, cols):
            acc ^= wanted[k][j]
        packed += acc.to_bytes(size, "big")
    return int.from_bytes(packed, "big")


def _transmit(p: Pda, ints: list[list[int]], demand: tuple, size: int,
              words: list[list[int]] | None = None) -> int:
    """The S payloads, per symbol the XOR of the demanded packets, packed in
    one int with symbol s in bytes (s-1)*size onward from the top: from the
    words table when given, K XORs in C, otherwise cell by cell."""
    if words is not None:
        return reduce(xor, map(getitem, words, demand))
    return _pack_cells(p, ints, demand, size)


def _tail_table(words: list[list[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """The head users' words, and the tail table: for each choice of files of
    the last r users, in product order (the last user's file fastest), the
    XOR of their words.  r is the most users whose table holds no more
    entries than the words table (N^r <= K * N), all K when N is 1.  The
    table doubles in N per user, one comprehension each."""
    k, r = len(words), 0
    while r < k and n ** (r + 1) <= k * n:
        r += 1
    tail = [0]
    for row in words[k - r:]:
        tail = [t ^ w for t in tail for w in row]
    return words[:k - r], tail


def _table_truths(heads: list[list[int]], tail: list[int], demands):
    """Each demand of the exhaustive product, drawn from demands in its
    order, with its packed payloads as head ^ tail[i]: a walk apart from
    `_transmit`'s K-word reduce.  The product runs through the tail's
    len(tail) choices once per choice of the head users' files, so a block
    of len(tail) demands shares one head, the XOR of the head users' words,
    refreshed from the block's first demand."""
    demands = iter(demands)
    for first in demands:
        head = reduce(xor, map(getitem, heads, first), 0)
        # tail first: the block ends without drawing the next block's first demand
        for t, demand in zip(tail, chain((first,), demands)):
            yield demand, head ^ t


def _unusable(p: Pda, packets, by_row: dict, size: int, user: int,
              f: int, j: int, k: int) -> DecodeError:
    """The error for packet (f, j), read for cell (j, k) by `_peel`."""
    pk = packets.get((f, j))
    if isinstance(pk, (bytes, bytearray)):  # held, but left out of by_row for its length
        why = f"is {len(pk)} bytes, not the {size} bytes of a transmission"
    elif pk is not None:  # held, but left out of by_row for its type
        why = f"is a {type(pk).__name__}, not bytes"
    elif p.grid[j][user] != STAR:  # the crossing cell of a side packet, a star by C3
        why = "missing from cache; condition C3 is broken"
    elif k == user or any(f in got for got in by_row.values()):  # own cell, or a lost packet
        why = "missing from cache"
    else:  # a side packet of a file no row of the cache holds
        why = f"missing from cache; the cache holds no packet of file {f}"
    return DecodeError(f"user {user}: packet ({f},{j}) for cell ({j},{k}) {why}")


def _peel(p: Pda, packets, by_row: dict, user: int, sent: bytes, demand: tuple,
          size: int) -> list[int]:
    """The user's demanded file as ints, in row order, from one pass down its
    column.  A starred row j is the cached packet (demand[user], j); a coded
    row j with symbol s is payload s, the slot of size bytes at (s-1)*size in
    the packed payloads sent, XOR, over each other cell (j2, k2) of s, the
    cached packet (demand[k2], j2).  Cached packets come from by_row, the
    cache (packets) as `_int_rows` groups it; DecodeError names the first,
    in row order, that by_row lacks."""
    cells, none, want, out = p.symbol_cells, {}, demand[user], []
    for j, row in enumerate(p.grid):
        v = row[user]
        if v == STAR:
            acc = by_row.get(j, none).get(want)
            if acc is None:
                raise _unusable(p, packets, by_row, size, user, want, j, user)
        else:
            acc = int.from_bytes(sent[(v - 1) * size:v * size], "big")
            for j2, k2 in zip(*cells[v]):
                if j2 == j and k2 == user:
                    continue
                pk = by_row.get(j2, none).get(demand[k2])
                if pk is None:
                    raise _unusable(p, packets, by_row, size, user, demand[k2], j2, k2)
                acc ^= pk
        out.append(acc)
    return out


def _demand_of(p: Pda, demand) -> tuple:
    """demand as a tuple, or ValueError unless it has K entries, each an int."""
    demand = tuple(demand)
    if len(demand) != p.k:
        raise ValueError(f"demand vector needs {p.k} entries")
    if not set(map(type, demand)) <= {int}:  # type(), in C: True is not file 1
        bad = next(d for d in demand if type(d) is not int)
        raise ValueError(f"demand entry {bad!r} is not an int")
    return demand


def deliver(p: Pda, lib: FileLibrary, demand) -> list[bytes]:
    """The S broadcast payloads for a demand vector (file index per user)."""
    demand = _demand_of(p, demand)
    if demand and (min(demand) < 0 or max(demand) >= lib.n):
        raise ValueError("demand entry outside the library")
    size = lib.packet_size
    raw = _transmit(p, lib._ints, demand, size).to_bytes(p.s * size, "big")
    return [raw[at:at + size] for at in range(0, p.s * size, size)]


def decode(p: Pda, cache: CacheContents, transmissions: list[bytes],
           demand, user: int) -> bytes:
    """Reassemble the user's demanded file from cache plus transmissions.

    Raises ValueError unless user is an int naming a column of p (True is
    not user 1), demand has K int entries, there are S transmissions,
    bytes-like and of one length, and no entry is negative, and
    DecodeError naming the first packet, in row order, that the user's
    cache lacks or holds as other than bytes of a transmission's length;
    an entry whose key is not a (file, row) pair is never read.  A placed
    cache never written to holds the library's packets, so none when those
    are of another length."""
    if type(user) is not int:
        raise ValueError(f"user {user!r} is not an int")
    if not 0 <= user < p.k:
        raise ValueError(f"user {user} outside 0..{p.k - 1}")
    demand = _demand_of(p, demand)
    if len(transmissions) != p.s or not transmissions:
        raise ValueError(f"decoding needs the array's S={p.s} transmissions, "
                         f"got {len(transmissions)}")
    try:
        sent = b"".join(transmissions)
    except TypeError as exc:
        raise ValueError(f"transmissions must be bytes-like: {exc}") from None
    sizes = set(map(len, transmissions))
    if len(sizes) > 1:
        raise ValueError(f"transmissions differ in length: {min(sizes)} to {max(sizes)} bytes")
    if demand and min(demand) < 0:
        raise ValueError("demand entry outside the library")
    size = sizes.pop()
    packets = cache.packets
    rows = _peel(p, packets, _int_rows(packets, size), user, sent, demand, size)
    return b"".join(x.to_bytes(size, "big") for x in rows)


@dataclass
class SimReport:
    pda: tuple[int, int, int, int]  # (K, F, Q, S)
    mode: str
    demands_tested: int
    failures: list
    rate: Fraction
    bytes_per_demand: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        k, f, q, s = self.pda
        return {
            "pda": {"K": k, "F": f, "Q": q, "S": s},
            "mode": self.mode,
            "demands_tested": self.demands_tested,
            "failures": [{"demand": list(d), "user": u} for d, u in self.failures],
            "rate": str(self.rate),
            "bytes": self.bytes_per_demand,
        }


MAX_EXHAUSTIVE = 1 << 20  # most demand vectors an explicit exhaustive run takes
# Largest words table (K * N * S * packet_size bytes) verify_scheme builds: a
# small array's table is at most a few hundred KB, while K=651 with N=4 would
# need 27 MB, near the whole process's resident memory, so it runs cell by cell.
MAX_WORDS_BYTES = 1 << 20
# Most 32-bit words one getrandbits call draws for sampled demands: 256 KB
# of int and of bytes, however many samples x K values are wanted.
DRAW_BATCH = 1 << 16


def _demand_set(p: Pda, n: int, mode: str, samples: int, rng: random.Random):
    """Resolve the demand vectors to run, as an iterable to draw once, and
    the mode label actually used.  Exhaustive mode draws them lazily."""
    if samples < 0:  # else the bulk route draws none and the per-draw route fails in islice
        raise ValueError(f"samples must be at least 0, not {samples}")
    exhaustive_size = n ** p.k
    if mode == "auto":
        mode = "exhaustive" if exhaustive_size <= 4096 else "sampled"
    if mode == "exhaustive":
        if exhaustive_size > MAX_EXHAUSTIVE:
            raise ValueError(f"exhaustive mode needs {n}^{p.k} demand vectors, more than "
                             f"the limit of 2^20; sample them or use fewer files")
        return itertools.product(range(n), repeat=p.k), "exhaustive"
    seen = dict.fromkeys((i,) * p.k for i in range(n))  # ordered, without repeats
    if n >= p.k:
        seen.setdefault(tuple(range(p.k)), None)  # already listed when K=1
    if mode == "adversarial":
        return list(seen), "adversarial"
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:  # no draw is ever below n, so neither route would end
        raise ValueError(f"sampling demands needs at least one file, not {n}")
    # rng.randrange(n)'s own stream: it takes getrandbits of n's bit length
    # until one is below n, and getrandbits(b) for b <= 32 is the top b bits
    # of one 32-bit Mersenne Twister word.  Below 256 the words come in bulk:
    # getrandbits(32 * m) is the next m words, the first in the low 32 bits
    # (CPython fills the int from its least significant word up), so the
    # little-endian bytes hold each word's top byte at 3, 7, 11, ...  One
    # translate keeps the top bits of those bytes and deletes the draws >= n.
    # A batch takes no more words than values still wanted, so the stream
    # stops where the last randrange would.
    total = samples * p.k
    if n < 256:
        shift = 8 - n.bit_length()
        table = bytes(b >> shift for b in range(256))
        rejected = bytes(b for b in range(256) if b >> shift >= n)
        values = bytearray()
        while len(values) < total:
            m = min(total - len(values), DRAW_BATCH)
            top = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
            values += top.translate(table, rejected)
    else:
        draws = filter(n.__gt__, map(rng.getrandbits, itertools.repeat(n.bit_length())))
        values = list(itertools.islice(draws, total))
    # demand i is values[i*K:(i+1)*K]; a repeat keeps its first place
    seen.update(dict.fromkeys(zip(*[iter(values)] * p.k)))
    return list(seen), "sampled"


def verify_scheme(p: Pda, n_files: int, mode: str = "auto", samples: int = 200,
                  seed: int = 1, packet_size: int = 16,
                  stats: dict | None = None) -> SimReport:
    """Run the full scheme over a demand set and report decode failures.

    auto mode sweeps every demand vector when there are at most 4096 of them,
    otherwise runs seeded samples plus the adversarial demands (all users
    alike, and all distinct when the library allows it).  An explicit
    exhaustive run takes at most 2^20 (MAX_EXHAUSTIVE) demand vectors and
    raises ValueError beyond that, before building any; samples < 0 raises
    it in every mode.  A wrong or undecodable file is a (demand, user)
    failure, listed demand-major.

    Each demand is transmitted once, and its payloads are not kept; the
    exhaustive set is drawn lazily, never held.  An exhaustive run in the
    words form holds the tail table (stats' table_bytes, never more than
    the words table).  A user is clean when its cache is the
    `PlacedPackets` view `place` gave it, never written to or deleted from,
    so it holds every starred packet of every file as the library does.
    Any other cache, an edited view or another mapping, is peeled, whatever
    it holds.
    By C3 each side packet a user needs sits in one of its starred rows, so
    a clean user decodes coded row j with symbol s right iff payload s
    equals the library XOR over all of s's cells, and a wrong payload fails
    every clean user in its columns.  Clean users are never peeled.  Every
    other user's cache is grouped by row once, and `_peel` runs on it for
    every demand: it is exact for any cache.

    The demand loop has two forms with the same reports.  When the words
    table (`_words`: K * N * S * packet_size bytes) fits in MAX_WORDS_BYTES,
    it is built once, and the sender takes a demand's packed payloads as K
    big-int XORs of the users' demanded words; otherwise it runs the one
    cell-by-cell packer, `_pack_cells`.  The check derives the payloads by
    one of three routes (stats' truth).  An exhaustive run in the words
    form folds users through a tail table and a head partial ("table"):
    the table holds, in product order, the XOR of the last r users' words
    for each of their N^r choices, r the most users whose table has no
    more entries than the words table (N^r <= K * N), and a head, the XOR
    of the first K - r users' words, is taken once per block of N^r
    demands, in lockstep with the one lazy product, so a demand costs one
    XOR.  That is a walk apart from the sender's reduce, so a fault in
    `_transmit` shows; it reads the same `_words` table, so a fault in the
    table does not (ROADMAP item 1, still open).  Sampled and adversarial
    runs in the words form take the sender's reduce again ("words"), and
    the cells form `_pack_cells` again ("cells"): those catch a fault in
    `_transmit`'s dispatch only.  The S payloads are compared as one int,
    and only a mismatch is split into its symbols' slots.  Only when some
    cache is faulty does the sent int become bytes, once per demand, whose
    slots `_peel` reads.

    stats, when a dict, receives: setup_s and loop_s (seconds before the
    first demand and in the demand loop), draw_s (the part of setup_s spent
    resolving the demand set: the sampled draws, about 0 for the lazy
    exhaustive product), demands_per_s, users_peeled (the users whose cache
    is not clean), loop ("words" or "cells"), words_bytes (the table's
    size, built or not), truth ("table", "words" or "cells": the check's
    route) and table_bytes (the tail table's size, 0 when none is built).
    None costs nothing.
    """
    if stats is not None:
        t0 = time.perf_counter()
    require_valid(p, "refusing to simulate an invalid PDA")
    rng = random.Random(seed)
    lib = FileLibrary.random(n_files, p.f, packet_size, seed=rng.randrange(2 ** 32))
    if stats is not None:
        t_draw = time.perf_counter()
    demands, mode_used = _demand_set(p, n_files, mode, samples, rng)
    if stats is not None:
        draw_s = time.perf_counter() - t_draw
    ints = lib._ints
    width = p.s * packet_size
    words_bytes = p.k * n_files * width
    words = _words(p, lib) if words_bytes <= MAX_WORDS_BYTES else None
    masks = p.star_columns
    faulty = []  # (user, its cache, grouped by row) for each user whose cache is not clean
    for user, cache in enumerate(place(p, lib)):
        packets = cache.packets
        if not _clean(packets, lib, masks[user]):
            faulty.append((user, packets, _int_rows(packets, packet_size)))
    not_clean = {user for user, _, _ in faulty}
    # checked: each demand with its payloads as the check derives them
    table_bytes = 0
    if words is None:
        route = "cells"
        checked = ((d, _pack_cells(p, ints, d, packet_size)) for d in demands)
    elif mode_used == "exhaustive":
        route = "table"
        heads, tail = _tail_table(words, n_files)
        table_bytes = len(tail) * width
        checked = _table_truths(heads, tail, demands)
    else:
        route = "words"
        checked = ((d, reduce(xor, map(getitem, words, d))) for d in demands)
    failures, tested = [], 0
    if stats is not None:
        t1 = time.perf_counter()
    for demand, truth in checked:
        tested += 1
        sent = _transmit(p, ints, demand, packet_size, words)
        if sent == truth and not faulty:
            continue
        failed = set()
        if sent != truth:  # fail the clean users in the columns of each symbol whose slot differs
            diff = (sent ^ truth).to_bytes(width, "big")
            for s, at in enumerate(range(0, width, packet_size), 1):
                if any(diff[at:at + packet_size]):
                    failed.update(k for k in p.symbol_cells[s][1] if k not in not_clean)
        if faulty:
            raw = sent.to_bytes(width, "big")
            for user, packets, by_row in faulty:
                try:
                    right = _peel(p, packets, by_row, user, raw, demand,
                                  packet_size) == ints[demand[user]]
                except DecodeError:
                    right = False
                if not right:
                    failed.add(user)
        failures.extend((demand, user) for user in sorted(failed))
    if stats is not None:
        t2 = time.perf_counter()
        stats.update(setup_s=t1 - t0, draw_s=draw_s, loop_s=t2 - t1,
                     demands_per_s=tested / (t2 - t1) if t2 > t1 else 0.0,
                     users_peeled=len(faulty), loop="cells" if words is None else "words",
                     words_bytes=words_bytes, truth=route, table_bytes=table_bytes)
    return SimReport((p.k, p.f, p.q, p.s), mode_used, tested, failures,
                     Fraction(p.s, p.f), p.s * packet_size)
