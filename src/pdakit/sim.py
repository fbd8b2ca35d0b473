"""Bit-exact simulation of the caching scheme a PDA induces.

Placement: user k caches packet row j of every file iff cell (j,k) is a star,
so caches are filled before any demand exists.  Delivery: one XOR transmission
per symbol, combining the demanded packets at that symbol's cells.  Decoding
peels each transmission with side packets that condition C3 guarantees are
cached, read from the user's own cache, so a corrupt or missing packet is a
failure that `verify_scheme` records.

`decode` peels one user's rows from that user's cache.  `verify_scheme`
peels only the users whose caches are faulty, on the same per-user plan.  By
C3 every side packet a user needs sits in a starred row of its own cache, so
for a user whose cache holds the library's packets a coded row decodes right
iff its payload equals the library XOR over its symbol's cells, whoever the
user is: `verify_scheme` checks each payload once per demand instead.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .pda import STAR, Pda, require_valid


class DecodeError(RuntimeError):
    """A packet the decoder needs is not in the user's cache."""


@dataclass(frozen=True)
class FileLibrary:
    n: int
    f: int
    packet_size: int
    packets: tuple[tuple[bytes, ...], ...]  # n files x f packets

    @classmethod
    def random(cls, n: int, f: int, packet_size: int = 16, seed: int = 0) -> "FileLibrary":
        if n < 1 or f < 1 or packet_size < 1:
            raise ValueError("need n, f, packet_size >= 1")
        rng = random.Random(seed)
        packets = tuple(tuple(rng.randbytes(packet_size) for _ in range(f))
                        for _ in range(n))
        return cls(n, f, packet_size, packets)

    def file(self, i: int) -> bytes:
        return b"".join(self.packets[i])


@dataclass(frozen=True)
class CacheContents:
    user: int
    packets: dict  # (file index, row) -> payload

    def size_bytes(self) -> int:
        return sum(len(v) for v in self.packets.values())


def place(p: Pda, lib: FileLibrary) -> list[CacheContents]:
    """Fill every user's cache: the starred rows of every file."""
    if lib.f != p.f:
        raise ValueError(f"library has {lib.f} packets per file, array needs {p.f}")
    # One (file, row) key per packet, shared by every cache that holds it.
    entries = [[((i, j), lib.packets[i][j]) for i in range(lib.n)] for j in range(p.f)]
    grid = p.grid
    return [CacheContents(k, dict(itertools.chain.from_iterable(
                entries[j] for j, row in enumerate(grid) if row[k] == STAR)))
            for k in range(p.k)]


def _packet_ints(lib: FileLibrary) -> list[list[int]]:
    return [[int.from_bytes(pk, "big") for pk in file] for file in lib.packets]


def _transmit(p: Pda, ints: list[list[int]], demand: tuple) -> list[int]:
    """The S payloads as ints: per symbol, the XOR of the demanded packets."""
    cells = p.symbol_cells
    out = []
    for s in range(1, p.s + 1):
        acc = 0
        for j, k in cells.get(s, ()):
            acc ^= ints[demand[k]][j]
        out.append(acc)
    return out


def _plan(p: Pda, cache: CacheContents, user: int):
    """The user's decode plan, every packet read from the cache as an int.

    Starred rows: star_rows lists them, and stars[i] holds the cached packets
    of file i at those rows (None where one is missing), so what they decode
    to depends on the demanded file alone.  Coded rows: per non-star row j,
    in order, (j, s, side) with s the symbol index and side each other cell
    (j2, k2) of the symbol as (j2, k2, the cached packets of row j2 by file);
    row j is transmission s XOR file demand[k2] row j2 over the side.
    """
    by_row: dict[int, dict[int, int]] = {}  # row -> file -> packet
    for (i, j), pk in cache.packets.items():
        got = by_row.get(j)  # not setdefault, which builds a dict per packet
        if got is None:
            got = by_row[j] = {}
        got[i] = int.from_bytes(pk, "big")
    none: dict[int, int] = {}
    star_rows, coded = [], []
    for j, row in enumerate(p.grid):
        v = row[user]
        if v == STAR:
            star_rows.append(j)
        else:
            coded.append((j, v - 1, [(j2, k2, by_row.get(j2, none))
                                     for j2, k2 in p.symbol_cells[v] if j2 != j or k2 != user]))
    cached = [by_row.get(j, none) for j in star_rows]
    stars = {i: [got.get(i) for got in cached] for i in set().union(*cached)}
    return star_rows, stars, coded


def deliver(p: Pda, lib: FileLibrary, demand) -> list[bytes]:
    """The S broadcast payloads for a demand vector (file index per user)."""
    demand = tuple(demand)
    if len(demand) != p.k:
        raise ValueError(f"demand vector needs {p.k} entries")
    if any(not 0 <= d < lib.n for d in demand):
        raise ValueError("demand entry outside the library")
    return [x.to_bytes(lib.packet_size, "big") for x in _transmit(p, _packet_ints(lib), demand)]


def decode(p: Pda, cache: CacheContents, transmissions: list[bytes],
           demand, user: int) -> bytes:
    """Reassemble the user's demanded file from cache plus transmissions.

    Raises DecodeError naming the first packet, in row order, that the
    user's cache lacks."""
    tx = [int.from_bytes(t, "big") for t in transmissions]
    size = len(transmissions[0])
    demand = tuple(demand)
    want = demand[user]
    star_rows, stars, coded = _plan(p, cache, user)
    rows = dict(zip(star_rows, stars.get(want, ())))
    peel = {j: (s, side) for j, s, side in coded}
    out = []
    for j in range(p.f):
        if j in peel:
            s, side = peel[j]
            acc = tx[s]
            for j2, k2, pks in side:
                if demand[k2] not in pks:
                    raise DecodeError(f"user {user}: packet ({demand[k2]},{j2}) for cell "
                                      f"({j2},{k2}) missing from cache; condition C3 is broken")
                acc ^= pks[demand[k2]]
        else:
            acc = rows.get(j)
            if acc is None:
                raise DecodeError(f"user {user}: packet ({want},{j}) for cell ({j},{user}) "
                                  f"missing from cache")
        out.append(acc)
    return b"".join(x.to_bytes(size, "big") for x in out)


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


def _demand_set(p: Pda, n: int, mode: str, samples: int, rng: random.Random):
    """Resolve the demand vectors to run, as an iterable to draw once, and
    the mode label actually used.  Exhaustive mode draws them lazily."""
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
    for _ in range(samples):
        seen.setdefault(tuple(rng.randrange(n) for _ in range(p.k)), None)
    return list(seen), "sampled"


def verify_scheme(p: Pda, n_files: int, mode: str = "auto", samples: int = 200,
                  seed: int = 1, packet_size: int = 16) -> SimReport:
    """Run the full scheme over a demand set and report decode failures.

    auto mode sweeps every demand vector when there are at most 4096 of them,
    otherwise runs seeded samples plus the adversarial demands (all users
    alike, and all distinct when the library allows it).  An explicit
    exhaustive run takes at most 2^20 (MAX_EXHAUSTIVE) demand vectors and
    raises ValueError beyond that, before building any.  A wrong or
    undecodable file is a (demand, user) failure, listed demand-major.

    Demands are drawn one at a time and each is transmitted once, so neither
    the demand set nor its payloads are held.  A user is clean when every
    starred packet of every file in its cache equals the library.  By C3
    each side packet a user needs sits in one of its starred rows, so a clean
    user decodes coded row j with symbol s right iff payload s equals the
    library XOR over all of s's cells: each payload is checked once per
    demand and a wrong one fails every clean user in its columns.  Every
    other user is peeled row by row from its own cache.
    """
    require_valid(p, "refusing to simulate an invalid PDA")
    rng = random.Random(seed)
    lib = FileLibrary.random(n_files, p.f, packet_size, seed=rng.randrange(2 ** 32))
    demands, mode_used = _demand_set(p, n_files, mode, samples, rng)
    ints = _packet_ints(lib)
    grid = p.grid
    keys = [[(i, j) for j in range(p.f)] for i in range(n_files)]  # (file, row), built once
    faulty = []  # (user, star_ok, coded) for each user whose cache is not clean
    for user, cache in enumerate(place(p, lib)):
        star_rows = [j for j, row in enumerate(grid) if row[user] == STAR]
        cached = cache.packets.get
        if all([*map(cached, map(key.__getitem__, star_rows))]
               == [*map(file.__getitem__, star_rows)] for key, file in zip(keys, lib.packets)):
            continue  # clean; compared as bytes, so no packet is converted to an int
        star_rows, stars, coded = _plan(p, cache, user)
        # Starred rows decode to the cached packets whatever the others want:
        # check them once per file.  A missing packet (None) is never equal.
        star_ok = [stars.get(i, [None] * len(star_rows)) == [file[j] for j in star_rows]
                   for i, file in enumerate(ints)]
        faulty.append((user, star_ok, coded))
    not_clean = {user for user, _, _ in faulty}
    cells_of = p.symbol_cells
    symbols = [(cells_of[s], [k for _, k in cells_of[s] if k not in not_clean])
               for s in range(1, p.s + 1)]  # (cells, clean users in its columns)
    failures, tested = [], 0
    for demand in demands:
        tested += 1
        tx = _transmit(p, ints, demand)
        failed = set()
        for acc, (cells, clean) in zip(tx, symbols):
            for j, k in cells:
                acc ^= ints[demand[k]][j]
            if acc:  # payload differs from the library XOR over its cells
                failed.update(clean)
        for user, star_ok, coded in faulty:
            want = demand[user]
            good = star_ok[want]
            if good:
                truth = ints[want]
                try:
                    for j, s, side in coded:
                        acc = tx[s]
                        for _, k2, pks in side:
                            acc ^= pks[demand[k2]]
                        if acc != truth[j]:
                            good = False
                            break
                except KeyError:  # a side packet missing from the cache
                    good = False
            if not good:
                failed.add(user)
        failures.extend((demand, user) for user in sorted(failed))
    return SimReport((p.k, p.f, p.q, p.s), mode_used, tested, failures,
                     Fraction(p.s, p.f), p.s * packet_size)
