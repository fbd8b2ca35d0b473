"""Bit-exact simulation of the caching scheme a PDA induces.

Placement: user k caches packet row j of every file iff cell (j,k) is a star,
so caches are filled before any demand exists.  Delivery: one XOR transmission
per symbol, combining the demanded packets at that symbol's cells.  Decoding
peels each transmission with side packets that condition C3 guarantees are
cached, read from the user's own cache, so a corrupt or missing packet is a
failure that `verify_scheme` records.
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
    caches = []
    for k in range(p.k):
        stash = {}
        for j, row in enumerate(p.grid):
            if row[k] == STAR:
                for i in range(lib.n):
                    stash[(i, j)] = lib.packets[i][j]
        caches.append(CacheContents(k, stash))
    return caches


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


def _row_decoder(p: Pda, cache: CacheContents, user: int):
    """rows(transmissions, demand) -> the user's demanded rows as ints, all
    packets read from the cache: a starred row directly, a coded row by peeling
    its transmission with file demand[k2] row j2 for each other cell (j2, k2)."""
    by_row: dict[int, dict[int, int]] = {}  # row -> file -> packet
    for (i, j), pk in cache.packets.items():
        by_row.setdefault(j, {})[i] = int.from_bytes(pk, "big")
    grid, cells = p.grid, p.symbol_cells
    plan = []
    for j, row in enumerate(grid):
        v = row[user]
        side = by_row.get(j, {}) if v == STAR else [
            (j2, k2, by_row.get(j2, {})) for j2, k2 in cells[v] if (j2, k2) != (j, user)]
        plan.append((j, v, side))

    def rows(tx: list[int], demand: tuple) -> list[int]:
        want = demand[user]
        out = []
        try:
            for j, v, side in plan:
                if v == STAR:
                    out.append(side[want])
                else:
                    acc = tx[v - 1]
                    for j2, k2, pks in side:
                        acc ^= pks[demand[k2]]
                    out.append(acc)
        except KeyError:
            i, j, k = (want, j, user) if v == STAR else (demand[k2], j2, k2)
            gap = "" if grid[j][user] == STAR else "; condition C3 is broken"
            raise DecodeError(f"user {user}: packet ({i},{j}) for cell ({j},{k}) "
                              f"missing from cache{gap}") from None
        return out
    return rows


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
    """Reassemble the user's demanded file from cache plus transmissions."""
    tx = [int.from_bytes(t, "big") for t in transmissions]
    size = len(transmissions[0])
    rows = _row_decoder(p, cache, user)(tx, tuple(demand))
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


def _demand_set(p: Pda, n: int, mode: str, samples: int, rng: random.Random):
    """Resolve the demand vectors to run and the mode label actually used."""
    exhaustive_size = n ** p.k
    if mode == "auto":
        mode = "exhaustive" if exhaustive_size <= 4096 else "sampled"
    if mode == "exhaustive":
        return list(itertools.product(range(n), repeat=p.k)), "exhaustive"
    adversarial = [(i,) * p.k for i in range(n)]
    if n >= p.k:
        adversarial.append(tuple(range(p.k)))
    if mode == "adversarial":
        return adversarial, "adversarial"
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    seen = dict.fromkeys(adversarial)
    for _ in range(samples):
        seen.setdefault(tuple(rng.randrange(n) for _ in range(p.k)), None)
    return list(seen), "sampled"


def verify_scheme(p: Pda, n_files: int, mode: str = "auto", samples: int = 200,
                  seed: int = 1, packet_size: int = 16) -> SimReport:
    """Run the full scheme over a demand set and report decode failures.

    auto mode sweeps every demand vector when there are at most 4096 of them,
    otherwise runs seeded samples plus the adversarial demands (all users
    alike, and all distinct when the library allows it).  A wrong or
    undecodable file is a (demand, user) failure, listed demand-major.
    """
    require_valid(p, "refusing to simulate an invalid PDA")
    rng = random.Random(seed)
    lib = FileLibrary.random(n_files, p.f, packet_size, seed=rng.randrange(2 ** 32))
    demands, mode_used = _demand_set(p, n_files, mode, samples, rng)
    ints = _packet_ints(lib)
    sent = [_transmit(p, ints, demand) for demand in demands]
    bad = []
    for user, cache in enumerate(place(p, lib)):
        rows = _row_decoder(p, cache, user)  # one user's plan alive at a time
        for d, demand in enumerate(demands):
            try:
                good = rows(sent[d], demand) == ints[demand[user]]
            except DecodeError:
                good = False
            if not good:
                bad.append((d, user))
    failures = [(demands[d], user) for d, user in sorted(bad)]
    return SimReport((p.k, p.f, p.q, p.s), mode_used, len(demands), failures,
                     Fraction(p.s, p.f), p.s * packet_size)
