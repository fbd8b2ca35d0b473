"""Bit-exact simulation of the caching scheme a PDA induces.

Placement: user k caches packet row j of every file iff cell (j,k) is a star,
so caches are filled before any demand exists.  Delivery: one XOR transmission
per symbol, combining the demanded packets at that symbol's cells.  Decoding
peels a transmission with side packets that condition C3 guarantees are
cached; the lookup is instrumented, so a structural gap raises instead of
silently reading garbage.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .pda import STAR, Pda, require_valid


class DecodeError(RuntimeError):
    """A needed side packet was not in cache: the array breaks C3."""


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


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


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


def deliver(p: Pda, lib: FileLibrary, demand) -> list[bytes]:
    """The S broadcast payloads for a demand vector (file index per user)."""
    demand = tuple(demand)
    if len(demand) != p.k:
        raise ValueError(f"demand vector needs {p.k} entries")
    if any(not 0 <= d < lib.n for d in demand):
        raise ValueError("demand entry outside the library")
    zero = bytes(lib.packet_size)
    log = []
    cells = p.symbol_cells
    for s in range(1, p.s + 1):
        payload = zero
        for j, k in cells.get(s, ()):
            payload = _xor(payload, lib.packets[demand[k]][j])
        log.append(payload)
    return log


def decode(p: Pda, cache: CacheContents, transmissions: list[bytes],
           demand, user: int) -> bytes:
    """Reassemble the user's demanded file from cache plus transmissions."""
    demand = tuple(demand)
    want = demand[user]
    cells = p.symbol_cells
    parts = []
    for j in range(p.f):
        v = p.grid[j][user]
        if v == STAR:
            try:
                parts.append(cache.packets[(want, j)])
            except KeyError:
                raise DecodeError(f"user {user}: cached packet ({want},{j}) missing") from None
        else:
            payload = transmissions[v - 1]
            for j2, k2 in cells[v]:
                if (j2, k2) == (j, user):
                    continue
                try:
                    payload = _xor(payload, cache.packets[(demand[k2], j2)])
                except KeyError:
                    raise DecodeError(
                        f"user {user}, symbol {v}: side packet ({demand[k2]},{j2}) "
                        f"not cached; condition C3 is broken at cell ({j2},{k2})") from None
            parts.append(payload)
    return b"".join(parts)


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
    alike, and all distinct when the library allows it).
    """
    require_valid(p, "refusing to simulate an invalid PDA")
    rng = random.Random(seed)
    lib = FileLibrary.random(n_files, p.f, packet_size, seed=rng.randrange(2 ** 32))
    demands, mode_used = _demand_set(p, n_files, mode, samples, rng)

    # int-valued packets for cheap XOR in the inner loop
    ints = [[int.from_bytes(pk, "big") for pk in file] for file in lib.packets]
    grid, cells = p.grid, p.symbol_cells
    star_rows = [[j for j in range(p.f) if grid[j][k] == STAR] for k in range(p.k)]
    coded_rows = [[(j, grid[j][k]) for j in range(p.f) if grid[j][k] != STAR]
                  for k in range(p.k)]

    # caches hold exact library slices; checked here once, then read directly
    caches = place(p, lib)
    for k in range(p.k):
        expect = {(i, j): lib.packets[i][j] for i in range(n_files) for j in star_rows[k]}
        if caches[k].packets != expect:
            raise AssertionError(f"placement for user {k} does not match its star rows")

    failures = []
    for demand in demands:
        log = [0] * p.s
        for s in range(1, p.s + 1):
            acc = 0
            for j, k in cells[s]:
                acc ^= ints[demand[k]][j]
            log[s - 1] = acc
        for user, want in enumerate(demand):
            good = True
            for j, sym in coded_rows[user]:
                acc = log[sym - 1]
                for j2, k2 in cells[sym]:
                    if (j2, k2) == (j, user):
                        continue
                    if grid[j2][user] != STAR:
                        raise DecodeError(
                            f"user {user}, symbol {sym}: side packet row {j2} is not "
                            f"a starred row; condition C3 is broken")
                    acc ^= ints[demand[k2]][j2]
                if acc != ints[want][j]:
                    good = False
                    break
            if not good:
                failures.append((demand, user))
    return SimReport((p.k, p.f, p.q, p.s), mode_used, len(demands), failures,
                     Fraction(p.s, p.f), p.s * packet_size)
