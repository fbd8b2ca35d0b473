"""Block designs: configurations and t-designs, with exhaustive certification.

Points are integers 0..v-1.  Blocks are kept canonical: sorted within each
block, block list sorted lexicographically (a multiset, so duplicates survive
canonicalization and get caught by the certifiers).
"""

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .gf import FieldSpec


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certification scan: ok, or the first violated condition."""

    ok: bool
    condition: str = ""
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Design:
    v: int
    blocks: tuple[tuple[int, ...], ...]
    # optional declared parameters
    t_params: tuple[int, int, int, int] | None = None       # (t, v, k, lambda)
    config_params: tuple[int, int, int, int] | None = None  # (v, r, b, k)

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("v must be positive")
        canon = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        for b in canon:
            if not b:
                raise ValueError("empty block")
            if len(set(b)) != len(b):
                raise ValueError(f"repeated point within block {b}")
            if b[0] < 0 or b[-1] >= self.v:
                raise ValueError(f"block {b} uses points outside 0..{self.v - 1}")
        object.__setattr__(self, "blocks", canon)
        # tuples of its own, so that a spec holding the design hashes
        for name in ("t_params", "config_params"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def b(self) -> int:
        return len(self.blocks)


def lambda_s(t: int, v: int, k: int, lam: int, s: int) -> int:
    """How often each s-subset is covered in a t-(v,k,lam) design; errors if fractional."""
    if not 0 <= s <= t <= k <= v:
        raise ValueError(f"need 0 <= s <= t <= k <= v, got s={s}, t={t}, k={k}, v={v}")
    val = Fraction(lam * comb(v - s, t - s), comb(k - s, t - s))
    if val.denominator != 1:
        raise ValueError(f"lambda_{s} = {val} is not an integer; no such design exists")
    return int(val)


def certify_configuration(d: Design, v: int, r: int, b: int, k: int) -> Certificate:
    """Exhaustive check that d is a (v_r, b_k)-configuration."""
    if d.v != v:
        return Certificate(False, "point-count", (d.v, v))
    if d.b != b:
        return Certificate(False, "block-count", (d.b, b))
    for i, blk in enumerate(d.blocks):
        if len(blk) != k:
            return Certificate(False, "block-size", (i, len(blk)))
    reps = [0] * v
    for blk in d.blocks:
        for p in blk:
            reps[p] += 1
    for p, c in enumerate(reps):
        if c != r:
            return Certificate(False, "replication", (p, c))
    seen = {}
    for i, blk in enumerate(d.blocks):
        for pair in itertools.combinations(blk, 2):
            if pair in seen:
                return Certificate(False, "pair-repeated", (pair, seen[pair], i))
            seen[pair] = i
    return Certificate(True)


def certify_t_design(d: Design, t: int, v: int, k: int, lam: int) -> Certificate:
    """Exhaustive check that every t-subset lies in exactly lam blocks."""
    if not (v > k >= t >= 1 and lam >= 1):
        raise ValueError(f"need v > k >= t >= 1 and lam >= 1, got t={t}, v={v}, k={k}, lam={lam}")
    if d.v != v:
        return Certificate(False, "point-count", (d.v, v))
    for i, blk in enumerate(d.blocks):
        if len(blk) != k:
            return Certificate(False, "block-size", (i, len(blk)))
    counts = {}
    for blk in d.blocks:
        for sub in itertools.combinations(blk, t):
            counts[sub] = counts.get(sub, 0) + 1
    for sub in itertools.combinations(range(v), t):
        if counts.get(sub, 0) != lam:
            return Certificate(False, "coverage", (sub, counts.get(sub, 0)))
    return Certificate(True)


# --- builders -------------------------------------------------------------


def complete_design(v: int, k: int) -> Design:
    """All k-subsets of a v-set: the k-(v,k,1) design."""
    if not 1 <= k < v:
        raise ValueError(f"need 1 <= k < v, got v={v}, k={k}")
    d = Design(v, tuple(itertools.combinations(range(v), k)), t_params=(k, v, k, 1))
    if k == 2:
        # every pair exactly once, so also the (v_{v-1}, C(v,2)_2) configuration
        d = replace(d, config_params=(v, v - 1, comb(v, 2), 2))
    return d


def steiner_triple_system(v: int) -> Design:
    """A 2-(v,3,1) design for v = 1 or 3 mod 6, v >= 7, built explicitly."""
    if v < 7 or v % 6 not in (1, 3):
        raise ValueError(f"a triple system needs v = 1 or 3 (mod 6) and v >= 7, got {v}")
    blocks = []

    def point(i, l):
        return 3 * i + l

    if v % 6 == 3:
        # odd-order construction: idempotent commutative quasigroup on Z_{2n+1}
        n = (v - 3) // 6
        g = 2 * n + 1
        for i in range(g):
            blocks.append((point(i, 0), point(i, 1), point(i, 2)))
        for i, j in itertools.combinations(range(g), 2):
            m = ((i + j) * (n + 1)) % g
            for l in range(3):
                blocks.append((point(i, l), point(j, l), point(m, (l + 1) % 3)))
    else:
        # even-order construction: half-idempotent quasigroup on Z_{2n} plus one extra point
        n = (v - 1) // 6
        g = 2 * n
        inf = 6 * n

        def star(i, j):
            s = (i + j) % g
            return s // 2 if s % 2 == 0 else (s - 1) // 2 + n

        for i in range(n):
            blocks.append((point(i, 0), point(i, 1), point(i, 2)))
        for i in range(n):
            for l in range(3):
                blocks.append((inf, point(n + i, l), point(i, (l + 1) % 3)))
        for i, j in itertools.combinations(range(g), 2):
            for l in range(3):
                blocks.append((point(i, l), point(j, l), point(star(i, j), (l + 1) % 3)))
    r = (v - 1) // 2
    return Design(v, tuple(blocks), t_params=(2, v, 3, 1),
                  config_params=(v, r, v * (v - 1) // 6, 3))


def transversal_design(k: int, n: int) -> Design:
    """A transversal design TD(k,n) over F_n: k groups of n points, n^2 blocks.

    Needs a supported prime-power n and 2 <= k <= n+1.  Every block meets each
    group once; cross-group pairs are covered exactly once, so as a design it
    is the (kn_n, n^2_k)-configuration.
    """
    field = FieldSpec.for_order(n)
    if not 2 <= k <= n + 1:
        raise ValueError(f"need 2 <= k <= n+1 = {n + 1}, got k={k}")
    blocks = []
    for x in range(n):
        for y in range(n):
            blk = [g * n + field.add(field.mul(x, g), y) for g in range(min(k, n))]
            if k == n + 1:
                blk.append(n * n + x)  # the slope group
            blocks.append(tuple(blk))
    return Design(k * n, tuple(blocks), config_params=(k * n, n, n * n, k))


def _fano() -> Design:
    blocks = tuple((i, (i + 1) % 7, (i + 3) % 7) for i in range(7))
    return Design(7, blocks, t_params=(2, 7, 3, 1), config_params=(7, 3, 7, 3))


def _sqs8() -> Design:
    """The 3-(8,4,1) design: 4-subsets of F_2^3 points whose XOR vanishes."""
    blocks = tuple(b for b in itertools.combinations(range(8), 4)
                   if b[0] ^ b[1] ^ b[2] ^ b[3] == 0)
    return Design(8, blocks, t_params=(3, 8, 4, 1))


def _affine9() -> Design:
    """Lines of the 3x3 affine plane: a 2-(9,3,1) design with 12 blocks."""
    blocks = [tuple(3 * c + r for r in range(3)) for c in range(3)]
    for a in range(3):
        for b in range(3):
            blocks.append(tuple(3 * x + (a * x + b) % 3 for x in range(3)))
    return Design(9, tuple(blocks), t_params=(2, 9, 3, 1), config_params=(9, 4, 12, 3))


_CATALOG = {"fano": _fano, "sqs8": _sqs8, "affine-9": _affine9}


def catalog_lookup(name: str) -> Design:
    """A catalog design; its constant blocks are certified by the tests, not here."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog design {name!r}; have {sorted(_CATALOG)}")
    return _CATALOG[name]()


def as_t_design(d: Design, t: int) -> Design:
    """Retag a t'-design as a t-design for t <= t', with the induced lambda."""
    if d.t_params is None:
        raise ValueError("design carries no t-design parameters")
    t0, v, k, lam = d.t_params
    if not 1 <= t <= t0:
        raise ValueError(f"need 1 <= t <= {t0}, got {t}")
    return replace(d, t_params=(t, v, k, lambda_s(t0, v, k, lam, t)))


def from_reference(ref: str) -> Design:
    """Resolve a design reference: a catalog name, complete:V:K, sts:V, or td:K:N."""
    if ref in _CATALOG:
        return catalog_lookup(ref)
    head, _, tail = ref.partition(":")
    fields = tail.split(":") if tail else []
    if not all(x.isascii() and x.isdigit() for x in fields):  # int() takes "+4", "4_0", "٤"
        raise ValueError(f"malformed design reference {ref!r}")
    args = [int(x) for x in fields]
    if head == "complete" and len(args) == 2:
        return complete_design(*args)
    if head == "sts" and len(args) == 1:
        return steiner_triple_system(args[0])
    if head == "td" and len(args) == 2:
        return transversal_design(*args)
    raise ValueError(f"unrecognized design reference {ref!r}")


# --- JSON interchange -----------------------------------------------------


def design_to_json(d: Design) -> dict:
    out = {"v": d.v, "blocks": [list(b) for b in d.blocks]}
    tag = {}
    if d.t_params:
        t, v, k, lam = d.t_params
        tag["t-design"] = {"t": t, "v": v, "k": k, "lambda": lam}
    if d.config_params:
        v, r, b, k = d.config_params
        tag["configuration"] = {"v": v, "r": r, "b": b, "k": k}
    if tag:
        out["tag"] = tag
    return out


def _int(v) -> int:
    if type(v) is not int:  # not isinstance(): bool is an int subclass
        raise ValueError(f"expected an int, got {v!r}")
    return v


def design_from_json(obj: dict) -> Design:
    try:
        v = _int(obj["v"])
        blocks = tuple(tuple(map(_int, blk)) for blk in obj["blocks"])
        tag = obj.get("tag", {})
        if not isinstance(tag, dict):
            raise TypeError(f"tag must be an object, got {tag!r}")
        t_params = config_params = None
        if "t-design" in tag:
            t_params = tuple(_int(tag["t-design"][key]) for key in ("t", "v", "k", "lambda"))
        if "configuration" in tag:
            config_params = tuple(_int(tag["configuration"][key]) for key in ("v", "r", "b", "k"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed design object: {exc}") from None
    return Design(v, blocks, t_params=t_params, config_params=config_params)
