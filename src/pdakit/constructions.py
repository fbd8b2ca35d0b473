"""PDA constructions from subspace geometry and block designs.

Each family builds a TripleSystem whose conditions are then verified and
completed by the generic machinery in triples.py, never assumed here.  Its
closed form is five invariants of that system, |X|, |Y|, |Z|, D_X and D_Z;
closed_form_row turns them into any orientation's parameters by the one rule
in triples.py, so measured arrays can be checked against them.

Families (ids are the CLI tokens):
  pg              t-, m-, and (m+t)-dimensional subspaces of F_q^k
  config          points and blocks of a (v_r, b_k)-configuration
  tdesign-a       two copies of the t0-subsets of a t-(v,k,1) design, small t
  tdesign-b       complementary t1- and t2-subsets (t1 + t2 = k), large t
  tdesign-lambda  flagged subsets (subset, containing block), any lambda
"""

import itertools
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial, reduce
from math import comb, factorial, log, pi
from operator import itemgetter, mul, or_

from .designs import (Design, certify_configuration, certify_t_design,
                      from_reference, lambda_s)
from .gf import FieldSpec
from .pda import Pda, _timed
from .subspaces import gaussian_binomial, subspaces_and_masks
from .triples import (TripleSystem, _Matched, _matched_cells, _oriented_parameters,
                      _oriented_pda, rows_of, set_bits)

FAMILIES = ("pg", "config", "tdesign-a", "tdesign-b", "tdesign-lambda")


@dataclass(frozen=True)
class ConstructionSpec:
    """One construction instance: a family, its parameters, and an orientation."""

    family: str
    orientation: int = 1
    q: int | None = None
    k: int | None = None
    m: int | None = None
    t: int | None = None
    design: Design | str | None = None
    t0: int | None = None
    t1: int | None = None
    t2: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; have {FAMILIES}")
        if self.orientation not in (1, 2, 3):
            raise ValueError(f"orientation must be 1, 2, or 3, got {self.orientation}")
        needed = {
            "pg": ("q", "k", "m", "t"),
            "config": ("design",),
            "tdesign-a": ("design", "t0"),
            "tdesign-b": ("design", "t1", "t2"),
            "tdesign-lambda": ("design", "t0", "t1", "t2"),
        }[self.family]
        for name in needed:
            if getattr(self, name) is None:
                raise ValueError(f"family {self.family} needs --{name}")

    def resolved_design(self) -> Design:
        if isinstance(self.design, Design):
            return self.design
        return from_reference(self.design)

    def label(self) -> str:
        if self.family == "pg":
            return f"q={self.q},k={self.k},m={self.m},t={self.t}"
        if isinstance(self.design, str):
            ref = self.design
        else:
            d = self.design
            if d.t_params:
                t, v, k, lam = d.t_params
                ref = f"{t}-({v},{k},{lam})"
            elif d.config_params:
                v, r, b, k = d.config_params
                ref = f"({v}_{r},{b}_{k})"
            else:
                ref = f"v={d.v},b={d.b}"
        extra = "".join(f",t{i}={val}" for i, val in ((0, self.t0), (1, self.t1), (2, self.t2))
                        if val is not None)
        return f"design={ref}{extra}"


@dataclass(frozen=True)
class ParameterRow:
    """Closed-form scheme parameters for one construction and orientation."""

    family: str
    label: str
    orientation: int
    k: int  # users
    f: int  # rows
    q: int  # stars per column
    s: int  # symbols
    mn: Fraction
    rate: Fraction
    r_star: Fraction | None
    f_mn: int | str | None  # past EXACT_DIGITS digits, a short form like "~1.23e+5678"
    admissible: bool
    note: str = ""

    @property
    def ratio(self) -> Fraction | None:
        if self.r_star:
            return self.rate / self.r_star
        return None


# --- hypothesis checks ----------------------------------------------------


def _check_pg(q: int, k: int, m: int, t: int) -> FieldSpec:
    field = FieldSpec.for_order(q)
    if m < 1 or t < 1 or m + t > k:
        raise ValueError(f"need m >= 1, t >= 1, m + t <= k; got m={m}, t={t}, k={k}")
    return field


def _configuration_of(design: Design) -> tuple[int, int, int, int]:
    """Certify (v, r, b, k) for a design used as a configuration: its
    config_params, else k = |block 0| and r = the blocks holding point 0, so
    the certificate names any other size or replication.  No block, or
    blocks of fewer than 2 points: refused."""
    if design.config_params is not None:
        v, r, b, k = design.config_params
    elif not design.blocks:
        raise ValueError("a configuration needs at least one block")
    else:
        v, b, k = design.v, design.b, len(design.blocks[0])
        r = sum(0 in blk for blk in design.blocks)
    if k < 2:  # no two points share a block, so C_XY is empty
        raise ValueError(f"a configuration needs blocks of at least 2 points, got k={k}")
    cert = certify_configuration(design, v, r, b, k)
    if not cert:
        raise ValueError(f"not a ({v}_{r},{b}_{k})-configuration: "
                         f"{cert.condition} at {cert.witness}")
    return v, r, b, k


def _t_design_of(design: Design) -> tuple[int, int, int, int]:
    if design.t_params is None:
        raise ValueError("design carries no t-design parameters")
    t, v, k, lam = design.t_params
    cert = certify_t_design(design, t, v, k, lam)
    if not cert:
        raise ValueError(f"not a {t}-({v},{k},{lam}) design: "
                         f"{cert.condition} at {cert.witness}")
    return t, v, k, lam


def _check_tdesign_a(t: int, k: int, lam: int, t0: int):
    if lam != 1:
        raise ValueError(f"this family needs lambda = 1, got {lam}")
    if 2 * t > k + 2:
        raise ValueError(f"needs t <= k/2 + 1; got t={t}, k={k}")
    if not (1 <= t0 <= t - 1 and 2 * t0 >= t):
        raise ValueError(f"needs t/2 <= t0 <= t - 1; got t0={t0}, t={t}")


def _check_tdesign_b(t: int, k: int, lam: int, t1: int, t2: int):
    if lam != 1:
        raise ValueError(f"this family needs lambda = 1, got {lam}")
    if t1 < 1 or t2 < 1 or t1 + t2 != k:
        raise ValueError(f"needs t1, t2 >= 1 with t1 + t2 = k; got t1={t1}, t2={t2}, k={k}")
    if max(t1, t2) >= t:
        raise ValueError(f"needs max(t1, t2) < t; got t1={t1}, t2={t2}, t={t}")


def _check_tdesign_lambda(t: int, k: int, t0: int, t1: int, t2: int):
    if t1 < 1 or t2 < 1 or t0 != t1 + t2:
        raise ValueError(f"needs t1, t2 >= 1 with t0 = t1 + t2; got {t0}, {t1}, {t2}")
    if t0 > t:
        raise ValueError(f"needs t0 <= t; got t0={t0}, t={t}")


# --- triple builders ------------------------------------------------------


def _block_triple(design: Design, size_x: int, size_y: int, label=None) -> TripleSystem:
    """Rows are the size_x-subsets of the points, symbols the size_y-subsets,
    columns the blocks.  A row and a symbol are incident when they are
    disjoint and some block holds both; each is incident to the blocks
    holding it, listed in block order as the walk meets them.  label, if
    given, maps each subset to its row and symbol label."""
    xs = list(itertools.combinations(range(design.v), size_x))
    ys = list(itertools.combinations(range(design.v), size_y))
    ix = {sub: i for i, sub in enumerate(xs)}
    iy = {sub: i for i, sub in enumerate(ys)}
    xy = [0] * len(xs)
    zs_of_x, zs_of_y = [[] for _ in xs], [[] for _ in ys]
    for i, blk in enumerate(design.blocks):
        for x in itertools.combinations(blk, size_x):
            zs_of_x[ix[x]].append(i)
            rest = [p for p in blk if p not in x]
            for y in itertools.combinations(rest, size_y):
                xy[ix[x]] |= 1 << iy[y]
        for y in itertools.combinations(blk, size_y):
            zs_of_y[iy[y]].append(i)
    if label is not None:
        xs, ys = list(map(label, xs)), list(map(label, ys))
    return TripleSystem._of_lists(xs, ys, range(design.b), xy, zs_of_x, zs_of_y)


def pg_triple(q: int, k: int, m: int, t: int) -> TripleSystem:
    """Rows = t-dim, symbols = m-dim, columns = (m+t)-dim subspaces of F_q^k.

    A row and symbol are incident when the subspaces meet trivially; rows and
    symbols are incident to the columns containing them.  With each subspace
    a bitmask over the q^k points (zero vector at bit 0), a row meets
    trivially exactly the symbols that hold none of its nonzero points.  A
    subspace lies in exactly the columns that hold every vector of its
    basis: the columns holding each point are listed once, ascending, and a
    subspace's are the entries those lists share, so C_XZ and C_YZ come as
    index lists and no mask over the columns is made.  When m == t the rows
    and symbols are the same subspaces, enumerated once, and C_XY, which
    meeting trivially makes symmetric, is its own transpose.
    """
    field = _check_pg(q, k, m, t)
    xs, on_x = subspaces_and_masks(field, k, t)
    ys, on_y = (xs, on_x) if m == t else subspaces_and_masks(field, k, m)
    zs, on_z = subspaces_and_masks(field, k, m + t)
    # per point, the mask of the symbols that hold it
    in_y = rows_of(((p, i) for i, mask in enumerate(on_y) for p in set_bits(mask)),
                   q ** k, len(ys))
    all_y = (1 << len(ys)) - 1

    def meets_trivially(points):
        return all_y & ~reduce(or_, (in_y[p] for p in set_bits(points ^ 1)))

    holders = [[] for _ in range(q ** k)]  # per point, the columns holding it
    for z, mask in enumerate(on_z):
        for p in set_bits(mask):
            holders[p].append(z)
    weights = [q ** i for i in range(k)]  # a vector's point is its index in base q

    def columns_of(subspaces) -> list:
        out, last, held = [], None, None
        for sub in subspaces:
            first, *rest = (holders[sum(map(mul, weights, row))] for row in sub.basis)
            if not rest:  # one basis vector: its point's list, shared
                out.append(first)
                continue
            if first is not last:  # consecutive subspaces mostly share a first row
                last, held = first, set(first)
            out.append(sorted(held.intersection(*rest)))
        return out

    xy, zs_of_x = tuple(map(meets_trivially, on_x)), columns_of(xs)
    if m == t:
        return TripleSystem._of_lists(xs, ys, zs, xy, zs_of_x, zs_of_x, cols_xy=xy)
    return TripleSystem._of_lists(xs, ys, zs, xy, zs_of_x, columns_of(ys))


def configuration_triple(design: Design) -> TripleSystem:
    """Rows and symbols are both the point set; columns are the blocks.

    Distinct points are incident when some block holds both.
    """
    _configuration_of(design)
    return _block_triple(design, 1, 1, itemgetter(0))


def tdesign_a_triple(design: Design, t0: int) -> TripleSystem:
    """Rows and symbols are the t0-subsets of the points of a t-(v,k,1) design.

    Two subsets are incident when they are disjoint and some block covers
    their union.
    """
    t, v, k, lam = _t_design_of(design)
    _check_tdesign_a(t, k, lam, t0)
    return _block_triple(design, t0, t0)


def tdesign_b_triple(design: Design, t1: int, t2: int) -> TripleSystem:
    """Rows are t1-subsets, symbols t2-subsets, with t1 + t2 = k.

    A row and symbol are incident when disjoint with their union a block
    (which is then the unique column containing both).
    """
    t, v, k, lam = _t_design_of(design)
    _check_tdesign_b(t, k, lam, t1, t2)
    return _block_triple(design, t1, t2)


def tdesign_lambda_triple(design: Design, t0: int, t1: int, t2: int) -> TripleSystem:
    """Flagged variant for any lambda: labels are (subset, block index) pairs.

    Rows carry t1-subsets, symbols t2-subsets, columns t0-subsets, each paired
    with a containing block; incidence requires equal blocks plus disjointness
    (row/symbol) or containment (against columns).  As t0 = t1 + t2, the
    incident triples are exactly ((x, i), (S - x, i), (S, i)) for each column
    flag (S, i) and t1-subset x of S: one walk over the column flags.
    """
    t, v, k, lam = _t_design_of(design)
    _check_tdesign_lambda(t, k, t0, t1, t2)

    def flags(size):
        return sorted((sub, i) for i, blk in enumerate(design.blocks)
                      for sub in itertools.combinations(blk, size))

    xs, ys, zs = flags(t1), flags(t2), flags(t0)
    ix = {flag: n for n, flag in enumerate(xs)}
    iy = {flag: n for n, flag in enumerate(ys)}
    xy = [0] * len(xs)
    zs_of_x, zs_of_y = [[] for _ in xs], [[] for _ in ys]
    for n, (sub, i) in enumerate(zs):
        for x in itertools.combinations(sub, t1):
            row, sym = ix[x, i], iy[tuple(p for p in sub if p not in x), i]
            xy[row] |= 1 << sym
            zs_of_x[row].append(n)
            zs_of_y[sym].append(n)
    return TripleSystem._of_lists(xs, ys, zs, xy, zs_of_x, zs_of_y)


# --- baselines ------------------------------------------------------------


EXACT_DIGITS = 4300  # Python's default limit on the digits of an int turned into text
_HALF_LN_2PI = Decimal(log(2 * pi) / 2)


def _ln_factorial(n: int) -> Decimal:
    """ln n!: exact below 20, else Stirling's series to its 1/(12n) term,
    which leaves an error below 1/(360 n^3) < 4e-7."""
    if n < 20:
        return Decimal(factorial(n)).ln()
    d = Decimal(n)
    return (d + Decimal("0.5")) * d.ln() - d + _HALF_LN_2PI + 1 / (12 * d)


def _binomial(n: int, k: int) -> int | str:
    """C(n, k) exactly if it has at most EXACT_DIGITS digits, else in a short
    form such as "~1.23e+5678", in time that does not grow with its digits."""
    if n < EXACT_DIGITS * 3.32:  # then C(n, k) < 2^n < 10^EXACT_DIGITS
        return comb(n, k)
    with localcontext() as ctx:
        ctx.prec = 30 + n.bit_length() // 3  # n's digits and then some, for n ln n
        log10 = (_ln_factorial(n) - _ln_factorial(k) - _ln_factorial(n - k)) / Decimal(10).ln()
        # the estimate is far closer than 1, so only a near miss computes C(n, k)
        if log10 < EXACT_DIGITS + 1 and (exact := comb(n, k)) < 10 ** EXACT_DIGITS:
            return exact
        exponent = int(log10)
        mantissa = f"{Decimal(10) ** (log10 - exponent):.2f}"
    if mantissa == "10.00":
        mantissa, exponent = "1.00", exponent + 1
    return f"~{mantissa}e+{exponent}"


def mn_baseline(k_users: int, mn: Fraction) -> tuple[Fraction, int | str | None]:
    """Benchmark rate K(1 - M/N)/(1 + K M/N) and, when K*M/N is an integer,
    the benchmark subpacketization C(K, K*M/N): exact up to EXACT_DIGITS
    digits, else a short string such as "~1.23e+5678"."""
    mn = Fraction(mn)
    if k_users < 1 or not 0 <= mn <= 1:
        raise ValueError(f"need K >= 1 and 0 <= M/N <= 1, got K={k_users}, M/N={mn}")
    r_star = Fraction(k_users * (1 - mn), 1 + k_users * mn)
    cached = k_users * mn
    f_star = _binomial(k_users, int(cached)) if cached.denominator == 1 else None
    return r_star, f_star


def configuration_rate_bound(v: int, r: int, k: int) -> tuple[Fraction, Fraction]:
    """Orientation-1 rate r/k of a configuration next to the benchmark-derived
    lower bound r^2/(v - 1 + r); the two coincide exactly for a BIBD."""
    return Fraction(r, k), Fraction(r * r, v - 1 + r)


def bibd_rate_identity(v: int, k: int) -> tuple[Fraction, Fraction]:
    """For a (v,k,1)-BIBD: rate r/k and the bound.  They agree, as
    r(k - 1) = v - 1 gives r^2/(v - 1 + r) = r^2/(rk) = r/k."""
    r = Fraction(v - 1, k - 1)
    if r.denominator != 1:
        raise ValueError(f"no (v,k,1)-BIBD: r = {r} is not an integer")
    b = Fraction(v * int(r), k)
    if b.denominator != 1:
        raise ValueError(f"no (v,k,1)-BIBD: b = {b} is not an integer")
    return configuration_rate_bound(v, int(r), k)


# --- spec-driven dispatch -------------------------------------------------


def build_triple(spec: ConstructionSpec) -> TripleSystem:
    if spec.family == "pg":
        return pg_triple(spec.q, spec.k, spec.m, spec.t)
    design = spec.resolved_design()
    if spec.family == "config":
        return configuration_triple(design)
    if spec.family == "tdesign-a":
        return tdesign_a_triple(design, spec.t0)
    if spec.family == "tdesign-b":
        return tdesign_b_triple(design, spec.t1, spec.t2)
    return tdesign_lambda_triple(design, spec.t0, spec.t1, spec.t2)


def _design_params(family: str, design: Design) -> tuple[int, int, int, int]:
    """The certified parameters of a design family's design: (v, r, b, k)
    for config, else (t, v, k, lambda)."""
    return _configuration_of(design) if family == "config" else _t_design_of(design)


def _invariants(spec: ConstructionSpec,
                params: tuple | None = None) -> tuple[int, int, int, int, int]:
    """|X|, |Y|, |Z|, D_X and D_Z of the family's system in closed form, after
    the hypothesis check its triple builder runs.  params, if given, are
    _design_params of spec's own design, which is then not certified again."""
    if spec.family == "pg":
        q, k, m, t = spec.q, spec.k, spec.m, spec.t
        _check_pg(q, k, m, t)
        g = partial(gaussian_binomial, q=q)
        return g(k, t), g(k, m), g(k, m + t), g(k - t, m), g(m + t, t)
    if params is None:
        params = _design_params(spec.family, spec.resolved_design())
    if spec.family == "config":
        v, r, b, k = params
        return v, v, b, r, k
    t, v, k, lam = params
    t0, t1, t2 = spec.t0, spec.t1, spec.t2
    lam_s = partial(lambda_s, t, v, k, lam)  # lam_s(s): blocks holding an s-subset
    if spec.family == "tdesign-a":
        _check_tdesign_a(t, k, lam, t0)
        return comb(v, t0), comb(v, t0), lam_s(0), lam_s(t0), comb(k, t0)
    if spec.family == "tdesign-b":
        _check_tdesign_b(t, k, lam, t1, t2)
        return comb(v, t1), comb(v, t2), lam_s(0), lam_s(t1), comb(k, t1)
    _check_tdesign_lambda(t, k, t0, t1, t2)
    return (comb(v, t1) * lam_s(t1), comb(v, t2) * lam_s(t2), comb(v, t0) * lam_s(t0),
            comb(k - t1, t2), comb(t0, t1))


def closed_form_row(spec: ConstructionSpec) -> ParameterRow:
    """The scheme parameters of spec from its family's invariants, without
    building anything."""
    return _row(spec, _invariants(spec))


def design_table(family: str, reference: str) -> list[ParameterRow]:
    """closed_form_row for every admissible parameter choice of a design
    family on one design, in orientations 1-3; empty when there is none.
    The design is resolved and certified once for the whole table, and each
    row's spec keeps the reference string."""
    params = _design_params(family, from_reference(reference))
    if family == "config":
        combos = [{}]
    else:
        t, v, k, lam = params
        if family == "tdesign-a":
            combos = [{"t0": t0} for t0 in range(1, t) if 2 * t0 >= t]
        elif family == "tdesign-b":
            combos = [{"t1": t1, "t2": k - t1} for t1 in range(1, k)
                      if max(t1, k - t1) < t]
        else:
            combos = [{"t0": t1 + t2, "t1": t1, "t2": t2}
                      for t1 in range(1, t) for t2 in range(1, t - t1 + 1)]
    specs = [ConstructionSpec(family, o, design=reference, **combo)
             for combo in combos for o in (1, 2, 3)]
    return [_row(spec, _invariants(spec, params)) for spec in specs]


def _row(spec: ConstructionSpec, invariants: tuple) -> ParameterRow:
    k, f, q, s = _oriented_parameters(*invariants, spec.orientation)
    mn = Fraction(q, f)
    admissible = k >= 1 and s >= 1 and 0 < q < f
    note = "" if admissible else f"Q={q} outside 1..{f - 1}"
    r_star, f_mn = mn_baseline(k, mn) if 0 <= mn <= 1 else (None, None)
    return ParameterRow(spec.family, spec.label(), spec.orientation, k, f, q, s, mn,
                        Fraction(s, f), r_star, f_mn, admissible, note)


# The last system construct_pda built: (its spec in orientation 1, its
# matched cells), or None.  Every orientation is emitted from the same
# cells, which the emitter only reads; the built TripleSystem is never held.
# Only construct_pda reads or writes it.
_held: tuple[ConstructionSpec, _Matched] | None = None


def _rss_mb() -> float:
    """ru_maxrss of this process in MB."""
    import resource  # POSIX only: imported when stats are asked for
    per_mb = 1 << 20 if sys.platform == "darwin" else 1 << 10  # macOS counts bytes, Linux KB
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb, 1)


def _stage(stats: dict | None, name: str, fn, *args):
    """fn(*args); with stats, its wall seconds go in as name_s (pda._timed)
    and ru_maxrss after it as name_rss_mb."""
    out = _timed(stats, name, fn, *args)
    if stats is not None:
        stats[f"{name}_rss_mb"] = _rss_mb()
    return out


def construct_pda(spec: ConstructionSpec, stats: dict | None = None) -> Pda:
    """Full pipeline: build the triple, match it, emit the orientation's array.

    Builds and matches once per system: the conditions are scanned once, on
    the built system, and the matched cells of the last system are kept, so
    that another orientation of the same spec is only emitted from them, in
    its roles.  With stats=None nothing is timed; a dict is filled with
    reused (whether the cells were kept from an earlier call); build_s,
    scan_s (the E1-E3 and degree scan), cells_s (the matching, _cells),
    match_s (scan_s + cells_s) and emit_s, wall seconds, each with ru_maxrss
    in MB after it (build_rss_mb, scan_rss_mb, cells_rss_mb, match_rss_mb,
    the same as cells_rss_mb, and emit_rss_mb), all but emit None when
    reused; size_x, size_y, size_z; nnz_xy, nnz_xz and nnz_yz, the ones of
    the built matrices; column_keys, the distinct column graphs, and
    kuhn_runs, those matched in this call.
    """
    global _held
    if stats is not None:
        # the build and match stages stay None unless this call runs them
        stats.update(dict.fromkeys(("reused", "build_s", "build_rss_mb", "scan_s",
                                    "scan_rss_mb", "cells_s", "cells_rss_mb", "match_s",
                                    "match_rss_mb")))
    key = replace(spec, orientation=1)
    reused = _held is not None and _held[0] == key
    if not reused:  # the built system is freed once matched; one that raises is not held
        stage = partial(_stage, stats)
        _held = key, _matched_cells(stage("build", build_triple, key), stage)
        if stats is not None:
            stats.update(match_s=stats["scan_s"] + stats["cells_s"],
                         match_rss_mb=stats["cells_rss_mb"])
    matched = _held[1]
    if stats is not None:
        ones = len(matched.cells[0])
        stats.update(zip(("size_x", "size_y", "size_z"), matched.sizes))
        # each column's matching covers its rows and its symbols, one cell each
        stats.update(reused=reused, nnz_xy=matched.nnz_xy, nnz_xz=ones, nnz_yz=ones,
                     column_keys=matched.column_keys,
                     kuhn_runs=0 if reused else matched.column_keys)
    return _stage(stats, "emit", _oriented_pda, matched, spec.orientation,
                  f"orientation {spec.orientation} of {spec.family} ({spec.label()})")
