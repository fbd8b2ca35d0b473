"""Triple-matrix view of a PDA.

A PDA (K, F, Q, S) is equivalent to three binary incidence matrices over
index sets X (rows), Y (symbols), Z (columns):

  C_XY on X x Y, C_XZ on X x Z, C_YZ on Y x Z.

A TripleSystem stores each matrix only as row bitmasks (fields xy, xz, yz):
bit j of row i is entry (i, j).  Column masks are derived once per system;
the 0/1 tuples c_xy, c_xz, c_yz are views built on demand, which no stage
reads.  An orientation is a relabeling that swaps rows for columns.

Conditions checked here, all by exhaustive scan:

  E1: every column of C_XZ sums to the same value (|X| - Q),
  E2: every y meets some z,
  E3: every incident (x,y) pair has exactly one z incident to both,
  E4: every incident (x,z) pair has exactly one y incident to both,
  E5: every incident (y,z) pair has exactly one x incident to both,
  E6: for each z, the bipartite graph C_XY induces on z's rows and symbols
      is regular with positive degree,
  E1'/E2'/E7: the column sums of C_XZ, row sums of C_YZ, and row sums of
      C_XZ are constant and positive (degrees D_Z, D_Y, D_X).

E1-E5 characterize valid arrays exactly; E1-E3 plus E6 suffice once C_XY is
thinned to per-z perfect matchings (complete_matching).
"""

from dataclasses import dataclass, field
from functools import cached_property

from .pda import STAR, Pda, canonical_relabel, require_valid

Masks = tuple[int, ...]  # one bitmask per row: bit j of row i is entry (i, j)
Matrix = tuple[tuple[int, ...], ...]


class ConditionError(ValueError):
    """A required structural condition failed; carries its name and a witness."""

    def __init__(self, condition: str, detail: str = "", witness=None):
        self.condition = condition
        self.witness = witness
        msg = f"{condition} fails"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class TripleSystem:
    labels_x: tuple
    labels_y: tuple
    labels_z: tuple
    xy: Masks
    xz: Masks
    yz: Masks

    def __post_init__(self):
        nx, ny, nz = len(self.labels_x), len(self.labels_y), len(self.labels_z)
        for name, rows, nrows, ncols in (("xy", self.xy, nx, ny),
                                         ("xz", self.xz, nx, nz),
                                         ("yz", self.yz, ny, nz)):
            if len(rows) != nrows:
                raise ValueError(f"{name} must have {nrows} rows, got {len(rows)}")
            limit = 1 << ncols
            if any(type(r) is not int or not 0 <= r < limit for r in rows):
                raise ValueError(f"{name} rows must be int masks below 1 << {ncols}")

    # Column masks, each derived from the rows once per system.
    cols_xy = cached_property(lambda self: _columns(self.xy, len(self.labels_y)))
    cols_xz = cached_property(lambda self: _columns(self.xz, len(self.labels_z)))
    cols_yz = cached_property(lambda self: _columns(self.yz, len(self.labels_z)))
    # 0/1 row tuples, rebuilt on every access and never stored.
    c_xy = property(lambda self: _dense(self.xy, len(self.labels_y)))
    c_xz = property(lambda self: _dense(self.xz, len(self.labels_z)))
    c_yz = property(lambda self: _dense(self.yz, len(self.labels_z)))


@dataclass(frozen=True)
class ConditionReport:
    e1: bool
    e2: bool
    e3: bool
    e4: bool
    e5: bool
    e6: bool
    e1p: bool
    e2p: bool
    e7: bool
    d_x: int | None
    d_y: int | None
    d_z: int | None
    e6_degrees: tuple  # per z: common degree, 0 if no incident pairs, None if irregular
    witnesses: dict = field(default_factory=dict, compare=False)

    @property
    def necessary_ok(self) -> bool:
        """E1-E5: exactly the conditions a valid array induces."""
        return self.e1 and self.e2 and self.e3 and self.e4 and self.e5

    @property
    def matchable_ok(self) -> bool:
        """E1-E3 plus E6: enough structure for complete_matching to work."""
        return self.e1 and self.e2 and self.e3 and self.e6

    @property
    def uniform_ok(self) -> bool:
        """E1'/E2'/E7 plus E3/E6: constant degrees, so all orientations exist."""
        return self.e1p and self.e2p and self.e3 and self.e6 and self.e7


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    # Taken from the top, so each step works on a shorter int.
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _columns(rows: Masks, ncols: int) -> Masks:
    """Column masks of the matrix with these row masks: its transpose."""
    out = [0] * ncols
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in set_bits(row):
            out[j] |= bit
    return tuple(out)


def _dense(rows: Masks, ncols: int) -> Matrix:
    # bin() of row | 1 << ncols is "0b1" and then the ncols entries, last first
    return tuple(tuple(int(c) for c in reversed(bin(row | 1 << ncols)[3:])) for row in rows)


def _degree(masks) -> int | None:
    """The popcount all masks share, if it is one and positive; else None."""
    counts = {m.bit_count() for m in masks}
    return counts.pop() if len(counts) == 1 and 0 not in counts else None


def _not_single(rows, a, b, labels_a, labels_b):
    """The first (labels_a[i], labels_b[j]), row-major, with bit j of rows[i]
    set and a[i] & b[j] other than a single bit; None if there is none."""
    for i, row in enumerate(rows):
        for j in set_bits(row):
            if (a[i] & b[j]).bit_count() != 1:
                return labels_a[i], labels_b[j]
    return None


def check_conditions(t: TripleSystem) -> ConditionReport:
    """Evaluate every condition by exhaustive scan; never sampled."""
    lx, ly, lz = t.labels_x, t.labels_y, t.labels_z
    rows_xy, cols_xy, cols_xz, cols_yz = t.xy, t.cols_xy, t.cols_xz, t.cols_yz
    wit: dict = {}

    col_sums = {m.bit_count() for m in cols_xz}
    e1 = len(col_sums) <= 1
    if not e1:
        wit["E1"] = tuple(sorted(col_sums))
    d_z = min(col_sums) if e1 and col_sums else None
    e2 = all(t.yz)
    if not e2:
        wit["E2"] = (ly[t.yz.index(0)],)
    d_y, d_x = _degree(t.yz), _degree(t.xz)

    for name, args in (("E3", (rows_xy, t.xz, t.yz, lx, ly)),
                       ("E4", (t.xz, rows_xy, cols_yz, lx, lz)),
                       ("E5", (t.yz, cols_xy, cols_xz, ly, lz))):
        witness = _not_single(*args)
        if witness is not None:
            wit[name] = witness

    e6 = True
    degrees = []
    for z, (u1, u2) in enumerate(zip(cols_xz, cols_yz)):
        if not u1 or not u2:
            degrees.append(0)
            continue
        degs = {(rows_xy[x] & u2).bit_count() for x in set_bits(u1)}
        degs |= {(cols_xy[y] & u1).bit_count() for y in set_bits(u2)}
        if len(degs) == 1 and 0 not in degs:
            degrees.append(degs.pop())
        else:
            degrees.append(None)
            e6 = False
            wit.setdefault("E6", (lz[z],))

    return ConditionReport(e1, e2, "E3" not in wit, "E4" not in wit, "E5" not in wit, e6,
                           bool(d_z), d_y is not None, d_x is not None,
                           d_x, d_y, d_z, tuple(degrees), wit)


# --- conversions ----------------------------------------------------------


def pda_to_triple(p: Pda) -> TripleSystem:
    """Read the three incidence matrices off a valid array.

    X = row indices, Y = symbols 1..S, Z = column indices.  C_XZ marks the
    non-star cells; C_XY and C_YZ mark each symbol's rows and columns.
    """
    require_valid(p, "not a valid PDA")
    # C3 puts a symbol at most once in any row or column, so sums are unions
    xy = tuple(sum(1 << (v - 1) for v in row if v != STAR) for row in p.grid)
    xz = tuple(sum(1 << z for z, v in enumerate(row) if v != STAR) for row in p.grid)
    yz = tuple(sum(1 << z for _, z in p.symbol_cells[y]) for y in range(1, p.s + 1))
    return TripleSystem(tuple(range(p.f)), tuple(range(1, p.s + 1)),
                        tuple(range(p.k)), xy, xz, yz)


def triple_to_pda(t: TripleSystem) -> Pda:
    """Build the array a triple system describes; requires E1-E5.

    Cell (x,z) is a star where C_XZ is 0, else the y incident to both, which
    E4 makes unique.  Symbols are compacted to 1..S in first-occurrence
    row-major order.
    """
    rep = check_conditions(t)
    for name, ok in (("E1", rep.e1), ("E2", rep.e2), ("E3", rep.e3),
                     ("E4", rep.e4), ("E5", rep.e5)):
        if not ok:
            raise ConditionError(name, "triple system does not describe an array",
                                 rep.witnesses.get(name))
    return _emit_pda(t)


def _emit_pda(t: TripleSystem) -> Pda:
    """triple_to_pda without the E1-E5 scan, for a system known to pass it:
    an orientation of a complete_matching result."""
    f, k = len(t.labels_x), len(t.labels_z)
    if not f or not k:
        raise ValueError("empty row or column set")
    q = f - t.cols_xz[0].bit_count()
    if q < 1:
        raise ValueError("degenerate array: some column has no stars (Q = 0)")
    if q >= f:
        raise ValueError("degenerate array: no symbol cells (Q = F)")
    cols_yz = t.cols_yz
    symbol_of: dict[int, int] = {}
    grid = []
    for row_xy, row_xz in zip(t.xy, t.xz):
        out = [STAR] * k
        for z in set_bits(row_xz):
            y = (row_xy & cols_yz[z]).bit_length() - 1
            out[z] = symbol_of.setdefault(y, len(symbol_of) + 1)
        grid.append(tuple(out))
    return Pda(k, f, q, len(symbol_of), tuple(grid))


# --- matching -------------------------------------------------------------


def bipartite_perfect_matching(left, right, edges) -> dict:
    """Perfect matching of a regular bipartite graph, deterministically.

    left and right are label sequences; edges is an iterable of (l, r) pairs.
    Vertices are processed in sequence order and neighbors scanned ascending,
    with augmenting paths, so the result is a pure function of the input.
    Raises ValueError unless the graph is d-regular with d >= 1 and balanced.
    """
    left = list(left)
    right = list(right)
    li = {lab: i for i, lab in enumerate(left)}
    ri = {lab: i for i, lab in enumerate(right)}
    if len(li) != len(left) or len(ri) != len(right):
        raise ValueError("duplicate vertex labels")
    adj: list[list[int]] = [[] for _ in left]
    rdeg = [0] * len(right)
    for l, r in edges:
        adj[li[l]].append(ri[r])
        rdeg[ri[r]] += 1
    if len(left) != len(right):
        raise ValueError(f"sides differ in size: {len(left)} vs {len(right)}")
    degs = {len(a) for a in adj} | set(rdeg)
    if len(degs) != 1 or 0 in degs:
        raise ValueError(f"graph is not regular with positive degree (degrees {sorted(degs)})")
    for a in adj:
        a.sort()

    owner = [-1] * len(right)

    def augment(root: int) -> bool:
        # Depth-first search on an explicit stack, free of the recursion
        # limit; path[i] is the right vertex from stack[i] to stack[i + 1].
        seen = set()
        stack = [(root, iter(adj[root]))]
        path = []
        while stack:
            for v in stack[-1][1]:
                if v in seen:
                    continue
                seen.add(v)
                if owner[v] < 0:
                    for (u, _), w in zip(stack, path + [v]):
                        owner[w] = u
                    return True
                path.append(v)
                stack.append((owner[v], iter(adj[owner[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    for u in range(len(left)):
        if not augment(u):
            raise ValueError("no perfect matching found in a regular bipartite graph")
    return {left[owner[v]]: right[v] for v in range(len(right)) if owner[v] >= 0}


def complete_matching(t: TripleSystem) -> TripleSystem:
    """Thin C_XY to a union of per-z perfect matchings.

    Requires E1-E3 plus E6 (or the constant-degree variants).  In the result,
    (x,y) is incident iff the pair was matched within some z, which upgrades
    the system to the full E1-E5 family.
    """
    rep = check_conditions(t)
    for name, ok in (("E1", rep.e1), ("E2", rep.e2), ("E3", rep.e3), ("E6", rep.e6)):
        if not ok:
            raise ConditionError(name, witness=rep.witnesses.get(name))
    rows_xy = t.xy
    chosen = [0] * len(t.labels_x)
    for z, (mask1, mask2) in enumerate(zip(t.cols_xz, t.cols_yz)):
        u1, u2 = set_bits(mask1), set_bits(mask2)
        if not u1 and not u2:
            continue
        if len(u1) != len(u2):
            raise ConditionError("E6", f"column {t.labels_z[z]} pairs {len(u1)} rows "
                                 f"with {len(u2)} symbols")
        edges = [(x, y) for x in u1 for y in set_bits(rows_xy[x] & mask2)]
        try:
            matched = bipartite_perfect_matching(u1, u2, edges)
        except ValueError as exc:
            raise ConditionError("E6", f"column {t.labels_z[z]}: {exc}") from None
        for x, y in matched.items():
            chosen[x] |= 1 << y
    return TripleSystem(t.labels_x, t.labels_y, t.labels_z, tuple(chosen), t.xz, t.yz)


# --- orientations and products -------------------------------------------


def orientations(t: TripleSystem) -> tuple[TripleSystem, TripleSystem, TripleSystem]:
    """The three role-rotations of a constant-degree system.

    Given the matched system, each rotation is again an E1-E5 system and
    yields one parameter set when turned into an array:

      1: K=|X|, F=|Y|, Q=|Y|-D_X, S=|Z|
      2: K=|X|, F=|Z|, Q=|Z|-D_X, S=|Y|
      3: K=|Z|, F=|X|, Q=|X|-D_Z, S=|Y|  (the system as given)

    A rotation only relabels: the column masks of one matrix are the row
    masks of its transpose.
    """
    # degrees D_Z (columns of C_XZ), D_Y (rows of C_YZ), D_X (rows of C_XZ)
    for name, masks in (("E1'", t.cols_xz), ("E2'", t.yz), ("E7", t.xz)):
        if _degree(masks) is None:
            raise ConditionError(name, "degrees are not constant and positive")
    set1 = TripleSystem(t.labels_y, t.labels_z, t.labels_x, t.yz, t.cols_xy, t.cols_xz)
    set2 = TripleSystem(t.labels_z, t.labels_y, t.labels_x, t.cols_yz, t.cols_xz, t.cols_xy)
    return set1, set2, t


def direct_product(a: Pda, b: Pda) -> Pda:
    """Componentwise product of two valid arrays.

    Rows and columns become pairs, (j1, j2) and (k1, k2) in lexicographic
    order.  A product cell is a star if either factor cell is; otherwise its
    symbol is the pair of factor symbols.  Parameters come out as K = K1*K2,
    F = F1*F2, Q = F1*Q2 + F2*Q1 - Q1*Q2, S = S1*S2, with symbols compacted
    to first-occurrence row-major order.
    """
    require_valid(a, "first factor is not a valid PDA")
    require_valid(b, "second factor is not a valid PDA")
    grid = tuple(tuple(STAR if va == STAR or vb == STAR else (va - 1) * b.s + vb
                       for va in ra for vb in rb)
                 for ra in a.grid for rb in b.grid)
    prod = canonical_relabel(Pda(a.k * b.k, a.f * b.f, a.f * b.q + b.f * a.q - a.q * b.q,
                                 a.s * b.s, grid))
    require_valid(prod, "product is not a valid PDA")
    return prod
