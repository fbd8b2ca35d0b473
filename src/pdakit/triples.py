"""Triple-matrix view of a PDA.

A PDA (K, F, Q, S) is equivalent to three binary incidence matrices over
index sets X (rows), Y (symbols), Z (columns):

  C_XY on X x Y, C_XZ on X x Z, C_YZ on Y x Z.

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

from .pda import STAR, Pda, canonical_relabel, require_valid

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
    c_xy: Matrix
    c_xz: Matrix
    c_yz: Matrix

    def __post_init__(self):
        nx, ny, nz = len(self.labels_x), len(self.labels_y), len(self.labels_z)
        for name, mat, rows, cols in (("c_xy", self.c_xy, nx, ny),
                                      ("c_xz", self.c_xz, nx, nz),
                                      ("c_yz", self.c_yz, ny, nz)):
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"{name} must be {rows}x{cols}")
            if any(v not in (0, 1) for r in mat for v in r):
                raise ValueError(f"{name} entries must be 0 or 1")


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


def _bitrows(mat: Matrix) -> list[int]:
    return [sum(1 << j for j, v in enumerate(row) if v) for row in mat]


def _bitcols(mat: Matrix, ncols: int) -> list[int]:
    out = [0] * ncols
    for i, row in enumerate(mat):
        bit = 1 << i
        for j, v in enumerate(row):
            if v:
                out[j] |= bit
    return out


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_conditions(t: TripleSystem) -> ConditionReport:
    """Evaluate every condition by exhaustive scan; never sampled."""
    nx, ny, nz = len(t.labels_x), len(t.labels_y), len(t.labels_z)
    rows_xy, rows_xz, rows_yz = _bitrows(t.c_xy), _bitrows(t.c_xz), _bitrows(t.c_yz)
    cols_xy = _bitcols(t.c_xy, ny)
    cols_xz = _bitcols(t.c_xz, nz)
    cols_yz = _bitcols(t.c_yz, nz)
    wit: dict = {}

    col_sums = [m.bit_count() for m in cols_xz]
    e1 = len(set(col_sums)) <= 1
    if not e1:
        wit["E1"] = tuple(sorted(set(col_sums)))
    d_z = col_sums[0] if e1 and nz else None
    e1p = e1 and d_z is not None and d_z > 0

    e2 = True
    for y in range(ny):
        if not rows_yz[y]:
            e2 = False
            wit["E2"] = (t.labels_y[y],)
            break
    row_sums_yz = [m.bit_count() for m in rows_yz]
    e2p = len(set(row_sums_yz)) <= 1 and bool(ny) and row_sums_yz[0] > 0
    d_y = row_sums_yz[0] if e2p else None

    row_sums_xz = [m.bit_count() for m in rows_xz]
    e7 = len(set(row_sums_xz)) <= 1 and bool(nx) and row_sums_xz[0] > 0
    d_x = row_sums_xz[0] if e7 else None

    e3 = True
    for x in range(nx):
        for y in _iter_bits(rows_xy[x]):
            if (rows_xz[x] & rows_yz[y]).bit_count() != 1:
                e3 = False
                wit.setdefault("E3", (t.labels_x[x], t.labels_y[y]))
        if not e3:
            break

    e4 = True
    for x in range(nx):
        for z in _iter_bits(rows_xz[x]):
            if (rows_xy[x] & cols_yz[z]).bit_count() != 1:
                e4 = False
                wit.setdefault("E4", (t.labels_x[x], t.labels_z[z]))
        if not e4:
            break

    e5 = True
    for y in range(ny):
        for z in _iter_bits(rows_yz[y]):
            if (cols_xy[y] & cols_xz[z]).bit_count() != 1:
                e5 = False
                wit.setdefault("E5", (t.labels_y[y], t.labels_z[z]))
        if not e5:
            break

    e6 = True
    degrees = []
    for z in range(nz):
        u1, u2 = cols_xz[z], cols_yz[z]
        if not u1 or not u2:
            degrees.append(0)
            continue
        degs = {(rows_xy[x] & u2).bit_count() for x in _iter_bits(u1)}
        degs |= {(cols_xy[y] & u1).bit_count() for y in _iter_bits(u2)}
        if len(degs) == 1 and 0 not in degs:
            degrees.append(degs.pop())
        else:
            degrees.append(None)
            e6 = False
            wit.setdefault("E6", (t.labels_z[z],))

    return ConditionReport(e1, e2, e3, e4, e5, e6, e1p, e2p, e7,
                           d_x, d_y, d_z, tuple(degrees), wit)


# --- conversions ----------------------------------------------------------


def pda_to_triple(p: Pda) -> TripleSystem:
    """Read the three incidence matrices off a valid array.

    X = row indices, Y = symbols 1..S, Z = column indices.  C_XZ marks the
    non-star cells; C_XY and C_YZ mark each symbol's rows and columns.
    """
    require_valid(p, "not a valid PDA")
    c_xz = tuple(tuple(0 if v == STAR else 1 for v in row) for row in p.grid)
    cells = [p.symbol_cells[y] for y in range(1, p.s + 1)]
    rows_of = [{j for j, _ in occ} for occ in cells]
    cols_of = [{k for _, k in occ} for occ in cells]
    c_xy = tuple(tuple(1 if j in rows else 0 for rows in rows_of) for j in range(p.f))
    c_yz = tuple(tuple(1 if k in cols else 0 for k in range(p.k)) for cols in cols_of)
    return TripleSystem(tuple(range(p.f)), tuple(range(1, p.s + 1)),
                        tuple(range(p.k)), c_xy, c_xz, c_yz)


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
    f, k = len(t.labels_x), len(t.labels_z)
    if not f or not k:
        raise ValueError("empty row or column set")
    rows_xy = _bitrows(t.c_xy)
    cols_yz = _bitcols(t.c_yz, k)
    q = f - sum(row[0] for row in t.c_xz)
    if q < 1:
        raise ValueError("degenerate array: some column has no stars (Q = 0)")
    if q >= f:
        raise ValueError("degenerate array: no symbol cells (Q = F)")
    symbol_of: dict[int, int] = {}
    grid = []
    for x in range(f):
        out = []
        for z in range(k):
            if t.c_xz[x][z] == 0:
                out.append(STAR)
                continue
            y = (rows_xy[x] & cols_yz[z]).bit_length() - 1
            if y not in symbol_of:
                symbol_of[y] = len(symbol_of) + 1
            out.append(symbol_of[y])
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
    nx, ny, nz = len(t.labels_x), len(t.labels_y), len(t.labels_z)
    rows_xy = _bitrows(t.c_xy)
    cols_xz = _bitcols(t.c_xz, nz)
    cols_yz = _bitcols(t.c_yz, nz)
    chosen = [[0] * ny for _ in range(nx)]
    for z in range(nz):
        u1 = list(_iter_bits(cols_xz[z]))
        u2 = list(_iter_bits(cols_yz[z]))
        if not u1 and not u2:
            continue
        if len(u1) != len(u2):
            raise ConditionError("E6", f"column {t.labels_z[z]} pairs {len(u1)} rows "
                                 f"with {len(u2)} symbols")
        mask2 = cols_yz[z]
        edges = [(x, y) for x in u1 for y in _iter_bits(rows_xy[x] & mask2)]
        try:
            matched = bipartite_perfect_matching(u1, u2, edges)
        except ValueError as exc:
            raise ConditionError("E6", f"column {t.labels_z[z]}: {exc}") from None
        for x, y in matched.items():
            chosen[x][y] = 1
    return TripleSystem(t.labels_x, t.labels_y, t.labels_z,
                        tuple(tuple(r) for r in chosen), t.c_xz, t.c_yz)


# --- orientations and products -------------------------------------------


def _transpose(mat: Matrix) -> Matrix:
    return tuple(zip(*mat)) if mat else ()


def orientations(t: TripleSystem) -> tuple[TripleSystem, TripleSystem, TripleSystem]:
    """The three role-rotations of a constant-degree system.

    Given the matched system, each rotation is again an E1-E5 system and
    yields one parameter set when turned into an array:

      1: K=|X|, F=|Y|, Q=|Y|-D_X, S=|Z|
      2: K=|X|, F=|Z|, Q=|Z|-D_X, S=|Y|
      3: K=|Z|, F=|X|, Q=|X|-D_Z, S=|Y|  (the system as given)
    """
    t_xy, t_xz, t_yz = _transpose(t.c_xy), _transpose(t.c_xz), _transpose(t.c_yz)
    # degrees D_Z (columns of C_XZ), D_Y (rows of C_YZ), D_X (rows of C_XZ)
    for name, mat in (("E1'", t_xz), ("E2'", t.c_yz), ("E7", t.c_xz)):
        degrees = {sum(r) for r in mat}
        if len(degrees) != 1 or 0 in degrees:
            raise ConditionError(name, "degrees are not constant and positive")
    set1 = TripleSystem(t.labels_y, t.labels_z, t.labels_x, t.c_yz, t_xy, t_xz)
    set2 = TripleSystem(t.labels_z, t.labels_y, t.labels_x, t_yz, t_xz, t_xy)
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
