"""Triple-matrix view of a PDA.

A PDA (K, F, Q, S) is equivalent to three binary incidence matrices over
index sets X (rows), Y (symbols), Z (columns):

  C_XY on X x Y, C_XZ on X x Z, C_YZ on Y x Z.

A TripleSystem takes each matrix as row bitmasks (fields xy, xz, yz): bit j
of row i is entry (i, j).  C_XZ and C_YZ are sparse, and the stages read
them as index lists: per x and per y its z (zs_of_x, zs_of_y), and per z
its x and its y (xs_of_z, ys_of_z), each ascending, one int per incidence,
as in the hypergraph reading of an array, one hyperedge per non-star cell.
A builder gives the per-x and per-y lists directly (TripleSystem._of_lists),
and then the masks xz and yz are made only if read; C_XY stays row masks
of |Y| bits, and its column masks (|X| bits) are derived once per system.
No stage on construct_pda's path reads a mask wider than |X| or |Y|.  The
0/1 tuples c_xy, c_xz, c_yz are views built on demand, which no stage
reads.

Conditions checked here, all by exhaustive scan of the lists:

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
thinned to per-z perfect matchings (complete_matching, by augmenting paths).
E1, E2 and the degrees are list lengths; E3 folds, per y, the x masks of
its z.  E4, E5 and E6 speak of one column's graph, the one C_XY induces on
z's rows and symbols (the link of z in the hypergraph view): E4 asks each
row of it for degree 1, E5 each symbol, E6 all of them for one d > 0.  One
walk of the columns (_local_graphs) judges the three once per distinct
graph; the matching path reads only E6 from it, and triple_to_pda reads
E4 and E5 off the cells it emits, walking the graphs only to name a
failure.  The matched cells, one triple (x, y, z) per non-star cell, are
what every array is emitted from (_emit, into the array's row cells);
an orientation picks which of x, y, z is row, column, symbol.
construct_pda runs the matching path once per system (_matched_cells) and
emits each orientation from its cells (_oriented_pda).
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .pda import Pda, _relabeled, _timed, require_valid

Masks = tuple[int, ...]  # one bitmask per row: bit j of row i is entry (i, j)


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
        # tuples of its own, which no caller's list can change under the caches
        for name in ("labels_x", "labels_y", "labels_z", "xy", "xz", "yz"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        nx, ny, nz = len(self.labels_x), len(self.labels_y), len(self.labels_z)
        for name, rows, nrows, ncols in (("xy", self.xy, nx, ny),
                                         ("xz", self.xz, nx, nz),
                                         ("yz", self.yz, ny, nz)):
            if len(rows) != nrows:
                raise ValueError(f"{name} must have {nrows} rows, got {len(rows)}")
            limit = 1 << ncols
            if any(type(r) is not int or not 0 <= r < limit for r in rows):
                raise ValueError(f"{name} rows must be int masks below 1 << {ncols}")

    @classmethod
    def _of_lists(cls, labels_x, labels_y, labels_z, xy: Masks, zs_of_x: list,
                  zs_of_y: list, cols_xy: Masks | None = None) -> "TripleSystem":
        """The system with C_XY's row masks xy and, per x and per y, the
        ascending list of the z it is incident to, for a builder whose
        entries are in range by construction: no check, and no mask of C_XZ
        or C_YZ until one is read (__getattr__).  cols_xy, if given, are
        C_XY's column masks, which are then not derived.  The lists are held
        as given, and only read."""
        t = object.__new__(cls)
        t.__dict__.update(labels_x=tuple(labels_x), labels_y=tuple(labels_y),
                          labels_z=tuple(labels_z), xy=tuple(xy), zs_of_x=zs_of_x,
                          zs_of_y=zs_of_y)  # frozen: no __setattr__
        if cols_xy is not None:
            t.__dict__["cols_xy"] = tuple(cols_xy)
        return t

    def __getattr__(self, name: str):
        # Reached only for a name not in the instance dict: the xz or yz
        # masks of a system from _of_lists, made from its lists on first read.
        if name not in ("xz", "yz"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        masks = self.__dict__[name] = _masks(self.zs_of_x if name == "xz" else self.zs_of_y)
        return masks

    # Index lists of C_XZ and C_YZ, each derived once per system.
    zs_of_x = cached_property(lambda self: list(map(set_bits, self.xz)))
    zs_of_y = cached_property(lambda self: list(map(set_bits, self.yz)))
    xs_of_z = cached_property(lambda self: _transpose(self.zs_of_x, len(self.labels_z)))
    # one transpose when a builder gave X and Y one set of lists
    ys_of_z = cached_property(lambda self: self.xs_of_z if self.zs_of_y is self.zs_of_x
                              else _transpose(self.zs_of_y, len(self.labels_z)))
    # Column masks, each derived once per system: C_XY's from its rows, the
    # others from the per-z lists.
    cols_xy = cached_property(lambda self: _columns(self.xy, len(self.labels_y)))
    cols_xz = cached_property(lambda self: _masks(self.xs_of_z))
    cols_yz = cached_property(lambda self: _masks(self.ys_of_z))
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
    e6_degrees: tuple  # per z: common degree, 0 if it holds no row and no symbol, None if E6 fails
    witnesses: dict = field(default_factory=dict, compare=False)

    @property
    def necessary_ok(self) -> bool:
        """E1-E5: exactly the conditions a valid array induces."""
        return self.e1 and self.e2 and self.e3 and self.e4 and self.e5

    @property
    def matchable_ok(self) -> bool:
        """E1-E3 plus E6: exactly when complete_matching raises nothing."""
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


_bit = (1).__lshift__


def _masks(lists) -> Masks:
    """Per index list, the mask with its bits set."""
    return tuple(sum(map(_bit, js)) for js in lists)


def _transpose(lists, n: int) -> list[list[int]]:
    """Per index 0..n-1, the ascending list of the rows whose list holds it:
    the index lists of the transpose."""
    out: list[list[int]] = [[] for _ in range(n)]
    for i, js in enumerate(lists):
        for j in js:
            out[j].append(i)
    return out


def rows_of(pairs, nrows: int, ncols: int) -> Masks:
    """The row masks of the nrows x ncols matrix with ones at these (row,
    column) pairs, built without a copy per bit."""
    rows = [bytearray(ncols + 7 >> 3) for _ in range(nrows)]
    for i, j in pairs:
        rows[i][j >> 3] |= 1 << (j & 7)
    return tuple(int.from_bytes(row, "little") for row in rows)


def _columns(rows: Masks, ncols: int) -> Masks:
    """Column masks of the matrix with these row masks: its transpose.  A
    matrix more than half ones is walked through its complement instead."""
    ones = sum(map(int.bit_count, rows))
    flip = 2 * ones > len(rows) * ncols
    full, every = ((1 << ncols) - 1) * flip, ((1 << len(rows)) - 1) * flip
    out = [0] * ncols
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in set_bits(row ^ full):
            out[j] |= bit
    return tuple(every ^ col for col in out) if flip else tuple(out)


def _dense(rows: Masks, ncols: int) -> tuple[tuple[int, ...], ...]:
    # bin() of row | 1 << ncols is "0b1" and then the ncols entries, last first
    return tuple(tuple(int(c) for c in reversed(bin(row | 1 << ncols)[3:])) for row in rows)


def _degree(lists) -> int | None:
    """The length all lists share, if it is one and positive; else None."""
    counts = set(map(len, lists))
    return counts.pop() if len(counts) == 1 and 0 not in counts else None


def _e3_pair(cols_xy: Masks, zs_of_y, x_masks: list) -> tuple[int, int] | None:
    """E3's first failing pair (x, y), x-major, as indices: in C_XY, and in
    other than exactly one z together; None if none.  One fold per y of the
    x masks of its z, each ANDed with column y of C_XY, into bits met once
    or again, so every y is scanned and the least x decides."""
    first = None
    for y, (col, zs) in enumerate(zip(cols_xy, zs_of_y)):
        seen = multi = 0
        for z in zs:
            hit = col & x_masks[z]
            multi |= seen & hit
            seen |= hit
        bad = col & ~seen | multi
        if bad:
            x = (bad & -bad).bit_length() - 1
            if first is None or x < first[0]:
                first = x, y
    return first


def _scan(t: TripleSystem) -> tuple[dict, int | None, int | None, int | None]:
    """E1, E2 and E3 by exhaustive scan, as the witnesses of those that fail,
    in that order, and the degrees D_X, D_Y, D_Z.  Reads the index lists of
    C_XZ and C_YZ and C_XY's columns, and no mask wider than |X| or |Y|."""
    lx, ly = t.labels_x, t.labels_y
    zs_of_y, xs_of_z = t.zs_of_y, t.xs_of_z
    wit: dict = {}
    col_sums = set(map(len, xs_of_z))
    if len(col_sums) > 1:
        wit["E1"] = tuple(sorted(col_sums))
    d_z = col_sums.pop() if len(col_sums) == 1 else None
    if not all(zs_of_y):
        wit["E2"] = (ly[list(map(bool, zs_of_y)).index(False)],)
    e3 = _e3_pair(t.cols_xy, zs_of_y, _masks(xs_of_z))  # per z, its x: |X| bits
    if e3 is not None:
        wit["E3"] = lx[e3[0]], ly[e3[1]]
    return wit, _degree(t.zs_of_x), _degree(zs_of_y), d_z


def _raise_first(wit: dict, names: tuple, detail: str = "") -> None:
    """ConditionError for the first of the conditions names with a witness."""
    for name in names:
        if name in wit:
            raise ConditionError(name, detail, wit[name])


def _local_graphs(t: TripleSystem):
    """Per column z, in order, (z, xs, ys, key, verdict): its rows xs and
    symbols ys in ascending order; the graph C_XY induces on them in local
    indices, keyed as (len(xs), len(ys), chars), chars its adjacency in
    row-major order (row i and symbol j are adjacent iff bit ys[j] of
    xy[xs[i]] is set); and the key's verdict, decided once per key
    (_judge): columns with equal keys have equal graphs up to the
    order-keeping renaming of their rows and symbols."""
    # char j of bits[x] is bit j of xy[x]
    bits = [format(row, f"0{len(t.labels_y)}b")[::-1] for row in t.xy]
    verdicts: dict[tuple, tuple] = {}
    for z, (xs, ys) in enumerate(zip(t.xs_of_z, t.ys_of_z)):
        # a char, or a tuple of chars, per row
        rows = map(itemgetter(*ys), map(bits.__getitem__, xs)) if ys else ()
        key = len(xs), len(ys), "".join(map("".join, rows))
        if key not in verdicts:
            verdicts[key] = _judge(*key)
        yield z, xs, ys, key, verdicts[key]


def _judge(n: int, m: int, chars: str) -> tuple:
    """The verdicts on the n x m graph chars (_local_graphs), (d, e4, e5):
    E6's, its common degree d if every row and symbol has degree d > 0
    (which makes n == m), 0 if it has neither rows nor symbols, else None;
    and E4's and E5's, its first row and its first symbol whose degree is
    not 1, each None if none."""
    rows = [chars.count("1", i * m, i * m + m) for i in range(n)]
    cols = [chars[j::m].count("1") for j in range(m)]
    sums = set(rows + cols)
    d = max(sums, default=0) if len(sums) < 2 and 0 not in sums else None
    e4, e5 = (next((i for i, c in enumerate(s) if c != 1), None) for s in (rows, cols))
    return d, e4, e5


def _graph_scan(t: TripleSystem) -> tuple[dict, tuple]:
    """E4, E5 and E6 from one walk of the column graphs, as the witnesses of
    those that fail, in that order, and E6's verdict per column: E4's first
    failing pair (x, z), x-major, and E5's (y, z), y-major, a column's first
    failing row or symbol being its least, and E6's first failing column."""
    e4 = e5 = None
    degrees = []
    for z, xs, ys, _, (d, i, j) in _local_graphs(t):
        degrees.append(d)
        if i is not None and (e4 is None or xs[i] < e4[0]):
            e4 = xs[i], z
        if j is not None and (e5 is None or ys[j] < e5[0]):
            e5 = ys[j], z
    degrees = tuple(degrees)
    wit: dict = {}
    for name, pair, labels in (("E4", e4, t.labels_x), ("E5", e5, t.labels_y)):
        if pair is not None:
            wit[name] = labels[pair[0]], t.labels_z[pair[1]]
    if None in degrees:
        wit["E6"] = (t.labels_z[degrees.index(None)],)
    return wit, degrees


def check_conditions(t: TripleSystem) -> ConditionReport:
    """Evaluate every condition by exhaustive scan; never sampled.  E4, E5
    and E6 come from one walk of the column graphs (_graph_scan)."""
    wit, d_x, d_y, d_z = _scan(t)
    graph_wit, degrees = _graph_scan(t)
    wit.update(graph_wit)
    e1, e2, e3, e4, e5, e6 = (c not in wit for c in ("E1", "E2", "E3", "E4", "E5", "E6"))
    return ConditionReport(e1, e2, e3, e4, e5, e6, bool(d_z), d_y is not None,
                           d_x is not None, d_x, d_y, d_z, degrees, wit)


# --- conversions ----------------------------------------------------------


def pda_to_triple(p: Pda) -> TripleSystem:
    """Read the three incidence matrices off a valid array.

    X = row indices, Y = symbols 1..S, Z = column indices.  Each non-star
    cell, of which Q < F leaves some, is one incident triple (x, y, z).
    """
    require_valid(p, "not a valid PDA")
    x, y, z = zip(*[(j, s - 1, k) for s, (rows, cols) in p.symbol_cells.items()
                    for j, k in zip(rows, cols)])
    return TripleSystem(tuple(range(p.f)), tuple(range(1, p.s + 1)), tuple(range(p.k)),
                        rows_of(zip(x, y), p.f, p.s), rows_of(zip(x, z), p.f, p.k),
                        rows_of(zip(y, z), p.s, p.k))


def triple_to_pda(t: TripleSystem) -> Pda:
    """Build the array a triple system describes; requires E1-E5.

    Cell (x,z) is a star where C_XZ is 0, else the y incident to both, which
    E4 makes unique: the one bit of xy[x] & cols_yz[z].  Symbols are
    compacted to 1..S in first-occurrence row-major order.

    E1-E3 come from _scan.  E4 and E5 are read off the cells themselves,
    per column one AND per row: E4 holds when each row's AND has one bit,
    and then E5 when those bits are distinct and as many as the column's
    symbols.  Only a system that fails them walks the column graphs
    (_graph_scan), which names check_conditions' witness.
    """
    what = "triple system does not describe an array"
    _raise_first(_scan(t)[0], ("E1", "E2", "E3"), what)
    xy, hits = t.xy, []
    for xs, ys in zip(t.xs_of_z, t.cols_yz):
        got = list(map(ys.__and__, map(xy.__getitem__, xs)))  # per row, its symbols here
        if not (set(map(int.bit_count, got)) <= {1} and len(set(got)) == len(got) == ys.bit_count()):
            _raise_first(_graph_scan(t)[0], ("E4", "E5"), what)
        hits.append(got)
    # a cell's symbol as y + 1, the length of its one bit: _emit renumbers them
    syms = list(map(int.bit_length, chain.from_iterable(hits)))
    cz = list(chain.from_iterable(map(repeat, range(len(hits)), map(len, hits))))
    return _emit(len(t.labels_x), len(t.labels_z), list(chain.from_iterable(t.xs_of_z)), cz, syms)


def _emit(f: int, k: int, rows, cols, syms) -> Pda:
    """The F x K array with symbol syms[i] at cell (rows[i], cols[i]), stars
    elsewhere, for cells at distinct places that give every column as many
    symbols, each row's cells given in ascending column order (column-major
    order is one such; _cells gives another).  Its row cells come from one
    stable bucket pass by row, and its symbols are then renumbered 1..S in
    first-occurrence row-major order (pda._relabeled)."""
    if not f or not k:
        raise ValueError("empty row or column set")
    q = f - cols.count(0)
    if q < 1:
        raise ValueError("degenerate array: some column has no stars (Q = 0)")
    if q >= f:
        raise ValueError("degenerate array: no symbol cells (Q = F)")
    row_cols = [[] for _ in range(f)]
    row_syms = [[] for _ in range(f)]
    for r, c, s in zip(rows, cols, syms):
        row_cols[r].append(c)
        row_syms[r].append(s)
    return _relabeled(k, f, q, tuple(map(tuple, row_cols)), row_syms)


# --- matching -------------------------------------------------------------


def _match_column(xs, ys: int, rows_xy: Masks) -> dict[int, int]:
    """A perfect matching {y: x} of the rows xs with the symbols in mask ys
    along rows_xy, whose induced graph E6 makes regular.  Kuhn's augmenting
    paths on a stack: roots in ascending x; from each row, the lowest y not
    yet seen from this root, taken if free, else followed into its owner.
    path[i] is the symbol from stack[i] to stack[i + 1]."""
    owner: dict[int, int] = {}
    for root in xs:
        unseen, x = ys, root
        stack, path = [root], []
        while stack:
            free = rows_xy[x] & unseen
            if not free:
                stack.pop()
                if path:
                    path.pop()
                    x = stack[-1]
                continue
            bit = free & -free
            unseen ^= bit
            y = bit.bit_length() - 1
            path.append(y)
            x = owner.get(y, -1)
            if x < 0:  # flip the path: each stack row takes the next symbol
                owner.update(zip(path, stack))
                break
            stack.append(x)
    return owner


def _cells(t: TripleSystem) -> tuple[tuple[list, list, list], int, int]:
    """The cells of per-z perfect matchings of C_XY, as three lists x, y, z:
    cell i is the triple (x[i], y[i], z[i]), one per matched pair, in
    x-major order, z ascending within an x; with the count of Kuhn runs,
    one per distinct column key, and C_XY's ones, each an edge of exactly
    one column's graph by E3, d * n of them on a column of n rows by E6.
    The lists hold the system's own index ints, no new int per cell.  In
    that order each orientation's rows list their cells in ascending
    column order, as _emit takes them: x ascends within a y or a z, and z
    within an x.

    _match_column runs once per distinct column key (_local_graphs) whose
    column passes E6, on the local masks; each column with that key takes
    its pairs through its own xs and ys.  Kuhn reads only order and
    adjacency, so every column gets the matching its global masks would
    give.  Every pg system tried has a single key.  A perfect matching
    covers every row of its column, so a column's x cells are its xs.

    Raises ConditionError for E6, with check_conditions' witness, at the
    first column whose graph is not regular with positive degree, which
    fails a column whose sides differ in size, one of them empty included.
    A column with neither rows nor symbols holds no cell.
    """
    memo: dict[tuple, list[int]] = {}  # key -> per local row, its matched local symbol
    xs_out, cy, zs = [], [], []  # per matched column its xs, and its z; the y cells
    edges = 0
    for z, xs, ys, key, (d, _, _) in _local_graphs(t):
        if d is None:
            raise ConditionError("E6", "", (t.labels_z[z],))
        if not d:
            continue
        picks = memo.get(key)
        if picks is None:
            n, _, chars = key
            local = [int(chars[i * n:(i + 1) * n][::-1], 2) for i in range(n)]
            pairs = _match_column(range(n), (1 << n) - 1, local)
            picks = memo[key] = sorted(pairs, key=pairs.__getitem__)
        xs_out.append(xs)
        cy.extend(map(ys.__getitem__, picks))
        zs.append(z)
        edges += d * len(xs)
    # column-major as found; one stable bucket pass by x makes it x-major
    z_of, y_of = [[] for _ in t.labels_x], [[] for _ in t.labels_x]
    cz = chain.from_iterable(map(repeat, zs, map(len, xs_out)))
    for x, y, z in zip(chain.from_iterable(xs_out), cy, cz):
        z_of[x].append(z)
        y_of[x].append(y)
    cx = list(chain.from_iterable(map(repeat, range(len(z_of)), map(len, z_of))))
    return (cx, list(chain.from_iterable(y_of)), list(chain.from_iterable(z_of))), len(memo), edges


class _Matched(NamedTuple):
    """What the matching path keeps of a system, and no mask of it: the
    matched cells (_cells), |X|, |Y|, |Z|, the degrees D_X, D_Y, D_Z, and
    two counts for construct_pda's stats, the Kuhn runs (one per distinct
    column key) and C_XY's ones."""
    cells: tuple[list, list, list]
    sizes: tuple[int, int, int]
    degrees: tuple
    column_keys: int
    nnz_xy: int


def _untimed(name: str, fn, *args):
    return fn(*args)


def _matched_cells(t: TripleSystem, stage=_untimed) -> _Matched:
    """_cells(t) and the degrees (D_X, D_Y, D_Z), after E1, E2, E3 and then
    E6 are required, each failure raised as check_conditions would report
    it.  Computes nothing else: no E4 or E5, and no mask wider than |X| or
    |Y|.  The scan and the matching run as stage("scan", _scan, t) and
    stage("cells", _cells, t), so that a caller can time each."""
    wit, *degrees = stage("scan", _scan, t)
    _raise_first(wit, ("E1", "E2", "E3"))
    cells, keys, edges = stage("cells", _cells, t)
    sizes = len(t.labels_x), len(t.labels_y), len(t.labels_z)
    return _Matched(cells, sizes, tuple(degrees), keys, edges)


def _require_degrees(d_x, d_y, d_z) -> None:
    """ConditionError for the first of E1', E2', E7 whose degree (D_Z, D_Y,
    D_X) is not constant and positive (None or 0)."""
    for name, d in (("E1'", d_z), ("E2'", d_y), ("E7", d_x)):
        if not d:
            raise ConditionError(name, "degrees are not constant and positive")


def complete_matching(t: TripleSystem) -> TripleSystem:
    """Thin C_XY to a union of per-z perfect matchings (_cells).

    Requires E1-E3 plus E6 (or the constant-degree variants).  In the result,
    (x,y) is incident iff the pair was matched within some z, which upgrades
    the system to the full E1-E5 family.  The result keeps t's C_XZ and C_YZ.
    """
    xs, ys, _ = _matched_cells(t).cells
    return TripleSystem._of_lists(t.labels_x, t.labels_y, t.labels_z,
                                  rows_of(zip(xs, ys), len(t.labels_x), len(t.labels_y)),
                                  t.zs_of_x, t.zs_of_y)


# --- orientations and products -------------------------------------------

# (row, column, symbol) roles of X, Y, Z (0, 1, 2) per orientation; 3 is the identity
_ROLES = ((1, 0, 2), (2, 0, 1), (0, 2, 1))


def _oriented_parameters(nx: int, ny: int, nz: int, d_x: int, d_z: int,
                         orientation: int) -> tuple[int, int, int, int]:
    """(K, F, Q, S) of an orientation of a matched system with |X| = nx,
    |Y| = ny, |Z| = nz, and row degree D_X and column degree D_Z of C_XZ.
    A column holds one symbol per triple on it: D_X on an x, D_Z on a z."""
    (row, col, sym), sizes = _ROLES[orientation - 1], (nx, ny, nz)
    return sizes[col], sizes[row], sizes[row] - (d_x, None, d_z)[col], sizes[sym]


def orientations(t: TripleSystem) -> tuple[TripleSystem, TripleSystem, TripleSystem]:
    """The three role-rotations of a constant-degree system, in _ROLES order.

    Given the matched system, each rotation is again an E1-E5 system, whose
    array has the parameters _oriented_parameters gives; the third is the
    system as given.  A rotation only relabels: the column masks of one
    matrix are the row masks of its transpose.
    """
    # degrees D_X (rows of C_XZ), D_Y (rows of C_YZ), D_Z (columns of C_XZ)
    _require_degrees(_degree(t.zs_of_x), _degree(t.zs_of_y), _degree(t.xs_of_z))
    lx, ly, lz = t.labels_x, t.labels_y, t.labels_z
    return (TripleSystem(ly, lz, lx, t.yz, t.cols_xy, t.cols_xz),
            TripleSystem(lz, ly, lx, t.cols_yz, t.cols_xz, t.cols_xy), t)


def _oriented_pda(matched: _Matched, orientation: int, what: str) -> Pda:
    """triple_to_pda(orientations(complete_matching(t))[orientation - 1]),
    given matched = _matched_cells(t): E1'/E2'/E7 from its degrees, then the
    array emitted from its cells in the orientation's roles.  An
    inadmissible orientation raises ValueError prefixed by what."""
    _require_degrees(*matched.degrees)
    row, col, sym = _ROLES[orientation - 1]
    sizes, cells = matched.sizes, matched.cells
    try:
        return _emit(sizes[row], sizes[col], cells[row], cells[col], cells[sym])
    except ValueError as exc:
        raise ValueError(f"{what} is inadmissible: {exc}") from None


def direct_product(a: Pda, b: Pda, stats: dict | None = None) -> Pda:
    """Componentwise product of two valid arrays.

    Rows and columns become pairs, (j1, j2) and (k1, k2) in lexicographic
    order, numbered j1*F2 + j2 and k1*K2 + k2.  A product cell is a star if
    either factor cell is; otherwise its symbol is the pair of factor symbols,
    numbered (s1 - 1)*S2 + s2.  Parameters come out as K = K1*K2, F = F1*F2,
    Q = F1*Q2 + F2*Q1 - Q1*Q2, S = S1*S2, with symbols compacted to
    first-occurrence row-major order.  With stats=None nothing is timed; a
    dict is filled with cells (the product's non-star cells), and emit_s
    (building it, _product) and validate_s (validate_pda on it), wall
    seconds.
    """
    require_valid(a, "first factor is not a valid PDA")
    require_valid(b, "second factor is not a valid PDA")
    prod = _timed(stats, "emit", _product, a, b)
    if stats is not None:
        stats["cells"] = sum(map(len, prod.row_cols))
    _timed(stats, "validate", require_valid, prod, "product is not a valid PDA")
    return prod


def _product(a: Pda, b: Pda) -> Pda:
    """The direct product's row cells, built row pair by row pair: row (j1,
    j2) holds one cell per pair of non-star cells of rows j1 and j2, which
    in that order are already in column order."""
    # every product column and pair symbol as one shared int, looked up per cell
    columns = list(range(a.k * b.k))
    pair_symbols = list(range(a.s * b.s + 1))
    row_cols, row_syms = [], []
    for cols1, syms1 in zip(a.row_cols, a.row_syms):
        # per cell of row j1, the lookup of its column or symbol paired with row j2's
        col_of = [columns[k1 * b.k:(k1 + 1) * b.k].__getitem__ for k1 in cols1]
        sym_of = [pair_symbols[(s1 - 1) * b.s:s1 * b.s + 1].__getitem__ for s1 in syms1]
        for cols2, syms2 in zip(b.row_cols, b.row_syms):
            row_cols.append(tuple(chain.from_iterable(map(map, col_of, repeat(cols2)))))
            row_syms.append(tuple(chain.from_iterable(map(map, sym_of, repeat(syms2)))))
    return _relabeled(a.k * b.k, a.f * b.f, a.f * b.q + b.f * a.q - a.q * b.q,
                      tuple(row_cols), row_syms)
