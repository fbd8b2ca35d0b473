"""Placement delivery arrays: the array type, validator, and file formats.

A PDA with parameters (K, F, Q, S) is an F x K grid where each cell is either
a star or a symbol in 1..S.  Stars mark cached rows; each symbol names one
broadcast transmission.  The validator checks the three defining conditions:

  C1: every column holds exactly Q stars,
  C2: every symbol 1..S occurs somewhere,
  C3: two cells sharing a symbol sit in distinct rows and columns, and both
      "crossing" cells are stars.

A Pda holds one form, its row cells: per row j, the ascending tuple of its
non-star columns (Pda.row_cols[j]) and the tuple of their symbols
(Pda.row_syms[j]), one entry per non-star cell and nothing per star, as in
the hypergraph reading of an array, one hyperedge per non-star cell.  Every
other form is a view made from the row cells on first read and then cached
on the array: the F x K grid of ints (Pda.grid, STAR for a star), the
symbol map (Pda.symbol_cells: per symbol two index lists, the rows and the
columns of its cells) and the per-column star masks (Pda.star_columns).
The validator, the writers and the conversions read the row cells or the
symbol map, never the grid.  Two arrays are equal, and hash alike, when
their K, F, Q, S and row cells are: exactly when their grids are, since a
row's cells are its non-star entries in column order.
"""

import time
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat

STAR = 0  # grid sentinel for '*'; real symbols are 1..s


class PdaFormatError(ValueError):
    """Malformed PDA text or JSON, as opposed to a condition violation."""


def _check_shape(k, f, q, s, widths) -> None:
    """K, F, Q, S are ints, there are F rows, and each row has K entries,
    given each row's width."""
    # type() rather than isinstance(): bool is an int subclass
    if any(type(v) is not int for v in (k, f, q, s)):
        raise ValueError("K, F, Q, S must be ints")
    if len(widths) != f:
        raise ValueError(f"grid has {len(widths)} rows, declared F={f}")
    width = next(filter(k.__ne__, widths), k)  # the first other width
    if width != k:
        raise ValueError(f"grid row has {width} entries, declared K={k}")


class Pda:
    """An F x K placement delivery array, held as its row cells (see the
    module docstring); frozen.  Pda(k, f, q, s, grid) takes the grid, rows
    of K entries each STAR (0) or a positive int, checks its shape and then
    every entry, and keeps only the row cells."""

    k: int  # columns (users)
    f: int  # rows (packets per file)
    q: int  # declared stars per column
    s: int  # declared number of symbols
    row_cols: tuple[tuple[int, ...], ...]  # per row, its non-star columns, ascending
    row_syms: tuple[tuple[int, ...], ...]  # per row, the symbols at those columns

    def __init__(self, k: int, f: int, q: int, s: int, grid):
        grid = tuple(map(tuple, grid))  # the caller's rows, read here and never held
        _check_shape(k, f, q, s, list(map(len, grid)))
        for row in grid:
            if any(type(v) is not int or v < 0 for v in row):
                raise ValueError("grid entries must be STAR or positive symbol ints")
        # the non-star cells, found in C: STAR is 0.  One int per column for
        # every row: a range makes a new one per cell past 256.
        columns = list(range(k))
        self.__dict__.update(k=k, f=f, q=q, s=s,
                             row_cols=tuple(tuple(compress(columns, row)) for row in grid),
                             row_syms=tuple(tuple(filter(None, row)) for row in grid))

    @classmethod
    def _of_rows(cls, k: int, f: int, q: int, s: int, row_cols: tuple, row_syms: tuple) -> "Pda":
        """The array with these row cells, for a producer whose columns are
        ascending in 0..K-1 and whose symbols are positive ints by
        construction: the checks of K, F, Q, S and of the row count, with
        Pda's messages, and no other.  The tuples are held as given."""
        _check_shape(k, f, q, s, [k] * len(row_cols))
        p = object.__new__(cls)
        p.__dict__.update(k=k, f=f, q=q, s=s, row_cols=row_cols, row_syms=row_syms)
        return p

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.k, self.f, self.q, self.s, self.row_cols, self.row_syms)
                == (other.k, other.f, other.q, other.s, other.row_cols, other.row_syms))

    def __hash__(self):
        return hash((self.k, self.f, self.q, self.s, self.row_cols, self.row_syms))

    def __repr__(self):
        return f"Pda(k={self.k}, f={self.f}, q={self.q}, s={self.s}, grid={self.grid!r})"

    # The caches materialize the instance __dict__, which slows every later
    # attribute load on the array: per-cell loops read a view into a local.
    @cached_property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        """The F x K grid: per row, its K entries, STAR at every star."""
        out = []
        for cols, syms in zip(self.row_cols, self.row_syms):
            row = [STAR] * self.k
            for k, v in zip(cols, syms):
                row[k] = v
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def symbol_cells(self) -> dict[int, tuple[list[int], list[int]]]:
        """Each symbol that occurs -> its cells as two index lists (rows,
        cols), cell i at (rows[i], cols[i]), row-major.

        Keys in first-occurrence order; only occurring symbols get one."""
        out: dict[int, tuple[list[int], list[int]]] = {}
        for j, (cols, syms) in enumerate(zip(self.row_cols, self.row_syms)):
            for k, v in zip(cols, syms):
                cells = out.get(v)
                if cells is None:
                    out[v] = ([j], [k])
                else:
                    cells[0].append(j)
                    cells[1].append(k)
        return out

    @cached_property
    def star_columns(self) -> tuple[bytes, ...]:
        """Per column k, a mask over rows: byte j is 1 iff cell (j,k) is a star."""
        masks = [bytearray(b"\x01") * self.f for _ in range(self.k)]
        for j, cols in enumerate(self.row_cols):
            for k in cols:
                masks[k][j] = 0
        return tuple(map(bytes, masks))

    # Frozen, so the report cannot go stale: validate_pda scans once per array.
    @cached_property
    def validation(self) -> "ValidationReport":
        """validate_pda's report on this array."""
        return _scan(self)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class InvalidPdaError(ValueError):
    """An array failed validation; carries the failing ValidationReport."""

    def __init__(self, what: str, report: ValidationReport):
        self.report = report
        super().__init__(f"{what} ({report.condition}: {report.detail})")


def require_valid(p: Pda, what: str) -> None:
    """Validate p once, raising InvalidPdaError prefixed by what on failure."""
    rep = validate_pda(p)
    if not rep:
        raise InvalidPdaError(what, rep)


def validate_pda(p: Pda, stats: dict | None = None) -> ValidationReport:
    """Exhaustively check the declared parameters and conditions C1, C2, C3.

    The scan runs on the first call for an array; later calls return the
    report cached on it.  With stats=None nothing is timed; a dict is
    filled with cached (whether the report was already on the array), and
    the wall seconds of the scan's stages, each None when cached or when an
    earlier stage failed: symbol_map_s (reading the symbol map, built on
    its first read), c1_c2_s (the range, C1 and C2) and c3_s."""
    if stats is None:
        return p.validation
    stats.update(dict.fromkeys(("symbol_map_s", "c1_c2_s", "c3_s")),
                 cached="validation" in p.__dict__)
    if not stats["cached"]:
        p.__dict__["validation"] = _scan(p, stats)  # frozen: no __setattr__
    return p.validation


def _timed(stats: dict | None, name: str, fn, *args):
    """fn(*args); with stats, its wall seconds go in as name_s."""
    if stats is None:
        return fn(*args)
    start = time.perf_counter()
    out = fn(*args)
    stats[f"{name}_s"] = time.perf_counter() - start
    return out


def _scan(p: Pda, stats: dict | None = None) -> ValidationReport:
    """The first failing check, in the order params, range, C1, C2, C3,
    each stage timed into stats when given (validate_pda).

    Each condition is tested whole from the symbol map, built from the row
    cells, and per-row non-star masks taken from the row cells, so Python
    code runs once per non-star cell, not per cell; only a symbol failing
    C3 is walked cell pair by cell pair (_c3_failure), to name the same
    witness as the definition's scan."""
    if min(p.k, p.f, p.q, p.s) < 1:
        return ValidationReport(False, "params", "K, F, Q, S must all be positive")
    if p.q >= p.f:
        return ValidationReport(False, "params", f"need Q < F, got Q={p.q}, F={p.f}")
    cells = _timed(stats, "symbol_map", getattr, p, "symbol_cells")
    failed = _timed(stats, "c1_c2", _c1_c2, p, cells)
    if failed is None:
        failed = _timed(stats, "c3", _c3, p, cells)
    return ValidationReport(True) if failed is None else failed


def _c1_c2(p: Pda, cells: dict) -> ValidationReport | None:
    """The range, C1 and C2 report of the first that fails; None if all hold."""
    s = p.s
    if max(cells, default=STAR) > s:  # entries are ints >= 0, so only a symbol past s is out
        # each symbol's first cell is its first in row-major order
        j, k, v = min((rows[0], cols[0], v) for v, (rows, cols) in cells.items() if v > s)
        return ValidationReport(False, "range", f"cell ({j},{k}) holds {v}, outside 1..{s}")
    filled = Counter(chain.from_iterable(p.row_cols))  # non-stars per column
    for k in range(p.k):
        stars = p.f - filled[k]
        if stars != p.q:
            return ValidationReport(False, "C1",
                f"column {k} has {stars} stars, declared Q={p.q}")
    if len(cells) != s:  # every symbol is in 1..s, so one is missing
        sym = next(v for v in range(1, s + 1) if v not in cells)
        return ValidationReport(False, "C2", f"symbol {sym} never occurs")
    return None


def _c3(p: Pda, cells: dict) -> ValidationReport | None:
    """C3's report on the first failing symbol, in first-occurrence order;
    None if C3 holds.

    C3 for a symbol's n cells: their columns are distinct (a sum of n
    powers of two has n bits only when they are), and in each cell's row
    the symbol's columns hold one non-star, the cell itself.  Each row's
    non-star mask, masked by the symbol's columns, holds its own cell's
    bit, so the n of them hold n bits in all exactly when no row holds
    more.  A repeated row would count both its cells twice, so rows are
    distinct too.  A plain loop over the rows, whose subscripts the
    interpreter specializes, beats chained maps here, most on symbols of
    few cells."""
    bit = (1).__lshift__
    nonstar = [sum(map(bit, cols)) for cols in p.row_cols]
    for sym, (rows, cols) in cells.items():
        mine, left = sum(map(bit, cols)), len(cols)
        if mine.bit_count() == left:
            for j in rows:
                left -= (nonstar[j] & mine).bit_count()
            if not left:
                continue
        detail = _c3_failure(nonstar, sym, rows, cols)
        if detail:
            return ValidationReport(False, "C3", detail)
    return None


def _c3_failure(nonstar: list, sym: int, rows: list, cols: list) -> str | None:
    """What the definition's scan says of the first pair of sym's cells, in
    row-major pair order, that breaks C3; None if no pair does.  nonstar[j]
    has bit k set iff cell (j,k) is not a star."""
    occ = list(zip(rows, cols))
    for a in range(len(occ)):
        j1, k1 = occ[a]
        for b in range(a + 1, len(occ)):
            j2, k2 = occ[b]
            if j1 == j2 or k1 == k2:
                return f"symbol {sym} repeats in a row or column at ({j1},{k1}) and ({j2},{k2})"
            if nonstar[j1] >> k2 & 1 or nonstar[j2] >> k1 & 1:
                return (f"cells ({j1},{k1}) and ({j2},{k2}) share symbol {sym} "
                        f"but a crossing cell is not a star")
    return None


def scheme_parameters(p: Pda) -> tuple[int, int, Fraction, Fraction]:
    """(K, subpacketization F, cache fraction M/N, rate R), fractions exact."""
    return p.k, p.f, Fraction(p.q, p.f), Fraction(p.s, p.f)


def _relabeled(k: int, f: int, q: int, row_cols: tuple, row_syms) -> Pda:
    """The array with these row cells, its symbols renumbered 1..S in
    first-occurrence row-major order, S their count; one int per symbol."""
    row_syms = tuple(row_syms)
    order = dict.fromkeys(chain.from_iterable(row_syms))
    label = dict(zip(order, range(1, len(order) + 1))).__getitem__
    return Pda._of_rows(k, f, q, len(order), row_cols,
                        tuple(map(tuple, map(map, repeat(label), row_syms))))


def canonical_relabel(p: Pda) -> Pda:
    """Renumber symbols 1..S in first-occurrence row-major order.  An array
    whose symbols already first occur as 1..S, with S their count, is
    returned as it is: its symbol map's keys are 1..S in order."""
    order = p.symbol_cells
    if len(order) == p.s and list(order) == list(range(1, p.s + 1)):  # no range for a huge S
        return p
    return _relabeled(p.k, p.f, p.q, p.row_cols, p.row_syms)


# --- text format ----------------------------------------------------------
#
# First line: "K F Q S", each an ASCII decimal.  Then F lines of K tokens,
# each "*" or an ASCII decimal symbol without leading zeros.  A line ends at
# "\n", and a "\r" just before it is dropped; tokens are separated by runs
# of spaces and tabs; a line of only spaces and tabs is skipped.  Every other
# character, other Unicode whitespace too, is part of a token, so makes it a
# bad one.


class _Tokens(dict):
    """Symbol -> its token, each made on first lookup: a table sized by the
    symbols that occur, never by the largest of them."""

    def __missing__(self, v: int) -> str:
        tok = self[v] = str(v)
        return tok


def format_pda(p: Pda) -> str:
    """The text format.  Each row is the all-star line "* * ... *" with
    each non-star cell's token spliced in at its column's place."""
    token = _Tokens().__getitem__
    stars = " ".join("*" * p.k)  # column k's star at index 2k
    lines = [f"{p.k} {p.f} {p.q} {p.s}"]
    for cols, syms in zip(p.row_cols, p.row_syms):
        parts, at = [], 0
        for k, v in zip(cols, syms):
            parts += stars[at:2 * k], token(v)
            at = 2 * k + 1
        parts.append(stars[at:])
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"


class _Symbols(dict):
    """Token -> its entry, each token checked on first lookup, so the stars
    and every repeat of a symbol are found by one dict lookup in C."""

    def __missing__(self, tok: str) -> int:
        try:
            if not (tok.isascii() and tok.isdigit() and tok[0] != "0"):
                raise ValueError
            v = self[tok] = int(tok)  # int() also caps the digit count
        except ValueError:
            raise PdaFormatError(
                f"bad token {tok!r}; want '*' or a positive decimal") from None
        return v


def _fields(line: str) -> filter:
    """The tokens of a line: its runs of other than spaces and tabs."""
    return filter(None, line.replace("\t", " ").split(" "))


def parse_pda(text: str) -> Pda:
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip(" \t")]
    if not lines:
        raise PdaFormatError("empty PDA file")
    header = list(_fields(lines[0]))
    if len(header) != 4:
        raise PdaFormatError(f"header must be 'K F Q S', got {lines[0]!r}")
    try:
        if not all(x.isascii() and x.isdigit() for x in header):
            raise ValueError
        k, f, q, s = (int(x) for x in header)  # int() also caps the digit count
    except ValueError:
        raise PdaFormatError(f"non-integer header field in {lines[0]!r}") from None
    if len(lines) - 1 != f:
        raise PdaFormatError(f"expected {f} grid rows, found {len(lines) - 1}")
    symbol = _Symbols({"*": STAR}).__getitem__
    columns = list(range(k))
    row_cols, row_syms = [], []
    for ln in lines[1:]:
        row = tuple(map(symbol, _fields(ln)))  # raises on the row's first bad token
        if len(row) != k:
            raise PdaFormatError(f"row {ln!r} has {len(row)} entries, expected {k}")
        row_cols.append(tuple(compress(columns, row)))  # the non-star cells, in C
        row_syms.append(tuple(filter(None, row)))
    return Pda._of_rows(k, f, q, s, tuple(row_cols), tuple(row_syms))


# --- JSON variant ---------------------------------------------------------


def pda_to_json(p: Pda, provenance: dict | None = None) -> dict:
    grid = []
    for cols, syms in zip(p.row_cols, p.row_syms):
        row = ["*"] * p.k
        for k, v in zip(cols, syms):
            row[k] = v
        grid.append(row)
    out = {"K": p.k, "F": p.f, "Q": p.q, "S": p.s, "grid": grid}
    if provenance is not None:
        out["provenance"] = provenance
    return out


def pda_from_json(obj: dict) -> Pda:
    try:
        k, f, q, s = (obj[key] for key in ("K", "F", "Q", "S"))  # checked below
        rows = list(obj["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PdaFormatError(f"malformed PDA object: {exc}") from None
    row_cols, row_syms = [], []
    for row in rows:
        if not isinstance(row, list):
            raise PdaFormatError(f"grid row must be a list, got {row!r}")
        cols, syms = [], []
        for c, v in enumerate(row):
            if v == "*":
                continue
            if type(v) is int and v > 0:
                cols.append(c)
                syms.append(v)
            else:
                raise PdaFormatError(f"bad grid value {v!r}")
        row_cols.append(tuple(cols))
        row_syms.append(tuple(syms))
    try:
        _check_shape(k, f, q, s, list(map(len, rows)))
    except ValueError as exc:
        raise PdaFormatError(str(exc)) from None
    return Pda._of_rows(k, f, q, s, tuple(row_cols), tuple(row_syms))
