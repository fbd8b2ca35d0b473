"""Placement delivery arrays: the grid type, validator, and file formats.

A PDA with parameters (K, F, Q, S) is an F x K grid where each cell is either
a star or a symbol in 1..S.  Stars mark cached rows; each symbol names one
broadcast transmission.  The validator checks the three defining conditions:

  C1: every column holds exactly Q stars,
  C2: every symbol 1..S occurs somewhere,
  C3: two cells sharing a symbol sit in distinct rows and columns, and both
      "crossing" cells are stars.

An array's non-star cells are held once more, on first use, as its symbol
map (Pda.symbol_cells): per symbol two index lists, the rows and the
columns of its cells, with no object per cell.  The validator, the
simulator and the conversions to triples and products read the cells from
it.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from operator import not_

STAR = 0  # grid sentinel for '*'; real symbols are 1..s


class PdaFormatError(ValueError):
    """Malformed PDA text or JSON, as opposed to a condition violation."""


@dataclass(frozen=True)
class Pda:
    k: int  # columns (users)
    f: int  # rows (packets per file)
    q: int  # declared stars per column
    s: int  # declared number of symbols
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # rows of its own, which no caller's list can change under the caches
        object.__setattr__(self, "grid", tuple(map(tuple, self.grid)))
        self._check_shape()
        for row in self.grid:
            if any(type(v) is not int or v < 0 for v in row):
                raise ValueError("grid entries must be STAR or positive symbol ints")

    @classmethod
    def _trusted(cls, k: int, f: int, q: int, s: int, grid: tuple) -> "Pda":
        """Pda(k, f, q, s, grid) for a producer whose entries are ints >= 0
        by construction: every check, with the same messages, but the
        per-entry one."""
        p = object.__new__(cls)
        p.__dict__.update(k=k, f=f, q=q, s=s, grid=grid)  # frozen: no __setattr__
        p._check_shape()
        return p

    def _check_shape(self) -> None:
        """K, F, Q, S are ints, the grid has F rows, and each row K entries."""
        # type() rather than isinstance(): bool is an int subclass
        if any(type(v) is not int for v in (self.k, self.f, self.q, self.s)):
            raise ValueError("K, F, Q, S must be ints")
        if len(self.grid) != self.f:
            raise ValueError(f"grid has {len(self.grid)} rows, declared F={self.f}")
        width = next(filter(self.k.__ne__, map(len, self.grid)), self.k)  # the first other width
        if width != self.k:
            raise ValueError(f"grid row has {width} entries, declared K={self.k}")

    # The cache materializes the instance __dict__, which slows every later
    # attribute load on the array: per-cell loops read p.grid into a local.
    @cached_property
    def symbol_cells(self) -> dict[int, tuple[list[int], list[int]]]:
        """Each symbol that occurs -> its cells as two index lists (rows,
        cols), cell i at (rows[i], cols[i]), row-major.

        Keys in first-occurrence order; only occurring symbols get one."""
        out: dict[int, tuple[list[int], list[int]]] = {}
        # one int per column for every row: a range makes a new one per cell past 256
        columns = list(range(self.k))
        for j, row in enumerate(self.grid):
            # the non-star cells, found in C: STAR is 0
            for k, v in zip(compress(columns, row), filter(None, row)):
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
        return tuple(bytes(map(not_, col)) for col in zip(*self.grid))

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


def validate_pda(p: Pda) -> ValidationReport:
    """Exhaustively check the declared parameters and conditions C1, C2, C3.

    The scan runs on the first call for an array; later calls return the
    report cached on it."""
    return p.validation


def _scan(p: Pda) -> ValidationReport:
    """The first failing check, in the order params, range, C1, C2, C3.

    Each condition is tested whole from the symbol map, built in C loops
    over the grid, and per-row non-star masks taken from its cells, so
    Python code runs once per non-star cell, not per cell; only a symbol
    failing C3 is walked cell pair by cell pair (_c3_failure), to name the
    same witness as the definition's scan."""
    if min(p.k, p.f, p.q, p.s) < 1:
        return ValidationReport(False, "params", "K, F, Q, S must all be positive")
    if p.q >= p.f:
        return ValidationReport(False, "params", f"need Q < F, got Q={p.q}, F={p.f}")
    grid, s = p.grid, p.s
    cells = p.symbol_cells
    if max(cells, default=STAR) > s:  # entries are ints >= 0, so only a symbol past s is out
        # each symbol's first cell is its first in row-major order
        j, k = min((rows[0], cols[0]) for v, (rows, cols) in cells.items() if v > s)
        return ValidationReport(False, "range",
            f"cell ({j},{k}) holds {grid[j][k]}, outside 1..{s}")
    filled = Counter(chain.from_iterable(cols for _, cols in cells.values()))  # non-stars per column
    for k in range(p.k):
        stars = p.f - filled[k]
        if stars != p.q:
            return ValidationReport(False, "C1",
                f"column {k} has {stars} stars, declared Q={p.q}")
    if len(cells) != s:  # every symbol is in 1..s, so one is missing
        sym = next(v for v in range(1, s + 1) if v not in cells)
        return ValidationReport(False, "C2", f"symbol {sym} never occurs")
    # C3 for a symbol's n cells: their columns are distinct (a sum of n
    # powers of two has n bits only when they are), and in each cell's row
    # the symbol's columns hold one non-star, the cell itself.  Each row's
    # non-star mask, masked by the symbol's columns, holds its own cell's
    # bit, so the n of them hold n bits in all exactly when no row holds
    # more.  A repeated row would count both its cells twice, so rows are
    # distinct too.  A plain loop over the rows, whose subscripts the
    # interpreter specializes, beats chained maps here, most on symbols of
    # few cells.
    bit = (1).__lshift__
    nonstar = [0] * p.f
    for rows, cols in cells.values():
        for j, b in zip(rows, map(bit, cols)):
            nonstar[j] |= b
    for sym, (rows, cols) in cells.items():
        mine, left = sum(map(bit, cols)), len(cols)
        if mine.bit_count() == left:
            for j in rows:
                left -= (nonstar[j] & mine).bit_count()
            if not left:
                continue
        detail = _c3_failure(grid, sym, rows, cols)
        if detail:
            return ValidationReport(False, "C3", detail)
    return ValidationReport(True)


def _c3_failure(grid, sym: int, rows: list, cols: list) -> str | None:
    """What the definition's scan says of the first pair of sym's cells, in
    row-major pair order, that breaks C3; None if no pair does."""
    occ = list(zip(rows, cols))
    for a in range(len(occ)):
        j1, k1 = occ[a]
        for b in range(a + 1, len(occ)):
            j2, k2 = occ[b]
            if j1 == j2 or k1 == k2:
                return f"symbol {sym} repeats in a row or column at ({j1},{k1}) and ({j2},{k2})"
            if grid[j1][k2] != STAR or grid[j2][k1] != STAR:
                return (f"cells ({j1},{k1}) and ({j2},{k2}) share symbol {sym} "
                        f"but a crossing cell is not a star")
    return None


def scheme_parameters(p: Pda) -> tuple[int, int, Fraction, Fraction]:
    """(K, subpacketization F, cache fraction M/N, rate R), fractions exact."""
    return p.k, p.f, Fraction(p.q, p.f), Fraction(p.s, p.f)


def canonical_relabel(p: Pda) -> Pda:
    """Renumber symbols 1..S in first-occurrence row-major order.  An array
    whose symbols already first occur as 1..S, with S their count, is
    returned as it is."""
    order = dict.fromkeys(filter(None, chain.from_iterable(p.grid)))  # STAR is 0
    if len(order) == p.s and list(order) == list(range(1, p.s + 1)):  # no range for a huge S
        return p
    label = dict(zip(order, range(1, len(order) + 1)))
    label[STAR] = STAR
    return Pda._trusted(p.k, p.f, p.q, len(order),
                        tuple(tuple(map(label.__getitem__, row)) for row in p.grid))


# --- text format ----------------------------------------------------------
#
# First line: "K F Q S", each an ASCII decimal.  Then F lines of K tokens,
# each "*" or an ASCII decimal symbol without leading zeros.  A line ends at
# "\n", and a "\r" just before it is dropped; tokens are separated by runs
# of spaces and tabs; a line of only spaces and tabs is skipped.  Every other
# character, other Unicode whitespace too, is part of a token, so makes it a
# bad one.


class _Tokens(dict):
    """Entry -> its token, each made on first lookup: a table sized by the
    entries that occur, never by the largest of them."""

    def __missing__(self, v: int) -> str:
        tok = self[v] = str(v)
        return tok


def format_pda(p: Pda) -> str:
    token = _Tokens({STAR: "*"}).__getitem__
    lines = [f"{p.k} {p.f} {p.q} {p.s}"]
    lines.extend(" ".join(map(token, row)) for row in p.grid)
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
    grid = []
    for ln in lines[1:]:
        row = tuple(map(symbol, _fields(ln)))  # raises on the row's first bad token
        if len(row) != k:
            raise PdaFormatError(f"row {ln!r} has {len(row)} entries, expected {k}")
        grid.append(row)
    return Pda._trusted(k, f, q, s, tuple(grid))


# --- JSON variant ---------------------------------------------------------


def pda_to_json(p: Pda, provenance: dict | None = None) -> dict:
    out = {
        "K": p.k, "F": p.f, "Q": p.q, "S": p.s,
        "grid": [["*" if v == STAR else v for v in row] for row in p.grid],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def pda_from_json(obj: dict) -> Pda:
    try:
        k, f, q, s = (obj[key] for key in ("K", "F", "Q", "S"))  # Pda checks types
        rows = list(obj["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PdaFormatError(f"malformed PDA object: {exc}") from None
    grid = []
    for row in rows:
        if not isinstance(row, list):
            raise PdaFormatError(f"grid row must be a list, got {row!r}")
        cells = []
        for v in row:
            if v == "*":
                cells.append(STAR)
            elif type(v) is int and v > 0:
                cells.append(v)
            else:
                raise PdaFormatError(f"bad grid value {v!r}")
        grid.append(tuple(cells))
    try:
        return Pda._trusted(k, f, q, s, tuple(grid))
    except ValueError as exc:
        raise PdaFormatError(str(exc)) from None
