"""Linear subspaces of F_q^k with canonical bases and exact counting.

Every subspace is represented by its reduced row-echelon basis, which is
unique, so subspaces compare and hash by value.  Enumeration is total and
deterministic: pivot-column sets in lexicographic order, then free entries
in counting order.
"""

import functools
import itertools
from dataclasses import dataclass
from operator import mul

from .gf import FieldSpec


def gaussian_binomial(l: int, m: int, q) -> int:
    """Number of m-dimensional subspaces of an l-dimensional space over F_q.

    q may be an int or a FieldSpec.
    """
    if isinstance(q, FieldSpec):
        q = q.q
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if not 0 <= m <= l:
        raise ValueError(f"need 0 <= m <= l, got l={l}, m={m}")
    num = den = 1
    for i in range(m):
        num *= q ** (l - i) - 1
        den *= q ** (m - i) - 1
    if num % den:
        raise AssertionError("q-binomial did not divide exactly")
    return num // den


def rref(field: FieldSpec, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduce rows over the field; returns (nonzero RREF rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    width = len(work[0])
    if any(len(r) != width for r in work):
        raise ValueError("rows must share a length")
    pivots = []
    rank = 0
    for col in range(width):
        src = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        scale = field.inv(work[rank][col])
        work[rank] = [field.mul(scale, v) for v in work[rank]]
        for i, row in enumerate(work):
            if i != rank and row[col] != 0:
                f = row[col]
                work[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(row, work[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^ambient, held as its RREF basis (one row per dimension)."""

    field: FieldSpec
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.field.q
        pivots = []
        for row in self.basis:
            if len(row) != self.ambient:
                raise ValueError("basis row length != ambient dimension")
            if any(not 0 <= v < q for v in row):
                raise ValueError("basis entry outside the field")
            p = next((j for j, v in enumerate(row) if v != 0), None)
            if p is None:
                raise ValueError("zero row in basis")
            if pivots and p <= pivots[-1]:
                raise ValueError("pivot columns must strictly increase")
            if row[p] != 1:
                raise ValueError("pivot entry must be 1")
            pivots.append(p)
        for i, row in enumerate(self.basis):
            for p in pivots[:i] + pivots[i + 1:]:
                if row[p] != 0:
                    raise ValueError("nonzero entry in another row's pivot column")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: "Subspace") -> bool:
        """True iff every basis row of other lies in the span of self."""
        self._check_compatible(other)
        pivots = [next(j for j, v in enumerate(r) if v != 0) for r in self.basis]
        f = self.field
        for row in other.basis:
            row = list(row)
            for p, brow in zip(pivots, self.basis):
                if row[p] != 0:
                    c = row[p]
                    row = [f.sub(v, f.mul(c, w)) for v, w in zip(row, brow)]
            if any(row):
                return False
        return True

    def intersects_trivially(self, other: "Subspace") -> bool:
        """True iff the two subspaces meet only in the zero vector."""
        self._check_compatible(other)
        stacked, _ = rref(self.field, self.basis + other.basis)
        return len(stacked) == self.dim + other.dim

    def points_mask(self) -> int:
        """The subspace's vectors as a bitmask over the q^ambient points.

        Vector v is bit sum(v[i] * q**i), so the zero vector is bit 0, two
        subspaces meet trivially iff a & b == 1, and a lies in c iff
        a & c == a.
        """
        return _points_mask(self)

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")


def span(field: FieldSpec, ambient: int, rows) -> Subspace:
    """Canonical subspace spanned by the given rows (possibly dependent or zero)."""
    for r in rows:
        if len(r) != ambient:
            raise ValueError("spanning row length != ambient dimension")
    basis, _ = rref(field, rows)
    return Subspace(field, ambient, basis)


@functools.lru_cache(maxsize=None)
def _points_mask(s: Subspace) -> int:
    f, els = s.field, s.field.elements()
    weights = [f.q ** i for i in range(s.ambient)]
    scale = [[f.mul(c, b) for b in els] for c in els[1:]]  # scale[c - 1][b] = c * b
    if f.p == 2:
        # F_{2^e} elements are e-bit strings added by XOR, so vector indices
        # add by XOR: the span is the XOR closure of the rows' multiples
        points = [0]
        for row in s.basis:
            multiples = [sum(map(mul, weights, map(by.__getitem__, row))) for by in scale]
            points += [a ^ m for m in multiples for a in points]
    else:
        vectors = [(0,) * s.ambient]
        for row in s.basis:
            vectors += [tuple(f.add(a, by[b]) for a, b in zip(v, row))
                        for by in scale for v in vectors]
        points = [sum(map(mul, weights, v)) for v in vectors]
    return sum([1 << i for i in points])


def enumerate_subspaces(field: FieldSpec, ambient: int, dim: int) -> list[Subspace]:
    """All dim-dimensional subspaces of F_q^ambient in a fixed total order."""
    if not 0 <= dim <= ambient:
        raise ValueError(f"need 0 <= dim <= ambient, got dim={dim}, ambient={ambient}")
    out = []
    for pivot_cols in itertools.combinations(range(ambient), dim):
        pivot_set = set(pivot_cols)
        # free slots, row-major: non-pivot columns to the right of each row's pivot
        free = [(i, j) for i in range(dim) for j in range(pivot_cols[i] + 1, ambient)
                if j not in pivot_set]
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [[0] * ambient for _ in range(dim)]
            for i, p in enumerate(pivot_cols):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(Subspace(field, ambient, tuple(tuple(r) for r in rows)))
    return out


def subspace_counts(q, k: int, m: int, s: int, t: int) -> tuple[int, int, int]:
    """Three closed-form subspace counts in F_q^k.

    Returns (a, b, c) where
      a: m-dimensional subspaces,
      b: m-dimensional subspaces containing a fixed s-dimensional subspace,
      c: m-dimensional subspaces whose intersection with a fixed t-dimensional
         subspace is a fixed s-dimensional subspace of it.
    """
    if isinstance(q, FieldSpec):
        q = q.q
    if not (0 <= m <= k and 0 <= t <= k and 0 <= s <= min(m, t)):
        raise ValueError(f"inadmissible parameters k={k}, m={m}, s={s}, t={t}")
    a = gaussian_binomial(k, m, q)
    b = gaussian_binomial(k - s, m - s, q)
    if m - s > k - t:
        c = 0
    else:
        c = q ** ((m - s) * (t - s)) * gaussian_binomial(k - t, m - s, q)
    return a, b, c
