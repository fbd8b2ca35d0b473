"""Linear subspaces of F_q^k with canonical bases and exact counting.

Every subspace is represented by its reduced row-echelon basis, which is
unique, so subspaces compare and hash by value.  Enumeration is total and
deterministic: pivot-column sets in lexicographic order, then free entries
in counting order.
"""

import itertools
from dataclasses import dataclass
from operator import add, mul

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
        a & c == a.  Computed afresh on every call.
        """
        return next(_point_masks(self.field, self.ambient, [self.basis]))

    @classmethod
    def _trusted(cls, field: FieldSpec, ambient: int, basis: tuple) -> "Subspace":
        """Subspace(field, ambient, basis) for a basis already known to be a
        valid RREF basis, without the checks."""
        s = object.__new__(cls)
        s.__dict__.update(field=field, ambient=ambient, basis=basis)  # frozen: no __setattr__
        return s

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


def _point_masks(field: FieldSpec, ambient: int, bases):
    """Subspace.points_mask() of each RREF basis in bases, in order.

    For q = 2^e, F_q elements are e-bit strings added by XOR, so vector
    indices add by XOR: the span is the XOR closure of the rows' multiples,
    and the closure of all rows but the last carries over to the next basis
    that shares them, as consecutive bases in enumeration order mostly do.
    For odd q, digit j of a vector of the span depends on column j of the
    basis alone, so the indices of its q^dim vectors are a sum of one list
    per column, each computed once per (j, column).
    """
    els, bit = field.elements(), (1).__lshift__
    weights = [field.q ** i for i in range(ambient)]
    scale = [[field.mul(c, b) for b in els] for c in els]  # scale[c][b] = c * b
    memo: dict = {}  # per row its nonzero multiples' indices; per (j, column) a list

    def multiples(row):
        if row not in memo:
            memo[row] = [sum(map(mul, weights, map(by.__getitem__, row))) for by in scale[1:]]
        return memo[row]

    prefix, closure, closure_mask = (), [0], 1
    for basis in bases:
        if field.p == 2 and basis:
            if basis[:-1] != prefix:
                prefix, closure = basis[:-1], [0]
                for row in prefix:
                    closure += [a ^ m for m in multiples(row) for a in closure]
                closure_mask = sum(map(bit, closure))
            yield closure_mask + sum(map(bit, [a ^ m for m in multiples(basis[-1])
                                               for a in closure]))
            continue
        indices = [0] * field.q ** len(basis)
        for j, column in enumerate(zip(*basis)):
            part = memo.get((j, column))
            if part is None:
                digits = [0]
                for entry in column:
                    digits = [field.add(d, by[entry]) for by in scale for d in digits]
                part = memo[j, column] = [weights[j] * d for d in digits]
            indices = list(map(add, indices, part))
        yield sum(map(bit, indices))


def _bases(field: FieldSpec, ambient: int, dim: int):
    """The RREF bases of all dim-dimensional subspaces of F_q^ambient, in
    enumeration order: pivot-column sets in lexicographic order, then the
    free entries, row-major, in counting order.  Every row is a tuple shared
    by the bases that hold it.  Each pivot set's first basis goes through
    Subspace(...), which checks the pattern, and every row's free entries are
    checked against the field, so every basis yielded is a valid one."""
    if not 0 <= dim <= ambient:
        raise ValueError(f"need 0 <= dim <= ambient, got dim={dim}, ambient={ambient}")
    q, els = field.q, field.elements()
    for pivot_cols in itertools.combinations(range(ambient), dim):
        choices = []  # per row, every row it can be, in counting order
        for p in pivot_cols:
            free = [j for j in range(p + 1, ambient) if j not in pivot_cols]
            rows = []
            for values in itertools.product(els, repeat=len(free)):
                if not all(0 <= v < q for v in values):
                    raise ValueError("basis entry outside the field")
                row = [0] * ambient
                row[p] = 1
                for j, v in zip(free, values):
                    row[j] = v
                rows.append(tuple(row))
            choices.append(rows)
        Subspace(field, ambient, tuple(rows[0] for rows in choices))
        yield from itertools.product(*choices)


def enumerate_subspaces(field: FieldSpec, ambient: int, dim: int) -> list[Subspace]:
    """All dim-dimensional subspaces of F_q^ambient in a fixed total order."""
    return [Subspace._trusted(field, ambient, basis) for basis in _bases(field, ambient, dim)]


def subspaces_and_masks(field: FieldSpec, ambient: int,
                        dim: int) -> tuple[list[Subspace], list[int]]:
    """enumerate_subspaces(field, ambient, dim) and each subspace's
    points_mask(), from one enumeration."""
    bases = list(_bases(field, ambient, dim))
    return ([Subspace._trusted(field, ambient, basis) for basis in bases],
            list(_point_masks(field, ambient, bases)))


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
