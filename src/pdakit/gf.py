"""Arithmetic over the small finite fields used by the geometry constructions.

Field elements are plain ints 0..q-1.  For a prime field they are residues;
for an extension field F_{p^d} the int encodes a polynomial's coefficient
vector in base p, constant digit least significant.
"""

import functools
from dataclasses import dataclass
from itertools import product

# Reduction polynomials for the supported extension orders, as coefficient
# tuples over F_p with the constant term first.  Each is monic and irreducible.
_EXTENSION_MODULI = {
    4: (2, (1, 1, 1)),      # x^2 + x + 1 over F_2
    8: (2, (1, 1, 0, 1)),   # x^3 + x + 1 over F_2
    9: (3, (1, 0, 1)),      # x^2 + 1 over F_3
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, mod, p):
    """Remainder of a divided by mod, coefficients over F_p, constant first.
    mod is monic: FieldSpec refuses another modulus, and the irreducibility
    test divides only by monic polynomials."""
    a = _poly_trim(a)
    while len(a) >= len(mod):
        shift = len(a) - len(mod)
        factor = a[-1]
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = _poly_trim(a)
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_is_irreducible(coeffs, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2 over F_p."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        # all monic divisor candidates of degree d
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_q with q = p^d.

    modulus is the reduction polynomial (constant term first, monic, degree d);
    for prime fields it is the degree-1 placeholder x.
    """

    q: int
    p: int
    d: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.d < 1 or self.q != self.p ** self.d:
            raise ValueError(f"order {self.q} != {self.p}^{self.d}")
        if len(self.modulus) != self.d + 1:
            raise ValueError("reduction polynomial degree must equal d")
        if self.modulus[-1] != 1:
            raise ValueError("reduction polynomial must be monic")
        if any(not 0 <= c < self.p for c in self.modulus):
            raise ValueError("reduction polynomial coefficients out of range")
        if not _poly_is_irreducible(list(self.modulus), self.p):
            raise ValueError(f"reduction polynomial {self.modulus} is reducible over F_{self.p}")

    @classmethod
    def for_order(cls, q: int) -> "FieldSpec":
        if is_prime(q):
            return cls(q, q, 1, (0, 1))
        if q in _EXTENSION_MODULI:
            p, modulus = _EXTENSION_MODULI[q]
            d = len(modulus) - 1
            return cls(q, p, d, modulus)
        raise ValueError(f"unsupported field order {q} (primes and 4, 8, 9 only)")

    def elements(self) -> range:
        return range(self.q)

    # --- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        return _ext_tables(self).add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.d == 1:
            return (-a) % self.p
        return _ext_tables(self).neg[a]

    def mul(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a * b) % self.p
        return _ext_tables(self).mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.d == 1:
            return pow(a, -1, self.p)
        return _ext_tables(self).inv[a]


def _poly_to_int(c, p, d):
    c = list(c) + [0] * d
    return sum(c[i] * p ** i for i in range(d))


@dataclass(frozen=True)
class _Tables:
    add: tuple
    neg: tuple
    mul: tuple
    inv: tuple


@functools.lru_cache(maxsize=None)
def _ext_tables(spec: FieldSpec) -> _Tables:
    """Full operation tables for an extension field; q <= 9 so these are tiny."""
    p, d, q = spec.p, spec.d, spec.q
    # element n's base-p digits, constant first: product counts last digit fastest
    polys = [digits[::-1] for digits in product(range(p), repeat=d)]
    add = tuple(
        tuple(_poly_to_int([(x + y) % p for x, y in zip(polys[a], polys[b])], p, d)
              for b in range(q))
        for a in range(q)
    )
    neg = tuple(_poly_to_int([(-x) % p for x in polys[a]], p, d) for a in range(q))
    mul = tuple(
        tuple(_poly_to_int(_poly_mod(_poly_mul(polys[a], polys[b], p), list(spec.modulus), p), p, d)
              for b in range(q))
        for a in range(q)
    )
    # FieldSpec checked the modulus irreducible, so every nonzero a is a unit
    inv = (0, *(mul[a].index(1) for a in range(1, q)))
    return _Tables(add, neg, mul, inv)
