"""Exact arithmetic over GF(q) for prime q and binary extensions q = 2^m.

Field elements are plain integers in [0, q); a FiniteField instance supplies
the operations.  Prime fields use residue arithmetic.  Binary extension
fields represent elements as bit patterns (bit i is the coefficient of x^i),
reduce by a canonical irreducible polynomial (the numerically smallest one of
each degree), and multiply through log/exp tables.  Every result is fully
reduced, so serialized symbols are bit-exact across runs.

The tables are powers of a generator g, the first of 2, 3, ... whose order
is q - 1; the order test needs only g^((q-1)/p) for each prime p dividing
q - 1.  The powers are stepped in one pass through two byte-split tables of
products with g.  g must stay the first primitive element: every symbol a
binary field puts into a report goes through these tables.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import FieldConstructionError

# log/exp tables become unreasonable past this order
_TABLE_LIMIT = 1 << 16


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIMALITY_LIMIT."""
    if n >= PRIMALITY_LIMIT:
        raise FieldConstructionError(
            f"primality is decided exactly only below {PRIMALITY_LIMIT}, got {n}"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41 and none above sqrt(n)
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


def _poly_mod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_pow(a: int, e: int, mod: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a), mod)
        a = _poly_mod(_poly_mul(a, a), mod)
        e >>= 1
    return out


def _prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly: int) -> bool:
    # trial division by every polynomial of degree 1..deg/2
    deg = poly.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, div) == 0:
                return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(m: int) -> int:
    """Smallest irreducible polynomial of degree m over GF(2), as an integer."""
    # constant term must be 1, otherwise x divides the polynomial
    for cand in range((1 << m) + 1, 1 << (m + 1), 2):
        if _is_irreducible(cand):
            return cand
    raise FieldConstructionError(f"no irreducible polynomial of degree {m}")


class FiniteField:
    """Arithmetic over GF(q).

    q must be prime or a power of two (general prime powers are out of
    scope).  Instances are immutable and safe to share across workers; all
    operations are pure functions of their integer arguments.
    """

    __slots__ = ("q", "kind", "modulus", "_exp", "_log")

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2:
            raise FieldConstructionError(f"field order must be an integer >= 2, got {q!r}")
        if is_prime(q):
            self.q = q
            self.kind = "prime"
            self.modulus = None
            self._exp = self._log = None
        elif q & (q - 1) == 0:
            if q > _TABLE_LIMIT:
                raise FieldConstructionError(
                    f"binary fields are supported up to 2^16, got q={q}"
                )
            self.q = q
            self.kind = "binary-extension"
            self.modulus = canonical_modulus(q.bit_length() - 1)
            self._build_tables()
        else:
            raise FieldConstructionError(
                f"q={q} is neither prime nor a power of two"
            )

    def _build_tables(self):
        """Fill _exp (i -> g^i) and _log (its inverse) for the first primitive g.

        g is found by the order test, not by walking each candidate's powers.
        Multiplication by g is linear over GF(2), so x*g is the XOR of the
        products of x's low byte and high byte with g: two tables of at most
        256 entries each make every step of the power walk two lookups.
        """
        q, mod = self.q, self.modulus
        n = q - 1
        primes = _prime_factors(n)
        for g in range(2, q):
            if all(_poly_pow(g, n // p, mod) != 1 for p in primes):
                break
        else:
            raise FieldConstructionError(f"no primitive element found for q={q}")
        lo = [_poly_mod(_poly_mul(a, g), mod) for a in range(min(q, 256))]
        hi = [_poly_mod(_poly_mul(a << 8, g), mod) for a in range(max(q >> 8, 1))]
        exp = [0] * n
        log = [0] * q
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = lo[x & 255] ^ hi[x >> 8]
        # log[1] != 0 means the walk met 1 again before step q - 1
        if x != 1 or log[1] != 0:
            raise FieldConstructionError(f"no primitive element found for q={q}")
        self._exp = exp
        self._log = log

    # scalar operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a + b) % self.q
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a - b) % self.q
        return a ^ b

    def neg(self, a: int) -> int:
        if self.modulus is None:
            return (-a) % self.q
        return a

    def mul(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.modulus is None:
            return pow(a, -1, self.q)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.modulus is None:
            return pow(a, e, self.q)
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # vector helpers used by linalg and the protocol hot path --------------

    def dot(self, xs, ys) -> int:
        if self.modulus is None:
            return sum(map(operator.mul, xs, ys)) % self.q
        mul = self.mul
        s = 0
        for x, y in zip(xs, ys):
            s ^= mul(x, y)
        return s

    def row_scale(self, row, c):
        if self.modulus is None:
            q = self.q
            return [(c * x) % q for x in row]
        mul = self.mul
        return [mul(c, x) for x in row]

    def row_addmul(self, dst, src, c):
        """dst + c*src, elementwise."""
        if self.modulus is None:
            q = self.q
            return [(d + c * s) % q for d, s in zip(dst, src)]
        mul = self.mul
        return [d ^ mul(c, s) for d, s in zip(dst, src)]

    # ----------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteField) and other.q == self.q

    def __hash__(self):
        return hash(("FiniteField", self.q))

    def __repr__(self):
        if self.modulus is None:
            return f"GF({self.q})"
        return f"GF(2^{self.q.bit_length() - 1})"


@lru_cache(maxsize=None)
def make_field(q: int) -> FiniteField:
    """Field factory; returns a shared instance per order."""
    return FiniteField(q)

