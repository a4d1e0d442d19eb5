"""Exact arithmetic over GF(q) for prime q and binary extensions q = 2^m.

Field elements are plain integers in [0, q); a FiniteField instance supplies
the operations.  Prime fields use residue arithmetic.  Binary extension
fields represent elements as bit patterns (bit i is the coefficient of x^i),
reduce by a canonical irreducible polynomial (the numerically smallest one of
each degree), and multiply through log/exp tables.  Every result is fully
reduced, so serialized symbols are bit-exact across runs.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldConstructionError

# log/exp tables become unreasonable past this order
_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        q, mod = self.q, self.modulus
        for g in range(2, q):
            exp = [0] * (q - 1)
            x = 1
            ok = True
            for i in range(q - 1):
                exp[i] = x
                x = _poly_mod(_poly_mul(x, g), mod)
                if x == 1 and i < q - 2:
                    ok = False
                    break
            if ok and x == 1:
                log = [0] * q
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp = exp
                self._log = log
                return
        raise FieldConstructionError(f"no primitive element found for q={q}")

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
            s = 0
            for x, y in zip(xs, ys):
                s += x * y
            return s % self.q
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

    def to_json(self) -> dict:
        if self.modulus is None:
            return {"q": self.q}
        return {"q": self.q, "modulus": self.modulus}


@lru_cache(maxsize=None)
def make_field(q: int) -> FiniteField:
    """Field factory; returns a shared instance per order."""
    return FiniteField(q)


def field_from_json(doc: dict) -> FiniteField:
    field = make_field(int(doc["q"]))
    if "modulus" in doc and field.modulus != int(doc["modulus"]):
        raise FieldConstructionError(
            f"modulus {doc['modulus']} is not the canonical one for q={doc['q']}"
        )
    return field
