"""Systematic maximum-distance-separable codes with erasure decoding.

The generator is a systematic Reed-Solomon matrix: evaluate at the fixed
point sequence 0, 1, ..., n-1 (as field elements) and row-reduce so the
first k columns form the identity.  Any k columns of the result are
invertible (the MDS property), so any k known codeword coordinates determine
the whole codeword.  The construction is deterministic, which keeps encoded
payloads reproducible for a given (n, k, q).

Encoding and decoding are one operation: a small coefficient matrix times k
rows of L symbols.  Encoding uses the n-k parity columns of the generator,
built once per code; decoding uses the recovery matrix of the known
positions, G^T A^-1 with A the k x k generator submatrix at those positions.
Both go through `_combine`.

For L >= _PACK_MIN_LEN each row is packed into one Python int with a
fixed-width slot per symbol (the packed-word idea of Plank, Greenan and
Miller, "Screaming Fast Galois Field Arithmetic Using Intel SIMD
Instructions", FAST 2013, on big integers), so each big-int operation acts
on all L symbols:

- GF(p): slots hold k(q-1)^2, so sum_i c_i X_i accumulates without carries
  between slots and is reduced mod q once per symbol when unpacked.
- GF(2^m): slots hold at least 2m-1 bits; c * X is an XOR of shifted copies
  of X, reduced by the field modulus in a few masked big-int steps.

Below that length packing saves little or loses (it lost at L <= 4 on
GF(2^8), at L <= 8 on GF(2^16) and at L <= 2 on small prime codes), and
slots wider than 64 bits have no array type, so those calls take the column
loop over FiniteField.dot, which is also the reference the packed kernel is
tested against.  Symbols are range-checked (CorruptionError) before either
path, and both return tuples of plain ints.

Each code keeps the recovery matrices of its last _RECOVERY_CACHE_SIZE
erasure patterns: protocol rounds over short messages repeat a few patterns,
while long-message rounds rarely repeat one and would otherwise grow the
cache with every round.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from . import linalg
from .errors import (
    CorruptionError,
    InsufficientInformationError,
    UnsupportedParametersError,
)
from .fields import FiniteField, make_field

# shortest row length that takes the packed kernel
_PACK_MIN_LEN = 16
_RECOVERY_CACHE_SIZE = 32
# array typecode per slot width in bits
_SLOT_TYPECODES = {array(c).itemsize * 8: c for c in "QLIHB"}


class SystematicMdsCode:
    """[n, k] systematic MDS code over GF(q), n <= q."""

    __slots__ = ("n", "k", "field", "generator", "_parity", "_recovery")

    def __init__(self, n: int, k: int, field: FiniteField):
        if not 1 <= k <= n:
            raise UnsupportedParametersError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n > field.q:
            raise UnsupportedParametersError(
                f"code length {n} exceeds field size {field.q}"
            )
        self.n = n
        self.k = k
        self.field = field
        self.generator = self._build_generator()
        # row j holds the coefficients of parity symbol k + j
        self._parity = tuple(zip(*self.parity_columns))
        self._recovery = {}

    def _build_generator(self):
        f = self.field
        # Vandermonde rows; points are the integers 0..n-1 read as elements
        vand = [[f.pow(p, i) for p in range(self.n)] for i in range(self.k)]
        lead = [row[: self.k] for row in vand]
        sys_rows = linalg.mat_mul(f, linalg.invert(f, lead), vand)
        return tuple(tuple(r) for r in sys_rows)

    @property
    def parity_columns(self):
        """k x (n-k) block P of the generator [I | P]."""
        return tuple(tuple(row[self.k:]) for row in self.generator)

    def encode(self, message_rows):
        """k message rows of length L -> n codeword rows."""
        if len(message_rows) != self.k:
            raise ValueError(f"expected {self.k} message rows, got {len(message_rows)}")
        out = [tuple(r) for r in message_rows]
        out.extend(self.parity_rows(message_rows))
        return out

    def parity_rows(self, message_rows):
        if len(message_rows) != self.k:
            raise ValueError(f"expected {self.k} message rows, got {len(message_rows)}")
        return _combine(self.field, self._parity, message_rows)

    def _recovery_matrix(self, positions):
        """Rows of G^T A^-1 for the positions outside `positions`, in order."""
        cache = self._recovery
        cached = cache.pop(positions, None)
        if cached is None:
            f = self.field
            gen = self.generator
            # columns of the generator at the known positions, transposed
            a_t = [[gen[r][p] for r in range(self.k)] for p in positions]
            rest = [
                [gen[r][j] for r in range(self.k)]
                for j in range(self.n)
                if j not in positions
            ]
            cached = linalg.mat_mul(f, rest, linalg.invert(f, a_t))
            if len(cache) >= _RECOVERY_CACHE_SIZE:
                del cache[next(iter(cache))]  # least recently used
        cache[positions] = cached
        return cached

    def erasure_decode(self, known):
        """Reconstruct the codeword from >= k known (position, row) pairs.

        Raises InsufficientInformationError below k distinct positions and
        CorruptionError when a position is outside [0, n), a symbol is
        outside [0, q), rows differ in length, or over-determined input is
        inconsistent.
        """
        by_pos = {}
        for pos, row in known:
            if not 0 <= pos < self.n:
                raise CorruptionError(f"position {pos} outside [0, {self.n})")
            row = tuple(row)
            if pos in by_pos and by_pos[pos] != row:
                raise CorruptionError(f"conflicting rows supplied for position {pos}")
            by_pos[pos] = row
        if len(by_pos) < self.k:
            raise InsufficientInformationError(
                f"need {self.k} known positions, got {len(by_pos)}"
            )
        base = tuple(sorted(by_pos))[: self.k]
        full = [None] * self.n
        for p in base:
            full[p] = by_pos[p]
        rest = [p for p in range(self.n) if full[p] is None]
        rows = _combine(self.field, self._recovery_matrix(base), [full[p] for p in base])
        for pos, row in zip(rest, rows):
            if pos in by_pos and by_pos[pos] != row:
                raise CorruptionError(f"known row at position {pos} is inconsistent")
            full[pos] = row
        return full


def _slot_bits(field: FiniteField, k: int):
    """Packed slot width for k input rows, or None above 64 bits."""
    if field.modulus is None:
        need = (k * (field.q - 1) ** 2).bit_length()
    else:
        need = 2 * field.modulus.bit_length() - 3  # 2m - 1
    return next((bits for bits in (8, 16, 32, 64) if need <= bits), None)


def _combine(field: FiniteField, coeffs, rows):
    """coeffs (r x k) times rows (k x L): r tuples of L symbols.

    Raises CorruptionError unless the rows have one length and every symbol
    lies in [0, q).
    """
    length = len(rows[0])
    for row in rows:
        if len(row) != length:
            raise CorruptionError(f"rows of lengths {length} and {len(row)}")
    bits = _slot_bits(field, len(rows)) if length >= _PACK_MIN_LEN else None
    # range-check along the shorter axis: columns when L is short, rows otherwise
    lines = list(zip(*rows)) if bits is None else rows
    q = field.q
    for line in lines:
        if min(line) < 0 or max(line) >= q:
            raise CorruptionError(f"symbol outside [0, {q})")
    if bits is None:
        return _combine_scalar(field, coeffs, lines)
    return _combine_packed(field, coeffs, rows, bits)


def _combine_scalar(field: FiniteField, coeffs, cols):
    """The column loop: one dot product per output symbol."""
    dot = field.dot
    return [tuple(dot(c, col) for col in cols) for c in coeffs]


def _combine_packed(field: FiniteField, coeffs, rows, bits):
    """_combine with each row packed into one int of `bits`-bit slots."""
    typecode = _SLOT_TYPECODES[bits]
    order = sys.byteorder
    length = len(rows[0])
    size = length * bits // 8
    packed = [int.from_bytes(array(typecode, row).tobytes(), order) for row in rows]
    if field.modulus is None:
        q = field.q
        out = []
        for cs in coeffs:
            acc = 0
            for c, x in zip(cs, packed):
                if c:
                    acc += c * x
            out.append(tuple([s % q for s in array(typecode, acc.to_bytes(size, order))]))
        return out
    mod = field.modulus
    m = mod.bit_length() - 1
    # c * X is the XOR of X << b over the set bits b of c
    accs = [0] * len(coeffs)
    for i, x in enumerate(packed):
        for b in range(m):
            shifted = x << b
            for j, cs in enumerate(coeffs):
                if cs[i] >> b & 1:
                    accs[j] ^= shifted
    # x^m = sum of the modulus's low terms; fold slot bits m..top down by
    # that until every slot is below degree m
    low_terms = [b for b in range(m) if mod >> b & 1]
    ones = int.from_bytes(array(typecode, [1] * length).tobytes(), order)
    folds = []
    top = 2 * m - 2
    while top >= m:
        folds.append(ones * (((1 << (top - m + 1)) - 1) << m))
        top += low_terms[-1] - m
    out = []
    for acc in accs:
        for mask in folds:
            high = acc & mask
            acc ^= high
            high >>= m
            for b in low_terms:
                acc ^= high << b
        out.append(tuple(array(typecode, acc.to_bytes(size, order))))
    return out


@lru_cache(maxsize=None)
def make_mds(n: int, k: int, q: int) -> SystematicMdsCode:
    """Shared code instance per (n, k, q)."""
    return SystematicMdsCode(n, k, make_field(q))
