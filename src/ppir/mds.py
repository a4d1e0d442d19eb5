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
positions, which inverts only the block of P = G[:, k:] that joins the
unknown message positions to the known parity positions (see
_recovery_matrix).  Both go through `_combine`.

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
tested against.  Every symbol is range-checked (CorruptionError): short
rows one symbol at a time, unpacked long rows by min and max, packed rows a
whole packed word at a time.  Both paths return tuples of plain ints.

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
        """Rows giving the positions outside `positions`, in order, from those k.

        `positions` is sorted, so it lists the known message positions S
        before the known parity positions J.  The unknown message positions
        U = [0, k) - S number |J|, and the parity equations at J read
        c_J - x_S P_SJ = x_U P_UJ; any square block of P is invertible (the
        MDS property), so x_U = (c_J - x_S P_SJ) P_UJ^-1 needs only a
        |J| x |J| inverse.  The parity positions outside J then follow from
        their columns of P.  The map is unique, so this equals G^T A^-1 for
        A the generator's columns at `positions`.
        """
        cache = self._recovery
        cached = cache.pop(positions, None)
        if cached is None:
            f = self.field
            gen = self.generator
            k = self.k
            known = [p for p in positions if p < k]
            parity = positions[len(known):]
            unknown = [u for u in range(k) if u not in known]
            cached = []
            if unknown:
                inv = linalg.invert(f, [[gen[u][j] for j in parity] for u in unknown])
                via_known = linalg.mat_mul(f, [[gen[s][j] for j in parity] for s in known], inv)
                # x_u over the k known positions, one row per u in U
                cached = [
                    [f.neg(row[a]) for row in via_known] + [row[a] for row in inv]
                    for a in range(len(unknown))
                ]
            columns = list(zip(*cached))
            for t in range(k, self.n):
                if t in parity:
                    continue
                direct = [gen[s][t] for s in known] + [0] * len(parity)
                through = [gen[u][t] for u in unknown]
                cached.append(
                    [f.add(d, f.dot(through, col)) for d, col in zip(direct, columns)]
                    if unknown else direct
                )
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
    lies in [0, q).  Short rows are checked symbol by symbol, long rows too
    wide to pack by min and max, and packed rows word by word in
    _combine_packed.
    """
    length = len(rows[0])
    for row in rows:
        if len(row) != length:
            raise CorruptionError(f"rows of lengths {length} and {len(row)}")
    q = field.q
    if length < _PACK_MIN_LEN:
        for row in rows:
            for s in row:
                if not 0 <= s < q:
                    raise CorruptionError(f"symbol outside [0, {q})")
        return _combine_scalar(field, coeffs, list(zip(*rows)))
    bits = _slot_bits(field, len(rows))
    if bits is None:
        for row in rows:
            if min(row) < 0 or max(row) >= q:
                raise CorruptionError(f"symbol outside [0, {q})")
        return _combine_scalar(field, coeffs, list(zip(*rows)))
    return _combine_packed(field, coeffs, rows, bits)


def _combine_scalar(field: FiniteField, coeffs, cols):
    """The column loop: one dot product per output symbol."""
    dot = field.dot
    return [tuple([dot(c, col) for col in cols]) for c in coeffs]


def _combine_packed(field: FiniteField, coeffs, rows, bits):
    """_combine with each row packed into one int of `bits`-bit slots.

    Raises CorruptionError unless every symbol lies in [0, q).  A negative
    symbol or one too wide for its slot fails to pack (OverflowError).  In a
    packed row, a slot value s >= q either sets the slot's top bit, or sets
    it once 2^(bits-1) - q is added to every slot: q <= 2^(bits-1) for every
    slot width _slot_bits picks, so for s < 2^(bits-1) that sum stays below
    2^bits and no carry crosses into the next slot.
    """
    typecode = _SLOT_TYPECODES[bits]
    order = sys.byteorder
    length = len(rows[0])
    size = length * bits // 8
    q = field.q
    try:
        packed = [int.from_bytes(array(typecode, row).tobytes(), order) for row in rows]
    except OverflowError:
        raise CorruptionError(f"symbol outside [0, {q})") from None
    ones = int.from_bytes(array(typecode, [1]).tobytes() * length, order)
    top_bits = ones << (bits - 1)
    lift = ones * ((1 << (bits - 1)) - q)
    for x in packed:
        if (x | (x + lift)) & top_bits:
            raise CorruptionError(f"symbol outside [0, {q})")
    if field.modulus is None:
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
