import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ppir import linalg, mds
from ppir.errors import (
    CorruptionError,
    InsufficientInformationError,
    UnsupportedParametersError,
)
from ppir.fields import make_field
from ppir.mds import SystematicMdsCode, make_mds

# one length below the packed kernel's crossover and one above it
LENGTHS = (1, mds._PACK_MIN_LEN + 4)


def mds_minors_ok(code):
    """Independent check: every k x k column subset of the generator is invertible."""
    f = code.field
    for cols in itertools.combinations(range(code.n), code.k):
        sub = [[row[c] for c in cols] for row in code.generator]
        if linalg.rank(f, sub) != code.k:
            return False
    return True


def test_systematic_prefix_and_mds_small():
    code = make_mds(3, 2, 3)
    assert [list(row[:2]) for row in code.generator] == [[1, 0], [0, 1]]
    assert mds_minors_ok(code)


def test_degenerate_n_equals_k():
    code = make_mds(4, 4, 5)
    assert [list(r) for r in code.generator] == linalg.identity(4)
    assert code.parity_columns == ((), (), (), ())
    msg = [(1, 2), (3, 4), (0, 0), (4, 1)]
    assert code.encode(msg) == [tuple(r) for r in msg]


def test_5_3_code_all_minors():
    code = make_mds(5, 3, 5)
    assert mds_minors_ok(code)


def test_encode_fixed_generator_values():
    # [3,2] over GF(3): generator rows are (1,0,2) and (0,1,2), so the parity
    # symbol of messages (1,),(2,) is 1*2 + 2*2 = 6 = 0 mod 3
    code = make_mds(3, 2, 3)
    assert code.generator == ((1, 0, 2), (0, 1, 2))
    assert code.encode([(1,), (2,)]) == [(1,), (2,), (0,)]


def test_encode_zero_is_zero():
    code = make_mds(5, 3, 7)
    assert code.encode([(0, 0)] * 3) == [(0, 0)] * 5


def test_encode_row_count_mismatch():
    code = make_mds(3, 2, 3)
    with pytest.raises(ValueError):
        code.encode([(1,)])


def test_length_above_field_size_rejected():
    with pytest.raises(UnsupportedParametersError):
        make_mds(4, 2, 3)
    with pytest.raises(UnsupportedParametersError):
        make_mds(2, 3, 5)


def test_erasure_decode_all_pairs_3_2():
    # decode from every 2-subset of positions, for all 9 message pairs
    code = make_mds(3, 2, 3)
    for m0, m1 in itertools.product(range(3), repeat=2):
        cw = code.encode([(m0,), (m1,)])
        for positions in itertools.combinations(range(3), 2):
            known = [(p, cw[p]) for p in positions]
            assert code.erasure_decode(known) == cw


def test_decode_full_codeword_unchanged():
    code = make_mds(5, 3, 7)
    cw = code.encode([(1, 2), (3, 4), (5, 6)])
    assert code.erasure_decode(list(enumerate(cw))) == cw


def test_decode_below_dimension_errors():
    code = make_mds(3, 2, 3)
    cw = code.encode([(1,), (2,)])
    with pytest.raises(InsufficientInformationError):
        code.erasure_decode([(0, cw[0])])


def test_decode_inconsistent_errors():
    code = make_mds(4, 2, 5)
    for length in LENGTHS:
        cw = code.encode([(1,) * length, (2,) * length])
        flipped = cw[2][:-1] + ((cw[2][-1] + 1) % 5,)
        with pytest.raises(CorruptionError):
            code.erasure_decode([(0, cw[0]), (1, cw[1]), (2, flipped)])
        with pytest.raises(CorruptionError):
            code.erasure_decode([(0, (0,) * length), (0, (1,) * length), (1, cw[1])])


def test_decode_position_outside_code_is_corruption():
    code = make_mds(4, 2, 5)
    cw = code.encode([(1,), (2,)])
    for pos in (-1, 4, 9):
        with pytest.raises(CorruptionError, match="position"):
            code.erasure_decode([(0, cw[0]), (1, cw[1]), (pos, cw[2])])


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("bad", [-5, 2**40, 5])
def test_symbols_outside_field_are_corruption(length, bad):
    # symbols that array() cannot hold must still end in the typed error
    code = make_mds(4, 2, 5)
    cw = code.encode([(1,) * length, (2,) * length])
    tampered = (bad,) + cw[0][1:]
    with pytest.raises(CorruptionError, match="outside"):
        code.erasure_decode([(0, tampered), (1, cw[1])])
    with pytest.raises(CorruptionError):
        code.erasure_decode([(0, cw[0]), (1, cw[1]), (3, tampered)])
    with pytest.raises(CorruptionError, match="outside"):
        code.parity_rows([tampered, cw[1]])


@pytest.mark.parametrize("length", LENGTHS)
def test_rows_of_unequal_length_are_corruption(length):
    code = make_mds(4, 2, 5)
    cw = code.encode([(1,) * length, (2,) * length])
    with pytest.raises(CorruptionError, match="length"):
        code.erasure_decode([(0, cw[0]), (1, cw[1] + (0,))])
    with pytest.raises(CorruptionError, match="length"):
        code.parity_rows([cw[0], cw[1][:-1]])


def test_round_trip_exhaustive_tiny():
    # every message tuple, every recovery subset, q <= 5, k <= 3, L = 1
    for q in (2, 3, 5):
        for n in range(1, min(q, 5) + 1):
            for k in range(1, min(n, 3) + 1):
                code = make_mds(n, k, q)
                for msg in itertools.product(range(q), repeat=k):
                    cw = code.encode([(s,) for s in msg])
                    for pos in itertools.combinations(range(n), k):
                        assert code.erasure_decode([(p, cw[p]) for p in pos]) == cw


def test_parity_is_deterministic():
    a = make_mds(6, 3, 7).encode([(1,), (2,), (3,)])
    b = make_mds(6, 3, 7).encode([(1,), (2,), (3,)])
    assert a == b


@settings(max_examples=40)
@given(st.sampled_from([5, 7, 8, 16]), st.data())
def test_round_trip_random(q, data):
    n = data.draw(st.integers(2, min(q, 8)))
    k = data.draw(st.integers(1, n))
    length = data.draw(st.integers(1, 3) | st.integers(16, 40))
    code = make_mds(n, k, q)
    msg = [
        tuple(data.draw(st.integers(0, q - 1)) for _ in range(length))
        for _ in range(k)
    ]
    cw = code.encode(msg)
    assert [tuple(r) for r in cw[:k]] == [tuple(r) for r in msg]
    positions = data.draw(
        st.permutations(range(n)).map(lambda p: tuple(sorted(p[:k])))
    )
    assert code.erasure_decode([(p, cw[p]) for p in positions]) == cw


# every field with q <= 16, the benchmark's fields and their neighbours, and
# 2^31 - 1, whose slots exceed 64 bits from k = 5 on
KERNEL_FIELDS = [2, 3, 4, 5, 7, 8, 11, 13, 16, 256, 257, 65536, 65537, 2**31 - 1]


def _symbols(q):
    return st.sampled_from([0, q - 1]) | st.integers(0, q - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_packed_kernel_matches_column_loop(q, data):
    field = make_field(q)
    k = data.draw(st.integers(1, 12))
    r = data.draw(st.integers(0, 6))
    length = data.draw(st.integers(1, 40))
    coeffs = [[data.draw(_symbols(q)) for _ in range(k)] for _ in range(r)]
    if data.draw(st.booleans()):
        rows = [(q - 1,) * length] * k
    else:
        rows = [tuple(data.draw(_symbols(q)) for _ in range(length)) for _ in range(k)]
    reference = mds._combine_scalar(field, coeffs, list(zip(*rows)))
    assert mds._combine(field, coeffs, rows) == reference
    bits = mds._slot_bits(field, k)
    if q == 2**31 - 1 and k >= 5:
        assert bits is None
    if bits is not None:
        assert mds._combine_packed(field, coeffs, rows, bits) == reference


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_packed_kernel_extremes(q):
    # all-(q-1) coefficients and rows give the largest slot sums
    field = make_field(q)
    length = mds._PACK_MIN_LEN
    # k = 4 fills 64-bit slots exactly at q = 2^31 - 1
    for k in (1, 4, 12):
        bits = mds._slot_bits(field, k)
        if bits is None:
            assert q == 2**31 - 1 and k == 12
            continue
        rows = [(q - 1,) * length] * k
        for coeffs in ([[q - 1] * k] * 2, [[0] * k], []):
            reference = mds._combine_scalar(field, coeffs, list(zip(*rows)))
            assert mds._combine_packed(field, coeffs, rows, bits) == reference


@pytest.mark.parametrize("q", [5, 256, 257])
def test_n_equals_k_above_crossover(q):
    code = make_mds(4, 4, q)
    msg = [tuple((i * 7 + j) % q for j in range(20)) for i in range(4)]
    assert code.parity_rows(msg) == []
    assert code.erasure_decode(list(enumerate(msg))) == msg


def test_wide_prime_long_rows_take_the_unpacked_column_loop():
    # q = 2^32 + 15 is prime: a slot would need more than 64 bits, so rows of
    # L >= _PACK_MIN_LEN are range-checked by min and max and not packed
    q = 2**32 + 15
    code = make_mds(5, 3, q)
    assert mds._slot_bits(code.field, code.k) is None
    rng = random.Random(7)
    msg = [tuple(rng.randrange(q) for _ in range(mds._PACK_MIN_LEN)) for _ in range(code.k)]
    cw = code.encode(msg)
    assert code.erasure_decode([(p, cw[p]) for p in (1, 3, 4)]) == cw
    tampered = cw[3][:-1] + (q,)
    with pytest.raises(CorruptionError, match=rf"outside \[0, {q}\)"):
        code.erasure_decode([(1, cw[1]), (3, tampered), (4, cw[4])])


def test_recovery_cache_is_bounded():
    code = SystematicMdsCode(10, 5, make_field(11))
    msg = [tuple((3 * i + j) % 11 for j in range(20)) for i in range(5)]
    cw = code.encode(msg)
    patterns = list(itertools.combinations(range(10), 5))[: 2 * mds._RECOVERY_CACHE_SIZE]
    for positions in patterns + patterns[-3:]:
        assert code.erasure_decode([(p, cw[p]) for p in positions]) == cw
        assert len(code._recovery) <= mds._RECOVERY_CACHE_SIZE
    assert set(code._recovery) == set(patterns[-mds._RECOVERY_CACHE_SIZE:])


# (q, k, slot bits): every slot width over both field kinds, except 64-bit
# slots, which only prime fields need (GF(2^16) products fit in 31 bits)
RANGE_CHECK_CASES = [
    (5, 3, 8), (16, 3, 8),
    (101, 1, 16), (256, 3, 16),
    (257, 20, 32), (65536, 3, 32),
    (65537, 3, 64), (2**31 - 1, 4, 64),
]


@pytest.mark.parametrize("q,k,bits", RANGE_CHECK_CASES)
def test_packed_range_check_in_every_slot(q, k, bits):
    # the lift test alone catches q and q+1 ... 2^(bits-1) - 1; the top-bit
    # test and packing catch the rest
    field = make_field(q)
    assert mds._slot_bits(field, k) == bits
    assert q <= 1 << (bits - 1)
    length = mds._PACK_MIN_LEN + 3
    clean = [tuple((7 * i + 3 * j) % q for j in range(length)) for i in range(k)]
    coeffs = [[(i + 1) % q for i in range(k)], [q - 1] * k]
    for value in (q - 1, q, q + 1, 1 << (bits - 1), (1 << bits) - 1, 1 << bits, -1):
        for slot in (0, length // 2, length - 1):
            for r in sorted({0, k - 1}):
                rows = list(clean)
                rows[r] = rows[r][:slot] + (value,) + rows[r][slot + 1:]
                if all(0 <= s < q for row in rows for s in row):  # the per-symbol reference
                    reference = mds._combine_scalar(field, coeffs, list(zip(*rows)))
                    assert mds._combine_packed(field, coeffs, rows, bits) == reference
                    assert mds._combine(field, coeffs, rows) == reference
                else:
                    with pytest.raises(CorruptionError, match="outside"):
                        mds._combine_packed(field, coeffs, rows, bits)
                    with pytest.raises(CorruptionError, match="outside"):
                        mds._combine(field, coeffs, rows)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RANGE_CHECK_CASES), st.data())
def test_packed_range_check_matches_per_symbol_check(case, data):
    q, k, bits = case
    field = make_field(q)
    length = data.draw(st.integers(mds._PACK_MIN_LEN, 40))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = [tuple(rng.randrange(q) for _ in range(length)) for _ in range(k)]
    edges = st.sampled_from([q - 1, q, (1 << (bits - 1)) - 1, 1 << (bits - 1), -1])
    for _ in range(data.draw(st.integers(0, 3))):
        r = data.draw(st.integers(0, k - 1))
        slot = data.draw(st.integers(0, length - 1))
        value = data.draw(edges | st.integers(-(1 << bits), 1 << bits))
        rows[r] = rows[r][:slot] + (value,) + rows[r][slot + 1:]
    coeffs = [[1] * k]
    if all(0 <= s < q for row in rows for s in row):
        reference = mds._combine_scalar(field, coeffs, list(zip(*rows)))
        assert mds._combine_packed(field, coeffs, rows, bits) == reference
    else:
        with pytest.raises(CorruptionError, match="outside"):
            mds._combine_packed(field, coeffs, rows, bits)


def reference_recovery(code, positions):
    """G^T A^-1: the whole codeword from the k known positions, A inverted whole."""
    f, gen, k = code.field, code.generator, code.k
    a_t = [[gen[r][p] for r in range(k)] for p in positions]
    rest = [[gen[r][j] for r in range(k)] for j in range(code.n) if j not in positions]
    return linalg.mat_mul(f, rest, linalg.invert(f, a_t))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 11, 16])
def test_recovery_matrix_matches_full_inverse_on_every_subset(q):
    for n in range(1, min(q, 9) + 1):
        for k in range(1, n + 1):
            code = SystematicMdsCode(n, k, make_field(q))
            subsets = list(itertools.combinations(range(n), k))
            # n = k has one base and nothing to recover
            assert (n == k) == (code._recovery_matrix(subsets[0]) == [])
            for positions in subsets:
                assert code._recovery_matrix(positions) == reference_recovery(code, positions)


@pytest.mark.parametrize("q", [257, 65536])
def test_recovery_matrix_matches_full_inverse_on_30_20(q):
    code = SystematicMdsCode(30, 20, make_field(q))
    rng = random.Random(q)
    patterns = [
        tuple(range(20)),  # all systematic: the parity columns
        tuple(range(10, 30)),  # as parity-heavy as [30, 20] allows
    ] + [tuple(sorted(rng.sample(range(30), 20))) for _ in range(12)]
    for positions in patterns:
        assert code._recovery_matrix(positions) == reference_recovery(code, positions)
    assert code._recovery_matrix(patterns[0]) == [list(c) for c in zip(*code.parity_columns)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(8, 5, 11), (12, 6, 16), (16, 9, 257), (30, 20, 257), (30, 20, 65536)]), st.data())
def test_erasure_decode_round_trip_long_rows(shape, data):
    n, k, q = shape
    code = make_mds(n, k, q)
    length = data.draw(st.integers(mds._PACK_MIN_LEN, 64))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    msg = [tuple(rng.randrange(q) for _ in range(length)) for _ in range(k)]
    cw = code.encode(msg)
    known = data.draw(st.integers(k, n))
    positions = rng.sample(range(n), known)
    assert code.erasure_decode([(p, cw[p]) for p in positions]) == cw
