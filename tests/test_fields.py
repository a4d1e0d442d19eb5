import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ppir.errors import FieldConstructionError
from ppir.fields import (
    PRIMALITY_LIMIT,
    _poly_mod,
    _poly_mul,
    canonical_modulus,
    is_prime,
    make_field,
    next_prime,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8]


def test_prime_field_basics():
    f5 = make_field(5)
    assert f5.kind == "prime"
    assert f5.add(3, 4) == 2
    assert f5.mul(2, 3) == 1
    assert f5.sub(1, 3) == 3
    assert f5.inv(2) == 3
    assert f5.inv(1) == 1


def test_binary_field_canonical_modulus():
    f8 = make_field(8)
    assert f8.kind == "binary-extension"
    # x^3 + x + 1
    assert f8.modulus == 0b1011
    assert canonical_modulus(4) == 0b10011
    assert f8.add(0b10, 0b10) == 0  # characteristic 2


def _reference_tables(q, mod):
    """The log/exp tables by walking each candidate's powers until one reaches q - 1."""
    for g in range(2, q):
        exp = []
        x = 1
        while not exp or x != 1:
            exp.append(x)
            x = _poly_mod(_poly_mul(x, g), mod)
        if len(exp) == q - 1:
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            return exp, log
    raise AssertionError(f"no primitive element for q={q}")


@pytest.mark.parametrize("m", range(2, 17))
def test_binary_tables_match_the_power_walk(m):
    # every binary-field symbol in a report goes through these tables
    q = 1 << m
    f = make_field(q)
    assert (f._exp, f._log) == _reference_tables(q, f.modulus)
    assert sorted(f._exp) == list(range(1, q))
    assert all(f._log[v] == i for i, v in enumerate(f._exp))


def test_binary_generator_is_the_first_primitive_element():
    assert (canonical_modulus(8), make_field(256)._exp[1]) == (0x11B, 3)
    assert (canonical_modulus(16), make_field(65536)._exp[1]) == (0x1002B, 3)


def test_binary_mul_matches_polynomial_product():
    f = make_field(65536)
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randrange(65536), rng.randrange(65536)
        assert f.mul(a, b) == _poly_mod(_poly_mul(a, b), f.modulus)


def test_non_prime_power_rejected():
    with pytest.raises(FieldConstructionError):
        make_field(6)
    with pytest.raises(FieldConstructionError):
        make_field(12)
    with pytest.raises(FieldConstructionError):
        make_field(1)
    with pytest.raises(FieldConstructionError):
        make_field(9)  # odd prime powers are out of scope


def test_zero_has_no_inverse():
    for q in SMALL_ORDERS:
        with pytest.raises(ZeroDivisionError):
            make_field(q).inv(0)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.sub(b, a)) == b
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 64, 101, 128, 251, 256])
def test_inverses_exhaustive_up_to_256(q):
    f = make_field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.div(a, a) == 1


@given(st.sampled_from(SMALL_ORDERS), st.data())
def test_pow_matches_repeated_multiplication(q, data):
    f = make_field(q)
    a = data.draw(st.integers(0, q - 1))
    e = data.draw(st.integers(0, 12))
    acc = 1
    for _ in range(e):
        acc = f.mul(acc, a)
    assert f.pow(a, e) == acc


def test_dot_product_both_kinds():
    f5 = make_field(5)
    assert f5.dot([1, 2, 3], [4, 4, 4]) == (1 * 4 + 2 * 4 + 3 * 4) % 5
    f8 = make_field(8)
    want = 0
    for x, y in zip([1, 5, 7], [3, 2, 6]):
        want ^= f8.mul(x, y)
    assert f8.dot([1, 5, 7], [3, 2, 6]) == want


def test_shared_instances_and_next_prime():
    assert make_field(5) is make_field(5)
    assert next_prime(8) == 11
    assert next_prime(11) == 11
    assert next_prime(1) == 2


def test_is_prime_matches_trial_division():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


# strong pseudoprimes to every prime base up to 2, 3, ..., 37 in turn, and a
# Carmichael number; each is the product of its factors
PSEUDOPRIMES = [
    (561, (3, 11, 17)),
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
]


@pytest.mark.parametrize("n, factors", PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n, factors):
    product = 1
    for f in factors:
        product *= f
    assert product == n
    assert not is_prime(n)


def test_is_prime_large_orders_are_bounded():
    # trial division had not finished on 2^61 - 1 after 10 s
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime((2**13 - 1) * (2**61 - 1))
    assert make_field(2**61 - 1).kind == "prime"
    for n in (PRIMALITY_LIMIT, 2**89 - 1):
        with pytest.raises(FieldConstructionError):
            is_prime(n)
    with pytest.raises(FieldConstructionError):
        make_field(2**89 - 1)
