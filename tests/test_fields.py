import itertools

import pytest
from hypothesis import given, strategies as st

from ppir.errors import FieldConstructionError
from ppir.fields import (
    canonical_modulus,
    field_from_json,
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


def test_serialization_round_trip():
    for q in (5, 8):
        f = make_field(q)
        assert field_from_json(f.to_json()) is f
    with pytest.raises(FieldConstructionError):
        field_from_json({"q": 8, "modulus": 0b1101})


def test_shared_instances_and_next_prime():
    assert make_field(5) is make_field(5)
    assert next_prime(8) == 11
    assert next_prime(11) == 11
    assert next_prime(1) == 2
