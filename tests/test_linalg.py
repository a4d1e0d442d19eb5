import pytest
from hypothesis import given, strategies as st

from ppir import linalg
from ppir.errors import SingularMatrixError
from ppir.fields import make_field


def test_echelon_and_rank_gf2():
    f = make_field(2)
    m = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert linalg.rank(f, m) == 2
    assert linalg.rank(f, [[0, 0], [0, 0]]) == 0
    assert linalg.rank(f, linalg.identity(4)) == 4


def test_echelon_pivots_are_reduced():
    f = make_field(3)
    rows, pivots = linalg.echelon(f, [[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    for r, p in zip(rows, pivots):
        assert r[p] == 1
        for other, op in zip(rows, pivots):
            if op != p:
                assert other[p] == 0


def test_invert_round_trip():
    f = make_field(5)
    m = [[1, 2], [3, 4]]
    inv = linalg.invert(f, m)
    assert linalg.mat_mul(f, m, inv) == linalg.identity(2)
    assert linalg.mat_mul(f, inv, m) == linalg.identity(2)


def test_singular_raises():
    f = make_field(5)
    with pytest.raises(SingularMatrixError):
        linalg.invert(f, [[1, 2], [2, 4]])


@given(st.integers(1, 4), st.data())
def test_invert_random_nonsingular_gf5(n, data):
    f = make_field(5)
    m = data.draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    if linalg.rank(f, m) < n:
        with pytest.raises(SingularMatrixError):
            linalg.invert(f, m)
    else:
        assert linalg.mat_mul(f, m, linalg.invert(f, m)) == linalg.identity(n)


def test_binary_field_elimination():
    f = make_field(8)
    m = [[1, 2, 3], [4, 5, 6], [5, 7, 5]]  # row3 = row1 xor row2
    assert linalg.rank(f, m) == 2
