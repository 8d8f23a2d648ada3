import pytest
from hypothesis import given
from hypothesis import strategies as st

from certigraph.shortest_paths import INFINITY, ExtNat, extnat_column

ext_nats = st.one_of(st.just(INFINITY), st.integers(0, 10**9).map(ExtNat))


def test_construction_rejects_negative():
    with pytest.raises(ValueError):
        ExtNat(-1)
    for not_an_int in (1.0, "1", True):
        with pytest.raises(TypeError):
            ExtNat(not_an_int)


def test_column_makes_one_value_per_distinct_number():
    col = extnat_column([3, None, 3, 10**5000, None])
    assert col == [ExtNat(3), INFINITY, ExtNat(3), ExtNat(10**5000), INFINITY]
    assert col[0] is col[2] and col[1] is col[4]
    assert extnat_column([]) == []


def test_addition_absorbs_infinity():
    assert INFINITY + 5 == INFINITY
    assert ExtNat(3) + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY
    assert ExtNat(3) + ExtNat(4) == ExtNat(7)
    assert ExtNat(3) + 4 == ExtNat(7)


def test_addition_rejects_negative_increment():
    with pytest.raises(ValueError):
        ExtNat(3) + (-1)


def test_order_examples():
    assert ExtNat(3) <= ExtNat(3)
    assert ExtNat(3) < ExtNat(4)
    assert ExtNat(4) <= INFINITY
    assert INFINITY <= INFINITY
    assert not INFINITY <= ExtNat(10**100)
    assert INFINITY >= ExtNat(3) >= ExtNat(3)
    assert INFINITY > ExtNat(4) > ExtNat(3)
    assert not ExtNat(3) > ExtNat(3)
    assert not ExtNat(3) >= INFINITY


@given(ext_nats, ext_nats)
def test_total_order(a, b):
    assert a <= b or b <= a
    assert (a <= b and b <= a) == (a == b)


@given(ext_nats, ext_nats, st.integers(0, 10**9))
def test_addition_preserves_order(a, b, k):
    assert (a + k <= b + k) == (a <= b)


@given(ext_nats, ext_nats, ext_nats)
def test_order_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(ext_nats)
def test_infinity_is_top(a):
    assert a <= INFINITY
    assert (INFINITY <= a) == (a == INFINITY)
