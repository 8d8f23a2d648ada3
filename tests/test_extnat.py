import pytest
from hypothesis import given
from hypothesis import strategies as st

from certigraph.oracles import ext_add, ext_le
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
    assert ext_add(INFINITY, 5) == INFINITY
    assert ext_add(ExtNat(3), INFINITY) == INFINITY
    assert ext_add(INFINITY, INFINITY) == INFINITY
    assert ext_add(ExtNat(3), ExtNat(4)) == ExtNat(7)
    assert ext_add(ExtNat(3), 4) == ExtNat(7)


def test_addition_rejects_negative_increment():
    with pytest.raises(ValueError):
        ext_add(ExtNat(3), -1)


def test_order_examples():
    assert ext_le(ExtNat(3), ExtNat(3))
    assert not ext_le(ExtNat(4), ExtNat(3))  # 3 < 4
    assert ext_le(ExtNat(4), INFINITY)
    assert ext_le(INFINITY, INFINITY)
    assert not ext_le(INFINITY, ExtNat(10**100))
    assert ext_le(ExtNat(3), INFINITY) and ext_le(ExtNat(3), ExtNat(3))
    assert not ext_le(INFINITY, ExtNat(4)) and not ext_le(ExtNat(4), ExtNat(3))
    assert ext_le(ExtNat(3), ExtNat(3))  # not 3 > 3
    assert not ext_le(INFINITY, ExtNat(3))  # not 3 >= INFINITY


@given(ext_nats, ext_nats)
def test_total_order(a, b):
    assert ext_le(a, b) or ext_le(b, a)
    assert (ext_le(a, b) and ext_le(b, a)) == (a == b)


@given(ext_nats, ext_nats, st.integers(0, 10**9))
def test_addition_preserves_order(a, b, k):
    assert ext_le(ext_add(a, k), ext_add(b, k)) == ext_le(a, b)


@given(ext_nats, ext_nats, ext_nats)
def test_order_transitive(a, b, c):
    if ext_le(a, b) and ext_le(b, c):
        assert ext_le(a, c)


@given(ext_nats)
def test_infinity_is_top(a):
    assert ext_le(a, INFINITY)
    assert ext_le(INFINITY, a) == (a == INFINITY)
