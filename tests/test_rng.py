import numpy as np
import pytest
from hypothesis import given, strategies as st

from effdim.rng import RngStream, _splitmix64


def test_same_stream_is_bit_identical():
    a = RngStream(123, 4).generator().standard_normal(100)
    b = RngStream(123, 4).generator().standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).generator().standard_normal(100)
    b = RngStream(123, 1).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    c = RngStream(124, 0).generator().standard_normal(100)
    assert not np.array_equal(a, c)


def test_children_are_deterministic_and_distinct():
    root = RngStream(7)
    kids = [root.child(i) for i in range(64)]
    ids = {k.stream_id for k in kids}
    assert len(ids) == 64
    assert all(k.master_seed == 7 for k in kids)
    again = [root.child(i) for i in range(64)]
    assert [k.stream_id for k in again] == [k.stream_id for k in kids]


def test_grandchildren_do_not_collide_with_children():
    root = RngStream(7)
    ids = set()
    for i in range(16):
        c = root.child(i)
        ids.add(c.stream_id)
        for j in range(16):
            ids.add(c.child(j).stream_id)
    assert len(ids) == 16 + 256


def test_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_splitmix_stays_in_64_bits(x):
    y = _splitmix64(x)
    assert 0 <= y < 1 << 64
