import numpy as np
import pytest
from hypothesis import given, strategies as st

from effdim.rng import _MASK64, RngStream, _splitmix64


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


def _unsplitmix64(y: int) -> int:
    """Inverse of _splitmix64: undo each xor-shift and odd multiply in turn."""
    def unshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    y = unshift(y, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    y = unshift(y, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return (unshift(y, 30) - 0x9E3779B97F4A7C15) & _MASK64


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_unsplitmix_inverts_splitmix(x):
    assert _unsplitmix64(_splitmix64(x)) == x


def test_no_task_stream_or_task_child_equals_the_root_below_2_to_59():
    # `effdim concentration` draws its Monte-Carlo reference from the root
    # RngStream(seed) (stream id 0) and each task from root.child(t) and its
    # children.  SplitMix64 is a bijection, so inverting it gives the one
    # task id t at which each of these streams would be the root.
    def task_id_of(stream_id):
        return (_unsplitmix64(stream_id) - 1) & _MASK64

    mult_inv = pow(0x2545F4914F6CDD1D, -1, 1 << 64)
    colliding = [task_id_of(0)] + [
        task_id_of((_unsplitmix64(0) - j - 1) * mult_inv & _MASK64) for j in range(16)]
    for t, j in zip(colliding, [None] + list(range(16))):
        stream = RngStream(5).child(t)
        assert (stream if j is None else stream.child(j)).stream_id == 0
    assert min(colliding) >= 1 << 59
