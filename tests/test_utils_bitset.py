"""Unit + property tests for bitmask helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitset import (
    EmptyMaskError,
    bit_count,
    bits_of,
    highest_bit,
    iter_bits,
    lowest_bit,
    mask_below,
    mask_of,
)


class TestBasics:
    def test_mask_of(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert mask_of([]) == 0

    def test_mask_below(self):
        assert mask_below(0) == 0
        assert mask_below(3) == 0b111

    def test_bits_of_ascending(self):
        assert bits_of(0b100101) == [0, 2, 5]

    def test_bit_count(self):
        assert bit_count(0) == 0
        assert bit_count(0b1011) == 3

    def test_highest_lowest(self):
        assert highest_bit(0b100100) == 5
        assert lowest_bit(0b100100) == 2

    def test_zero_mask_raises_typed_error(self):
        # The zero mask has no such bit: a typed ValueError, never a
        # -1 sentinel that would index from the end of a list.
        with pytest.raises(EmptyMaskError):
            highest_bit(0)
        with pytest.raises(EmptyMaskError):
            lowest_bit(0)
        assert issubclass(EmptyMaskError, ValueError)


@given(st.sets(st.integers(min_value=0, max_value=80)))
def test_mask_roundtrip(vertices):
    assert set(bits_of(mask_of(vertices))) == vertices


@given(st.sets(st.integers(min_value=0, max_value=80)))
def test_bit_count_matches_set_size(vertices):
    assert bit_count(mask_of(vertices)) == len(vertices)


@given(
    st.sets(st.integers(min_value=0, max_value=40)),
    st.integers(min_value=0, max_value=41),
)
def test_mask_below_is_id_filter(vertices, i):
    # mask & mask_below(i) implements the paper's [:i] restriction.
    expected = {v for v in vertices if v < i}
    assert set(bits_of(mask_of(vertices) & mask_below(i))) == expected


@given(st.lists(st.integers(min_value=0, max_value=60)))
def test_iter_bits_sorted_unique(vertices):
    out = list(iter_bits(mask_of(vertices)))
    assert out == sorted(set(vertices))
