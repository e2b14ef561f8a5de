"""Bitmask helpers over query-vertex sets.

GuP's complexity analysis (§3.6) assumes a query-vertex set fits in a
machine word and supports O(1) union/intersection.  Python ints give us
exactly that (arbitrary width, C-speed bit ops), so masks, bounding sets,
and nogood domains are all plain ``int`` bitmasks where bit ``i`` stands
for query vertex ``u_i``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

__all__ = [
    "EmptyMaskError",
    "mask_of",
    "mask_below",
    "iter_bits",
    "bits_of",
    "bit_count",
    "highest_bit",
    "lowest_bit",
]


class EmptyMaskError(ValueError):
    """A bit-position query (lowest/highest set bit) hit the zero mask."""


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with a bit set for each query-vertex id in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_below(i: int) -> int:
    """Bitmask of all query vertices with id < ``i`` (the paper's ``[:i]``)."""
    return (1 << i) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> List[int]:
    """Set bit positions as a list (ascending)."""
    return list(iter_bits(mask))


def bit_count(mask: int) -> int:
    """Number of set bits (population count)."""
    return mask.bit_count()


def highest_bit(mask: int) -> int:
    """Position of the highest set bit.

    Raises :class:`EmptyMaskError` on the zero mask rather than
    returning a sentinel.
    """
    if mask == 0:
        raise EmptyMaskError("highest_bit of the zero mask")
    return mask.bit_length() - 1


def lowest_bit(mask: int) -> int:
    """Position of the lowest set bit.

    Raises :class:`EmptyMaskError` on the zero mask (see
    :func:`highest_bit`).
    """
    if mask == 0:
        raise EmptyMaskError("lowest_bit of the zero mask")
    return (mask & -mask).bit_length() - 1
