"""The embedding frame: the one wire codec for embedding lists.

A reply that carries embeddings (a query reply or a subscribe
snapshot) is one JSON header line with ``"arity": k`` and ``"bytes":
n``, followed by exactly ``n`` raw bytes: the embeddings as
little-endian uint32, row-major, ``4 * k`` bytes per embedding.  An
empty list (count-only, zero matches) is ``arity 0`` and no body.

:class:`FrameRows` is a read-only row view over a frame that is
already packed (the query cache stores frames, not tuples);
:func:`encode_embeddings` hands a view's own frame back without
copying it.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence as SequenceABC
from functools import lru_cache
from itertools import starmap
from typing import Iterator, List, Sequence, Tuple, Union

Buffer = Union[bytes, bytearray, memoryview]


@lru_cache(maxsize=64)
def _row(arity: int) -> struct.Struct:
    return struct.Struct(f"<{arity}I")


def encode_embeddings(
    embeddings: Sequence[Sequence[int]],
) -> Tuple[int, Buffer]:
    """``(arity, body)`` for ``embeddings``; arity is the first row's.

    A :class:`FrameRows` is already packed: its own ``(arity, body)``
    comes back, uncopied.  Raises :class:`ValueError` when an id is
    negative or does not fit in 32 bits, or when the rows differ in
    arity.
    """
    if isinstance(embeddings, FrameRows):
        return embeddings.arity, embeddings.body
    if not embeddings:
        return 0, b""
    arity = len(embeddings[0])
    try:
        return arity, b"".join(starmap(_row(arity).pack, embeddings))
    except struct.error as exc:
        raise ValueError(
            f"embeddings must be rows of {arity} vertex ids in "
            f"[0, 2**32): {exc}"
        ) from None


def decode_embeddings(body: Buffer, arity: int) -> List[Tuple[int, ...]]:
    """The embedding tuples of a frame body of rows of ``arity`` ids.

    Raises :class:`ValueError` when ``body`` is not whole rows.
    """
    if not body:
        return []
    if arity < 1 or len(body) % (4 * arity):
        raise ValueError(
            f"frame body of {len(body)} bytes is not whole rows of "
            f"arity {arity}"
        )
    return list(_row(arity).iter_unpack(body))


class FrameRows(SequenceABC):
    """``count`` embeddings of ``arity`` ids, read from a packed frame.

    Indexing gives a tuple, slicing and iteration decode rows, and a
    view equals the list of tuples it decodes to.  The row count is
    kept apart from the body because a 0-vertex query's one embedding
    ``()`` packs to no bytes at all.
    """

    __slots__ = ("arity", "body", "_count")

    def __init__(self, arity: int, body: Buffer, count: int) -> None:
        if len(body) != 4 * arity * count:
            raise ValueError(
                f"frame body of {len(body)} bytes is not {count} rows of "
                f"arity {arity}"
            )
        self.arity = arity
        self.body = body
        self._count = count

    @classmethod
    def pack(cls, embeddings: Sequence[Sequence[int]]) -> "FrameRows":
        """The view of ``embeddings`` packed once."""
        arity, body = encode_embeddings(embeddings)
        return cls(arity, body, len(embeddings))

    def prefix(self, count: int) -> "FrameRows":
        """The first ``count`` rows, sharing this view's bytes."""
        size = 4 * self.arity * count
        return FrameRows(self.arity, memoryview(self.body)[:size], count)

    def permuted(self, mapping: Sequence[int]) -> "FrameRows":
        """Rows whose id ``u`` is this view's id ``mapping[u]``: one
        strided copy per column.  Whole 4-byte ids move, so the bytes
        stay little-endian on any host."""
        out = bytearray(len(self.body))
        if out:
            source = memoryview(self.body).cast("I")
            target = memoryview(out).cast("I")
            step = self.arity
            for u, column in enumerate(mapping):
                target[u::step] = source[column::step]
        return FrameRows(self.arity, out, self._count)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            width = 4 * self.arity
            if not width:
                return [()] * max(stop - start, 0)
            return decode_embeddings(
                memoryview(self.body)[start * width:stop * width], self.arity
            )
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("frame row index out of range")
        return _row(self.arity).unpack_from(self.body, 4 * self.arity * index)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        if not self.arity:
            return iter([()] * self._count)
        return _row(self.arity).iter_unpack(self.body)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, FrameRows)):
            return NotImplemented
        return len(other) == self._count and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FrameRows({list(self)!r})"
