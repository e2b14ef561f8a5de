"""The embedding frame: the one wire codec for embedding lists.

A reply that carries embeddings (a query reply or a subscribe
snapshot) is one JSON header line with ``"arity": k`` and ``"bytes":
n``, followed by exactly ``n`` raw bytes: the embeddings as
little-endian uint32, row-major, ``4 * k`` bytes per embedding.  An
empty list (count-only, zero matches) is ``arity 0`` and no body.
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import List, Sequence, Tuple


def encode_embeddings(
    embeddings: Sequence[Sequence[int]],
) -> Tuple[int, bytes]:
    """``(arity, body)`` for ``embeddings``; arity is the first row's.

    Raises :class:`ValueError` when an id is negative or does not fit
    in 32 bits, or when the rows differ in arity.
    """
    if not embeddings:
        return 0, b""
    arity = len(embeddings[0])
    try:
        pack = struct.Struct(f"<{arity}I").pack
        return arity, b"".join(starmap(pack, embeddings))
    except struct.error as exc:
        raise ValueError(
            f"embeddings must be rows of {arity} vertex ids in "
            f"[0, 2**32): {exc}"
        ) from None


def decode_embeddings(body: bytes, arity: int) -> List[Tuple[int, ...]]:
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
    return list(struct.Struct(f"<{arity}I").iter_unpack(body))
