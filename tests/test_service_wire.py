"""The embedding frame codec and its transport edge cases."""

import json
import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.wire import FrameRows, decode_embeddings, encode_embeddings

U32 = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def embedding_lists(draw):
    arity = draw(st.integers(min_value=1, max_value=32))
    row = st.tuples(*[U32] * arity)
    return arity, draw(st.lists(row, max_size=2000))


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(embedding_lists())
    def test_round_trip(self, case):
        arity, embeddings = case
        got_arity, body = encode_embeddings(embeddings)
        assert len(body) == 4 * arity * len(embeddings)
        assert decode_embeddings(body, got_arity) == embeddings
        assert got_arity == (arity if embeddings else 0)

    def test_little_endian_row_major(self):
        arity, body = encode_embeddings([(1, 2**32 - 1), (256, 0)])
        assert arity == 2
        assert body == bytes.fromhex("01000000" "ffffffff" "00010000" "00000000")

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
    def test_out_of_range_id_is_value_error(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            encode_embeddings([(0, 1), (2, bad)])

    def test_ragged_rows_are_value_error(self):
        with pytest.raises(ValueError):
            encode_embeddings([(0, 1), (2, 3, 4)])

    def test_partial_row_body_is_value_error(self):
        _, body = encode_embeddings([(0, 1, 2)])
        with pytest.raises(ValueError):
            decode_embeddings(body[:-4], 3)


@st.composite
def frames(draw):
    """``(arity, rows)``: arity 1-16, 0-2000 rows, ids up to 2**32 - 1.

    Rows come from a drawn seed (drawing 2000 tuples one id at a time
    is too slow); the top id is drawn so the 32-bit edge recurs.
    """
    arity = draw(st.integers(min_value=1, max_value=16))
    count = draw(st.integers(min_value=0, max_value=2000))
    top = draw(st.sampled_from([1, 255, 2**16, 2**32 - 1]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rows = [tuple(rng.randint(0, top) for _ in range(arity))
            for _ in range(count)]
    if rows:
        rows[-1] = (top,) * arity
    return arity, rows


def tuple_path(rows, mapping):
    """The tuple translation a frame permutation replaces."""
    return [tuple(row[j] for j in mapping) for row in rows]


class TestFrameRows:
    """A view over a packed frame behaves as the list of tuples it
    decodes to, and its prefixes and permutations pack byte-identically
    to the tuple lists they stand for."""

    @settings(max_examples=60, deadline=None)
    @given(frames(), st.data())
    def test_view_is_its_rows(self, case, data):
        arity, rows = case
        view = FrameRows.pack(rows)
        assert len(view) == len(rows)
        assert view == rows and rows == view
        assert list(view) == rows
        assert encode_embeddings(view) == encode_embeddings(rows)
        if rows:
            i = data.draw(st.integers(-len(rows), len(rows) - 1))
            assert view[i] == rows[i]
        start = data.draw(st.integers(-5, len(rows) + 5))
        stop = data.draw(st.integers(-5, len(rows) + 5))
        step = data.draw(st.sampled_from([None, 1, 2, 7, -1]))
        assert view[start:stop:step] == rows[start:stop:step]

    @settings(max_examples=60, deadline=None)
    @given(frames(), st.data())
    def test_prefix_and_permutation_bodies(self, case, data):
        arity, rows = case
        view = FrameRows.pack(rows)
        count = data.draw(st.integers(0, len(rows)))
        mapping = data.draw(st.permutations(range(arity)))
        prefix = view.prefix(count)
        assert prefix.body.obj is view.body  # zero-copy
        assert encode_embeddings(prefix)[1] == encode_embeddings(
            rows[:count])[1]
        permuted = prefix.permuted(mapping)
        expected = tuple_path(rows[:count], mapping)
        assert encode_embeddings(permuted)[1] == encode_embeddings(
            expected)[1]
        assert permuted == expected

    def test_zero_vertex_embedding(self):
        view = FrameRows.pack([()])
        assert view == [()] and list(view) == [()] and view[0] == ()
        assert view[:5] == [()] and len(view.prefix(1)) == 1
        assert encode_embeddings(view) == encode_embeddings([()]) == (0, b"")

    def test_empty_view(self):
        view = FrameRows.pack([])
        assert view == [] and not view
        assert encode_embeddings(view) == (0, b"")

    def test_index_out_of_range(self):
        view = FrameRows.pack([(1, 2)])
        with pytest.raises(IndexError):
            view[1]
        with pytest.raises(IndexError):
            view[-2]

    def test_body_must_be_whole_rows(self):
        with pytest.raises(ValueError):
            FrameRows(2, b"\0" * 12, 2)

    def test_views_compare_by_rows_and_are_not_hashable(self):
        view = FrameRows.pack([(1, 2), (3, 4)])
        assert view.prefix(1) == FrameRows.pack([(1, 2)])
        assert view.prefix(1) != view
        assert view != [[1, 2], [3, 4]] and view != ((1, 2), (3, 4))
        with pytest.raises(TypeError):
            hash(view)


class _OneReplyServer:
    """Answers the first request line with ``raw``, then closes."""

    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            conn.makefile("rb").readline()
            conn.sendall(self.raw)

    def close(self) -> None:
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.listener.close()


class TestTornFrame:
    @pytest.mark.parametrize("op", ["query", "subscribe"])
    def test_short_body_is_service_unavailable(self, op):
        _, body = encode_embeddings([(i, i + 1) for i in range(8)])
        header = {"ok": True, "num_embeddings": 8, "status": "complete",
                  "subscription": 1, "arity": 2, "bytes": len(body)}
        server = _OneReplyServer(
            json.dumps(header).encode() + b"\n" + body[:len(body) // 2]
        )
        try:
            client = ServiceClient(*server.address, timeout=10)
            with pytest.raises(ServiceUnavailable, match="of 64 reply bytes"):
                if op == "query":
                    client.query("t 1 0\nv 0 1 0\n", "g")
                else:
                    client.subscribe("t 1 0\nv 0 1 0\n", "g")
            client.close()
        finally:
            server.close()
