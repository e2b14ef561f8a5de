"""The embedding frame codec and its transport edge cases."""

import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.wire import decode_embeddings, encode_embeddings

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
