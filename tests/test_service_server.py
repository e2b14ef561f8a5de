"""End-to-end service tests (the acceptance differential + CI smoke).

The acceptance contract: for a fig6-style query set, results served
through the server — cold catalog, then warm cache, then the procpool
dispatch path — are byte-identical to direct ``GuPEngine.match``, and
the warm path performs **zero** ``DataArtifacts`` rebuilds (asserted
via the counters exposed by the ``stats`` op).

``TestServeSubprocessSmoke`` is the CI smoke test: it drives the real
``repro serve`` process over a real socket.
"""

import json
import logging
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.engine import GuPEngine
from repro.graph.io import loads_graph, save_graph, saves_graph
from repro.matching.limits import SearchLimits
from repro.service.catalog import GraphCatalog
from repro.service.client import ServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.server import ServerThread
from repro.service.wire import decode_embeddings
from repro.workload.datasets import load_dataset
from repro.workload.querygen import QuerySetSpec, generate_query_set

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 1_000


@pytest.fixture(scope="module")
def workload():
    data = load_dataset("wordnet", scale=0.25, seed=2023)
    queries = generate_query_set(
        data, QuerySetSpec(8, "sparse"), count=3, seed=2023
    )
    return data, list(queries)


@pytest.fixture(scope="module")
def service(workload, tmp_path_factory):
    """A live server over a cold-started catalog (artifacts from disk)."""
    data, _ = workload
    root = tmp_path_factory.mktemp("catalog")
    GraphCatalog(root).add("wordnet", data)  # build + persist, then discard
    catalog = GraphCatalog(root)  # cold: nothing resident
    with ServerThread(catalog, max_inflight=2, max_pending=8) as thread:
        yield thread


def assert_reply_identical(reply, direct):
    assert reply.embeddings == direct.embeddings
    assert reply.num_embeddings == direct.num_embeddings
    assert reply.status == direct.status.value


class TestEndToEndExactness:
    def test_cold_warm_procpool_byte_identical(self, workload, service):
        data, queries = workload
        limits = SearchLimits(max_embeddings=LIMIT)
        direct = [GuPEngine(data).match(q, limits=limits) for q in queries]
        with ServiceClient(*service.address) as client:
            base = client.stats()

            # Pass 1 — cold catalog: engines load persisted artifacts.
            for query, expected in zip(queries, direct):
                reply = client.query(query, "wordnet", limit=LIMIT)
                assert reply.cache == "miss"
                assert_reply_identical(reply, expected)
            cold = client.stats()
            assert cold["catalog"]["artifact_loads"] == 1
            assert cold["catalog"]["artifact_builds"] == 0
            assert cold["catalog"]["artifact_rebuilds"] == 0

            # Pass 2 — warm cache: every query hits, nothing rebuilds.
            for query, expected in zip(queries, direct):
                reply = client.query(query, "wordnet", limit=LIMIT)
                assert reply.cache == "hit"
                assert_reply_identical(reply, expected)
            warm = client.stats()
            assert warm["qcache"]["hits"] >= len(queries)
            for counter in ("artifact_builds", "artifact_rebuilds",
                            "artifact_loads"):
                assert warm["catalog"][counter] == cold["catalog"][counter]
            assert (
                warm["artifact_builds_in_process"]
                == cold["artifact_builds_in_process"]
            ), "warm path must not rebuild DataArtifacts"

            # Pass 3 — procpool dispatch: still byte-identical.
            for query, expected in zip(queries, direct):
                reply = client.query(
                    query, "wordnet", limit=LIMIT, workers=2, cache=False
                )
                assert reply.cache == "bypass"
                assert_reply_identical(reply, expected)
            final = client.stats()
            assert final["server"]["procpool_dispatches"] >= len(queries)
            assert base["server"]["queries"] + 3 * len(queries) == final[
                "server"
            ]["queries"]

    def test_lower_cap_served_from_warm_cache(self, workload, service):
        data, queries = workload
        query = queries[0]
        with ServiceClient(*service.address) as client:
            client.query(query, "wordnet", limit=LIMIT)  # ensure cached
            direct = GuPEngine(data).match(
                query, limits=SearchLimits(max_embeddings=5)
            )
            reply = client.query(query, "wordnet", limit=5)
            assert reply.cache == "hit"
            assert_reply_identical(reply, direct)

    def test_count_only_and_framed_reply(self, workload, service):
        """A reply is one header line plus exactly ``bytes`` of uint32
        body and nothing after it; count-only replies carry no body."""
        data, queries = workload
        query = queries[1]
        direct = GuPEngine(data).match(
            query, limits=SearchLimits(max_embeddings=50)
        )
        request = {"op": "query", "data": "wordnet",
                   "graph": saves_graph(query), "limit": 50, "cache": False}
        with socket.create_connection(service.address, timeout=30) as sock:
            handle = sock.makefile("rwb")

            def roundtrip(payload):
                handle.write(json.dumps(payload).encode() + b"\n")
                handle.flush()
                return json.loads(handle.readline())

            header = roundtrip(request)
            assert header["encode_seconds"] >= 0.0
            assert header["arity"] == query.num_vertices
            assert header["bytes"] == (
                4 * query.num_vertices * direct.num_embeddings
            )
            body = handle.read(header["bytes"])
            assert decode_embeddings(body, header["arity"]) == direct.embeddings
            counted = roundtrip({**request, "count_only": True})
            assert counted["bytes"] == 0
            assert counted["num_embeddings"] == direct.num_embeddings
            assert roundtrip({"op": "ping"})["pong"]
        with ServiceClient(*service.address) as client:
            assert_reply_identical(
                client.query(query, "wordnet", limit=50, cache=False), direct
            )
            counted = client.query(query, "wordnet", limit=50, count_only=True)
            assert counted.embeddings == []
            assert counted.num_embeddings == direct.num_embeddings

    def test_encode_seconds_reported_apart_from_server_seconds(
        self, workload, service
    ):
        data, queries = workload
        with ServiceClient(*service.address) as client:
            reply = client.query(queries[2], "wordnet", limit=LIMIT)
            # The server logs a query after its reply, before it reads
            # the next request on the connection.
            assert client.ping()
        assert reply.embeddings
        assert reply.encode_seconds >= 0.0
        assert reply.server_seconds > 0.0
        record = [
            r for r in service.server.obs.log.read_records()
            if r.get("trace") == reply.trace and r.get("event") == "query"
        ][-1]
        # Encoding happens in the stream phase, after server_seconds.
        assert record["server_seconds"] == reply.server_seconds
        assert reply.encode_seconds <= record["stream_seconds"]


class TestFramedCacheHits:
    """Served == direct through the frame on cache hits of a 1-vertex
    query (translation must still yield tuples), at cap 0, count-only,
    on an empty result, and for a subscribe snapshot."""

    @staticmethod
    def single(label) -> str:
        return f"t 1 0\nv 0 {label} 0\n"

    def test_one_vertex_hits(self, workload, service):
        data, _ = workload
        engine = GuPEngine(data)
        label = data.labels[0]
        query = self.single(label)
        with ServiceClient(*service.address) as client:
            for kwargs in ({}, {"limit": 0}, {"limit": 3},
                           {"count_only": True}):
                direct = engine.match(
                    loads_graph(query),
                    limits=SearchLimits(
                        max_embeddings=kwargs.get("limit"),
                        collect=not kwargs.get("count_only", False),
                    ),
                )
                client.query(query, "wordnet")  # complete entry cached
                reply = client.query(query, "wordnet", **kwargs)
                assert reply.cache == "hit"
                assert_reply_identical(reply, direct)
                assert all(type(e) is tuple and len(e) == 1
                           for e in reply.embeddings)

    def test_empty_result_hit(self, workload, service):
        data, _ = workload
        query = self.single(max(data.labels) + 1)  # a label data lacks
        with ServiceClient(*service.address) as client:
            assert client.query(query, "wordnet").cache == "miss"
            reply = client.query(query, "wordnet")
        assert reply.cache == "hit"
        assert reply.num_embeddings == 0 and reply.embeddings == []
        assert reply.status == "complete"

    def test_subscribe_snapshot_frame(self, workload, service):
        data, _ = workload
        query = self.single(data.labels[0])
        direct = GuPEngine(data).match(loads_graph(query))
        with ServiceClient(*service.address) as client:
            reply = client.subscribe(query, "wordnet")
        assert reply.num_embeddings == direct.num_embeddings
        assert reply.embeddings == sorted(direct.embeddings)


class TestRequestLineLimit:
    """Request lines past ``MAX_REQUEST_BYTES`` get one structured,
    counted error and a clean close — never a traceback or bare EOF."""

    @pytest.fixture
    def small_limit(self, tmp_path, monkeypatch, caplog):
        """A server whose line limit is 4096 bytes; asserts that asyncio
        logged nothing (no handler traceback) while it ran."""
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 4096)
        caplog.set_level(logging.ERROR, logger="asyncio")
        with ServerThread(GraphCatalog(tmp_path / "catalog")) as thread:
            yield thread
        assert not caplog.records, "oversized line raised in the handler"

    @staticmethod
    def send_raw(address, line: bytes, read_to_eof: bool):
        """One raw request over a socket: its first reply line, then (if
        ``read_to_eof``) whatever follows until the server closes."""
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(line)
            handle = sock.makefile("rb")
            first = handle.readline()
            return first, handle.read() if read_to_eof else None

    @staticmethod
    def json_line(payload: dict) -> bytes:
        return json.dumps(payload).encode() + b"\n"

    def test_70_kib_line_within_default_limit(self, service):
        first, _ = self.send_raw(
            service.address,
            self.json_line({"op": "ping", "pad": "x" * (70 << 10)}),
            read_to_eof=False,
        )
        assert json.loads(first) == {"ok": True, "pong": True}

    def test_line_over_limit_is_structured_error(self, small_limit):
        first, rest = self.send_raw(
            small_limit.address,
            self.json_line({"op": "ping", "pad": "x" * 20_000}),
            read_to_eof=True,
        )
        reply = json.loads(first)
        assert reply["ok"] is False
        assert reply["reason"] == "request_too_large"
        assert "4096" in reply["error"]
        assert rest == b"", "connection must close after the error"
        with ServiceClient(*small_limit.address) as client:
            assert client.ping()  # the server keeps serving
            assert client.stats()["server"]["errors"] == 1

    def test_http_header_over_limit_still_answered(self, small_limit):
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            + b"X-Pad: " + b"x" * 20_000 + b"\r\nAccept: */*\r\n\r\n"
        )
        status, rest = self.send_raw(
            small_limit.address, request, read_to_eof=True
        )
        assert status.startswith(b"HTTP/1.0 200")
        body = rest.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body)["ok"] is True


class TestProtocol:
    def test_ping_and_stats_shape(self, service):
        with ServiceClient(*service.address) as client:
            assert client.ping()
            stats = client.stats()
            for section in ("server", "catalog", "qcache"):
                assert section in stats
            for counter in ("queries", "served", "rejected", "errors"):
                assert counter in stats["server"]

    def test_catalog_ops_over_the_wire(self, service):
        tiny = (
            "t 3 2\nv 0 1 1\nv 1 2 2\nv 2 1 1\ne 0 1\ne 1 2\n"
        )
        with ServiceClient(*service.address) as client:
            entry = client.catalog_add("tiny", tiny)
            assert entry["num_vertices"] == 3
            assert "tiny" in [e["name"] for e in client.catalog_list()]
            reply = client.query("t 2 1\nv 0 1 1\nv 1 2 1\ne 0 1\n", "tiny")
            assert reply.num_embeddings == 2
            assert reply.status == "complete"

    def test_overwrite_invalidates_query_cache(self, service):
        """Replacing a catalog entry's graph must drop cached results
        computed against the old graph."""
        a = "t 2 1\nv 0 7 1\nv 1 8 1\ne 0 1\n"          # one 7-8 edge
        b = "t 3 2\nv 0 7 2\nv 1 8 1\nv 2 8 1\ne 0 1\ne 0 2\n"  # two
        probe = "t 2 1\nv 0 7 1\nv 1 8 1\ne 0 1\n"
        with ServiceClient(*service.address) as client:
            client.catalog_add("mut", a)
            assert client.query(probe, "mut").num_embeddings == 1
            assert client.query(probe, "mut").cache == "hit"
            client.catalog_add("mut", b, overwrite=True)
            reply = client.query(probe, "mut")
            assert reply.cache == "miss", "stale cache served after overwrite"
            assert reply.num_embeddings == 2

    def test_unknown_catalog_entry_is_clean_error(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError, match="nope"):
                client.query("t 1 0\nv 0 1 0\n", "nope")
            assert client.ping()  # connection survives

    def test_malformed_requests_keep_connection_alive(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")

            def roundtrip(raw: bytes):
                handle.write(raw + b"\n")
                handle.flush()
                return json.loads(handle.readline())

            assert not roundtrip(b"this is not json")["ok"]
            assert not roundtrip(b'["not", "an", "object"]')["ok"]
            assert not roundtrip(b'{"op": "frobnicate"}')["ok"]
            assert not roundtrip(b'{"op": "query"}')["ok"]
            assert not roundtrip(
                json.dumps(
                    {"op": "query", "data": "wordnet", "graph": "v broken"}
                ).encode()
            )["ok"]
            assert not roundtrip(
                json.dumps(
                    {"op": "query", "data": "wordnet",
                     "graph": "t 1 0\nv 0 1 0\n", "limit": -3}
                ).encode()
            )["ok"]
            assert roundtrip(b'{"op": "ping"}')["ok"]

    def test_admission_control_rejects_when_saturated(self, workload, service):
        query = workload[1][0]
        server = service.server
        server._active = server.max_inflight + server.max_pending
        try:
            with ServiceClient(*service.address) as client:
                with pytest.raises(ServiceError, match="overloaded"):
                    client.query(query, "wordnet", limit=1)
        finally:
            server._active = 0
        with ServiceClient(*service.address) as client:
            assert client.query(query, "wordnet", limit=1).num_embeddings == 1

    def test_concurrent_clients(self, workload, service):
        data, queries = workload
        limits = SearchLimits(max_embeddings=LIMIT)
        direct = [GuPEngine(data).match(q, limits=limits) for q in queries]
        failures = []

        def worker(query, expected):
            try:
                with ServiceClient(*service.address) as client:
                    reply = client.query(query, "wordnet", limit=LIMIT)
                    assert_reply_identical(reply, expected)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(q, e))
            for q, e in zip(queries, direct)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures


class TestCliQueryCommand:
    def test_query_cli_against_live_server(
        self, workload, service, tmp_path, capsys
    ):
        data, queries = workload
        for i, query in enumerate(queries):
            save_graph(query, tmp_path / f"q{i}.graph")
        host, port = service.address
        rc = cli_main(
            [
                "query", str(tmp_path / "q*.graph"), "wordnet",
                "--host", host, "--port", str(port), "--limit", str(LIMIT),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        expected = sum(
            GuPEngine(data)
            .match(q, limits=SearchLimits(max_embeddings=LIMIT))
            .num_embeddings
            for q in queries
        )
        assert f"total embeddings: {expected}" in out

    def test_query_cli_empty_glob_fails(self, service, tmp_path, capsys):
        host, port = service.address
        rc = cli_main(
            [
                "query", str(tmp_path / "missing*.graph"), "wordnet",
                "--host", host, "--port", str(port),
            ]
        )
        assert rc != 0
        assert "no query files match" in capsys.readouterr().err


class TestShutdownWithIdleClient:
    def test_shutdown_not_blocked_by_idle_connection(
        self, workload, tmp_path_factory
    ):
        """An idle connected client must not hang graceful shutdown
        (Server.wait_closed awaits live handlers on Python >= 3.12.1)."""
        data, _ = workload
        root = tmp_path_factory.mktemp("idle-catalog")
        catalog = GraphCatalog(root)
        catalog.add("wordnet", data)
        thread = ServerThread(catalog)
        thread.start()
        idle = ServiceClient(*thread.address)   # connects, then sits
        try:
            idle.ping()
            with ServiceClient(*thread.address) as other:
                other.shutdown()
            thread.stop(timeout=30)
            assert not thread._thread.is_alive(), "server hung on shutdown"
        finally:
            idle.close()


class TestServeSubprocessSmoke:
    """The CI smoke: real ``repro serve`` process, real socket."""

    def test_serve_query_stats_shutdown(self, workload, tmp_path):
        data, queries = workload
        root = tmp_path / "catalog"
        GraphCatalog(root).add("wordnet", data)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = []

            def read_banner():
                banner.append(proc.stdout.readline())

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=60)
            assert banner and banner[0], "server printed no banner"
            port = int(banner[0].rsplit(":", 1)[1])

            query = queries[0]
            direct = GuPEngine(data).match(
                query, limits=SearchLimits(max_embeddings=LIMIT)
            )
            with ServiceClient(port=port, timeout=120) as client:
                reply = client.query(
                    saves_graph(query), "wordnet", limit=LIMIT
                )
                assert_reply_identical(reply, direct)
                stats = client.stats()
                assert stats["server"]["served"] == 1
                assert stats["catalog"]["artifact_rebuilds"] == 0
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
