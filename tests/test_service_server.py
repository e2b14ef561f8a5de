"""End-to-end service tests (the acceptance differential + CI smoke).

The acceptance contract: for a fig6-style query set, results served
through the server — cold catalog, then warm cache, then the procpool
dispatch path — are byte-identical to direct ``GuPEngine.match``, and
the warm path performs **zero** ``DataArtifacts`` rebuilds (asserted
via the counters exposed by the ``stats`` op).

``TestServeSubprocessSmoke`` is the CI smoke test: it drives the real
``repro serve`` process over a real socket.
"""

import asyncio
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
from repro.graph.builder import cycle_graph, graph_from_adjacency
from repro.graph.io import loads_graph, save_graph, saves_graph
from repro.matching.limits import SearchLimits
from repro.obs import Observability, StructuredLog
from repro.service.catalog import GraphCatalog
from repro.obs import parse_exposition
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service import qcache as qcache_module
from repro.service import server as server_module
from repro.service.lifecycle import DRAINING, SERVING
from repro.service.server import MatchingServer, ServerThread
from repro.service.tenancy import TenantSpec, TenantTable
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
    with ServerThread(
        catalog, max_inflight=2, max_pending=8,
        obs=Observability(log=StructuredLog()),
    ) as thread:
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

            # Pass 1 — cold catalog: the engine loads and builds once.
            for query, expected in zip(queries, direct):
                reply = client.query(query, "wordnet", limit=LIMIT)
                assert reply.cache == "miss"
                assert_reply_identical(reply, expected)
            cold = client.stats()
            assert cold["catalog"]["artifact_loads"] == 1
            assert cold["catalog"]["artifact_builds"] == 0

            # Pass 2 — warm cache: every query hits, nothing builds.
            for query, expected in zip(queries, direct):
                reply = client.query(query, "wordnet", limit=LIMIT)
                assert reply.cache == "hit"
                assert_reply_identical(reply, expected)
            warm = client.stats()
            assert warm["qcache"]["hits"] >= len(queries)
            for counter in ("artifact_builds", "artifact_loads"):
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


class TestSharedFieldChecks:
    """Numeric options go through one check: a non-finite value gets a
    structured error and the connection stays usable."""

    PROBE = "t 1 0\nv 0 1 0\n"

    @pytest.mark.parametrize("value", [
        float("inf"), float("-inf"), float("nan"),
    ], ids=["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("field", [
        "limit", "workers", "time_limit", "recursion_limit", "timeout",
    ])
    def test_non_finite_number_is_structured_error(
        self, tmp_path, caplog, field, value
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")
        # ``timeout`` belongs to drain; the others to query.
        request = (
            {"op": "drain", "timeout": value} if field == "timeout"
            else {"op": "query", "data": "g", "graph": self.PROBE,
                  field: value}
        )
        line = json.dumps(request).encode()  # emits Infinity / NaN
        with ServerThread(GraphCatalog(tmp_path / "catalog")) as thread:
            with socket.create_connection(thread.address, timeout=30) as sock:
                handle = sock.makefile("rwb")
                handle.write(line + b"\n" + b'{"op": "ping"}\n')
                handle.flush()
                reply = json.loads(handle.readline())
                pong = json.loads(handle.readline())
        assert reply["ok"] is False
        assert reply["error"].startswith(f"'{field}' must be")
        if field != "timeout":
            assert reply["trace"]
        assert pong == {"ok": True, "pong": True}
        assert not caplog.records, "the request raised in the handler"


class TestQueryOutcomes:
    """Every query ends in exactly one counted outcome and writes one
    ``query`` log line naming it."""

    DATA = "t 3 2\nv 0 1 1\nv 1 2 2\nv 2 1 1\ne 0 1\ne 1 2\n"
    PROBE = "t 2 1\nv 0 1 1\nv 1 2 1\ne 0 1\n"

    def test_queries_equal_served_plus_rejected_plus_errors(self, tmp_path):
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", loads_graph(self.DATA))
        plan = FaultPlan([FaultRule("server.admission", "overload", times=1)])
        mix = [
            ({}, "shed"),  # the injected overload sheds the first query
            ({}, "served"),
            ({"priority": "urgent"}, "error"),
            ({"tenant": ["x"]}, "error"),
            ({"limit": float("inf")}, "error"),
            ({"data": "nope"}, "error"),
        ]
        traces = []
        with ServerThread(
            GraphCatalog(root), faults=plan,
            obs=Observability(log=StructuredLog()),
        ) as thread:
            with socket.create_connection(thread.address, timeout=30) as sock:
                handle = sock.makefile("rwb")
                for fields, outcome in mix:
                    request = {"op": "query", "data": "g",
                               "graph": self.PROBE, **fields}
                    handle.write(json.dumps(request).encode() + b"\n")
                    handle.flush()
                    reply = json.loads(handle.readline())
                    assert reply["ok"] is (outcome == "served"), reply
                    handle.read(reply.get("bytes", 0))
                    traces.append(reply["trace"])
            with ServiceClient(*thread.address) as client:
                server = client.stats()["server"]
            records = [
                r for r in thread.server.obs.log.read_records()
                if r["event"] == "query"
            ]
        assert server["queries"] == len(mix)
        assert (server["served"], server["rejected"], server["errors"]) \
            == (1, 1, 4)
        assert server["queries"] == (
            server["served"] + server["rejected"] + server["errors"]
        )
        assert [(r["trace"], r["outcome"]) for r in records] == [
            (trace, outcome) for trace, (_, outcome) in zip(traces, mix)
        ]

    def test_failed_reply_write_is_counted_error(self, tmp_path):
        class GoneWriter:
            def write(self, data):
                pass

            async def drain(self):
                raise ConnectionResetError("peer went away")

        server = MatchingServer(
            GraphCatalog(tmp_path / "catalog"),
            obs=Observability(log=StructuredLog()),
        )
        tstate = server.tenants.resolve(None)
        with pytest.raises(ConnectionResetError):
            asyncio.run(server._query_exit(
                GoneWriter(), "t1", "served", {"ok": True, "trace": "t1"},
                tstate, log={"data": "g"},
            ))
        assert server.counters["served"] == 0
        assert server.counters["errors"] == 1
        assert tstate.counters["served"] == 0
        [record] = server.obs.log.read_records()
        assert record["outcome"] == "error"
        assert record["error"].startswith("reply write failed")


class _BlockedMatch:
    """Patches ``GuPEngine.match`` so that a search of a query with
    ``vertices`` vertices waits for :meth:`release`; ``entered`` counts
    the searches that reached the patch."""

    def __init__(self, monkeypatch, vertices):
        self.entered = threading.Semaphore(0)
        self._release = threading.Event()
        original = GuPEngine.match

        def match(engine, query, *args, **kwargs):
            if query.num_vertices == vertices:
                self.entered.release()
                assert self._release.wait(timeout=60)
            return original(engine, query, *args, **kwargs)

        monkeypatch.setattr(GuPEngine, "match", match)

    def wait_entered(self):
        assert self.entered.acquire(timeout=60)

    def release(self):
        self._release.set()


def _in_thread(call):
    """Run ``call`` on a thread; returns a function that joins it and
    returns its value (or raises its exception)."""
    box = {}

    def run():
        try:
            box["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()

    def join():
        thread.join(timeout=60)
        assert not thread.is_alive()
        if "error" in box:
            raise box["error"]
        return box["value"]

    return join


class TestCacheEpochs:
    """A cache holds results of one data-graph epoch, and exists only
    for catalog entries that exist."""

    DATA = "t 3 2\nv 0 7\nv 1 8\nv 2 8\ne 0 1\ne 0 2\n"
    PROBE = "t 2 1\nv 0 7\nv 1 8\ne 0 1\n"
    OTHER = "t 1 0\nv 0 8\n"

    @pytest.mark.parametrize("warm", [False, True])
    def test_search_from_before_an_update_is_not_stored(
        self, tmp_path, monkeypatch, warm
    ):
        """A miss that searched epoch 1 finishes after an update to
        epoch 2 was acknowledged: its reply is right for epoch 1, but
        its result must not become a hit at epoch 2."""
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", loads_graph(self.DATA))
        probe = loads_graph(self.PROBE)
        with ServerThread(GraphCatalog(root), max_inflight=2) as thread:
            with ServiceClient(*thread.address) as client:
                if warm:  # the entry's cache exists before the race
                    client.query(loads_graph(self.OTHER), "g")
                blocked = _BlockedMatch(monkeypatch, vertices=2)
                first = _in_thread(lambda: ServiceClient(
                    *thread.address).query(probe, "g"))
                blocked.wait_entered()
                ack = client.update("g", {"remove_edges": [[0, 2]]})
                assert ack.entry["epoch"] == 2
                blocked.release()
                stale = first()
                assert (stale.cache, stale.num_embeddings) == ("miss", 2)
                again = client.query(probe, "g")
                current = GuPEngine(
                    GraphCatalog(root).engine("g").data
                ).match(probe)
                stats = client.stats()["qcache"]["per_data"]["g"]
        assert current.num_embeddings == 1
        assert again.num_embeddings == current.num_embeddings
        assert sorted(again.embeddings) == sorted(current.embeddings)
        assert again.cache == "miss"
        assert stats["uncacheable"] == 1

    def test_miss_running_across_a_removing_reload_leaves_no_cache(
        self, tmp_path, monkeypatch
    ):
        """A miss that started before a reload removed its entry
        finishes with its answer, but leaves no cache behind to answer
        the removed entry's later queries."""
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", loads_graph(self.DATA))
        probe = loads_graph(self.PROBE)
        with ServerThread(GraphCatalog(root), max_inflight=2) as thread:
            with ServiceClient(*thread.address) as client:
                client.query(loads_graph(self.OTHER), "g")  # warm cache
                blocked = _BlockedMatch(monkeypatch, vertices=2)
                first = _in_thread(lambda: ServiceClient(
                    *thread.address).query(probe, "g"))
                blocked.wait_entered()
                GraphCatalog(root).remove("g")
                report = client.reload()["report"]
                blocked.release()
                answered = first()
                with pytest.raises(ServiceError, match="unknown"):
                    client.query(probe, "g")
                caches = set(thread.server._caches)
        assert report["g"]["action"] == "removed"
        assert (answered.cache, answered.num_embeddings) == ("miss", 2)
        assert caches == set()

    def test_unknown_entries_make_no_cache(self, tmp_path):
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", loads_graph(self.DATA))
        probe = loads_graph(self.PROBE)
        unknown = [f"nope{i}" for i in range(5)]
        with ServerThread(GraphCatalog(root)) as thread:
            with ServiceClient(*thread.address) as client:
                for name in unknown:
                    with pytest.raises(ServiceError, match="unknown"):
                        client.query(probe, name)
                assert client.query(probe, "g").cache == "miss"
                assert client.query(probe, "g").cache == "hit"
                per_data = client.stats()["qcache"]["per_data"]
                exposition = client.metrics()
        assert set(per_data) == {"g"}
        # The first query's miss is counted although its lookup found
        # no cache yet.
        assert (per_data["g"]["hits"], per_data["g"]["misses"]) == (1, 1)
        for name in unknown:
            assert f'"{name}"' not in exposition


def _on_event_loop():
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


class TestCostlyCanonicalization:
    """A query too costly to canonicalize on the event loop is looked
    up on the executor, in a matching slot, while the loop serves."""

    def test_costly_query_does_not_stall_the_loop(
        self, tmp_path, monkeypatch
    ):
        ring = cycle_graph(["A"] * 300)
        edge = graph_from_adjacency(["A", "A"], [(0, 1)])
        root = tmp_path / "catalog"
        GraphCatalog(root).add("ring", ring)
        calls = []
        entered, release = threading.Event(), threading.Event()
        original = qcache_module.canonical_form

        def canonical_form(graph, *args, **kwargs):
            form = original(graph, *args, **kwargs)
            on_loop = _on_event_loop()
            calls.append((graph.num_vertices, on_loop, form is None))
            if graph.num_vertices == 300 and not on_loop:
                # Held until the loop has served other requests.
                entered.set()
                assert release.wait(timeout=60)
            return form

        monkeypatch.setattr(qcache_module, "canonical_form", canonical_form)
        with ServerThread(GraphCatalog(root), max_inflight=2) as thread:
            with ServiceClient(*thread.address) as client:
                client.query(edge, "ring")  # a miss: makes the cache
                big = _in_thread(lambda: ServiceClient(
                    *thread.address).query(ring, "ring", limit=1))
                assert entered.wait(timeout=30)
                try:
                    health = client.healthz()
                    hit = client.query(edge, "ring")
                finally:
                    release.set()
                first = big()
                again = client.query(ring, "ring", limit=1)
        assert health["active"] == 1  # the costly query, still in flight
        assert hit.cache == "hit" and hit.num_embeddings == 600
        assert (first.cache, first.num_embeddings) == ("miss", 1)
        assert (again.cache, again.num_embeddings) == ("hit", 1)
        # Each costly lookup gave up on the loop and finished off it.
        assert [c for c in calls if c[0] == 300] == [
            (300, True, True), (300, False, False)
        ] * 2


class TestInlineHits:
    """A cache hit is answered on the event loop: admitted and counted
    like any query, but it takes no matching slot."""

    DATA = TestCacheEpochs.DATA
    PROBE = TestCacheEpochs.PROBE
    MISS = "t 3 2\nv 0 8\nv 1 7\nv 2 8\ne 0 1\ne 1 2\n"

    def serve(self, tmp_path, **kwargs):
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", loads_graph(self.DATA))
        return ServerThread(GraphCatalog(root), **kwargs)

    def test_hit_answered_while_every_slot_is_held(
        self, tmp_path, monkeypatch
    ):
        probe, miss = loads_graph(self.PROBE), loads_graph(self.MISS)
        with self.serve(tmp_path, max_inflight=1) as thread:
            with ServiceClient(*thread.address) as client:
                assert client.query(probe, "g").cache == "miss"
                blocked = _BlockedMatch(monkeypatch, vertices=3)
                holder = _in_thread(lambda: ServiceClient(
                    *thread.address).query(miss, "g"))
                blocked.wait_entered()  # the one matching slot is held
                try:
                    hit = client.query(probe, "g")
                    health = client.healthz()
                finally:
                    blocked.release()
                assert holder().cache == "miss"
        assert hit.cache == "hit"
        assert hit.num_embeddings == 2
        assert hit.queue_seconds == 0
        assert health["active"] == 1  # the blocked miss; the hit has left

    def test_hit_reply_fields(self, tmp_path):
        probe = loads_graph(self.PROBE)
        with self.serve(tmp_path) as thread:
            with ServiceClient(*thread.address) as client:
                client.query(probe, "g")
                hit = client.query(probe, "g", limit=1)
        assert (hit.cache, hit.status) == ("hit", "embedding_limit")
        assert hit.queue_seconds == 0
        assert hit.server_seconds > 0

    @pytest.mark.parametrize("reason", ["draining", "capacity", "rate"])
    def test_hit_is_shed_like_a_miss(self, tmp_path, reason):
        """Each shed reason rejects a would-be hit exactly as it
        rejects a would-be miss: same reason, same counters, and no
        cache lookup."""
        kwargs = {}
        if reason == "capacity":
            kwargs["faults"] = FaultPlan([FaultRule(
                "server.admission", "overload", after=1, times=2,
            )])
        if reason == "rate":
            kwargs["tenants"] = TenantTable(
                [TenantSpec("t", rate=0.001, burst=1.0)]
            )
        probe, miss = loads_graph(self.PROBE), loads_graph(self.MISS)
        with self.serve(tmp_path, **kwargs) as thread:
            with ServiceClient(*thread.address, tenant="t") as client:
                assert client.query(probe, "g").cache == "miss"
                before = client.stats()
                if reason == "draining":
                    thread.server.lifecycle.state = DRAINING
                shed = []
                try:
                    for query in (probe, miss):  # a hit, then a miss
                        with pytest.raises(ServiceOverloaded) as info:
                            client.query(query, "g")
                        shed.append(info.value.reason)
                finally:
                    thread.server.lifecycle.state = SERVING
                after = client.stats()
        assert shed == [reason, reason]

        def grew(section, key):
            return after[section][key] - before[section][key]

        for key in ("queries", "rejected", "shed_normal"):
            assert grew("server", key) == 2, key
        for key in ("served", "errors"):
            assert grew("server", key) == 0, key
        tenant = {k: after["tenants"]["t"][k] - before["tenants"]["t"][k]
                  for k in ("queries", "admitted", "served",
                            f"shed_{reason}")}
        assert tenant == {"queries": 2, "admitted": 0, "served": 0,
                          f"shed_{reason}": 2}
        assert after["qcache"] == before["qcache"]

    def test_counters_reconcile_after_a_mix(self, tmp_path):
        probe, miss = loads_graph(self.PROBE), loads_graph(self.MISS)
        plan = FaultPlan([FaultRule(
            "server.admission", "overload", after=2, times=1,
        )])
        with self.serve(tmp_path, faults=plan) as thread:
            with ServiceClient(*thread.address, tenant="t") as client:
                outcomes = []
                for query, name in [
                    (probe, "g"),     # miss
                    (probe, "g"),     # hit
                    (probe, "g"),     # shed by the forced overload
                    (miss, "g"),      # miss
                    (miss, "g"),      # hit
                    (probe, "nope"),  # error: unknown entry
                    (probe, "g"),     # hit
                ]:
                    try:
                        outcomes.append(client.query(query, name).cache)
                    except ServiceOverloaded:
                        outcomes.append("shed")
                    except ServiceError:
                        outcomes.append("error")
                stats = client.stats()
                exposition = parse_exposition(client.metrics())
        assert outcomes == ["miss", "hit", "shed", "miss", "hit", "error",
                            "hit"]
        server, tenant = stats["server"], stats["tenants"]["t"]
        assert (server["queries"], server["served"], server["rejected"],
                server["errors"]) == (7, 5, 1, 1)
        assert server["active"] == 0
        for key in ("queries", "served", "rejected", "errors"):
            assert exposition[(f"repro_server_{key}_total", ())] \
                == server[key], key
        assert (tenant["queries"], tenant["admitted"], tenant["served"],
                tenant["shed_capacity"], tenant["inflight"]) \
            == (7, 6, 5, 1, 0)
        for key in ("queries", "admitted", "served", "shed_capacity"):
            assert exposition[(f"repro_tenant_{key}_total",
                               (("tenant", "t"),))] == tenant[key], key
        qcache = stats["qcache"]["per_data"]["g"]
        assert (qcache["hits"], qcache["misses"]) == (3, 2)
        for key in ("hits", "misses"):
            assert exposition[(f"repro_qcache_{key}_total",
                               (("data", "g"),))] == qcache[key], key


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
                assert stats["catalog"]["artifact_loads"] == 1
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_server_imports_stay_numpy_free(self):
        # numpy is not a runtime dependency: the serving process must not
        # pay its import time and resident memory.
        code = (
            "import sys, repro.cli, repro.service.server, repro.core.procpool; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
