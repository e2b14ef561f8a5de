"""Observability layer: metrics registry, structured logs, search counts.

The load-bearing property is *reconciliation by construction*: the
``stats`` op, ``healthz``, and ``/metrics`` all read the same
:class:`CounterGroup` storage, so their numbers must agree — asserted
here under forced overload and subscriber-drop fault plans, not just
on a happy path.  Trace propagation is proven end to end: one query
issued through a retrying client against a fault-injected server
leaves client-attempt, server-handling, and procpool-worker log lines
that share a single trace id across three processes.
"""

import json
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.trace import TraceRecorder
from repro.cli import main as cli_main
from repro.core.engine import GuPEngine
from repro.dynamic.delta import GraphDelta
from repro.graph.builder import graph_from_adjacency
from repro.graph.io import saves_graph
from repro.matching.limits import SearchLimits
from repro.obs import (
    CounterGroup,
    MetricsRegistry,
    Observability,
    StructuredLog,
    current_log,
    current_trace,
    new_trace_id,
    parse_exposition,
    trace_context,
)
from repro.obs.metrics import MetricsError
from repro.obs.spans import current_span, span, span_scope
from repro.service.catalog import GraphCatalog
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service.server import MatchingServer, ServerThread
from repro.workload.datasets import load_dataset
from repro.workload.querygen import generate_query

SRC = Path(__file__).resolve().parent.parent / "src"


def bipartite_world():
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    ab_query = graph_from_adjacency(["A", "B"], [(0, 1)])
    return data, ab_query


def serve_world(tmp_path, faults=None, **server_kwargs):
    data, ab_query = bipartite_world()
    root = tmp_path / "catalog"
    GraphCatalog(root).add("g", data)
    catalog = GraphCatalog(root)
    if faults is not None:
        server_kwargs["faults"] = faults
    return ServerThread(catalog, **server_kwargs), ab_query


def flatten(text):
    """Exposition -> {family: summed value across label sets}."""
    out = {}
    for (name, _labels), value in parse_exposition(text).items():
        out[name] = out.get(name, 0) + value
    return out


class TestCounterGroup:
    def test_dict_drop_in(self):
        g = CounterGroup({"a": 0, "b": 0})
        g["a"] += 2
        g.inc("b")
        g.inc("b", 3)
        assert g["a"] == 2 and g["b"] == 4
        assert set(g) == {"a", "b"}
        assert "a" in g and "zzz" not in g
        assert dict(g) == {"a": 2, "b": 4}
        assert sorted(g.items()) == [("a", 2), ("b", 4)]
        assert g.get("zzz", 7) == 7
        assert len(g) == 2

    def test_pickles_as_snapshot(self):
        g = CounterGroup({"a": 0})
        g.inc("a", 5)
        clone = pickle.loads(pickle.dumps(g))
        assert dict(clone) == {"a": 5}
        clone.inc("a")  # lock survives the round trip
        assert clone["a"] == 6

    def test_concurrent_increments_do_not_lose_updates(self):
        g = CounterGroup({"n": 0})

        def bump():
            for _ in range(1000):
                g.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert g["n"] == 8000


class TestMetricsRegistry:
    def test_counter_gauge_histogram_render_and_parse(self):
        reg = MetricsRegistry()
        c = reg.counter("t_requests_total", "requests")
        c.inc()
        c.inc(2)
        gauge = reg.gauge("t_active", "active")
        gauge.set(3)
        hist = reg.histogram("t_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)

        text = reg.render()
        assert "# TYPE t_requests_total counter" in text
        assert "# TYPE t_seconds histogram" in text
        parsed = parse_exposition(text)
        assert parsed[("t_requests_total", ())] == 3
        assert parsed[("t_active", ())] == 3
        assert parsed[("t_seconds_bucket", (("le", "0.1"),))] == 1
        assert parsed[("t_seconds_bucket", (("le", "1"),))] == 2
        assert parsed[("t_seconds_bucket", (("le", "+Inf"),))] == 3
        assert parsed[("t_seconds_count", ())] == 3
        assert parsed[("t_seconds_sum", ())] == pytest.approx(5.55)

    def test_labeled_family(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_ops_total", "ops", labelnames=["op"])
        fam.labels(op="read").inc(2)
        fam.labels(op="write").inc()
        parsed = parse_exposition(reg.render())
        assert parsed[("t_ops_total", (("op", "read"),))] == 2
        assert parsed[("t_ops_total", (("op", "write"),))] == 1

    def test_attached_group_renders_live_values(self):
        reg = MetricsRegistry()
        g = CounterGroup({"hits": 0})
        reg.attach_group("t_cache", g, labels={"data": "g"})
        g.inc("hits", 4)  # after attachment: render must see it
        parsed = parse_exposition(reg.render())
        assert parsed[("t_cache_hits_total", (("data", "g"),))] == 4

    def test_on_scrape_hook_runs_at_render(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("t_now", "")
        reg.on_scrape(lambda: gauge.set(42))
        parsed = parse_exposition(reg.render())
        assert parsed[("t_now", ())] == 42

    def test_reregistration_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("t_x_total", "")
        with pytest.raises(MetricsError):
            reg.gauge("t_x_total", "")


class TestStructuredLog:
    def test_memory_records(self):
        log = StructuredLog()
        record = log.emit("e", k=1, trace="t1")
        assert record["event"] == "e" and record["trace"] == "t1"
        assert log.read_records() == [record]

    def test_memory_is_bounded(self):
        log = StructuredLog(memory_limit=5)
        for i in range(20):
            log.emit("e", i=i)
        records = log.read_records()
        assert len(records) == 5
        assert records[-1]["i"] == 19

    def test_path_backed_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLog(path=str(path))
        log.emit("one", n=1)
        log.emit("two", n=2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["event"] == "one"
        assert [r["n"] for r in log.read_records()] == [1, 2]

    def test_pickles_path_only(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLog(path=str(path))
        clone = pickle.loads(pickle.dumps(log))
        clone.emit("from-clone")
        assert [r["event"] for r in log.read_records()] == ["from-clone"]

    def test_trace_context_nests_and_restores(self):
        log = StructuredLog()
        assert current_trace() is None
        with trace_context("outer", log):
            assert current_trace() == "outer"
            assert current_log() is log
            with trace_context("inner", None):
                assert current_trace() == "inner"
                assert current_log() is None
            assert current_trace() == "outer"
        assert current_trace() is None

    def test_emit_stamps_bound_trace(self):
        log = StructuredLog()
        with trace_context("t-bound", log):
            record = log.emit("e")
        assert record["trace"] == "t-bound"

    def test_observability_emits_only_to_a_sink(self):
        assert Observability().log is None
        Observability().emit("query", outcome="served")  # no sink: no-op
        log = StructuredLog()
        Observability(log=log).emit("query", outcome="served")
        Observability(enabled=False, log=log).emit("query", outcome="shed")
        assert [r["outcome"] for r in log.read_records()] == ["served"]

    def test_span_without_a_log_takes_no_id(self):
        with span_scope("base"):
            with span("engine.build") as bare:
                assert current_span() == "base"
            assert bare.id is None
            log = StructuredLog()
            with trace_context("feedbeef00000002", log):
                with span("engine.search", workers=1) as timed:
                    assert current_span() == timed.id
            assert current_span() == "base"
        [record] = log.read_records()
        assert (record["name"], record["span"], record["parent"]) == (
            "engine.search", timed.id, "base"
        )
        assert record["trace"] == "feedbeef00000002"
        assert record["workers"] == 1

    def test_new_trace_ids_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(t) == 16 for t in ids)


class TestSearchObservers:
    @pytest.fixture(scope="class")
    def world(self):
        data = load_dataset("wordnet", scale=0.1, seed=11)
        query = generate_query(data, 6, "sparse", seed=11)
        return data, query

    def test_analyze_counts_equal_the_event_stream(self):
        # ANALYZE's search block replaces the sampling profiler: its
        # exact counters must equal the Algorithm-2 event stream a
        # TraceRecorder sees on the same (sequential) run.
        data = load_dataset("wordnet", scale=0.25, seed=2023)
        engine = GuPEngine(data)
        checked = 0
        for seed, size, density in (
            (1, 8, "sparse"), (2, 8, "dense"), (3, 12, "sparse"),
            (4, 6, "dense"),
        ):
            query = generate_query(data, size, density, seed=seed)
            for limits in (SearchLimits(), SearchLimits(max_embeddings=5)):
                report, result = engine.explain(
                    query, "analyze", limits=limits
                )
                recorder = TraceRecorder()
                engine.match(query, limits=limits, observer=recorder)
                search = report["search"]
                assert recorder.count("descend") == search["recursions"] - 1
                assert recorder.count("backjump") == search["backjumps"]
                assert recorder.count("embedding") == search["embeddings_found"]
                assert search["embeddings_found"] == result.num_embeddings
                kinds = recorder.conflicts_by_kind()
                for kind in ("injectivity", "reservation", "nogood_vertex",
                             "symmetry"):
                    assert kinds.get(kind, 0) == search[f"pruned_{kind}"], kind
                assert set(kinds) <= {
                    "injectivity", "reservation", "nogood_vertex",
                    "symmetry", "no_candidate",
                }
                checked += search["recursions"]
        assert checked > 100  # the queries really searched

    def test_observed_match_results_identical(self, world):
        data, query = world
        engine = GuPEngine(data)
        limits = SearchLimits(max_embeddings=50)
        plain = engine.match(query, limits=limits)
        observed = engine.match(
            query, limits=limits, workers=2, observer=TraceRecorder()
        )
        assert observed.embeddings == plain.embeddings
        assert observed.num_embeddings == plain.num_embeddings

    def test_embedding_cap_zero_counts_the_first_embedding(self):
        # The engine checks the cap after recording, so cap=0 still
        # yields the first embedding; the observer's embedding events
        # must agree with the result.
        data, query = bipartite_world()
        engine = GuPEngine(data)
        limits = SearchLimits(max_embeddings=0)
        plain = engine.match(query, limits=limits)
        recorder = TraceRecorder()
        observed = engine.match(query, limits=limits, observer=recorder)
        assert observed.embeddings == plain.embeddings
        assert observed.num_embeddings == plain.num_embeddings
        assert recorder.count("embedding") == observed.num_embeddings


def http_get(host, port, path):
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode(), body.decode()


class TestServerObservability:
    def test_three_surfaces_reconcile_under_forced_overload(self, tmp_path):
        plan = FaultPlan([FaultRule("server.admission", "overload", times=3)])
        thread, query = serve_world(tmp_path, faults=plan)
        retry = RetryPolicy(attempts=5, base_delay=0.01, jitter=0.0)
        with thread:
            with ServiceClient(*thread.address, retry=retry) as client:
                reply = client.query(query, "g")
                assert reply.num_embeddings == 2
                stats = client.stats()
                metrics = flatten(client.metrics())
                health = client.healthz()

            server = stats["server"]
            assert server["rejected"] == 3
            assert server["shed_normal"] == 3
            # stats <-> /metrics: same storage, same numbers.
            for counter, family in (
                ("queries", "repro_server_queries_total"),
                ("served", "repro_server_served_total"),
                ("rejected", "repro_server_rejected_total"),
                ("shed_normal", "repro_server_shed_normal_total"),
                ("errors", "repro_server_errors_total"),
            ):
                assert metrics[family] == server[counter], counter
            # healthz <-> /metrics: load gauges and pool counters.
            assert metrics["repro_server_active"] == health["active"]
            assert metrics["repro_server_capacity"] == health["capacity"]
            for key, value in health["pool"].items():
                assert metrics[f"repro_pool_{key}_total"] == value
            # catalog counters cross-check through the same exposition.
            for key, value in stats["catalog"].items():
                if isinstance(value, int):
                    assert metrics[f"repro_catalog_{key}_total"] == value

    def test_subscriber_drop_losses_surface_as_metric(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("server.subscriber.send", "delay", seconds=1.5,
                       times=1)]
        )
        thread, query = serve_world(
            tmp_path, faults=plan, subscriber_queue=1,
            subscriber_policy="drop", obs=Observability(log=StructuredLog()),
        )
        updates = [GraphDelta(add_edges=((0, u),)) for u in (3, 4, 5)]
        final = GraphDelta(add_edges=((1, 3),))
        with thread:
            sub_client = ServiceClient(*thread.address)
            updater = ServiceClient(*thread.address)
            try:
                sub_client.subscribe(query, "g")
                for delta in updates:
                    updater.update("g", delta)
                time.sleep(2.0)
                updater.update("g", final)
                delivered = lost = 0
                while delivered + lost < len(updates) + 1:
                    event = sub_client.next_event(timeout=30)
                    delivered += 1
                    lost += int(event.get("lost", 0))
                assert lost >= 1
                stats = updater.stats()
                metrics = flatten(updater.metrics())
                assert stats["server"]["events_dropped"] == lost
                assert metrics["repro_server_events_dropped_total"] == lost
                assert metrics["repro_server_updates_total"] == 4
                # The server's own log narrates each drop.
                drops = [
                    r for r in thread.server.obs.log.read_records()
                    if r["event"] == "subscriber.drop"
                ]
                assert sum(r["lost"] for r in drops) == lost
            finally:
                sub_client.close()
                updater.close()

    def test_http_get_metrics_and_healthz(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.query(query, "g")
                op_families = set(flatten(client.metrics()))
            status, body = http_get(*thread.address, "/metrics")
            assert " 200 " in status
            assert set(flatten(body)) == op_families
            status, health = http_get(*thread.address, "/healthz")
            assert " 200 " in status
            assert json.loads(health)["status"] == "ok"
            status, _ = http_get(*thread.address, "/nope")
            assert " 404 " in status
            # The JSON-lines protocol still works on the same port.
            with ServiceClient(*thread.address) as client:
                assert client.ping()

    def test_query_header_reports_queue_wait_and_trace(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                reply = client.query(query, "g")
                assert reply.queue_seconds >= 0.0
                assert reply.server_seconds >= reply.elapsed
                assert reply.trace and len(reply.trace) == 16

    def test_profile_key_is_ignored_like_any_unknown_key(self, tmp_path):
        # The sampling profiler folded into EXPLAIN ANALYZE; an old
        # client's "profile": true is now an unknown key, so the query
        # gets an ordinary (cacheable) reply with no profile header.
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                for expected_cache in ("miss", "hit"):
                    header = client.request({
                        "op": "query", "data": "g",
                        "graph": saves_graph(query), "profile": True,
                    })
                    embeddings = client._read_embeddings(header)
                    assert "profile" not in header
                    assert header["cache"] == expected_cache
                    assert header["num_embeddings"] == 2
                    assert len(embeddings) == 2

    def test_phase_histograms_count_served_queries(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                for _ in range(3):
                    client.query(query, "g")
                parsed = parse_exposition(client.metrics())
        for phase in ("queue", "build", "search", "stream"):
            key = ("repro_server_phase_seconds_count", (("phase", phase),))
            assert parsed[key] == 3, phase
        assert parsed[("repro_server_request_seconds_count", ())] == 3

    def test_default_server_keeps_no_log_and_still_counts(self, tmp_path):
        # No sink by default: nothing is retained, yet a shed query, a
        # miss, a hit and an error advance the counters and the phase
        # histograms exactly as they do with a log.
        plan = FaultPlan([FaultRule("server.admission", "overload", times=1)])
        thread, query = serve_world(tmp_path, faults=plan)
        assert thread.server.obs.log is None
        with thread:
            with ServiceClient(
                *thread.address, retry=RetryPolicy(attempts=1)
            ) as client:
                with pytest.raises(ServiceOverloaded):
                    client.query(query, "g")
                assert client.query(query, "g").cache == "miss"
                assert client.query(query, "g").cache == "hit"
                with pytest.raises(ServiceError, match="nope"):
                    client.query(query, "nope")
                server = client.stats()["server"]
                parsed = parse_exposition(client.metrics())
        assert thread.server.obs.log is None
        assert (
            server["queries"], server["served"], server["rejected"],
            server["errors"], server["shed_normal"],
        ) == (4, 2, 1, 1, 1)
        for phase in ("queue", "build", "search", "stream"):
            key = ("repro_server_phase_seconds_count", (("phase", phase),))
            assert parsed[key] == 2, phase
        assert parsed[("repro_server_request_seconds_count", ())] == 2


class TestTracePropagation:
    def test_one_trace_across_client_server_and_workers(self, tmp_path):
        server_log = tmp_path / "server.jsonl"
        plan = FaultPlan([FaultRule("server.admission", "overload", times=1)])
        thread, query = serve_world(
            tmp_path, faults=plan,
            obs=Observability(log=StructuredLog(path=str(server_log))),
        )
        client_log = StructuredLog()
        retry = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0)
        with thread:
            with ServiceClient(*thread.address, retry=retry,
                               log=client_log) as client:
                reply = client.query(query, "g", workers=2, cache=False)
                assert reply.num_embeddings == 2
        trace = reply.trace
        assert trace

        attempts = [
            r for r in client_log.read_records()
            if r["event"] == "client.attempt"
        ]
        assert [r["attempt"] for r in attempts] == [1, 2]
        assert {r["trace"] for r in attempts} == {trace}

        records = StructuredLog(path=str(server_log)).read_records()
        by_trace = [r for r in records if r.get("trace") == trace]
        outcomes = [
            r["outcome"] for r in by_trace if r["event"] == "query"
        ]
        assert outcomes == ["shed", "served"]  # attempt 1 shed, attempt 2 ok
        worker_lines = [r for r in by_trace if r["event"] == "procpool.task"]
        assert worker_lines, "no worker log lines carried the trace"
        assert all(r["pid"] != attempts[0]["pid"] for r in worker_lines)

    def test_trace_context_reaches_fault_free_pool_run(self, tmp_path):
        # Same propagation, no server: bind a context, dispatch to the
        # pool directly, and find the workers' lines in the file.
        data, query = bipartite_world()
        log_path = tmp_path / "pool.jsonl"
        log = StructuredLog(path=str(log_path))
        engine = GuPEngine(data)
        with trace_context("feedbeef00000001", log):
            result = engine.match(query, workers=2)
        assert result.num_embeddings == 2
        tasks = [
            r for r in log.read_records() if r["event"] == "procpool.task"
        ]
        assert tasks
        assert {r["trace"] for r in tasks} == {"feedbeef00000001"}


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )

    def test_stats_and_metrics_commands(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.query(query, "g")
            host, port = thread.address
            stats = self.run_cli("stats", host, str(port))
            assert stats.returncode == 0, stats.stderr
            assert "served" in stats.stdout
            assert "query cache" in stats.stdout
            metrics = self.run_cli("metrics", host, str(port))
            assert metrics.returncode == 0, metrics.stderr
            assert "repro_server_served_total 1" in metrics.stdout

    def test_serve_builds_a_log_only_for_request_log(
        self, tmp_path, monkeypatch
    ):
        class Started(Exception):
            pass

        logs = []

        async def start(server, host, port):
            logs.append(server.obs.log)
            raise Started

        monkeypatch.setattr(MatchingServer, "start", start)
        base = ["serve", "--root", str(tmp_path / "cat"), "--port", "0"]
        with pytest.raises(Started):
            cli_main(base)
        path = tmp_path / "requests.jsonl"
        with pytest.raises(Started):
            cli_main([*base, "--request-log", str(path)])
        assert logs[0] is None
        assert logs[1].path == str(path)

    def test_trace_exports_derived_server_spans(self, tmp_path, capsys):
        log_path = tmp_path / "requests.jsonl"
        thread, query = serve_world(
            tmp_path, obs=Observability(log=StructuredLog(path=str(log_path)))
        )
        with thread:
            with ServiceClient(*thread.address) as client:
                reply = client.query(query, "g", cache=False)
                assert client.ping()  # the query line follows the reply
        out = tmp_path / "trace.json"
        args = ["trace", reply.trace, "--log", str(log_path), "--out", str(out)]
        assert cli_main(args) == 0
        assert "5 span(s)" in capsys.readouterr().out
        events = json.loads(out.read_text(encoding="utf-8"))["traceEvents"]
        assert sorted(e["name"] for e in events) == [
            "engine.build", "engine.search",
            "server.queue", "server.request", "server.stream",
        ]
        args[1] = "0" * 16
        assert cli_main(args) == 1

    def test_unreachable_server_exits_one(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])
        for command in ("stats", "metrics"):
            proc = self.run_cli(command, "127.0.0.1", port)
            assert proc.returncode == 1
            assert "error" in proc.stderr

    def test_query_prints_queue_exec_split_and_analyze(self, tmp_path):
        thread, query = serve_world(tmp_path)
        qpath = tmp_path / "q.graph"
        from repro.graph.io import save_graph

        save_graph(query, qpath)
        with thread:
            host, port = thread.address
            proc = self.run_cli(
                "query", str(qpath), "g", "--host", host,
                "--port", str(port), "--explain", "analyze",
            )
            with ServiceClient(host, port) as client:
                report = client.query(query, "g", explain="analyze").explain
        assert proc.returncode == 0, proc.stderr
        assert "queue " in proc.stdout and "exec " in proc.stdout
        search = report["search"]
        assert search["recursions"] > 1
        assert (
            f"search: {search['recursions']} recursions, "
            f"{search['backjumps']} backjumps, "
            f"{search['pruned_by_guards']} guard-pruned"
        ) in proc.stdout
