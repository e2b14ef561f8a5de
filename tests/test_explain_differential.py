"""EXPLAIN/ANALYZE differential proofs and span-tree integration.

The load-bearing invariant of `repro.obs.explain`: introspection may
add time, never change results.  The grid below proves an analyzed run
byte-identical (embeddings, SearchStats, status) to a plain match for
production, the seed oracle and the two engines that swap one seed twin
in, sequential and through the procpool — the combinations whose code
paths actually differ.  Alongside: plan
reports without running search, qcache ``peek`` never perturbing the
cache, and a served query's causal span tree reconstructed from the
request log.
"""

import json

import pytest

from repro.core.engine import GuPEngine
from repro.graph.builder import graph_from_adjacency
from repro.matching.limits import SearchLimits
from repro.obs import Observability, StructuredLog
from repro.obs.spans import (
    build_chrome_trace,
    children_of,
    spans_for_trace,
    validate_span_tree,
)
from repro.service.catalog import GraphCatalog
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service.qcache import QueryCache
from repro.service.server import ServerThread
from repro.workload.datasets import load_dataset
from repro.workload.querygen import generate_query
from tests.oracle_engines import ENGINES


@pytest.fixture(scope="module")
def world():
    data = load_dataset("wordnet", scale=0.1, seed=11)
    query = generate_query(data, 6, "sparse", seed=11)
    return data, query


def tiny_world():
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    query = graph_from_adjacency(["A", "B"], [(0, 1)])
    return data, query


class TestAnalyzeDifferential:
    """analyze == plain match, production vs oracle and the mixes."""

    @pytest.mark.parametrize("search", ["bitmap", "list"])
    @pytest.mark.parametrize("build", ["bitmap", "set"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid(self, world, search, build, workers):
        data, query = world
        engine_cls = ENGINES[build, search]
        limits = SearchLimits(max_embeddings=50)
        plain = engine_cls(data).match(query, limits=limits, workers=workers)
        report, analyzed = engine_cls(data).explain(
            query, mode="analyze", limits=limits, workers=workers
        )
        assert analyzed.embeddings == plain.embeddings
        assert analyzed.num_embeddings == plain.num_embeddings
        assert analyzed.stats == plain.stats
        assert analyzed.status == plain.status
        # Every twin replays production exactly.
        production = GuPEngine(data).match(
            query, limits=limits, workers=workers
        )
        assert plain.embeddings == production.embeddings
        assert plain.stats == production.stats
        assert plain.status == production.status
        # The report attributes that very run, not a parallel one.
        assert report["mode"] == "analyze"
        assert report["result"]["num_embeddings"] == plain.num_embeddings
        assert report["search"]["recursions"] == plain.stats.recursions
        assert "backend" not in report
        if workers > 1:
            assert len(report["tasks"]) >= 1
            # Each root partition searches up to the cap before the
            # deterministic merge truncates, so the per-task total
            # bounds the merged count from above.
            assert (
                sum(t["embeddings_found"] for t in report["tasks"])
                >= plain.num_embeddings
            )
        else:
            assert report["tasks"] == []

    def test_plan_runs_no_search(self, world):
        data, query = world
        report, result = GuPEngine(data).explain(query, mode="plan")
        assert result is None
        assert report["mode"] == "plan"
        assert "search" not in report and "result" not in report
        assert report["order"] and len(report["order"]) == query.num_vertices
        assert len(report["vertex_scores"]) == query.num_vertices
        assert {s["stage"] for s in report["stages"]} >= {"seed"}
        assert report["dag"] is not None
        assert report["reservations"]["guards"] >= 0
        assert report["qcache"] is None

    def test_unknown_mode_rejected(self, world):
        data, query = world
        with pytest.raises(ValueError, match="unknown explain mode"):
            GuPEngine(data).explain(query, mode="verbose")


class TestQueryCachePeek:
    """peek reports the serve decision without perturbing the cache.

    The grid crosses every entry kind with every cap class, collect and
    ``cap_serving``: peek's decision must be whether lookup hits, with
    the same embedding count on a hit, and peek must move no counter,
    LRU position or stored embedding.
    """

    @staticmethod
    def star_world():
        data = graph_from_adjacency(
            ["B", "A", "A", "A", "A"], [(0, 1), (0, 2), (0, 3), (0, 4)]
        )
        return data, graph_from_adjacency(["A", "B"], [(0, 1)])  # 4 hits

    ENTRIES = {
        "complete": SearchLimits(),
        "truncated": SearchLimits(max_embeddings=2),
        "count-only": SearchLimits(collect=False),
    }

    # Short ids keep each row's name within the test report's width:
    # "capped" serves capped hits, "exact" only exact complete ones.
    @pytest.mark.parametrize("cap_serving", [True, False],
                             ids=["capped", "exact"])
    @pytest.mark.parametrize("collect", [True, False], ids=["rows", "count"])
    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 9],
                             ids=["none", "0", "1", "k", "over"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_peek_grid(self, entry, cap, collect, cap_serving):
        data, query = self.star_world()
        engine = GuPEngine(data)
        cache = QueryCache(cap_serving=cap_serving)
        limits = SearchLimits(max_embeddings=cap, collect=collect)
        assert cache.peek(query, limits) == {
            "exact_key": True, "decision": "miss", "reason": "absent",
        }
        stored = self.ENTRIES[entry]
        _, form = cache.lookup(query, stored)
        assert cache.store(form, stored, engine.match(query, limits=stored))
        # A second, younger entry: a peek that touched LRU order would
        # move the probed entry behind it.
        other = graph_from_adjacency(["A", "B", "A"], [(0, 1), (1, 2)])
        _, other_form = cache.lookup(other, SearchLimits())
        cache.store(other_form, SearchLimits(), engine.match(other))
        [probed] = [e for k, e in cache._entries.items() if k == form.key]
        before = (
            dict(cache.counters.snapshot()), list(cache._entries),
            list(probed.embeddings),
        )
        report = cache.peek(query, limits)
        assert before == (
            dict(cache.counters.snapshot()), list(cache._entries),
            list(probed.embeddings),
        )
        served, _ = cache.lookup(query, limits)
        assert (report["decision"] == "hit") == (served is not None), report
        if served is not None:
            assert report["num_embeddings"] == served.num_embeddings
            assert report["served"] == (
                "complete" if served.status.value == "complete"
                else "truncated"
            )


class TestServedSpanTree:
    """One served analyze query leaves an exact causal span tree."""

    def test_round_trip_tree(self, tmp_path):
        data, query = tiny_world()
        log_path = tmp_path / "requests.jsonl"
        obs = Observability(log=StructuredLog(path=str(log_path)))
        catalog_root = tmp_path / "catalog"
        GraphCatalog(catalog_root).add("g", data)
        with ServerThread(GraphCatalog(catalog_root), obs=obs) as thread:
            host, port = thread.address
            with ServiceClient(host, port, log=obs.log) as client:
                plain = client.query(query, "g", workers=2, cache=False)
                reply = client.query(
                    query, "g", workers=2, cache=False, explain="analyze"
                )
        assert reply.embeddings == plain.embeddings
        assert reply.explain["mode"] == "analyze"
        assert reply.cache == "bypass"

        records = StructuredLog(path=str(log_path)).read_records()
        spans = spans_for_trace(records, reply.trace)
        assert validate_span_tree(spans) == []
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        roots = children_of(spans, None)
        assert [r["name"] for r in roots] == ["client.attempt"]
        request = by_name["server.request"][0]
        assert request["parent"] == roots[0]["span"]
        phases = {r["name"] for r in children_of(spans, request["span"])}
        assert {"server.queue", "engine.search", "server.stream"} <= phases
        search = by_name["engine.search"][0]
        workers = by_name["worker.task"]
        assert len(workers) >= 1
        assert all(w["parent"] == search["span"] for w in workers)
        # Worker intervals nest numerically inside the search phase —
        # monotonic() is one clock across server and worker processes.
        for worker in workers:
            assert worker["t0"] >= search["t0"] - 1e-6
            assert (
                worker["t0"] + worker["dur"]
                <= search["t0"] + search["dur"] + 1e-6
            )

        export = build_chrome_trace(spans)
        assert len(export["traceEvents"]) == len(spans)
        ids = {e["args"]["span"] for e in export["traceEvents"]}
        for event in export["traceEvents"]:
            parent = event["args"].get("parent")
            assert parent is None or parent in ids
        json.dumps(export)  # must be serializable as-is

    def test_served_query_record_derives_server_spans(self, tmp_path):
        """A served ``query`` line is the request's one server record:
        ``spans_for_trace`` derives the request, queue and stream spans
        from its fields.  Shed and error lines derive none."""
        data, query = tiny_world()
        GraphCatalog(tmp_path).add("g", data)
        server_log, client_log = StructuredLog(), StructuredLog()
        plan = FaultPlan([FaultRule("server.admission", "overload", times=1)])
        with ServerThread(
            GraphCatalog(tmp_path), faults=plan,
            obs=Observability(log=server_log),
        ) as thread:
            with ServiceClient(
                *thread.address, retry=RetryPolicy(attempts=1),
                log=client_log,
            ) as client:
                with pytest.raises(ServiceOverloaded):
                    client.query(query, "g")
                with pytest.raises(ServiceError):
                    client.query(query, "nope")
                client.query(query, "g")
                hit = client.query(query, "g")
                assert client.ping()  # the line follows the reply
        assert hit.cache == "hit"
        records = server_log.read_records()
        [record] = [r for r in records if r.get("trace") == hit.trace]
        assert (record["event"], record["outcome"]) == ("query", "served")
        [attempt] = [
            r for r in client_log.read_records()
            if r.get("trace") == hit.trace and r["event"] == "span"
        ]

        spans = spans_for_trace(records, hit.trace)
        by_name = {r["name"]: r for r in spans}
        assert sorted(by_name) == [
            "server.queue", "server.request", "server.stream",
        ]
        request = by_name["server.request"]
        assert request["span"] == record["span"]
        assert request["parent"] == attempt["span"]
        assert (request["t0"], request["dur"]) == (record["t0"], record["dur"])
        assert (request["tenant"], request["data"]) == (record["tenant"], "g")
        for phase in ("queue", "stream"):
            derived = by_name[f"server.{phase}"]
            assert derived["span"] == f"{record['span']}.{phase}"
            assert derived["parent"] == record["span"]
            assert (derived["t0"], derived["dur"]) == (
                record[f"{phase}_t0"], record[f"{phase}_seconds"]
            )
        for derived in spans:
            assert derived["event"] == "span"
            assert (derived["trace"], derived["pid"]) == (
                hit.trace, record["pid"]
            )
        # The phases nest inside the request span.
        end = request["t0"] + request["dur"] + 1e-6
        assert request["t0"] <= by_name["server.queue"]["t0"] + 1e-6
        assert by_name["server.queue"]["t0"] <= by_name["server.stream"]["t0"]
        stream = by_name["server.stream"]
        assert stream["t0"] + stream["dur"] <= end
        tree = spans_for_trace(client_log.read_records() + records, hit.trace)
        assert validate_span_tree(tree) == []

        unserved = [
            r for r in records
            if r["event"] == "query" and r["outcome"] != "served"
        ]
        assert sorted(r["outcome"] for r in unserved) == ["error", "shed"]
        for line in unserved:
            assert spans_for_trace(records, line["trace"]) == []
