"""Service-side dynamic-graph tests (DESIGN.md §9).

Covers the epoch-versioned catalog ``update``/``remove``, selective
query-cache invalidation (the touched-label rule), the server's
``update`` and ``subscribe`` ops, and the ``repro update`` /
``repro catalog info|remove`` CLI verbs.  The acceptance differential:
after a service update, (a) queries whose labels avoid the delta are
served from the *kept* cache with **zero** artifact builds or rebuilds
— only a patch — and (b) the subscriber event stream carries exactly
the embedding diff of the update.
"""

import json
import random
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.dynamic.delta import GraphDelta, apply_delta, saves_delta
from repro.filtering.artifacts import DataArtifacts
from repro.graph.builder import graph_from_adjacency
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import graph_checksum, save_graph
from repro.matching.limits import SearchLimits
from repro.service.catalog import CatalogError, GraphCatalog
from repro.service.client import ServiceClient, ServiceError
from repro.service.qcache import QueryCache
from repro.service.server import ServerThread
from tests.test_dynamic import SYMMETRIC_QUERIES, edge_churn_delta


def bipartite_world():
    """Two label-disjoint components: A-B path and C-D path."""
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    ab_query = graph_from_adjacency(["A", "B"], [(0, 1)])
    cd_query = graph_from_adjacency(["C", "D"], [(0, 1)])
    return data, ab_query, cd_query


class TestCatalogUpdate:
    def test_epoch_bumps_and_persists(self, tmp_path):
        data, _, _ = bipartite_world()
        catalog = GraphCatalog(tmp_path)
        info = catalog.add("g", data)
        assert info["epoch"] == 1
        delta = GraphDelta(add_edges=((0, 3),))
        info, summary = catalog.update("g", delta)
        assert info["epoch"] == 2
        assert summary.added_edges == ((0, 3),)
        assert catalog.counters["updates"] == 1
        assert catalog.counters["artifact_patches"] == 1

        # A cold catalog over the same root loads the patched store
        # cleanly: correct graph, correct epoch, no build.
        cold = GraphCatalog(tmp_path)
        engine = cold.engine("g")
        assert engine.data.has_edge(0, 3)
        assert cold.info("g")["epoch"] == 2
        assert cold.counters["artifact_loads"] == 1
        assert cold.counters["artifact_builds"] == 0

    def test_update_unknown_entry_raises(self, tmp_path):
        catalog = GraphCatalog(tmp_path)
        with pytest.raises(CatalogError, match="unknown"):
            catalog.update("nope", GraphDelta())

    def test_update_keeps_invariant_cache(self, tmp_path):
        data, ab_query, _ = bipartite_world()
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", data)
        engine = catalog.engine("g")
        engine.match(ab_query, limits=SearchLimits())
        invariants = engine.invariants
        recomputes = invariants.recomputes
        assert recomputes > 0
        catalog.update("g", GraphDelta(add_edges=((3, 5),)))
        updated = catalog.engine("g")
        assert updated.invariants is invariants
        # The CD-side delta leaves the AB query's candidate masks
        # unchanged, so a warm re-match recomputes nothing.
        updated.match(ab_query, limits=SearchLimits())
        assert updated.invariants.recomputes == recomputes

    def test_remove_and_info(self, tmp_path):
        data, _, _ = bipartite_world()
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", data)
        assert catalog.names() == ["g"]
        catalog.remove("g")
        assert catalog.names() == []
        assert catalog.counters["removes"] == 1
        with pytest.raises(CatalogError, match="unknown"):
            catalog.remove("g")
        with pytest.raises(CatalogError, match="unknown"):
            catalog.info("g")

    def test_checksum_cached_on_graph_instance(self):
        data, _, _ = bipartite_world()
        assert data._checksum is None
        first = graph_checksum(data)
        assert data._checksum == first
        assert graph_checksum(data) == first


class TestQueryCacheInvalidation:
    def test_touched_label_rule(self):
        data, ab_query, cd_query = bipartite_world()
        engine = GuPEngine(data)
        cache = QueryCache()
        limits = SearchLimits()
        for query in (ab_query, cd_query):
            _, form = cache.lookup(query, limits)
            cache.store(form, limits, engine.match(query, limits=limits))
        assert len(cache) == 2
        kept, evicted = cache.invalidate_labels(frozenset({"C", "D"}))
        assert (kept, evicted) == (1, 1)
        assert cache.counters["delta_kept"] == 1
        assert cache.counters["delta_evicted"] == 1
        hit, _ = cache.lookup(ab_query, limits)
        assert hit is not None
        miss, _ = cache.lookup(cd_query, limits)
        assert miss is None

    def test_disjoint_labels_keep_everything(self):
        data, ab_query, _ = bipartite_world()
        engine = GuPEngine(data)
        cache = QueryCache()
        limits = SearchLimits()
        _, form = cache.lookup(ab_query, limits)
        cache.store(form, limits, engine.match(ab_query, limits=limits))
        kept, evicted = cache.invalidate_labels(frozenset({"Z"}))
        assert (kept, evicted) == (1, 0)

    def test_store_checks_the_epoch(self):
        data, ab_query, cd_query = bipartite_world()
        engine = GuPEngine(data)
        cache = QueryCache(epoch=3)
        limits = SearchLimits()
        _, form = cache.lookup(ab_query, limits)
        result = engine.match(ab_query, limits=limits)
        # Older: stale.  Newer: ahead of an invalidation not yet seen.
        assert not cache.store(form, limits, result, epoch=2)
        assert not cache.store(form, limits, result, epoch=4)
        assert cache.counters["uncacheable"] == 2
        assert len(cache) == 0
        assert cache.store(form, limits, result, epoch=3)
        assert cache.lookup(ab_query, limits)[0] is not None

    def test_invalidation_moves_the_epoch(self):
        data, ab_query, cd_query = bipartite_world()
        engine = GuPEngine(data)
        cache = QueryCache(epoch=1)
        limits = SearchLimits()
        for query in (ab_query, cd_query):
            _, form = cache.lookup(query, limits)
            cache.store(form, limits, engine.match(query, limits=limits), 1)
        assert cache.invalidate_labels(frozenset({"Z"}), 2) == (2, 0)
        assert cache.epoch == 2
        # Epoch 3's delta went unseen: no entry can be vouched for.
        assert cache.invalidate_labels(frozenset({"Z"}), 4) == (0, 2)
        assert cache.epoch == 4
        _, form = cache.lookup(ab_query, limits)
        assert cache.store(
            form, limits, engine.match(ab_query, limits=limits), 4
        )
        cache.reset(4)  # already valid for epoch 4: kept
        assert len(cache) == 1
        cache.reset(5)
        assert (len(cache), cache.epoch) == (0, 5)


@pytest.fixture()
def dynamic_service(tmp_path):
    data, _, _ = bipartite_world()
    root = tmp_path / "catalog"
    GraphCatalog(root).add("g", data)
    catalog = GraphCatalog(root)  # cold start
    with ServerThread(catalog, max_inflight=2, max_pending=8) as thread:
        yield thread


class TestServerUpdate:
    def test_untouched_queries_stay_warm_through_update(
        self, dynamic_service
    ):
        data, ab_query, cd_query = bipartite_world()
        with ServiceClient(*dynamic_service.address) as client:
            for query in (ab_query, cd_query):
                assert client.query(query, "g").cache == "miss"
            base = client.stats()
            assert base["catalog"]["artifact_loads"] == 1

            # Delta entirely on the C/D side of the graph.
            reply = client.update(
                "g", GraphDelta(add_vertices=("D",), add_edges=((3, 6),))
            )
            assert reply.epoch == 2
            assert reply.qcache_kept == 1
            assert reply.qcache_evicted == 1

            # AB: kept entry serves a hit; CD: evicted, re-runs and sees
            # the new match.  Neither path builds or loads artifacts —
            # the update only *patched*.
            ab = client.query(ab_query, "g")
            assert ab.cache == "hit"
            cd = client.query(cd_query, "g")
            assert cd.cache == "miss"
            assert sorted(cd.embeddings) == [(3, 4), (3, 6), (5, 4)]

            stats = client.stats()
            assert stats["catalog"]["artifact_patches"] == 1
            assert stats["catalog"]["artifact_builds"] == 0
            assert (
                stats["artifact_builds_in_process"]
                == base["artifact_builds_in_process"]
            ), "service update must never rebuild DataArtifacts"
            assert stats["server"]["updates"] == 1

            # Served results equal a direct engine run on the updated
            # graph (the differential part of the acceptance).
            new_data, _ = apply_delta(
                data, GraphDelta(add_vertices=("D",), add_edges=((3, 6),))
            )
            direct = GuPEngine(new_data).match(cd_query, limits=SearchLimits())
            assert sorted(cd.embeddings) == sorted(
                tuple(e) for e in direct.embeddings
            )

    def test_update_is_durable_across_restart(self, tmp_path):
        data, _, cd_query = bipartite_world()
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", data)
        catalog = GraphCatalog(root)
        with ServerThread(catalog) as thread:
            with ServiceClient(*thread.address) as client:
                client.update("g", GraphDelta(remove_edges=((3, 4),)))

        restarted = GraphCatalog(root)
        with ServerThread(restarted) as thread:
            with ServiceClient(*thread.address) as client:
                reply = client.query(cd_query, "g")
                assert reply.embeddings == [(5, 4)]
                stats = client.stats()
                assert stats["catalog"]["artifact_loads"] == 1

    def test_bad_deltas_are_rejected_cleanly(self, dynamic_service):
        with ServiceClient(*dynamic_service.address) as client:
            with pytest.raises(ServiceError, match="does not exist"):
                client.update("g", GraphDelta(remove_edges=((0, 5),)))
            with pytest.raises(ServiceError, match="unknown catalog entry"):
                client.update("nope", GraphDelta())
            with pytest.raises(ServiceError, match="needs 'name'"):
                client.request({"op": "update"})
            # The connection stays usable afterwards.
            assert client.ping()


class TestSubscriptions:
    def test_subscriber_receives_exact_diffs(self, dynamic_service):
        _, ab_query, _ = bipartite_world()
        with ServiceClient(*dynamic_service.address) as subscriber, \
                ServiceClient(*dynamic_service.address) as updater:
            reply = subscriber.subscribe(ab_query, "g")
            assert reply.epoch == 1
            assert sorted(reply.embeddings) == [(0, 1), (2, 1)]

            out = updater.update(
                "g",
                GraphDelta(add_vertices=("A",), add_edges=((1, 6),)),
            )
            assert out.subscribers_notified == 1
            event = subscriber.next_event(timeout=30)
            assert event["event"] == "delta"
            assert event["subscription"] == reply.subscription
            assert event["epoch"] == 2
            assert event["added"] == [(6, 1)]
            assert event["removed"] == []

            out = updater.update("g", GraphDelta(remove_edges=((0, 1),)))
            event = subscriber.next_event(timeout=30)
            assert event["epoch"] == 3
            assert event["added"] == []
            assert event["removed"] == [(0, 1)]
            assert out.subscribers_notified == 1

    def test_symmetry_breaking_server_diffs_compose_to_direct_match(
        self, tmp_path
    ):
        # The served diff runs the same anchored enumeration as the
        # library; under break_symmetry it must still be exact.
        data = erdos_renyi_graph(9, 16, num_labels=1, seed=1)
        star = SYMMETRIC_QUERIES["star"]
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", data)
        catalog = GraphCatalog(root, config=GuPConfig(break_symmetry=True))
        rng = random.Random(1)
        added_total = 0
        with ServerThread(catalog, max_inflight=2, max_pending=8) as thread, \
                ServiceClient(*thread.address) as subscriber, \
                ServiceClient(*thread.address) as updater:
            matches = set(subscriber.subscribe(star, "g").embeddings)
            graph = data
            for _ in range(5):
                delta = edge_churn_delta(rng, graph)
                graph, _ = apply_delta(graph, delta)
                updater.update("g", delta)
                event = subscriber.next_event(timeout=30)
                added = [tuple(e) for e in event["added"]]
                assert len(set(added)) == len(added)
                assert matches.isdisjoint(added)
                matches.difference_update(tuple(e) for e in event["removed"])
                matches.update(added)
                added_total += len(added)
                assert matches == GuPEngine(graph).match(star).embedding_set()
        assert added_total > 0

    def test_subscription_ends_with_connection(self, dynamic_service):
        _, ab_query, _ = bipartite_world()
        subscriber = ServiceClient(*dynamic_service.address)
        subscriber.subscribe(ab_query, "g")
        subscriber.close()
        with ServiceClient(*dynamic_service.address) as updater:
            for _ in range(20):
                out = updater.update("g", GraphDelta(add_vertices=("B",)))
                if out.subscribers_notified == 0:
                    break
            assert out.subscribers_notified == 0

    def test_subscribe_unknown_entry_errors(self, dynamic_service):
        _, ab_query, _ = bipartite_world()
        with ServiceClient(*dynamic_service.address) as client:
            with pytest.raises(ServiceError, match="unknown catalog entry"):
                client.subscribe(ab_query, "nope")
            assert client.ping()


class TestCli:
    def test_catalog_info_and_remove(self, tmp_path, capsys):
        data, _, _ = bipartite_world()
        graph_path = tmp_path / "g.graph"
        save_graph(data, graph_path)
        root = str(tmp_path / "cat")
        assert cli_main(
            ["catalog", "add", "g", str(graph_path), "--root", root]
        ) == 0
        assert cli_main(["catalog", "info", "g", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "epoch:      1" in out
        assert "vertices:   6" in out
        assert cli_main(["catalog", "remove", "g", "--root", root]) == 0
        assert cli_main(["catalog", "info", "g", "--root", root]) == 1
        assert "unknown catalog entry" in capsys.readouterr().err
        assert cli_main(["catalog", "remove", "g", "--root", root]) == 1

    def test_update_verb_against_live_server(
        self, dynamic_service, tmp_path, capsys
    ):
        host, port = dynamic_service.address
        delta_path = tmp_path / "edit.delta"
        delta_path.write_text(
            saves_delta(GraphDelta(add_vertices=("A",), add_edges=((1, 6),))),
            encoding="utf-8",
        )
        rc = cli_main([
            "update", "g", str(delta_path),
            "--host", host, "--port", str(port),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 2" in out
        assert "+1 vertices" in out

    def test_update_verb_bad_delta_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.delta"
        bad.write_text("xx nope\n", encoding="utf-8")
        assert cli_main(["update", "g", str(bad)]) == 1
        assert "unknown record" in capsys.readouterr().err
        assert cli_main(["update", "g", str(tmp_path / "missing")]) == 1
