"""Zero-downtime reload and graceful drain (DESIGN.md §13).

Four layers:

* :func:`lifecycle_points` — the sweep contract.
* :meth:`GraphCatalog.reload` unit tests — the per-entry action report
  (kept / reloaded / removed / lazy) and the old-or-new swap invariant
  under injected crashes.
* Server integration — the ``reload`` / ``drain`` ops over the wire:
  external changes picked up without dropping queries, subscription
  diff-replay exactness (``old − removed + added == new``), and the
  three observability surfaces answering *during* a reload swap and a
  drain (``status`` reporting ``reloading`` / ``draining``).
* Fault sweeps over every lifecycle hook: a crash at any point leaves
  the server alive and the catalog at a consistent old-or-new epoch,
  a retried reload converges, and across crash + retry a subscriber
  receives its boundary delta **exactly once**.
"""

import threading
import time

import pytest

from repro.dynamic.delta import GraphDelta
from repro.graph.builder import graph_from_adjacency
from repro.matching.limits import SearchLimits
from repro.obs import parse_exposition
from repro.service.catalog import GraphCatalog
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.service.faults import FaultPlan, FaultRule, InjectedCrash
from repro.service.lifecycle import lifecycle_points
from repro.service.server import ServerThread

from tests.test_obs import http_get


def world_v1():
    """AB matches {(0, 1), (2, 1)}."""
    return graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )


def world_v2():
    """AB matches {(0, 1), (2, 1), (2, 3)} — distinguishable from v1."""
    return graph_from_adjacency(
        ["A", "B", "A", "B"],
        [(0, 1), (1, 2), (2, 3)],
    )


AB_V1 = {(0, 1), (2, 1)}
AB_V2 = {(0, 1), (2, 1), (2, 3)}


def ab_query():
    return graph_from_adjacency(["A", "B"], [(0, 1)])


def serve_world(tmp_path, faults=None, **server_kwargs):
    root = tmp_path / "catalog"
    GraphCatalog(root).add("g", world_v1())
    catalog = GraphCatalog(root)
    if faults is not None:
        server_kwargs["faults"] = faults
    return ServerThread(catalog, **server_kwargs), root


def overwrite_externally(root, name="g", graph=None):
    """What another process does between our reloads."""
    GraphCatalog(root).add(name, graph or world_v2(), overwrite=True)


class TestLifecyclePoints:
    def test_reload_points_in_execution_order(self):
        assert lifecycle_points("reload") == (
            "lifecycle.reload.begin",
            "lifecycle.reload.scan",
            "lifecycle.reload.build",
            "lifecycle.reload.swap",
            "lifecycle.reload.replay",
            "lifecycle.reload.commit",
        )

    def test_drain_points_in_execution_order(self):
        assert lifecycle_points("drain") == (
            "lifecycle.drain.begin",
            "lifecycle.drain.wait",
            "lifecycle.drain.timeout",
            "lifecycle.drain.close",
        )

    def test_unknown_operation_raises(self):
        with pytest.raises(ValueError, match="unknown lifecycle"):
            lifecycle_points("restart")


def matches(catalog, name):
    result = catalog.engine(name).match(ab_query(), limits=SearchLimits())
    return {tuple(e) for e in result.embeddings}


class TestCatalogReload:
    def test_report_covers_all_four_actions(self, tmp_path):
        ours = GraphCatalog(tmp_path)
        ours.add("kept_e", world_v1())
        ours.add("reloaded_e", world_v1())
        ours.add("removed_e", world_v1())
        theirs = GraphCatalog(tmp_path)  # the "other process"
        theirs.add("reloaded_e", world_v2(), overwrite=True)
        theirs.remove("removed_e")
        theirs.add("lazy_e", world_v1())  # never resident in `ours`

        report = ours.reload()
        assert report["kept_e"]["action"] == "kept"
        assert report["kept_e"]["epoch"] == 1
        assert report["reloaded_e"]["action"] == "reloaded"
        assert report["reloaded_e"]["old_epoch"] == 1
        assert report["reloaded_e"]["epoch"] == 2
        assert report["removed_e"]["action"] == "removed"
        assert report["removed_e"]["epoch"] is None
        assert report["lazy_e"]["action"] == "lazy"
        assert ours.counters["reloads"] == 1

        assert matches(ours, "reloaded_e") == AB_V2
        assert matches(ours, "kept_e") == AB_V1
        assert matches(ours, "lazy_e") == AB_V1
        assert "removed_e" not in ours.names()

    def test_noop_reload_keeps_everything(self, tmp_path):
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", world_v1())
        report = catalog.reload()
        assert report == {
            "g": {"action": "kept", "old_epoch": 1, "epoch": 1},
        }

    def test_crash_before_swap_leaves_old_state(self, tmp_path):
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", world_v1())
        overwrite_externally(tmp_path)
        plan = FaultPlan([FaultRule("lifecycle.reload.build", "crash")])
        with pytest.raises(InjectedCrash):
            catalog.reload(faults=plan)
        # Nothing swapped: the resident engine still serves v1 at its
        # admitted epoch, exactly as if the reload had never started.
        assert matches(catalog, "g") == AB_V1
        assert catalog.counters["reloads"] == 0
        report = catalog.reload()  # retry converges to the new epoch
        assert report["g"]["action"] == "reloaded"
        assert matches(catalog, "g") == AB_V2

    def test_crash_at_swap_leaves_new_state(self, tmp_path):
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", world_v1())
        overwrite_externally(tmp_path)
        plan = FaultPlan([FaultRule("lifecycle.reload.swap", "crash")])
        with pytest.raises(InjectedCrash):
            catalog.reload(faults=plan)
        # The swap hook fires after the locked swap: new state, whole.
        assert matches(catalog, "g") == AB_V2
        assert catalog.reload()["g"]["action"] == "kept"


class TestServerReload:
    def test_external_overwrite_served_after_reload(self, tmp_path):
        thread, root = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                reply = client.query(ab_query(), "g")
                assert set(reply.embeddings) == AB_V1
                overwrite_externally(root)
                out = client.reload()
                assert out["ok"] is True
                assert out["status"] == "serving"
                assert out["report"]["g"]["action"] == "reloaded"
                assert out["report"]["g"]["epoch"] == 2
                # The warm cache held a v1 result; the reload dropped
                # it, so even a cache-friendly query sees v2.
                assert set(client.query(ab_query(), "g").embeddings) == AB_V2
                stats = client.stats()
                health = client.healthz()
            assert stats["server"]["reloads"] == 1
            assert stats["catalog"]["reloads"] == 1
            assert health["entries"]["g"] == 2

    def test_removing_reload_during_a_miss_leaves_no_cache(self, tmp_path):
        """A miss that resolved its engine just before a reload removed
        the entry must not make the entry's cache again, nor its
        ``repro_qcache{data=...}`` metrics, once the reload dropped
        them."""
        resolved, release = threading.Event(), threading.Event()

        class PausingCatalog(GraphCatalog):
            pause = False

            def engine_ex(self, name):
                out = super().engine_ex(name)
                if self.pause:
                    self.pause = False
                    resolved.set()
                    release.wait(30)
                return out

        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", world_v1())
        catalog = PausingCatalog(root)
        aba = graph_from_adjacency(["A", "B", "A"], [(0, 1), (1, 2)])
        replies = []
        with ServerThread(catalog) as thread:
            with ServiceClient(*thread.address) as client, \
                    ServiceClient(*thread.address) as ops:
                client.query(ab_query(), "g")  # the entry's cache exists
                assert 'data="g"' in ops.metrics()
                catalog.pause = True
                miss = threading.Thread(
                    target=lambda: replies.append(client.query(aba, "g"))
                )
                miss.start()
                try:
                    assert resolved.wait(30)
                    GraphCatalog(root).remove("g")
                    out = ops.reload()
                    assert out["report"]["g"]["action"] == "removed"
                finally:
                    release.set()
                    miss.join(30)
                assert not miss.is_alive()
                metrics = ops.metrics()
            assert "g" not in thread.server._caches
        assert 'data="g"' not in metrics
        assert replies[0].num_embeddings == 2  # served from its engine

    def test_noop_reload_reports_kept(self, tmp_path):
        thread, _root = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.query(ab_query(), "g")  # make the engine resident
                out = client.reload()
            assert out["report"]["g"]["action"] == "kept"
            assert out["replayed"] == 0

    def test_subscriber_replayed_with_exact_boundary_diff(self, tmp_path):
        thread, root = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as subscriber, \
                    ServiceClient(*thread.address) as ops:
                sub = subscriber.subscribe(ab_query(), "g")
                old = set(sub.embeddings)
                assert old == AB_V1
                overwrite_externally(root)
                out = ops.reload()
                assert out["replayed"] == 1
                event = subscriber.next_event(timeout=30)
                assert event["event"] == "delta"
                assert event["subscription"] == sub.subscription
                assert event["reload"] is True
                assert event["epoch"] == 2
                # The PR 5 invariant holds by construction across the
                # epoch boundary: old − removed + added == new.
                replayed = (old - set(event["removed"])) | set(event["added"])
                assert replayed == AB_V2
                # Exactly one event — nothing lost, nothing duplicated.
                with pytest.raises(ServiceUnavailable):
                    subscriber.next_event(timeout=0.3)

    def test_subscriber_on_removed_entry_gets_error_event(self, tmp_path):
        thread, root = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as subscriber, \
                    ServiceClient(*thread.address) as ops:
                subscriber.subscribe(ab_query(), "g")
                GraphCatalog(root).remove("g")
                out = ops.reload()
                assert out["report"]["g"]["action"] == "removed"
                event = subscriber.next_event(timeout=30)
                assert event["event"] == "error"
                assert "removed" in event["error"]
                stats = ops.stats()
            assert stats["server"]["subscribers_dropped"] == 1

    def test_inband_update_then_reload_emits_nothing_twice(self, tmp_path):
        thread, _root = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as subscriber, \
                    ServiceClient(*thread.address) as ops:
                subscriber.subscribe(ab_query(), "g")
                # An in-band update notifies subscribers on the update
                # path and persists epoch 2 — so the following reload
                # finds nothing stale and must NOT replay the diff.
                out = ops.update(
                    "g", GraphDelta(add_vertices=("A",), add_edges=((1, 6),))
                )
                assert out.subscribers_notified == 1
                event = subscriber.next_event(timeout=30)
                assert event["added"] == [(6, 1)]
                reload_out = ops.reload()
                assert reload_out["report"]["g"]["action"] == "kept"
                assert reload_out["replayed"] == 0
                with pytest.raises(ServiceUnavailable):
                    subscriber.next_event(timeout=0.3)


class TestSurfacesDuringReload:
    def test_status_reports_reloading_and_surfaces_answer(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("lifecycle.reload.build", "delay", seconds=1.2)]
        )
        thread, root = serve_world(tmp_path, faults=plan)
        with thread:
            host, port = thread.address
            with ServiceClient(host, port) as probe:
                probe.query(ab_query(), "g")
                overwrite_externally(root)
                result = {}
                with ServiceClient(host, port) as ops_client:
                    worker = threading.Thread(
                        target=lambda: result.update(ops_client.reload())
                    )
                    worker.start()
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        health = probe.healthz()
                        if health["status"] == "reloading":
                            break
                        time.sleep(0.01)
                    else:
                        pytest.fail("never observed status=reloading")
                    # All three surfaces answer mid-swap.
                    stats = probe.stats()
                    assert stats["server"]["status"] == "reloading"
                    exposition = parse_exposition(probe.metrics())
                    assert exposition  # parseable, non-empty
                    status_line, body = http_get(host, port, "/metrics")
                    assert "200" in status_line
                    assert "repro_server" in body
                    worker.join(timeout=30)
                assert result["ok"] is True
                assert result["report"]["g"]["action"] == "reloaded"
                assert probe.healthz()["status"] == "ok"
                assert set(
                    probe.query(ab_query(), "g", cache=False).embeddings
                ) == AB_V2


class TestSurfacesDuringDrain:
    def test_draining_sheds_but_surfaces_answer(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("lifecycle.drain.wait", "delay", seconds=1.5)]
        )
        thread, _root = serve_world(tmp_path, faults=plan)
        with thread:
            host, port = thread.address
            with ServiceClient(host, port) as probe:
                probe.query(ab_query(), "g")
                result = {}
                with ServiceClient(host, port) as ops_client:
                    worker = threading.Thread(
                        target=lambda: result.update(
                            ops_client.drain(timeout=5.0)
                        )
                    )
                    worker.start()
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        health = probe.healthz()
                        if health["status"] == "draining":
                            break
                        time.sleep(0.01)
                    else:
                        pytest.fail("never observed status=draining")
                    # New queries are shed with the draining reason and
                    # a come-back hint...
                    with pytest.raises(ServiceOverloaded) as info:
                        probe.query(ab_query(), "g", cache=False)
                    assert info.value.reason == "draining"
                    assert info.value.retry_after is not None
                    # ...while all three surfaces keep answering, and
                    # agree on the shed accounting (PR 8 invariant).
                    stats = probe.stats()
                    assert stats["server"]["status"] == "draining"
                    assert stats["server"]["rejected"] == 1
                    tenant = stats["tenants"]["default"]
                    assert tenant["shed_draining"] == 1
                    exposition = parse_exposition(probe.metrics())
                    assert exposition[(
                        "repro_tenant_shed_draining_total",
                        (("tenant", "default"),),
                    )] == 1
                    status_line, body = http_get(host, port, "/metrics")
                    assert "200" in status_line
                    assert "repro_tenant_shed_draining_total" in body
                    worker.join(timeout=30)
            assert result == {
                "ok": True, "drained": True, "active": 0, "stopping": True,
            }
        # The context exit joined the thread: drain really stopped it.
        assert not thread._thread.is_alive()

    def test_drain_timeout_validation(self, tmp_path):
        thread, _root = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                for bad in (-1, True, "soon"):
                    with pytest.raises(ServiceError, match="timeout"):
                        client.drain(timeout=bad)
                assert client.ping()  # still serving: bad op, no drain
                assert client.healthz()["status"] == "ok"


class TestReloadFaultSweep:
    @pytest.mark.parametrize("point", lifecycle_points("reload"))
    def test_crash_at_each_point_converges_with_one_delta(
        self, tmp_path, point
    ):
        plan = FaultPlan([FaultRule(point, "crash")])
        thread, root = serve_world(tmp_path, faults=plan)
        with thread:
            with ServiceClient(*thread.address) as subscriber, \
                    ServiceClient(*thread.address) as client:
                old = set(subscriber.subscribe(ab_query(), "g").embeddings)
                overwrite_externally(root)
                with pytest.raises(ServiceError, match="injected crash"):
                    client.reload()
                # The server survives its own crash hook, and the
                # catalog is consistent at the old or the new epoch —
                # a retried reload converges either way.
                assert client.ping()
                out = client.reload()
                assert out["ok"] is True
                assert out["report"]["g"]["action"] in ("reloaded", "kept")
                # Wherever the crash hit — before the swap (retry does
                # the reload), at it (retry reports "kept" but replay
                # catches the stale epoch), or after the replay (the
                # crashed attempt already delivered) — the cache serves
                # the new epoch and the subscriber got its boundary
                # delta EXACTLY once.
                assert set(client.query(ab_query(), "g").embeddings) == AB_V2
                event = subscriber.next_event(timeout=30)
                assert event["reload"] is True
                replayed = (old - set(event["removed"])) | set(event["added"])
                assert replayed == AB_V2
                with pytest.raises(ServiceUnavailable):
                    subscriber.next_event(timeout=0.3)


    @pytest.mark.parametrize("point", lifecycle_points("reload"))
    def test_cached_answer_never_outlives_a_crashed_reload(
        self, tmp_path, point
    ):
        """A warm cache entry of the old epoch: wherever the first
        reload crashes, after the retried one the query is answered
        from the new epoch (at ``swap`` the retry reports "kept", and
        only the cache's own epoch shows that it trails)."""
        plan = FaultPlan([FaultRule(point, "crash")])
        thread, root = serve_world(tmp_path, faults=plan)
        with thread:
            with ServiceClient(*thread.address) as client:
                assert set(client.query(ab_query(), "g").embeddings) \
                    == AB_V1
                overwrite_externally(root)
                with pytest.raises(ServiceError, match="injected crash"):
                    client.reload()
                client.reload()
                reply = client.query(ab_query(), "g")
        assert set(reply.embeddings) == AB_V2
        assert reply.cache == "miss"


class TestDrainFaultSweep:
    @pytest.mark.parametrize("point", lifecycle_points("drain"))
    def test_crash_at_each_point_still_stops_cleanly(self, tmp_path, point):
        plan = FaultPlan([FaultRule(point, "crash")])
        thread, _root = serve_world(tmp_path, faults=plan)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.query(ab_query(), "g")
                try:
                    out = client.drain(timeout=2.0)
                except ServiceError as exc:
                    # Crashed mid-drain: the server is still up and a
                    # retried drain finishes the job.
                    assert "injected crash" in str(exc)
                    assert client.ping()
                    out = client.drain(timeout=2.0)
                else:
                    # The "timeout" hook only fires when the deadline
                    # expires with queries in flight; with an idle
                    # server the drain legitimately never reaches it.
                    assert point == "lifecycle.drain.timeout"
                assert out["ok"] is True
                assert out["drained"] is True
                assert out["stopping"] is True
        assert not thread._thread.is_alive()
