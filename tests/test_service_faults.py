"""Fault-injection suite: every recovery path, forced and verified.

The crash-point sweep is the core proof: for each catalog operation it
kills the process (``InjectedCrash``) at *every* declared persistence
point (:func:`repro.service.catalog.txn_points`), reopens the store
cold, and asserts the entry is **byte-identical** to either the state
before the operation or the state after an uninterrupted run — never
anything in between.  Updates are swept on both of their paths: the
delta-log append, and the compaction an entry whose log is one record
short takes.  The sidecar repair a stale ``meta.json`` triggers on load
is swept too.  The point list is generated, so adding a hook to the
catalog automatically extends the sweep.

Alongside it: forged torn states (partial writes journaling could not
have produced), procpool worker-death differentials, client
retry/backoff with a recorded schedule, priority load shedding, slow
subscribers under both backpressure policies, ``healthz``, and the
clean-signal-shutdown regression for ``repro serve``.
"""

import errno
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import GuPEngine
from repro.core.procpool import (
    POOL_COUNTERS,
    reset_pool_counters,
    run_partitioned,
)
from repro.dynamic.delta import GraphDelta
from repro.graph.builder import graph_from_adjacency
from repro.matching.limits import SearchLimits
from repro.service import catalog as catalog_module
from repro.service.catalog import (
    GRAPH_FILE,
    JOURNAL_FILE,
    LOG_COMPACT_RECORDS,
    LOG_FILE,
    META_FILE,
    CatalogError,
    GraphCatalog,
    _sha256,
    txn_points,
)
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.service.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    crash_at,
)
from repro.service.server import MatchingServer, ServerThread

SRC = Path(__file__).resolve().parent.parent / "src"

DELTA = GraphDelta(add_edges=((0, 3),))


def bipartite_world():
    """Two label-disjoint components: A-B path and C-D path."""
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    ab_query = graph_from_adjacency(["A", "B"], [(0, 1)])
    return data, ab_query


def toggles(count):
    """``count`` valid updates of the bipartite world that flip edge
    (2, 5) on and off, leaving DELTA applicable."""
    for i in range(count):
        edge = ((2, 5),)
        yield (
            GraphDelta(add_edges=edge) if i % 2 == 0
            else GraphDelta(remove_edges=edge)
        )


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    """A store whose delta log is one record short of compaction, so
    its next update commits a full snapshot instead of appending."""
    root = tmp_path_factory.mktemp("short-log")
    catalog = GraphCatalog(root)
    catalog.add("g", bipartite_world()[0])
    for delta in toggles(LOG_COMPACT_RECORDS - 1):
        catalog.update("g", delta)
    return root


def update_store(root: Path, point: str, short_log: Path) -> int:
    """The store an update crashing at ``point`` starts from: fresh
    from ``add`` for a log-append point, the short-log store for a
    compaction point.  Returns the entry's epoch."""
    if point in txn_points("compact"):
        shutil.copytree(short_log, root)
    else:
        GraphCatalog(root).add("g", bipartite_world()[0])
    return GraphCatalog(root).info("g")["epoch"]


def snapshot(directory: Path):
    """``{filename: bytes}`` for one entry directory ({} if absent)."""
    if not directory.exists():
        return {}
    return {
        child.name: child.read_bytes()
        for child in sorted(directory.iterdir())
        if child.is_file()
    }


def epoch2_snapshot(root: Path):
    """Add the bipartite world at epoch 1 under ``root`` and return the
    ``{filename: bytes}`` snapshot a compacting ``DELTA`` update would
    write (made on a scratch copy; the store stays at epoch 1)."""
    GraphCatalog(root).add("g", bipartite_world()[0])
    scratch = root.parent / (root.name + "-scratch")
    shutil.copytree(root, scratch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog_module, "LOG_COMPACT_RECORDS", 1)
        GraphCatalog(scratch).update("g", DELTA)
    new = snapshot(scratch / "g")
    shutil.rmtree(scratch)
    return new


def stale_sidecar_store(root: Path) -> bytes:
    """An epoch-1 store whose graph file was hand-edited to the epoch-2
    graph, so its sidecar is stale.  Returns the graph file's bytes."""
    graph_bytes = epoch2_snapshot(root)[GRAPH_FILE]
    (root / "g" / GRAPH_FILE).write_bytes(graph_bytes)
    return graph_bytes


def recover(root: Path, name: str):
    """Open the store cold and force recovery of ``name``.

    Returns the fresh catalog (entry may legitimately not exist)."""
    fresh = GraphCatalog(root)
    try:
        fresh.engine(name)
    except CatalogError:
        pass
    return fresh


def expected_side(op: str, point: str) -> str:
    """Which state a kill at ``point`` must recover to.

    The journal write is the pivot: before it is durable nothing may
    survive; from it on, everything must."""
    if op == "remove":
        return "old" if point == "catalog.remove.begin" else "new"
    if point in ("catalog.txn.begin", "catalog.log.begin"):
        return "old"
    if ".txn.tmp." in point:
        return "old"
    return "new"


def rollforward_expected(op: str, point: str) -> bool:
    """Whether recovery itself must do work (vs. a completed commit)."""
    if op == "remove":
        return point not in ("catalog.remove.begin", "catalog.remove.commit")
    return point == "catalog.txn.journal" or ".txn.rename." in point


class TestCrashPointSweep:
    """Kill at every declared point; recover to old-or-new, byte for byte."""

    @pytest.mark.parametrize("point", txn_points("add"))
    def test_add(self, tmp_path, point):
        data, _ = bipartite_world()
        # The uninterrupted run, for the "new"-side reference bytes.
        GraphCatalog(tmp_path / "ref").add("g", data)
        after = snapshot(tmp_path / "ref" / "g")

        root = tmp_path / "store"
        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).add("g", data)
        assert plan.fired() == 1, f"{point} was not on the executed path"

        fresh = recover(root, "g")
        state = snapshot(root / "g")
        if expected_side("add", point) == "old":
            assert state == {}
            with pytest.raises(CatalogError):
                fresh.info("g")
        else:
            assert state == after
            assert fresh.info("g")["epoch"] == 1
        assert fresh.counters["txn_rollbacks"] == 0
        assert fresh.counters["txn_rollforwards"] == (
            1 if rollforward_expected("add", point) else 0
        )

    @pytest.mark.parametrize(
        "point", txn_points("update") + txn_points("compact")
    )
    def test_update(self, tmp_path, point, short_log):
        root = tmp_path / "store"
        epoch = update_store(root, point, short_log)
        before = snapshot(root / "g")
        # Reference: the same update, uninterrupted, on a tree copy.
        shutil.copytree(root, tmp_path / "ref")
        GraphCatalog(tmp_path / "ref").update("g", DELTA)
        after = snapshot(tmp_path / "ref" / "g")
        assert before != after
        if point in txn_points("compact"):
            assert after[LOG_FILE] == b""  # the snapshot absorbed the log
        else:  # an append leaves the snapshot alone
            assert after[META_FILE] == before[META_FILE]

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).update("g", DELTA)
        assert plan.fired() == 1, f"{point} was not on the executed path"

        fresh = recover(root, "g")
        side = expected_side("update", point)
        assert snapshot(root / "g") == (before if side == "old" else after)
        info = fresh.info("g")
        engine = fresh.engine("g")
        if side == "old":
            assert info["epoch"] == epoch
            assert not engine.data.has_edge(0, 3)
        else:
            assert info["epoch"] == epoch + 1
            assert engine.data.has_edge(0, 3)
        assert fresh.counters["sidecar_repairs"] == 0
        assert fresh.counters["txn_rollbacks"] == 0
        assert fresh.counters["txn_rollforwards"] == (
            1 if rollforward_expected("update", point) else 0
        )

    @pytest.mark.parametrize("point", txn_points("repair"))
    def test_repair(self, tmp_path, point):
        """A load that finds a stale sidecar (the graph file hand-edited)
        rewrites ``meta.json`` alone; a kill anywhere in that rewrite
        still ends, after one reopen, at the repaired bytes."""
        root = tmp_path / "store"
        new_graph = stale_sidecar_store(root)
        shutil.copytree(root, tmp_path / "ref")
        GraphCatalog(tmp_path / "ref").engine("g")  # the uninterrupted repair
        after = snapshot(tmp_path / "ref" / "g")
        assert after[GRAPH_FILE] == new_graph
        assert after[META_FILE] != snapshot(root / "g")[META_FILE]

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).engine("g")
        assert plan.fired() == 1, f"{point} was not on the executed path"

        fresh = recover(root, "g")
        assert snapshot(root / "g") == after
        assert fresh.engine("g").data.has_edge(0, 3)  # the graph file wins
        assert fresh.info("g")["epoch"] == 1
        rolled = rollforward_expected("repair", point)
        assert fresh.counters["txn_rollforwards"] == (1 if rolled else 0)
        assert fresh.counters["sidecar_repairs"] == (
            0 if rolled or point == "catalog.txn.commit" else 1
        )
        assert fresh.counters["txn_rollbacks"] == 0
        again = GraphCatalog(root)
        again.engine("g")
        assert again.counters["sidecar_repairs"] == 0
        assert again.counters["artifact_loads"] == 1

    @pytest.mark.parametrize("point", txn_points("remove"))
    def test_remove(self, tmp_path, point):
        data, _ = bipartite_world()
        root = tmp_path / "store"
        GraphCatalog(root).add("g", data)
        before = snapshot(root / "g")

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).remove("g")
        assert plan.fired() == 1, f"{point} was not on the executed path"

        if expected_side("remove", point) == "new":
            # Even before recovery runs, a durable remove intent hides
            # the entry from listings.
            assert "g" not in GraphCatalog(root).names()
        fresh = recover(root, "g")
        if expected_side("remove", point) == "old":
            assert snapshot(root / "g") == before
            assert fresh.info("g")["epoch"] == 1
            assert fresh.counters["txn_rollforwards"] == 0
        else:
            assert not (root / "g").exists()
            with pytest.raises(CatalogError):
                fresh.info("g")
            assert fresh.counters["txn_rollforwards"] == (
                1 if rollforward_expected("remove", point) else 0
            )
        assert fresh.counters["txn_rollbacks"] == 0

    def test_every_declared_point_is_reached(self, tmp_path):
        """The sweep's point lists are exactly the executed hook path."""
        data, _ = bipartite_world()
        plan = FaultPlan()
        plan.record_history = True
        GraphCatalog(tmp_path, faults=plan).add("g", data)
        # The same graph, re-spelled: the sidecar's file hash goes stale,
        # so the next cold load repairs it.
        graph_file = tmp_path / "g" / GRAPH_FILE
        graph_file.write_bytes(graph_file.read_bytes() + b"\n")
        catalog = GraphCatalog(tmp_path, faults=plan)
        catalog.engine("g")
        assert catalog.counters["sidecar_repairs"] == 1
        appends = LOG_COMPACT_RECORDS - 1
        for delta in toggles(appends):
            catalog.update("g", delta)
        catalog.update("g", DELTA)  # the log is full: this one compacts
        catalog.remove("g")
        assert tuple(plan.history) == (
            txn_points("add")
            + txn_points("repair")
            + txn_points("update") * appends
            + txn_points("compact")
            + txn_points("remove")
        )

    @pytest.mark.parametrize(
        "point", ["catalog.log.begin", "catalog.txn.tmp.meta.json"]
    )
    def test_disk_full_is_reported_and_recoverable(
        self, tmp_path, point, short_log
    ):
        """ENOSPC surfaces as OSError; the store still recovers clean."""
        root = tmp_path / "store"
        epoch = update_store(root, point, short_log)
        before = snapshot(root / "g")

        plan = FaultPlan([FaultRule(point, "oserror")])
        with pytest.raises(OSError) as exc_info:
            GraphCatalog(root, faults=plan).update("g", DELTA)
        assert exc_info.value.errno == errno.ENOSPC

        fresh = recover(root, "g")
        side = expected_side("update", point)
        info = fresh.info("g")
        if side == "old":
            assert snapshot(root / "g") == before
            assert info["epoch"] == epoch
        else:
            assert info["epoch"] == epoch + 1


class TestForgedTornStates:
    """Partial-write states the journal protocol cannot produce itself.

    Forged directly on disk (the pre-journaling failure modes); ``_load``
    must still converge on a consistent epoch, with the honest counters.
    """

    def test_graph_written_meta_stale(self, tmp_path):
        stale_sidecar_store(tmp_path)

        fresh = GraphCatalog(tmp_path)
        engine = fresh.engine("g")
        assert engine.data.has_edge(0, 3)  # the graph file wins
        assert fresh.counters["sidecar_repairs"] == 1
        assert fresh.counters["txn_rollbacks"] == 0
        # No journal -> no transaction to attribute the graph to: the
        # stale sidecar's epoch is all the history we honestly have.
        assert fresh.info("g")["epoch"] == 1
        # The repair rewrote the sidecar: a second cold open is clean.
        again = GraphCatalog(tmp_path)
        again.engine("g")
        assert again.counters["artifact_loads"] == 1
        assert again.counters["sidecar_repairs"] == 0

    def test_artifacts_torn(self, tmp_path):
        """A torn ``artifacts.bin`` left by the older store layout is
        never read: the load is clean and keeps the epoch."""
        epoch2_snapshot(tmp_path)
        (tmp_path / "g" / "artifacts.bin").write_bytes(b"\x80\x05torn")

        fresh = GraphCatalog(tmp_path)
        assert not fresh.engine("g").data.has_edge(0, 3)
        assert fresh.counters["artifact_loads"] == 1
        assert fresh.counters["sidecar_repairs"] == 0
        assert fresh.info("g")["epoch"] == 1

    def test_journal_dangling_after_partial_rename(self, tmp_path):
        """Graph renamed to epoch 2, meta old, tmps gone."""
        new = epoch2_snapshot(tmp_path)
        (tmp_path / "g" / GRAPH_FILE).write_bytes(new[GRAPH_FILE])
        journal = {
            "op": "write",
            "epoch": 2,
            "files": {name: _sha256(new[name]) for name in new},
        }
        (tmp_path / "g" / JOURNAL_FILE).write_text(json.dumps(journal))

        fresh = GraphCatalog(tmp_path)
        engine = fresh.engine("g")
        assert engine.data.has_edge(0, 3)
        # Unrecoverable as a transaction (staged bytes missing), but the
        # journal proves the graph content *is* epoch 2 — the repaired
        # sidecar must say so instead of reviving epoch 1.
        assert fresh.counters["txn_rollbacks"] == 1
        assert fresh.counters["sidecar_repairs"] == 1
        assert fresh.info("g")["epoch"] == 2
        assert not (tmp_path / "g" / JOURNAL_FILE).exists()

    def test_journal_corrupt(self, tmp_path):
        epoch2_snapshot(tmp_path)
        (tmp_path / "g" / JOURNAL_FILE).write_text("{not json")

        fresh = GraphCatalog(tmp_path)
        fresh.engine("g")
        assert fresh.counters["txn_rollbacks"] == 1
        assert fresh.counters["artifact_loads"] == 1
        assert fresh.info("g")["epoch"] == 1
        assert not (tmp_path / "g" / JOURNAL_FILE).exists()

    def test_dangling_tmps_without_journal(self, tmp_path):
        new = epoch2_snapshot(tmp_path)
        for name in new:
            (tmp_path / "g" / (name + ".tmp")).write_bytes(new[name])

        fresh = GraphCatalog(tmp_path)
        fresh.engine("g")
        # Pre-journal garbage: silently discarded, clean load, epoch 1.
        assert fresh.counters["artifact_loads"] == 1
        assert fresh.counters["sidecar_repairs"] == 0
        assert fresh.counters["txn_rollbacks"] == 0
        assert fresh.info("g")["epoch"] == 1
        assert not list((tmp_path / "g").glob("*.tmp"))


@pytest.fixture(scope="module")
def pool_workload():
    """A path graph whose A-B-A query fans out into many root tasks."""
    n = 24
    data = graph_from_adjacency(
        ["A" if i % 2 == 0 else "B" for i in range(n)],
        [(i, i + 1) for i in range(n - 1)],
    )
    query = graph_from_adjacency(["A", "B", "A"], [(0, 1), (1, 2)])
    return data, query


class TestWorkerCrashRecovery:
    """A dying pool worker must not change a single embedding."""

    def run_pool(self, gcs, config, limits, faults=None):
        reset_pool_counters()
        return run_partitioned(gcs, config, limits, workers=2, faults=faults)

    @pytest.mark.parametrize("cap", [None, 5])
    def test_respawn_differential(self, pool_workload, cap):
        data, query = pool_workload
        engine = GuPEngine(data)
        gcs = engine.build(query)
        from repro.core.procpool import root_partition

        assert len(root_partition(gcs)) > 2  # the kill point must exist
        limits = SearchLimits(max_embeddings=cap)
        base_raw, base_status, base_stats = self.run_pool(
            gcs, engine.config, limits
        )
        assert POOL_COUNTERS["respawns"] == 0

        plan = FaultPlan([FaultRule("procpool.task.1", "die")])
        raw, status, stats = self.run_pool(
            gcs, engine.config, limits, faults=plan
        )
        assert POOL_COUNTERS["respawns"] == 1
        assert POOL_COUNTERS["tasks_rerun"] >= 1
        assert raw == base_raw
        assert status == base_status
        assert stats.embeddings_found == base_stats.embeddings_found


def serve_world(tmp_path, faults=None, **server_kwargs):
    """A small live server (tiny graph) with an injectable fault plan."""
    data, ab_query = bipartite_world()
    root = tmp_path / "catalog"
    GraphCatalog(root).add("g", data)
    catalog = GraphCatalog(root)
    if faults is not None:
        server_kwargs["faults"] = faults
    return ServerThread(catalog, **server_kwargs), ab_query


class TestClientRetryBackoff:
    def test_shed_request_retried_with_recorded_backoff(self, tmp_path):
        plan = FaultPlan([FaultRule("server.admission", "overload", times=2)])
        thread, query = serve_world(tmp_path, faults=plan)
        sleeps = []
        retry = RetryPolicy(
            attempts=4, base_delay=0.05, multiplier=2.0, jitter=0.0,
            sleep=sleeps.append,
        )
        with thread:
            with ServiceClient(*thread.address, retry=retry) as client:
                reply = client.query(query, "g")
                assert reply.num_embeddings == 2
                assert client.counters["retries"] == 2
                # Capacity sheds carry the server's retry_after hint
                # (0.05s default), which replaces the exponential
                # schedule — both waits are the hint, not 0.05/0.1.
                assert sleeps == [0.05, 0.05]
                stats = client.stats()
                assert stats["server"]["rejected"] == 2
                assert stats["server"]["shed_normal"] == 2

    def test_shed_without_policy_raises_overloaded(self, tmp_path):
        plan = FaultPlan([FaultRule("server.admission", "overload")])
        thread, query = serve_world(tmp_path, faults=plan)
        with thread:
            with ServiceClient(*thread.address) as client:
                with pytest.raises(ServiceOverloaded):
                    client.query(query, "g", priority="low")
                stats = client.stats()
                assert stats["server"]["shed_low"] == 1

    def test_refused_connection_reconnects(self, tmp_path):
        plan = FaultPlan([FaultRule("server.accept", "refuse", times=1)])
        thread, _ = serve_world(tmp_path, faults=plan)
        sleeps = []
        retry = RetryPolicy(attempts=3, jitter=0.0, sleep=sleeps.append)
        with thread:
            # The TCP connect succeeds; the handler refuses before
            # reading, so the first request sees EOF.
            with ServiceClient(*thread.address, retry=retry) as client:
                assert client.ping()
                assert client.counters["retries"] == 1
                assert client.counters["reconnects"] == 1
                assert len(sleeps) == 1
                stats = client.stats()
                assert stats["server"]["connections_refused"] == 1

    def test_delayed_accept_just_waits(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("server.accept", "delay", seconds=0.3, times=1)]
        )
        thread, _ = serve_world(tmp_path, faults=plan)
        with thread:
            started = time.monotonic()
            with ServiceClient(*thread.address) as client:
                assert client.ping()
                assert time.monotonic() - started >= 0.25
                assert client.counters["retries"] == 0

    def test_mutating_ops_are_never_retried(self, tmp_path):
        plan = FaultPlan([FaultRule("server.accept", "refuse", times=None)])
        thread, _ = serve_world(tmp_path, faults=plan)
        retry = RetryPolicy(attempts=5, jitter=0.0, sleep=lambda _s: None)
        with thread:
            client = ServiceClient(*thread.address, retry=retry)
            try:
                with pytest.raises(ServiceUnavailable):
                    client.update("g", DELTA)
                assert client.counters["retries"] == 0
            finally:
                client.close()

    def test_connect_to_dead_port_raises_unavailable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceUnavailable):
            ServiceClient("127.0.0.1", port, timeout=5)

    def test_deadline_exceeded_before_send(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                time.sleep(0.01)  # ensure the 1e-9 budget is gone
                with pytest.raises(ServiceError, match="deadline"):
                    client.query(query, "g", deadline=1e-9)

    def test_deadline_blocks_retry_that_cannot_finish(self, tmp_path):
        plan = FaultPlan([FaultRule("server.admission", "overload", times=5)])
        thread, query = serve_world(
            tmp_path, faults=plan, retry_after_hint=30.0
        )
        sleeps = []
        retry = RetryPolicy(
            attempts=5, base_delay=30.0, max_delay=60.0, jitter=0.0,
            sleep=sleeps.append,
        )
        with thread:
            with ServiceClient(*thread.address, retry=retry) as client:
                # The server's retry_after hint (30s) would overshoot
                # the 1s budget: fail now, not sleep past the deadline.
                with pytest.raises(ServiceOverloaded):
                    client.query(query, "g", deadline=1.0)
                assert sleeps == []
                assert client.counters["retries"] == 0

    def test_deadline_serves_within_budget(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                reply = client.query(query, "g", deadline=30.0)
                assert reply.num_embeddings == 2
                assert reply.status == "complete"


class TestLoadShedding:
    def test_admission_thresholds(self, tmp_path):
        data, _ = bipartite_world()
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", data)
        server = MatchingServer(
            GraphCatalog(root), max_inflight=2, max_pending=3, high_headroom=1
        )
        assert server._admission_limit("low") == 2
        assert server._admission_limit("normal") == 5
        assert server._admission_limit("high") == 6

    def test_invalid_priority_rejected(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                with pytest.raises(ServiceError, match="priority"):
                    client.query(query, "g", priority="urgent")

    def test_rejection_reply_names_priority(self, tmp_path):
        plan = FaultPlan([FaultRule("server.admission", "overload")])
        thread, query = serve_world(tmp_path, faults=plan)
        with thread:
            with ServiceClient(*thread.address) as client:
                with pytest.raises(ServiceOverloaded):
                    client.query(query, "g", priority="high")
                stats = client.stats()
                assert stats["server"]["shed_high"] == 1
                assert stats["server"]["shed_normal"] == 0


class TestSlowSubscriber:
    """Backpressure: a stalled subscriber never blocks the update path."""

    UPDATES = [
        GraphDelta(add_edges=((0, 3),)),
        GraphDelta(add_edges=((0, 4),)),
        GraphDelta(add_edges=((0, 5),)),
        GraphDelta(add_edges=((1, 3),)),
    ]
    FINAL = GraphDelta(add_edges=((1, 4),))

    def test_drop_policy_counts_losses(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("server.subscriber.send", "delay", seconds=1.5,
                       times=1)]
        )
        thread, query = serve_world(
            tmp_path, faults=plan, subscriber_queue=1,
            subscriber_policy="drop",
        )
        with thread:
            sub_client = ServiceClient(*thread.address)
            updater = ServiceClient(*thread.address)
            try:
                sub_client.subscribe(query, "g")
                for delta in self.UPDATES:
                    updater.update("g", delta)
                # Past the injected stall; the queue has fully drained
                # by the time this event arrives, so it must carry the
                # cumulative loss marker and conservation must hold.
                time.sleep(2.0)
                updater.update("g", self.FINAL)
                delivered = lost = 0
                while delivered + lost < len(self.UPDATES) + 1:
                    event = sub_client.next_event(timeout=30)
                    delivered += 1
                    lost += int(event.get("lost", 0))
                assert lost >= 1  # a 1-slot queue cannot hold the burst
                stats = updater.stats()
                assert stats["server"]["events_dropped"] == lost
                assert stats["server"]["subscribers_dropped"] == 0
            finally:
                sub_client.close()
                updater.close()

    def test_disconnect_policy_drops_subscriber(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("server.subscriber.send", "delay", seconds=1.5,
                       times=1)]
        )
        thread, query = serve_world(
            tmp_path, faults=plan, subscriber_queue=1,
            subscriber_policy="disconnect",
        )
        with thread:
            sub_client = ServiceClient(*thread.address)
            updater = ServiceClient(*thread.address)
            try:
                sub_client.subscribe(query, "g")
                for delta in self.UPDATES:
                    reply = updater.update("g", delta)
                assert reply.subscribers_notified == 0  # already gone
                stats = updater.stats()
                assert stats["server"]["subscribers_dropped"] == 1
                assert stats["server"]["events_dropped"] == 0
                with pytest.raises((ServiceError, OSError)):
                    while True:  # drain queued events, then hit EOF
                        sub_client.next_event(timeout=30)
            finally:
                sub_client.close()
                updater.close()


class TestHealthz:
    def test_reports_load_epochs_and_pool(self, tmp_path):
        thread, query = serve_world(tmp_path, max_inflight=2, max_pending=3)
        with thread:
            with ServiceClient(*thread.address) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["active"] == 0
                assert health["capacity"] == 5
                assert health["entries"] == {"g": 1}
                assert health["subscriptions"] == 0
                assert set(health["pool"]) == set(POOL_COUNTERS)
                assert health["uptime_seconds"] >= 0.0

                client.update("g", DELTA)
                client.subscribe(query, "g")
                health = client.healthz()
                assert health["entries"] == {"g": 2}
                assert health["subscriptions"] == 1


class TestServerThreadStop:
    def test_stop_raises_when_thread_hangs(self, tmp_path):
        data, _ = bipartite_world()
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", data)
        thread = ServerThread(GraphCatalog(root))
        # Stand in a thread that ignores the shutdown request, the
        # exact bug class stop() must no longer swallow.
        hang = threading.Event()
        thread._thread = threading.Thread(target=hang.wait, daemon=True)
        thread._thread.start()
        try:
            with pytest.raises(RuntimeError, match="failed to stop"):
                thread.stop(timeout=0.2)
        finally:
            hang.set()

    def test_stop_clean_is_silent(self, tmp_path):
        thread, _ = serve_world(tmp_path)
        thread.start()
        thread.stop()  # must not raise


class TestServeSignalShutdown:
    """``repro serve`` exits 0 on SIGINT/SIGTERM via the orderly path."""

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_clean_exit_on_signal(self, tmp_path, signum):
        data, _ = bipartite_world()
        root = tmp_path / "catalog"
        GraphCatalog(root).add("g", data)
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
            with ServiceClient(port=port, timeout=60) as client:
                assert client.ping()  # fully up before we signal
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, stderr
            assert "server stopped" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
