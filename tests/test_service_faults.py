"""Fault-injection suite: every recovery path, forced and verified.

The crash-point sweeps are the core proof.  For each catalog operation
the sweep kills the process (``InjectedCrash``) at *every* declared
persistence point (:func:`repro.service.catalog.txn_points`), reopens
the store cold, and asserts that the files the entry's log references
are **byte-identical** to either the state before the operation or the
state after an uninterrupted run — never anything in between — and
that the next snapshot write deletes whatever the kill left behind.
Updates are swept on both of their paths: the delta-log append, and
the compaction an entry whose log is one record short takes.  The point
lists are generated, so adding a hook to the catalog automatically
extends the sweeps.

On top of the single-operation sweeps: a composed sweep (seeded random
sequences of updates, compactions, overwrites, removes and re-adds,
killed once at each point, checked against the last acknowledged
state), a second catalog reading the store at every persistence point
of a writer, and the one-time migration of the older on-disk layout,
killed at each of its points.  Alongside: procpool worker-death
differentials, client retry/backoff with a recorded schedule, priority
load shedding, slow subscribers under both backpressure policies,
``healthz``, the reload race of a query's cache, and the
clean-signal-shutdown regression for ``repro serve``.
"""

import errno
import os
import random
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
from repro.dynamic.delta import GraphDelta, apply_delta
from repro.graph.builder import graph_from_adjacency
from repro.graph.io import graph_checksum
from repro.matching.limits import SearchLimits
from repro.service import catalog as catalog_module
from repro.service.catalog import (
    LOG_COMPACT_RECORDS,
    LOG_FILE,
    CatalogError,
    GraphCatalog,
    _parse_snapshot,
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
from tests.legacy_store import JOURNALS, forge_legacy_entry

SRC = Path(__file__).resolve().parent.parent / "src"

DELTA = GraphDelta(add_edges=((0, 3),))
LABELS = ["A", "B", "A", "C", "D", "C"]
EDGES = [(u, v) for u in range(6) for v in range(u + 1, 6)]


def bipartite_world():
    """Two label-disjoint components: A-B path and C-D path."""
    data = graph_from_adjacency(LABELS, [(0, 1), (1, 2), (3, 4), (4, 5)])
    ab_query = graph_from_adjacency(["A", "B"], [(0, 1)])
    return data, ab_query


def other_world():
    """A different graph on the same labels: an overwrite's target."""
    return graph_from_adjacency(LABELS, [(0, 1), (2, 3), (3, 4)])


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


def referenced(directory: Path):
    """``{filename: bytes}`` of the entry's log and the snapshot it
    names: the files a load reads ({} when there is no log)."""
    files = snapshot(directory)
    if LOG_FILE not in files:
        return {}
    graph_file = _parse_snapshot(files[LOG_FILE])[0]["graph_file"]
    return {name: files[name] for name in (LOG_FILE, graph_file)}


def expected_side(point: str) -> str:
    """Which state a kill at ``point`` must leave: the old one before
    the commit point (the log append's fsync, the snapshot log's
    ``os.replace``, the remove's unlink of the log), else the new."""
    old = (
        "catalog.log.begin", "catalog.remove.begin",
        "catalog.snapshot.begin", "catalog.snapshot.graph",
        "catalog.snapshot.log", "catalog.migrate.begin",
    )
    return "old" if point in old else "new"


def assert_next_snapshot_cleans(root: Path, graph) -> None:
    """The next snapshot write leaves exactly its log and graph file."""
    GraphCatalog(root).add("g", graph, overwrite=True)
    assert sorted(snapshot(root / "g")) == sorted(referenced(root / "g"))


class TestCrashPointSweep:
    """Kill at every declared point; the referenced files are old or
    new, byte for byte."""

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("point", txn_points("add"))
    def test_add(self, tmp_path, point, overwrite):
        data, _ = bipartite_world()
        root = tmp_path / "store"
        root.mkdir()
        if overwrite:  # an entry at epoch 2, one logged update
            GraphCatalog(root).add("g", data)
            GraphCatalog(root).update("g", DELTA)
        before = referenced(root / "g")
        target = other_world()
        # The uninterrupted run, for the "new"-side reference bytes.
        shutil.copytree(root, tmp_path / "ref", dirs_exist_ok=True)
        GraphCatalog(tmp_path / "ref").add("g", target, overwrite=overwrite)
        after = snapshot(tmp_path / "ref" / "g")
        assert after == referenced(tmp_path / "ref" / "g")

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).add(
                "g", target, overwrite=overwrite
            )
        assert plan.fired() == 1, f"{point} was not on the executed path"

        fresh = GraphCatalog(root)
        if expected_side(point) == "old":
            assert referenced(root / "g") == before
            if overwrite:
                assert fresh.info("g")["epoch"] == 2
                assert fresh.engine("g").data.has_edge(0, 3)
            else:
                assert fresh.names() == []
                with pytest.raises(CatalogError):
                    fresh.info("g")
        else:
            assert referenced(root / "g") == after
            assert fresh.info("g")["epoch"] == (3 if overwrite else 1)
            assert fresh.engine("g").data == target
        assert_next_snapshot_cleans(root, target)

    @pytest.mark.parametrize(
        "point", txn_points("update") + txn_points("compact")
    )
    def test_update(self, tmp_path, point, short_log):
        root = tmp_path / "store"
        epoch = update_store(root, point, short_log)
        before = referenced(root / "g")
        # Reference: the same update, uninterrupted, on a tree copy.
        shutil.copytree(root, tmp_path / "ref")
        GraphCatalog(tmp_path / "ref").update("g", DELTA)
        after = snapshot(tmp_path / "ref" / "g")
        assert after == referenced(tmp_path / "ref" / "g")
        assert before != after
        if point in txn_points("compact"):
            # the snapshot absorbed the log
            assert after[LOG_FILE].count(b"\n") == 1
        else:  # an append leaves the snapshot alone
            assert after[LOG_FILE].startswith(before[LOG_FILE])
            assert set(after) == set(before)

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).update("g", DELTA)
        assert plan.fired() == 1, f"{point} was not on the executed path"

        fresh = GraphCatalog(root)
        side = expected_side(point)
        assert referenced(root / "g") == (before if side == "old" else after)
        info = fresh.info("g")
        engine = fresh.engine("g")
        if side == "old":
            assert info["epoch"] == epoch
            assert not engine.data.has_edge(0, 3)
        else:
            assert info["epoch"] == epoch + 1
            assert engine.data.has_edge(0, 3)
        assert_next_snapshot_cleans(root, engine.data)

    @pytest.mark.parametrize("point", txn_points("remove"))
    def test_remove(self, tmp_path, point):
        data, _ = bipartite_world()
        root = tmp_path / "store"
        GraphCatalog(root).add("g", data)
        before = referenced(root / "g")

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan).remove("g")
        assert plan.fired() == 1, f"{point} was not on the executed path"

        fresh = GraphCatalog(root)
        if expected_side(point) == "old":
            assert referenced(root / "g") == before
            assert fresh.info("g")["epoch"] == 1
        else:
            assert referenced(root / "g") == {}
            assert fresh.names() == []
            with pytest.raises(CatalogError):
                fresh.info("g")
            # A re-add starts the history over and clears the debris.
            assert fresh.add("g", data)["epoch"] == 1
            assert snapshot(root / "g") == before

    def test_every_declared_point_is_reached(self, tmp_path):
        """The sweep's point lists are exactly the executed hook path."""
        data, _ = bipartite_world()
        plan = FaultPlan()
        plan.record_history = True
        catalog = GraphCatalog(tmp_path, faults=plan)
        catalog.add("g", data)
        appends = LOG_COMPACT_RECORDS - 1
        for delta in toggles(appends):
            catalog.update("g", delta)
        catalog.update("g", DELTA)  # the log is full: this one compacts
        catalog.add("g", other_world(), overwrite=True)
        catalog.remove("g")
        assert tuple(plan.history) == (
            txn_points("add")
            + txn_points("update") * appends
            + txn_points("compact")
            + txn_points("add")
            + txn_points("remove")
        )

    @pytest.mark.parametrize(
        "point", ["catalog.log.begin", "catalog.snapshot.graph"]
    )
    def test_disk_full_is_reported_and_recoverable(
        self, tmp_path, point, short_log
    ):
        """ENOSPC surfaces as OSError; the store still loads clean."""
        root = tmp_path / "store"
        epoch = update_store(root, point, short_log)
        before = referenced(root / "g")

        plan = FaultPlan([FaultRule(point, "oserror")])
        with pytest.raises(OSError) as exc_info:
            GraphCatalog(root, faults=plan).update("g", DELTA)
        assert exc_info.value.errno == errno.ENOSPC

        fresh = GraphCatalog(root)
        assert referenced(root / "g") == before
        assert fresh.info("g")["epoch"] == epoch
        assert not fresh.engine("g").data.has_edge(0, 3)


def next_op(rng, graph, epoch):
    """One random operation on an entry in state ``(graph, epoch)``
    (``graph=None``: absent): ``(op, argument, new_graph, new_epoch)``.
    """
    if graph is None:
        new = graph_from_adjacency(LABELS, rng.sample(EDGES, 4))
        return "add", new, new, 1
    r = rng.random()
    if r < 0.6:
        edge = (rng.choice(EDGES),)
        delta = (
            GraphDelta(remove_edges=edge) if graph.has_edge(*edge[0])
            else GraphDelta(add_edges=edge)
        )
        return "update", delta, apply_delta(graph, delta)[0], epoch + 1
    if r < 0.8:
        new = graph_from_adjacency(LABELS, rng.sample(EDGES, 4))
        return "overwrite", new, new, epoch + 1
    return "remove", None, None, None


def run_op(catalog, op, argument):
    if op == "update":
        catalog.update("g", argument)
    elif op == "remove":
        catalog.remove("g")
    else:
        catalog.add("g", argument, overwrite=op == "overwrite")


def assert_state(root: Path, graph, epoch) -> None:
    """A cold catalog sees exactly ``(graph, epoch)``, or no entry."""
    cold = GraphCatalog(root)
    if graph is None:
        assert cold.names() == []
        with pytest.raises(CatalogError):
            cold.info("g")
        return
    info = cold.info("g")
    assert (info["epoch"], info["graph_checksum"]) == (
        epoch, graph_checksum(graph)
    )
    assert cold.engine("g").data == graph


def composed_run(root: Path, seed: int, plan: FaultPlan, steps: int = 16):
    """Run ``steps`` seeded random operations with ``plan`` armed; a
    kill reopens the store and checks it against the last acknowledged
    state (or, past the commit point, the killed operation's own).
    Every acknowledged operation is checked by a cold reopen too."""
    rng = random.Random(seed)
    catalog = GraphCatalog(root, faults=plan)
    graph = epoch = None
    for _ in range(steps):
        op, argument, new_graph, new_epoch = next_op(rng, graph, epoch)
        try:
            run_op(catalog, op, argument)
        except InjectedCrash as crash:
            if expected_side(crash.point) == "new":
                graph, epoch = new_graph, new_epoch
            assert_state(root, graph, epoch)
            catalog = GraphCatalog(root, faults=plan)
            continue
        graph, epoch = new_graph, new_epoch
        assert_state(root, graph, epoch)
    if graph is not None:
        assert_next_snapshot_cleans(root, graph)


COMPOSED_POINTS = sorted(set(
    txn_points("update") + txn_points("add") + txn_points("remove")
))


class TestComposedCrashSweep:
    """Random operation sequences, killed once at each point."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("point", COMPOSED_POINTS)
    def test_sequence(self, tmp_path, monkeypatch, point, seed):
        monkeypatch.setattr(catalog_module, "LOG_COMPACT_RECORDS", 3)
        # A dry run counts the point's hits; the kill lands on one of
        # them, chosen by the seed.
        for base in range(seed * 100, seed * 100 + 50):
            dry = FaultPlan()
            dry.record_history = True
            composed_run(tmp_path / f"dry{base}", base, dry)
            hits = dry.history.count(point)
            if hits:
                break
        assert hits, f"no sequence reaches {point}"
        plan = crash_at(point, after=random.Random(seed).randrange(hits))
        composed_run(tmp_path / "store", base, plan)
        assert plan.fired() == 1


class ReaderAtEveryPoint(FaultPlan):
    """Runs a second catalog's reads at every persistence point of the
    writer it is handed to, and checks what they see."""

    def __init__(self, root: Path, states) -> None:
        super().__init__()
        self.root = root
        self.states = states
        self.reader = GraphCatalog(root)
        self.reached = []

    def reach(self, point: str) -> None:
        super().reach(point)
        self.reached.append(point)
        files = snapshot(self.root / "g")
        try:
            info = self.reader.info("g")
            state = (info["epoch"], info["graph_checksum"])
            engine = GraphCatalog(self.root).engine("g")
            assert graph_checksum(engine.data) == state[1]
        except CatalogError:
            state = None
        assert state in self.states, point
        assert ("g" in self.reader.names()) == (state is not None), point
        if state is not None:
            self.reader.engine("g")
        self.reader.reload()
        assert snapshot(self.root / "g") == files, f"a read wrote at {point}"


class TestConcurrentReader:
    """A reader on the same root never disturbs a write in flight, and
    sees the old effective state or the new one at every point."""

    @pytest.mark.parametrize(
        "op", ["add", "overwrite", "compact", "update", "remove"]
    )
    def test_reader_at_every_point(self, tmp_path, op, short_log):
        data, _ = bipartite_world()
        root = tmp_path / "store"
        if op == "compact":
            shutil.copytree(short_log, root)
        elif op != "add":
            GraphCatalog(root).add("g", data)
        old = None
        if op != "add":
            info = GraphCatalog(root).info("g")
            old = (info["epoch"], info["graph_checksum"])
        writer = GraphCatalog(root)
        if op != "add":
            base = writer.engine("g").data
        if op == "add":
            new = (1, graph_checksum(data))
        elif op == "overwrite":
            new = (old[0] + 1, graph_checksum(other_world()))
        elif op == "remove":
            new = None
        else:
            new = (old[0] + 1, graph_checksum(apply_delta(base, DELTA)[0]))
        plan = ReaderAtEveryPoint(root, (old, new))
        writer.faults = plan
        if op == "add":
            writer.add("g", data)
        elif op == "overwrite":
            writer.add("g", other_world(), overwrite=True)
        elif op == "remove":
            writer.remove("g")
        else:
            writer.update("g", DELTA)
        expected = {"add": "add", "overwrite": "add", "remove": "remove"}
        assert tuple(plan.reached) == txn_points(expected.get(op, op))
        if new is None:
            assert not (root / "g").exists()
        else:
            assert snapshot(root / "g") == referenced(root / "g")
            info = GraphCatalog(root).info("g")
            assert (info["epoch"], info["graph_checksum"]) == new


MIGRATION_CASES = [
    (journal, point)
    for journal in JOURNALS
    for point in txn_points(
        "migrate_remove" if journal == "remove" else "migrate"
    )
]


class TestMigrationSweep:
    """The one-time rewrite of an older-layout entry, killed at each
    of its points: the next open finishes it, byte for byte."""

    @pytest.mark.parametrize("journal,point", MIGRATION_CASES)
    def test_migration(self, tmp_path, journal, point):
        data, _ = bipartite_world()
        root = tmp_path / "store"
        target = apply_delta(data, DELTA)[0]
        expected = forge_legacy_entry(
            root / "g", data, epoch=2, updates=tuple(toggles(3)),
            journal=journal, target=target,
        )
        before = snapshot(root / "g")
        shutil.copytree(root, tmp_path / "ref")
        GraphCatalog(tmp_path / "ref")  # the uninterrupted migration
        after = snapshot(tmp_path / "ref" / "g")
        assert after == referenced(tmp_path / "ref" / "g")

        plan = crash_at(point)
        with pytest.raises(InjectedCrash):
            GraphCatalog(root, faults=plan)
        assert plan.fired() == 1, f"{point} was not on the executed path"
        state = snapshot(root / "g")
        if expected_side(point) == "old":
            # Nothing the old layout reads has changed yet.
            assert {n: state[n] for n in before if n in state} == {
                n: before[n] for n in state if n in before
            }
        else:
            assert referenced(root / "g") == after

        assert_state(root, *(expected or (None, None))[::-1])
        assert snapshot(root / "g") == after


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
