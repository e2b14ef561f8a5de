"""The catalog's delta log: durability, replay and its failure modes.

An update persists as one SHA-framed, fsynced record appended to
``<entry>/delta.log`` after its snapshot record; a cold load verifies
the snapshot, then replays the log.  These tests pin the log's own
failure modes (torn tails, flipped bytes), the effective-state rules of ``add``/``info``, the update reply's own
epoch under concurrency, and a restart differential: after any mix of
updates, compactions and cold reopens, a cold engine equals the live
one and a from-scratch build (``tests.oracle_engines.artifact_values``).
"""

import logging
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GuPEngine
from repro.dynamic.delta import GraphDelta, apply_delta
from repro.filtering.artifacts import DataArtifacts
from repro.graph.builder import graph_from_adjacency
from repro.graph.generators import random_connected_graph
from repro.graph.io import graph_checksum, saves_graph
from repro.service import catalog as catalog_module
from repro.service.catalog import (
    LOG_FILE,
    CatalogError,
    GraphCatalog,
    graph_file_name,
)
from repro.service.client import ServiceClient
from repro.service.server import ServerThread
from tests.legacy_store import legacy_files
from tests.oracle_engines import artifact_values

UPDATES = (
    GraphDelta(add_edges=((0, 3),)),
    GraphDelta(add_vertices=("A",), add_edges=((5, 6),)),
    GraphDelta(remove_edges=((1, 2),), add_edges=((2, 6),)),
)


def world():
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    query = graph_from_adjacency(["A", "B"], [(0, 1)])
    return data, query


def logged_store(root, updates=UPDATES):
    """An entry at epoch 1 plus one log record per update; returns the
    graph after each update (index 0: the snapshot graph)."""
    data, _ = world()
    catalog = GraphCatalog(root)
    catalog.add("g", data)
    graphs = [data]
    for delta in updates:
        catalog.update("g", delta)
        graphs.append(apply_delta(graphs[-1], delta)[0])
    return graphs


def record_spans(log: bytes):
    """``(start, end)`` byte offsets of every record line."""
    spans, start = [], 0
    for line in log.splitlines(keepends=True):
        spans.append((start, start + len(line)))
        start += len(line)
    return spans


def assert_cold_equals_build(engine):
    assert artifact_values(engine.artifacts) == artifact_values(
        DataArtifacts(engine.data)
    )


class TestAppendPath:
    def test_update_appends_one_record_and_leaves_the_snapshot(self, tmp_path):
        data, _ = world()
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", data)
        entry = tmp_path / "g"
        graph = (entry / graph_file_name(1)).read_bytes()
        log = (entry / LOG_FILE).read_bytes()
        assert log.count(b"\n") == 1  # the snapshot record alone
        info, _ = catalog.update("g", UPDATES[0])
        assert info["epoch"] == 2
        assert (entry / graph_file_name(1)).read_bytes() == graph
        after = (entry / LOG_FILE).read_bytes()
        assert after.startswith(log) and after.count(b"\n") == 2
        assert catalog.counters["log_appends"] == 1
        assert catalog.counters["log_compactions"] == 0
        assert catalog.info("g") == info

    def test_cold_load_replays_to_the_live_state(self, tmp_path):
        graphs = logged_store(tmp_path)
        fresh = GraphCatalog(tmp_path)
        engine = fresh.engine("g")
        assert engine.data == graphs[-1]
        assert fresh.counters["log_replayed"] == len(UPDATES)
        assert fresh.counters["artifact_loads"] == 1
        assert fresh.info("g")["epoch"] == 1 + len(UPDATES)
        assert fresh.info("g")["graph_checksum"] == graph_checksum(graphs[-1])
        assert_cold_equals_build(engine)

    def test_legacy_store_without_a_log_is_migrated(self, tmp_path):
        """Stores written before the log existed have no delta.log."""
        data, _ = world()
        graphs = [data]
        files, _ = legacy_files(data, 1)
        del files[LOG_FILE]
        (tmp_path / "g").mkdir()
        for filename, blob in files.items():
            (tmp_path / "g" / filename).write_bytes(blob)
        catalog = GraphCatalog(tmp_path)
        assert catalog.info("g")["epoch"] == 1
        catalog.update("g", UPDATES[0])
        fresh = GraphCatalog(tmp_path)
        assert fresh.engine("g").data == apply_delta(graphs[0], UPDATES[0])[0]
        assert fresh.info("g")["epoch"] == 2

    def test_compaction_at_the_record_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(catalog_module, "LOG_COMPACT_RECORDS", 3)
        graphs = logged_store(tmp_path)
        entry = tmp_path / "g"
        # Two appends, then the update that would make three compacts.
        catalog = GraphCatalog(tmp_path)
        assert (entry / LOG_FILE).read_bytes().count(b"\n") == 1
        assert catalog.info("g")["epoch"] == 4
        assert sorted(p.name for p in entry.iterdir()) == [
            LOG_FILE, graph_file_name(4)
        ]
        assert (entry / graph_file_name(4)).read_text() == saves_graph(
            graphs[-1]
        )
        engine = catalog.engine("g")
        assert catalog.counters["log_replayed"] == 0
        assert engine.data == graphs[-1]
        assert_cold_equals_build(engine)


class TestUpdateReplyIsItsOwn:
    def test_info_of_a_racing_update_is_not_returned(self, tmp_path):
        """``update`` must report the epoch and checksum it wrote, even
        when another update lands before the reply is built."""
        data, _ = world()
        catalog = GraphCatalog(tmp_path)
        catalog.add("g", data)
        first, second = UPDATES[0], UPDATES[1]
        replies = {}
        real_info = catalog.info

        def info_with_a_racer(name):
            if not replies:
                replies["second"] = None  # race once, not recursively
                replies["second"] = catalog.update(name, second)[0]
            return real_info(name)

        catalog.info = info_with_a_racer
        replies["first"] = catalog.update("g", first)[0]
        if replies.get("second") is None:  # update never consulted info()
            replies["second"] = catalog.update("g", second)[0]
        del catalog.info

        after_first = apply_delta(data, first)[0]
        after_second = apply_delta(after_first, second)[0]
        assert replies["first"]["epoch"] == 2
        assert replies["first"]["graph_checksum"] == graph_checksum(after_first)
        assert replies["second"]["epoch"] == 3
        assert replies["second"]["graph_checksum"] == graph_checksum(
            after_second
        )


class TestLogFailureModes:
    def test_torn_last_record_at_every_offset(self, tmp_path):
        graphs = logged_store(tmp_path, updates=UPDATES[:2])
        path = tmp_path / "g" / LOG_FILE
        full = path.read_bytes()
        start, end = record_spans(full)[-1]
        for offset in range(start + 1, end):
            path.write_bytes(full[:offset])
            fresh = GraphCatalog(tmp_path)
            engine = fresh.engine("g")
            assert engine.data == graphs[1], offset
            assert fresh.info("g")["epoch"] == 2
            assert fresh.counters["log_replayed"] == 1
            assert fresh.counters["log_rejections"] == 1
            assert path.read_bytes() == full[:offset]  # readers never cut
            info, _ = fresh.update("g", UPDATES[1])
            assert info["epoch"] == 3
            assert fresh.counters["log_truncations"] == 1
            assert fresh.counters["log_appends"] == 1
            assert path.read_bytes() == full
        again = GraphCatalog(tmp_path)
        assert again.engine("g").data == graphs[2]
        assert again.counters["log_rejections"] == 0

    def test_flipped_byte_in_a_middle_record_stops_replay(
        self, tmp_path, caplog
    ):
        graphs = logged_store(tmp_path)
        path = tmp_path / "g" / LOG_FILE
        log = bytearray(path.read_bytes())
        start, end = record_spans(bytes(log))[2]  # 0: the snapshot
        log[(start + end) // 2] ^= 0x01
        path.write_bytes(bytes(log))

        fresh = GraphCatalog(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.service.catalog"):
            engine = fresh.engine("g")
        assert engine.data == graphs[1]
        assert fresh.info("g")["epoch"] == 2
        assert fresh.counters["log_replayed"] == 1
        assert fresh.counters["log_rejections"] == 1
        assert any("delta log invalid" in r.message for r in caplog.records)
        assert_cold_equals_build(engine)


class TestEffectiveState:
    def test_add_compares_against_the_logged_state(self, tmp_path):
        graphs = logged_store(tmp_path)
        catalog = GraphCatalog(tmp_path)
        entry = tmp_path / "g"
        log = (entry / LOG_FILE).read_bytes()

        info = catalog.add("g", graphs[-1])  # identical: a no-op
        assert info["epoch"] == 1 + len(UPDATES)
        assert (entry / LOG_FILE).read_bytes() == log

        with pytest.raises(CatalogError, match="overwrite"):
            catalog.add("g", graphs[0])  # only the stale snapshot matches

        info = catalog.add("g", graphs[0], overwrite=True)
        assert info["epoch"] == 2 + len(UPDATES)
        assert (entry / LOG_FILE).read_bytes().count(b"\n") == 1
        fresh = GraphCatalog(tmp_path)
        assert fresh.engine("g").data == graphs[0]
        assert fresh.info("g")["epoch"] == 2 + len(UPDATES)

    def test_info_sees_another_process_append(self, tmp_path):
        graphs = logged_store(tmp_path, updates=())
        reader = GraphCatalog(tmp_path)
        assert reader.info("g")["epoch"] == 1
        GraphCatalog(tmp_path).update("g", UPDATES[0])
        info = reader.info("g")
        assert info["epoch"] == 2
        assert info["graph_checksum"] == graph_checksum(
            apply_delta(graphs[0], UPDATES[0])[0]
        )

    def test_reload_keeps_an_entry_updated_in_band(self, tmp_path):
        logged_store(tmp_path, updates=())
        catalog = GraphCatalog(tmp_path)
        catalog.engine("g")
        catalog.update("g", UPDATES[0])
        assert catalog.reload()["g"]["action"] == "kept"

    def test_reload_picks_up_another_process_append(self, tmp_path):
        graphs = logged_store(tmp_path, updates=())
        catalog = GraphCatalog(tmp_path)
        catalog.engine("g")
        GraphCatalog(tmp_path).update("g", UPDATES[0])
        report = catalog.reload()["g"]
        assert report["action"] == "reloaded"
        assert report["epoch"] == 2
        assert catalog.engine("g").data == apply_delta(graphs[0], UPDATES[0])[0]

    def test_stale_resident_engine_compacts_instead_of_appending(
        self, tmp_path
    ):
        """An update whose base is not the effective disk state cannot
        be logged as a delta of it: last write wins, as a snapshot."""
        graphs = logged_store(tmp_path, updates=())
        stale = GraphCatalog(tmp_path)
        stale.engine("g")
        GraphCatalog(tmp_path).update("g", UPDATES[0])
        info, _ = stale.update("g", UPDATES[1])
        assert info["epoch"] == 3
        assert stale.counters["log_compactions"] == 1
        fresh = GraphCatalog(tmp_path)
        assert fresh.engine("g").data == apply_delta(graphs[0], UPDATES[1])[0]
        assert fresh.info("g")["epoch"] == 3

    def test_racing_add_takes_the_next_epoch(self, tmp_path, monkeypatch):
        """An add that another writer beat to the commit must not reuse
        the committed epoch, nor overwrite the graph file it names."""
        data, _ = world()
        other = apply_delta(data, UPDATES[0])[0]
        real = catalog_module.DataArtifacts

        def build_while_another_add_commits(graph):
            monkeypatch.setattr(catalog_module, "DataArtifacts", real)
            assert GraphCatalog(tmp_path).add("g", other)["epoch"] == 1
            return real(graph)

        monkeypatch.setattr(
            catalog_module, "DataArtifacts", build_while_another_add_commits
        )
        assert GraphCatalog(tmp_path).add("g", data)["epoch"] == 2
        fresh = GraphCatalog(tmp_path)
        assert fresh.engine("g").data == data
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == [
            LOG_FILE, graph_file_name(2)
        ]

    def test_remove_deletes_the_log(self, tmp_path):
        logged_store(tmp_path)
        catalog = GraphCatalog(tmp_path)
        catalog.remove("g")
        assert not (tmp_path / "g").exists()
        data, _ = world()
        assert catalog.add("g", data)["epoch"] == 1


LABELS = ("A", "B", 0, 7)


def random_delta(rng, graph):
    """A valid random delta with int and str labels (maybe empty)."""
    n = graph.num_vertices
    add_vertices = tuple(rng.choice(LABELS) for _ in range(rng.randint(0, 2)))
    n_new = n + len(add_vertices)
    edges = list(graph.edges())
    remove = tuple(rng.sample(edges, min(rng.randint(0, 2), len(edges))))
    add = set()
    for _ in range(rng.randint(0, 3)):
        u, v = sorted(rng.sample(range(n_new), 2))
        if (u, v) not in remove and not (v < n and graph.has_edge(u, v)):
            add.add((u, v))
    return GraphDelta(
        add_vertices=add_vertices,
        add_edges=tuple(sorted(add)),
        remove_edges=remove,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    limit=st.integers(min_value=2, max_value=5),
    steps=st.integers(min_value=1, max_value=12),
)
def test_restart_differential(seed, limit, steps):
    """After every update, a cold ``GraphCatalog(root).engine(name)``
    equals the live engine (checksum, info, artifact values) and a
    from-scratch ``DataArtifacts`` build, across random cold reopens
    and compaction crossings."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    labels = [rng.choice(LABELS) for _ in range(n)]
    data = random_connected_graph(
        n, n - 1 + rng.randint(0, 5), labels=labels, seed=seed
    )
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog_module, "LOG_COMPACT_RECORDS", limit)
            replay_against_cold_opens(Path(tmp), data, rng, steps)


def replay_against_cold_opens(root, data, rng, steps):
    live = GraphCatalog(root)
    live.add("g", data)
    for _ in range(steps):
        if rng.random() < 0.3:
            live = GraphCatalog(root)
        live.update("g", random_delta(rng, live.engine("g").data))
        engine = live.engine("g")
        cold = GraphCatalog(root)
        cold_engine = cold.engine("g")
        assert graph_checksum(cold_engine.data) == graph_checksum(engine.data)
        assert cold_engine.data == engine.data
        assert cold.info("g") == {**live.info("g"), "resident": True}
        assert artifact_values(cold_engine.artifacts) == artifact_values(
            engine.artifacts
        )
        assert_cold_equals_build(cold_engine)
        snapshot = cold._log(root / "g").snapshot["graph_file"]
        assert sorted(p.name for p in (root / "g").iterdir()) == [
            LOG_FILE, snapshot
        ]


class TestServedRestart:
    def test_wire_updates_survive_a_restart(self, tmp_path):
        data, query = world()
        GraphCatalog(tmp_path).add("g", data)
        graph = data
        with ServerThread(GraphCatalog(tmp_path)) as thread:
            with ServiceClient(*thread.address) as client:
                for delta in UPDATES:
                    reply = client.update("g", delta)
                    graph = apply_delta(graph, delta)[0]
                    assert reply.entry["graph_checksum"] == graph_checksum(graph)
        assert (tmp_path / "g" / LOG_FILE).read_bytes().count(b"\n") == (
            1 + len(UPDATES)
        )
        with ServerThread(GraphCatalog(tmp_path)) as thread:
            with ServiceClient(*thread.address) as client:
                assert client.healthz()["entries"] == {"g": 1 + len(UPDATES)}
                served = client.query(query, "g", cache=False)
        direct = GuPEngine(graph).match(query)
        assert sorted(served.embeddings) == sorted(direct.embeddings)
        assert served.status == direct.status.value
