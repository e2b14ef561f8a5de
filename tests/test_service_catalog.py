"""Catalog durability: entries survive restarts, corruption is an
error, older layouts are migrated.

Differential style (as in ``tests/test_parallel_exact.py``): whatever
the store's state — freshly built, reloaded in another process, or
written in the older layout (``graph.graph`` + ``meta.json``, maybe a
journal and an ``artifacts.bin``) — a catalog engine must return
byte-identical ``match`` results to a fresh ``GuPEngine`` on the same
graph.  A snapshot whose bytes do not match its log record is never
served.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import GuPEngine
from repro.dynamic.delta import GraphDelta
from repro.filtering.artifacts import DataArtifacts
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.io import graph_checksum, save_graph, saves_graph
from repro.matching.limits import SearchLimits
from repro.service import catalog as catalog_module
from repro.service.catalog import (
    LOG_FILE,
    CatalogError,
    GraphCatalog,
    _encode_record,
    _sha256,
    graph_file_name,
)
from repro.workload.querygen import generate_query
from tests.legacy_store import forge_legacy_entry

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def instance():
    data = powerlaw_cluster_graph(70, 3, 0.3, num_labels=3, seed=17)
    queries = [generate_query(data, 6, "sparse", seed=18 + i) for i in range(2)]
    return data, queries


def assert_matches_direct(engine, data, queries):
    direct = GuPEngine(data)
    limits = SearchLimits(max_embeddings=500)
    for query in queries:
        a = direct.match(query, limits=limits)
        b = engine.match(query, limits=limits)
        assert b.embeddings == a.embeddings
        assert b.num_embeddings == a.num_embeddings
        assert b.status == a.status


class TestCatalogBasics:
    def test_add_persists_layout(self, instance, tmp_path):
        data, queries = instance
        catalog = GraphCatalog(tmp_path / "cat")
        info = catalog.add("g", data)
        entry = tmp_path / "cat" / "g"
        assert sorted(os.listdir(entry)) == [LOG_FILE, graph_file_name(1)]
        assert info["graph_checksum"] == graph_checksum(data)
        assert catalog.names() == ["g"]
        assert_matches_direct(catalog.engine("g"), data, queries)

    def test_add_identical_is_noop_different_needs_overwrite(
        self, instance, tmp_path
    ):
        data, _ = instance
        other = powerlaw_cluster_graph(30, 3, 0.3, num_labels=2, seed=3)
        catalog = GraphCatalog(tmp_path / "cat")
        catalog.add("g", data)
        builds = catalog.counters["artifact_builds"]
        catalog.add("g", data)  # identical: no-op
        assert catalog.counters["artifact_builds"] == builds
        with pytest.raises(CatalogError):
            catalog.add("g", other)
        catalog.add("g", other, overwrite=True)
        assert catalog.info("g")["graph_checksum"] == graph_checksum(other)

    def test_invalid_names_rejected(self, tmp_path):
        catalog = GraphCatalog(tmp_path / "cat")
        for bad in ("../escape", "", ".hidden", "a/b", "a b"):
            with pytest.raises(CatalogError):
                catalog.engine(bad)

    def test_unknown_entry(self, tmp_path):
        with pytest.raises(CatalogError):
            GraphCatalog(tmp_path / "cat").engine("nope")

    def test_engine_lru(self, instance, tmp_path):
        data, _ = instance
        small = powerlaw_cluster_graph(20, 2, 0.2, num_labels=2, seed=8)
        catalog = GraphCatalog(tmp_path / "cat", max_resident=1)
        catalog.add("a", data)
        catalog.add("b", small)
        assert catalog.counters["engine_evictions"] >= 1
        engine = catalog.engine("b")
        assert catalog.engine("b") is engine  # hit
        catalog.engine("a")  # evicts b
        assert catalog.engine("b") is not engine
        assert catalog.counters["engine_hits"] >= 1
        assert catalog.counters["engine_misses"] >= 2


class TestCatalogDurability:
    def test_reopen_builds_once_and_writes_nothing(self, instance, tmp_path):
        data, queries = instance
        GraphCatalog(tmp_path / "cat").add("g", data)
        entry = tmp_path / "cat" / "g"
        files = {n: (entry / n).read_bytes() for n in os.listdir(entry)}
        reopened = GraphCatalog(tmp_path / "cat")
        before = DataArtifacts.builds_performed
        engine = reopened.engine("g")
        assert DataArtifacts.builds_performed == before + 1
        assert reopened.counters["artifact_loads"] == 1
        # A load writes nothing.
        assert {
            n: (entry / n).read_bytes() for n in os.listdir(entry)
        } == files
        assert_matches_direct(engine, data, queries)

    def test_subprocess_round_trip(self, instance, tmp_path):
        """An entry written here is loaded by a fresh process, which
        builds the artifacts once and serves byte-identical results."""
        data, queries = instance
        GraphCatalog(tmp_path / "cat").add("g", data)
        script = """
import json, sys
from repro.filtering.artifacts import DataArtifacts
from repro.graph.io import loads_graph
from repro.matching.limits import SearchLimits
from repro.service.catalog import GraphCatalog

catalog = GraphCatalog(sys.argv[1])
engine = catalog.engine("g")
query = loads_graph(sys.stdin.read())
result = engine.match(query, limits=SearchLimits(max_embeddings=500))
print(json.dumps({
    "embeddings": result.embeddings,
    "num": result.num_embeddings,
    "status": result.status.value,
    "loads": catalog.counters["artifact_loads"],
    "builds_in_process": DataArtifacts.builds_performed,
}))
"""
        query = queries[0]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "cat")],
            input=saves_graph(query),
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        reply = json.loads(proc.stdout)
        direct = GuPEngine(data).match(
            query, limits=SearchLimits(max_embeddings=500)
        )
        assert [tuple(e) for e in reply["embeddings"]] == direct.embeddings
        assert reply["num"] == direct.num_embeddings
        assert reply["status"] == direct.status.value
        assert reply["loads"] == 1
        assert reply["builds_in_process"] == 1

    @pytest.mark.parametrize(
        "corruption",
        ["corrupt_record", "delete_graph", "stale_graph", "unparseable"],
    )
    def test_corruption_is_an_error(self, instance, tmp_path, corruption):
        """A snapshot that does not match its log record is never served
        and never rewritten: every read raises, and leaves the bytes."""
        data, _ = instance
        root = tmp_path / "cat"
        GraphCatalog(root).add("g", data)
        entry = root / "g"
        graph_path = entry / graph_file_name(1)
        if corruption == "corrupt_record":
            log = bytearray((entry / LOG_FILE).read_bytes())
            log[40] ^= 0x01
            (entry / LOG_FILE).write_bytes(bytes(log))
        elif corruption == "delete_graph":
            graph_path.unlink()
        elif corruption == "stale_graph":  # the graph changed under the log
            smaller = powerlaw_cluster_graph(25, 2, 0.2, num_labels=2, seed=4)
            save_graph(smaller, graph_path)
        else:  # bytes the record vouches for, but not a graph
            forge_snapshot(entry, b"v broken\n", data, epoch=1)
        files = {n: (entry / n).read_bytes() for n in os.listdir(entry)}
        catalog = GraphCatalog(root)
        assert catalog.names() == ["g"]
        with pytest.raises(CatalogError):
            catalog.engine("g")
        if corruption == "corrupt_record":
            with pytest.raises(CatalogError, match="snapshot record"):
                catalog.info("g")
        assert catalog.reload()["g"]["action"] == "lazy"
        assert {
            n: (entry / n).read_bytes() for n in os.listdir(entry)
        } == files
        # An overwrite needs a readable epoch; a remove always works.
        catalog.remove("g")
        assert catalog.add("g", data)["epoch"] == 1

    @pytest.mark.parametrize("journal", [None, "committed", "uncommitted"])
    def test_legacy_entry_is_migrated_on_open(
        self, instance, tmp_path, journal
    ):
        """An entry in the older layout — ``graph.graph``, a
        ``meta.json`` at epoch 3, a non-empty ``delta.log``, the
        ``artifacts.bin`` and ``analyze.json`` of still older versions,
        maybe a journal — loads at its effective epoch, and after the
        open holds only the new layout's two files."""
        data, queries = instance
        root = tmp_path / "cat"
        u, v = next(
            (u, v) for u in data.vertices() for v in data.vertices()
            if u < v and not data.has_edge(u, v)
        )
        other = powerlaw_cluster_graph(30, 3, 0.3, num_labels=2, seed=3)
        epoch, graph = forge_legacy_entry(
            root / "g", data, epoch=3,
            updates=(GraphDelta(add_edges=((u, v),)),),
            journal=journal, target=other,
        )
        catalog = GraphCatalog(root)
        entry = root / "g"
        assert catalog.info("g")["epoch"] == epoch
        assert catalog.info("g")["graph_checksum"] == graph_checksum(graph)
        engine = catalog.engine("g")
        assert engine.data == graph
        assert_matches_direct(engine, graph, queries[:1])
        snapshot_epoch = 5 if journal == "committed" else 3
        assert sorted(os.listdir(entry)) == [
            LOG_FILE, graph_file_name(snapshot_epoch)
        ]
        assert catalog.counters["log_replayed"] == epoch - snapshot_epoch
        files = {n: (entry / n).read_bytes() for n in os.listdir(entry)}
        GraphCatalog(root)  # migrated once: a second open writes nothing
        assert {n: (entry / n).read_bytes() for n in os.listdir(entry)} == files

        info, _ = catalog.update("g", GraphDelta(add_vertices=("A",)))
        assert info["epoch"] == epoch + 1
        reopened = GraphCatalog(root)
        assert reopened.engine("g").data.num_vertices == graph.num_vertices + 1
        reopened.remove("g")
        assert not entry.exists()

    def test_legacy_entry_without_sidecar_after_compaction(
        self, instance, tmp_path
    ):
        """Without ``meta.json`` the snapshot epoch is the first log
        record's epoch - 1, also for a snapshot compacted at epoch 4."""
        data, _ = instance
        root = tmp_path / "cat"
        edges = [
            (u, v) for u in data.vertices() for v in data.vertices()
            if u < v and not data.has_edge(u, v)
        ][:2]
        epoch, graph = forge_legacy_entry(
            root / "g", data, epoch=4,
            updates=tuple(GraphDelta(add_edges=(e,)) for e in edges),
            meta=False,
        )
        assert epoch == 6
        catalog = GraphCatalog(root)
        assert catalog.engine("g").data == graph
        assert catalog.info("g")["epoch"] == 6
        assert catalog.counters["log_replayed"] == 2
        assert sorted(os.listdir(root / "g")) == [LOG_FILE, graph_file_name(4)]

    def test_legacy_remove_journal_finishes_the_remove(
        self, instance, tmp_path
    ):
        data, _ = instance
        root = tmp_path / "cat"
        assert forge_legacy_entry(root / "g", data, journal="remove") is None
        catalog = GraphCatalog(root)
        assert not (root / "g").exists()
        assert catalog.names() == []

    def test_snapshot_writes_drop_unnamed_files(self, instance, tmp_path):
        """``add(overwrite=True)`` is a snapshot write: after its commit
        it deletes every file the new log does not name (here leftovers
        of older versions and of a killed write); loads leave them."""
        data, _ = instance
        catalog = GraphCatalog(tmp_path / "cat")
        catalog.add("g", data)
        entry = tmp_path / "cat" / "g"
        leftovers = [
            entry / "artifacts.bin", entry / "analyze.json",
            entry / graph_file_name(2), entry / (LOG_FILE + ".tmp"),
        ]
        for leftover in leftovers:
            leftover.write_bytes(b"an old file")
        GraphCatalog(tmp_path / "cat").engine("g")
        assert all(p.exists() for p in leftovers)  # loads leave them alone
        catalog.add("g", data, overwrite=True)
        assert sorted(os.listdir(entry)) == [LOG_FILE, graph_file_name(2)]
        assert GraphCatalog(tmp_path / "cat").engine("g").data == data


def forge_snapshot(entry, graph_bytes, graph, epoch):
    """Commit ``graph_bytes`` as ``entry``'s snapshot by hand, with a
    snapshot record vouching for them (sizes and checksum of ``graph``)."""
    name = graph_file_name(epoch)
    (entry / name).write_bytes(graph_bytes)
    (entry / LOG_FILE).write_bytes(_encode_record({
        "epoch": epoch,
        "format_version": catalog_module.CATALOG_FORMAT_VERSION,
        "graph_checksum": graph_checksum(graph),
        "graph_file": name,
        "graph_file_sha256": _sha256(graph_bytes),
        "num_edges": graph.num_edges,
        "num_vertices": graph.num_vertices,
    }))
