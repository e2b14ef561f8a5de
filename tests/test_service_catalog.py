"""Catalog durability: entries survive restarts, a bad sidecar is
repaired.

Differential style (as in ``tests/test_parallel_exact.py``): whatever
the store's state — freshly built, reloaded in another process,
recovered from deliberate corruption, or written in the older layout
with ``artifacts.bin`` — a catalog engine must return byte-identical
``match`` results to a fresh ``GuPEngine`` on the same graph.
"""

import hashlib
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
    GRAPH_FILE,
    LOG_FILE,
    META_FILE,
    CatalogError,
    GraphCatalog,
)
from repro.workload.querygen import generate_query

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
        assert sorted(os.listdir(entry)) == sorted(
            [GRAPH_FILE, META_FILE, LOG_FILE]
        )
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
    def test_reopen_builds_once_from_a_valid_sidecar(self, instance, tmp_path):
        data, queries = instance
        GraphCatalog(tmp_path / "cat").add("g", data)
        entry = tmp_path / "cat" / "g"
        files = {n: (entry / n).read_bytes() for n in os.listdir(entry)}
        reopened = GraphCatalog(tmp_path / "cat")
        before = DataArtifacts.builds_performed
        engine = reopened.engine("g")
        assert DataArtifacts.builds_performed == before + 1
        assert reopened.counters["artifact_loads"] == 1
        assert reopened.counters["sidecar_repairs"] == 0
        # A clean load writes nothing.
        assert {
            n: (entry / n).read_bytes() for n in os.listdir(entry)
        } == files
        assert_matches_direct(engine, data, queries)

    def test_subprocess_round_trip(self, instance, tmp_path):
        """An entry written here is loaded — not repaired — by a fresh
        process, which builds the artifacts once and serves
        byte-identical results."""
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
    "repairs": catalog.counters["sidecar_repairs"],
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
        assert reply["repairs"] == 0
        assert reply["builds_in_process"] == 1

    @pytest.mark.parametrize(
        "corruption", ["corrupt_meta", "delete_meta", "stale_graph"]
    )
    def test_corruption_triggers_rebuild_not_crash(
        self, instance, tmp_path, corruption
    ):
        """A bad sidecar is rebuilt from the graph file, never trusted."""
        data, queries = instance
        root = tmp_path / "cat"
        GraphCatalog(root).add("g", data)
        entry = root / "g"
        if corruption == "corrupt_meta":
            (entry / META_FILE).write_text("{ not json", encoding="utf-8")
        elif corruption == "delete_meta":
            (entry / META_FILE).unlink()
        else:  # stale_graph: the graph file changed under the sidecar
            smaller = powerlaw_cluster_graph(25, 2, 0.2, num_labels=2, seed=4)
            save_graph(smaller, entry / GRAPH_FILE)
            data, queries = smaller, [
                generate_query(smaller, 4, "sparse", seed=1)
            ]
        catalog = GraphCatalog(root)
        engine = catalog.engine("g")
        assert catalog.counters["sidecar_repairs"] == 1
        assert catalog.counters["artifact_loads"] == 0
        assert_matches_direct(engine, data, queries)
        # The repair rewrote the sidecar: a fresh catalog loads cleanly.
        after = GraphCatalog(root)
        after.engine("g")
        assert after.counters["artifact_loads"] == 1
        assert after.counters["sidecar_repairs"] == 0

    def test_entry_with_artifacts_bin_loads_without_repair(
        self, instance, tmp_path
    ):
        """An entry in the older layout — an ``artifacts.bin`` beside the
        graph, its sidecar carrying ``artifacts_format_version`` and
        ``artifacts_sha256``, and an ``analyze.json`` EXPLAIN ANALYZE
        sidecar with a staged ``analyze.json.tmp`` — loads as it is: the
        blob and the analyze sidecar are ignored (the blob here truncated
        to 0 bytes), recovery sweeps the stray tmp, the sidecar is valid,
        and updates, compaction and removal all work on it; the
        compaction deletes the blob and the analyze sidecar."""
        data, queries = instance
        root = tmp_path / "cat"
        entry = root / "g"
        entry.mkdir(parents=True)
        graph_bytes = saves_graph(data).encode("utf-8")
        (entry / GRAPH_FILE).write_bytes(graph_bytes)
        (entry / "artifacts.bin").write_bytes(b"")
        (entry / "analyze.json").write_text(
            '{"version": 1, "records": [{"trace": "t1"}]}\n',
            encoding="utf-8",
        )
        (entry / "analyze.json.tmp").write_bytes(b'{"version": 1, "rec')
        (entry / LOG_FILE).write_bytes(b"")
        meta = {
            "format_version": 1,
            "artifacts_format_version": 2,
            "name": "g",
            "num_vertices": data.num_vertices,
            "num_edges": data.num_edges,
            "epoch": 3,
            "graph_checksum": graph_checksum(data),
            "graph_file_sha256": hashlib.sha256(graph_bytes).hexdigest(),
            "artifacts_sha256": hashlib.sha256(b"the old blob").hexdigest(),
        }
        (entry / META_FILE).write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

        catalog = GraphCatalog(root)
        engine = catalog.engine("g")
        assert catalog.counters["sidecar_repairs"] == 0
        assert catalog.counters["artifact_loads"] == 1
        assert catalog.info("g")["epoch"] == 3
        assert not (entry / "analyze.json.tmp").exists()
        assert (entry / "analyze.json").exists()  # loads leave it alone
        fresh = GraphCatalog(tmp_path / "fresh")
        fresh.add("g", data)
        assert_matches_direct(engine, data, queries)
        limits = SearchLimits(max_embeddings=500)
        for query in queries:
            assert engine.match(query, limits=limits).embeddings == (
                fresh.engine("g").match(query, limits=limits).embeddings
            )

        u, v = next(
            (u, v) for u in data.vertices() for v in data.vertices()
            if u < v and not data.has_edge(u, v)
        )
        info, _ = catalog.update("g", GraphDelta(add_edges=((u, v),)))
        assert info["epoch"] == 4
        assert catalog.counters["log_appends"] == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog_module, "LOG_COMPACT_RECORDS", 2)
            info, _ = catalog.update("g", GraphDelta(remove_edges=((u, v),)))
        assert info["epoch"] == 5
        assert catalog.counters["log_compactions"] == 1
        compacted = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
        assert compacted["epoch"] == 5
        assert "artifacts_sha256" not in compacted
        assert not (entry / "artifacts.bin").exists()
        assert not (entry / "analyze.json").exists()
        reopened = GraphCatalog(root)
        assert reopened.engine("g").data == data
        assert reopened.counters["sidecar_repairs"] == 0
        assert reopened.info("g")["epoch"] == 5

        reopened.remove("g")
        assert not entry.exists()
        assert reopened.names() == []

    def test_overwrite_drops_artifacts_bin(self, instance, tmp_path):
        """``add(overwrite=True)`` is a full snapshot too: it deletes an
        older entry's ``artifacts.bin`` and ``analyze.json`` after
        committing."""
        data, _ = instance
        catalog = GraphCatalog(tmp_path / "cat")
        catalog.add("g", data)
        entry = tmp_path / "cat" / "g"
        leftovers = [entry / "artifacts.bin", entry / "analyze.json"]
        for leftover in leftovers:
            leftover.write_bytes(b"an old file")
        catalog.engine("g")
        assert all(p.exists() for p in leftovers)  # loads leave them alone
        catalog.add("g", data, overwrite=True)
        assert not any(p.exists() for p in leftovers)
        assert GraphCatalog(tmp_path / "cat").engine("g").data == data

    def test_unparseable_graph_is_an_error(self, instance, tmp_path):
        data, _ = instance
        root = tmp_path / "cat"
        GraphCatalog(root).add("g", data)
        (root / "g" / GRAPH_FILE).write_text("v broken", encoding="utf-8")
        with pytest.raises(CatalogError):
            GraphCatalog(root).engine("g")

    def test_warm_verifies_disk_state(self, instance, tmp_path):
        data, _ = instance
        root = tmp_path / "cat"
        catalog = GraphCatalog(root)
        catalog.add("g", data)
        assert catalog.warm("g") is False  # store valid, nothing repaired
        (root / "g" / META_FILE).write_text("junk", encoding="utf-8")
        assert catalog.warm("g") is True
        assert GraphCatalog(root).warm("g") is False
