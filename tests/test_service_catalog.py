"""Catalog durability: artifacts survive restarts, corruption rebuilds.

Differential style (as in ``tests/test_parallel_exact.py``): whatever
the store's state — freshly built, reloaded in another process, or
recovered from deliberate corruption — a catalog engine must return
byte-identical ``match`` results to a fresh ``GuPEngine`` on the same
graph.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import GuPEngine
from repro.filtering.artifacts import (
    ArtifactsFormatError,
    DataArtifacts,
    dumps_artifacts,
    loads_artifacts,
)
from repro.graph.builder import graph_from_adjacency
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.io import graph_checksum, loads_graph, save_graph, saves_graph
from repro.matching.limits import SearchLimits
from repro.service.catalog import (
    ARTIFACTS_FILE,
    GRAPH_FILE,
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


class TestArtifactsSerialization:
    def test_roundtrip_no_rebuild(self, instance):
        data, queries = instance
        blob = dumps_artifacts(DataArtifacts(data))
        before = DataArtifacts.builds_performed
        restored = loads_artifacts(blob, data)
        assert DataArtifacts.builds_performed == before
        assert restored.degrees == tuple(data.degree(v) for v in data.vertices())
        for query in queries:
            assert restored.nlf_candidates(query) == DataArtifacts(
                data
            ).nlf_candidates(query)

    def test_rejects_wrong_graph(self, instance):
        data, _ = instance
        other = powerlaw_cluster_graph(40, 3, 0.3, num_labels=3, seed=99)
        blob = dumps_artifacts(DataArtifacts(data))
        with pytest.raises(ArtifactsFormatError):
            loads_artifacts(blob, other)

    @pytest.mark.parametrize("mutation", ["truncate", "flip", "garbage"])
    def test_rejects_corrupt_blob(self, instance, mutation):
        data, _ = instance
        blob = dumps_artifacts(DataArtifacts(data))
        if mutation == "truncate":
            blob = blob[: len(blob) // 2]
        elif mutation == "flip":
            blob = blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:]
        else:
            blob = b"not a pickle at all"
        with pytest.raises(ArtifactsFormatError):
            loads_artifacts(blob, data)


class TestCatalogBasics:
    def test_add_persists_layout(self, instance, tmp_path):
        data, queries = instance
        catalog = GraphCatalog(tmp_path / "cat")
        info = catalog.add("g", data)
        entry = tmp_path / "cat" / "g"
        assert (entry / GRAPH_FILE).exists()
        assert (entry / ARTIFACTS_FILE).exists()
        assert (entry / META_FILE).exists()
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
    def test_reload_uses_disk_artifacts(self, instance, tmp_path):
        data, queries = instance
        GraphCatalog(tmp_path / "cat").add("g", data)
        reopened = GraphCatalog(tmp_path / "cat")
        before = DataArtifacts.builds_performed
        engine = reopened.engine("g")
        assert DataArtifacts.builds_performed == before, "load must not build"
        assert reopened.counters["artifact_loads"] == 1
        assert reopened.counters["artifact_rebuilds"] == 0
        assert_matches_direct(engine, data, queries)

    def test_subprocess_round_trip(self, instance, tmp_path):
        """Artifacts written here are loaded — not rebuilt — by a fresh
        process, and serve byte-identical results."""
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
    "rebuilds": catalog.counters["artifact_rebuilds"],
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
        assert reply["rebuilds"] == 0
        assert reply["builds_in_process"] == 0

    @pytest.mark.parametrize(
        "corruption",
        ["truncate_artifacts", "flip_artifacts", "delete_artifacts",
         "corrupt_meta", "delete_meta", "stale_graph"],
    )
    def test_corruption_triggers_rebuild_not_crash(
        self, instance, tmp_path, corruption
    ):
        data, queries = instance
        root = tmp_path / "cat"
        GraphCatalog(root).add("g", data)
        entry = root / "g"
        artifacts = entry / ARTIFACTS_FILE
        if corruption == "truncate_artifacts":
            artifacts.write_bytes(artifacts.read_bytes()[:20])
        elif corruption == "flip_artifacts":
            blob = bytearray(artifacts.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            artifacts.write_bytes(bytes(blob))
        elif corruption == "delete_artifacts":
            artifacts.unlink()
        elif corruption == "corrupt_meta":
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
        assert catalog.counters["artifact_rebuilds"] == 1
        assert catalog.counters["artifact_loads"] == 0
        assert_matches_direct(engine, data, queries)
        # The rebuild rewrote the store: a fresh catalog loads cleanly.
        after = GraphCatalog(root)
        after.engine("g")
        assert after.counters["artifact_loads"] == 1
        assert after.counters["artifact_rebuilds"] == 0

    def test_old_artifact_format_version_rebuilds_cleanly(
        self, instance, tmp_path
    ):
        """A sidecar + blob written at the *previous* artifact format
        version (v1: no build-path bitmaps) is stale, not corrupt: the
        load rebuilds from the graph (counter increments), never
        crashes, never silently reuses the old payload."""
        import hashlib
        import pickle

        data, queries = instance
        root = tmp_path / "cat"
        GraphCatalog(root).add("g", data)
        entry = root / "g"

        # Forge a faithful v1-era store: the pre-bitmap payload shape
        # with a consistent sidecar (correct sha256, old version tags).
        fresh = DataArtifacts(data)
        v1_payload = (
            1,
            data.num_vertices,
            data.num_edges,
            fresh.degrees,
            fresh.label_buckets,
            [data.neighbor_label_frequency(v) for v in data.vertices()],
        )
        blob = pickle.dumps(v1_payload, protocol=pickle.HIGHEST_PROTOCOL)
        (entry / ARTIFACTS_FILE).write_bytes(blob)
        meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
        meta["artifacts_format_version"] = 1
        meta["artifacts_sha256"] = hashlib.sha256(blob).hexdigest()
        (entry / META_FILE).write_text(json.dumps(meta), encoding="utf-8")

        # The direct loader rejects the stale version outright ...
        with pytest.raises(ArtifactsFormatError, match="version"):
            loads_artifacts(blob, data)

        # ... and the catalog turns that into one clean rebuild.
        catalog = GraphCatalog(root)
        engine = catalog.engine("g")
        assert catalog.counters["artifact_rebuilds"] == 1
        assert catalog.counters["artifact_loads"] == 0
        assert_matches_direct(engine, data, queries)
        # The rebuild rewrote blob + sidecar at the current version: a
        # fresh catalog now loads cleanly with zero rebuilds.
        after = GraphCatalog(root)
        after.engine("g")
        assert after.counters["artifact_loads"] == 1
        assert after.counters["artifact_rebuilds"] == 0

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
        assert catalog.warm("g") is False  # store valid, nothing rebuilt
        (root / "g" / ARTIFACTS_FILE).write_bytes(b"junk")
        assert catalog.warm("g") is True
        assert GraphCatalog(root).warm("g") is False


class TestCanonicalStore:
    """Masks at rest are canonical Python ints: query-time derived
    caches must not leak into the stored bytes, and a payload carrying
    anything else (e.g. word arrays) is corrupt."""

    def test_warm_dump_matches_disk_bytes(self, instance, tmp_path):
        data, queries = instance
        root = tmp_path / "cat"
        catalog = GraphCatalog(root)
        catalog.add("g", data)
        # Warm the engine through real matches so derived caches (mask
        # ladders, count vectors) exist before the live artifacts are
        # re-serialized.
        engine = catalog.engine("g")
        for query in queries:
            engine.match(query, limits=SearchLimits(max_embeddings=100))
        disk = (root / "g" / ARTIFACTS_FILE).read_bytes()
        assert dumps_artifacts(engine.artifacts) == disk

    def test_dump_bytes_depend_on_values_not_identity(self):
        """Equal string labels held as distinct objects (a graph parsed
        from text, a reloaded payload) serialize like a cold build."""
        data = graph_from_adjacency(
            ["ab", "cd", "ab", "cd", 7], [(0, 1), (1, 2), (2, 3), (3, 4)]
        )
        cold = dumps_artifacts(DataArtifacts(data))
        parsed = loads_graph(saves_graph(data))
        assert dumps_artifacts(DataArtifacts(parsed)) == cold
        assert dumps_artifacts(loads_artifacts(cold, parsed)) == cold

    def test_mixed_width_payload_rejected_then_rebuilt(self, instance, tmp_path):
        """A forged payload whose adjacency bitmaps are ``array('Q')``
        64-bit word arrays instead of ints is non-canonical: the loader
        rejects it outright and the catalog recovers with one clean
        rebuild."""
        import hashlib
        import pickle
        from array import array

        data, queries = instance
        root = tmp_path / "cat"
        GraphCatalog(root).add("g", data)
        entry = root / "g"

        payload = list(pickle.loads((entry / ARTIFACTS_FILE).read_bytes()))
        nbytes = 8 * max(1, (data.num_vertices + 63) // 64)
        payload[7] = tuple(
            array("Q", m.to_bytes(nbytes, "little")) for m in payload[7]
        )
        forged = pickle.dumps(tuple(payload), protocol=pickle.HIGHEST_PROTOCOL)
        (entry / ARTIFACTS_FILE).write_bytes(forged)
        meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
        meta["artifacts_sha256"] = hashlib.sha256(forged).hexdigest()
        (entry / META_FILE).write_text(json.dumps(meta), encoding="utf-8")

        with pytest.raises(ArtifactsFormatError, match="canonical int masks"):
            loads_artifacts(forged, data)

        catalog = GraphCatalog(root)
        engine = catalog.engine("g")
        assert catalog.counters["artifact_rebuilds"] == 1
        assert catalog.counters["artifact_loads"] == 0
        assert_matches_direct(engine, data, queries)
