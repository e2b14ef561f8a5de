"""Differential tests for the dynamic-graph subsystem (DESIGN.md §9).

The acceptance contract of ``repro.dynamic``:

* ``apply_delta`` produces exactly the graph a from-scratch
  ``GraphBuilder`` construction would, while *sharing* every untouched
  per-vertex structure with the source graph;
* ``DataArtifacts.apply_delta`` equals a cold
  ``DataArtifacts(new_graph)`` build value for value
  (``tests.oracle_engines.artifact_values``), and its carried-over lazy
  mask ladders answer exactly what a fresh instance computes;
* ``ContinuousMatcher`` diff streams replay to exactly the full
  re-match result set after every delta.
"""

import random

import pytest

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.core.gcs import BuildInvariantCache
from repro.dynamic.continuous import (
    ContinuousMatcher,
    EmbeddingDiff,
    embedding_diff,
)
from repro.dynamic.delta import (
    DeltaError,
    GraphDelta,
    apply_delta,
    delta_from_payload,
    delta_to_payload,
    loads_delta,
    saves_delta,
)
from repro.filtering.artifacts import DataArtifacts
from repro.graph.builder import GraphBuilder, graph_from_adjacency
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import graph_checksum
from tests.oracle_engines import artifact_values


def small_graph():
    """A / B / A / C path plus a pendant: exercises several labels."""
    return graph_from_adjacency(
        ["A", "B", "A", "C", "B"], [(0, 1), (1, 2), (2, 3), (3, 4)]
    )


def rebuilt(graph, delta):
    """The delta applied the slow way: re-add everything to a builder."""
    b = GraphBuilder()
    b.add_vertices(graph.labels)
    b.add_vertices(delta.add_vertices)
    removed = set(delta.remove_edges)
    for u, v in graph.edges():
        if (u, v) not in removed:
            b.add_edge(u, v)
    b.add_edges(delta.add_edges)
    return b.build()


class TestDeltaValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(DeltaError, match="self-loop"):
            GraphDelta(add_edges=((1, 1),))

    def test_duplicate_add_rejected(self):
        with pytest.raises(DeltaError, match="duplicate"):
            GraphDelta(add_edges=((0, 1), (1, 0)))

    def test_add_and_remove_same_edge_rejected(self):
        with pytest.raises(DeltaError, match="both added and removed"):
            GraphDelta(add_edges=((0, 1),), remove_edges=((1, 0),))

    def test_unhashable_label_rejected(self):
        with pytest.raises(DeltaError, match="unhashable"):
            GraphDelta(add_vertices=([1, 2],))

    def test_negative_endpoint_rejected(self):
        with pytest.raises(DeltaError, match="negative"):
            GraphDelta(remove_edges=((-1, 2),))

    def test_existing_edge_cannot_be_added(self):
        delta = GraphDelta(add_edges=((0, 1),))
        with pytest.raises(DeltaError, match="already exists"):
            apply_delta(small_graph(), delta)

    def test_missing_edge_cannot_be_removed(self):
        delta = GraphDelta(remove_edges=((0, 2),))
        with pytest.raises(DeltaError, match="does not exist"):
            apply_delta(small_graph(), delta)

    def test_added_edge_to_unknown_vertex_rejected(self):
        delta = GraphDelta(add_edges=((0, 7),))
        with pytest.raises(DeltaError, match="unknown vertex"):
            apply_delta(small_graph(), delta)

    def test_new_vertex_ids_are_addressable(self):
        graph = small_graph()
        delta = GraphDelta(add_vertices=("D",), add_edges=((0, 5),))
        new_graph, _ = apply_delta(graph, delta)
        assert new_graph.has_edge(0, 5)
        assert new_graph.label(5) == "D"


class TestApplyDelta:
    def test_matches_builder_rebuild(self):
        graph = small_graph()
        delta = GraphDelta(
            add_vertices=("A", "D"),
            add_edges=((0, 3), (4, 5), (5, 6)),
            remove_edges=((1, 2), (3, 4)),
        )
        new_graph, summary = apply_delta(graph, delta)
        assert new_graph == rebuilt(graph, delta)
        assert graph_checksum(new_graph) == graph_checksum(rebuilt(graph, delta))
        assert summary.num_vertices_before == 5
        assert summary.num_vertices_after == 7
        assert summary.added_vertices == (5, 6)
        assert set(summary.touched_vertices) == {0, 1, 2, 3, 4, 5, 6}

    def test_untouched_rows_are_shared_objects(self):
        graph = graph_from_adjacency(
            ["A", "B", "A", "C", "C"], [(0, 1), (1, 2), (2, 3), (3, 4)]
        )
        graph.neighbor_label_frequency(0)  # materialize NLF
        artifacts = DataArtifacts(graph)
        assert artifacts.ldf_mask("C", 2) == 1 << 3  # cache a C ladder rung
        # Degree-preserving at vertex 3: its row changes, its degree
        # (and so its C bucket slot) does not; vertices 0 and 2 move.
        delta = GraphDelta(add_edges=((0, 3),), remove_edges=((2, 3),))
        new_graph, summary = apply_delta(graph, delta)
        assert set(summary.touched_vertices) == {0, 2, 3}
        for v in (1, 4):
            assert new_graph.neighbors(v) is graph.neighbors(v)
            assert new_graph._neighbor_sets[v] is graph._neighbor_sets[v]
            assert new_graph._nlf[v] is graph._nlf[v]
        for v in (0, 2, 3):
            assert new_graph._neighbor_sets[v] is not graph._neighbor_sets[v]
        # An edge-only delta shares the label structures outright.
        assert new_graph.labels is graph.labels
        assert new_graph._label_index is graph._label_index

        patched = artifacts.apply_delta(new_graph, summary)
        for label in ("B", "C"):  # untouched, and touched but unmoved
            assert patched.label_buckets[label] is artifacts.label_buckets[label]
        for label in ("A", "B", "C"):  # no vertex added
            assert patched.label_bitmaps[label] is artifacts.label_bitmaps[label]
        assert patched.label_buckets["A"] == ((0, 2), (-2, -1))
        assert ("C", 1) in patched._ldf_masks  # the C ladder is kept
        assert patched.reuse_report["label_buckets_rebuilt"] == 1
        assert artifact_values(patched) == artifact_values(
            DataArtifacts(new_graph)
        )

    def test_source_graph_is_untouched(self):
        graph = small_graph()
        before = graph_checksum(graph)
        delta = GraphDelta(add_edges=((0, 4),), remove_edges=((0, 1),))
        apply_delta(graph, delta)
        assert graph_checksum(graph) == before
        assert graph.has_edge(0, 1) and not graph.has_edge(0, 4)

    def test_empty_delta_is_equal_graph(self):
        graph = small_graph()
        delta = GraphDelta()
        assert delta.is_empty()
        new_graph, summary = apply_delta(graph, delta)
        assert new_graph == graph
        assert summary.touched_vertices == ()

    def test_summary_partitions_roles(self):
        graph = small_graph()
        delta = GraphDelta(
            add_vertices=("D",), add_edges=((0, 3),), remove_edges=((3, 4),)
        )
        _, summary = apply_delta(graph, delta)
        assert summary.added_vertices == (5,)
        assert summary.added_edges == ((0, 3),)
        assert summary.removed_edges == ((3, 4),)
        assert summary.touched_vertices == (0, 3, 4, 5)
        assert summary.touched_labels == {"A", "C", "B", "D"}


class TestDeltaFormats:
    def test_text_round_trip(self):
        delta = GraphDelta(
            add_vertices=("D", 7),
            add_edges=((0, 5), (1, 6)),
            remove_edges=((0, 1),),
        )
        assert loads_delta(saves_delta(delta)) == delta

    def test_payload_round_trip(self):
        delta = GraphDelta(
            add_vertices=("D",), add_edges=((0, 5),), remove_edges=((0, 1),)
        )
        assert delta_from_payload(delta_to_payload(delta)) == delta

    def test_text_comments_and_errors(self):
        delta = loads_delta("# comment\n\nav A\nae 0 5\nre 1 2\n")
        assert delta.add_vertices == ("A",)
        with pytest.raises(DeltaError, match="line 1"):
            loads_delta("ae 0\n")
        with pytest.raises(DeltaError, match="unknown record"):
            loads_delta("xx 0 1\n")

    def test_payload_shape_errors(self):
        with pytest.raises(DeltaError):
            delta_from_payload(["not", "a", "dict"])
        with pytest.raises(DeltaError, match="unknown delta payload"):
            delta_from_payload({"bogus": []})
        with pytest.raises(DeltaError):
            delta_from_payload({"add_edges": [[1]]})


class TestArtifactsPatch:
    def prime_ladders(self, artifacts, queries):
        for query in queries:
            artifacts.nlf_candidate_masks(query)

    def test_patch_is_byte_identical_to_cold_rebuild(self):
        graph = small_graph()
        artifacts = DataArtifacts(graph)
        delta = GraphDelta(
            add_vertices=("D",),
            add_edges=((0, 3), (4, 5)),
            remove_edges=((1, 2),),
        )
        new_graph, summary = apply_delta(graph, delta)
        patched = artifacts.apply_delta(new_graph, summary)
        cold = DataArtifacts(new_graph)
        assert artifact_values(patched) == artifact_values(cold)

    def test_patch_counts_as_patch_not_build(self):
        graph = small_graph()
        artifacts = DataArtifacts(graph)
        new_graph, summary = apply_delta(
            graph, GraphDelta(add_edges=((0, 4),))
        )
        builds = DataArtifacts.builds_performed
        patches = DataArtifacts.patches_performed
        patched = artifacts.apply_delta(new_graph, summary)
        assert DataArtifacts.builds_performed == builds
        assert DataArtifacts.patches_performed == patches + 1
        assert patched.reuse_report["vertices_touched"] == 2

    def test_untouched_structures_are_reused(self):
        # Two labels, delta confined to label-C vertices: every A/B
        # bucket and adjacency row must be carried over untouched.
        graph = graph_from_adjacency(
            ["A", "B", "A", "C", "C"], [(0, 1), (1, 2), (3, 4)]
        )
        artifacts = DataArtifacts(graph)
        new_graph, summary = apply_delta(
            graph, GraphDelta(remove_edges=((3, 4),))
        )
        patched = artifacts.apply_delta(new_graph, summary)
        assert summary.touched_labels == frozenset({"C"})
        for label in ("A", "B"):
            assert patched.label_buckets[label] is artifacts.label_buckets[label]
        report = patched.reuse_report
        assert report["label_buckets_reused"] == 2
        assert report["label_buckets_rebuilt"] == 1
        assert report["adjacency_rows_reused"] == 3

    def test_lazy_ladders_patched_exactly(self, rng):
        from tests.conftest import make_random_pair

        for _ in range(10):
            query, graph = make_random_pair(rng)
            artifacts = DataArtifacts(graph)
            self.prime_ladders(artifacts, [query])
            edges = list(graph.edges())
            remove = tuple(
                rng.sample(edges, min(2, len(edges)))
            ) if edges else ()
            add = []
            attempts = 0
            while len(add) < 2 and attempts < 50:
                attempts += 1
                u = rng.randrange(graph.num_vertices)
                v = rng.randrange(graph.num_vertices)
                edge = (min(u, v), max(u, v))
                if u != v and not graph.has_edge(u, v) and edge not in add:
                    add.append(edge)
            delta = GraphDelta(
                add_vertices=(rng.randint(0, 2),),
                add_edges=tuple(add),
                remove_edges=remove,
            )
            new_graph, summary = apply_delta(graph, delta)
            patched = artifacts.apply_delta(new_graph, summary)
            fresh = DataArtifacts(new_graph)
            # Carried-over LDF prefix masks and patched NLF threshold
            # masks answer exactly what a cold instance computes.
            for key in list(patched._nlf_count_masks):
                label, count = key
                assert patched.nlf_count_mask(label, count) == \
                    fresh.nlf_count_mask(label, count)
            assert patched.nlf_candidate_masks(query) == \
                fresh.nlf_candidate_masks(query)
            assert patched.ldf_candidate_masks(query) == \
                fresh.ldf_candidate_masks(query)

    def test_new_label_appears_and_orphan_label_kept(self):
        # Delta isolates the only C vertex (degree drops to 0) and adds
        # a brand-new label D: both must equal a cold build.
        graph = graph_from_adjacency(["A", "B", "C"], [(0, 1), (1, 2)])
        artifacts = DataArtifacts(graph)
        delta = GraphDelta(add_vertices=("D",), remove_edges=((1, 2),))
        new_graph, summary = apply_delta(graph, delta)
        patched = artifacts.apply_delta(new_graph, summary)
        cold = DataArtifacts(new_graph)
        assert artifact_values(patched) == artifact_values(cold)
        assert patched.label_bitmaps["D"] == 1 << 3
        assert patched.label_buckets["C"] == ((2,), (0,))


class TestEngineApplyDelta:
    def test_in_place_update_matches_fresh_engine(self):
        data = graph_from_adjacency(
            ["A", "B", "C", "A", "B", "C"],
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)],
        )
        query = graph_from_adjacency(["A", "B", "C"], [(0, 1), (1, 2), (2, 0)])
        engine = GuPEngine(data)
        engine.match(query)  # warm artifacts + invariants
        invariants = engine.invariants
        builds = DataArtifacts.builds_performed

        delta = GraphDelta(add_edges=((3, 5),), remove_edges=((0, 1),))
        summary = engine.apply_delta(delta)
        assert summary.added_edges == ((3, 5),)
        assert engine.invariants is invariants
        assert DataArtifacts.builds_performed == builds, (
            "in-place update must patch, not rebuild"
        )
        assert engine.data.has_edge(3, 5) and not engine.data.has_edge(0, 1)

        fresh = GuPEngine(engine.data)
        assert sorted(engine.match(query).embeddings) == sorted(
            fresh.match(query).embeddings
        ) == [(3, 4, 5)]


class TestContinuousMatcher:
    def triangle_world(self):
        data = graph_from_adjacency(
            ["A", "B", "C", "A", "B", "C"],
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)],
        )
        query = graph_from_adjacency(["A", "B", "C"], [(0, 1), (1, 2), (2, 0)])
        return data, query

    def test_addition_creates_match_removal_retracts(self):
        data, query = self.triangle_world()
        matcher = ContinuousMatcher(data)
        initial = matcher.register("tri", query)
        assert initial == [(0, 1, 2)]

        diffs = matcher.apply(GraphDelta(add_edges=((3, 5),)))
        assert diffs["tri"].added == [(3, 4, 5)]
        assert diffs["tri"].removed == []
        assert matcher.matches("tri") == [(0, 1, 2), (3, 4, 5)]

        diffs = matcher.apply(GraphDelta(remove_edges=((0, 1),)))
        assert diffs["tri"].added == []
        assert diffs["tri"].removed == [(0, 1, 2)]
        assert matcher.matches("tri") == [(3, 4, 5)]
        assert matcher.epoch == 2

    def test_diff_equals_full_rematch(self, rng):
        from tests.conftest import make_random_pair

        checked = 0
        while checked < 6:
            query, data = make_random_pair(rng, max_query=5, max_data=12)
            matcher = ContinuousMatcher(data)
            matcher.register("q", query)
            for _ in range(3):
                edges = list(matcher.graph.edges())
                remove = tuple(rng.sample(edges, min(1, len(edges))))
                add = []
                attempts = 0
                while len(add) < 2 and attempts < 50:
                    attempts += 1
                    u = rng.randrange(matcher.graph.num_vertices)
                    v = rng.randrange(matcher.graph.num_vertices)
                    e = (min(u, v), max(u, v))
                    if (u != v and not matcher.graph.has_edge(u, v)
                            and e not in add and e not in remove):
                        add.append(e)
                matcher.apply(
                    GraphDelta(add_edges=tuple(add), remove_edges=remove)
                )
                full = {
                    tuple(e)
                    for e in GuPEngine(matcher.graph).match(query).embeddings
                }
                assert set(matcher.matches("q")) == full
            checked += 1

    def test_empty_delta_empty_diff(self):
        data, query = self.triangle_world()
        matcher = ContinuousMatcher(data)
        matcher.register("tri", query)
        diffs = matcher.apply(GraphDelta())
        assert diffs["tri"].is_empty()
        assert matcher.matches("tri") == [(0, 1, 2)]

    def test_new_vertex_match_via_added_vertex(self):
        # A query with a pendant C: a freshly added C vertex plus an
        # edge creates matches that must place a vertex on the new id.
        data = graph_from_adjacency(["A", "B"], [(0, 1)])
        query = graph_from_adjacency(["A", "B", "C"], [(0, 1), (1, 2)])
        matcher = ContinuousMatcher(data)
        assert matcher.register("path", query) == []
        diffs = matcher.apply(
            GraphDelta(add_vertices=("C",), add_edges=((1, 2),))
        )
        assert diffs["path"].added == [(0, 1, 2)]

    def test_register_and_unregister(self):
        data, query = self.triangle_world()
        matcher = ContinuousMatcher(data)
        matcher.register("tri", query)
        with pytest.raises(ValueError, match="already registered"):
            matcher.register("tri", query)
        matcher.unregister("tri")
        with pytest.raises(KeyError):
            matcher.unregister("tri")
        assert matcher.names() == []

    def test_counters_track_work(self):
        data, query = self.triangle_world()
        matcher = ContinuousMatcher(data)
        matcher.register("tri", query)
        matcher.apply(GraphDelta(add_edges=((3, 5),)))
        counters = matcher.counters
        assert counters["deltas_applied"] == 1
        assert counters["additions"] == 1
        # Added edge (3, 5) is A-C: of the 3 query edges x 2 orientations
        # only (0, 2) <- (3, 5) fits, so one anchored build runs.
        assert counters["anchored_builds"] == 1
        assert counters["anchored_skipped"] == 5

    def test_diff_object_shape(self):
        diff = EmbeddingDiff(added=[(0, 1)], removed=[])
        assert not diff.is_empty()
        assert EmbeddingDiff().is_empty()


SYMMETRIC_QUERIES = {
    "triangle": graph_from_adjacency([0] * 3, [(0, 1), (1, 2), (0, 2)]),
    "path": graph_from_adjacency([0] * 4, [(0, 1), (1, 2), (2, 3)]),
    "star": graph_from_adjacency([0] * 4, [(0, 1), (0, 2), (0, 3)]),
}


def edge_churn_delta(rng, graph, edits=2):
    """Up to ``edits`` removals plus ``edits`` insertions on ``graph``."""
    edges = list(graph.edges())
    remove = tuple(rng.sample(edges, min(edits, len(edges))))
    add = []
    for _ in range(20 * edits):
        u, v = rng.sample(range(graph.num_vertices), 2)
        e = (min(u, v), max(u, v))
        if not graph.has_edge(*e) and e not in add and len(add) < edits:
            add.append(e)
    return GraphDelta(add_edges=tuple(add), remove_edges=remove)


class TestAnchoredDiffs:
    """The edge-anchored enumeration: exact, new-only, exactly once."""

    @pytest.mark.parametrize("shape", sorted(SYMMETRIC_QUERIES))
    def test_symmetry_breaking_config_keeps_diffs_exact(self, shape):
        # With break_symmetry the engine searches one representative
        # per automorphism class; a pinned anchor breaks that premise,
        # so the anchored searches must run without it.
        query = SYMMETRIC_QUERIES[shape]
        config = GuPConfig(break_symmetry=True)
        added = 0
        for seed in range(8):
            rng = random.Random(seed)
            data = erdos_renyi_graph(9, 16, num_labels=1, seed=seed)
            matcher = ContinuousMatcher(data, config)
            matcher.register("q", query)
            for _ in range(5):
                before = set(matcher.matches("q"))
                diff = matcher.apply(edge_churn_delta(rng, matcher.graph))["q"]
                assert len(set(diff.added)) == len(diff.added)
                assert before.isdisjoint(diff.added)
                added += len(diff.added)
                full = GuPEngine(matcher.graph).match(query).embedding_set()
                assert set(matcher.matches("q")) == full, (shape, seed)
        assert added > 0

    def test_isolated_query_vertices_anchor_on_added_vertices(self):
        # New matches of an edgeless query use added vertices but no
        # added edge.  (2, 3, 1) takes an added vertex at both isolated
        # query vertices and must be emitted under the first one only.
        data = graph_from_adjacency(["A", "B"], [(0, 1)])
        query = graph_from_adjacency(["A", "A", "B"], [])
        matcher = ContinuousMatcher(data)
        assert matcher.register("q", query) == []
        diff = matcher.apply(GraphDelta(add_vertices=("A", "A")))["q"]
        assert diff.added == [
            (0, 2, 1), (0, 3, 1), (2, 0, 1), (2, 3, 1), (3, 0, 1), (3, 2, 1)
        ]
        assert matcher.counters["anchored_builds"] == 4

    def test_seeded_builds_stay_out_of_the_invariant_memo(self):
        # Every diff pins anchors into per-delta seed masks whose memo
        # keys never hit again; inserting them would evict the live
        # query's entries from a full memo.
        data = erdos_renyi_graph(14, 40, num_labels=1, seed=3)
        query = SYMMETRIC_QUERIES["triangle"]
        memo = BuildInvariantCache(max_entries=4)
        engine = GuPEngine(data, invariants=memo)
        engine.build(query)
        recomputes = memo.recomputes
        full = engine.match(query).embedding_set()
        counters = {"anchored_builds": 0, "anchored_skipped": 0}
        edges = list(data.edges())[:2 * memo.max_entries]
        for edge in edges:  # more distinct deltas than the memo holds
            old, _ = apply_delta(data, GraphDelta(remove_edges=(edge,)))
            new, summary = apply_delta(old, GraphDelta(add_edges=(edge,)))
            assert new == data
            before = GuPEngine(old).match(query).embedding_set()
            diff = embedding_diff(engine, query, set(before), summary, counters)
            assert set(diff.added) == full - before
        assert counters["anchored_builds"] > memo.max_entries
        engine.build(query)
        assert memo.recomputes == recomputes
