"""Property tests (hypothesis) for the dynamic-graph subsystem.

Drives random *interleaved* edit sequences — edge inserts, edge
deletes, vertex additions, including empty deltas — against a random
base graph and asserts, after **every** step:

* the incrementally-maintained graph equals a from-scratch rebuild;
* ``DataArtifacts.apply_delta`` equals a cold ``DataArtifacts`` build
  on the new graph value for value, with warm mask
  ladders answering exactly what a fresh instance computes — along
  runs that mix random edits, degree-preserving edge swaps and vertex
  additions carrying a new label;
* the continuous matcher's cumulative diff stream replays to exactly
  the full re-match embedding set;
* over arbitrary queries — disconnected, with isolated vertices, or
  edgeless — the edge-anchored diff emits every new match exactly once
  and never a cached one.

The deterministic edge cases the ISSUE calls out — the empty delta and
a delta that deletes the last edge of the only vertex carrying a label
(emptying an NLF row and zeroing a bucket degree) — are pinned as
explicit examples below the fuzz.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.dynamic.continuous import ContinuousMatcher
from repro.dynamic.delta import GraphDelta, apply_delta
from repro.filtering.artifacts import DataArtifacts
from repro.graph.builder import GraphBuilder, graph_from_adjacency
from repro.graph.generators import erdos_renyi_graph, random_connected_graph
from repro.graph.io import graph_checksum, loads_graph, saves_graph
from tests.oracle_engines import artifact_values

LABELS = ("A", "B", "C")


def random_delta(rng, graph, allow_empty=True):
    """A valid random delta against ``graph`` (possibly empty)."""
    n = graph.num_vertices
    add_vertices = tuple(
        rng.choice(LABELS) for _ in range(rng.randint(0, 2))
    )
    n_new = n + len(add_vertices)
    edges = list(graph.edges())
    remove = tuple(rng.sample(edges, min(rng.randint(0, 2), len(edges))))
    removed = set(remove)
    add = []
    for _ in range(rng.randint(0, 3)):
        u = rng.randrange(n_new)
        v = rng.randrange(n_new)
        edge = (min(u, v), max(u, v))
        if (
            u != v
            and edge not in add
            and edge not in removed
            and not (edge[1] < n and graph.has_edge(*edge))
        ):
            add.append(edge)
    delta = GraphDelta(
        add_vertices=add_vertices,
        add_edges=tuple(add),
        remove_edges=remove,
    )
    if delta.is_empty() and not allow_empty:
        return random_delta(rng, graph, allow_empty=False) if n > 1 else delta
    return delta


def builder_rebuild(graph, delta):
    b = GraphBuilder()
    b.add_vertices(graph.labels)
    b.add_vertices(delta.add_vertices)
    removed = set(delta.remove_edges)
    for u, v in graph.edges():
        if (u, v) not in removed:
            b.add_edge(u, v)
    b.add_edges(delta.add_edges)
    return b.build()


def degree_preserving_delta(rng, graph):
    """Swap one edge at a vertex ``v`` for another: ``v``'s degree is
    unchanged while both far endpoints move.  Empty when no vertex has
    both a neighbour and a non-neighbour."""
    options = [
        v
        for v in graph.vertices()
        if 0 < graph.degree(v) < graph.num_vertices - 1
    ]
    if not options:
        return GraphDelta()
    v = rng.choice(options)
    old = rng.choice(graph.neighbors(v))
    new = rng.choice(
        [x for x in graph.vertices() if x != v and not graph.has_edge(v, x)]
    )
    return GraphDelta(add_edges=((v, new),), remove_edges=((v, old),))


def new_label_delta(rng, graph):
    """Add a vertex whose label may be absent from ``graph``, wired to
    up to two existing vertices."""
    n = graph.num_vertices
    ends = rng.sample(range(n), min(n, rng.randint(0, 2)))
    return GraphDelta(
        add_vertices=(rng.choice(("D", "E")),),
        add_edges=tuple((u, n) for u in ends),
    )


def artifact_delta(rng, graph):
    kind = rng.choice((random_delta, degree_preserving_delta, new_label_delta))
    return kind(rng, graph)


def warm_ldf_ladders(artifacts):
    """Cache every LDF prefix mask the artifacts can answer."""
    top = max(artifacts.degrees, default=0) + 1
    return {
        (label, d): artifacts.ldf_mask(label, d)
        for label in artifacts.label_buckets
        for d in range(top + 1)
    }


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=2, max_value=12),
    edge_factor=st.floats(min_value=0.0, max_value=2.0),
    steps=st.integers(min_value=3, max_value=6),
)
def test_artifact_patches_equal_cold_rebuild_along_edit_sequences(
    seed, nd, edge_factor, steps
):
    rng = random.Random(seed)
    graph = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=len(LABELS), seed=seed
    )
    artifacts = DataArtifacts(graph)
    probe = random_connected_graph(3, 3, num_labels=len(LABELS), seed=seed + 1)
    warm_ldf_ladders(artifacts)
    for _ in range(steps):
        artifacts.nlf_candidate_masks(probe)  # keep ladders warm
        delta = artifact_delta(rng, graph)
        new_graph, summary = apply_delta(graph, delta)
        assert new_graph == builder_rebuild(graph, delta)
        patched = artifacts.apply_delta(new_graph, summary)
        cold = DataArtifacts(new_graph)
        assert artifact_values(patched) == artifact_values(cold)
        # Kept LDF ladders are a cache the values above do not cover.
        assert warm_ldf_ladders(patched) == warm_ldf_ladders(cold)
        for label, count in list(patched._nlf_count_masks):
            assert patched.nlf_count_mask(label, count) == cold.nlf_count_mask(
                label, count
            )
        assert patched.nlf_candidate_masks(probe) == cold.nlf_candidate_masks(
            probe
        )
        graph, artifacts = new_graph, patched


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=1, max_value=12),
    edge_factor=st.floats(min_value=0.0, max_value=2.0),
    steps=st.integers(min_value=1, max_value=5),
)
def test_patched_text_blocks_equal_a_block_free_reparse(
    seed, nd, edge_factor, steps
):
    """``saves_graph``/``graph_checksum`` of a delta-applied graph, whose
    text blocks were patched from its source's, equal those of the same
    graph re-parsed from text (which has no blocks yet)."""
    rng = random.Random(seed)
    graph = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=len(LABELS), seed=seed
    )
    graph_checksum(graph)  # materialize the blocks the chain patches
    for _ in range(steps):
        graph, _ = apply_delta(graph, random_delta(rng, graph))
        assert graph._text is not None
        fresh = loads_graph(saves_graph(graph))
        assert fresh._text is None
        assert saves_graph(graph) == saves_graph(fresh)
        assert graph_checksum(graph) == graph_checksum(fresh)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=3, max_value=10),
    nq=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=3),
)
def test_continuous_diffs_replay_to_full_rematch(seed, nd, nq, steps):
    rng = random.Random(seed)
    data = erdos_renyi_graph(nd, nd * 2, num_labels=len(LABELS), seed=seed)
    query = random_connected_graph(
        nq, nq - 1 + rng.randint(0, 2), num_labels=len(LABELS), seed=seed + 1
    )
    matcher = ContinuousMatcher(data)
    matcher.register("q", query)
    for _ in range(steps):
        delta = random_delta(rng, matcher.graph)
        matcher.apply(delta)
        full = {
            tuple(e) for e in GuPEngine(matcher.graph).match(query).embeddings
        }
        assert set(matcher.matches("q")) == full


def random_query(rng, nq, edge_prob):
    """Any labelled simple graph on ``nq`` vertices: possibly
    disconnected, with isolated vertices, or edgeless."""
    b = GraphBuilder()
    b.add_vertices(rng.choice(LABELS[:2]) for _ in range(nq))
    for u in range(nq):
        for v in range(u + 1, nq):
            if rng.random() < edge_prob:
                b.add_edge(u, v)
    return b.build()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=2, max_value=10),
    nq=st.integers(min_value=1, max_value=4),
    edge_prob=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    symmetry=st.booleans(),
    steps=st.integers(min_value=1, max_value=4),
)
def test_anchored_diffs_emit_each_new_match_exactly_once(
    seed, nd, nq, edge_prob, symmetry, steps
):
    """Edge-anchored diffs over arbitrary queries (disconnected, with
    isolated vertices, edgeless) and deltas that add vertices: every
    added embedding is new and appears once, and the composed sets
    equal a full re-match."""
    rng = random.Random(seed)
    data = erdos_renyi_graph(nd, nd, num_labels=2, seed=seed)
    query = random_query(rng, nq, edge_prob)
    matcher = ContinuousMatcher(data, GuPConfig(break_symmetry=symmetry))
    matcher.register("q", query)
    for _ in range(steps):
        cached = set(matcher.matches("q"))
        diff = matcher.apply(random_delta(rng, matcher.graph))["q"]
        assert len(set(diff.added)) == len(diff.added)
        assert cached.isdisjoint(diff.added)
        assert set(diff.removed) <= cached
        full = GuPEngine(matcher.graph).match(query).embedding_set()
        assert set(matcher.matches("q")) == full


def test_empty_delta_edge_case():
    graph = erdos_renyi_graph(6, 8, num_labels=2, seed=5)
    artifacts = DataArtifacts(graph)
    new_graph, summary = apply_delta(graph, GraphDelta())
    assert new_graph == graph
    patched = artifacts.apply_delta(new_graph, summary)
    assert artifact_values(patched) == artifact_values(DataArtifacts(new_graph))
    assert patched.reuse_report["vertices_touched"] == 0
    matcher = ContinuousMatcher(graph)
    query = random_connected_graph(2, 1, num_labels=2, seed=6)
    before = matcher.register("q", query)
    diffs = matcher.apply(GraphDelta())
    assert diffs["q"].is_empty()
    assert matcher.matches("q") == before


def test_delete_last_edges_of_a_labels_only_vertex():
    # Vertex 3 is the only C carrier; the delta removes its every edge,
    # emptying its NLF row and dropping its bucket degree to zero.  The
    # patched artifacts must match a cold rebuild exactly, and a query
    # needing a connected C loses all its matches.
    data = graph_from_adjacency(
        ["A", "B", "A", "C"], [(0, 1), (1, 2), (1, 3), (2, 3)]
    )
    query = graph_from_adjacency(["B", "C"], [(0, 1)])
    artifacts = DataArtifacts(data)
    artifacts.nlf_candidate_masks(query)
    matcher = ContinuousMatcher(data)
    assert matcher.register("bc", query) == [(1, 3)]

    delta = GraphDelta(remove_edges=((1, 3), (2, 3)))
    new_graph, summary = apply_delta(data, delta)
    assert new_graph.degree(3) == 0
    assert new_graph.neighbor_label_frequency(3) == {}
    patched = artifacts.apply_delta(new_graph, summary)
    assert artifact_values(patched) == artifact_values(DataArtifacts(new_graph))
    # The C bucket survives with a zero-degree member, and its LDF mask
    # for any positive degree bound is now empty.
    assert patched.label_buckets["C"] == ((3,), (0,))
    assert patched.ldf_mask("C", 1) == 0

    diffs = matcher.apply(delta)
    assert diffs["bc"].removed == [(1, 3)]
    assert diffs["bc"].added == []
    assert matcher.matches("bc") == []
