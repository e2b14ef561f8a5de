"""Property tests for nogood guards on edges (Definition 3.16).

Mirrors the NV soundness test: every recorded NE guard, materialized
against the embedding at record time, plus its two endpoint
assignments, must be a nogood — no full embedding (from the oracle)
may contain all of those assignments.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.vf2 import Vf2Matcher
from repro.core.backtrack import GuPSearch
from repro.core.config import GuPConfig
from repro.core.gcs import build_gcs
from repro.core.nogood import NogoodStore
from repro.graph.builder import graph_from_adjacency
from repro.graph.generators import erdos_renyi_graph, random_connected_graph

ORACLE = Vf2Matcher()


class EdgeTracingStore(NogoodStore):
    """Records every NE nogood with the embedding context at record time.

    Not the ``search_node`` representation: the search writes that
    store's dicts directly and would bypass ``record_edge_nogood``."""

    representation = "traced"

    def __init__(self):
        super().__init__()
        self.snapshots = []
        self.embedding_ref = None

    def record_edge_nogood(self, i, v, j, v2, dom_mask, anc, embedding):
        assignments = [
            (b, embedding[b])
            for b in range(dom_mask.bit_length())
            if dom_mask >> b & 1
        ]
        self.snapshots.append((i, v, j, v2, tuple(assignments)))
        super().record_edge_nogood(i, v, j, v2, dom_mask, anc, embedding)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nq=st.integers(min_value=3, max_value=6),
    nd=st.integers(min_value=6, max_value=14),
    labels=st.integers(min_value=1, max_value=2),
    extra_q=st.integers(min_value=2, max_value=6),
    edge_factor=st.floats(min_value=0.8, max_value=2.2),
)
def test_recorded_edge_nogoods_are_nogoods(
    seed, nq, nd, labels, extra_q, edge_factor
):
    query = random_connected_graph(
        nq, nq - 1 + extra_q, num_labels=labels, seed=seed
    )
    data = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=labels, seed=seed + 1
    )
    assert_recorded_edge_nogoods_are_nogoods(
        query, data, GuPConfig(ne_two_core_only=False)
    )


def test_ring_query_edge_nogoods_are_nogoods():
    # Past the root each ring vertex watches only the next one, so every
    # guard here is recorded by the child, in place.
    query = graph_from_adjacency(
        [i % 2 for i in range(8)], [(i, (i + 1) % 8) for i in range(8)]
    )
    data = erdos_renyi_graph(60, 90, num_labels=2, seed=0)
    assert assert_recorded_edge_nogoods_are_nogoods(query, data, GuPConfig()) > 0


def assert_recorded_edge_nogoods_are_nogoods(query, data, config):
    """Run the search with a tracing store; every NE record, materialized
    against the embedding at record time, must be a nogood.  Returns the
    number of records checked."""
    gcs = build_gcs(query, data, config)
    store = EdgeTracingStore()
    search = GuPSearch(gcs, config=config, nogoods=store)
    store.embedding_ref = search._embedding
    search.run()

    # Oracle full embeddings in the GCS's (reordered) numbering.
    full = [tuple(e) for e in ORACLE.match(gcs.query, data).embeddings]

    for i, v, j, v2, assignments in store.snapshots:
        # Definition 3.16: NE ∪ {(u_i, v), (u_j, v2)} is a nogood.
        complete = list(assignments) + [(i, v), (j, v2)]
        for emb in full:
            assert not all(emb[q] == w for q, w in complete), (
                f"recorded NE nogood {complete} appears in {emb}"
            )
    return len(store.snapshots)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_edge_guard_counts_are_consistent(seed):
    rng = random.Random(seed)
    nq = rng.randint(3, 6)
    query = random_connected_graph(
        nq, nq - 1 + rng.randint(1, 4), num_labels=2, seed=seed
    )
    data = erdos_renyi_graph(rng.randint(6, 14), rng.randint(8, 24),
                             num_labels=2, seed=seed + 1)
    gcs = build_gcs(query, data)
    search = GuPSearch(gcs)
    search.run()
    store = search._nogoods
    # Recording counters never undercount the stored guards.
    assert store.recorded_edge >= store.num_edge_guards
    assert store.recorded_vertex >= store.num_vertex_guards
    assert search.stats.nogoods_recorded_edge == store.recorded_edge
