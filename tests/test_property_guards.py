"""Property-based tests (hypothesis) for the guard machinery.

Two deep invariants:

* **Completeness under guards** — for arbitrary (query, data) pairs,
  GuP with all guards finds exactly the oracle's embeddings (guards
  prune only deadends).
* **Recorded nogoods are nogoods** — every NV guard recorded during a
  run names an assignment set that no full embedding extends
  (Definition 3.14, checked against the oracle's full embedding list).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.vf2 import Vf2Matcher
from repro.core.backtrack import GuPSearch
from repro.core.nogood import NogoodStore
from repro.core.config import GuPConfig
from repro.core.engine import match
from repro.core.gcs import build_gcs
from repro.graph.builder import graph_from_adjacency
from repro.graph.generators import erdos_renyi_graph, random_connected_graph

ORACLE = Vf2Matcher()


def _instance(seed, nq, nd, labels, extra_q, edge_factor):
    query = random_connected_graph(
        nq, nq - 1 + extra_q, num_labels=labels, seed=seed
    )
    data = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=labels, seed=seed + 1
    )
    return query, data


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nq=st.integers(min_value=2, max_value=6),
    nd=st.integers(min_value=3, max_value=14),
    labels=st.integers(min_value=1, max_value=3),
    extra_q=st.integers(min_value=0, max_value=5),
    edge_factor=st.floats(min_value=0.0, max_value=2.5),
)
def test_guarded_search_is_complete(seed, nq, nd, labels, extra_q, edge_factor):
    query, data = _instance(seed, nq, nd, labels, extra_q, edge_factor)
    expected = ORACLE.match(query, data).embedding_set()
    got = match(query, data, config=GuPConfig.full()).embedding_set()
    assert got == expected


class TracingStore(NogoodStore):
    """Records every NV nogood with the embedding prefix at record time
    (the assignments the guard's dom mask refers to).

    Not the ``search_node`` representation: the search writes that
    store's dicts directly and would bypass ``record_vertex``."""

    representation = "traced"

    def __init__(self):
        super().__init__()
        self.snapshots = []
        self.embedding_ref = None

    def record_vertex(self, i, v, guard):
        self.snapshots.append((i, v, guard, tuple(self.embedding_ref)))
        super().record_vertex(i, v, guard)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nq=st.integers(min_value=3, max_value=6),
    nd=st.integers(min_value=6, max_value=14),
    labels=st.integers(min_value=1, max_value=2),
    extra_q=st.integers(min_value=1, max_value=5),
    edge_factor=st.floats(min_value=0.5, max_value=2.0),
)
def test_recorded_vertex_nogoods_are_nogoods(
    seed, nq, nd, labels, extra_q, edge_factor
):
    query, data = _instance(seed, nq, nd, labels, extra_q, edge_factor)
    assert_recorded_vertex_nogoods_are_nogoods(query, data)


def test_ring_query_vertex_nogoods_are_nogoods():
    query = graph_from_adjacency(
        [i % 2 for i in range(8)], [(i, (i + 1) % 8) for i in range(8)]
    )
    data = erdos_renyi_graph(60, 90, num_labels=2, seed=0)
    assert assert_recorded_vertex_nogoods_are_nogoods(query, data) > 0


def assert_recorded_vertex_nogoods_are_nogoods(query, data):
    """Run the search with a tracing store; every NV record, materialized
    against the embedding prefix at record time, must be a nogood.
    Returns the number of records checked."""
    gcs = build_gcs(query, data)
    store = TracingStore()
    search = GuPSearch(gcs, nogoods=store)
    store.embedding_ref = search._embedding
    search.run()

    # Oracle ground truth: set of full embeddings (reordered numbering).
    full_set = [tuple(e) for e in ORACLE.match(gcs.query, data).embeddings]

    for i, v, guard, prefix in store.snapshots:
        _node, length, dom = guard
        # The nogood D = prefix[dom bits] plus the attachment (u_i, v).
        assignments = [(b, prefix[b]) for b in range(len(prefix)) if dom >> b & 1]
        assignments.append((i, v))
        for emb in full_set:
            contains = all(emb[u] == w for u, w in assignments)
            assert not contains, (
                f"recorded NV nogood {assignments} appears in full "
                f"embedding {emb}"
            )
    return len(store.snapshots)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    r=st.sampled_from([0, 1, 2, 3, 5, None]),
)
def test_reservation_limit_never_changes_results(seed, r):
    rng = random.Random(seed)
    query, data = _instance(seed, rng.randint(3, 6), rng.randint(6, 14), 2, 3, 1.5)
    expected = ORACLE.match(query, data).embedding_set()
    got = match(
        query, data, config=GuPConfig(reservation_limit=r)
    ).embedding_set()
    assert got == expected
