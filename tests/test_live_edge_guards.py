"""Edge nogoods are stored only where they can still fire.

With the search-node store (§3.5.1) an edge guard recorded at depth
``i`` whose encoded length is ``i`` names the depth-``i`` node itself.
That node tries each candidate once and is past this one when the guard
is written, so the guard can never match.  Every guard recorded at the
root is of this kind.  The production search skips them, pushes no root
watch frames, and resolves the watches on the next query vertex in the
child.  None of that may change the search: against the oracle, which
records every guard, everything but the recorded count is identical,
and the count drops by exactly the oracle's dead records.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backtrack import GuPSearch
from repro.core.backtrack_ref import ListGuPSearch
from repro.core.gcs import build_gcs
from repro.graph.builder import graph_from_adjacency
from repro.graph.generators import erdos_renyi_graph, random_connected_graph
from repro.matching.result import TerminationStatus
from tests.oracle_engines import assert_twin_stats


def run_twins(query, data, **kwargs):
    """Production and oracle searches on two builds of the same GCS."""
    production = GuPSearch(build_gcs(query, data), **kwargs)
    oracle = ListGuPSearch(build_gcs(query, data), **kwargs)
    emb, status = production.run()
    oracle_emb, oracle_status = oracle.run()
    assert emb == oracle_emb
    assert status == oracle_status
    assert_twin_stats(
        production.stats, oracle.stats, oracle.dead_edge_records, status
    )
    return production, oracle, status


def assert_no_dead_guards(search):
    for (i, _v, _j), per_v2 in search._nogoods._edge.items():
        assert i != 0, "edge guard keyed on a root candidate"
        for _node, length, _dom in per_v2.values():
            assert length != i, "edge guard names its own recording node"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nq=st.integers(min_value=3, max_value=8),
    extra_q=st.integers(min_value=0, max_value=5),
    nd=st.integers(min_value=8, max_value=30),
    edge_factor=st.floats(min_value=1.0, max_value=3.0),
    labels=st.integers(min_value=1, max_value=2),
)
def test_complete_runs_store_no_dead_guard(
    seed, nq, extra_q, nd, edge_factor, labels
):
    query = random_connected_graph(
        nq, nq - 1 + extra_q, num_labels=labels, seed=seed
    )
    data = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=labels, seed=seed + 1
    )
    production, _oracle, status = run_twins(query, data)
    assert status == TerminationStatus.COMPLETE
    assert_no_dead_guards(production)


def ring(n, labels):
    return graph_from_adjacency(
        [i % labels for i in range(n)], [(i, (i + 1) % n) for i in range(n)]
    )


def test_ring_query_records_only_live_guards():
    # The hardest engine_bypass base is a 14-cycle: past the root, each
    # query vertex's only forward 2-core neighbour is the next one, so
    # all its watches are resolved in place by the child.
    data = erdos_renyi_graph(60, 90, num_labels=2, seed=0)
    production, oracle, status = run_twins(ring(8, 2), data)
    assert status == TerminationStatus.COMPLETE
    forward_core = [sorted(f) for f in production._forward_core]
    assert forward_core[0] == [1, 7]
    assert forward_core[1:] == [[i + 1] for i in range(1, 7)] + [[]]
    assert oracle.dead_edge_records > 0
    assert production.stats.nogoods_recorded_edge > 0
    assert production.stats.pruned_nogood_edge > 0
    assert_no_dead_guards(production)
