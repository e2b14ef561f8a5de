"""Differential proof: the bitmap GCS builder is byte-identical to the seed.

The dense mask-domain build pipeline (:mod:`repro.filtering.masks`, the
only production builder) and the seed set/dict pipeline kept as a test
oracle (:func:`repro.core.backtrack_ref.build_gcs_set`) must produce the
*same* guarded candidate space — candidate
lists, candidate-edge lists and bitmaps, reservations, two-core — and
hence identical embeddings, statistics, and termination status.  This
is what licenses ``benchmarks/bench_buildpath.py`` to compare their
wall clocks as the same construction on two representations.

Covered here:

* a (filter x ordering x reservation-limit x guard-config) grid on
  random instances;
* a Hypothesis differential for ``dag_graph_dp`` vs its mask twin —
  same fixpoint, *including* ``max_rounds``-truncated (pre-fixpoint)
  runs;
* fig6-style workload identity on a scaled wordnet;
* the engine's :class:`~repro.core.gcs.BuildInvariantCache`: zero
  recomputes (order, DAG, two-core) on warm repeats, including through
  the service catalog's warm-engine path.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backtrack_ref import ReferenceEngine, build_gcs_set
from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.core.gcs import build_gcs
from repro.filtering.artifacts import DataArtifacts
from repro.filtering.dagdp import dag_graph_dp
from repro.filtering.masks import MaskView, dag_graph_dp_masks
from repro.filtering.nlf import nlf_candidates
from repro.graph.generators import erdos_renyi_graph, random_connected_graph
from repro.matching.limits import SearchLimits
from repro.utils.bitset import bits_of
from tests.oracle_engines import ENGINES


def _instances(seed, count, max_q=7, max_d=24, max_labels=3):
    rng = random.Random(seed)
    for _ in range(count):
        nq = rng.randint(2, max_q)
        nd = rng.randint(5, max_d)
        labels = rng.randint(1, max_labels)
        query = random_connected_graph(
            nq, nq - 1 + rng.randint(0, 5), num_labels=labels,
            seed=rng.randint(0, 10**9),
        )
        data = erdos_renyi_graph(
            nd, rng.randint(nd, nd * 3), num_labels=labels,
            seed=rng.randint(0, 10**9),
        )
        yield query, data


def assert_gcs_identical(query, data, config):
    """Both builders, full structural comparison down to the bitmaps.

    Candidate edges and the inverse index are compared through the
    accessors, over every ordered query-edge direction and every
    candidate, so the mask-built CS's lazily derived structures are
    held to the same bar as the set builder's eager ones.
    """
    bitmap = build_gcs(query, data, config)
    listed = build_gcs_set(query, data, config)
    assert bitmap.order == listed.order
    assert bitmap.query == listed.query
    b, s = bitmap.cs, listed.cs
    assert b.candidates == s.candidates
    assert b.candidate_sets == s.candidate_sets
    assert b.positions == s.positions
    for i, j in bitmap.query.edges():
        for a, c in ((i, j), (j, i)):
            table = b.edge_bitmap_map(a, c)
            assert table == s.edge_bitmap_map(a, c)
            assert set(table) <= set(s.candidates[a])
            for v in s.candidates[a]:
                assert b.edge_bitmap(a, v, c) == s.edge_bitmap(a, v, c)
                assert b.adjacent_candidates(a, v, c) == (
                    s.adjacent_candidates(a, v, c)
                )
    assert b.num_candidate_edges == s.num_candidate_edges
    for v in data.vertices():
        assert b.inverse_candidates(v) == s.inverse_candidates(v)
    assert bitmap.reservations == listed.reservations
    assert bitmap.two_core == listed.two_core
    # The mask-built CS additionally carries the inverse bitmasks.
    assert b.inverse_masks is not None
    assert s.inverse_masks is None
    assert set(b.inverse_masks) == {v for c in s.candidates for v in c}
    for v, m in b.inverse_masks.items():
        assert tuple(bits_of(m)) == s.inverse_candidates(v)


def assert_match_identical(query, data, config, limits=None, search="bitmap"):
    """Both builders under the same ``search`` twin."""
    bitmap = ENGINES["bitmap", search](data, config).match(query, limits=limits)
    listed = ENGINES["set", search](data, config).match(query, limits=limits)
    assert bitmap.embeddings == listed.embeddings
    assert bitmap.num_embeddings == listed.num_embeddings
    assert bitmap.status == listed.status
    assert dataclasses.asdict(bitmap.stats) == dataclasses.asdict(listed.stats)


@pytest.mark.parametrize("method", ["ldf", "nlf", "nlf2", "dagdp", "gql"])
def test_filter_methods_identical(method):
    for query, data in _instances(seed=hash(method) % 1000, count=6):
        assert_gcs_identical(query, data, GuPConfig(filter_method=method))


@pytest.mark.parametrize("ordering", ["vc", "gql", "ri"])
def test_orderings_identical(ordering):
    """MaskView-fed orderings pick the same orders as list-fed ones."""
    for query, data in _instances(seed=len(ordering) * 31, count=6):
        assert_gcs_identical(query, data, GuPConfig(ordering=ordering))


@pytest.mark.parametrize("limit", [0, 1, 2, 3, None])
def test_reservation_limits_identical(limit):
    """Incl. r=None (unbounded): covers > 3 take the matching fallback."""
    for query, data in _instances(seed=(limit or 99) * 7, count=6):
        assert_gcs_identical(
            query, data, GuPConfig(reservation_limit=limit)
        )


def test_guard_configs_and_search_identical():
    """Final results across guard ablations, caps, both search twins."""
    rng = random.Random(20260730)
    for t, (query, data) in enumerate(_instances(seed=5150, count=24, max_q=8)):
        config = GuPConfig(
            use_reservation=t % 2 == 0,
            use_nogood_vertex=t % 3 != 0,
            use_nogood_edge=t % 4 != 0,
            use_backjumping=t % 2 == 1,
            ne_two_core_only=t % 5 != 0,
            break_symmetry=(t % 7 == 0),
        )
        limits = SearchLimits(
            max_embeddings=rng.choice([None, 1, 5, 50]),
            max_recursions=rng.choice([None, 25, 400]),
        )
        assert_match_identical(
            query, data, config, limits=limits,
            search="list" if t % 6 == 0 else "bitmap",
        )


def test_empty_and_degenerate_queries():
    from repro.graph.graph import Graph

    data = erdos_renyi_graph(10, 15, num_labels=2, seed=3)
    single = Graph([data.label(0)], [[]])
    assert_gcs_identical(single, data, GuPConfig())
    empty_data = Graph([], [])
    assert_match_identical(single, empty_data, GuPConfig())


def test_benchmark_workload_identical():
    """Fig6-style wordnet workload, caps hitting mid-search."""
    from repro.workload.datasets import load_dataset
    from repro.workload.querygen import QuerySetSpec, generate_query_set

    data = load_dataset("wordnet", scale=0.2, seed=7)
    queries = generate_query_set(
        data, QuerySetSpec(8, "sparse"), count=3, seed=11
    )
    limits = SearchLimits(max_embeddings=500, max_recursions=4000)
    for query in queries:
        assert_gcs_identical(query, data, GuPConfig())
        assert_match_identical(query, data, GuPConfig(), limits=limits)


# ----------------------------------------------------------------------
# Forward-only candidate-edge tables stay forward-only
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["workers=1", "workers=2", "analyze"])
def test_match_reads_only_forward_tables(mode, monkeypatch):
    """GuP's build, search, procpool and EXPLAIN read only the forward
    ``(i < j)`` bitmap tables of a mask-built CS; a consumer that
    derives the reverse tables, the tuple lists, the candidate sets or
    the inverse tuples would show up here."""
    from repro.workload.datasets import load_dataset
    from repro.workload.querygen import generate_query

    data = load_dataset("wordnet", scale=0.1, seed=11)
    query = generate_query(data, 6, "sparse", seed=11)
    engine = GuPEngine(data)
    built = []
    real_build = engine.build

    def spy(*args, **kwargs):
        gcs = real_build(*args, **kwargs)
        built.append(gcs)
        return gcs

    monkeypatch.setattr(engine, "build", spy)
    if mode == "analyze":
        _, result = engine.explain(query, mode="analyze")
    else:
        result = engine.match(query, workers=int(mode[-1]))
    assert result.num_embeddings > 0
    (gcs,) = built
    cs = gcs.cs
    assert len(cs.candidates[0]) > 1  # workers=2 really partitions
    assert set(cs._edge_bitmaps) == set(gcs.query.edges())
    assert cs._edge_lists == {}
    assert cs._candidate_sets is None
    assert cs._inverse is None


# ----------------------------------------------------------------------
# Satellite: Hypothesis differential for the DAG-DP worklist
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    max_rounds=st.integers(min_value=1, max_value=4),
)
def test_dagdp_masks_reach_same_fixpoint(seed, max_rounds):
    """Set vs. bitmap DAG-graph DP on random pairs, incl. truncated runs.

    ``max_rounds=1`` almost always stops *before* the fixpoint, so this
    pins the sweep schedule itself (the worklist skip must be a no-op),
    not just the limit behavior.
    """
    rng = random.Random(seed)
    nq = rng.randint(2, 7)
    nd = rng.randint(5, 20)
    labels = rng.randint(1, 3)
    query = random_connected_graph(
        nq, nq - 1 + rng.randint(0, 5), num_labels=labels,
        seed=rng.randint(0, 10**9),
    )
    data = erdos_renyi_graph(
        nd, rng.randint(nd, nd * 3), num_labels=labels,
        seed=rng.randint(0, 10**9),
    )
    artifacts = DataArtifacts(data)
    base_masks = artifacts.nlf_candidate_masks(query)
    base_lists = nlf_candidates(query, data)
    assert [bits_of(m) for m in base_masks] == base_lists

    got = dag_graph_dp_masks(
        query, artifacts.adjacency_bitmaps, base_masks, max_rounds=max_rounds
    )
    want = dag_graph_dp(query, data, base=base_lists, max_rounds=max_rounds)
    assert [bits_of(m) for m in got] == want


# ----------------------------------------------------------------------
# Satellite: build-invariant memoization
# ----------------------------------------------------------------------


class TestBuildInvariantCache:
    def test_warm_repeat_recomputes_nothing(self):
        rng = random.Random(42)
        query, data = next(_instances(seed=8, count=1))
        for engine_cls in (GuPEngine, ReferenceEngine):
            engine = engine_cls(data)
            first = engine.build(query)
            after_first = engine.invariants.recomputes
            assert after_first > 0
            hits_before = engine.invariants.hits
            again = engine.build(query)
            assert engine.invariants.recomputes == after_first
            assert engine.invariants.hits > hits_before
            assert again.cs.candidates == first.cs.candidates
            assert again.reservations == first.reservations
            assert again.two_core == first.two_core

    def test_distinct_queries_recompute(self):
        (q1, data), (q2, _) = list(_instances(seed=77, count=2, max_d=12))
        engine = GuPEngine(data)
        engine.build(q1)
        n = engine.invariants.recomputes
        engine.build(q2)
        assert engine.invariants.recomputes > n

    def test_match_and_results_unaffected(self):
        query, data = next(_instances(seed=31, count=1))
        engine = GuPEngine(data)
        a = engine.match(query)
        b = engine.match(query)  # warm: order/DAG/two-core all cached
        assert a.embeddings == b.embeddings
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)

    def test_mask_view_is_a_faithful_sequence(self):
        view = MaskView(0b1010010)
        assert len(view) == 3
        assert list(view) == [1, 4, 6]
        assert view[1] == 4
        assert 4 in view and 0 not in view and -1 not in view

    def test_service_warm_path_zero_recomputes(self, tmp_path):
        """Catalog-resident engines do zero invariant recomputes on the
        warm path — the service-side claim of the satellite task."""
        from repro.service.catalog import GraphCatalog

        query, data = next(_instances(seed=13, count=1, max_d=20))
        catalog = GraphCatalog(tmp_path / "cat")
        catalog.add("g", data)
        engine = catalog.engine("g")
        cold = engine.match(query, limits=SearchLimits(max_embeddings=100))
        warm_baseline = engine.invariants.recomputes
        assert warm_baseline > 0
        warm = engine.match(query, limits=SearchLimits(max_embeddings=100))
        assert engine.invariants.recomputes == warm_baseline, (
            "warm service path must not recompute build invariants"
        )
        assert warm.embeddings == cold.embeddings
