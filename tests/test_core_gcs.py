"""Unit tests for GCS construction (§3.1)."""

import pytest

from repro.core.config import GuPConfig
from repro.core.gcs import build_gcs
from repro.graph.builder import GraphBuilder
from repro.ordering.base import is_connected_order
from tests.conftest import make_random_pair


class TestBuildGcs:
    def test_order_is_connected(self, rng):
        for _ in range(10):
            q, d = make_random_pair(rng)
            gcs = build_gcs(q, d)
            assert sorted(gcs.order) == list(q.vertices())
            assert is_connected_order(q, gcs.order)
            # The reordered query under the identity order is connected.
            assert is_connected_order(gcs.query, list(q.vertices()))

    def test_reordered_query_preserves_structure(self, rng):
        q, d = make_random_pair(rng)
        gcs = build_gcs(q, d)
        assert gcs.query.num_edges == q.num_edges
        for new_u, new_v in gcs.query.edges():
            assert q.has_edge(gcs.order[new_u], gcs.order[new_v])

    def test_to_original_embedding(self, rng):
        q, d = make_random_pair(rng)
        gcs = build_gcs(q, d)
        reordered_embedding = tuple(range(q.num_vertices))
        original = gcs.to_original_embedding(reordered_embedding)
        for position, v in enumerate(reordered_embedding):
            assert original[gcs.order[position]] == v

    def test_reservations_generated_by_default(self, paper_query, paper_data):
        gcs = build_gcs(paper_query, paper_data)
        assert gcs.reservations
        for i in gcs.query.vertices():
            for v in gcs.cs.candidates[i]:
                assert gcs.reservation(i, v)

    def test_reservations_skipped_when_disabled(self, paper_query, paper_data):
        gcs = build_gcs(paper_query, paper_data, GuPConfig.baseline())
        assert gcs.reservations == []
        # Fallback accessor still answers with the trivial reservation.
        i = 0
        v = gcs.cs.candidates[0][0]
        assert gcs.reservation(i, v) == frozenset({v})

    def test_two_core_restriction(self):
        # Tadpole query: triangle + tail; NE guards only on the triangle.
        qb = GraphBuilder()
        qb.add_vertices("AAAAA")
        qb.add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        q = qb.build()
        db = GraphBuilder()
        db.add_vertices("AAAAAA")
        db.add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
        d = db.build()
        gcs = build_gcs(q, d)
        core_edges = {e for e in gcs.query.edges() if gcs.edge_in_two_core(*e)}
        assert len(core_edges) == 3
        gcs_all = build_gcs(q, d, GuPConfig(ne_two_core_only=False))
        assert len(gcs_all.two_core) == q.num_edges

    def test_memory_estimate_keys(self, paper_query, paper_data):
        gcs = build_gcs(paper_query, paper_data)
        est = gcs.memory_estimate()
        assert set(est) == {
            "candidate_space",
            "reservation",
            "nogood_vertices",
            "nogood_edges",
        }
        assert est["candidate_space"] > 0
        assert est["reservation"] > 0

    def test_build_seconds_recorded(self, paper_query, paper_data):
        gcs = build_gcs(paper_query, paper_data)
        assert gcs.build_seconds >= 0.0
