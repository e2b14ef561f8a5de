"""Candidate filtering and the candidate space.

Backtracking matchers never search the raw data graph: they search a
*candidate space* (CS) [14] — per-query-vertex candidate sets plus the
candidate edges between them.  This package implements the filters the
paper builds on (§2.1, §3.1):

* :func:`~repro.filtering.ldf.ldf_candidates` — label-and-degree filter
  (Ullmann).
* :func:`~repro.filtering.nlf.nlf_candidates` — neighborhood label
  frequency filter.
* :mod:`~repro.filtering.dag` — query DAG construction (BFS from a
  selectivity-chosen root).
* :func:`~repro.filtering.dagdp.dag_graph_dp` — extended DAG-graph DP
  (VEQ [20]): alternating top-down/bottom-up refinement to a fixpoint.
* :func:`~repro.filtering.gql_filter.gql_candidates` — GraphQL's
  pseudo-matching refinement (local bipartite semi-perfect matching).
* :class:`~repro.filtering.candidate_space.CandidateSpace` — the frozen
  result: candidate sets, candidate edges, and inverse index, shared by
  GuP and every baseline.
* :mod:`~repro.filtering.masks` — the dense mask-domain twin of the
  whole pipeline (DESIGN.md §8): candidate sets as data-vertex-id int
  bitmaps, worklist DAG-DP, mask-native CS materialization.  GuP's
  only production builder; decodes byte-identically to the set pipeline.
"""

from repro.filtering.candidate_space import CandidateSpace, build_candidate_space
from repro.filtering.dag import QueryDag, build_query_dag
from repro.filtering.dagdp import dag_graph_dp
from repro.filtering.gql_filter import gql_candidates
from repro.filtering.ldf import ldf_candidates
from repro.filtering.masks import build_candidate_space_masks, dag_graph_dp_masks
from repro.filtering.nlf import nlf_candidates
from repro.filtering.nlf2 import nlf2_candidates

__all__ = [
    "CandidateSpace",
    "QueryDag",
    "build_candidate_space",
    "build_candidate_space_masks",
    "build_query_dag",
    "dag_graph_dp",
    "dag_graph_dp_masks",
    "gql_candidates",
    "ldf_candidates",
    "nlf2_candidates",
    "nlf_candidates",
]
