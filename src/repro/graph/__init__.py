"""Vertex-labeled undirected graph substrate.

This package provides the graph data structures and algorithms that every
matcher in :mod:`repro` is built on:

* :class:`~repro.graph.graph.Graph` — an immutable vertex-labeled simple
  undirected graph with one sorted adjacency tuple per vertex,
  constant-time neighbor tests, and a label index.
* :class:`~repro.graph.builder.GraphBuilder` — a mutable accumulator that
  validates and deduplicates input before freezing it into a ``Graph``.
* :mod:`~repro.graph.io` — readers/writers for the ``.graph`` text format
  used by the subgraph-matching literature, plus edge-list formats.
* :mod:`~repro.graph.algorithms` — k-core decomposition (GuP restricts
  nogood guards on edges to the query 2-core), connected components, BFS,
  and degeneracy ordering.
* :mod:`~repro.graph.generators` — seeded random graph generators used by
  the synthetic workloads.
"""

from repro.graph.algorithms import (
    bfs_levels,
    bfs_order,
    connected_components,
    core_numbers,
    degeneracy_order,
    is_connected,
    k_core_vertices,
    two_core_edges,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    random_connected_graph,
    random_labels,
    random_tree,
)
from repro.graph.graph import Graph
from repro.graph.io import (
    graph_from_edge_list,
    load_graph,
    loads_graph,
    save_graph,
    saves_graph,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "bfs_levels",
    "bfs_order",
    "connected_components",
    "core_numbers",
    "degeneracy_order",
    "erdos_renyi_graph",
    "graph_from_edge_list",
    "is_connected",
    "k_core_vertices",
    "load_graph",
    "loads_graph",
    "powerlaw_cluster_graph",
    "random_connected_graph",
    "random_labels",
    "random_tree",
    "save_graph",
    "saves_graph",
    "two_core_edges",
]
