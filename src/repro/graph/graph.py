"""Immutable vertex-labeled simple undirected graph.

The :class:`Graph` class is the single graph representation shared by the
query side and the data side of every matcher in this repository.  It is
deliberately simple and read-optimized:

* adjacency is stored as one sorted neighbor-id tuple per vertex, so
  ``neighbors(v)`` hands out the stored row without allocating and a
  delta-applied graph (:mod:`repro.dynamic.delta`) shares every
  untouched row with its source;
* a per-vertex ``frozenset`` mirror of each adjacency list gives O(1)
  ``has_edge`` tests, which backtracking matchers perform constantly;
* a label index maps each label to the sorted tuple of vertices carrying
  it, which is the seed of candidate filtering (LDF);
* per-vertex neighbor label frequency tables back the NLF filter.

Instances are immutable: all mutation happens in
:class:`~repro.graph.builder.GraphBuilder`, which validates input (no
self-loops, no duplicate edges, labels hashable) and then freezes.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)


def label_counts(
    labels: Sequence[object], vertices: Iterable[int]
) -> Dict[object, int]:
    """Label -> how many of ``vertices`` carry it (``labels[v]`` is v's
    label): the NLF table of a vertex whose neighbors are ``vertices``."""
    counts: Dict[object, int] = {}
    for v in vertices:
        label = labels[v]
        counts[label] = counts.get(label, 0) + 1
    return counts


class Graph:
    """A vertex-labeled simple undirected graph.

    Vertices are the integers ``0 .. num_vertices - 1``.  Labels may be any
    hashable value (the paper and the standard datasets use small ints).

    Do not call this constructor with unsanitized input; use
    :class:`~repro.graph.builder.GraphBuilder` instead, which checks all the
    invariants this class assumes (sorted, deduplicated, loop-free
    adjacency).

    Parameters
    ----------
    labels:
        Sequence of per-vertex labels; ``len(labels)`` defines the vertex
        count.
    adjacency:
        Per-vertex sorted sequences of neighbor ids.  Must be symmetric
        (``v in adjacency[u]`` iff ``u in adjacency[v]``) and loop-free.
    """

    __slots__ = (
        "_labels",
        "_rows",
        "_neighbor_sets",
        "_label_index",
        "_num_edges",
        "_nlf",
        "_checksum",
        "_text",
    )

    def __init__(
        self,
        labels: Sequence[object],
        adjacency: Sequence[Sequence[int]],
    ) -> None:
        if len(labels) != len(adjacency):
            raise ValueError(
                "labels and adjacency must have the same length: "
                f"{len(labels)} != {len(adjacency)}"
            )
        rows: List[Tuple[int, ...]] = []
        neighbor_sets: List[FrozenSet[int]] = []
        half_edges = 0
        for u, nbrs in enumerate(adjacency):
            row = tuple(sorted(nbrs))
            nbr_set = frozenset(row)
            if len(nbr_set) != len(row):
                raise ValueError(f"duplicate neighbor in adjacency of vertex {u}")
            if u in nbr_set:
                raise ValueError(f"self-loop at vertex {u}")
            rows.append(row)
            neighbor_sets.append(nbr_set)
            half_edges += len(row)
        if half_edges % 2 != 0:
            raise ValueError("adjacency is not symmetric (odd half-edge count)")
        labels = tuple(labels)
        label_index: Dict[object, List[int]] = {}
        for v, label in enumerate(labels):
            label_index.setdefault(label, []).append(v)
        self._assign(
            labels,
            tuple(rows),
            tuple(neighbor_sets),
            {label: tuple(vs) for label, vs in label_index.items()},
            half_edges // 2,
            [],
        )

    def _assign(
        self,
        labels: Tuple[object, ...],
        rows: Tuple[Tuple[int, ...], ...],
        neighbor_sets: Tuple[FrozenSet[int], ...],
        label_index: Dict[object, Tuple[int, ...]],
        num_edges: int,
        nlf: List[Dict[object, int]],
    ) -> None:
        self._labels = labels
        self._rows = rows
        self._neighbor_sets = neighbor_sets
        self._label_index = label_index
        self._num_edges = num_edges
        # Neighbor label frequency (NLF) tables, computed lazily.
        self._nlf = nlf
        # Content checksum, computed lazily by repro.graph.io.graph_checksum
        # (instances are immutable, so one hash serves every caller).
        self._checksum: Optional[str] = None
        # Per-vertex ``.graph`` text blocks, built lazily by
        # repro.graph.io and patched across deltas like ``_nlf``.
        self._text: Optional[Tuple[List[str], List[str]]] = None

    @classmethod
    def _from_sorted_rows(
        cls,
        labels: Tuple[object, ...],
        rows: Tuple[Tuple[int, ...], ...],
        neighbor_sets: Tuple[FrozenSet[int], ...],
        label_index: Dict[object, Tuple[int, ...]],
        num_edges: int,
        nlf: Optional[List[Dict[object, int]]] = None,
    ) -> "Graph":
        """Assemble a graph from already-validated parts, copying nothing.

        The delta-application path (:mod:`repro.dynamic.delta`) passes
        row and neighbor-set tuples whose untouched entries are the
        *same objects* as the source graph's, and the source's labels
        tuple and label index when no vertex was added, so this
        constructor performs no per-row sorting, deduplication, loop
        checks or counting.  Callers guarantee every row is sorted,
        loop-free and symmetric, and that ``label_index`` and
        ``num_edges`` agree with ``labels`` and ``rows``.  ``nlf``, when
        given, installs a prebuilt neighbor-label-frequency cache (all
        rows or none).
        """
        graph = cls.__new__(cls)
        graph._assign(
            labels, rows, neighbor_sets, label_index, num_edges,
            nlf if nlf is not None else [],
        )
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    @property
    def labels(self) -> Tuple[object, ...]:
        """Per-vertex label tuple."""
        return self._labels

    def label(self, v: int) -> object:
        """Label of vertex ``v``."""
        return self._labels[v]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self._rows[v])

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted tuple of neighbors of ``v`` (the stored row itself)."""
        return self._rows[v]

    def neighbor_set(self, v: int) -> FrozenSet[int]:
        """Frozen set of neighbors of ``v`` (O(1) membership)."""
        return self._neighbor_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists."""
        return v in self._neighbor_sets[u]

    def vertices(self) -> range:
        """Iterable over all vertex ids."""
        return range(len(self._labels))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` pairs with ``u < v``."""
        for u in range(len(self._labels)):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Label machinery
    # ------------------------------------------------------------------

    @property
    def label_set(self) -> FrozenSet[object]:
        """The set of labels present in the graph."""
        return frozenset(self._label_index)

    def vertices_with_label(self, label: object) -> Tuple[int, ...]:
        """Sorted tuple of vertices carrying ``label`` (empty if absent)."""
        return self._label_index.get(label, ())

    def neighbor_label_frequency(self, v: int) -> Dict[object, int]:
        """NLF table of ``v``: label -> number of neighbors with that label.

        Used by :func:`repro.filtering.nlf.nlf_candidates`.  Computed once
        per graph on first access and cached.
        """
        if not self._nlf:
            self._nlf = [label_counts(self._labels, row) for row in self._rows]
        return self._nlf[v]

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Subgraph induced by ``vertices``.

        Returns the new graph and the mapping from old vertex ids to new
        (contiguous) vertex ids.  Vertices keep their labels; only edges
        with both endpoints in ``vertices`` survive.
        """
        kept = sorted(set(vertices))
        old_to_new = {old: new for new, old in enumerate(kept)}
        labels = [self._labels[old] for old in kept]
        adjacency: List[List[int]] = [[] for _ in kept]
        for old in kept:
            new = old_to_new[old]
            for w in self.neighbors(old):
                if w in old_to_new:
                    adjacency[new].append(old_to_new[w])
        return Graph(labels, adjacency), old_to_new

    def relabeled(self, permutation: Sequence[int]) -> "Graph":
        """Renumber vertices so that new id ``i`` is old id ``permutation[i]``.

        ``permutation`` must be a permutation of ``range(num_vertices)``.
        Matching orders are applied to query graphs through this method
        (the paper assumes the matching order *is* ascending vertex id,
        §2.2).
        """
        n = self.num_vertices
        if sorted(permutation) != list(range(n)):
            raise ValueError("permutation must be a permutation of all vertex ids")
        old_to_new = [0] * n
        for new, old in enumerate(permutation):
            old_to_new[old] = new
        labels = [self._labels[old] for old in permutation]
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for new, old in enumerate(permutation):
            adjacency[new] = [old_to_new[w] for w in self.neighbors(old)]
        return Graph(labels, adjacency)

    def degree_sequence(self) -> List[int]:
        """List of vertex degrees indexed by vertex id."""
        return [self.degree(v) for v in range(self.num_vertices)]

    def average_degree(self) -> float:
        """Average degree (``2 |E| / |V|``); 0.0 for the empty graph."""
        if self.num_vertices == 0:
            return 0.0
        return 2.0 * self._num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._labels, self._rows))

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges}, "
            f"num_labels={len(self._label_index)})"
        )
