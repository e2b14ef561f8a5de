"""Continuous subgraph matching over a stream of graph deltas.

A :class:`ContinuousMatcher` owns one evolving data graph and a set of
*standing queries* whose complete embedding sets it keeps materialized.
Each :meth:`~ContinuousMatcher.apply` call applies one
:class:`~repro.dynamic.delta.GraphDelta` and returns, per standing
query, the **exact** embedding diff — never by re-matching from
scratch, and never re-finding an old match:

* **Retractions** can only be caused by removed edges (vertices are
  never removed and labels never change), so a cached embedding is
  retracted iff it maps some query edge onto a removed data edge.  Only
  embeddings whose image meets a removed-edge endpoint are checked edge
  by edge.
* **New matches** are enumerated edge-anchored, the standard scheme of
  continuous matching (TurboFlux, Kim et al., SIGMOD 2018; RapidFlow,
  Sun et al., PVLDB 2022).  A match of the new graph that maps no query
  edge onto an added edge and no query vertex onto an added vertex used
  only old vertices and edges, so it was already a match.  The
  *anchors* are the query edges ``e_0 .. e_{m-1}`` followed by the
  isolated query vertices (a non-isolated vertex on an added vertex
  already uses an added edge).  Anchor ``e_k = (u, w)`` is pinned onto
  each added edge ``(a, b)`` in both orientations that pass the NLF
  masks of ``u`` and ``w``: ``C(u) = {a}``, ``C(w) = {b}``, and every
  other query vertex ``x`` gets
  ``NLF(x) ∩ ball(a, d_q(u, x)) ∩ ball(b, d_q(w, x))`` — exact, because
  a query path of length ``d`` maps onto a data walk of length ``d`` (a
  vertex ``u`` cannot reach gets no restriction from ``a``).
  The production :func:`~repro.core.gcs.build_gcs` (``seed_masks``)
  and search then enumerate the pinned matches, and a match is emitted
  only under its *first* anchor: no earlier query edge on an added
  edge, no earlier isolated vertex on an added vertex.  Every emitted
  match is therefore new, and emitted exactly once — no set union, no
  subtraction of the cached set.

The anchored searches run without symmetry breaking: a pinned anchor
breaks the one-representative-per-automorphism-class assumption.  The
seeded builds bypass the engine's :class:`~repro.core.gcs.BuildInvariantCache`:
their keys carry per-delta masks that never hit again and would only
evict the live queries' entries.

The invariant ``old_matches - retracted + added == full re-match`` is
proved differentially by ``tests/test_dynamic.py`` and fuzzed by
``tests/test_property_dynamic.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.core.gcs import build_gcs
from repro.dynamic.delta import DeltaSummary, GraphDelta, apply_delta
from repro.graph.algorithms import bfs_levels
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import TerminationStatus
from repro.utils.bitset import iter_bits


@dataclass
class EmbeddingDiff:
    """Exact embedding-set change of one standing query for one delta."""

    added: List[Tuple[int, ...]] = field(default_factory=list)
    removed: List[Tuple[int, ...]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.added or self.removed)


class ContinuousError(RuntimeError):
    """A standing query could not be (re)matched exactly."""


def _maps_edge_into(
    embedding: Tuple[int, ...],
    query_edges: Sequence[Tuple[int, int]],
    edges: Set[Tuple[int, int]],
) -> bool:
    """Whether ``embedding`` maps some query edge onto one of ``edges``
    (normalized ``(min, max)`` data edges)."""
    for i, j in query_edges:
        a, b = embedding[i], embedding[j]
        if ((a, b) if a < b else (b, a)) in edges:
            return True
    return False


def retracted_matches(
    query: Graph,
    cached: Set[Tuple[int, ...]],
    summary: DeltaSummary,
) -> List[Tuple[int, ...]]:
    """Cached embeddings invalidated by the delta's removed edges."""
    if not summary.removed_edges:
        return []
    removed = set(summary.removed_edges)
    touched = {w for edge in removed for w in edge}
    query_edges = list(query.edges())
    return [
        embedding
        for embedding in filterfalse(touched.isdisjoint, cached)
        if _maps_edge_into(embedding, query_edges, removed)
    ]


def _ball(
    adjacency: Sequence[int], balls: Dict[int, List[int]], v: int, radius: int
) -> int:
    """Mask of the data vertices within ``radius`` hops of ``v``.

    ``balls[v]`` memoizes the nested balls grown so far (index = radius).
    """
    grown = balls.get(v)
    if grown is None:
        grown = balls[v] = [1 << v]
    while len(grown) <= radius:
        inner = grown[-2] if len(grown) > 1 else 0
        ball = grown[-1]
        for x in iter_bits(ball & ~inner):
            ball |= adjacency[x]
        grown.append(ball)
    return grown[radius]


def _anchored_search(
    engine: GuPEngine, query: Graph, seeds: List[int]
) -> List[Tuple[int, ...]]:
    """All embeddings inside ``seeds``: a seeded production build (kept
    out of the engine's invariant memo) and a search without symmetry
    breaking, in original query-vertex numbering."""
    gcs = build_gcs(
        query, engine.data, engine.config, artifacts=engine.artifacts,
        invariants=None, seed_masks=seeds,
    )
    raw, status = engine.search_class(
        gcs, config=engine.config, limits=SearchLimits()
    ).run()
    if status is not TerminationStatus.COMPLETE:
        raise ContinuousError(
            f"anchored search ended {status.value}; "
            "continuous diffs need complete enumerations"
        )
    return [gcs.to_original_embedding(e) for e in raw]


def _edge_seeds(
    base: List[int],
    distances: List[Dict[int, int]],
    ball: Callable[[int, int], int],
    u: int,
    w: int,
    a: int,
    b: int,
) -> Optional[List[int]]:
    """Seed masks pinning query edge ``(u, w)`` onto data edge ``(a, b)``,
    or ``None`` when some query vertex is left without a candidate."""
    du, dw = distances[u], distances[w]
    pinned = (1 << a) | (1 << b)
    seeds = []
    for x, mask in enumerate(base):
        if x == u:
            mask = 1 << a
        elif x == w:
            mask = 1 << b
        else:
            mask &= ~pinned
            if mask and x in du:
                mask &= ball(a, du[x])
            if mask and x in dw:
                mask &= ball(b, dw[x])
            if not mask:
                return None
        seeds.append(mask)
    return seeds


def added_matches(
    engine: GuPEngine,
    query: Graph,
    summary: DeltaSummary,
    counters: Optional[Dict[str, int]] = None,
) -> List[Tuple[int, ...]]:
    """Every embedding of ``query`` in ``engine.data`` that uses an added
    edge or an added vertex, each exactly once (module docstring).

    ``counters`` (optional) accumulates ``anchored_builds`` (seeded
    build + search runs) and ``anchored_skipped`` (anchors rejected by
    the label or NLF fit, or by an empty seeded candidate set, without
    a build).
    """
    data = engine.data
    query_edges = list(query.edges())
    isolated = [x for x in query.vertices() if not query.degree(x)]
    # The label fit goes first and costs no mask work: on a many-label
    # graph most deltas fit no anchor at all.
    edge_anchors = [
        (k, u, w, a, b)
        for k, (u, w) in enumerate(query_edges)
        for edge in summary.added_edges
        for a, b in (edge, edge[::-1])
        if data.label(a) == query.label(u) and data.label(b) == query.label(w)
    ]
    vertex_anchors = [
        (j, x, v)
        for j, x in enumerate(isolated)
        for v in summary.added_vertices
        if data.label(v) == query.label(x)
    ]
    out: List[Tuple[int, ...]] = []
    builds = 0
    if edge_anchors or vertex_anchors:
        base = engine.artifacts.nlf_candidate_masks(query)
        added = set(summary.added_edges)
        adjacency = engine.artifacts.adjacency_bitmaps
        balls: Dict[int, List[int]] = {}
        distances: List[Dict[int, int]] = []

        def ball(v: int, radius: int) -> int:
            return _ball(adjacency, balls, v, radius)

        for k, u, w, a, b in edge_anchors:
            if not (base[u] >> a & 1 and base[w] >> b & 1):
                continue
            if not distances:
                distances = [bfs_levels(query, x) for x in query.vertices()]
            seeds = _edge_seeds(base, distances, ball, u, w, a, b)
            if seeds is None:
                continue
            builds += 1
            earlier = query_edges[:k]
            out.extend(
                e for e in _anchored_search(engine, query, seeds)
                if not _maps_edge_into(e, earlier, added)
            )

        # An isolated query vertex can take an added vertex without any
        # added edge; these anchors come after every edge anchor.  Its
        # NLF mask is its label class, so the label fit was the NLF fit.
        new_vertices = set(summary.added_vertices)
        for j, x, v in vertex_anchors:
            seeds = [mask & ~(1 << v) for mask in base]
            seeds[x] = 1 << v
            builds += 1
            out.extend(
                e for e in _anchored_search(engine, query, seeds)
                if not _maps_edge_into(e, query_edges, added)
                and new_vertices.isdisjoint(e[y] for y in isolated[:j])
            )

    if counters is not None:
        anchors = (
            2 * len(query_edges) * len(summary.added_edges)
            + len(isolated) * len(summary.added_vertices)
        )
        counters["anchored_builds"] += builds
        counters["anchored_skipped"] += anchors - builds
    return out


def embedding_diff(
    engine: GuPEngine,
    query: Graph,
    cached: Set[Tuple[int, ...]],
    summary: DeltaSummary,
    counters: Optional[Dict[str, int]] = None,
) -> EmbeddingDiff:
    """Exact diff of ``query``'s embedding set across one applied delta.

    ``engine`` must already be bound to the *new* (delta-applied) graph;
    ``cached`` is the complete embedding set against the old graph.
    ``cached`` is not modified.
    """
    return EmbeddingDiff(
        added=sorted(added_matches(engine, query, summary, counters)),
        removed=sorted(retracted_matches(query, cached, summary)),
    )


class _StandingQuery:
    __slots__ = ("name", "query", "matches")

    def __init__(
        self, name: str, query: Graph, matches: Set[Tuple[int, ...]]
    ) -> None:
        self.name = name
        self.query = query
        self.matches = matches


class ContinuousMatcher:
    """Standing queries with exactly-maintained embedding sets.

    One instance owns one evolving data graph (accessible as
    ``matcher.graph``), its incrementally-patched
    :class:`~repro.filtering.artifacts.DataArtifacts`, and a warm
    :class:`~repro.core.engine.GuPEngine` whose build-invariant cache
    survives every delta.  Not thread-safe; the matching server wraps
    operations in its own serialization.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[GuPConfig] = None,
    ) -> None:
        self.engine = GuPEngine(graph, config or GuPConfig())
        self._queries: Dict[str, _StandingQuery] = {}
        self.epoch = 0
        self.counters: Dict[str, int] = {
            "deltas_applied": 0,
            "anchored_builds": 0,
            "anchored_skipped": 0,
            "retractions": 0,
            "additions": 0,
        }

    @property
    def graph(self) -> Graph:
        return self.engine.data

    # -- standing queries ----------------------------------------------

    def register(self, name: str, query: Graph) -> List[Tuple[int, ...]]:
        """Register a standing query; returns its current matches (sorted).

        The initial enumeration must complete (standing queries maintain
        *exact* sets); a duplicate name raises ``ValueError``.
        """
        if name in self._queries:
            raise ValueError(f"standing query {name!r} already registered")
        result = self.engine.match(query, limits=SearchLimits())
        if result.status is not TerminationStatus.COMPLETE:
            raise ContinuousError(
                f"initial match of {name!r} ended {result.status.value}"
            )
        matches = {tuple(e) for e in result.embeddings}
        self._queries[name] = _StandingQuery(name, query, matches)
        return sorted(matches)

    def unregister(self, name: str) -> None:
        if name not in self._queries:
            raise KeyError(f"unknown standing query {name!r}")
        del self._queries[name]

    def names(self) -> List[str]:
        return sorted(self._queries)

    def matches(self, name: str) -> List[Tuple[int, ...]]:
        """Current embedding set of a standing query (sorted)."""
        return sorted(self._queries[name].matches)

    # -- delta application ---------------------------------------------

    def apply(self, delta: GraphDelta) -> Dict[str, EmbeddingDiff]:
        """Apply one delta; returns the exact diff per standing query.

        Updates the graph, the patched artifacts, the epoch counter,
        and every standing query's cached embedding set.
        """
        new_graph, summary = apply_delta(self.engine.data, delta)
        artifacts = self.engine.artifacts.apply_delta(new_graph, summary)
        self.engine = GuPEngine(
            new_graph,
            self.engine.config,
            artifacts=artifacts,
            invariants=self.engine.invariants,
        )
        self.epoch += 1
        self.counters["deltas_applied"] += 1

        diffs: Dict[str, EmbeddingDiff] = {}
        for name, standing in self._queries.items():
            diff = embedding_diff(
                self.engine, standing.query, standing.matches, summary,
                counters=self.counters,
            )
            standing.matches.difference_update(diff.removed)
            standing.matches.update(diff.added)
            self.counters["retractions"] += len(diff.removed)
            self.counters["additions"] += len(diff.added)
            diffs[name] = diff
        return diffs
