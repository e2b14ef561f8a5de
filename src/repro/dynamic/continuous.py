"""Continuous subgraph matching over a stream of graph deltas.

A :class:`ContinuousMatcher` owns one evolving data graph and a set of
*standing queries* whose complete embedding sets it keeps materialized.
Each :meth:`~ContinuousMatcher.apply` call applies one
:class:`~repro.dynamic.delta.GraphDelta` and returns, per standing
query, the **exact** embedding diff — never by re-matching from
scratch:

* **Retractions** can only be caused by removed edges (vertices are
  never removed and labels never change), so a cached embedding is
  retracted iff it maps some query edge onto a removed data edge.  The
  probe first tests the embedding's image against the summary's
  ``removal_mask`` (one int AND); only embeddings whose image meets a
  removed-edge endpoint are checked edge by edge.
* **New matches** must place at least one query vertex on an *addition*
  vertex (an endpoint of an added edge, or an added vertex): an
  embedding of the new graph whose image avoids all of them used only
  pre-existing vertices and edges and was therefore already a match.
  For each query vertex ``u`` the matcher seeds a GCS build from
  delta-restricted masks — the LDF+NLF masks with ``C(u)`` intersected
  with the summary's ``addition_mask`` (``seed_masks`` in
  :func:`repro.core.gcs.build_gcs`) — and unions the resulting
  enumerations.  Restricted builds are tiny for small deltas, which is
  where the incremental path wins (``benchmarks/bench_dynamic.py``).

The invariant ``old_matches - retracted + added == full re-match`` is
proved differentially by ``tests/test_dynamic.py`` and fuzzed by
``tests/test_property_dynamic.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.dynamic.delta import DeltaSummary, GraphDelta, apply_delta
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import TerminationStatus
from repro.utils.bitset import mask_of


@dataclass
class EmbeddingDiff:
    """Exact embedding-set change of one standing query for one delta."""

    added: List[Tuple[int, ...]] = field(default_factory=list)
    removed: List[Tuple[int, ...]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.added or self.removed)


class ContinuousError(RuntimeError):
    """A standing query could not be (re)matched exactly."""


def retracted_matches(
    query: Graph,
    cached: Set[Tuple[int, ...]],
    summary: DeltaSummary,
) -> List[Tuple[int, ...]]:
    """Cached embeddings invalidated by the delta's removed edges."""
    if not summary.removed_edges:
        return []
    removed = set(summary.removed_edges)
    removal_mask = summary.removal_mask
    query_edges = list(query.edges())
    out: List[Tuple[int, ...]] = []
    for embedding in cached:
        if not mask_of(embedding) & removal_mask:
            continue
        for i, j in query_edges:
            a, b = embedding[i], embedding[j]
            if ((a, b) if a < b else (b, a)) in removed:
                out.append(embedding)
                break
    return out


def delta_restricted_matches(
    engine: GuPEngine,
    query: Graph,
    summary: DeltaSummary,
    counters: Optional[Dict[str, int]] = None,
) -> Set[Tuple[int, ...]]:
    """All embeddings of ``query`` in ``engine.data`` whose image meets
    the delta's addition vertices.

    Runs one delta-seeded GCS build + search per query vertex whose
    restricted candidate set is non-empty and unions the enumerations
    (an embedding may meet the additions at several vertices; the set
    dedups).  Every *new* match is found this way; pre-existing matches
    may also appear (an added-edge endpoint can occur in an old match),
    so callers subtract their cached set.
    """
    found: Set[Tuple[int, ...]] = set()
    addition_mask = summary.addition_mask
    if not addition_mask or query.num_vertices == 0:
        return found
    base = engine.artifacts.nlf_candidate_masks(query)
    for u in query.vertices():
        restricted = base[u] & addition_mask
        if counters is not None:
            counters["restricted_builds" if restricted else
                     "restricted_skipped"] += 1
        if not restricted:
            continue
        seeds = list(base)
        seeds[u] = restricted
        gcs = engine.build(query, seed_masks=seeds)
        result = engine.match(query, limits=SearchLimits(), gcs=gcs)
        if result.status is not TerminationStatus.COMPLETE:
            raise ContinuousError(
                f"restricted search ended {result.status.value}; "
                "continuous diffs need complete enumerations"
            )
        found.update(tuple(e) for e in result.embeddings)
    return found


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
    removed = retracted_matches(query, cached, summary)
    found = delta_restricted_matches(engine, query, summary, counters)
    added = sorted(found - cached)
    return EmbeddingDiff(added=added, removed=sorted(removed))


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
            "restricted_builds": 0,
            "restricted_skipped": 0,
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
