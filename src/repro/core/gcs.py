"""The guarded candidate space (GCS), §3.1.

A GCS packages everything GuP's backtracking needs:

* the candidate space (candidate vertices + candidate edges) built by
  extended DAG-graph DP over the *reordered* query graph (the matching
  order is baked in by renumbering, §2.2);
* the reservation guard of every candidate vertex (Algorithm 1), stored
  only where it is not the trivial ``{v}``;
* a (mutable) nogood store, populated on the fly during search;
* the set of query edges inside the 2-core — nogood guards on edges are
  generated only there (§3.3.3).

Construction mirrors the paper's three steps: candidate filtering and
matching-order optimization happen inside :func:`build_gcs`; reservation
guards are generated immediately after; the backtracking step then reads
the GCS.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.config import GuPConfig
from repro.core.nogood import NogoodStore
from repro.core.reservation import (
    ReservationGuards,
    generate_reservation_guards,
    reservation_memory_bytes,
)
from repro.filtering.artifacts import DataArtifacts
from repro.filtering.candidate_space import CandidateSpace
from repro.filtering.dag import QueryDag, build_query_dag
from repro.filtering.masks import MaskView, build_candidate_space_masks
from repro.graph.algorithms import two_core_edges
from repro.graph.graph import Graph
from repro.ordering.base import make_order


class BuildInvariantCache:
    """Memoized per-query build invariants (satellite of the dense build path).

    ``two_core_edges(reordered)`` depends only on the reordered query
    graph; the query DAG depends on the reordered query plus the initial
    candidate-set sizes; the matching order depends on the query plus
    the exact initial candidate sets (the cache key carries them in
    full, so equal keys provably yield equal orders).  All three were
    recomputed on every ``build_gcs`` call even for repeated queries; a
    :class:`GuPEngine` owns one of these caches so the service warm
    path (same query, same data) does zero recomputes — ``recomputes``
    is the counter the tests pin.

    Thread-safety note: engines are shared across server worker threads;
    individual dict reads/writes are atomic under the GIL, so a race at
    worst recomputes a value twice — never returns a wrong one.
    """

    __slots__ = (
        "max_entries",
        "_two_cores",
        "_dags",
        "_orders",
        "hits",
        "two_core_recomputes",
        "dag_recomputes",
        "order_recomputes",
    )

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._two_cores: Dict[Graph, FrozenSet[Tuple[int, int]]] = {}
        self._dags: Dict[Tuple[Graph, Tuple[int, ...]], QueryDag] = {}
        self._orders: Dict[Tuple, List[int]] = {}
        self.hits = 0
        self.two_core_recomputes = 0
        self.dag_recomputes = 0
        self.order_recomputes = 0

    @property
    def recomputes(self) -> int:
        """Total from-scratch computations (zero on a warm repeat)."""
        return self.two_core_recomputes + self.dag_recomputes + self.order_recomputes

    @staticmethod
    def _evict_oldest(cache: Dict, cap: int) -> None:
        # list(cache) snapshots the keys in one C-level (GIL-atomic) call,
        # so a concurrent insert cannot raise "changed size during
        # iteration" the way next(iter(cache)) could.
        excess = len(cache) - cap
        if excess > 0:
            for key in list(cache)[:excess]:
                cache.pop(key, None)

    def two_core(self, reordered: Graph) -> FrozenSet[Tuple[int, int]]:
        got = self._two_cores.get(reordered)
        if got is None:
            self.two_core_recomputes += 1
            got = frozenset(two_core_edges(reordered))
            self._two_cores[reordered] = got
            self._evict_oldest(self._two_cores, self.max_entries)
        else:
            self.hits += 1
        return got

    def dag(self, reordered: Graph, sizes: Sequence[int]) -> QueryDag:
        key = (reordered, tuple(sizes))
        got = self._dags.get(key)
        if got is None:
            self.dag_recomputes += 1
            got = build_query_dag(reordered, sizes)
            self._dags[key] = got
            self._evict_oldest(self._dags, self.max_entries)
        else:
            self.hits += 1
        return got

    def order(
        self, ordering: str, query: Graph, initial_masks: Sequence[int]
    ) -> List[int]:
        """Memoized :func:`make_order` over the initial candidate masks.

        The key carries the masks in full, so a hit is guaranteed to
        reproduce the miss's order even for orderings that read
        candidate *contents*, not just sizes.
        """
        key = (ordering, query, tuple(initial_masks))
        got = self._orders.get(key)
        if got is None:
            self.order_recomputes += 1
            got = make_order(
                ordering, query, [MaskView(m) for m in initial_masks]
            )
            self._orders[key] = got
            self._evict_oldest(self._orders, self.max_entries)
        else:
            self.hits += 1
        return got


_SELF_BUILT_ARTIFACTS: Optional[DataArtifacts] = None


def _self_built_artifacts(data: Graph) -> DataArtifacts:
    """Per-graph artifacts for artifact-less ``build_gcs`` callers.

    The build needs :class:`DataArtifacts`; engines own
    theirs, but direct callers (CLI ``inspect``, the parallel
    simulations, analysis helpers) loop queries against one data graph
    without any.  A one-entry memo keyed by graph *identity* makes them
    pay the per-graph cost once instead of per query.  The entry
    strong-references the graph (bounded: one graph); callers juggling
    several data graphs should pass explicit artifacts instead.
    Thread-race worst case is a duplicate build, never a wrong result
    (the ``data is`` check can't accept a foreign graph).
    """
    global _SELF_BUILT_ARTIFACTS
    cached = _SELF_BUILT_ARTIFACTS
    if cached is None or cached.data is not data:
        cached = _SELF_BUILT_ARTIFACTS = DataArtifacts(data)
    return cached


@dataclass
class GuardedCandidateSpace:
    """Candidate space + guards for one (query, data) pair.

    ``order[i]`` is the original query-vertex id matched at step ``i``;
    ``query`` is the reordered query graph whose vertex ``i`` is that
    original vertex.  Embeddings found over ``query`` are translated back
    by :meth:`to_original_embedding`.
    """

    original_query: Graph
    query: Graph
    data: Graph
    order: List[int]
    cs: CandidateSpace
    reservations: ReservationGuards
    two_core: FrozenSet[Tuple[int, int]]
    nogoods: NogoodStore = field(default_factory=NogoodStore)
    build_seconds: float = 0.0

    @property
    def candidates(self) -> Tuple[Tuple[int, ...], ...]:
        return self.cs.candidates

    def reservation(self, i: int, v: int) -> FrozenSet[int]:
        """``R(u_i, v)``; the trivial ``{v}`` unless a guard is stored."""
        table = self.reservations[i] if self.reservations else {}
        return table.get(self.cs.positions[i].get(v), frozenset((v,)))

    @property
    def nontrivial_reservations(self) -> int:
        """Number of candidates whose guard is not the trivial ``{v}``."""
        return sum(map(len, self.reservations))

    def reservation_sizes(self) -> Dict[int, int]:
        """Histogram guard size -> candidates, over every candidate (one
        with no stored guard has the trivial ``{v}``, size 1)."""
        if not self.reservations:
            return {}
        sizes = Counter(len(g) for t in self.reservations for g in t.values())
        trivial = self.cs.total_candidates() - self.nontrivial_reservations
        if trivial:
            sizes[1] += trivial
        return dict(sorted(sizes.items()))

    def edge_in_two_core(self, i: int, j: int) -> bool:
        """Whether query edge ``(u_i, u_j)`` lies inside the 2-core."""
        return (min(i, j), max(i, j)) in self.two_core

    def to_original_embedding(self, embedding: Tuple[int, ...]) -> Tuple[int, ...]:
        """Translate a reordered-query embedding to original vertex ids."""
        out = [0] * len(embedding)
        for position, v in enumerate(embedding):
            out[self.order[position]] = v
        return tuple(out)

    def memory_estimate(self) -> Dict[str, int]:
        """Byte estimates in Table 3's cost model."""
        cs_bytes = (
            self.cs.total_candidates() * 8
            + self.cs.num_candidate_edges * 8
        )
        nv_bytes, ne_bytes = self.nogoods.memory_estimate_bytes()
        return {
            "candidate_space": cs_bytes,
            "reservation": reservation_memory_bytes(self.reservation_sizes()),
            "nogood_vertices": nv_bytes,
            "nogood_edges": ne_bytes,
        }


def build_gcs(
    query: Graph,
    data: Graph,
    config: Optional[GuPConfig] = None,
    artifacts: Optional["DataArtifacts"] = None,
    invariants: Optional[BuildInvariantCache] = None,
    seed_masks: Optional[Sequence[int]] = None,
    stage_log=None,
) -> GuardedCandidateSpace:
    """Steps (1) and (2) of GuP (§3.1): GCS construction.

    1. initial candidates (LDF+NLF) on the original query;
    2. matching-order optimization (default: VC [36]);
    3. query renumbering so the order is ascending id;
    4. candidate filtering (default: extended DAG-graph DP [20]) and
       candidate-edge materialization over the reordered query;
    5. reservation-guard generation (Algorithm 1), unless disabled.

    The whole pipeline runs in the dense mask domain of
    :mod:`repro.filtering.masks`.  The seed set/dict pipeline it
    replaced is kept as a test oracle
    (:func:`repro.core.backtrack_ref.build_gcs_set`); both yield
    byte-identical GCSes.

    ``artifacts`` optionally supplies precomputed data-graph-side filter
    state (:class:`repro.filtering.artifacts.DataArtifacts`) so batch
    engines skip the per-query LDF scan and NLF table build; the build
    needs them and self-builds when none are passed.
    ``invariants`` optionally memoizes the reordered query's two-core
    edge set and DAG across repeated builds (engines own one).  Results
    are identical with or without either.

    ``seed_masks`` replaces the LDF+NLF seeding
    with caller-supplied per-query-vertex candidate masks.  The
    continuous-matching engine (:mod:`repro.dynamic.continuous`) passes
    anchored masks here — one query edge pinned onto an added data
    edge, the other vertices cut to distance balls around it:
    restricting the candidates before filtering is sound and complete
    for the restricted enumeration problem, so the search finds exactly
    the embeddings inside the seeds.

    ``stage_log`` (a :class:`repro.obs.explain.FilterStageLog`) records
    per-stage candidate counts for EXPLAIN — a read-only observer, so a
    logged build returns the identical GCS.
    """
    config = config or GuPConfig()
    started = time.perf_counter()

    if artifacts is not None and artifacts.data is not data:
        raise ValueError("artifacts were built for a different data graph")
    if seed_masks is not None and len(seed_masks) != query.num_vertices:
        raise ValueError(
            f"seed_masks has {len(seed_masks)} entries for a "
            f"{query.num_vertices}-vertex query"
        )
    if artifacts is None:
        artifacts = _self_built_artifacts(data)

    initial_masks = (
        list(seed_masks)
        if seed_masks is not None
        else artifacts.nlf_candidate_masks(query)
    )
    if invariants is not None:
        order = invariants.order(config.ordering, query, initial_masks)
    else:
        order = make_order(
            config.ordering, query, [MaskView(m) for m in initial_masks]
        )
    reordered = query.relabeled(order)
    # The initial candidates only depend on labels/degrees, which the
    # renumbering preserves: reuse them instead of refiltering.
    reordered_masks = [initial_masks[old] for old in order]
    dag = None
    if invariants is not None and config.filter_method == "dagdp":
        sizes = [m.bit_count() for m in reordered_masks]
        dag = invariants.dag(reordered, sizes)
    cs = build_candidate_space_masks(
        reordered,
        data,
        artifacts,
        method=config.filter_method,
        base_masks=reordered_masks,
        dag=dag,
        stage_log=stage_log,
    )

    return finish_gcs(query, data, order, cs, config, invariants, started)


def finish_gcs(
    query: Graph,
    data: Graph,
    order: List[int],
    cs: CandidateSpace,
    config: GuPConfig,
    invariants: Optional[BuildInvariantCache],
    started: float,
) -> GuardedCandidateSpace:
    """Step (5) of :func:`build_gcs` plus the two-core, on a filtered CS.

    Shared with the seed set pipeline kept as a test oracle
    (:func:`repro.core.backtrack_ref.build_gcs_set`); ``started`` is the
    build's ``perf_counter`` start, so ``build_seconds`` covers it all.
    """
    reordered = cs.query
    if config.use_reservation:
        reservations = generate_reservation_guards(
            cs, size_limit=config.reservation_limit
        )
    else:
        reservations = []

    if config.use_nogood_edge and config.ne_two_core_only:
        core_edges = (
            invariants.two_core(reordered)
            if invariants is not None
            else frozenset(two_core_edges(reordered))
        )
    else:
        core_edges = frozenset(reordered.edges())

    return GuardedCandidateSpace(
        original_query=query,
        query=reordered,
        data=data,
        order=order,
        cs=cs,
        reservations=reservations,
        two_core=core_edges,
        build_seconds=time.perf_counter() - started,
    )
