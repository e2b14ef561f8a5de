"""Public facade for the GuP matcher.

Typical use::

    from repro import Graph, GuPConfig, match

    result = match(query, data)               # full GuP, all guards
    result = match(query, data, config=GuPConfig.baseline())

or, when matching many queries against one data graph::

    engine = GuPEngine(data)
    for query in queries:
        result = engine.match(query, limits=SearchLimits(max_embeddings=10**5))
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, List, Optional

from repro.core.backtrack import GuPSearch
from repro.core.config import GuPConfig
from repro.core.gcs import BuildInvariantCache, GuardedCandidateSpace, build_gcs
from repro.filtering.artifacts import DataArtifacts
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, TerminationStatus
from repro.obs.spans import span


class GuPEngine:
    """GuP subgraph matcher bound to one data graph.

    The engine is stateless across queries (each query gets a fresh GCS
    and nogood store) apart from two caches, so one engine can be
    shared freely: data-graph-side filter artifacts
    (:class:`DataArtifacts`, built lazily on the first query and reused
    by every later one) and per-query build invariants
    (:class:`BuildInvariantCache` — the reordered query's two-core edge
    set and DAG, so repeated queries on a warm engine recompute
    neither; ``engine.invariants.recomputes`` counts the from-scratch
    computations).

    Long-running services can inject *prebuilt* artifacts — e.g. ones
    the catalog (:mod:`repro.service.catalog`) built once on load or
    patched on an update — via the ``artifacts`` parameter, so a fresh
    engine never pays the per-graph build cost again.  The artifacts
    must have been built for (a graph equal to) ``data``.

    ``search_class`` is the sequential Algorithm-2 implementation.  It
    is a class attribute, not a config knob: production always runs
    :class:`GuPSearch`, and only the test oracle
    (:class:`repro.core.backtrack_ref.ReferenceEngine`) overrides it.
    """

    search_class = GuPSearch

    def __init__(
        self,
        data: Graph,
        config: Optional[GuPConfig] = None,
        artifacts: Optional[DataArtifacts] = None,
        invariants: Optional[BuildInvariantCache] = None,
    ) -> None:
        self.data = data
        self.config = config or GuPConfig()
        if artifacts is not None and artifacts.data is not data:
            if artifacts.data != data:
                raise ValueError(
                    "artifacts were built for a different data graph"
                )
        self._artifacts: Optional[DataArtifacts] = artifacts
        # An inherited invariant cache stays valid across data-graph
        # changes: every cache key fully determines its value (orders
        # are keyed by the exact candidate masks, DAGs by the exact
        # sizes, two-cores by the query alone), so entries computed
        # against an older graph epoch are either re-hit correctly or
        # simply never hit again.  The service catalog threads one cache
        # through a graph's successive epochs this way.
        self.invariants = invariants if invariants is not None else BuildInvariantCache()

    @property
    def artifacts(self) -> DataArtifacts:
        """Data-side filter artifacts, built once per engine."""
        if self._artifacts is None:
            self._artifacts = DataArtifacts(self.data)
        return self._artifacts

    def build(
        self,
        query: Graph,
        seed_masks: Optional[List[int]] = None,
        stage_log=None,
    ) -> GuardedCandidateSpace:
        """Run GCS construction + reservation generation for ``query``.

        ``seed_masks`` optionally replaces the LDF+NLF seeding with
        caller-restricted candidate masks (see :func:`build_gcs`);
        ``stage_log`` optionally collects per-filter-stage candidate
        counts for EXPLAIN (read-only, identical GCS)."""
        return build_gcs(
            query,
            self.data,
            self.config,
            artifacts=self.artifacts,
            invariants=self.invariants,
            seed_masks=seed_masks,
            stage_log=stage_log,
        )

    def apply_delta(self, delta):
        """Apply a :class:`repro.dynamic.delta.GraphDelta` in place.

        Swaps in the delta-applied graph and incrementally-patched
        artifacts (:meth:`DataArtifacts.apply_delta`); the build
        invariant cache is kept — its keys fully determine its values,
        so entries never go stale across graph epochs.  Returns the
        :class:`repro.dynamic.delta.DeltaSummary`.

        Not atomic with respect to concurrent :meth:`match` calls on
        other threads; services should install a fresh engine around
        the new state instead (:meth:`repro.service.catalog.GraphCatalog.update`
        does, reusing this engine's invariant cache).
        """
        from repro.dynamic.delta import apply_delta as _apply

        new_graph, summary = _apply(self.data, delta)
        if self._artifacts is not None:
            self._artifacts = self._artifacts.apply_delta(new_graph, summary)
        self.data = new_graph
        return summary

    def match(
        self,
        query: Graph,
        limits: Optional[SearchLimits] = None,
        gcs: Optional[GuardedCandidateSpace] = None,
        workers: int = 1,
        observer: Optional[object] = None,
        task_collector: Optional[list] = None,
    ) -> MatchResult:
        """Enumerate embeddings of ``query`` in the data graph.

        Embeddings are reported in *original* query-vertex numbering
        (position ``i`` = destination of the caller's ``u_i``), even
        though the search internally renumbers by the matching order.

        With ``config.break_symmetry`` the search enumerates one
        representative per query-automorphism class and expands
        afterwards; ``max_embeddings`` then caps the *representatives*
        during search and the expanded list on output.

        ``workers > 1`` executes the search step root-partitioned over a
        process pool (:mod:`repro.core.procpool`) with task-local nogood
        stores; embeddings, counts, and termination status are identical
        to the sequential run (``tests/test_parallel_exact.py``) for
        unlimited and ``max_embeddings``-capped searches, and the merged
        stats reflect the per-task guard locality of §4.3.4.  The
        exception is ``time_limit`` / ``max_recursions`` budgets, which
        apply to *each root task individually* rather than to the whole
        run (DESIGN.md §6), so truncated counts can exceed sequential.

        ``observer`` is a :class:`repro.analysis.trace.SearchObserver`
        receiving the Algorithm-2 event stream (notification-only; the
        search is unchanged).  Observers live in this process, so an
        observed match runs sequentially even when ``workers > 1`` —
        results are identical either way, only the wall clock differs.

        ``task_collector`` (a list) receives one summary dict per
        executed root-partition task when the search dispatches to the
        procpool — EXPLAIN ANALYZE's per-worker wall-clock attribution.
        Pure observation: results are identical with or without it.

        When a structured log is bound to the calling thread
        (:func:`repro.obs.log.current_log`), the build and search
        phases each emit a timed span (:mod:`repro.obs.spans`); with no
        log bound the spans cost two clock reads and emit nothing.
        """
        limits = limits or SearchLimits()
        started = time.perf_counter()
        if gcs is None:
            with span("engine.build"):
                gcs = self.build(query)
        preprocessing = time.perf_counter() - started

        sym_classes = None
        symmetry_prev = None
        if self.config.break_symmetry and query.num_vertices > 0:
            from repro.core.symmetry import (
                equivalence_classes,
                symmetry_predecessors,
            )

            classes = equivalence_classes(gcs.query)
            if classes:
                sym_classes = classes
                symmetry_prev = symmetry_predecessors(
                    classes, gcs.query.num_vertices
                )

        search_started = time.perf_counter()
        with span("engine.search", workers=workers):
            if workers > 1 and observer is None and query.num_vertices > 0:
                from repro.core.procpool import run_partitioned

                raw, status, stats = run_partitioned(
                    gcs, self.config, limits, workers, symmetry_prev,
                    task_collector=task_collector,
                )
            else:
                search = self.search_class(
                    gcs, config=self.config, limits=limits,
                    symmetry_prev=symmetry_prev, observer=observer,
                )
                raw, status = search.run()
                stats = search.stats
        elapsed = time.perf_counter() - search_started

        if sym_classes:
            from repro.core.symmetry import expand_embedding, expansion_factor

            num_embeddings = (
                stats.embeddings_found * expansion_factor(sym_classes)
            )
            expanded = []
            for representative in raw:
                expanded.extend(expand_embedding(representative, sym_classes))
                if (
                    limits.max_embeddings is not None
                    and len(expanded) >= limits.max_embeddings
                ):
                    expanded = expanded[: limits.max_embeddings]
                    break
            embeddings = [gcs.to_original_embedding(e) for e in expanded]
        else:
            embeddings = [gcs.to_original_embedding(e) for e in raw]
            num_embeddings = (
                stats.embeddings_found
                if query.num_vertices > 0
                else len(embeddings)
            )

        return MatchResult(
            embeddings=embeddings,
            num_embeddings=num_embeddings,
            status=status,
            elapsed_seconds=elapsed,
            stats=stats,
            preprocessing_seconds=preprocessing,
            method="GuP",
        )

    def explain(
        self,
        query: Graph,
        mode: str = "plan",
        limits: Optional[SearchLimits] = None,
        workers: int = 1,
    ):
        """EXPLAIN (``mode="plan"``) / ANALYZE (``mode="analyze"``) a query.

        Returns ``(report, result)``.  *Plan* performs the real GCS
        build — matching order, filter stages, reservation generation —
        and reports what the search *would* do without running it
        (``result`` is ``None``).  *Analyze* then runs the ordinary
        :meth:`match` on that very GCS and attributes the work exactly:
        per-stage candidate counts, the guard-level pruning counters,
        and (for ``workers > 1``) per-root-partition task wall-clock.

        The differential rule is absolute: the returned ``result`` is
        byte-identical (embeddings, :class:`SearchStats`, status) to an
        unexplained ``match`` of the same query — every collector along
        the way is read-only (``tests/test_explain_differential.py``).
        """
        if mode not in ("plan", "analyze"):
            raise ValueError(
                f"unknown explain mode {mode!r}; expected 'plan' or 'analyze'"
            )
        from repro.obs.explain import (
            FilterStageLog,
            analyze_report,
            plan_report,
        )

        stage_log = FilterStageLog()
        with span("engine.build", explain=mode):
            gcs = self.build(query, stage_log=stage_log)
        report = plan_report(gcs, self.config, stage_log)
        if mode == "plan":
            return report, None
        tasks: list = []
        result = self.match(
            query, limits=limits, gcs=gcs, workers=workers,
            task_collector=tasks,
        )
        analyze_report(report, result, tasks, workers=workers)
        return report, result

    def match_many(
        self,
        queries: Iterable[Graph],
        limits: Optional[SearchLimits] = None,
        workers: int = 1,
        observer: Optional[object] = None,
    ) -> List[MatchResult]:
        """Match a whole query set; results in input order.

        The data-side filter artifacts are built once and reused across
        the set.  With ``workers > 1`` queries are dispatched
        dynamically over a process pool (one task per query; the data
        graph and its artifacts travel to each worker exactly once —
        :func:`repro.core.procpool.batch_match`).  Per-query results are
        identical to calling :meth:`match` sequentially.

        ``observer`` (see :meth:`match`) receives the concatenated event
        streams of all queries in input order; like :meth:`match`, an
        observed run stays in this process (sequential over queries).
        """
        queries = list(queries)
        limits = limits or SearchLimits()
        if workers <= 1 or observer is not None:
            return [
                self.match(query, limits=limits, observer=observer)
                for query in queries
            ]
        if len(queries) == 1:
            # Nothing to spread across queries — honor the worker budget
            # with intra-query root partitioning, but only when it keeps
            # this method's sequential-identity contract: time_limit /
            # max_recursions budgets apply per root task there (DESIGN.md
            # §6), so those runs stay sequential.
            intra = (
                workers
                if limits.time_limit is None and limits.max_recursions is None
                else 1
            )
            return [self.match(queries[0], limits=limits, workers=intra)]

        from repro.core.procpool import batch_match

        return batch_match(self.data, self.config, queries, limits, workers)


def match(
    query: Graph,
    data: Graph,
    config: Optional[GuPConfig] = None,
    limits: Optional[SearchLimits] = None,
) -> MatchResult:
    """One-shot GuP matching (see :class:`GuPEngine`)."""
    return GuPEngine(data, config).match(query, limits=limits)


def count_embeddings(
    query: Graph,
    data: Graph,
    config: Optional[GuPConfig] = None,
    limits: Optional[SearchLimits] = None,
) -> int:
    """Number of embeddings of ``query`` in ``data`` (not materialized).

    All limits are honored — including ``max_recursions`` virtual-time
    budgets — the run merely skips materializing the embeddings.
    """
    limits = limits or SearchLimits()
    counting = replace(limits, collect=False)
    return match(query, data, config=config, limits=counting).num_embeddings
