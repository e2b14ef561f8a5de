"""Process-parallel batch execution (§3.5.2, real multicore edition).

:mod:`repro.core.parallel` reproduces Fig. 10 as a *scheduling
simulation* because CPython threads cannot run backtracking concurrently.
Processes can.  This module is the real executor:

* **Root partitioning.**  The search is split at the root — one task per
  candidate of ``u_0`` — exactly the decomposition of §3.5.2.  A task is
  identified by its *position* in the sorted ``C(u_0)``; executing it
  means running the ordinary guarded search with the root level masked
  down to that single bit (:meth:`GuPSearch.run`'s ``root_mask``), so no
  per-task candidate space is rebuilt.
* **Task-local nogood stores.**  Every task runs with a fresh store, the
  thread-local-guards setting of §4.3.4.  (Per-*worker* persistent
  stores would make results depend on the nondeterministic task-to-
  worker assignment; per-task stores keep the merge deterministic while
  preserving the paper's locality property.)
* **Dynamic dispatch.**  Tasks are submitted individually to a
  ``ProcessPoolExecutor``; idle workers pull the next task from the
  shared queue — work-stealing semantics without a stealing protocol.
* **Pickle-once initialization.**  The GCS, config, and limits travel to
  each worker once via the pool initializer, not once per task; a task
  message is a single integer (the root position).
* **Deterministic merge.**  Per-task embedding lists are concatenated in
  root order.  Guards are *sound* (they prune only embedding-free
  subtrees) and pruning never reorders surviving embeddings, so this
  concatenation reproduces the sequential enumeration order exactly —
  including the prefix semantics of ``max_embeddings`` truncation.
  Merged stats are summed over the tasks that the sequential run would
  have entered (speculative work past the truncation point is
  discarded); they legitimately differ from a single-store run because
  pruning discovered in one subtree cannot help another (§4.3.4 measures
  precisely this gap).

The batch side (:func:`batch_match`) parallelizes *across* queries
instead: workers are initialized once with the data graph + config, each
builds the data-graph-side filter artifacts once
(:class:`repro.filtering.artifacts.DataArtifacts`), and every task ships
only a (small) query graph.  ``GuPEngine.match_many`` wraps this.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backtrack import GuPSearch
from repro.core.config import GuPConfig
from repro.core.gcs import GuardedCandidateSpace
from repro.core.nogood import make_nogood_store
from repro.filtering.candidate_space import CandidateSpace
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, SearchStats, TerminationStatus
from repro.obs.log import (
    current_fields,
    current_log,
    current_trace,
    set_trace_context,
)
from repro.obs.metrics import CounterGroup
from repro.obs.spans import current_span, set_base_span, span
from repro.utils.timer import Deadline


# ----------------------------------------------------------------------
# Root partitioning (shared by the simulation and the real executor)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RootTask:
    """One unit of root-partitioned work: assign ``u_0 -> vertex``.

    ``index`` is the position of ``vertex`` in the sorted ``C(u_0)`` —
    it doubles as the merge rank (root order == sequential enumeration
    order) and as the root bitmap ``1 << index``.
    """

    index: int
    vertex: int

    @property
    def mask(self) -> int:
        return 1 << self.index


@dataclass
class RootTaskResult:
    """Outcome of one executed root task."""

    index: int
    embeddings: List[Tuple[int, ...]]
    """Raw embeddings in reordered query numbering (empty when the task
    ran with ``collect=False``)."""
    status: TerminationStatus
    stats: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0
    """Wall-clock of this task's search (EXPLAIN ANALYZE attribution)."""


def root_partition(gcs: GuardedCandidateSpace) -> List[RootTask]:
    """One task per root candidate, in sorted ``C(u_0)`` order (§3.5.2)."""
    return [RootTask(p, v) for p, v in enumerate(gcs.cs.candidates[0])]


def restrict_cs_to_root(cs: CandidateSpace, v: int) -> CandidateSpace:
    """A copy of ``cs`` whose root candidate set is just ``(v,)``.

    Used by executors that cannot mask the root in place (the DAF
    baseline's static split in :mod:`repro.core.parallel`); GuP-side
    executors restrict via ``root_mask`` instead, which costs nothing.
    """
    return CandidateSpace(
        cs.query, cs.data, [(v,)] + [list(c) for c in cs.candidates[1:]]
    )


def run_root_task(
    gcs: GuardedCandidateSpace,
    task: RootTask,
    config: GuPConfig,
    limits: SearchLimits,
    symmetry_prev: Optional[Sequence[int]] = None,
) -> RootTaskResult:
    """Execute one root task with a fresh (task-local) nogood store.

    This is the §4.3.4 thread-local-guard execution: pruning information
    discovered inside this subtree is invisible to every other task.
    The simulation in :mod:`repro.core.parallel` and the process workers
    below both run tasks through this single codepath.
    """
    search = GuPSearch(
        gcs,
        config=config,
        limits=limits,
        nogoods=make_nogood_store(config.nogood_representation),
        symmetry_prev=symmetry_prev,
    )
    started = time.perf_counter()
    raw, status = search.run(root_mask=task.mask)
    elapsed = time.perf_counter() - started
    return RootTaskResult(task.index, raw, status, search.stats, elapsed)


def merge_root_results(
    results: Sequence[RootTaskResult],
    gcs: GuardedCandidateSpace,
    limits: SearchLimits,
) -> Tuple[List[Tuple[int, ...]], TerminationStatus, SearchStats]:
    """Deterministically merge per-task outcomes into one run outcome.

    Walks tasks in root order — the order the sequential search visits
    the same subtrees — accumulating embeddings and stats:

    * reaching ``max_embeddings`` truncates there (later tasks are
      speculative work the sequential run never performs; their results
      and stats are dropped);
    * a task timeout surfaces as an overall timeout at that point
      (per-task ``time_limit`` / ``max_recursions`` budgets apply to
      each task individually — see DESIGN.md §6);
    * otherwise the merge is complete and exact.
    """
    merged = SearchStats()
    raw: List[Tuple[int, ...]] = []
    found = 0
    status = TerminationStatus.COMPLETE
    # The sequential search checks the cap only *after* recording an
    # embedding, so ``max_embeddings=0`` still yields the first one; the
    # effective stop threshold mirrors that.
    cap = limits.max_embeddings
    stop = None if cap is None else max(cap, 1)
    for result in sorted(results, key=lambda r: r.index):
        merged.merge(result.stats)
        take = result.embeddings
        if stop is not None and found + result.stats.embeddings_found >= stop:
            raw.extend(take[: stop - found])
            found = stop
            status = TerminationStatus.EMBEDDING_LIMIT
            break
        raw.extend(take)
        found += result.stats.embeddings_found
        if result.status is TerminationStatus.TIMEOUT:
            status = TerminationStatus.TIMEOUT
            break
    merged.embeddings_found = found
    # Per-task stats each carry the counters of the *shared* candidate
    # space; report them once, not once per task.
    merged.candidate_vertices = gcs.cs.total_candidates()
    merged.candidate_edges = gcs.cs.num_candidate_edges
    return raw, status, merged


# ----------------------------------------------------------------------
# Process workers (intra-query parallelism)
# ----------------------------------------------------------------------

_FOREVER = 1e12
"""Stand-in time limit (~31k years) that turns on the search's deadline
polling without ever firing, so the cancel event below gets polled."""


class _CancellableDeadline(Deadline):
    """A deadline that additionally honors a cross-process cancel event.

    The event is checked on the same stride as the clock (every
    ``check_every`` polls), so cancellation latency is a few thousand
    recursions — milliseconds — at negligible per-recursion cost.
    """

    __slots__ = ("_event", "_event_countdown")

    def __init__(self, seconds, event, check_every: int = 2048) -> None:
        super().__init__(seconds, check_every)
        self._event = event
        self._event_countdown = self._check_every

    def poll(self) -> bool:
        if super().poll():
            return True
        self._event_countdown -= 1
        if self._event_countdown > 0:
            return False
        self._event_countdown = self._check_every
        if self._event.is_set():
            self._expired = True
        return self._expired


@dataclass(frozen=True)
class _CancellableLimits(SearchLimits):
    """Worker-side limits whose deadline also polls the cancel event.

    Constructed inside the worker (never pickled); behavior is identical
    to the wrapped limits unless the parent signals cancellation, in
    which case the task aborts as a timeout — the parent only cancels
    tasks whose results it has already decided never to read.
    """

    cancel_event: Optional[object] = None

    def make_deadline(self) -> Deadline:
        return _CancellableDeadline(self.time_limit, self.cancel_event)


_WORKER_CTX: Optional[tuple] = None
"""Per-worker search context, installed once by the pool initializer."""

POOL_COUNTERS = CounterGroup({"respawns": 0, "tasks_rerun": 0})
"""Worker-crash recovery accounting (read by the service ``healthz`` op
and exposed as the ``repro_pool_*`` metric families; reset with
:func:`reset_pool_counters` in tests)."""


def reset_pool_counters() -> None:
    for key in POOL_COUNTERS:
        POOL_COUNTERS[key] = 0


def _procpool_init(
    gcs: GuardedCandidateSpace,
    config: GuPConfig,
    limits: SearchLimits,
    symmetry_prev: Optional[Tuple[int, ...]],
    cancel_event,
    faults=None,
    obs_ctx=None,
) -> None:
    global _WORKER_CTX
    if obs_ctx is not None:
        # The request's (trace id, path-backed structured log, context
        # fields, parent span id) tuple, shipped once per worker
        # alongside the GCS: every task this worker runs logs under the
        # trace — and the tenant — of the request that spawned the
        # pool, so client attempt -> server handling -> worker
        # execution share one id across the process boundary; the
        # parent span seeds this worker's span stack so task spans nest
        # under the dispatching search span.
        trace, log, fields, parent_span = obs_ctx
        set_trace_context(trace, log, fields)
        set_base_span(parent_span)
    if cancel_event is not None:
        # Copy the base fields generically so future SearchLimits fields
        # can never be silently dropped inside pool workers.
        base = {
            f.name: getattr(limits, f.name) for f in dataclass_fields(SearchLimits)
        }
        if base["time_limit"] is None:
            base["time_limit"] = _FOREVER
        limits = _CancellableLimits(**base, cancel_event=cancel_event)
    _WORKER_CTX = (gcs, config, limits, symmetry_prev, faults)


def _procpool_task(index: int) -> RootTaskResult:
    gcs, config, limits, symmetry_prev, faults = _WORKER_CTX
    log = current_log()
    if log is not None:
        # Logged *before* the fault hook so a ``die`` rule still leaves
        # this worker's line behind — the crash-recovery sequence stays
        # reconstructable from the log alone.
        log.emit("procpool.task", index=index)
    if faults is not None:
        # Fault-injection hook (``procpool.task.<index>``): a ``die``
        # rule here makes this worker vanish mid-batch, producing the
        # real BrokenProcessPool that run_partitioned must survive.
        faults.reach(f"procpool.task.{index}")
    task = RootTask(index, gcs.cs.candidates[0][index])
    with span("worker.task", index=index, vertex=task.vertex):
        return run_root_task(gcs, task, config, limits, symmetry_prev)


def run_partitioned(
    gcs: GuardedCandidateSpace,
    config: GuPConfig,
    limits: SearchLimits,
    workers: int,
    symmetry_prev: Optional[Sequence[int]] = None,
    faults=None,
    task_collector: Optional[List[dict]] = None,
) -> Tuple[List[Tuple[int, ...]], TerminationStatus, SearchStats]:
    """Root-partitioned search over a process pool.

    Returns ``(raw_embeddings, status, merged_stats)`` with the same
    contract as ``GuPSearch.run()`` plus the merged stats, so
    :meth:`repro.core.engine.GuPEngine.match` can treat the pool as a
    drop-in search step (symmetry expansion and embedding translation
    stay in one place).  Results are independent of ``workers``.

    **Worker-crash recovery** (DESIGN.md §10): a worker process dying
    mid-batch (segfault, OOM kill, injected ``die`` fault) surfaces as
    :class:`BrokenProcessPool`.  The pool is respawned **once**, results
    already returned by healthy workers are kept, and only the
    unfinished root partitions are re-run — the merged outcome is
    provably identical to an uninterrupted run because
    :func:`merge_root_results` is a pure function of the per-task
    results, whichever pool produced them.  A second breakage
    propagates (the failure is then systematic, not transient).

    ``faults`` is an optional :class:`repro.service.faults.FaultPlan`
    shipped to the first pool's workers (hook ``procpool.task.<i>``);
    the respawned pool runs fault-free, modeling a transient crash.

    ``task_collector`` (a list) receives one summary dict per executed
    root task, in root order — the per-partition wall-clock attribution
    EXPLAIN ANALYZE reports.  Observation only; results are unchanged.
    """
    # Observability context of the calling thread: the trace id always
    # travels; the structured log only when path-backed (an in-memory
    # log cannot report back across the process boundary).  The current
    # span (the engine's search span) rides along as the parent for the
    # workers' task spans.
    trace = current_trace()
    log = current_log()
    fields = current_fields()
    parent_span = current_span()
    obs_ctx = None
    if trace is not None or log is not None or fields:
        obs_ctx = (
            trace, log if log is not None and log.path else None, fields,
            parent_span,
        )

    tasks = root_partition(gcs)
    if not tasks or gcs.cs.is_empty():
        stats = SearchStats()
        stats.candidate_vertices = gcs.cs.total_candidates()
        stats.candidate_edges = gcs.cs.num_candidate_edges
        return [], TerminationStatus.COMPLETE, stats
    symmetry_prev = tuple(symmetry_prev) if symmetry_prev is not None else None

    # Early-stop condition, mirroring merge_root_results: once the tasks
    # collected so far satisfy the cap (or one timed out), every later
    # task is speculative work the merge would discard anyway.
    stop = (
        None
        if limits.max_embeddings is None
        else max(limits.max_embeddings, 1)
    )

    def merge_would_break(found: int, result: RootTaskResult) -> bool:
        return (
            stop is not None and found >= stop
        ) or result.status is TerminationStatus.TIMEOUT

    def collect_tasks(results: Sequence[RootTaskResult]) -> None:
        if task_collector is None:
            return
        roots = gcs.cs.candidates[0]
        for result in sorted(results, key=lambda r: r.index):
            task_collector.append({
                "index": result.index,
                "vertex": roots[result.index],
                "elapsed_seconds": round(result.elapsed_seconds, 6),
                "embeddings_found": result.stats.embeddings_found,
                "recursions": result.stats.recursions,
                "status": result.status.value,
            })

    if workers <= 1 or len(tasks) == 1:
        results: List[RootTaskResult] = []
        found = 0
        for task in tasks:
            result = run_root_task(gcs, task, config, limits, symmetry_prev)
            results.append(result)
            found += result.stats.embeddings_found
            if merge_would_break(found, result):
                break
        collect_tasks(results)
        return merge_root_results(results, gcs, limits)

    completed: Dict[int, RootTaskResult] = {}

    def prefix_decided() -> bool:
        """Whether the contiguous completed prefix already satisfies the
        merge's stopping condition (cap reached / timeout surfaced) —
        everything past it is speculative work the merge discards.
        Walking the *contiguous* prefix keeps the early stop exact even
        when a respawn harvested results out of root order."""
        found = 0
        for task in tasks:
            result = completed.get(task.index)
            if result is None:
                return False
            found += result.stats.embeddings_found
            if merge_would_break(found, result):
                return True
        return True  # every task completed

    respawned = False
    round_faults = faults
    while True:
        round_tasks = [t for t in tasks if t.index not in completed]
        if not round_tasks or prefix_decided():
            break
        cancel_event = multiprocessing.Event()
        broke = False
        with ProcessPoolExecutor(
            max_workers=min(workers, len(round_tasks)),
            initializer=_procpool_init,
            initargs=(
                gcs, config, limits, symmetry_prev, cancel_event,
                round_faults, obs_ctx,
            ),
        ) as pool:
            # One future per task: idle workers drain the shared queue in
            # submission order — dynamic dispatch, no static assignment.
            futures = {
                task.index: pool.submit(_procpool_task, task.index)
                for task in round_tasks
            }
            # Consume in root (= submission) order so the early stop
            # fires as soon as the merge's prefix is decided; queued
            # speculative tasks are cancelled and running ones are
            # signalled to abort via the cancel event — results stay
            # deterministic because the merge never reads past the
            # break point.
            try:
                for index in sorted(futures):
                    completed[index] = futures[index].result()
                    if prefix_decided():
                        cancel_event.set()
                        pool.shutdown(cancel_futures=True)
                        break
            except BrokenProcessPool:
                if respawned:
                    raise
                broke = True
                # Keep every result a healthy worker already returned;
                # only the genuinely unfinished partitions re-run.
                for index, future in futures.items():
                    if (
                        index in completed
                        or not future.done()
                        or future.cancelled()
                    ):
                        continue
                    try:
                        completed[index] = future.result()
                    except BaseException:  # noqa: BLE001 - the breakage
                        pass
        if not broke:
            break
        respawned = True
        round_faults = None  # the injected crash models a one-shot failure
        rerun = sum(1 for t in tasks if t.index not in completed)
        POOL_COUNTERS.inc("respawns")
        POOL_COUNTERS.inc("tasks_rerun", rerun)
        if log is not None:
            log.emit("procpool.respawn", trace=trace, tasks_rerun=rerun)
    collect_tasks(list(completed.values()))
    return merge_root_results(list(completed.values()), gcs, limits)


def match_parallel(
    query: Graph,
    data: Graph,
    workers: int,
    config: Optional[GuPConfig] = None,
    limits: Optional[SearchLimits] = None,
) -> MatchResult:
    """One-shot process-parallel GuP matching of a single query.

    Equivalent to ``GuPEngine(data, config).match(query, limits,
    workers=workers)`` — embeddings, counts, and status are identical to
    the sequential engine (``tests/test_parallel_exact.py``).
    """
    from repro.core.engine import GuPEngine

    return GuPEngine(data, config).match(query, limits=limits, workers=workers)


# ----------------------------------------------------------------------
# Batch workers (inter-query parallelism)
# ----------------------------------------------------------------------

_BATCH_ENGINE = None
"""Per-worker engine, bound once to the data graph by the initializer."""


def _batch_init(data: Graph, config: GuPConfig) -> None:
    global _BATCH_ENGINE
    from repro.core.engine import GuPEngine

    _BATCH_ENGINE = GuPEngine(data, config)
    # Build the data-side filter artifacts (label/degree buckets,
    # bitmaps) once per worker; every task of this worker reuses them.
    _BATCH_ENGINE.artifacts


def _batch_task(
    index: int, query: Graph, limits: SearchLimits
) -> Tuple[int, MatchResult]:
    return index, _BATCH_ENGINE.match(query, limits=limits)


def batch_match(
    data: Graph,
    config: GuPConfig,
    queries: Sequence[Graph],
    limits: SearchLimits,
    workers: int,
) -> List[MatchResult]:
    """Match a query set against one data graph over a process pool.

    The data graph and config are shipped to each worker once
    (initializer); each task ships one query graph and returns its
    :class:`MatchResult`.  Queries are dispatched dynamically, results
    are returned in input order.  Each query runs the ordinary
    sequential engine, so per-query results are bit-identical to
    ``GuPEngine.match``.
    """
    queries = list(queries)
    if not queries:
        return []
    with ProcessPoolExecutor(
        max_workers=min(workers, len(queries)),
        initializer=_batch_init,
        initargs=(data, config),
    ) as pool:
        futures = [
            pool.submit(_batch_task, i, query, limits)
            for i, query in enumerate(queries)
        ]
        out: List[Optional[MatchResult]] = [None] * len(queries)
        for future in futures:
            index, result = future.result()
            out[index] = result
    return out
