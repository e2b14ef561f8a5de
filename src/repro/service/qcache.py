"""Query canonicalization and the isomorphism-aware result cache.

Real matching workloads repeat themselves: the same handful of query
*shapes* arrives over and over, usually with the vertices numbered
differently by whatever produced them.  This module gives every labeled
query graph a **canonical form** so isomorphic queries share one cache
slot:

* **Partition refinement**: vertices start in one cell per label, and
  cells are split by neighbour counts into other cells until every
  vertex of a cell has the same number of neighbours in each cell (an
  equitable partition, as in nauty/Traces: McKay and Piperno,
  "Practical graph isomorphism, II", J. Symbolic Computation 2014).
  Its cells are the classes of 1-WL color refinement; this alone
  distinguishes most query graphs but is not complete.
* **Backtracking canonical labeling** (individualization-refinement):
  when refinement leaves non-singleton cells, the first smallest cell
  is individualized vertex by vertex and refined again, exploring
  every branch; the smallest edge encoding over all discrete leaves is
  the canonical form.  This is exact — two graphs get the same key
  *iff* they are isomorphic — and cheap for the small query graphs of
  this workload (≤ a few dozen vertices).  A budget of search steps
  bounds the worst case (highly symmetric same-label graphs); on
  overrun the key degrades to the exact graph encoding (identical
  numbering only), which is still sound, merely less shared.

Cache-cap semantics (:class:`QueryCache`): the engine's
``max_embeddings`` truncation is *prefix-exact* — a capped run returns
exactly the first ``max(cap, 1)`` embeddings of the full deterministic
enumeration (DESIGN.md §6).  Therefore a cached **complete** enumeration
can serve any lower cap by slicing — for an identically-numbered repeat
this reproduces the capped run bit for bit — while a cached
**truncated** run (at cap ``C``) can only serve requests with cap ≤
``C``; higher caps are cache misses.  A *merely-isomorphic* hit serves
the representative's enumeration translated through the witness
isomorphism: exact as a set when complete, and a valid prefix
(cap-many correct, distinct embeddings) when capped — enumeration
order is numbering-dependent, so only same-numbering repeats can be
order-identical to a direct run.  An entry holds its enumeration as
the reply frame (:mod:`repro.service.wire`), packed once, so a hit is
a prefix slice of that frame (zero-copy for a same-numbering repeat)
and a translated hit is a column permutation of the slice.  Time and
recursion budgets never *invalidate* a cached answer (a budget caps
effort, and the cached answer is already computed), but a run that was
*killed* by one (``TIMEOUT``) proves nothing and is never cached.

One :class:`QueryCache` serves one (data graph, config) pair — the
server keeps a cache per catalog entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, SearchStats, TerminationStatus
from repro.obs.metrics import CounterGroup
from repro.service.wire import FrameRows

DEFAULT_BUDGET = 100_000
"""Work budget of the canonical search, in :class:`_Work` steps, before
the key falls back to the exact encoding (about 10 ms of search).  An
8-vertex query spends about a hundred steps and a 32-vertex one a few
thousand; only symmetric same-label graphs exhaust it, and those fall
back soundly."""


# ----------------------------------------------------------------------
# Partition refinement + canonical labeling
# ----------------------------------------------------------------------


def _label_sort_key(label: object) -> Tuple[str, str]:
    """Deterministic, cross-type, cross-process ordering for labels."""
    return (type(label).__name__, repr(label))


class _BudgetExceeded(Exception):
    pass


class _Deferred(Exception):
    pass


class _Work:
    """The canonical search's step count, checked as it grows.

    A step is one neighbour counted against a splitter, one vertex of
    the partition scanned for splits after it, one vertex copied into
    a search node, or one edge encoded at a leaf: each costs a few
    interpreted operations, so steps bound time where a node count
    does not (a node of a large symmetric graph costs many steps).
    Every count is an isomorphism invariant and the search is
    exhaustive, so whether a graph exhausts a budget is too.  Past
    ``budget`` the search falls back (:class:`_BudgetExceeded`); past
    ``defer_past`` it gives up unfinished (:class:`_Deferred`).
    """

    __slots__ = ("done", "budget", "defer_past")

    def __init__(self, budget: int,
                 defer_past: Optional[int] = None) -> None:
        self.done = 0
        self.budget = budget
        self.defer_past = defer_past

    def spend(self, steps: int) -> None:
        self.done += steps
        if self.defer_past is not None and self.done > self.defer_past:
            raise _Deferred
        if self.done > self.budget:
            raise _BudgetExceeded


class _Partition:
    """An ordered partition of the vertices, in the form nauty keeps.

    ``lab`` lists the vertices cell by cell; a cell is named by its
    start index in ``lab``, ``cell[v]`` is the start of ``v``'s cell
    and ``end[s]`` the end of the cell starting at ``s``.  A split
    keeps the first fragment at the old start, so a discrete partition
    numbers every vertex by its canonical position (``cell[v]``), and
    ``lab`` is the witness permutation.
    """

    __slots__ = ("lab", "cell", "end", "cells")

    def __init__(self, lab: List[int], cell: List[int], end: List[int],
                 cells: int) -> None:
        self.lab = lab
        self.cell = cell
        self.end = end
        self.cells = cells

    @classmethod
    def equitable(
        cls, graph: Graph, rows: List[Tuple[int, ...]], work: _Work
    ) -> "_Partition":
        """The coarsest equitable refinement of one cell per label, in
        label order (its cells are the 1-WL color classes)."""
        n = graph.num_vertices
        buckets: Dict[object, List[int]] = {}
        for v, label in enumerate(graph.labels):
            buckets.setdefault(label, []).append(v)
        lab: List[int] = []
        cell = [0] * n
        end = [0] * n
        for label in sorted(buckets, key=_label_sort_key):
            start = len(lab)
            lab += buckets[label]
            end[start] = len(lab)
            for v in buckets[label]:
                cell[v] = start
        part = cls(lab, cell, end, len(buckets))
        part.refine(rows, sorted(set(cell)), work)
        return part

    def individualized(self, start: int, v: int) -> "_Partition":
        """A copy with ``v`` split off the front of its cell ``start``."""
        lab = self.lab[:]
        cell = self.cell[:]
        end = self.end[:]
        i = lab.index(v, start)
        lab[start], lab[i] = v, lab[start]
        rest = start + 1
        end[rest] = end[start]
        end[start] = rest
        for w in lab[rest:end[rest]]:
            cell[w] = rest
        return _Partition(lab, cell, end, self.cells + 1)

    def refine(self, rows: List[Tuple[int, ...]], active: List[int],
               work: _Work) -> None:
        """Split cells by neighbour counts until the partition is
        equitable (every vertex of a cell has as many neighbours in
        each cell as every other).

        ``active`` lists the cells to split against (the splitters);
        the partition must already be equitable against every cell not
        in it.  Each splitter counts, for every vertex, its
        neighbours inside the splitter, and every cell it touches is
        split into fragments of equal count, lowest count first.  A
        split splitter's fragments all become splitters; otherwise all
        but the first largest do, since counts into that one follow
        from the rest (Hopcroft's rule, as in nauty).  Every choice
        reads only cell starts and counts, so the result is an
        isomorphism invariant of the graph and the input partition.
        Stops as soon as the partition is discrete.  A splitter spends
        ``n`` steps on ``work`` for the scan of the cells, plus one
        per neighbour counted.
        """
        lab, cell, end = self.lab, self.cell, self.end
        n = len(lab)
        queued = set(active)
        for s in active:  # grows while it is walked
            if self.cells == n:
                return
            queued.discard(s)
            counts = [0] * n
            steps = n
            for w in lab[s:end[s]]:
                row = rows[w]
                steps += len(row)
                for x in row:
                    counts[x] += 1
            work.spend(steps)
            c = 0
            while c < n:
                e = end[c]
                if e - c == 1:
                    c = e
                    continue
                members = lab[c:e]
                first = counts[members[0]]
                for v in members:
                    if counts[v] != first:
                        break
                else:
                    c = e
                    continue
                groups: Dict[int, List[int]] = {}
                for v in members:
                    groups.setdefault(counts[v], []).append(v)
                fragments = []
                at = c
                for k in sorted(groups):
                    group = groups[k]
                    lab[at:at + len(group)] = group
                    end[at] = at + len(group)
                    for v in group:
                        cell[v] = at
                    fragments.append(at)
                    at += len(group)
                self.cells += len(fragments) - 1
                if c in queued:
                    fresh = fragments[1:]
                else:
                    largest = max(fragments, key=lambda f: end[f] - f)
                    fresh = [f for f in fragments if f != largest]
                active += fresh
                queued.update(fresh)
                c = e

    def target(self) -> Optional[int]:
        """The first smallest non-singleton cell (``None``: discrete)."""
        best = None
        s, n = 0, len(self.lab)
        end = self.end
        while s < n:
            e = end[s]
            if e - s > 1 and (best is None or e - s < end[best] - best):
                best = s
            s = e
        return best


def _canonical_search(
    graph: Graph, work: _Work
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Exhaustive individualization-refinement; smallest encoding wins.

    A leaf's encoding is the sorted list of ``a * n + b`` over the
    edges between canonical positions ``a < b``; every leaf has as
    many edges, so list order compares edge sets.  Returns the winning
    leaf's ``(perm, code)``; raises :class:`_BudgetExceeded` or
    :class:`_Deferred` when ``work`` says so.
    """
    n = graph.num_vertices
    rows = [graph.neighbors(v) for v in range(n)]
    edges = [(u, w) for u in range(n) for w in rows[u] if u < w]
    best: Optional[Tuple[List[int], Tuple[int, ...]]] = None

    def descend(part: _Partition) -> None:
        nonlocal best
        start = part.target()
        if start is None:  # discrete: a leaf
            work.spend(len(edges) + 1)
            position = part.cell
            code = []
            for u, w in edges:
                a, b = position[u], position[w]
                code.append(a * n + b if a < b else b * n + a)
            code.sort()
            if best is None or code < best[0]:
                best = (code, tuple(part.lab))
            return
        for v in part.lab[start:part.end[start]]:
            work.spend(n)
            child = part.individualized(start, v)
            child.refine(rows, [start], work)
            descend(child)

    descend(_Partition.equitable(graph, rows, work))
    assert best is not None
    return best[1], tuple(best[0])


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical key of a labeled query graph plus the witness numbering.

    ``key`` is hashable and — when ``exact`` is true — equal between two
    graphs iff they are isomorphic (respecting labels).  ``perm[p]`` is
    the *original* vertex id occupying canonical position ``p``; it is
    what lets a cached result computed for one representative be
    translated to any isomorphic query's numbering.
    """

    key: Tuple
    perm: Tuple[int, ...]
    exact: bool


def canonical_form(
    graph: Graph,
    budget: int = DEFAULT_BUDGET,
    defer_past: Optional[int] = None,
) -> Optional[CanonicalForm]:
    """Canonical form of ``graph`` (see module docstring).

    Falls back to the exact-encoding key (identical numbering only, with
    the identity witness) when the canonical search spends more than
    ``budget`` steps (:class:`_Work`).  With ``defer_past``, returns
    ``None`` once the search has spent more than that many steps
    without finishing or falling back: a caller that must not wait
    canonicalizes elsewhere, where the answer is the same.
    """
    n = graph.num_vertices
    try:
        perm, code = _canonical_search(graph, _Work(budget, defer_past))
    except _Deferred:
        return None
    except _BudgetExceeded:
        identity = tuple(range(n))
        key = (
            "exact",
            n,
            graph.labels,
            tuple(sorted(graph.edges())),
        )
        return CanonicalForm(key, identity, False)
    labels = tuple([graph.labels[v] for v in perm])
    return CanonicalForm(("canon", n, labels, code), perm, True)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class _Entry:
    """One cached enumeration, stored as its reply frame (a
    :class:`FrameRows`) in its producer's numbering."""

    __slots__ = ("perm", "embeddings", "total", "complete", "cap", "stats",
                 "has_embeddings")

    def __init__(
        self,
        perm: Tuple[int, ...],
        embeddings: Optional[FrameRows],
        total: int,
        complete: bool,
        cap: Optional[int],
        stats: SearchStats,
    ) -> None:
        self.perm = perm
        self.embeddings = embeddings if embeddings is not None else []
        self.has_embeddings = embeddings is not None
        self.total = total
        self.complete = complete
        self.cap = cap
        self.stats = stats

    def rank(self) -> Tuple[int, int, float]:
        """Dominance order: complete+embeddings > complete count-only >
        truncated (higher caps dominate lower)."""
        if self.complete:
            return (1, int(self.has_embeddings), float("inf"))
        return (0, int(self.has_embeddings), float(max(self.cap or 0, 1)))


class QueryCache:
    """LRU cache of match results keyed by query canonical form.

    Thread-safe; one instance per (data graph, config) pair.  Set
    ``cap_serving=False`` when the engine config breaks symmetry: capped
    runs then report ``num_embeddings`` as representatives × orbit size,
    which a sliced cache hit cannot reproduce, so only exact-complete
    hits are served.

    ``epoch`` is the data-graph epoch the entries are valid for
    (``None``: not tracked).  Only :meth:`invalidate_labels` and
    :meth:`reset` move it, and :meth:`store` refuses a result computed
    at any other epoch, under the same lock, so a search that started
    before an update can never put its answer into the cache after the
    update's invalidation.
    """

    def __init__(
        self,
        max_entries: int = 256,
        cap_serving: bool = True,
        epoch: Optional[int] = None,
    ) -> None:
        self.max_entries = max_entries
        self.cap_serving = cap_serving
        self.epoch = epoch
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        # CounterGroup: dict-like, thread-safe, attachable to a metrics
        # registry so /metrics reads the same storage stats() snapshots.
        self.counters = CounterGroup({
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "updates": 0,
            "evictions": 0,
            "uncacheable": 0,
            "translated_hits": 0,
            "inexact_keys": 0,
            "delta_kept": 0,
            "delta_evicted": 0,
            "delta_invalidations": 0,
        })

    # -- public API ----------------------------------------------------

    def lookup(
        self, query: Graph, limits: SearchLimits,
        defer_past: Optional[int] = None,
    ) -> Tuple[Optional[MatchResult], Optional[CanonicalForm]]:
        """Serve ``query`` from cache if possible.

        Returns ``(result, form)``; ``result`` is ``None`` on a miss and
        ``form`` should be passed back to :meth:`store` after the engine
        runs, so canonicalization happens once per request.  With
        ``defer_past``, canonicalization stops past that many steps
        (:func:`canonical_form`) and ``(None, None)`` is returned,
        counted as nothing: the caller looks up again where it may
        wait.
        """
        form = canonical_form(query, defer_past=defer_past)
        if form is None:
            return None, None
        with self._lock:
            if not form.exact:
                self.counters["inexact_keys"] += 1
            served = self._serve(self._entries.get(form.key), form, limits)
            if served is None:
                self.counters["misses"] += 1
                return None, form
            self._entries.move_to_end(form.key)
            self.counters["hits"] += 1
            return served, form

    def peek(self, query: Graph, limits: SearchLimits) -> Dict[str, object]:
        """EXPLAIN's view of the serve decision — observe, never serve.

        Takes :meth:`_decide`'s decision, the one :meth:`_serve` acts
        on, without materializing embeddings, bumping any counter, or
        touching LRU order, so an EXPLAIN (plan) request reports exactly
        what a real request would get from the cache while leaving the
        cache byte-identical.
        """
        form = canonical_form(query)
        with self._lock:
            entry = self._entries.get(form.key)
            report: Dict[str, object] = {"exact_key": form.exact}
            if entry is not None:
                report.update(
                    entry_complete=entry.complete,
                    cached_embeddings=entry.total,
                )
            count, status = self._decide(entry, limits)
            if count is None:
                report.update(decision="miss", reason=status)
            else:
                report.update(
                    decision="hit",
                    served="complete"
                    if status is TerminationStatus.COMPLETE
                    else "truncated",
                    num_embeddings=count,
                )
            return report

    def store(
        self,
        form: CanonicalForm,
        limits: SearchLimits,
        result: MatchResult,
        epoch: Optional[int] = None,
    ) -> bool:
        """Offer a fresh engine result for caching.

        Only deterministic, reproducible outcomes are kept (see module
        docstring): ``COMPLETE`` runs always; ``EMBEDDING_LIMIT`` runs
        as truncated-at-cap entries when they materialized exactly their
        ``num_embeddings``; ``TIMEOUT`` runs never.  ``epoch`` is the
        data-graph epoch the engine ran at: a result from an epoch other
        than :attr:`epoch` is refused (an older one is stale; a newer
        one is ahead of an invalidation this cache has not seen yet).
        A refusal counts as ``uncacheable``.  Returns whether the result
        was stored.
        """
        entry = self._make_entry(form, limits, result)
        with self._lock:
            if entry is None or (
                epoch is not None and self.epoch is not None
                and epoch != self.epoch
            ):
                self.counters["uncacheable"] += 1
                return False
            existing = self._entries.get(form.key)
            if existing is not None and existing.rank() >= entry.rank():
                self._entries.move_to_end(form.key)
                return False
            if existing is None:
                self.counters["puts"] += 1
            else:
                self.counters["updates"] += 1
            self._entries[form.key] = entry
            self._entries.move_to_end(form.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.counters["evictions"] += 1
            return True

    def invalidate_labels(
        self, touched_labels, epoch: Optional[int] = None
    ) -> Tuple[int, int]:
        """Selective invalidation after a data-graph delta.

        Evicts exactly the entries whose query label set intersects
        ``touched_labels``; every other entry provably survives the
        delta: an embedding gains or loses validity only through a
        changed data edge or an added vertex, whose (touched) label
        some query vertex would have to carry.  Both canonical and
        exact-encoding cache keys store the query's label tuple at a
        fixed position, so the test reads no graphs.  ``epoch`` is the
        delta's new epoch, which the entries are valid for afterwards;
        when the cache was not at the epoch just before it, some delta
        went unseen and every entry is evicted.  Returns ``(kept,
        evicted)``.
        """
        touched = frozenset(touched_labels)
        kept = evicted = 0
        with self._lock:
            self.counters["delta_invalidations"] += 1
            unseen = epoch is not None and self.epoch is not None \
                and epoch != self.epoch + 1
            if epoch is not None:
                self.epoch = epoch
            for key in list(self._entries):
                # key == ("canon" | "exact", n, labels, edges)
                if unseen or touched.intersection(key[2]):
                    del self._entries[key]
                    evicted += 1
                else:
                    kept += 1
            self.counters["delta_kept"] += kept
            self.counters["delta_evicted"] += evicted
        return kept, evicted

    def reset(self, epoch: int) -> None:
        """Make the cache valid for ``epoch``: when it is not already,
        every entry is dropped (a reload or an overwrite changed the
        graph by more than a delta the cache saw)."""
        with self._lock:
            if epoch != self.epoch:
                self._entries.clear()
                self.epoch = epoch

    def stats(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self.counters)
            out["entries"] = len(self._entries)
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals -----------------------------------------------------

    def _make_entry(
        self, form: CanonicalForm, limits: SearchLimits, result: MatchResult
    ) -> Optional[_Entry]:
        if result.status is TerminationStatus.TIMEOUT:
            return None
        complete = result.status is TerminationStatus.COMPLETE
        # A truncated run is kept only as a fully-materialized prefix.
        if not complete and (
            not limits.collect or limits.max_embeddings is None
        ):
            return None
        rows = None
        if limits.collect:
            if result.num_embeddings != len(result.embeddings):
                return None  # e.g. symmetry expansion: not materialized
            # Packed once: a result the server packed for its reply is
            # already a view, and its frame is stored as it is.
            rows = FrameRows.pack(result.embeddings)
        return _Entry(
            form.perm, rows, result.num_embeddings, complete,
            None if complete else limits.max_embeddings,
            replace(result.stats),
        )

    def _decide(
        self, entry: Optional[_Entry], limits: SearchLimits
    ) -> Tuple[Optional[int], object]:
        """Whether ``entry`` (``None``: no entry for the key) can answer
        ``limits``: ``(count, status)`` to serve, or ``(None, reason)``
        for a miss."""
        if entry is None:
            return None, "absent"
        cap = limits.max_embeddings
        # The engine checks the cap after recording, so cap=0 still
        # yields the first embedding; mirror that stop threshold.
        stop = None if cap is None else max(cap, 1)
        if limits.collect and not entry.has_embeddings:
            return None, "count_only_entry"
        if entry.complete and (stop is None or entry.total < stop):
            return entry.total, TerminationStatus.COMPLETE
        if stop is None:
            return None, "truncated_entry_uncapped_request"
        if not self.cap_serving:
            return None, "cap_serving_disabled"
        if not entry.complete and stop > max(entry.cap or 0, 1):
            return None, "cached_truncation_too_short"
        return stop, TerminationStatus.EMBEDDING_LIMIT

    def _serve(
        self, entry: Optional[_Entry], form: CanonicalForm,
        limits: SearchLimits,
    ) -> Optional[MatchResult]:
        count, status = self._decide(entry, limits)
        if count is None:
            return None
        embeddings: Sequence[Tuple[int, ...]] = []
        if limits.collect:
            # Prefix-exact caps: the first ``count`` rows of the frame.
            embeddings = entry.embeddings.prefix(count)
            mapping = self._compose(entry.perm, form.perm)
            if mapping is not None:  # None: identity, the exact repeat
                self.counters["translated_hits"] += 1
                embeddings = embeddings.permuted(mapping)
        return MatchResult(
            embeddings=embeddings,
            num_embeddings=count,
            status=status,
            elapsed_seconds=0.0,
            stats=replace(entry.stats),
            preprocessing_seconds=0.0,
            method="GuP",
        )

    @staticmethod
    def _compose(
        entry_perm: Tuple[int, ...], query_perm: Tuple[int, ...]
    ) -> Optional[List[int]]:
        """``mapping[u_query] = u_entry`` via the shared canonical form.

        Both perms map canonical position → vertex; composing the
        inverse of the query's with the entry's carries an embedding
        indexed by entry vertices to one indexed by query vertices.
        Returns ``None`` for the identity (no translation needed).
        """
        if entry_perm == query_perm:
            return None
        n = len(query_perm)
        position = [0] * n
        for p, u in enumerate(query_perm):
            position[u] = p
        return [entry_perm[position[u]] for u in range(n)]
