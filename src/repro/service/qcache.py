"""Query canonicalization and the isomorphism-aware result cache.

Real matching workloads repeat themselves: the same handful of query
*shapes* arrives over and over, usually with the vertices numbered
differently by whatever produced them.  This module gives every labeled
query graph a **canonical form** so isomorphic queries share one cache
slot:

* **Color refinement** (1-WL): vertices start colored by label and are
  repeatedly split by the multiset of neighbor colors until stable.
  This alone distinguishes most query graphs but is not complete.
* **Backtracking canonical labeling** (individualization-refinement):
  when refinement leaves non-singleton color classes, the smallest
  class is individualized vertex by vertex and refined again, exploring
  every branch; the lexicographically smallest edge encoding over all
  discrete leaves is the canonical form.  This is exact — two graphs
  get the same key *iff* they are isomorphic — and cheap for the small
  query graphs of this workload (≤ a few dozen vertices).  A node
  budget bounds the worst case (highly symmetric same-label graphs);
  on overrun the key degrades to the exact graph encoding (identical
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
order-identical to a direct run.  Time and
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
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, SearchStats, TerminationStatus
from repro.obs.metrics import CounterGroup

DEFAULT_LEAF_BUDGET = 4096
"""Individualization-refinement node budget before falling back to the
exact-encoding key.  Generous for real query sets: an 8-vertex query
explores a handful of nodes; only pathological same-label cliques blow
up, and those fall back soundly."""


# ----------------------------------------------------------------------
# Color refinement + canonical labeling
# ----------------------------------------------------------------------


def _label_sort_key(label: object) -> Tuple[str, str]:
    """Deterministic, cross-type, cross-process ordering for labels."""
    return (type(label).__name__, repr(label))


def _initial_colors(graph: Graph) -> List[int]:
    palette = {
        label: i
        for i, label in enumerate(sorted(set(graph.labels), key=_label_sort_key))
    }
    return [palette[label] for label in graph.labels]


def refine_colors(graph: Graph, colors: Optional[List[int]] = None) -> List[int]:
    """Stable 1-WL coloring (dense ints, deterministic numbering).

    Starting colors default to the label classes.  Each round recolors a
    vertex by ``(color, sorted multiset of neighbor colors)`` and
    re-ranks densely; refinement only ever splits classes, so the loop
    stabilizes within ``num_vertices`` rounds.
    """
    if colors is None:
        colors = _initial_colors(graph)
    n = graph.num_vertices
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in graph.neighbors(v))))
            for v in range(n)
        ]
        ranks = {
            signature: rank
            for rank, signature in enumerate(sorted(set(signatures)))
        }
        refined = [ranks[signature] for signature in signatures]
        if refined == colors:
            return colors
        colors = refined


class _BudgetExceeded(Exception):
    pass


def _leaf_encoding(
    graph: Graph, colors: List[int]
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """(perm, canonical edge list) for a discrete coloring.

    ``perm[p]`` is the vertex at canonical position ``p`` (= the vertex
    with color ``p``: discrete refined colors are dense ranks).
    """
    perm = sorted(range(graph.num_vertices), key=colors.__getitem__)
    position = [0] * graph.num_vertices
    for p, v in enumerate(perm):
        position[v] = p
    edges = sorted(
        (min(position[u], position[v]), max(position[u], position[v]))
        for u, v in graph.edges()
    )
    return tuple(perm), tuple(edges)


def _canonical_search(
    graph: Graph, budget: int
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """Exhaustive individualization-refinement; smallest encoding wins.

    Raises :class:`_BudgetExceeded` past ``budget`` visited nodes.
    """
    best: Optional[Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]] = None
    nodes = 0

    def descend(colors: List[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        cells: Dict[int, List[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target: Optional[List[int]] = None
        for c in sorted(cells):
            cell = cells[c]
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
        if target is None:  # discrete: a leaf
            perm, edges = _leaf_encoding(graph, colors)
            if best is None or edges < best[0]:
                best = (edges, perm)
            return
        for v in target:
            individualized = [2 * c for c in colors]
            individualized[v] += 1
            descend(refine_colors(graph, individualized))

    descend(refine_colors(graph))
    assert best is not None
    return best[1], best[0]


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
    graph: Graph, leaf_budget: int = DEFAULT_LEAF_BUDGET
) -> CanonicalForm:
    """Canonical form of ``graph`` (see module docstring).

    Falls back to the exact-encoding key (identical numbering only, with
    the identity witness) when the canonical search exceeds
    ``leaf_budget`` nodes.
    """
    n = graph.num_vertices
    try:
        perm, edges = _canonical_search(graph, leaf_budget)
    except _BudgetExceeded:
        identity = tuple(range(n))
        key = (
            "exact",
            n,
            graph.labels,
            tuple(sorted(graph.edges())),
        )
        return CanonicalForm(key, identity, False)
    labels = tuple(graph.label(v) for v in perm)
    return CanonicalForm(("canon", n, labels, edges), perm, True)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class _Entry:
    """One cached enumeration, stored in its producer's numbering."""

    __slots__ = ("perm", "embeddings", "total", "complete", "cap", "stats",
                 "has_embeddings")

    def __init__(
        self,
        perm: Tuple[int, ...],
        embeddings: Optional[List[Tuple[int, ...]]],
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
    """

    def __init__(
        self,
        max_entries: int = 256,
        leaf_budget: int = DEFAULT_LEAF_BUDGET,
        cap_serving: bool = True,
    ) -> None:
        self.max_entries = max_entries
        self.leaf_budget = leaf_budget
        self.cap_serving = cap_serving
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
        self, query: Graph, limits: SearchLimits
    ) -> Tuple[Optional[MatchResult], CanonicalForm]:
        """Serve ``query`` from cache if possible.

        Returns ``(result, form)``; ``result`` is ``None`` on a miss and
        ``form`` should be passed back to :meth:`store` after the engine
        runs, so canonicalization happens once per request.
        """
        form = canonical_form(query, self.leaf_budget)
        with self._lock:
            if not form.exact:
                self.counters["inexact_keys"] += 1
            entry = self._entries.get(form.key)
            if entry is None:
                self.counters["misses"] += 1
                return None, form
            served = self._serve(entry, form, limits)
            if served is None:
                self.counters["misses"] += 1
                return None, form
            self._entries.move_to_end(form.key)
            self.counters["hits"] += 1
            return served, form

    def peek(self, query: Graph, limits: SearchLimits) -> Dict[str, object]:
        """EXPLAIN's view of the serve decision — observe, never serve.

        Mirrors :meth:`_serve`'s decision logic without materializing
        embeddings, bumping any counter, or touching LRU order, so an
        EXPLAIN (plan) request reports exactly what a real request would
        get from the cache while leaving the cache byte-identical.
        """
        form = canonical_form(query, self.leaf_budget)
        with self._lock:
            entry = self._entries.get(form.key)
            report: Dict[str, object] = {"exact_key": form.exact}
            if entry is None:
                report.update(decision="miss", reason="absent")
                return report
            report.update(
                entry_complete=entry.complete,
                cached_embeddings=entry.total,
            )
            cap = limits.max_embeddings
            stop = None if cap is None else max(cap, 1)
            if limits.collect and not entry.has_embeddings:
                report.update(decision="miss", reason="count_only_entry")
            elif entry.complete:
                if stop is not None and entry.total >= stop:
                    if self.cap_serving:
                        report.update(
                            decision="hit", served="truncated",
                            num_embeddings=stop,
                        )
                    else:
                        report.update(
                            decision="miss", reason="cap_serving_disabled"
                        )
                else:
                    report.update(
                        decision="hit", served="complete",
                        num_embeddings=entry.total,
                    )
            elif stop is None:
                report.update(
                    decision="miss", reason="truncated_entry_uncapped_request"
                )
            elif not self.cap_serving:
                report.update(decision="miss", reason="cap_serving_disabled")
            elif stop > max(entry.cap or 0, 1):
                report.update(
                    decision="miss", reason="cached_truncation_too_short"
                )
            else:
                report.update(
                    decision="hit", served="truncated", num_embeddings=stop
                )
            return report

    def store(
        self,
        form: CanonicalForm,
        limits: SearchLimits,
        result: MatchResult,
    ) -> bool:
        """Offer a fresh engine result for caching.

        Only deterministic, reproducible outcomes are kept (see module
        docstring): ``COMPLETE`` runs always; ``EMBEDDING_LIMIT`` runs
        as truncated-at-cap entries when they materialized exactly their
        ``num_embeddings``; ``TIMEOUT`` runs never.  Returns whether the
        result was stored.
        """
        entry = self._make_entry(form, limits, result)
        with self._lock:
            if entry is None:
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

    def invalidate_labels(self, touched_labels) -> Tuple[int, int]:
        """Selective invalidation after a data-graph delta.

        Evicts exactly the entries whose query label set intersects
        ``touched_labels``; every other entry provably survives the
        delta: an embedding gains or loses validity only through a
        changed data edge or an added vertex, whose (touched) label
        some query vertex would have to carry.  Both canonical and
        exact-encoding cache keys store the query's label tuple at a
        fixed position, so the test reads no graphs.  Returns
        ``(kept, evicted)``.
        """
        touched = frozenset(touched_labels)
        kept = evicted = 0
        with self._lock:
            self.counters["delta_invalidations"] += 1
            for key in list(self._entries):
                # key == ("canon" | "exact", n, labels, edges)
                if touched.intersection(key[2]):
                    del self._entries[key]
                    evicted += 1
                else:
                    kept += 1
            self.counters["delta_kept"] += kept
            self.counters["delta_evicted"] += evicted
        return kept, evicted

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
        stats = replace(result.stats)
        if result.status is TerminationStatus.COMPLETE:
            if limits.collect:
                if result.num_embeddings != len(result.embeddings):
                    return None
                embeddings: Optional[List[Tuple[int, ...]]] = [
                    tuple(e) for e in result.embeddings
                ]
            else:
                embeddings = None
            return _Entry(
                form.perm, embeddings, result.num_embeddings, True, None, stats
            )
        # EMBEDDING_LIMIT: keep only fully-materialized prefix runs.
        if not limits.collect or limits.max_embeddings is None:
            return None
        if result.num_embeddings != len(result.embeddings):
            return None  # e.g. symmetry expansion: prefix not materialized
        return _Entry(
            form.perm,
            [tuple(e) for e in result.embeddings],
            result.num_embeddings,
            False,
            limits.max_embeddings,
            stats,
        )

    def _serve(
        self, entry: _Entry, form: CanonicalForm, limits: SearchLimits
    ) -> Optional[MatchResult]:
        cap = limits.max_embeddings
        # The engine checks the cap after recording, so cap=0 still
        # yields the first embedding; mirror that stop threshold.
        stop = None if cap is None else max(cap, 1)
        if entry.complete:
            if stop is not None and entry.total >= stop:
                if not self.cap_serving:
                    return None
                count, status = stop, TerminationStatus.EMBEDDING_LIMIT
            else:
                count, status = entry.total, TerminationStatus.COMPLETE
        else:
            if stop is None or not self.cap_serving:
                return None
            if stop > max(entry.cap or 0, 1):
                return None  # cached truncation is shorter than requested
            count, status = stop, TerminationStatus.EMBEDDING_LIMIT
        if limits.collect and not entry.has_embeddings:
            return None

        embeddings: List[Tuple[int, ...]] = []
        if limits.collect:
            embeddings = entry.embeddings[:count]
            mapping = self._compose(entry.perm, form.perm)
            if mapping is not None:  # None: identity, the exact repeat
                self.counters["translated_hits"] += 1
                embeddings = list(map(itemgetter(*mapping), embeddings))
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
