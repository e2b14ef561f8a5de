"""Reference list-based guarded backtracking (the seed implementation).

This is the pre-dense-index implementation of Algorithm 2, kept verbatim
as a **test oracle**: local candidate sets are Python lists and
refinement visits every surviving candidate.  Next to it lives the seed
set/dict GCS pipeline (:func:`build_gcs_set`) and
:class:`ReferenceEngine`, a :class:`~repro.core.engine.GuPEngine` that
builds with the set pipeline and searches sequentially with
:class:`ListGuPSearch`.  Production never imports this module; it exists
for two reasons:

* the differential tests (``tests/test_bitmap_cs.py``,
  ``tests/test_build_masks.py``, ``tests/test_config_matrix.py``) prove
  the production search in :mod:`repro.core.backtrack` and the mask
  builder in :mod:`repro.filtering.masks` return byte-identical GCSes,
  embeddings, stats, and termination status (production's edge-nogood
  record count omits :attr:`ListGuPSearch.dead_edge_records`);
* the hot-path and build-path benchmarks (``benchmarks/bench_hotpath.py``,
  ``benchmarks/bench_buildpath.py``) measure production's speedup
  against these baselines.

Algorithmic documentation lives in :mod:`repro.core.backtrack`; the two
modules implement the same search over different candidate
representations.

This module implements the search step of GuP: local-candidate
refinement (Definition 3.18), bounding sets (Definition 3.19), the four
conflict kinds and their masks (Definitions 3.22/3.23), deadend masks
(Definition 3.26), fixed deadend masks for edge guards (Definition 3.30),
nogood recording in search-node encoding (§3.5.1), and backjumping
(Algorithm 2, line 14).

Query-vertex sets are ``int`` bitmasks throughout (bit ``i`` = ``u_i``).

Fixed-deadend-mask propagation
------------------------------
Every candidate edge from the assignment just made, ``(u_k, v)``, to a
forward candidate ``(u_j, v')`` is *watched* while the child subtree is
explored.  Definition 3.30 collapses as follows (see DESIGN.md §3):

* if ``v'`` is dropped from the local candidates of ``u_j`` while the
  watch is live, the whole subtree below the drop has fixed mask
  ``{u_l}`` (adjacency drop, case 4) or ``dom(NE) ∪ {u_l}`` (guard drop,
  case 5), where ``u_l`` is the dropping assignment;
* at depth ``j`` the watched pair resolves to
  ``deadend_mask(M ⊕ v') \\ {u_j}`` — case (1) gives every child of the
  depth-``j`` node this same value, so case (6) always fires there;
* interior nodes combine children values exactly like Definition 3.26:
  an early child value without the node's own bit wins (case 6),
  otherwise the union of children values plus the bounding set, minus
  the node's bit (case 7);
* a pair contained in any full embedding of the subtree is never
  recorded (case 2);
* on a backjump with mask ``K``, ``M[K]`` is a nogood contained in the
  current embedding, so every live pair soundly resolves to ``K``.

When the search aborts (embedding cap / timeout), subtrees are no longer
exhaustively explored and prove nothing: all recording stops immediately
and the recursion unwinds.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.backtrack import _recurse
from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.core.gcs import (
    BuildInvariantCache,
    GuardedCandidateSpace,
    finish_gcs,
)
from repro.core.nogood import NogoodStore, make_nogood_store
from repro.filtering.candidate_space import build_candidate_space
from repro.filtering.nlf import nlf_candidates
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.result import SearchStats, TerminationStatus
from repro.ordering.base import make_order
from repro.utils.bitset import mask_of
from repro.utils.timer import Deadline

Pair = Tuple[int, int]
_EMPTY_DICT: Dict[Pair, int] = {}
_EMPTY_SET: Set[Pair] = set()


class ListGuPSearch:
    """One guarded backtracking run over a GCS.

    Not reusable: construct a fresh instance per query (the nogood
    store, the search-node counter, and all counters are per-run state).
    """

    def __init__(
        self,
        gcs: GuardedCandidateSpace,
        config: Optional[GuPConfig] = None,
        limits: Optional[SearchLimits] = None,
        nogoods: Optional[NogoodStore] = None,
        max_watches: int = 100_000,
        observer: Optional[object] = None,
        symmetry_prev: Optional[Sequence[int]] = None,
    ) -> None:
        """``observer``, when given, receives search events — see
        :class:`repro.analysis.trace.SearchObserver` for the protocol.
        Tracing is for analysis/visualization; it does not alter the
        search.

        ``symmetry_prev`` (from :mod:`repro.core.symmetry`) enforces
        strictly increasing images inside query equivalence classes:
        ``symmetry_prev[k] = p >= 0`` demands ``M(u_k) > M(u_p)``.  The
        search then enumerates class representatives only (the engine
        expands them back)."""
        self.gcs = gcs
        self._observer = observer
        self.config = config or GuPConfig()
        self.limits = limits or SearchLimits()
        self.stats = SearchStats()
        self.stats.candidate_vertices = gcs.cs.total_candidates()
        self.stats.candidate_edges = gcs.cs.num_candidate_edges

        query = gcs.query
        self._n = query.num_vertices
        self._forward: List[Tuple[int, ...]] = [
            tuple(j for j in query.neighbors(i) if j > i) for i in query.vertices()
        ]
        # Forward neighbors whose query edge lies in the 2-core: the only
        # edges on which NE guards are generated and tested (§3.3.3).
        self._forward_core: List[FrozenSet[int]] = [
            frozenset(j for j in self._forward[i] if gcs.edge_in_two_core(i, j))
            for i in query.vertices()
        ]
        self._data = gcs.data
        # Reservation index keyed by vertex: this search iterates
        # candidate vertices, not positions.
        tables = gcs.reservations if self.config.use_reservation else []
        self._reservations_at: List[Optional[Dict[int, FrozenSet[int]]]] = [
            {cands[p]: guard for p, guard in table.items()}
            for cands, table in zip(gcs.cs.candidates, tables)
        ] or [None] * self._n
        # Always a fresh store unless the caller supplies one: encoded
        # nogoods reference this run's search-node ids, so guards from a
        # previous run over the same GCS would match spuriously.
        if nogoods is not None:
            self._nogoods = nogoods
        else:
            self._nogoods = make_nogood_store(self.config.nogood_representation)
            gcs.nogoods = self._nogoods
        self._max_watches = max_watches
        self._symmetry_prev = symmetry_prev
        # Edge records a search-node store can never match: encoded
        # length == recording depth names the recording node, which is
        # past the candidate by then.  This oracle records them anyway;
        # production skips them, and the twin tests subtract this count.
        self._encoded = (
            getattr(self._nogoods, "representation", None) == "search_node"
        )
        self.dead_edge_records = 0

        # Per-run search state.
        self._deadline: Deadline = Deadline(None)
        self._embedding: List[int] = []
        self._image: Dict[int, int] = {}
        self._anc: List[int] = [0] * (self._n + 1)
        self._node_counter = 0
        self._aborted = False
        self._status = TerminationStatus.COMPLETE
        self._results: List[Tuple[int, ...]] = []
        # Watched candidate edges: target query vertex -> v' -> refcount.
        self._watches: Dict[int, Dict[int, int]] = {}
        self._watch_total = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self, root_mask: Optional[int] = None
    ) -> Tuple[List[Tuple[int, ...]], TerminationStatus]:
        """Enumerate embeddings of the (reordered) query.

        ``root_mask`` restricts the root level to the candidates of
        ``u_0`` at the set *positions* of the sorted ``C(u_0)`` — the
        same root-partitioning contract as the bitmap backend's
        :meth:`repro.core.backtrack.GuPSearch.run`.

        Returns the embeddings (in reordered query-vertex numbering —
        the engine translates back) and the termination status.
        """
        if self._n == 0:
            return [()], TerminationStatus.COMPLETE
        if self.gcs.cs.is_empty():
            return [], TerminationStatus.COMPLETE

        self._deadline = self.limits.make_deadline()
        local: List[Sequence[int]] = [
            self.gcs.cs.candidates[i] for i in range(self._n)
        ]
        if root_mask is not None:
            local[0] = tuple(
                v
                for p, v in enumerate(self.gcs.cs.candidates[0])
                if root_mask >> p & 1
            )
        bounds = [0] * self._n
        # The same one-chunk rule as GuPSearch.run, so timing the two
        # compares searches, not the caller's data-stack position.
        _recurse(self._n, self._backtrack, 0, local, bounds)
        return self._results, self._status

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------

    def _abort(self, status: TerminationStatus) -> None:
        self._aborted = True
        self._status = status

    def _emit_embedding(self) -> None:
        self.stats.embeddings_found += 1
        if self.limits.collect:
            self._results.append(tuple(self._embedding))
        if self.limits.embeddings_reached(self.stats.embeddings_found):
            self._abort(TerminationStatus.EMBEDDING_LIMIT)

    def _record_nv(self, mask: int) -> None:
        """Record NV from nogood ``(M ⊕ v)[mask]``.

        The caller guarantees ``self._embedding`` currently holds the
        assignment of every bit in ``mask``; the guard is attached to the
        highest-bit assignment and stores the rest (§3.3.2).
        """
        top = mask.bit_length() - 1
        w = self._embedding[top]
        rest = mask & ~(1 << top)
        self._nogoods.record_vertex_nogood(
            top, w, rest, self._anc, self._embedding
        )
        self.stats.nogoods_recorded_vertex += 1
        # §3.4 accounting: size of the discovered nogood (M ⊕ v)[mask].
        self.stats.nogood_size_sum += mask.bit_count()
        self.stats.nogood_size_count += 1

    def _reservation_conflict_mask(self, guard: FrozenSet[int], k: int) -> int:
        """Definition 3.23 (2): assigners of the reserved vertices + u_k."""
        mask = 1 << k
        image = self._image
        for w in guard:
            mask |= 1 << image[w]
        return mask

    # ------------------------------------------------------------------
    # The recursion
    # ------------------------------------------------------------------

    def _backtrack(
        self,
        depth: int,
        local: List[Sequence[int]],
        bounds: List[int],
    ) -> Tuple[bool, int, Dict[Pair, int], Set[Pair]]:
        """Explore all extensions of the current partial embedding.

        Returns ``(found, mask, pair_vals, used_pairs)``:

        * ``found`` — whether any full embedding exists in the subtree;
        * ``mask`` — the deadend mask of the current extension
          (Definition 3.26; meaningful only when ``found`` is false and
          the run was not aborted);
        * ``pair_vals`` — fixed deadend masks (Definition 3.30) for every
          watched pair live at this node (including pairs resolved at
          this very depth);
        * ``used_pairs`` — watched pairs contained in some embedding
          found inside this subtree.
        """
        stats = self.stats
        stats.recursions += 1
        if self._deadline.poll() or self.limits.recursions_exhausted(
            stats.recursions
        ):
            self._abort(TerminationStatus.TIMEOUT)
        if self._aborted:
            return (False, 0, _EMPTY_DICT, _EMPTY_SET)

        k = depth
        if k == self._n:
            self._emit_embedding()
            if self._observer is not None:
                self._observer.on_embedding(tuple(self._embedding))
            return (True, 0, _EMPTY_DICT, _EMPTY_SET)

        config = self.config
        obs = self._observer
        needs_masks = config.needs_masks
        use_nv = config.use_nogood_vertex
        use_ne = config.use_nogood_edge
        use_bj = config.use_backjumping
        image = self._image
        embedding = self._embedding
        anc = self._anc
        nogoods = self._nogoods
        data = self._data
        reservations_k = self._reservations_at[k]
        sym_prev_k = self._symmetry_prev[k] if self._symmetry_prev else -1
        forward = self._forward[k]
        forward_core = self._forward_core[k]
        k_bit = 1 << k
        below_k = k_bit - 1

        # Ancestor-watched pairs live at this node, grouped by target.
        anc_pairs: List[Pair] = []
        watched_fwd: Dict[int, Set[int]] = {}
        if use_ne and self._watch_total:
            for j, per_v in self._watches.items():
                if j > k:
                    lj = local[j]
                    live = {v2 for v2, cnt in per_v.items() if cnt > 0 and v2 in lj}
                    if live:
                        watched_fwd[j] = live
                        anc_pairs.extend((j, v2) for v2 in live)
        targeting = self._watches.get(k) if use_ne and self._watch_total else None

        found_any = False
        union_mask = 0
        early_mask: Optional[int] = None
        backjump_mask: Optional[int] = None

        pair_used: Set[Pair] = set()
        pair_early: Dict[Pair, int] = {}
        pair_acc: Dict[Pair, int] = {}
        resolved_here: Dict[Pair, int] = {}

        def fold_pairs(child_vals: Dict[Pair, int], child_pre: Dict[Pair, int],
                       child_used: Set[Pair], conflict: Optional[int]) -> None:
            """Fold one child's per-pair values into the accumulators.

            ``conflict`` is the child's conflict mask when the child was
            never recursed into — it then applies to every pair
            (Definition 3.30 case 3).
            """
            for p in anc_pairs:
                if p in pair_used:
                    continue
                if p in child_used:
                    pair_used.add(p)
                    continue
                if conflict is not None:
                    val = conflict
                elif p in child_pre:
                    val = child_pre[p]
                elif p in child_vals:
                    val = child_vals[p]
                else:
                    # Defensive: a tracking gap must never produce an
                    # over-strong (empty) mask — treat the pair as used,
                    # which merely skips one recording opportunity.
                    pair_used.add(p)
                    continue
                if not val & k_bit and p not in pair_early:
                    pair_early[p] = val
                pair_acc[p] = pair_acc.get(p, 0) | val

        for v in local[k]:
            stats.local_candidates_seen += 1
            conflict_mask: Optional[int] = None
            child_bounds = bounds
            refinement_conflict = False

            # ---- symmetry breaking (extension; repro.core.symmetry) --
            conflict_kind = ""
            if sym_prev_k >= 0 and v <= embedding[sym_prev_k]:
                stats.pruned_symmetry += 1
                conflict_mask = (1 << sym_prev_k) | k_bit
                conflict_kind = "symmetry"
            # ---- line 4: injectivity --------------------------------
            elif (assigner := image.get(v)) is not None:
                stats.pruned_injectivity += 1
                conflict_mask = (1 << assigner) | k_bit
                conflict_kind = "injectivity"
            else:
                # ---- line 5: reservation guard -----------------------
                if reservations_k is not None:
                    rg = reservations_k.get(v)
                    if rg is not None and all(w in image for w in rg):
                        stats.pruned_reservation += 1
                        conflict_mask = self._reservation_conflict_mask(rg, k)
                        conflict_kind = "reservation"
                # ---- line 5: nogood guard on the vertex --------------
                if conflict_mask is None and use_nv:
                    dom = nogoods.match_vertex(k, v, anc, embedding)
                    if dom is not None:
                        stats.pruned_nogood_vertex += 1
                        conflict_mask = dom | k_bit
                        conflict_kind = "nogood_vertex"

            child_local: List[Sequence[int]] = local
            child_predrop: Dict[Pair, int] = _EMPTY_DICT
            refined_core: List[Tuple[int, List[int]]] = []
            if conflict_mask is None:
                # ---- lines 6-9: refine local candidates --------------
                child_local = list(local)
                if needs_masks:
                    child_bounds = list(bounds)
                if anc_pairs:
                    child_predrop = {}
                nbr_v = data.neighbor_set(v)
                for j in forward:
                    stats.refine_ops += 1
                    old = local[j]
                    check_guards = use_ne and j in forward_core
                    wset = watched_fwd.get(j)
                    guard_doms = 0
                    refined: List[int] = []
                    for v2 in old:
                        if v2 not in nbr_v:
                            if wset and v2 in wset:
                                child_predrop[(j, v2)] = k_bit
                            continue
                        if check_guards:
                            dom = nogoods.match_edge(k, v, j, v2, anc, embedding)
                            if dom is not None:
                                stats.pruned_nogood_edge += 1
                                guard_doms |= dom
                                if wset and v2 in wset:
                                    child_predrop[(j, v2)] = dom | k_bit
                                continue
                        refined.append(v2)
                    child_local[j] = refined
                    if check_guards:
                        refined_core.append((j, refined))
                    if needs_masks and (len(refined) != len(old) or guard_doms):
                        child_bounds[j] = bounds[j] | k_bit | guard_doms
                    if not refined:
                        # No-candidate conflict (Definition 3.23 case 4).
                        conflict_mask = child_bounds[j] if needs_masks else k_bit
                        refinement_conflict = True
                        conflict_kind = "no_candidate"
                        break

            if conflict_mask is not None:
                if obs is not None:
                    obs.on_conflict(k, v, conflict_kind, conflict_mask)
                union_mask |= conflict_mask
                if needs_masks:
                    # Algorithm 2: extensions filtered at lines 4-5 are
                    # skipped by ``continue``; only the no-candidate case
                    # reaches the recording lines 11-13.
                    if refinement_conflict:
                        if use_nv:
                            embedding.append(v)
                            self._record_nv(conflict_mask)
                            embedding.pop()
                        if use_ne and refined_core:
                            # Line 11 with Definition 3.30 case (3): the
                            # conflict mask is the fixed mask of every
                            # candidate edge incident to (u_k, v).
                            dom = conflict_mask & below_k
                            dead = self._encoded and dom.bit_length() == k
                            for j, lst in refined_core:
                                if dead:
                                    self.dead_edge_records += len(lst)
                                for v2 in lst:
                                    nogoods.record_edge_nogood(
                                        k, v, j, v2, dom, anc, embedding
                                    )
                                    stats.nogoods_recorded_edge += 1
                    if anc_pairs:
                        fold_pairs(_EMPTY_DICT, _EMPTY_DICT, _EMPTY_SET, conflict_mask)
                    if targeting and targeting.get(v, 0) > 0:
                        resolved_here[(k, v)] = conflict_mask & ~k_bit
                    if not conflict_mask & k_bit:
                        if use_bj:
                            stats.backjumps += 1
                            backjump_mask = conflict_mask
                            if obs is not None:
                                obs.on_backjump(k, conflict_mask)
                            break
                        if early_mask is None:
                            early_mask = conflict_mask
                continue

            # ---- line 10: recurse -----------------------------------
            embedding.append(v)
            image[v] = k
            self._node_counter += 1
            anc[k + 1] = self._node_counter

            own_pairs: List[Pair] = []
            if use_ne and forward_core and self._watch_total < self._max_watches:
                watches = self._watches
                for j in forward_core:
                    per_v = watches.get(j)
                    if per_v is None:
                        per_v = watches[j] = {}
                    for v2 in child_local[j]:
                        per_v[v2] = per_v.get(v2, 0) + 1
                        own_pairs.append((j, v2))
                self._watch_total += len(own_pairs)

            if obs is not None:
                obs.on_descend(k, v, self._node_counter)
            child_found, child_mask, child_vals, child_used = self._backtrack(
                k + 1, child_local, child_bounds
            )
            if obs is not None:
                obs.on_return(k, v, child_found, child_mask)

            embedding.pop()
            del image[v]

            if self._aborted:
                self._release_watches(own_pairs)
                return (found_any or child_found, 0, _EMPTY_DICT, _EMPTY_SET)

            # ---- line 11: update NE for edges incident to (u_k, v) --
            if own_pairs:
                for p in own_pairs:
                    if p in child_used or p not in child_vals:
                        continue
                    dom = child_vals[p] & below_k
                    if self._encoded and dom.bit_length() == k:
                        self.dead_edge_records += 1
                    nogoods.record_edge_nogood(
                        k, v, p[0], p[1], dom, anc, embedding
                    )
                    stats.nogoods_recorded_edge += 1
                self._release_watches(own_pairs)

            if anc_pairs:
                fold_pairs(child_vals, child_predrop, child_used, None)
            if targeting and targeting.get(v, 0) > 0:
                if child_found:
                    pair_used.add((k, v))
                else:
                    resolved_here[(k, v)] = child_mask & ~k_bit

            # ---- lines 12-14: deadend discovery + backjumping --------
            if child_found:
                found_any = True
            else:
                stats.futile_recursions += 1
                union_mask |= child_mask
                if needs_masks:
                    if use_nv and child_mask:
                        embedding.append(v)
                        self._record_nv(child_mask)
                        embedding.pop()
                    if not child_mask & k_bit:
                        if use_bj:
                            stats.backjumps += 1
                            backjump_mask = child_mask
                            if obs is not None:
                                obs.on_backjump(k, child_mask)
                            break
                        if early_mask is None:
                            early_mask = child_mask

        # ---- node epilogue ------------------------------------------
        if not needs_masks:
            return (found_any, 0, _EMPTY_DICT, _EMPTY_SET)

        if backjump_mask is not None:
            node_mask = backjump_mask
        elif found_any:
            node_mask = 0
        elif early_mask is not None:
            node_mask = early_mask
        else:
            node_mask = (union_mask | bounds[k]) & ~k_bit

        if not anc_pairs and not resolved_here and not (
            backjump_mask is not None and targeting
        ):
            return (found_any, node_mask, _EMPTY_DICT, pair_used)

        pair_vals: Dict[Pair, int] = {}
        bk = bounds[k]
        for p in anc_pairs:
            if p in pair_used:
                continue
            if backjump_mask is not None:
                pair_vals[p] = backjump_mask
            elif p in pair_early:
                pair_vals[p] = pair_early[p]
            else:
                pair_vals[p] = (pair_acc.get(p, 0) | bk) & ~k_bit
        for p, val in resolved_here.items():
            if p not in pair_used:
                pair_vals[p] = val
        if backjump_mask is not None and targeting:
            # Pairs targeting this depth never reached resolve to the
            # backjump nogood (sound: M[K] alone is a nogood).
            lk = local[k]
            for v2, cnt in targeting.items():
                if cnt > 0 and v2 in lk:
                    p = (k, v2)
                    if p not in pair_vals and p not in pair_used:
                        pair_vals[p] = backjump_mask
        return (found_any, node_mask, pair_vals, pair_used)

    # ------------------------------------------------------------------
    # Watch helpers
    # ------------------------------------------------------------------

    def _release_watches(self, pairs: List[Pair]) -> None:
        if not pairs:
            return
        watches = self._watches
        for j, v2 in pairs:
            per_v = watches.get(j)
            if per_v is not None:
                cnt = per_v.get(v2, 0) - 1
                if cnt <= 0:
                    per_v.pop(v2, None)
                else:
                    per_v[v2] = cnt
        self._watch_total -= len(pairs)


# ----------------------------------------------------------------------
# The seed set/dict GCS pipeline and the reference engine
# ----------------------------------------------------------------------


def build_gcs_set(
    query: Graph,
    data: Graph,
    config: Optional[GuPConfig] = None,
    invariants: Optional[BuildInvariantCache] = None,
    stage_log=None,
) -> GuardedCandidateSpace:
    """The seed set/dict twin of :func:`repro.core.gcs.build_gcs`.

    Same steps and the same caching, over candidate lists and sets
    instead of int masks; it yields a byte-identical GCS.  It runs the
    seed LDF+NLF scan itself, and without ``invariants`` it feeds the
    ordering plain candidate lists.
    """
    config = config or GuPConfig()
    started = time.perf_counter()
    initial = nlf_candidates(query, data)
    if invariants is not None:
        order = invariants.order(
            config.ordering, query, [mask_of(c) for c in initial]
        )
    else:
        order = make_order(config.ordering, query, initial)
    reordered = query.relabeled(order)
    reordered_base = [list(initial[old]) for old in order]
    dag = None
    if invariants is not None and config.filter_method == "dagdp":
        sizes = [len(c) for c in reordered_base]
        dag = invariants.dag(reordered, sizes)
    cs = build_candidate_space(
        reordered, data, method=config.filter_method,
        base=reordered_base, dag=dag,
    )
    if stage_log is not None:
        # The set pipeline is opaque to per-round hooks; record the
        # seed and the filtered fixpoint (the stages that exist).
        stage_log.record("seed", [len(c) for c in reordered_base])
        stage_log.record(
            "filtered", [len(c) for c in cs.candidates]
        )
    return finish_gcs(query, data, order, cs, config, invariants, started)


class ReferenceEngine(GuPEngine):
    """The seed pipeline behind the production engine's API.

    :meth:`build` runs :func:`build_gcs_set`, and a sequential
    :meth:`~repro.core.engine.GuPEngine.match` searches with
    :class:`ListGuPSearch`.  Everything else — symmetry expansion,
    EXPLAIN, the procpool (which always runs the production search) —
    is inherited, so a differential test compares exactly the twins.
    """

    search_class = ListGuPSearch

    def build(self, query: Graph, stage_log=None) -> GuardedCandidateSpace:
        return build_gcs_set(
            query,
            self.data,
            self.config,
            invariants=self.invariants,
            stage_log=stage_log,
        )
