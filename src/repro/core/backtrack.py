"""Guarded backtracking (Algorithm 2) with nogood discovery.

This module implements the search step of GuP: local-candidate
refinement (Definition 3.18), bounding sets (Definition 3.19), the four
conflict kinds and their masks (Definitions 3.22/3.23), deadend masks
(Definition 3.26), fixed deadend masks for edge guards (Definition 3.30),
nogood recording in search-node encoding (§3.5.1), and backjumping
(Algorithm 2, line 14).

Query-vertex sets are ``int`` bitmasks throughout (bit ``i`` = ``u_i``).

Dense-index candidate bitmaps
-----------------------------
This is the production search (see DESIGN.md "Dense-index bitmap
layout").  The local candidate set of ``u_j`` is an ``int`` bitmap
over positions of the sorted ``C(u_j)``, and the candidate space
materializes every candidate-edge direction as a bitmap over the same
positions.  Line 6-9 refinement is then a single C-speed AND per forward
neighbor, the no-candidate conflict is a zero test, and candidate
iteration decodes set bits lazily.  Only the NE-guard and watched-pair
paths — which genuinely need to visit individual candidates — decode
bits, and they decode only the relevant ones (guard scans run only for
``(u_k, v, u_j)`` triples that actually carry guards; watched-pair
bookkeeping touches only the *dropped* bits ``old & ~refined``).  The
GCS stores reservation guards by the same positions, non-trivial ones
only, so line 5 is one small-int dict get and most candidates probe
nothing.

Watched candidate edges piggyback on the same dense index: watch
lifetimes are strictly LIFO per target (an ancestor registers its watch
set before descending and releases it right after the child returns), so
the per-target watch multiset is a *stack of bitmap frames* whose union
is one cached OR — registering and releasing the watches of a whole
node costs a few int operations instead of one refcount update per
watched candidate.

The recursion body is deliberately monolithic: guard probes against the
default search-node encoded store are inlined as direct dict operations
(the store object stays the single source of truth — the search just
bypasses method-call overhead), and the per-pair folding of Definition
3.30 is expanded at both call sites.  CPython's per-call cost would
otherwise dominate the per-recursion budget and hide the win of the O(1)
refinement.  Edge-guard records, far rarer than probes, all go through
``_record_edges``.  The readable reference implementation of the same
algorithm is :mod:`repro.core.backtrack_ref`, a test oracle production
never imports; ``tests/test_bitmap_cs.py`` proves the two searches
return byte-identical embeddings, termination status and stats, except
that production's edge-nogood record count omits the oracle's dead
records (below).

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

Only guards that can still fire are recorded.  With the search-node
store a guard recorded at depth ``k`` whose encoded length is ``k``
names the depth-``k`` node itself; that node tries each candidate once
and is past ``v`` when the guard is written, so the guard is dead and
is skipped (an explicit guard can match at another node, so the explicit
store keeps them).  Every depth-0 guard is of this kind, so the root
pushes no watch frames; its watches still count toward ``max_watches``.
The watches of ``(u_k, v)`` on ``u_{k+1}`` resolve at the child, one
candidate at a time, so the child records them in place as each of its
candidates resolves (on a conflict, on a failed recursion, or on a
backjump for the candidates it never reached) instead of handing them
back; only pairs that an ancestor also watches flow up as ``pair_vals``.

When the search aborts (embedding cap / timeout), subtrees are no longer
exhaustively explored and prove nothing: all recording stops immediately
(records already made are sound and stay) and the recursion unwinds.
"""

from __future__ import annotations

import functools
import types
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.config import GuPConfig
from repro.core.gcs import GuardedCandidateSpace
from repro.core.nogood import NogoodStore, make_nogood_store
from repro.matching.limits import SearchLimits
from repro.matching.result import SearchStats, TerminationStatus
from repro.utils.bitset import bits_of, iter_bits
from repro.utils.timer import Deadline

Pair = int
"""Watched candidate edge target, packed as ``j << 24 | position``
(candidate positions are far below 2^24; int keys hash without
allocating a tuple)."""

_EMPTY_DICT: Dict[Pair, int] = {}
_EMPTY_SET: Set[Pair] = set()

# CPython (3.11+) keeps Python frames in 16 KiB data-stack chunks and
# unmaps a chunk as soon as the frame at its base returns.  A recursion
# frame here is about 1 KiB, so a deep search crosses a chunk boundary at
# some depth, and each descent across it maps a chunk that the return
# unmaps again: thousands of page faults per hard query, plus a TLB
# shootdown each in a threaded server.  ``_chunk_call`` goes through a
# trampoline whose own frame is over half a chunk, so CPython opens one
# chunk that holds it and the whole recursion, and keeps it until the
# search returns.  Elsewhere it is a plain call.
_CHUNK_WORDS = 2048  # 16 KiB in 8-byte words


def _call(fn, *args):
    return fn(*args)


@functools.lru_cache(maxsize=None)
def _trampoline(size: int) -> Callable:
    """``_call`` with a frame of ``size / 2 + 64`` words.  CPython sizes
    a new chunk as the smallest 16 KiB power-of-two multiple that fits
    the frame plus 1000 words: exactly ``size`` words here."""
    return types.FunctionType(
        _call.__code__.replace(co_stacksize=size // 2 + 64), {}
    )


def _chunk_call(words: int, fn: Callable, *args):
    """``fn(*args)`` with at least ``words`` words of frame space above."""
    size = 2 * _CHUNK_WORDS
    while size // 2 - 128 < words:
        size *= 2
    return _trampoline(size)(fn, *args)


def _recurse(depth: int, fn: Callable, *args):
    """``fn(*args)`` for a recursion ``depth`` frames of ``fn`` deep.

    A recursion under half a chunk skips the trampoline: mapping a
    chunk per run (~17 µs) would cost tiny searches more than the churn
    it saves them.
    """
    code = fn.__code__
    words = depth * (code.co_nlocals + code.co_stacksize + 16)
    if words > _CHUNK_WORDS // 2:
        return _chunk_call(words + 256, fn, *args)
    return fn(*args)


class GuPSearch:
    """One guarded backtracking run over a GCS (dense candidate bitmaps).

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
        cs = gcs.cs
        self._n = query.num_vertices
        self._cands: Tuple[Tuple[int, ...], ...] = cs.candidates
        if any(len(c) >= (1 << 24) for c in self._cands):
            # Watched-pair keys pack the candidate position into 24 bits
            # (see ``Pair``); wider candidate sets would silently collide.
            raise ValueError(
                "candidate set exceeds 2^24 entries; the packed watched-pair "
                "encoding does not support this"
            )
        self._forward: List[Tuple[int, ...]] = [
            tuple(j for j in query.neighbors(i) if j > i) for i in query.vertices()
        ]
        # Forward neighbors whose query edge lies in the 2-core: the only
        # edges on which NE guards are generated and tested (§3.3.3).
        self._forward_core: List[FrozenSet[int]] = [
            frozenset(j for j in self._forward[i] if gcs.edge_in_two_core(i, j))
            for i in query.vertices()
        ]
        # Per-run constants hoisted out of the recursion.
        self._needs_masks = self.config.needs_masks
        self._use_nv = self.config.use_nogood_vertex
        self._use_ne = self.config.use_nogood_edge
        self._use_bj = self.config.use_backjumping
        self._max_rec = self.limits.max_recursions
        self._poll_time = self.limits.time_limit is not None
        # Per-depth refinement plan: (j, candidate-edge bitmap table of
        # direction (k, j), NE guards apply on this edge).  The bitmap
        # table maps each candidate v of u_k to its adjacency bitmap
        # over positions of C(u_j).
        self._plans: List[List[Tuple[int, Dict[int, int], bool]]] = [
            [
                (j, cs.edge_bitmap_map(i, j), self._use_ne and j in self._forward_core[i])
                for j in self._forward[i]
            ]
            for i in query.vertices()
        ]
        self._data = gcs.data
        reservations = gcs.reservations if self.config.use_reservation else []
        # Always a fresh store unless the caller supplies one: encoded
        # nogoods reference this run's search-node ids, so guards from a
        # previous run over the same GCS would match spuriously.
        if nogoods is not None:
            self._nogoods = nogoods
        else:
            self._nogoods = make_nogood_store(self.config.nogood_representation)
            gcs.nogoods = self._nogoods
        # Devirtualized guard tables: for the default search-node store
        # the recursion probes and writes the underlying dicts directly
        # (the store remains the source of truth for every consumer).
        # Any other representation goes through the generic interface.
        if getattr(self._nogoods, "representation", None) == "search_node":
            self._nv_at: Optional[List[Dict]] = [
                self._nogoods.vertex_guards_at(i) for i in range(self._n)
            ]
            self._ne_dict: Optional[Dict] = self._nogoods._edge
            # Guarded-position bitmaps per (i, v, j) triple: the guard
            # scan in refinement intersects the adjacency bitmap with
            # this instead of probing every adjacent candidate.  Kept in
            # sync at every record site; seeded from any pre-existing
            # guards in a caller-supplied store.
            self._ne_pos: Dict[Tuple[int, int, int], int] = {}
            if self._ne_dict:
                for (gi, gv, gj), per_v2 in self._ne_dict.items():
                    bm = 0
                    pos_j = cs.positions[gj]
                    for v2 in per_v2:
                        p2 = pos_j.get(v2)
                        if p2 is not None:
                            bm |= 1 << p2
                    self._ne_pos[(gi, gv, gj)] = bm
        else:
            self._nv_at = None
            self._ne_dict = None
            self._ne_pos = {}
        self._max_watches = max_watches
        self._symmetry_prev = symmetry_prev
        self._collect = self.limits.collect
        self._max_emb = self.limits.max_embeddings

        # Per-run search state.
        self._deadline: Deadline = Deadline(None)
        self._embedding: List[int] = []
        # Injectivity index: data vertex -> assigning query depth, as a
        # flat array (-1 = unassigned) — probed once per local candidate.
        self._image: List[int] = [-1] * gcs.data.num_vertices
        self._anc: List[int] = [0] * (self._n + 1)
        self._node_counter = 0
        self._aborted = False
        self._status = TerminationStatus.COMPLETE
        self._results: List[Tuple[int, ...]] = []
        # Live watched candidate edges are threaded down the recursion
        # as an argument (target -> live position bitmap): a child's
        # live set is exactly ``(parent_live & child_local) | frame``,
        # so no global watch structure is needed — only this counter,
        # which enforces the ``max_watches`` cap.
        self._watch_total = 0
        # Depth-indexed container pools.  Every per-node / per-descent
        # structure has a strictly nested lifetime (a parent finishes
        # reading a child's returned containers before starting the next
        # sibling), so each depth reuses one instance via clear()/slice
        # assignment instead of allocating per node — CPython's
        # alloc/free churn would otherwise dominate the pair protocol.
        self._pool: List[tuple] = [
            (set(), {}, {}, {}, {}, {}, [], [0] * self._n, [0] * self._n)
            for _ in range(self._n + 1)
        ]

        # Per-depth context, unpacked in one statement per recursion:
        # (C(u_k), refinement plan, forward core, reservation table or
        # None, symmetry predecessor, vertex-guard table or None, core
        # targets beyond u_{k+1} whose watch frames are pushed, whether
        # the child resolves the watches on u_{k+1} in place).  With the
        # search-node store the root pushes no frames at all: every guard
        # it could record names the root, which tries each candidate once.
        live_root = self._ne_dict is None
        self._depth_ctx: List[tuple] = [
            (
                self._cands[i],
                self._plans[i],
                self._forward_core[i],
                (reservations[i] or None) if reservations else None,
                symmetry_prev[i] if symmetry_prev else -1,
                self._nv_at[i] if self._nv_at is not None else None,
                tuple(j for j in self._forward_core[i] if j > i + 1)
                if i or live_root else (),
                i + 1 in self._forward_core[i] and bool(i or live_root),
            )
            for i in range(self._n)
        ]
        # Per-run context (constants and per-run mutable structures);
        # the deadline-dependent entries are refreshed by run().
        self._make_ctx()

    def _make_ctx(self) -> None:
        self._ctx = (
            self._observer,
            self._needs_masks,
            self._use_nv,
            self._use_ne,
            self._use_bj,
            self._image,
            self._embedding,
            self._anc,
            self._nogoods,
            self._ne_dict,
            self._ne_pos,
            self._cands,
            self._poll_time,
            self._deadline,
            self._max_rec,
            self._n,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self, root_mask: Optional[int] = None
    ) -> Tuple[List[Tuple[int, ...]], TerminationStatus]:
        """Enumerate embeddings of the (reordered) query.

        ``root_mask``, when given, restricts the root level to the
        candidates of ``u_0`` whose *positions* (bits in the dense
        index) are set — the parallel engines partition the search at
        the root this way (§3.5.2) without rebuilding the candidate
        space.  Restricting the root is equivalent to searching a GCS
        whose ``C(u_0)`` is the selected subset: the refinement plans,
        reservation tables, and watch machinery never read the dropped
        root candidates.

        Returns the embeddings (in reordered query-vertex numbering —
        the engine translates back) and the termination status.
        """
        if self._n == 0:
            return [()], TerminationStatus.COMPLETE
        if self.gcs.cs.is_empty():
            return [], TerminationStatus.COMPLETE

        self._deadline = self.limits.make_deadline()
        self._make_ctx()
        cs = self.gcs.cs
        local: List[int] = [cs.full_mask(i) for i in range(self._n)]
        if root_mask is not None:
            local[0] &= root_mask
        bounds = [0] * self._n
        # One frame per query vertex.
        _recurse(self._n, self._backtrack, 0, local, bounds, None, False)
        return self._results, self._status

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------

    def _abort(self, status: TerminationStatus) -> None:
        self._aborted = True
        self._status = status

    def _reservation_conflict_mask(self, guard: FrozenSet[int], k: int) -> int:
        """Definition 3.23 (2): assigners of the reserved vertices + u_k."""
        mask = 1 << k
        image = self._image
        for w in guard:
            mask |= 1 << image[w]
        return mask

    def _record_edges(self, i: int, v: int, j: int, bits: int, dom: int) -> None:
        """Line 11: record ``NE((u_i, v), (u_j, v'))`` with domain
        ``dom`` for every position of ``v'`` in ``bits`` (non-zero, over
        ``C(u_j)``).

        With the search-node store a guard of encoded length ``i`` names
        the depth-``i`` node itself, which tries ``v`` once and is past
        it by now: it can never match, so it is not stored."""
        cj = self._cands[j]
        stats = self.stats
        nogoods = self._nogoods
        ne_dict = self._ne_dict
        if ne_dict is None:
            anc = self._anc
            embedding = self._embedding
            while bits:
                lo = bits & -bits
                bits ^= lo
                nogoods.record_edge_nogood(
                    i, v, j, cj[lo.bit_length() - 1], dom, anc, embedding
                )
                stats.nogoods_recorded_edge += 1
            return
        length = dom.bit_length()
        if length == i:
            return
        key = (i, v, j)
        per = ne_dict.get(key)
        if per is None:
            per = ne_dict[key] = {}
        self._ne_pos[key] = self._ne_pos.get(key, 0) | bits
        enc = (self._anc[length], length, dom)
        count = bits.bit_count()
        while bits:
            lo = bits & -bits
            bits ^= lo
            v2 = cj[lo.bit_length() - 1]
            if v2 not in per:
                nogoods._num_edge += 1
            per[v2] = enc
        nogoods.recorded_edge += count
        stats.nogoods_recorded_edge += count

    # ------------------------------------------------------------------
    # The recursion
    # ------------------------------------------------------------------

    def _backtrack(
        self,
        depth: int,
        local: List[int],
        bounds: List[int],
        watched: Optional[Dict[int, int]],
        adjacent: bool,
    ) -> Tuple[bool, int, Dict[Pair, int], Set[Pair]]:
        """Explore all extensions of the current partial embedding.

        ``local[j]`` is the local candidate set of ``u_j`` as a bitmap
        over positions of ``C(u_j)``.  ``watched`` maps each target
        query vertex ``j >= depth`` to the bitmap of its positions
        watched by live ancestor frames and still locally present (the
        parent computes it exactly — see the watch comment in
        ``__init__``); ``None`` when nothing is watched.  ``adjacent``
        says the parent watches every candidate edge from its assignment
        ``(u_{depth-1}, v)`` into ``u_depth``: this node records those
        guards itself as it resolves each candidate, and they never
        appear in ``watched``.

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
        (
            obs,
            needs_masks,
            use_nv,
            use_ne,
            use_bj,
            image,
            embedding,
            anc,
            nogoods,
            ne_dict,
            ne_pos,
            cands,
            poll_time,
            deadline,
            max_rec,
            n,
        ) = self._ctx
        stats = self.stats
        stats.recursions += 1
        if (poll_time and deadline.poll()) or (
            max_rec is not None and stats.recursions >= max_rec
        ):
            self._abort(TerminationStatus.TIMEOUT)
        if self._aborted:
            return (False, 0, _EMPTY_DICT, _EMPTY_SET)

        k = depth
        if k == n:
            found = stats.embeddings_found + 1
            stats.embeddings_found = found
            if self._collect:
                self._results.append(tuple(embedding))
            if self._max_emb is not None and found >= self._max_emb:
                self._abort(TerminationStatus.EMBEDDING_LIMIT)
            if obs is not None:
                obs.on_embedding(tuple(embedding))
            return (True, 0, _EMPTY_DICT, _EMPTY_SET)
        (
            cands_k,
            plan,
            forward_core,
            reservations_k,
            sym_prev_k,
            nv_k,
            far_core,
            adj_watch,
        ) = self._depth_ctx[k]
        pool = self._pool[k]
        k_bit = 1 << k
        below_k = k_bit - 1
        if adjacent:
            # The parent's guards on (u_{k-1}, v) -> (u_k, v'): domain
            # below u_{k-1}, recorded here (Definition 3.30 cases 1/6).
            adj_v = embedding[k - 1]
            adj_below = below_k >> 1

        # Ancestor-watched pairs live at this node, as (target, position)
        # pairs; ``targeting`` is the live watched-position set at this
        # very depth.
        # Pairs are packed as ``j << 24 | position`` (positions are far
        # below 2^24): int keys hash without allocating a tuple.
        anc_pairs: Optional[List[int]] = None
        watched_fwd: Dict[int, int] = _EMPTY_DICT
        targeting = 0
        if watched is not None:
            watched_fwd = watched
            for j, live in watched.items():
                if j > k:
                    if anc_pairs is None:
                        anc_pairs = pool[6]
                        anc_pairs.clear()
                    jbase = j << 24
                    while live:
                        lo = live & -live
                        live ^= lo
                        anc_pairs.append(jbase | (lo.bit_length() - 1))
                else:
                    targeting = live

        found_any = False
        union_mask = 0
        early_mask: Optional[int] = None
        backjump_mask: Optional[int] = None

        if anc_pairs is not None or targeting:
            pair_used: Set[Pair] = pool[0]
            pair_used.clear()
            pair_early: Dict[Pair, int] = pool[1]
            pair_early.clear()
            pair_acc: Dict[Pair, int] = pool[2]
            pair_acc.clear()
            resolved_here: Dict[Pair, int] = pool[3]
            resolved_here.clear()
        else:
            # Never mutated on this path; shared empties avoid the
            # clears.
            pair_used = _EMPTY_SET
            pair_early = pair_acc = resolved_here = _EMPTY_DICT

        n_seen = 0
        n_ref = 0
        has_watch = watched is not None
        last = k + 1 == n
        for p in bits_of(local[k]):
            v = cands_k[p]
            n_seen += 1
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
            elif (assigner := image[v]) >= 0:
                stats.pruned_injectivity += 1
                conflict_mask = (1 << assigner) | k_bit
                conflict_kind = "injectivity"
            else:
                # ---- line 5: reservation guard -----------------------
                if reservations_k is not None:
                    rg = reservations_k.get(p)
                    if rg is not None:
                        for w in rg:
                            if image[w] < 0:
                                break
                        else:
                            stats.pruned_reservation += 1
                            conflict_mask = self._reservation_conflict_mask(rg, k)
                            conflict_kind = "reservation"
                # ---- line 5: nogood guard on the vertex --------------
                if conflict_mask is None and use_nv:
                    if nv_k is not None:
                        g = nv_k.get(v)
                        dom = (
                            g[2]
                            if g is not None and anc[g[1]] == g[0]
                            else None
                        )
                    else:
                        dom = nogoods.match_vertex(k, v, anc, embedding)
                    if dom is not None:
                        stats.pruned_nogood_vertex += 1
                        conflict_mask = dom | k_bit
                        conflict_kind = "nogood_vertex"

            child_local: List[int] = local
            child_predrop: Dict[int, int] = _EMPTY_DICT
            guards_checked = False
            if conflict_mask is None and plan:
                # ---- lines 6-9: refine local candidates --------------
                # One big-int AND per forward neighbor; per-candidate
                # visits only on live guard tables and dropped watches.
                # ``bounds`` is copied lazily on the first change.
                child_local = pool[7]
                child_local[:] = local
                for j, ebm_j, check_guards in plan:
                    n_ref += 1
                    old = local[j]
                    adj = old & ebm_j.get(v, 0)
                    wset = watched_fwd.get(j, 0) if has_watch else 0
                    if wset:
                        dropped_watched = wset & old & ~adj
                        if dropped_watched and child_predrop is _EMPTY_DICT:
                            child_predrop = {}
                        while dropped_watched:
                            lo3 = dropped_watched & -dropped_watched
                            dropped_watched ^= lo3
                            child_predrop[
                                j << 24 | (lo3.bit_length() - 1)
                            ] = k_bit
                    guard_doms = 0
                    refined = adj
                    if check_guards and adj:
                        if ne_dict is not None:
                            per2 = ne_dict.get((k, v, j))
                            if per2 is not None:
                                cj = cands[j]
                                drop = 0
                                m2 = adj & ne_pos[(k, v, j)]
                                while m2:
                                    lo2 = m2 & -m2
                                    m2 ^= lo2
                                    p2 = lo2.bit_length() - 1
                                    g = per2.get(cj[p2])
                                    if g is not None and anc[g[1]] == g[0]:
                                        stats.pruned_nogood_edge += 1
                                        guard_doms |= g[2]
                                        drop |= lo2
                                        if (wset >> p2) & 1:
                                            if child_predrop is _EMPTY_DICT:
                                                child_predrop = {}
                                            child_predrop[j << 24 | p2] = (
                                                g[2] | k_bit
                                            )
                                refined = adj & ~drop
                        elif nogoods.has_edge_guards(k, v, j):
                            cj = cands[j]
                            drop = 0
                            m2 = adj
                            while m2:
                                lo2 = m2 & -m2
                                m2 ^= lo2
                                p2 = lo2.bit_length() - 1
                                dom = nogoods.match_edge(
                                    k, v, j, cj[p2], anc, embedding
                                )
                                if dom is not None:
                                    stats.pruned_nogood_edge += 1
                                    guard_doms |= dom
                                    drop |= lo2
                                    if (wset >> p2) & 1:
                                        if child_predrop is _EMPTY_DICT:
                                            child_predrop = {}
                                        child_predrop[j << 24 | p2] = dom | k_bit
                            refined = adj & ~drop
                    child_local[j] = refined
                    if check_guards:
                        guards_checked = True
                    if needs_masks and (refined != old or guard_doms):
                        if child_bounds is bounds:
                            child_bounds = pool[8]
                            child_bounds[:] = bounds
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
                            # Record NV from nogood (M ⊕ v)[conflict_mask]
                            # (§3.3.2: attach to the highest-bit
                            # assignment, store the rest).
                            top = conflict_mask.bit_length() - 1
                            w = v if top == k else embedding[top]
                            rest = conflict_mask & ~(1 << top)
                            if nv_k is not None:
                                length = rest.bit_length()
                                self._nv_at[top][w] = (anc[length], length, rest)
                                nogoods.recorded_vertex += 1
                            else:
                                embedding.append(v)
                                nogoods.record_vertex_nogood(
                                    top, w, rest, anc, embedding
                                )
                                embedding.pop()
                            stats.nogoods_recorded_vertex += 1
                            # §3.4 accounting: discovered-nogood size.
                            stats.nogood_size_sum += conflict_mask.bit_count()
                            stats.nogood_size_count += 1
                        if guards_checked:
                            # Line 11 with Definition 3.30 case (3): the
                            # conflict mask is the fixed mask of every
                            # candidate edge incident to (u_k, v).  The
                            # refined core sets are read back from
                            # child_local (directions after the conflict
                            # were never refined — stop there).
                            dom = conflict_mask & below_k
                            for j2, _e2, core2 in plan:
                                if core2 and child_local[j2]:
                                    self._record_edges(
                                        k, v, j2, child_local[j2], dom
                                    )
                                if j2 == j:
                                    break
                    if anc_pairs is not None:
                        # Definition 3.30 case (3): the conflict mask is
                        # the fold value of every live pair.
                        cm = conflict_mask
                        cm_early = not cm & k_bit
                        for pr in anc_pairs:
                            if pr in pair_used:
                                continue
                            if cm_early and pr not in pair_early:
                                pair_early[pr] = cm
                            pair_acc[pr] = pair_acc.get(pr, 0) | cm
                    if (targeting >> p) & 1:
                        resolved_here[k << 24 | p] = conflict_mask & ~k_bit
                    if adjacent:
                        self._record_edges(
                            k - 1, adj_v, k, 1 << p, conflict_mask & adj_below
                        )
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

            # Watch every candidate edge from (u_k, v) into the 2-core:
            # one bitmap frame per target (the frame IS child_local[j],
            # re-read after the child returns — children never mutate the
            # list they receive); the child's live watched sets are the
            # surviving ancestor bits plus these frames.  Every watch
            # counts toward ``max_watches``, but only ``far_core`` frames
            # are pushed: the child resolves u_{k+1} in place, and the
            # root's guards could never fire.
            own_count = 0
            child_watched: Optional[Dict[int, int]] = None
            child_adjacent = False
            if use_ne:
                if anc_pairs is not None:
                    child_watched = pool[5]
                    child_watched.clear()
                    for j2, live2 in watched_fwd.items():
                        if j2 > k:
                            nl = live2 & child_local[j2]
                            if nl:
                                child_watched[j2] = nl
                    if not child_watched:
                        child_watched = None
                if forward_core and self._watch_total < self._max_watches:
                    for j2 in forward_core:
                        own_count += child_local[j2].bit_count()
                    self._watch_total += own_count
                    child_adjacent = adj_watch
                    if far_core:
                        if child_watched is None:
                            child_watched = pool[5]
                            child_watched.clear()
                        for j2 in far_core:
                            frame = child_local[j2]
                            prev = child_watched.get(j2)
                            child_watched[j2] = (
                                frame if prev is None else prev | frame
                            )

            if obs is not None:
                obs.on_descend(k, v, self._node_counter)
            if last:
                # Inlined leaf: the child is a full embedding — replicate
                # the depth-n prologue without paying a frame of the
                # recursion for the deepest (most frequent) call.
                stats.recursions += 1
                if (poll_time and deadline.poll()) or (
                    max_rec is not None and stats.recursions >= max_rec
                ):
                    self._abort(TerminationStatus.TIMEOUT)
                child_mask = 0
                child_vals = _EMPTY_DICT
                child_used = _EMPTY_SET
                if self._aborted:
                    child_found = False
                else:
                    child_found = True
                    found = stats.embeddings_found + 1
                    stats.embeddings_found = found
                    if self._collect:
                        self._results.append(tuple(embedding))
                    if self._max_emb is not None and found >= self._max_emb:
                        self._abort(TerminationStatus.EMBEDDING_LIMIT)
                    if obs is not None:
                        obs.on_embedding(tuple(embedding))
            else:
                child_found, child_mask, child_vals, child_used = self._backtrack(
                    k + 1, child_local, child_bounds, child_watched, child_adjacent
                )
            if obs is not None:
                obs.on_return(k, v, child_found, child_mask)

            embedding.pop()
            image[v] = -1

            if self._aborted:
                self._watch_total -= own_count
                stats.local_candidates_seen += n_seen
                stats.refine_ops += n_ref
                return (found_any or child_found, 0, _EMPTY_DICT, _EMPTY_SET)

            # ---- line 11: update NE for edges incident to (u_k, v) --
            if own_count:
                if child_vals:
                    for j2 in far_core:
                        frame = child_local[j2]
                        jb2 = j2 << 24
                        while frame:
                            lo5 = frame & -frame
                            frame ^= lo5
                            pr = jb2 | (lo5.bit_length() - 1)
                            if pr in child_vals and pr not in child_used:
                                self._record_edges(
                                    k, v, j2, lo5, child_vals[pr] & below_k
                                )
                self._watch_total -= own_count

            if anc_pairs is not None:
                # Fold the child's per-pair values (Definition 3.30
                # cases 6/7 bookkeeping; pre-drop values win).
                for pr in anc_pairs:
                    if pr in pair_used:
                        continue
                    if pr in child_used:
                        pair_used.add(pr)
                        continue
                    if pr in child_predrop:
                        val = child_predrop[pr]
                    elif pr in child_vals:
                        val = child_vals[pr]
                    else:
                        # Defensive: a tracking gap must never produce
                        # an over-strong (empty) mask — treat the pair
                        # as used, which merely skips one recording
                        # opportunity.
                        pair_used.add(pr)
                        continue
                    if not val & k_bit and pr not in pair_early:
                        pair_early[pr] = val
                    pair_acc[pr] = pair_acc.get(pr, 0) | val
            if (targeting >> p) & 1:
                if child_found:
                    pair_used.add(k << 24 | p)
                else:
                    resolved_here[k << 24 | p] = child_mask & ~k_bit
            if adjacent and not child_found:
                self._record_edges(
                    k - 1, adj_v, k, 1 << p, child_mask & adj_below
                )

            # ---- lines 12-14: deadend discovery + backjumping --------
            if child_found:
                found_any = True
            else:
                stats.futile_recursions += 1
                union_mask |= child_mask
                if needs_masks:
                    if use_nv and child_mask:
                        # Record NV from nogood (M ⊕ v)[child_mask].
                        top = child_mask.bit_length() - 1
                        w = v if top == k else embedding[top]
                        rest = child_mask & ~(1 << top)
                        if nv_k is not None:
                            length = rest.bit_length()
                            self._nv_at[top][w] = (anc[length], length, rest)
                            nogoods.recorded_vertex += 1
                        else:
                            embedding.append(v)
                            nogoods.record_vertex_nogood(
                                top, w, rest, anc, embedding
                            )
                            embedding.pop()
                        stats.nogoods_recorded_vertex += 1
                        stats.nogood_size_sum += child_mask.bit_count()
                        stats.nogood_size_count += 1
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
        stats.local_candidates_seen += n_seen
        stats.refine_ops += n_ref
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
        if adjacent and backjump_mask is not None:
            # Candidates the backjump skipped resolve to its nogood.
            rest = local[k] >> (p + 1) << (p + 1)
            if rest:
                self._record_edges(
                    k - 1, adj_v, k, rest, backjump_mask & adj_below
                )

        if anc_pairs is None and not resolved_here and not (
            backjump_mask is not None and targeting
        ):
            return (found_any, node_mask, _EMPTY_DICT, pair_used)

        pair_vals: Dict[Pair, int] = pool[4]
        pair_vals.clear()
        bk = bounds[k]
        if anc_pairs is not None:
            for pr in anc_pairs:
                if pr in pair_used:
                    continue
                if backjump_mask is not None:
                    pair_vals[pr] = backjump_mask
                elif pr in pair_early:
                    pair_vals[pr] = pair_early[pr]
                else:
                    pair_vals[pr] = (pair_acc.get(pr, 0) | bk) & ~k_bit
        for pr, val in resolved_here.items():
            if pr not in pair_used:
                pair_vals[pr] = val
        if backjump_mask is not None and targeting:
            # Pairs targeting this depth never reached resolve to the
            # backjump nogood (sound: M[K] alone is a nogood).
            kb = k << 24
            for p2 in iter_bits(targeting & local[k]):
                pr = kb | p2
                if pr not in pair_vals and pr not in pair_used:
                    pair_vals[pr] = backjump_mask
        return (found_any, node_mask, pair_vals, pair_used)

