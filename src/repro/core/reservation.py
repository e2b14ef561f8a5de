r"""Reservation guards (§3.2) — propagated injectivity constraints.

A *reservation* of candidate vertex ``(u_i, v)`` is a set ``S`` of data
vertices such that every subembedding rooted at ``(u_i, v)`` uses at
least one vertex of ``S`` (Definition 3.3).  If a partial embedding has
already consumed all of ``S`` (``S ⊆ Im(M[:i])``), assigning ``v`` to
``u_i`` can never be completed injectively — the candidate is pruned
(Lemma 3.6).

Generation (Algorithm 1) walks query vertices in reverse matching order.
For each candidate ``(u_i, v)`` and forward neighbor ``u_j``, it builds
the reservation graph ``G_R`` (Eq. 1): an edge ``(v', w)`` for every
forward-adjacent candidate ``v' ∈ N(v) ∩ C(u_j)`` and every
``w ∈ R(u_j, v') \ {v}``.  Any vertex cover of ``G_R`` that is
*matchable* (Lemma 3.7) is a reservation guard candidate (Lemma 3.11);
the smallest one over all forward neighbors becomes ``R(u_i, v)``, with
the trivial reservation ``{v}`` as fallback (Definition 3.12).

The trivial ``{v}`` cannot prune (the injectivity check has already
rejected every ``v`` in the image) and is never stored: the tables hold
the non-trivial guards by candidate position, the search's key, and
:class:`repro.core.gcs.GuardedCandidateSpace` answers ``{v}`` for the rest.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.filtering.candidate_space import CandidateSpace
from repro.utils.bipartite import has_saturating_matching
from repro.utils.bitset import iter_bits
from repro.utils.vertexcover import constrained_vertex_cover

ReservationGuards = List[Dict[int, FrozenSet[int]]]
"""Per query vertex ``u_i``: position of ``v`` in ``C(u_i)`` -> the
non-trivial guard ``R(u_i, v)``.  A missing position means ``{v}``; an
empty list means no guards were generated."""


def is_matchable(
    cs: CandidateSpace,
    position: int,
    guard: FrozenSet[int],
) -> bool:
    """Lemma 3.7 matchability of ``guard`` as a reservation of position ``i``.

    The guard survives iff neither failure condition holds:

    (i)  some ``w ∈ S`` has ``C^{-1}(w)[:i] = ∅`` — no earlier query
         vertex can ever produce ``w`` in the image;
    (ii) some ``S' ⊆ S`` has ``|S'| > |C^{-1}(S')[:i]|`` — by Hall's
         theorem, equivalent to: ``S`` admits no matching into distinct
         earlier query vertices.

    On a mask-built CS (dense build path), small guards — the common
    case under the paper's default ``r = 3`` — are decided by checking
    Hall's condition directly on the ``C^{-1}`` query-vertex bitmasks:
    one AND per member plus popcounts over the subsets, no tuple
    materialization and no augmenting-path search.  Larger guards (and
    every guard on a set-built CS) take the matching-based path; both
    paths compute the same predicate.
    """
    inverse_masks = cs.inverse_masks
    if inverse_masks is not None and len(guard) <= 3:
        if not guard:
            return True  # vacuous, as in the matching-based path below
        below = (1 << position) - 1
        masks = []
        for w in guard:
            m = inverse_masks.get(w, 0) & below
            if not m:
                return False
            masks.append(m)
        if len(masks) == 1:
            return True
        if len(masks) == 2:
            return (masks[0] | masks[1]).bit_count() >= 2
        a, b, c = masks
        return (
            (a | b).bit_count() >= 2
            and (a | c).bit_count() >= 2
            and (b | c).bit_count() >= 2
            and (a | b | c).bit_count() >= 3
        )
    for w in guard:
        if not cs.inverse_candidates_below(w, position):
            return False
    return has_saturating_matching(
        sorted(guard),
        lambda w: cs.inverse_candidates_below(w, position),
    )


def _reservation_graph_edges(
    cs: CandidateSpace,
    guards: ReservationGuards,
    i: int,
    v: int,
    j: int,
) -> List[Tuple[int, int]]:
    """Edge set ``E_R`` of Eq. (1) for candidate ``(u_i, v)`` and ``u_j``."""
    edges: List[Tuple[int, int]] = []
    table, pos_j = guards[j], cs.positions[j]
    for v2 in cs.adjacent_candidates(i, v, j):
        for w in table.get(pos_j[v2], (v2,)):
            if w != v:
                edges.append((v2, w))
    return edges


def generate_reservation_guards(
    cs: CandidateSpace,
    size_limit: Optional[int] = 3,
) -> ReservationGuards:
    """Algorithm 1: the non-trivial reservation guard of every candidate.

    ``size_limit`` is the paper's ``r`` (``None`` = unbounded).  The
    returned guards satisfy Definition 3.3 — property tests verify this
    by enumerating rooted subembeddings on small instances.  The result
    has one table per query vertex (see :data:`ReservationGuards`).

    On a mask-built CS (dense build path) the generation is dispatched
    to :func:`_generate_reservation_guards_masks`, which produces the
    *same* guards through two exact shortcuts; the seed generation loop
    below is kept verbatim for the set-based builder.
    """
    if cs.inverse_masks is not None:
        return _generate_reservation_guards_masks(cs, size_limit)
    query = cs.query
    n = query.num_vertices
    guards: ReservationGuards = [{} for _ in range(n)]

    for i in range(n - 1, -1, -1):
        forward = [j for j in query.neighbors(i) if j > i]
        for p, v in enumerate(cs.candidates[i]):
            best = None  # the trivial {v} until a cover qualifies: not stored
            for j in forward:
                edges = _reservation_graph_edges(cs, guards, i, v, j)
                cover = constrained_vertex_cover(
                    edges,
                    size_limit,
                    lambda s: is_matchable(cs, i, s),
                )
                if cover is None:
                    continue
                candidate = frozenset(cover)
                # An empty E_R yields the empty cover: a valid (and
                # maximally strong) reservation — every rooted
                # subembedding via u_j is impossible (see Lemma 3.10
                # with all R(u_j, v') \ {v} empty).
                if best is None or len(candidate) < len(best):
                    best = candidate
            if best is not None:
                guards[i][p] = best
    return guards


def _generate_reservation_guards_masks(
    cs: CandidateSpace,
    size_limit: Optional[int] = 3,
) -> ReservationGuards:
    """Mask twin of the seed generation loop — identical guards, faster.

    Forward adjacency is decoded from the CS's forward bitmap tables
    (positions of ``C(u_j)``), the only candidate-edge tables a
    mask-built CS holds eagerly.  Two shortcuts, both *exact* (proven
    equal output by ``tests/test_build_masks.py``):

    * **All-trivial covers.**  The bitmap of the positions stored in
      ``guards[j]`` marks the non-trivial guards of ``C(u_j)``, so one
      AND tells whether every forward-adjacent candidate ``v'`` still
      carries its trivial guard.  Then every edge of ``E_R`` is the
      self-loop ``(v', v')`` (``v' != v``: a graph has no self-loops),
      so the *only* vertex cover is the full endpoint set — no greedy
      needed.  Since matchability is anti-monotone (subsets of
      matchable sets are matchable), the greedy's incremental
      admissibility checks succeed iff the full set is matchable: one
      test replaces the whole walk, and a popcount over ``r`` skips it.
      An empty endpoint set mirrors the seed's empty-``E_R`` case — the
      empty cover is accepted without a matchability test.
    * **Memoized matchability.**  ``is_matchable(cs, i, S)`` is a pure
      function of ``(i, S)``; candidates of the same ``u_i`` probe
      heavily overlapping sets, so results are cached per ``i``.
    """
    query = cs.query
    n = query.num_vertices
    candidates = cs.candidates
    guards: ReservationGuards = [{} for _ in range(n)]

    for i in range(n - 1, -1, -1):
        forward = [
            (j, cs.edge_bitmap_map(i, j), candidates[j], guards[j],
             sum(1 << q for q in guards[j]))
            for j in query.neighbors(i)
            if j > i
        ]
        cache: Dict[FrozenSet[int], bool] = {}

        def admissible(s: FrozenSet[int], _i: int = i, _cache=cache) -> bool:
            hit = _cache.get(s)
            if hit is None:
                hit = _cache[s] = is_matchable(cs, _i, s)
            return hit

        for p, v in enumerate(candidates[i]):
            best = None  # the trivial {v} until a cover qualifies: not stored
            for j, table, cand_j, guards_j, marked_j in forward:
                bm = table.get(v, 0)
                if not bm & marked_j:
                    if size_limit is not None and bm.bit_count() > size_limit:
                        continue
                    members = []
                    while bm:
                        low = bm & -bm
                        bm ^= low
                        members.append(cand_j[low.bit_length() - 1])
                    candidate = frozenset(members)
                    if members and not admissible(candidate):
                        continue
                else:
                    edges: List[Tuple[int, int]] = []
                    for q in iter_bits(bm):
                        v2 = cand_j[q]
                        for w in guards_j.get(q, (v2,)):
                            if w != v:
                                edges.append((v2, w))
                    cover = constrained_vertex_cover(
                        edges, size_limit, admissible
                    )
                    if cover is None:
                        continue
                    candidate = frozenset(cover)
                if best is None or len(candidate) < len(best):
                    best = candidate
            if best is not None:
                guards[i][p] = best
    return guards


def reservation_memory_bytes(sizes: Dict[int, int]) -> int:
    """Table 3 cost model: one word per reserved vertex + key reference,
    over a histogram guard size -> number of candidates."""
    return sum((size + 2) * 8 * count for size, count in sizes.items())
