"""The candidate space (CS): candidate vertices plus candidate edges [14].

A ``CandidateSpace`` is the frozen output of the filtering stage and the
substrate every matcher in this repository searches.  It stores

* ``C(u_i)`` — the sorted candidate list of each query vertex;
* candidate edges — for each query edge ``(u_i, u_j)`` and each candidate
  ``v`` of ``u_i``, the sorted list of candidates of ``u_j`` adjacent to
  ``v`` in the data graph, in both directions (a mask-built CS
  materializes only the forward ``i < j`` bitmaps and derives the rest
  on first access);
* the inverse index ``C^{-1}(v)`` — the query vertices for which data
  vertex ``v`` is a candidate — needed by the matchability conditions of
  Lemma 3.7;
* the **dense index**: every candidate of ``u_j`` has a position in the
  sorted ``C(u_j)``, and each candidate edge direction is additionally
  materialized as a Python-int bitmap over those positions
  (DESIGN.md "Dense-index bitmap layout").  The search layers refine
  local candidate sets with single C-speed ``&`` operations instead of
  per-element Python loops.

GuP's guarded candidate space (:mod:`repro.core.gcs`) wraps one of these
and attaches guards.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.filtering.dagdp import dag_graph_dp
from repro.filtering.gql_filter import gql_candidates
from repro.filtering.ldf import ldf_candidates
from repro.filtering.nlf import nlf_candidates
from repro.filtering.nlf2 import nlf2_candidates
from repro.graph.graph import Graph
from repro.utils.bitset import iter_bits

_EMPTY: Tuple[int, ...] = ()
_EMPTY_BITMAPS: Dict[int, int] = {}


class CandidateSpace:
    """Frozen candidate sets and candidate edges for one (query, data) pair."""

    __slots__ = (
        "query",
        "data",
        "candidates",
        "positions",
        "_candidate_sets",
        "_edge_lists",
        "_edge_bitmaps",
        "_full_masks",
        "_inverse",
        "_inverse_masks",
        "_inverse_below",
        "num_candidate_edges",
    )

    def __init__(
        self,
        query: Graph,
        data: Graph,
        candidates: Sequence[Sequence[int]],
        *,
        candidate_masks: Optional[Sequence[int]] = None,
        adjacency_bitmaps: Optional[Sequence[int]] = None,
    ) -> None:
        """Freeze ``candidates`` and materialize the candidate edges.

        ``candidate_masks`` / ``adjacency_bitmaps`` optionally supply the
        dense build path's data-vertex-id bitmaps (``candidates`` decoded
        as masks, and per-data-vertex adjacency masks).  Such a CS
        eagerly builds only the forward ``(i < j)`` bitmap tables, with
        one AND per candidate, and ``inverse_masks``; every other
        structure is derived from them on first access (threads racing
        on a first access at worst derive it twice, to equal values).
        The accessors return identical values either way.
        """
        if len(candidates) != query.num_vertices:
            raise ValueError("one candidate list per query vertex required")
        self.query = query
        self.data = data
        self.candidates: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(c)) for c in candidates
        )
        # Dense index: candidate vertex -> position in the sorted C(u_i).
        self.positions: Tuple[Dict[int, int], ...] = tuple(
            {v: p for p, v in enumerate(c)} for c in self.candidates
        )
        self._full_masks: Tuple[int, ...] = tuple(
            (1 << len(c)) - 1 for c in self.candidates
        )
        self._candidate_sets: Optional[Tuple[FrozenSet[int], ...]] = None
        # Candidate edges per direction (i, j): v -> adjacent C(u_j), as
        # sorted tuples and as bitmaps over positions of C(u_j).
        self._edge_lists: Dict[Tuple[int, int], Dict[int, Tuple[int, ...]]] = {}
        self._edge_bitmaps: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._inverse: Optional[Dict[int, Tuple[int, ...]]] = None
        # C^{-1}(v) as query-vertex bitmasks — reservation generation's
        # matchability tests become mask arithmetic (dense build path
        # only, so the seed set-based builder stays reference-verbatim).
        self._inverse_masks: Optional[Dict[int, int]] = None
        self._inverse_below: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        if candidate_masks is not None and adjacency_bitmaps is not None:
            self._freeze_masks(candidate_masks, adjacency_bitmaps)
        else:
            self._freeze_sets()

    def _freeze_masks(
        self, candidate_masks: Sequence[int], adjacency_bitmaps: Sequence[int]
    ) -> None:
        """Forward bitmap tables and ``inverse_masks`` from the masks."""
        edge_count = 0
        for i, j in self.query.edges():
            table: Dict[int, int] = {}
            pos_j = self.positions[j]
            mask_j = candidate_masks[j]
            for v in self.candidates[i]:
                rem = adjacency_bitmaps[v] & mask_j
                if rem:
                    bm = 0
                    while rem:
                        low = rem & -rem
                        rem ^= low
                        bm |= 1 << pos_j[low.bit_length() - 1]
                    table[v] = bm
                    edge_count += bm.bit_count()
            self._edge_bitmaps[(i, j)] = table
        self.num_candidate_edges = edge_count
        inverse_masks: Dict[int, int] = {}
        for i, c in enumerate(self.candidates):
            bit = 1 << i
            for v in c:
                inverse_masks[v] = inverse_masks.get(v, 0) | bit
        self._inverse_masks = inverse_masks

    def _freeze_sets(self) -> None:
        """The seed materialization: every structure, both directions."""
        query, data = self.query, self.data
        edge_lists = self._edge_lists
        edge_bitmaps = self._edge_bitmaps
        edge_count = 0
        for i, j in query.edges():
            forward: Dict[int, Tuple[int, ...]] = {}
            forward_bm: Dict[int, int] = {}
            backward: Dict[int, List[int]] = {}
            pos_j = self.positions[j]
            c_j = self.candidate_sets[j]
            for v in self.candidates[i]:
                adjacent_t = tuple(
                    w for w in data.neighbors(v) if w in c_j
                )
                if adjacent_t:
                    forward[v] = adjacent_t
                    bm = 0
                    for w in adjacent_t:
                        bm |= 1 << pos_j[w]
                        backward.setdefault(w, []).append(v)
                    forward_bm[v] = bm
            edge_lists[(i, j)] = forward
            edge_bitmaps[(i, j)] = forward_bm
            pos_i = self.positions[i]
            edge_lists[(j, i)] = {
                w: tuple(sorted(vs)) for w, vs in backward.items()
            }
            backward_bm: Dict[int, int] = {}
            for w, vs in backward.items():
                bm = 0
                for v in vs:
                    bm |= 1 << pos_i[v]
                backward_bm[w] = bm
            edge_bitmaps[(j, i)] = backward_bm
            edge_count += sum(len(adj) for adj in forward.values())
        self.num_candidate_edges = edge_count

        inverse: Dict[int, List[int]] = {}
        for i, c in enumerate(self.candidates):
            for v in c:
                inverse.setdefault(v, []).append(i)
        self._inverse = {v: tuple(us) for v, us in inverse.items()}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def candidate_sets(self) -> Tuple[FrozenSet[int], ...]:
        """``C(u_i)`` as frozensets (O(1) membership), built on first use."""
        sets = self._candidate_sets
        if sets is None:
            sets = self._candidate_sets = tuple(
                frozenset(c) for c in self.candidates
            )
        return sets

    def _bitmap_table(self, i: int, j: int) -> Dict[int, int]:
        """Bitmap table of direction ``(i, j)``, transposing the reverse
        table on first use; empty if ``(u_i, u_j)`` is no query edge."""
        table = self._edge_bitmaps.get((i, j))
        if table is None:
            reverse = self._edge_bitmaps.get((j, i))
            if reverse is None:
                return _EMPTY_BITMAPS
            # reverse maps v in C(u_j) to positions of C(u_i); flip it.
            pos_j = self.positions[j]
            by_position = [0] * len(self.candidates[i])
            for v, bm in reverse.items():
                bit = 1 << pos_j[v]
                while bm:
                    low = bm & -bm
                    bm ^= low
                    by_position[low.bit_length() - 1] |= bit
            cand_i = self.candidates[i]
            table = self._edge_bitmaps[(i, j)] = {
                cand_i[p]: bm for p, bm in enumerate(by_position) if bm
            }
        return table

    def adjacent_candidates(self, i: int, v: int, j: int) -> Tuple[int, ...]:
        """Candidates of ``u_j`` adjacent (in the data graph) to ``(u_i, v)``.

        ``u_i`` and ``u_j`` must be adjacent in the query graph.  The
        tuples of a direction are decoded from its bitmap table on first
        use.
        """
        lists = self._edge_lists.get((i, j))
        if lists is None:
            table = self._bitmap_table(i, j)
            if not table:
                return _EMPTY
            cand_j = self.candidates[j]
            lists = self._edge_lists[(i, j)] = {
                w: tuple(cand_j[p] for p in iter_bits(bm))
                for w, bm in table.items()
            }
        return lists.get(v, _EMPTY)

    def edge_bitmap(self, i: int, v: int, j: int) -> int:
        """:meth:`adjacent_candidates` as a bitmap over positions of ``C(u_j)``.

        Bit ``p`` is set iff ``candidates[j][p]`` is adjacent to ``(u_i, v)``.
        Intersecting a local candidate bitmap of ``u_j`` with this value is
        the dense-index form of Definition 3.18's refinement — one int AND.
        """
        return self._bitmap_table(i, j).get(v, 0)

    def edge_bitmap_map(self, i: int, j: int) -> Dict[int, int]:
        """The whole bitmap table of direction ``(i, j)``: ``v -> bitmap``.

        The search layers prefetch these per query edge so the inner loop
        is one dict get plus one AND (missing ``v`` means no adjacent
        candidates — callers default to 0).
        """
        return self._bitmap_table(i, j)

    def position(self, i: int, v: int) -> int:
        """Position of ``v`` in the sorted ``C(u_i)``; -1 if not a candidate."""
        return self.positions[i].get(v, -1)

    def full_mask(self, i: int) -> int:
        """Bitmap with one bit per candidate of ``u_i`` (all set)."""
        return self._full_masks[i]

    def inverse_candidates(self, v: int) -> Tuple[int, ...]:
        """``C^{-1}(v)``: query vertices having ``v`` as candidate (sorted)."""
        inverse = self._inverse
        if inverse is None:
            inverse = self._inverse = {
                w: tuple(iter_bits(m)) for w, m in self._inverse_masks.items()
            }
        return inverse.get(v, _EMPTY)

    @property
    def inverse_masks(self) -> Optional[Dict[int, int]]:
        """``C^{-1}`` as query-vertex bitmasks (``v -> mask``).

        ``None`` when the CS was built by the seed set pipeline; the
        dense build path always populates it, and reservation-guard
        generation then tests Lemma 3.7 with mask arithmetic.
        """
        return self._inverse_masks

    def inverse_candidates_below(self, v: int, i: int) -> Tuple[int, ...]:
        """``C^{-1}(v)[:i]`` of Lemma 3.7 (query ids < ``i``).

        Cached per ``(v, i)``: Lemma 3.7 matchability checks probe the
        same slices repeatedly during reservation generation.  A miss is
        one ``bisect`` on the sorted inverse tuple — or, on a mask-built
        CS, one AND against the below-``i`` mask plus a bit decode.
        """
        key = (v, i)
        cached = self._inverse_below.get(key)
        if cached is None:
            if self._inverse_masks is not None:
                m = self._inverse_masks.get(v, 0) & ((1 << i) - 1)
                bits: List[int] = []
                while m:
                    low = m & -m
                    m ^= low
                    bits.append(low.bit_length() - 1)
                cached = self._inverse_below[key] = tuple(bits)
            else:
                inv = self._inverse.get(v, _EMPTY)
                cached = self._inverse_below[key] = inv[: bisect_left(inv, i)]
        return cached

    def total_candidates(self) -> int:
        """Sum of candidate-set sizes."""
        return sum(len(c) for c in self.candidates)

    def is_empty(self) -> bool:
        """Whether some query vertex has no candidates (zero embeddings)."""
        return any(not c for c in self.candidates)

    def __repr__(self) -> str:
        sizes = [len(c) for c in self.candidates]
        return (
            f"CandidateSpace(|V_Q|={self.query.num_vertices}, sizes={sizes}, "
            f"edges={self.num_candidate_edges})"
        )


def _consistency_prune(
    query: Graph,
    data: Graph,
    candidates: List[List[int]],
) -> List[List[int]]:
    """Drop candidates with no adjacent candidate for some query neighbor.

    Sound for the same reason as DAG-graph DP; runs to the (unique)
    fixpoint so the candidate-edge lists contain no dangling vertices.

    Incremental support counting (AC-4 style): one initial pass counts,
    for every candidate ``(u, v)`` and query neighbor ``u2``, the number
    of adjacent candidates in ``C(u2)``; removals then decrement the
    counts of data-neighbors and only vertices whose support hits zero
    are (re)visited, instead of rescanning every candidate's full
    data-neighborhood each pass.
    """
    cand_sets = [set(c) for c in candidates]
    nbrs = [tuple(query.neighbors(u)) for u in query.vertices()]

    # AC-6-style incremental support: each (u, v, u2) keeps ONE witness
    # (the first data neighbor of v inside C(u2)) plus a resume index,
    # and an inverted index from each witness to its dependents.  The
    # initial pass early-exits per constraint (like one pass of the old
    # fixpoint); a removal only revisits the pairs whose witness died,
    # resuming the scan where it stopped — each constraint scans its
    # data neighborhood at most once over the whole run, instead of
    # rescanning every candidate's full neighborhood per pass.
    witness_idx: Dict[Tuple[int, int, int], int] = {}
    dependents: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    dead: List[Tuple[int, int]] = []
    for u in query.vertices():
        for v in cand_sets[u]:
            for u2 in nbrs[u]:
                c2 = cand_sets[u2]
                for idx, w in enumerate(data.neighbors(v)):
                    if w in c2:
                        witness_idx[(u, v, u2)] = idx
                        dependents.setdefault((u2, w), []).append((u, v))
                        break
                else:
                    dead.append((u, v))
                    break  # v is doomed; no need to seed other neighbors

    while dead:
        u, v = dead.pop()
        if v not in cand_sets[u]:
            continue  # already removed via another lost witness
        cand_sets[u].remove(v)
        for u3, v3 in dependents.pop((u, v), ()):
            if v3 not in cand_sets[u3]:
                continue
            nv = data.neighbors(v3)
            c2 = cand_sets[u]
            for idx in range(witness_idx[(u3, v3, u)] + 1, len(nv)):
                w2 = nv[idx]
                if w2 in c2:
                    witness_idx[(u3, v3, u)] = idx
                    dependents.setdefault((u, w2), []).append((u3, v3))
                    break
            else:
                dead.append((u3, v3))
    return [sorted(c) for c in cand_sets]


FILTERS = ("ldf", "nlf", "nlf2", "dagdp", "gql")


def build_candidate_space(
    query: Graph,
    data: Graph,
    method: str = "dagdp",
    base: Optional[List[List[int]]] = None,
    dag: Optional["QueryDag"] = None,
) -> CandidateSpace:
    """Run a filtering pipeline and freeze the result into a CS.

    ``method`` is one of ``"ldf"``, ``"nlf"``, ``"dagdp"`` (default —
    what GuP uses, §3.1), or ``"gql"`` (what the GQL baselines use).
    ``base`` optionally supplies precomputed LDF+NLF candidate lists
    (callers that already filtered for order selection avoid refiltering);
    ``dag`` optionally reuses a memoized query DAG (``"dagdp"`` only).
    All pipelines end with a consistency prune so candidate edges are
    closed under adjacency.
    """
    if method == "ldf":
        candidates = ldf_candidates(query, data)
    elif method == "nlf":
        candidates = base if base is not None else nlf_candidates(query, data)
    elif method == "nlf2":
        candidates = nlf2_candidates(query, data, base=base)
    elif method == "dagdp":
        candidates = dag_graph_dp(query, data, base=base, dag=dag)
    elif method == "gql":
        candidates = gql_candidates(query, data, base=base)
    else:
        raise ValueError(f"unknown filter {method!r}; expected one of {FILTERS}")
    candidates = _consistency_prune(query, data, [list(c) for c in candidates])
    return CandidateSpace(query, data, candidates)
