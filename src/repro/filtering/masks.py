"""Mask-domain GCS build pipeline (the dense *build* path, DESIGN.md §8).

PR 1 moved the backtracking hot path onto Python-int bitmaps; this
module does the same for the *construction* side.  A candidate set is a
single int over data-vertex ids (bit ``v`` == data vertex ``v``), so

* LDF/NLF seeding is a handful of cached-mask ANDs per query vertex
  (:meth:`repro.filtering.artifacts.DataArtifacts.nlf_candidate_masks`);
* DAG-graph DP's survival test collapses to
  ``adjacency_bitmaps[v] & candidate_mask[u_c] != 0`` — one AND and a
  zero test per constraining neighbor — or, once the neighbourhood
  ``N(c)`` of a constraining mask is cached, to one ``mask & N(c)``
  for all candidates at once (:func:`survivors`); the sweeps are
  *worklist-driven*: a vertex is re-examined only when some
  constraining neighbor's candidate set shrank since it was last
  examined in that sweep direction (a per-candidate survival test
  depends only on the constraining masks, so re-testing under unchanged
  masks is provably a no-op — the delta-propagation is exact, not a
  heuristic);
* the consistency prune is a plain mask worklist (its fixpoint is the
  unique greatest one, so any schedule yields the set-based result);
* :class:`~repro.filtering.candidate_space.CandidateSpace` positions and
  forward edge bitmaps are materialized straight from the masks without
  the intermediate sorted-list/set round-trips; everything else the CS
  offers is derived on first access.

Every function decodes to exactly what its set-based counterpart in
:mod:`repro.filtering.dagdp` / :mod:`repro.filtering.gql_filter` /
:mod:`repro.filtering.nlf2` / :mod:`repro.filtering.candidate_space`
returns — including ``max_rounds``-truncated (pre-fixpoint) runs —
which ``tests/test_build_masks.py`` proves differentially.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.filtering.candidate_space import CandidateSpace
from repro.filtering.dag import QueryDag, build_query_dag
from repro.graph.graph import Graph
from repro.utils.bipartite import has_saturating_matching
from repro.utils.bitset import bits_of


class MaskView(Sequence):
    """Read-only sorted-list view of a data-vertex mask.

    Matching orders take candidate lists but (today) only consume their
    sizes; this view hands them ``len`` at popcount speed and decodes
    the bits lazily if an ordering ever indexes or iterates.
    """

    __slots__ = ("mask", "_bits")

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self._bits: Optional[List[int]] = None

    def _decode(self) -> List[int]:
        if self._bits is None:
            self._bits = bits_of(self.mask)
        return self._bits

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __getitem__(self, index):
        return self._decode()[index]

    def __iter__(self):
        return iter(self._decode())

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and v >= 0 and bool(self.mask >> v & 1)

    def __repr__(self) -> str:
        return f"MaskView({self._decode()!r})"


def survivors(
    adjacency: Sequence[int],
    mask: int,
    constraining_masks: List[int],
    neighbourhoods: Optional[Dict[int, int]] = None,
) -> int:
    """Bits of ``mask`` whose adjacency hits every constraining mask.

    ``neighbourhoods`` optionally caches ``N(c)``, the OR of the
    adjacency rows of ``c``'s bits, keyed by the mask ``c``.  Adjacency
    is symmetric, so candidate ``v`` survives ``c`` iff ``v`` is in
    ``N(c)``: a constraint whose neighbourhood is cached, or which has
    no more bits than ``mask`` (so building ``N(c)`` costs no more than
    the per-candidate test), is applied as one AND.  Every other
    constraint keeps the per-candidate test.
    """
    if neighbourhoods is not None:
        size = mask.bit_count()
        looped = []
        for c_mask in constraining_masks:
            n_c = neighbourhoods.get(c_mask)
            if n_c is None:
                if c_mask.bit_count() > size:
                    looped.append(c_mask)
                    continue
                n_c = 0
                rem = c_mask
                while rem:
                    low = rem & -rem
                    rem ^= low
                    n_c |= adjacency[low.bit_length() - 1]
                neighbourhoods[c_mask] = n_c
            mask &= n_c
        if not looped or not mask:
            return mask
        constraining_masks = looped
    new = mask
    rem = mask
    if len(constraining_masks) == 1:
        # The common case (tree-ish query DAGs): no inner loop at all.
        c0 = constraining_masks[0]
        while rem:
            low = rem & -rem
            rem ^= low
            if not adjacency[low.bit_length() - 1] & c0:
                new ^= low
        return new
    while rem:
        low = rem & -rem
        rem ^= low
        adj = adjacency[low.bit_length() - 1]
        for c_mask in constraining_masks:
            if not adj & c_mask:
                new ^= low
                break
    return new


def dag_graph_dp_masks(
    query: Graph,
    adjacency: Sequence[int],
    base_masks: Sequence[int],
    max_rounds: int = 3,
    dag: Optional[QueryDag] = None,
    stage_log=None,
    neighbourhoods: Optional[Dict[int, int]] = None,
) -> List[int]:
    """Mask twin of :func:`repro.filtering.dagdp.dag_graph_dp`.

    Same alternating bottom-up/top-down sweep schedule and the same
    ``max_rounds`` truncation, so the result is *identical* (not merely
    equivalent) to the set version's — but worklist-driven: per sweep
    direction a vertex carries a dirty flag, set when a constraining
    neighbor's mask shrinks and cleared on examination.

    ``stage_log`` (a :class:`repro.obs.explain.FilterStageLog`) records
    the surviving-candidate popcounts after each executed round plus
    the swept DAG — reads only, so a logged run is identical to a plain
    one.  ``neighbourhoods`` is the :func:`survivors` cache; pass the
    same dict to :func:`consistency_prune_masks` to share it.
    """
    n = query.num_vertices
    if n == 0:
        return []
    if neighbourhoods is None:
        neighbourhoods = {}
    masks = list(base_masks)
    if dag is None:
        dag = build_query_dag(query, [m.bit_count() for m in masks])
    if stage_log is not None:
        stage_log.set_dag(dag)
    parents, children = dag.parents, dag.children
    bottom_up = dag.reverse_topological()
    top_down = dag.topological
    dirty_up = [True] * n  # constraining set: DAG children
    dirty_down = [True] * n  # constraining set: DAG parents

    def sweep(order, constraining, dirty) -> bool:
        changed = False
        for u in order:
            cons = constraining[u]
            if not cons or not dirty[u]:
                continue
            dirty[u] = False
            old = masks[u]
            new = survivors(
                adjacency, old, [masks[c] for c in cons], neighbourhoods
            )
            if new != old:
                masks[u] = new
                changed = True
                # u constrains its DAG parents bottom-up (they check
                # their children) and its DAG children top-down.
                for p in parents[u]:
                    dirty_up[p] = True
                for c in children[u]:
                    dirty_down[c] = True
        return changed

    for round_no in range(max_rounds):
        removed_up = sweep(bottom_up, children, dirty_up)
        removed_down = sweep(top_down, parents, dirty_down)
        if stage_log is not None:
            stage_log.record_masks(f"dagdp.round{round_no + 1}", masks)
        if not removed_up and not removed_down:
            break
    return masks


def consistency_prune_masks(
    query: Graph,
    adjacency: Sequence[int],
    masks: Sequence[int],
    neighbourhoods: Optional[Dict[int, int]] = None,
) -> List[int]:
    """Mask twin of ``candidate_space._consistency_prune``.

    Runs the (unique) greatest fixpoint of "every candidate has an
    adjacent candidate for each query neighbor" as a vertex worklist;
    schedule differences from the AC-6 set version cannot change the
    result, only the route to it.  ``neighbourhoods`` is the
    :func:`survivors` cache.
    """
    if neighbourhoods is None:
        neighbourhoods = {}
    masks = list(masks)
    nbrs = [query.neighbors(u) for u in query.vertices()]
    queued = [bool(nbrs[u]) for u in query.vertices()]
    pending = deque(u for u in query.vertices() if queued[u])
    while pending:
        u = pending.popleft()
        queued[u] = False
        old = masks[u]
        new = survivors(
            adjacency, old, [masks[u2] for u2 in nbrs[u]], neighbourhoods
        )
        if new != old:
            masks[u] = new
            for u2 in nbrs[u]:
                if not queued[u2]:
                    queued[u2] = True
                    pending.append(u2)
    return masks


def nlf2_candidate_masks(
    query: Graph, artifacts, base_masks: Sequence[int]
) -> List[int]:
    """Mask twin of :func:`repro.filtering.nlf2.nlf2_candidates`."""
    from repro.filtering.nlf2 import _two_hop_label_counts

    query_tables = _two_hop_label_counts(query)
    refined: List[int] = []
    for u in query.vertices():
        mask = base_masks[u]
        for label, count in query_tables[u].items():
            if not mask:
                break
            mask &= artifacts.nlf2_count_mask(label, count)
        refined.append(mask)
    return refined


def gql_candidate_masks(
    query: Graph,
    artifacts,
    base_masks: Sequence[int],
    max_rounds: int = 4,
) -> List[int]:
    """Mask twin of :func:`repro.filtering.gql_filter.gql_candidates`.

    Same round structure and fixpoint test; the bipartite neighborhoods
    are decoded from one AND per query neighbor instead of scanning the
    candidate's full data neighborhood with membership probes.
    """
    adjacency = artifacts.adjacency_bitmaps
    masks = list(base_masks)
    for _ in range(max_rounds):
        changed = False
        for u in query.vertices():
            u_nbrs = query.neighbors(u)
            if not u_nbrs:
                continue
            old = masks[u]
            new = old
            rem = old
            while rem:
                low = rem & -rem
                rem ^= low
                adj = adjacency[low.bit_length() - 1]
                right_of = {u2: bits_of(adj & masks[u2]) for u2 in u_nbrs}
                if not has_saturating_matching(
                    u_nbrs, lambda l: right_of[l]
                ):
                    new ^= low
            if new != old:
                masks[u] = new
                changed = True
        if not changed:
            break
    return masks


def build_candidate_space_masks(
    query: Graph,
    data: Graph,
    artifacts,
    method: str = "dagdp",
    base_masks: Optional[Sequence[int]] = None,
    dag: Optional[QueryDag] = None,
    stage_log=None,
) -> CandidateSpace:
    """Mask twin of :func:`repro.filtering.candidate_space.build_candidate_space`.

    ``artifacts`` is a :class:`repro.filtering.artifacts.DataArtifacts`
    for ``data``; ``base_masks`` optionally supplies precomputed LDF+NLF
    masks (callers that already seeded for order selection avoid
    refiltering); ``dag`` optionally reuses a memoized query DAG.
    """
    if base_masks is None:
        base_masks = artifacts.nlf_candidate_masks(query)
    adjacency = artifacts.adjacency_bitmaps
    # N(c) per constraining mask, shared by DAG-DP and the prune.
    neighbourhoods: Dict[int, int] = {}
    if stage_log is not None:
        stage_log.record_masks("seed", base_masks)
    if method == "ldf":
        masks = artifacts.ldf_candidate_masks(query)
    elif method == "nlf":
        masks = list(base_masks)
    elif method == "nlf2":
        masks = nlf2_candidate_masks(query, artifacts, base_masks)
    elif method == "dagdp":
        masks = dag_graph_dp_masks(
            query, adjacency, base_masks, dag=dag, stage_log=stage_log,
            neighbourhoods=neighbourhoods,
        )
    elif method == "gql":
        masks = gql_candidate_masks(query, artifacts, base_masks)
    else:
        from repro.filtering.candidate_space import FILTERS

        raise ValueError(f"unknown filter {method!r}; expected one of {FILTERS}")
    if stage_log is not None and method != "dagdp":
        stage_log.record_masks(method, masks)
    masks = consistency_prune_masks(query, adjacency, masks, neighbourhoods)
    if stage_log is not None:
        stage_log.record_masks("consistency", masks)
    return CandidateSpace(
        query,
        data,
        [bits_of(m) for m in masks],
        candidate_masks=masks,
        adjacency_bitmaps=adjacency,
    )
