"""Post-run guard inventories: what did a search learn?

Utilities that summarize the guard state after a GuP run — useful for
debugging pruning behaviour and for the guard-inspection example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.backtrack import GuPSearch
from repro.core.gcs import GuardedCandidateSpace
from repro.matching.result import SearchStats
from repro.utils.bitset import bit_count


@dataclass(frozen=True)
class GuardInventory:
    """Aggregate view of one run's guards."""

    reservations_total: int
    reservations_nontrivial: int
    reservation_size_histogram: Dict[int, int]
    nv_guards: int
    ne_guards: int
    nv_dom_histogram: Dict[int, int]
    prunes_by_kind: Dict[str, int]

    def lines(self) -> List[str]:
        """Human-readable rendering."""
        out = [
            f"reservation guards: {self.reservations_total} "
            f"({self.reservations_nontrivial} non-trivial)",
        ]
        for size in sorted(self.reservation_size_histogram):
            out.append(
                f"  |R| = {size}: {self.reservation_size_histogram[size]}"
            )
        out.append(f"nogood guards: {self.nv_guards} on vertices, "
                   f"{self.ne_guards} on edges")
        for size in sorted(self.nv_dom_histogram):
            out.append(f"  |dom(NV)| = {size}: {self.nv_dom_histogram[size]}")
        out.append("prunes: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.prunes_by_kind.items())
        ))
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


def guard_inventory(
    gcs: GuardedCandidateSpace,
    stats: Optional[SearchStats] = None,
) -> GuardInventory:
    """Summarize the guards attached to a GCS after a search.

    ``gcs.nogoods`` holds the store of the *most recent* search over the
    GCS; pass the matching :class:`SearchStats` for prune counters.
    """
    size_hist = gcs.reservation_sizes()
    store = gcs.nogoods
    nv_hist: Dict[int, int] = {}
    iter_guards = getattr(store, "iter_vertex_guards", None)
    vertex_guards = list(iter_guards()) if iter_guards is not None else []
    for guard in vertex_guards:
        if isinstance(guard, tuple) and len(guard) == 3 and isinstance(guard[2], int):
            dom_size = bit_count(guard[2])  # encoded triplet
        else:
            dom_size = len(guard)  # explicit assignment tuple
        nv_hist[dom_size] = nv_hist.get(dom_size, 0) + 1

    prunes: Dict[str, int] = {}
    if stats is not None:
        prunes = {
            "injectivity": stats.pruned_injectivity,
            "reservation": stats.pruned_reservation,
            "nogood_vertex": stats.pruned_nogood_vertex,
            "nogood_edge": stats.pruned_nogood_edge,
            "symmetry": stats.pruned_symmetry,
        }

    return GuardInventory(
        reservations_total=sum(size_hist.values()),
        reservations_nontrivial=gcs.nontrivial_reservations,
        reservation_size_histogram=size_hist,
        nv_guards=store.num_vertex_guards,
        ne_guards=store.num_edge_guards,
        nv_dom_histogram=nv_hist,
        prunes_by_kind=prunes,
    )


def run_and_inventory(
    gcs: GuardedCandidateSpace,
    **search_kwargs,
) -> Tuple[GuPSearch, GuardInventory]:
    """Run a fresh search over ``gcs`` and return it with its inventory."""
    search = GuPSearch(gcs, **search_kwargs)
    search.run()
    return search, guard_inventory(gcs, search.stats)
