"""Configuration of the GuP engine.

The defaults reproduce the paper's recommended setting: all guards on,
backjumping on, reservation size limit ``r = 3`` (§4.3.1), nogood guards
on edges restricted to the query 2-core (§3.3.3), DAG-graph DP filtering
and the VC matching order (§3.1).

Every knob here changes *what* GuP computes.  None selects an
implementation: production has one search (:mod:`repro.core.backtrack`)
and one GCS builder (:mod:`repro.filtering.masks`); the seed twins live
on as a test oracle in :mod:`repro.core.backtrack_ref`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class GuPConfig:
    """Knobs of the GuP algorithm.

    Attributes
    ----------
    reservation_limit:
        ``r``, the maximum reservation-guard size (Fig. 8).  ``None``
        means unbounded (the paper's ``r = ∞``); ``0`` effectively
        disables non-trivial reservations.
    use_reservation:
        Generate and test reservation guards ("R" in Fig. 9).
    use_nogood_vertex:
        Record and test nogood guards on vertices ("NV").
    use_nogood_edge:
        Record and test nogood guards on edges ("NE").
    use_backjumping:
        Abandon a node as soon as a discovered nogood is contained in the
        current partial embedding (Algorithm 2, line 14; "All" in Fig. 9).
    ne_two_core_only:
        Restrict NE guards to query edges inside the 2-core (§3.3.3).
    filter_method / ordering:
        Candidate filter and matching order; GuP uses extended DAG-graph
        DP [20] and VC [36].
    nogood_representation:
        ``"search_node"`` (the paper's O(1) encoding, §3.5.1) or
        ``"explicit"`` (literal assignment sets: O(|D|) match tests but
        path-independent matching — the representation ablation).
    break_symmetry:
        Extension (off by default, not in the paper): enumerate one
        representative per query-automorphism class and expand
        afterwards (see :mod:`repro.core.symmetry`).
    """

    reservation_limit: Optional[int] = 3
    use_reservation: bool = True
    nogood_representation: str = "search_node"
    use_nogood_vertex: bool = True
    use_nogood_edge: bool = True
    use_backjumping: bool = True
    ne_two_core_only: bool = True
    filter_method: str = "dagdp"
    ordering: str = "vc"
    break_symmetry: bool = False

    @property
    def needs_masks(self) -> bool:
        """Whether the search must compute deadend masks at all."""
        return self.use_nogood_vertex or self.use_nogood_edge or self.use_backjumping

    # ------------------------------------------------------------------
    # Ablation presets (Fig. 9)
    # ------------------------------------------------------------------

    @classmethod
    def baseline(cls) -> "GuPConfig":
        """Conventional backtracking: no guards, no backjumping."""
        return cls(
            use_reservation=False,
            use_nogood_vertex=False,
            use_nogood_edge=False,
            use_backjumping=False,
        )

    @classmethod
    def reservation_only(cls, r: Optional[int] = 3) -> "GuPConfig":
        """"R": reservation guards only."""
        return cls(
            reservation_limit=r,
            use_reservation=True,
            use_nogood_vertex=False,
            use_nogood_edge=False,
            use_backjumping=False,
        )

    @classmethod
    def r_nv(cls) -> "GuPConfig":
        """"R+NV": reservation plus vertex nogood guards."""
        return cls(
            use_reservation=True,
            use_nogood_vertex=True,
            use_nogood_edge=False,
            use_backjumping=False,
        )

    @classmethod
    def r_nv_ne(cls) -> "GuPConfig":
        """"R+NV+NE": all guards, still no backjumping."""
        return cls(
            use_reservation=True,
            use_nogood_vertex=True,
            use_nogood_edge=True,
            use_backjumping=False,
        )

    @classmethod
    def full(cls) -> "GuPConfig":
        """"All": complete GuP (the default)."""
        return cls()
