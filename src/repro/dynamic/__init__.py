"""Dynamic graphs: validated deltas, incremental artifact maintenance,
and continuous matching (DESIGN.md §9).

The rest of the repository treats a data graph as frozen; this package
is the write path.  A :class:`~repro.dynamic.delta.GraphDelta` describes
an edit batch (edge insertions/deletions, vertex additions),
:func:`~repro.dynamic.delta.apply_delta` turns it into a new frozen
:class:`~repro.graph.graph.Graph` while reusing every untouched adjacency
row by reference,
:meth:`repro.filtering.artifacts.DataArtifacts.apply_delta` patches the
dense filter artifacts instead of rebuilding them, and
:class:`~repro.dynamic.continuous.ContinuousMatcher` maintains the exact
embedding sets of standing queries across deltas.
"""

from repro.dynamic.delta import (
    DeltaError,
    DeltaSummary,
    GraphDelta,
    apply_delta,
    delta_from_payload,
    delta_to_payload,
    load_delta,
    loads_delta,
    saves_delta,
)
from repro.dynamic.continuous import ContinuousMatcher, EmbeddingDiff

__all__ = [
    "ContinuousMatcher",
    "DeltaError",
    "DeltaSummary",
    "EmbeddingDiff",
    "GraphDelta",
    "apply_delta",
    "delta_from_payload",
    "delta_to_payload",
    "load_delta",
    "loads_delta",
    "saves_delta",
]
