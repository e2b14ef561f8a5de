"""Validated graph deltas and their application (DESIGN.md §9).

A :class:`GraphDelta` is a batch of edits against a specific graph
shape: vertices may be *added* (with a label; they receive the next
free ids), edges may be added or removed.  Vertices are never removed
and labels never change, so vertex ids are stable across the lifetime
of a served graph — which is what lets cached embeddings, candidate
bitmaps, and filter artifacts be *patched* instead of rebuilt.

:func:`apply_delta` produces a new frozen
:class:`~repro.graph.graph.Graph` without re-deriving any untouched
row: adjacency row tuples, neighbor frozensets, and NLF tables of
vertices not incident to an edited edge are shared (the same objects)
with the source graph, and so are the ``.graph`` text blocks behind
:func:`~repro.graph.io.graph_checksum` when the source has them; an
edge-only delta also shares the labels tuple and label index.  The
returned :class:`DeltaSummary` records exactly what was touched —
vertices, labels, NLF rows — and is the contract every downstream
maintainer patches against
(:meth:`repro.filtering.artifacts.DataArtifacts.apply_delta`,
:class:`repro.dynamic.continuous.ContinuousMatcher`, the service
catalog's ``update``).

Deltas have a text form (for the ``repro update`` CLI) mirroring the
``.graph`` format::

    # comment
    av <label>        add a vertex carrying <label> (ids assigned in order)
    ae <u> <v>        add undirected edge (u, v); may reference new ids
    re <u> <v>        remove existing undirected edge (u, v)

and a JSON payload form (:func:`delta_to_payload` /
:func:`delta_from_payload`) used by the service wire protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Tuple, Union

from repro.graph.graph import Graph, label_counts
from repro.graph.io import patch_text_blocks

PathLike = Union[str, Path]


class DeltaError(ValueError):
    """A delta is malformed or inconsistent with the graph it targets."""


def _normalize_edge(u: int, v: int) -> Tuple[int, int]:
    if not (isinstance(u, int) and isinstance(v, int)) or isinstance(
        u, bool
    ) or isinstance(v, bool):
        raise DeltaError(f"edge endpoints must be ints, got ({u!r}, {v!r})")
    if u < 0 or v < 0:
        raise DeltaError(f"edge ({u}, {v}) has a negative endpoint")
    if u == v:
        raise DeltaError(f"self-loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphDelta:
    """One validated edit batch.

    Attributes
    ----------
    add_vertices:
        Labels of vertices to append; against a graph with ``n``
        vertices they receive ids ``n, n+1, ...`` in order.
    add_edges / remove_edges:
        Undirected edges, normalized to ``(min, max)`` on construction.
        ``add_edges`` may reference freshly added vertex ids;
        ``remove_edges`` must name edges present in the target graph.

    Construction validates everything knowable without the graph
    (self-loops, duplicates, an edge both added and removed, label
    hashability); :meth:`validate` checks the rest against a target.
    """

    add_vertices: Tuple[object, ...] = ()
    add_edges: Tuple[Tuple[int, int], ...] = ()
    remove_edges: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for label in self.add_vertices:
            try:
                hash(label)
            except TypeError:
                raise DeltaError(f"unhashable vertex label {label!r}")
        object.__setattr__(
            self, "add_vertices", tuple(self.add_vertices)
        )
        added = tuple(_normalize_edge(u, v) for u, v in self.add_edges)
        removed = tuple(_normalize_edge(u, v) for u, v in self.remove_edges)
        if len(set(added)) != len(added):
            raise DeltaError("duplicate edge in add_edges")
        if len(set(removed)) != len(removed):
            raise DeltaError("duplicate edge in remove_edges")
        overlap = set(added) & set(removed)
        if overlap:
            raise DeltaError(
                f"edges both added and removed: {sorted(overlap)}"
            )
        object.__setattr__(self, "add_edges", added)
        object.__setattr__(self, "remove_edges", removed)

    def is_empty(self) -> bool:
        """Whether applying this delta is a no-op."""
        return not (self.add_vertices or self.add_edges or self.remove_edges)

    def validate(self, graph: Graph) -> None:
        """Check consistency against ``graph``; raises :class:`DeltaError`.

        Added edges must not already exist and must reference known (old
        or freshly added) vertex ids; removed edges must exist.
        """
        n_old = graph.num_vertices
        n_new = n_old + len(self.add_vertices)
        for u, v in self.add_edges:
            if v >= n_new:
                raise DeltaError(
                    f"added edge ({u}, {v}) references unknown vertex "
                    f"(graph has {n_old} vertices, delta adds "
                    f"{len(self.add_vertices)})"
                )
            if v < n_old and graph.has_edge(u, v):
                raise DeltaError(f"added edge ({u}, {v}) already exists")
        for u, v in self.remove_edges:
            if v >= n_old or not graph.has_edge(u, v):
                raise DeltaError(
                    f"removed edge ({u}, {v}) does not exist in the graph"
                )


@dataclass(frozen=True)
class DeltaSummary:
    """What one applied delta touched (the patching contract).

    ``touched_vertices`` are the vertices whose adjacency row changed:
    endpoints of added/removed edges plus every added vertex.  Their
    NLF rows (``touched_nlf_rows``, the same ids — an edge edit at
    ``(u, v)`` changes exactly the NLF tables of ``u`` and ``v``) and
    labels (``touched_labels``) are what downstream artifact maintenance
    must re-derive; everything else is provably unchanged.
    """

    num_vertices_before: int
    num_vertices_after: int
    added_vertices: Tuple[int, ...]
    added_edges: Tuple[Tuple[int, int], ...]
    removed_edges: Tuple[Tuple[int, int], ...]
    touched_vertices: Tuple[int, ...]
    touched_labels: FrozenSet[object]

    @property
    def touched_nlf_rows(self) -> Tuple[int, ...]:
        """NLF tables invalidated by the delta (== touched vertices)."""
        return self.touched_vertices

    def counts(self) -> Dict[str, int]:
        """Small JSON-friendly size summary (service replies, CLI)."""
        return {
            "added_vertices": len(self.added_vertices),
            "added_edges": len(self.added_edges),
            "removed_edges": len(self.removed_edges),
            "touched_vertices": len(self.touched_vertices),
            "touched_labels": len(self.touched_labels),
        }


def apply_delta(graph: Graph, delta: GraphDelta) -> Tuple[Graph, DeltaSummary]:
    """Apply ``delta`` to ``graph``; returns the new graph and summary.

    The new graph is frozen and independent, but shares every untouched
    per-vertex structure with the source: the per-vertex lists of
    adjacency rows, neighbor frozensets and (when the source had them
    materialized) NLF tables and ``.graph`` text blocks are copied as
    reference lists in C, and only the touched vertices' entries are
    rewritten.  An edge-only delta also shares the labels tuple and the
    label index, and the edge count is computed arithmetically, so the
    Python-level work is proportional to the delta and nothing grows
    with the edge count.
    """
    delta.validate(graph)
    n_old = graph.num_vertices
    n_new = n_old + len(delta.add_vertices)

    added_at: Dict[int, List[int]] = {}
    removed_at: Dict[int, List[int]] = {}
    for u, v in delta.add_edges:
        added_at.setdefault(u, []).append(v)
        added_at.setdefault(v, []).append(u)
    for u, v in delta.remove_edges:
        removed_at.setdefault(u, []).append(v)
        removed_at.setdefault(v, []).append(u)

    touched = sorted(
        set(added_at) | set(removed_at) | set(range(n_old, n_new))
    )
    if delta.add_vertices:
        labels = graph.labels + delta.add_vertices
        label_index = dict(graph._label_index)
        for v in range(n_old, n_new):
            label_index[labels[v]] = label_index.get(labels[v], ()) + (v,)
    else:
        labels = graph.labels
        label_index = graph._label_index

    rows = list(graph._rows)
    neighbor_sets = list(graph._neighbor_sets)
    rows.extend([()] * (n_new - n_old))
    neighbor_sets.extend([frozenset()] * (n_new - n_old))
    for v in touched:
        nbrs = set(neighbor_sets[v])
        nbrs.difference_update(removed_at.get(v, ()))
        nbrs.update(added_at.get(v, ()))
        rows[v] = tuple(sorted(nbrs))
        neighbor_sets[v] = frozenset(nbrs)

    nlf = None
    if graph._nlf and n_old > 0:
        # The source's NLF cache is materialized: patch it instead of
        # letting the new graph recompute all rows on first access.
        # Untouched rows are shared (treated as read-only everywhere).
        nlf = list(graph._nlf)
        nlf.extend({} for _ in range(n_old, n_new))
        for v in touched:
            nlf[v] = label_counts(labels, rows[v])

    new_graph = Graph._from_sorted_rows(
        labels,
        tuple(rows),
        tuple(neighbor_sets),
        label_index,
        graph.num_edges + len(delta.add_edges) - len(delta.remove_edges),
        nlf=nlf,
    )
    patch_text_blocks(graph, new_graph, touched)

    summary = DeltaSummary(
        num_vertices_before=n_old,
        num_vertices_after=n_new,
        added_vertices=tuple(range(n_old, n_new)),
        added_edges=delta.add_edges,
        removed_edges=delta.remove_edges,
        touched_vertices=tuple(touched),
        touched_labels=frozenset(labels[v] for v in touched),
    )
    return new_graph, summary


# ----------------------------------------------------------------------
# Text / payload forms
# ----------------------------------------------------------------------


def _parse_label(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        return token


def loads_delta(text: str) -> GraphDelta:
    """Parse a delta from its text form (see module docstring)."""
    add_vertices: List[object] = []
    add_edges: List[Tuple[int, int]] = []
    remove_edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "av":
                if len(parts) != 2:
                    raise DeltaError("expected: av <label>")
                add_vertices.append(_parse_label(parts[1]))
            elif kind == "ae":
                if len(parts) != 3:
                    raise DeltaError("expected: ae <u> <v>")
                add_edges.append((int(parts[1]), int(parts[2])))
            elif kind == "re":
                if len(parts) != 3:
                    raise DeltaError("expected: re <u> <v>")
                remove_edges.append((int(parts[1]), int(parts[2])))
            else:
                raise DeltaError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise DeltaError(f"line {lineno}: {exc}")
    return GraphDelta(
        add_vertices=tuple(add_vertices),
        add_edges=tuple(add_edges),
        remove_edges=tuple(remove_edges),
    )


def load_delta(path: PathLike) -> GraphDelta:
    """Load a delta from a text file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_delta(handle.read())


def saves_delta(delta: GraphDelta) -> str:
    """Serialize a delta to its text form."""
    lines = [f"av {label}" for label in delta.add_vertices]
    lines.extend(f"ae {u} {v}" for u, v in delta.add_edges)
    lines.extend(f"re {u} {v}" for u, v in delta.remove_edges)
    return "\n".join(lines) + ("\n" if lines else "")


def delta_to_payload(delta: GraphDelta) -> Dict[str, object]:
    """JSON-safe payload for the service wire protocol.

    Labels survive the round trip for the JSON-representable types the
    ``.graph`` format itself supports (ints and strings).
    """
    return {
        "add_vertices": list(delta.add_vertices),
        "add_edges": [list(e) for e in delta.add_edges],
        "remove_edges": [list(e) for e in delta.remove_edges],
    }


def delta_from_payload(payload: object) -> GraphDelta:
    """Parse the wire payload back into a validated delta."""
    if not isinstance(payload, dict):
        raise DeltaError("delta payload must be a JSON object")
    unknown = set(payload) - {"add_vertices", "add_edges", "remove_edges"}
    if unknown:
        raise DeltaError(f"unknown delta payload keys: {sorted(unknown)}")

    def edges(key: str) -> Tuple[Tuple[int, int], ...]:
        raw = payload.get(key, [])
        if not isinstance(raw, list):
            raise DeltaError(f"{key!r} must be a list of [u, v] pairs")
        out = []
        for item in raw:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise DeltaError(f"{key!r} must be a list of [u, v] pairs")
            out.append((item[0], item[1]))
        return tuple(out)

    vertices = payload.get("add_vertices", [])
    if not isinstance(vertices, list):
        raise DeltaError("'add_vertices' must be a list of labels")
    return GraphDelta(
        add_vertices=tuple(vertices),
        add_edges=edges("add_edges"),
        remove_edges=edges("remove_edges"),
    )
