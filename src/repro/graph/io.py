"""Readers and writers for graph text formats.

The subgraph-matching literature (DAF, GQL, RapidMatch, GuP) shares a
single plain-text format, usually with a ``.graph`` extension::

    t <num_vertices> <num_edges>
    v <vertex_id> <label> <degree>
    ...
    e <src> <dst>
    ...

Vertex lines must cover ids ``0 .. n-1``; the degree column is redundant
and is validated but not required to be correct by all tools — we check it
only in ``strict`` mode.  Labels are parsed as ints when possible and kept
as strings otherwise.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple, Union

from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

PathLike = Union[str, Path]


class GraphFormatError(ValueError):
    """Raised when a graph file violates the ``.graph`` format."""


def _parse_label(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        return token


def loads_graph(text: str, strict: bool = False) -> Graph:
    """Parse a graph from ``.graph``-format text.

    Parameters
    ----------
    text:
        The file contents.
    strict:
        When true, validate the declared vertex/edge counts and per-vertex
        degrees against the actual data.
    """
    declared_n: int = -1
    declared_m: int = -1
    labels: Dict[int, object] = {}
    declared_degrees: Dict[int, int] = {}
    edges: List[Tuple[int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "t":
            if len(parts) < 3:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            declared_n = int(parts[1])
            declared_m = int(parts[2])
        elif kind == "v":
            if len(parts) < 3:
                raise GraphFormatError(f"line {lineno}: malformed vertex {line!r}")
            vid = int(parts[1])
            if vid in labels:
                raise GraphFormatError(f"line {lineno}: duplicate vertex id {vid}")
            labels[vid] = _parse_label(parts[2])
            if len(parts) >= 4:
                declared_degrees[vid] = int(parts[3])
        elif kind == "e":
            if len(parts) < 3:
                raise GraphFormatError(f"line {lineno}: malformed edge {line!r}")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record kind {kind!r}")

    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise GraphFormatError("vertex ids must be exactly 0 .. n-1")

    # Adjacency sets directly (duplicates collapse silently, as in
    # GraphBuilder); Graph sorts each row.
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) references unknown vertex")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        adjacency[u].add(v)
        adjacency[v].add(u)
    graph = Graph([labels[v] for v in range(n)], adjacency)

    if strict:
        if declared_n >= 0 and declared_n != graph.num_vertices:
            raise GraphFormatError(
                f"header declares {declared_n} vertices, file has {graph.num_vertices}"
            )
        if declared_m >= 0 and declared_m != graph.num_edges:
            raise GraphFormatError(
                f"header declares {declared_m} edges, file has {graph.num_edges}"
            )
        for vid, deg in declared_degrees.items():
            if graph.degree(vid) != deg:
                raise GraphFormatError(
                    f"vertex {vid} declares degree {deg}, actual {graph.degree(vid)}"
                )
    return graph


def load_graph(path: PathLike, strict: bool = False) -> Graph:
    """Load a graph from a ``.graph`` file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_graph(handle.read(), strict=strict)


def _vertex_line(graph: Graph, v: int) -> str:
    return f"v {v} {graph.label(v)} {graph.degree(v)}\n"


def _edge_block(graph: Graph, u: int) -> str:
    return "".join([f"e {u} {w}\n" for w in graph.neighbors(u) if w > u])


def _text_blocks(graph: Graph) -> Tuple[List[str], List[str]]:
    """The graph's ``.graph`` text as per-vertex blocks: one ``v`` line
    and one ``e`` block (the edges to higher ids) per vertex.

    Built on first use and cached on the instance (graphs are
    immutable); :func:`patch_text_blocks` carries them across a delta.
    """
    blocks = graph._text
    if blocks is None:
        vertices = graph.vertices()
        blocks = (
            [_vertex_line(graph, v) for v in vertices],
            [_edge_block(graph, u) for u in vertices],
        )
        graph._text = blocks
    return blocks


def patch_text_blocks(old: Graph, new: Graph, touched: Iterable[int]) -> None:
    """Give ``new`` the text blocks of ``old`` with the ``touched``
    vertices' blocks re-formatted.

    ``new`` is ``old`` after a delta whose touched vertices (endpoints
    of edited edges, plus every added vertex) are ``touched``: an edge
    ``(u, v)`` lives in the block of ``min(u, v)`` and changes the
    degree column of both, so every other block is byte-identical and
    shared.  A no-op when ``old`` never materialized its blocks, like
    the NLF patch in :func:`repro.dynamic.delta.apply_delta`.
    """
    if old._text is None:
        return
    v_lines, e_blocks = (list(part) for part in old._text)
    grow = new.num_vertices - old.num_vertices
    v_lines.extend([""] * grow)
    e_blocks.extend([""] * grow)
    for v in touched:
        v_lines[v] = _vertex_line(new, v)
        e_blocks[v] = _edge_block(new, v)
    new._text = (v_lines, e_blocks)


def saves_graph(graph: Graph) -> str:
    """Serialize a graph to ``.graph``-format text."""
    v_lines, e_blocks = _text_blocks(graph)
    return (
        f"t {graph.num_vertices} {graph.num_edges}\n"
        + "".join(v_lines)
        + "".join(e_blocks)
    )


def save_graph(graph: Graph, path: PathLike) -> None:
    """Write a graph to disk in ``.graph`` format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(saves_graph(graph))


def graph_checksum(graph: Graph) -> str:
    """Content checksum of a graph: SHA-256 over its canonical text form.

    Two graphs have equal checksums iff they are equal as labeled graphs
    under the *same* vertex numbering (``saves_graph`` is deterministic:
    vertices in id order, neighbor lists sorted).  The service catalog
    stores this in each entry's sidecar and delta-log records to tell
    whether an entry's graph changed.

    Computed once per instance and cached on it (graphs are immutable),
    so the service paths that hash the same graph repeatedly — catalog
    ``add``/``info``, epoch metadata on ``update`` — re-serialize
    nothing after the first call.  A delta-applied graph hashes the
    text blocks patched from its source (:func:`patch_text_blocks`),
    so it formats only the touched vertices.
    """
    cached = graph._checksum
    if cached is None:
        cached = hashlib.sha256(
            saves_graph(graph).encode("utf-8")
        ).hexdigest()
        graph._checksum = cached
    return cached


def graph_from_edge_list(
    edges: Iterable[Tuple[int, int]],
    labels: Union[Dict[int, object], List[object], None] = None,
    default_label: object = 0,
) -> Graph:
    """Build a graph from an edge list, inferring the vertex count.

    Isolated vertices can only appear through an explicit ``labels``
    mapping/list whose length exceeds the max endpoint.
    """
    edge_list = [(int(u), int(v)) for u, v in edges]
    max_vertex = -1
    for u, v in edge_list:
        max_vertex = max(max_vertex, u, v)
    if isinstance(labels, dict):
        if labels:
            max_vertex = max(max_vertex, max(labels))
        n = max_vertex + 1
        label_seq = [labels.get(v, default_label) for v in range(n)]
    elif labels is not None:
        label_seq = list(labels)
        if len(label_seq) <= max_vertex:
            raise ValueError(
                f"labels cover {len(label_seq)} vertices but edges reference {max_vertex}"
            )
    else:
        label_seq = [default_label] * (max_vertex + 1)

    builder = GraphBuilder()
    builder.add_vertices(label_seq)
    builder.add_edges(edge_list)
    return builder.build()
