"""Forge catalog entries in the older on-disk layout (format 1).

That layout kept an entry as ``graph.graph`` (the snapshot),
``meta.json`` (a sidecar with the snapshot epoch and the graph file's
SHA-256) and ``delta.log`` (update records only), and staged snapshot
transactions as fsynced ``*.tmp`` files under a ``journal.json``.
``GraphCatalog`` rewrites such entries when it opens their root; these
helpers build them byte for byte as that code wrote them.
"""

import json
from pathlib import Path

from repro.dynamic.delta import apply_delta, delta_to_payload
from repro.graph.io import graph_checksum, saves_graph
from repro.service.catalog import _encode_record, _sha256

GRAPH = "graph.graph"
META = "meta.json"
LOG = "delta.log"
JOURNAL = "journal.json"
JOURNALS = (None, "committed", "uncommitted", "torn", "remove")


def legacy_files(graph, epoch, updates=(), name="g", meta=True):
    """``({filename: bytes}, graphs)`` of one format-1 entry whose
    snapshot is ``graph`` at ``epoch`` plus one log record per update;
    ``graphs[-1]`` is its effective graph."""
    graph_bytes = saves_graph(graph).encode("utf-8")
    files = {GRAPH: graph_bytes}
    if meta:
        files[META] = (json.dumps({
            "format_version": 1,
            "name": name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "epoch": epoch,
            "graph_checksum": graph_checksum(graph),
            "graph_file_sha256": _sha256(graph_bytes),
        }, indent=2, sort_keys=True) + "\n").encode("utf-8")
    graphs, log = [graph], b""
    for delta in updates:
        graphs.append(apply_delta(graphs[-1], delta)[0])
        epoch += 1
        log += _encode_record({
            "delta": delta_to_payload(delta),
            "epoch": epoch,
            "graph_checksum": graph_checksum(graphs[-1]),
            "num_edges": graphs[-1].num_edges,
            "num_vertices": graphs[-1].num_vertices,
        })
    files[LOG] = log
    return files, graphs


def forge_legacy_entry(
    entry: Path, graph, epoch=1, updates=(), journal=None, target=None,
    meta=True,
):
    """Write a format-1 entry into ``entry`` and return its expected
    state after migration: ``(epoch, graph)``, or ``None`` when the
    entry must be gone.

    ``journal`` forges an interrupted transaction of that layout:
    ``"committed"`` (every new file staged and the journal durable: it
    rolls forward to ``target`` at ``epoch + len(updates) + 1`` with an
    empty log), ``"uncommitted"`` (staged files but no journal),
    ``"torn"`` (a journal whose staged graph is torn: discarded), or
    ``"remove"`` (a durable remove intent).  The entry also carries the
    ``artifacts.bin`` and ``analyze.json`` files of older versions and a
    stray ``analyze.json.tmp``.
    """
    entry.mkdir(parents=True)
    files, graphs = legacy_files(graph, epoch, updates, entry.name, meta)
    files["artifacts.bin"] = b"\x80\x05an old pickle"
    files["analyze.json"] = b'{"version": 1, "records": [{"trace": "t1"}]}\n'
    files["analyze.json.tmp"] = b'{"version": 1, "rec'
    for filename, blob in files.items():
        (entry / filename).write_bytes(blob)
    state = (epoch + len(updates), graphs[-1])
    if journal is None:
        return state
    if journal == "remove":
        (entry / JOURNAL).write_text(
            json.dumps({"op": "remove", "name": entry.name}) + "\n"
        )
        return None
    new_epoch = state[0] + 1
    staged, _ = legacy_files(target, new_epoch, (), entry.name)
    for filename, blob in staged.items():
        (entry / (filename + ".tmp")).write_bytes(blob)
    if journal == "uncommitted":
        return state
    if journal == "torn":
        (entry / (GRAPH + ".tmp")).write_bytes(staged[GRAPH][:-7])
    (entry / JOURNAL).write_text(json.dumps({
        "op": "write",
        "epoch": new_epoch,
        "files": {name: _sha256(blob) for name, blob in staged.items()},
    }, sort_keys=True) + "\n")
    return state if journal == "torn" else (new_epoch, target)
