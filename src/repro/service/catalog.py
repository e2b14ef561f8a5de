"""Persistent graph catalog: named data graphs on disk, warm engines
in memory.

Layout (one directory per registered graph under the catalog root)::

    <root>/<name>/graph-<epoch>.graph   immutable snapshot, ``.graph`` text
    <root>/<name>/delta.log             the entry's manifest, one record
                                        per line: ``<sha256(body)> <body>``

An entry exists if and only if its ``delta.log`` exists.  The log's
first line is the **snapshot record**: format version, snapshot epoch,
the graph file's name and SHA-256, and the graph's semantic checksum
(:func:`repro.graph.io.graph_checksum`) and sizes.  A graph file that
does not match its record, or does not parse, is a
:class:`CatalogError`.  The filter artifacts are not stored: a cold
load builds them once, after replaying the log.

An ``update`` appends one fsynced record (epoch, delta payload, new
graph checksum and sizes) to the log.  A load replays the records with
``apply_delta``, checking each record's checksum, and stops at the
first that fails (a torn append, a flipped byte, a break in epoch
continuity); only the writer cuts such a tail, right before its own
append.  The update that would make the log reach
:data:`LOG_COMPACT_RECORDS` records writes a new snapshot instead
(*compaction*).

Crash safety (DESIGN.md §10): ``add``, overwrite, compaction and
migration share one snapshot writer (:meth:`GraphCatalog._write_snapshot`)
whose commit point is one ``os.replace`` of the log; ``remove`` commits
by unlinking the log.  Reads (``info``, ``engine``, ``names``,
``reload``) never write, so a reader in another process cannot disturb
a write in flight.  The named persistence points (:func:`txn_points`)
double as fault-injection hooks: the sweeps in
``tests/test_service_faults.py`` kill at every one of them and prove
the old-or-new invariant byte for byte.  Entries in the older layout
(``graph.graph``, ``meta.json``, a journal) are rewritten once, when
:class:`GraphCatalog` opens the root; nothing else knows that layout.

In memory the catalog keeps an LRU of warm :class:`GuPEngine` instances,
so a long-running server reuses engines across requests.  Its counters
feed the service ``stats`` op: ``artifact_builds`` (on ``add``),
``artifact_loads`` (cold loads), ``engine_hits`` / ``engine_misses`` /
``engine_evictions`` (LRU), and the delta-log counters ``log_appends``,
``log_compactions``, ``log_replayed`` (records replayed on load),
``log_rejections`` (loads that stopped at an invalid tail) and
``log_truncations`` (tails cut by the writer).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import logging
import os
import re
import shutil
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.dynamic.delta import (
    DeltaError,
    apply_delta,
    delta_from_payload,
    delta_to_payload,
)
from repro.filtering.artifacts import DataArtifacts
from repro.graph.graph import Graph
from repro.graph.io import graph_checksum, load_graph, loads_graph, saves_graph
from repro.obs.metrics import CounterGroup
from repro.service.faults import NO_FAULTS, FaultPlan

# 1 was the layout with a ``meta.json`` sidecar and a journal.
CATALOG_FORMAT_VERSION = 2

LOG_FILE = "delta.log"
# The next log, before it replaces LOG_FILE.  Not ``delta.log.tmp``:
# the older layout staged files as ``*.tmp``, and a killed migration
# must not overwrite a staged file it may still roll forward.
NEXT_LOG_FILE = LOG_FILE + ".new"
# The older layout, read only by GraphCatalog._migrate.
LEGACY_GRAPH = "graph.graph"
LEGACY_META = "meta.json"
LEGACY_JOURNAL = "journal.json"
LEGACY_TMP_SUFFIX = ".tmp"

# The update that would make an entry's delta log reach this many
# records commits a full snapshot instead.  It bounds a cold load's
# replay (about 0.5 ms per record on yeast, 2 ms on wordnet@1.0, on a
# 2-CPU x86 container) and keeps the compaction spike to one update in
# 64.
LOG_COMPACT_RECORDS = 64

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

logger = logging.getLogger("repro.service.catalog")


class CatalogError(Exception):
    """A catalog operation failed (unknown name, unparseable graph, ...)."""


def graph_file_name(epoch: int) -> str:
    """The snapshot file a log whose snapshot epoch is ``epoch`` names."""
    return f"graph-{epoch}.graph"


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _read_bytes(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _write_durable(path: Path, blob: bytes) -> None:
    """Write ``blob`` and fsync it: the bytes survive a crash after this."""
    with open(path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_dir(directory: Path) -> None:
    """Make renames/unlinks in ``directory`` durable (no-op where
    directory fsync is unsupported)."""
    with contextlib.suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _json_object(blob: Optional[bytes]) -> Dict[str, object]:
    """``blob`` parsed as a JSON object; ``{}`` when it is not one."""
    try:
        value = json.loads(blob) if blob is not None else None
    except ValueError:
        value = None
    return value if isinstance(value, dict) else {}


def _delete_unnamed(directory: Path, graph_file: str) -> None:
    """Delete every file of an entry but its log and ``graph_file``."""
    for child in directory.iterdir():
        if child.name not in (LOG_FILE, graph_file):
            child.unlink(missing_ok=True)


def _stat_key(path: Path) -> Optional[Tuple[int, int, int]]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


_RECORD_KEYS = frozenset(
    ("delta", "epoch", "graph_checksum", "num_edges", "num_vertices")
)
_SNAPSHOT_KEYS = frozenset(
    ("epoch", "format_version", "graph_checksum", "graph_file",
     "graph_file_sha256", "num_edges", "num_vertices")
)


def _encode_record(record: Dict[str, object]) -> bytes:
    """One delta-log line: ``<sha256(body)> <body>\\n``, with the JSON
    body key-sorted so the bytes are deterministic."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    raw = body.encode("utf-8")
    return _sha256(raw).encode("ascii") + b" " + raw + b"\n"


def _parse_snapshot(blob: bytes) -> Tuple[Optional[Dict[str, object]], int]:
    """The log's first line as a snapshot record, and the byte offset
    just past it; ``(None, 0)`` when it is not a valid one."""
    line, newline, _ = blob.partition(b"\n")
    sha, _, body = line.partition(b" ")
    try:
        framed = newline and sha == _sha256(body).encode("ascii")
        record = json.loads(body) if framed else None
    except ValueError:
        record = None
    if (
        isinstance(record, dict)
        and record.keys() == _SNAPSHOT_KEYS
        and record["format_version"] == CATALOG_FORMAT_VERSION
        and type(record["epoch"]) is int
        and record["graph_file"] == graph_file_name(record["epoch"])
    ):
        return record, len(line) + 1
    return None, 0


def _parse_log(
    blob: bytes, base: Optional[int]
) -> Tuple[List[Dict[str, object]], List[int]]:
    """The valid prefix of a delta log: newline-terminated records whose
    SHA-256 frame checks, with epochs ``base + 1, base + 2, ...``
    (``base=None``: the first record's epoch starts the run).  Returns
    the records and the byte offset just past each."""
    records: List[Dict[str, object]] = []
    ends: List[int] = []
    pos = 0
    while True:
        newline = blob.find(b"\n", pos)
        if newline < 0:
            break
        sha, _, body = blob[pos:newline].partition(b" ")
        if sha != _sha256(body).encode("ascii"):
            break
        try:
            record = json.loads(body)
        except ValueError:
            break
        if not (
            isinstance(record, dict)
            and record.keys() == _RECORD_KEYS
            and type(record["epoch"]) is int
            and (base is None or record["epoch"] == base + 1)
        ):
            break
        base = record["epoch"]
        records.append(record)
        pos = newline + 1
        ends.append(pos)
    return records, ends


class _EntryLog:
    """One entry's parsed delta log: the snapshot record plus the valid
    prefix of the update records after it, with byte offsets into the
    file.  ``key`` is the ``os.stat`` identity of the log the parse
    saw, so a cached instance is reused until the file changes."""

    __slots__ = ("key", "snapshot", "start", "records", "ends", "size")

    def __init__(self, key, snapshot, start, records, ends, size) -> None:
        self.key = key
        self.snapshot: Dict[str, object] = snapshot
        self.start: int = start
        self.records: List[Dict[str, object]] = records
        self.ends: List[int] = ends
        self.size: int = size

    @property
    def end(self) -> int:
        """Byte offset just past the last valid record."""
        return self.ends[-1] if self.ends else self.start

    @property
    def top(self) -> Dict[str, object]:
        """The effective state: the last valid record, else the
        snapshot record (both carry epoch, checksum and sizes)."""
        return self.records[-1] if self.records else self.snapshot

    @property
    def epoch(self) -> int:
        return self.top["epoch"]

    def cut(self, count: int) -> None:
        """Keep only the first ``count`` records (replay rejected the
        next one); the writer truncates the rest before its append."""
        del self.records[count:]
        del self.ends[count:]


_SNAPSHOT_POINTS = tuple(
    f"catalog.snapshot.{step}"
    for step in ("begin", "graph", "log", "commit", "clean")
)
_TXN_POINTS = {
    "update": ("catalog.log.begin", "catalog.log.sync"),
    "add": _SNAPSHOT_POINTS,
    "compact": _SNAPSHOT_POINTS,
    "remove": (
        "catalog.remove.begin", "catalog.remove.log", "catalog.remove.commit"
    ),
    "migrate": ("catalog.migrate.begin",) + _SNAPSHOT_POINTS,
    "migrate_remove": ("catalog.migrate.begin", "catalog.migrate.remove"),
}


def txn_points(op: str) -> Tuple[str, ...]:
    """Every declared persistence point of one catalog operation, in
    execution order.  ``op`` is ``"update"`` (one delta-log append),
    ``"add"``/``"compact"`` (the snapshot writer, overwrite included),
    ``"remove"``, ``"migrate"`` (rewriting an entry of the older layout)
    or ``"migrate_remove"`` (finishing an older layout's journaled
    remove).  The fault-injection sweeps enumerate these, so the list
    *is* the contract: add a hook, and the sweeps cover it.
    """
    if op not in _TXN_POINTS:
        raise ValueError(f"unknown catalog operation {op!r}")
    return _TXN_POINTS[op]


class GraphCatalog:
    """Named data graphs on disk and warm engines in memory.

    Thread-safe: a single lock serializes store access and LRU updates
    (engine *searches* run outside the catalog and share freely).
    ``faults`` is the injection plan threaded through every persistence
    point; production leaves it at :data:`repro.service.faults.NO_FAULTS`.
    Opening a root migrates its entries of the older layout.
    """

    def __init__(
        self,
        root: Union[str, Path],
        config: Optional[GuPConfig] = None,
        max_resident: int = 4,
        faults: FaultPlan = NO_FAULTS,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config or GuPConfig()
        self.max_resident = max_resident
        self.faults = faults
        self._resident: "OrderedDict[str, GuPEngine]" = OrderedDict()
        self._lock = threading.RLock()
        # Serializes update() calls against each other (epoch
        # read-modify-write) without holding the main lock across the
        # patch/serialization work, which must not stall engine() calls.
        self._update_mutex = threading.Lock()
        # A CounterGroup (dict-like, thread-safe) so a metrics registry
        # can attach it and render the very same storage the ``stats``
        # op snapshots (repro.obs.metrics).
        self.counters = CounterGroup(dict.fromkeys((
            "artifact_builds", "artifact_loads", "artifact_patches",
            "engine_hits", "engine_misses", "engine_evictions",
            "updates", "removes", "reloads",
            "log_appends", "log_compactions", "log_replayed",
            "log_rejections", "log_truncations",
        ), 0))
        # Last known epoch per entry, maintained on every persist/load,
        # so request logs can stamp graph+epoch without a disk read.
        self._epochs: Dict[str, int] = {}
        # Parsed delta log per entry (see _log).
        self._logs: Dict[str, _EntryLog] = {}
        for child in sorted(self.root.iterdir()):
            legacy = (child / LEGACY_GRAPH, child / LEGACY_JOURNAL)
            if _NAME_RE.match(child.name) and any(map(Path.exists, legacy)):
                self._migrate(child)

    # -- registration --------------------------------------------------

    def add(
        self,
        name: str,
        graph: Union[Graph, str, Path],
        overwrite: bool = False,
    ) -> Dict[str, object]:
        """Register ``graph`` (a :class:`Graph` or a ``.graph`` path):
        build its artifacts, commit it as a new snapshot, and leave a
        warm engine resident.  Re-adding the entry's effective graph is
        a no-op; a different graph requires ``overwrite=True`` and
        **bumps the epoch** (epochs are monotonic per name, so caches
        and subscriptions stamped with one can always detect a change
        underneath them).  Returns the entry's info dict."""
        directory = self._entry_dir(name)
        if not isinstance(graph, Graph):
            graph = load_graph(graph)
        checksum = graph_checksum(graph)
        with self._lock:
            if (directory / LOG_FILE).exists() and not overwrite:
                if self._log(directory).top["graph_checksum"] == checksum:
                    return self.info(name)
                raise CatalogError(
                    f"catalog entry {name!r} already exists with a "
                    "different graph (use overwrite)"
                )
            self._resident.pop(name, None)
        # Build outside the lock: artifacts construction can take seconds
        # on a large graph and must not stall concurrent engine() calls.
        # (Two racing adds of the same name both build; the later write
        # wins — acceptable for a registration operation.)
        graph_bytes = saves_graph(graph).encode("utf-8")
        artifacts = DataArtifacts(graph)
        with self._lock:
            self.counters["artifact_builds"] += 1
            # The epoch is read here, at the write: a snapshot must never
            # reuse an epoch (or the graph file) the committed log has.
            epoch = 1
            if (directory / LOG_FILE).exists():
                epoch = self._log(directory).epoch + 1
            elif not directory.exists():
                directory.mkdir(parents=True)
                _fsync_dir(self.root)
            self._write_snapshot(directory, graph, graph_bytes, epoch)
            self._epochs[name] = epoch
            self._install(name, GuPEngine(graph, self.config, artifacts=artifacts))
        return self.info(name)

    def names(self) -> List[str]:
        """Sorted names of all registered graphs: the directories that
        hold a ``delta.log``.  Directories whose names this catalog
        could not have created (failing the name rules) are ignored
        rather than poisoning listings."""
        return [
            child.name
            for child in sorted(self.root.iterdir())
            if _NAME_RE.match(child.name) and (child / LOG_FILE).exists()
        ]

    def info(self, name: str) -> Dict[str, object]:
        """The entry's effective state (the last valid update record,
        else the snapshot record) plus residency."""
        with self._lock:
            return self._info(name, self._log(self._entry_dir(name)).top)

    def _info(self, name: str, state: Dict[str, object]) -> Dict[str, object]:
        return {
            "name": name,
            "num_vertices": state["num_vertices"],
            "num_edges": state["num_edges"],
            "graph_checksum": state["graph_checksum"],
            "format_version": CATALOG_FORMAT_VERSION,
            "epoch": state["epoch"],
            "resident": name in self._resident,
        }

    def update(self, name: str, delta) -> Tuple[Dict[str, object], object]:
        """Apply a :class:`repro.dynamic.delta.GraphDelta` to an entry.

        The entry's graph is replaced by the delta-applied graph and its
        artifacts by the **incrementally patched** ones
        (:meth:`DataArtifacts.apply_delta` — counted under
        ``artifact_patches``, never a from-scratch build), the epoch is
        bumped, and a fresh warm engine is installed that inherits the
        old engine's build-invariant cache.  The update is one fsynced
        record appended to ``delta.log``, acknowledged only after that
        fsync.  The update that would make the log reach
        :data:`LOG_COMPACT_RECORDS` records writes a new snapshot
        instead (compaction), as does an update whose base is not the
        entry's effective state on disk (another writer got there
        first: last write wins).  Returns ``(info, summary)``, the info
        built from the values this update wrote.

        Updates serialize on a dedicated mutex; the catalog lock is held
        only to fetch the engine and to persist and swap in the new
        state, so the patch never stalls concurrent ``engine()`` calls.
        Engines handed out earlier keep serving the pre-update graph.
        """
        with self._update_mutex:
            with self._lock:
                engine = self.engine(name)  # raises CatalogError when unknown
            # Hash the base first: it materializes the text blocks that
            # apply_delta patches, so the new checksum formats only the
            # touched vertices.
            base_checksum = graph_checksum(engine.data)
            new_graph, summary = apply_delta(engine.data, delta)
            artifacts = engine.artifacts.apply_delta(new_graph, summary)
            record = {
                "delta": delta_to_payload(delta),
                "graph_checksum": graph_checksum(new_graph),
                "num_edges": new_graph.num_edges,
                "num_vertices": new_graph.num_vertices,
            }
            with self._lock:
                directory = self._entry_dir(name)
                log = self._log(directory)
                record["epoch"] = log.epoch + 1
                if (
                    len(log.records) + 1 < LOG_COMPACT_RECORDS
                    and log.top["graph_checksum"] == base_checksum
                ):
                    self._append(directory, log, record)
                else:
                    self._write_snapshot(
                        directory, new_graph,
                        saves_graph(new_graph).encode("utf-8"),
                        record["epoch"],
                    )
                    self.counters["log_compactions"] += 1
                self._epochs[name] = record["epoch"]
                self.counters["artifact_patches"] += 1
                self.counters["updates"] += 1
                self._install(
                    name,
                    GuPEngine(
                        new_graph,
                        self.config,
                        artifacts=artifacts,
                        invariants=engine.invariants,
                    ),
                )
                return self._info(name, record), summary

    def remove(self, name: str) -> None:
        """Delete an entry and any resident engine.  Unlinking its log is
        the commit point; the next ``add`` of the name also clears what
        a kill left of the directory after it."""
        directory = self._entry_dir(name)
        with self._lock:
            if not (directory / LOG_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            self._resident.pop(name, None)
            self.faults.reach("catalog.remove.begin")
            (directory / LOG_FILE).unlink()
            _fsync_dir(directory)
            self.counters["removes"] += 1
            self._epochs.pop(name, None)
            self._logs.pop(name, None)
            self.faults.reach("catalog.remove.log")
            shutil.rmtree(directory, ignore_errors=True)
            _fsync_dir(self.root)
            self.faults.reach("catalog.remove.commit")

    # -- engines -------------------------------------------------------

    def engine(self, name: str) -> GuPEngine:
        """The warm engine for ``name`` (LRU; loads from disk on miss)."""
        return self.engine_ex(name)[0]

    def engine_ex(self, name: str) -> Tuple[GuPEngine, str, int]:
        """Like :meth:`engine`, plus provenance for request logs:
        ``(engine, source, epoch)`` with ``source`` ``"resident"`` (LRU
        hit) or ``"load"`` (cold load)."""
        with self._lock:
            engine = self._resident.get(name)
            if engine is not None:
                self.counters["engine_hits"] += 1
                self._resident.move_to_end(name)
                return engine, "resident", self._epochs.get(name, 1)
            self.counters["engine_misses"] += 1
            graph, artifacts = self._load(name)
            engine = GuPEngine(graph, self.config, artifacts=artifacts)
            self._install(name, engine)
            return engine, "load", self._epochs.get(name, 1)

    def holds(self, name: str, epoch: int) -> bool:
        """Whether ``name`` is an entry last seen at ``epoch``.  One
        in-memory dict read: no disk read, and no lock, so a caller
        holding its own lock never waits on a load holding this one."""
        return self._epochs.get(name) == epoch

    # -- zero-downtime reload (DESIGN.md §13) --------------------------

    def reload(
        self, faults: Optional[FaultPlan] = None
    ) -> Dict[str, Dict[str, object]]:
        """Re-scan the store and atomically refresh resident engines
        (the server's zero-downtime ``reload`` op, DESIGN.md §13).

        The scan and any loads happen **without replacing a single
        resident engine**; then one locked *swap phase* installs every
        staged engine and epoch at once.  Engines handed out before the
        swap keep serving their admitted epoch.  Per entry the report
        gives ``old_epoch``, ``epoch`` and ``action``: ``"kept"`` (disk
        matches the resident engine), ``"reloaded"`` (a new-epoch engine
        was swapped in), ``"removed"`` (evicted at swap) or ``"lazy"``
        (not resident: the next ``engine()`` loads whatever disk holds).
        ``faults`` (default: the catalog's plan) fires the
        ``lifecycle.reload.{begin,scan,build,swap}`` hooks; a crash
        before the swap leaves the old resident set, at or after it the
        new one — never a mix.
        """
        plan = self.faults if faults is None else faults
        plan.reach("lifecycle.reload.begin")
        with self._lock:
            resident = dict(self._resident)
            old_epochs = dict(self._epochs)
        disk_names = set(self.names())
        plan.reach("lifecycle.reload.scan")

        def action(name: str, what: str, old, new) -> None:
            report[name] = {"action": what, "old_epoch": old, "epoch": new}

        report: Dict[str, Dict[str, object]] = {}
        staged: Dict[str, Tuple[GuPEngine, int]] = {}
        for name in sorted(set(resident) - disk_names):
            action(name, "removed", old_epochs.get(name, 1), None)
        for name in sorted(disk_names):
            old_epoch = old_epochs.get(name)
            engine = resident.get(name)
            if engine is None:
                action(name, "lazy", old_epoch, None)
                continue
            with self._lock:
                log = self._log(self._entry_dir(name))
                disk_epoch = log.epoch
                disk_checksum = log.top["graph_checksum"]
            if (
                disk_epoch == (old_epoch or 1)
                and disk_checksum == graph_checksum(engine.data)
            ):
                action(name, "kept", old_epoch or 1, old_epoch or 1)
                continue
            # Changed on disk: load the new epoch WITHOUT touching the
            # resident map, and put the remembered epoch back until the
            # swap phase so concurrent requests keep logging the epoch
            # they are actually served from.
            with self._lock:
                graph, artifacts = self._load(name)
                new_epoch = self._epochs.get(name, disk_epoch)
                if old_epoch is not None:
                    self._epochs[name] = old_epoch
                else:
                    self._epochs.pop(name, None)
            staged[name] = (
                GuPEngine(graph, self.config, artifacts=artifacts),
                new_epoch,
            )
            action(name, "reloaded", old_epoch or 1, new_epoch)
        plan.reach("lifecycle.reload.build")

        with self._lock:
            for name, info in report.items():
                if info["action"] == "removed":
                    self._resident.pop(name, None)
                    self._epochs.pop(name, None)
            for name, (engine, epoch) in staged.items():
                self._install(name, engine)
                self._epochs[name] = epoch
            self.counters["reloads"] += 1
        plan.reach("lifecycle.reload.swap")
        return report

    # -- persistence (DESIGN.md §10) -----------------------------------

    def _write_snapshot(
        self,
        directory: Path,
        graph: Graph,
        graph_bytes: bytes,
        epoch: int,
        tail: bytes = b"",
    ) -> None:
        """Commit ``graph`` as the entry's snapshot at ``epoch``: the one
        writer behind ``add``, overwrite, compaction and migration.

        Write ordering is the whole proof: (1) write and fsync the graph
        file; (2) write and fsync ``delta.log.new`` — the snapshot
        record, then ``tail`` (update records that replay on top of it;
        only a migration passes any); (3) fsync the directory; (4)
        ``os.replace`` it onto ``delta.log``, the commit point; (5)
        fsync the directory again; (6) delete every file the new log
        does not name.  Before (4) the old log names the old, untouched
        snapshot; from (4) on the new log names a durable graph file.
        ``self.faults`` fires after each step — the points listed by
        :func:`txn_points`.  Call with ``self._lock`` held.
        """
        faults = self.faults
        faults.reach("catalog.snapshot.begin")
        graph_file = graph_file_name(epoch)
        _write_durable(directory / graph_file, graph_bytes)
        faults.reach("catalog.snapshot.graph")
        snapshot = {
            "epoch": epoch,
            "format_version": CATALOG_FORMAT_VERSION,
            "graph_checksum": graph_checksum(graph),
            "graph_file": graph_file,
            "graph_file_sha256": _sha256(graph_bytes),
            "num_edges": graph.num_edges,
            "num_vertices": graph.num_vertices,
        }
        next_log = directory / NEXT_LOG_FILE
        _write_durable(next_log, _encode_record(snapshot) + tail)
        _fsync_dir(directory)
        faults.reach("catalog.snapshot.log")
        os.replace(next_log, directory / LOG_FILE)
        _fsync_dir(directory)
        self._logs.pop(directory.name, None)
        faults.reach("catalog.snapshot.commit")
        _delete_unnamed(directory, graph_file)
        faults.reach("catalog.snapshot.clean")

    def _migrate(self, directory: Path) -> None:
        """Rewrite one entry of the older layout (``graph.graph``, a
        ``meta.json`` sidecar, ``*.tmp`` files staged under a
        ``journal.json``) in this one.  A remove journal finishes the
        remove.  A write journal rolls forward only if every file it
        names is intact at its SHA-256, renamed or still staged.  The
        snapshot writer then commits the graph and the log's valid
        records at the same effective epoch (the snapshot epoch is the
        sidecar's, else the first record's − 1, else 1) and deletes the
        old files.  Nothing changes before that commit, so a kill
        anywhere redoes the migration on the next open."""
        self.faults.reach("catalog.migrate.begin")
        snapshot, _ = _parse_snapshot(_read_bytes(directory / LOG_FILE) or b"")
        if snapshot is not None:
            # Killed after the commit: only the cleanup is left.
            _delete_unnamed(directory, snapshot["graph_file"])
            return
        files = {
            filename: _read_bytes(directory / filename)
            for filename in (LEGACY_GRAPH, LEGACY_META, LOG_FILE)
        }
        journal = _json_object(_read_bytes(directory / LEGACY_JOURNAL))
        staged = journal.get("files")
        if journal.get("op") == "write" and isinstance(staged, dict):
            new = {
                filename: blob
                for filename, sha in staged.items()
                for blob in (
                    files.get(filename),
                    _read_bytes(directory / (filename + LEGACY_TMP_SUFFIX)),
                )
                if blob is not None and _sha256(blob) == sha
            }
            if len(new) == len(staged):
                files.update(new)
        if journal.get("op") == "remove" or files[LEGACY_GRAPH] is None:
            # Finish the remove (a directory without a graph held no
            # entry either).  The journal goes last, so a kill here
            # cannot bring the entry back.
            journal_path = directory / LEGACY_JOURNAL
            for child in directory.iterdir():
                if child != journal_path:
                    child.unlink()
            self.faults.reach("catalog.migrate.remove")
            journal_path.unlink(missing_ok=True)
            directory.rmdir()
            _fsync_dir(self.root)
            return
        try:
            graph = loads_graph(files[LEGACY_GRAPH].decode("utf-8"))
        except ValueError as exc:
            logger.warning("catalog %s: not migrated: %s", directory, exc)
            return
        base = _json_object(files[LEGACY_META]).get("epoch")
        if type(base) is not int or base < 1:
            base = None
        log = files[LOG_FILE] or b""
        records, ends = _parse_log(log, base)
        if base is None:
            base = max(1, records[0]["epoch"] - 1) if records else 1
        logger.info(
            "catalog %s: migrating to format %d at epoch %d",
            directory, CATALOG_FORMAT_VERSION, base + len(records),
        )
        self._write_snapshot(
            directory, graph, files[LEGACY_GRAPH], base,
            tail=log[:ends[-1]] if ends else b"",
        )

    # -- internals -----------------------------------------------------

    def _entry_dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise CatalogError(
                f"invalid catalog name {name!r} (allowed: letters, digits, "
                "'.', '_', '-'; must not start with a separator)"
            )
        return self.root / name

    def _log(self, directory: Path) -> _EntryLog:
        """The entry's parsed delta log, re-parsed only when the file's
        ``os.stat`` identity changed; :class:`CatalogError` without a log
        or a valid snapshot record.  Call with ``self._lock`` held."""
        key = _stat_key(directory / LOG_FILE)
        log = self._logs.get(directory.name)
        if log is None or log.key != key:
            blob = _read_bytes(directory / LOG_FILE)
            if blob is None:
                self._logs.pop(directory.name, None)
                raise CatalogError(f"unknown catalog entry {directory.name!r}")
            snapshot, start = _parse_snapshot(blob)
            if snapshot is None:
                raise CatalogError(
                    f"catalog entry {directory.name!r} has no valid "
                    "snapshot record"
                )
            records, ends = _parse_log(blob[start:], snapshot["epoch"])
            log = _EntryLog(
                key, snapshot, start, records, [start + e for e in ends],
                len(blob),
            )
            self._logs[directory.name] = log
        return log

    def _append(
        self, directory: Path, log: _EntryLog, record: Dict[str, object]
    ) -> None:
        """Append one update record to the delta log, durably.

        Cuts any invalid tail first (a torn append, or records replay
        rejected) and fsyncs the cut, so the new record lands right
        after the last good one.  Then one ``os.write`` on an
        ``O_APPEND`` fd and an fsync.  No caller sees the update before
        the fsync returns.
        """
        line = _encode_record(record)
        path = directory / LOG_FILE
        self.faults.reach("catalog.log.begin")
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            if log.size > log.end:
                os.ftruncate(fd, log.end)
                os.fsync(fd)
                log.size = log.end
                self.counters["log_truncations"] += 1
            try:
                if os.write(fd, line) != len(line):
                    raise OSError(errno.ENOSPC, "short write", str(path))
                os.fsync(fd)
            except OSError:
                # Best effort: an unacknowledged record must not replay.
                os.ftruncate(fd, log.end)
                raise
        finally:
            os.close(fd)
        self.faults.reach("catalog.log.sync")
        log.records.append(record)
        log.ends.append(log.end + len(line))
        log.size = log.end
        log.key = _stat_key(path)
        self.counters["log_appends"] += 1

    def _load(self, name: str) -> Tuple[Graph, DataArtifacts]:
        """Load an entry from disk: read the snapshot the log names,
        check its SHA-256, parse it, replay the log, then build the
        artifacts once.  When another process committed a new snapshot
        meanwhile (maybe deleting the one read), start over from it."""
        directory = self._entry_dir(name)
        while True:
            snapshot = self._log(directory).snapshot
            blob = _read_bytes(directory / snapshot["graph_file"])
            if blob is not None and _sha256(blob) == snapshot["graph_file_sha256"]:
                try:
                    graph = loads_graph(blob.decode("utf-8"))
                except ValueError as exc:
                    raise CatalogError(
                        f"catalog entry {name!r} graph is corrupt: {exc}"
                    )
                graph = self._replay(directory, graph)
                if self._log(directory).snapshot == snapshot:
                    self.counters["artifact_loads"] += 1
                    return graph, DataArtifacts(graph)
            elif self._log(directory).snapshot == snapshot:
                raise CatalogError(
                    f"catalog entry {name!r} graph file "
                    f"{snapshot['graph_file']} is missing or corrupt"
                )
            self._logs.pop(directory.name, None)

    def _replay(self, directory: Path, graph: Graph) -> Graph:
        """Roll the snapshot graph forward through the delta log.

        Each record goes through the ``apply_delta`` the live update
        made, and the result's graph checksum is checked against the
        record.  The first record that fails stops the replay: the last
        good graph is served, a warning logged and ``log_rejections``
        counted, and the rest is left on disk for the next update to
        cut.
        """
        log = self._log(directory)
        if log.records:
            graph_checksum(graph)  # text blocks for the replayed graphs
        reason = "bad record frame"
        for index, record in enumerate(log.records):
            try:
                new_graph, _summary = apply_delta(
                    graph, delta_from_payload(record["delta"])
                )
                if graph_checksum(new_graph) != record["graph_checksum"]:
                    raise DeltaError("graph checksum mismatch")
            except DeltaError as exc:
                reason = f"epoch {record['epoch']}: {exc}"
                log.cut(index)
                break
            graph = new_graph
            self.counters["log_replayed"] += 1
        if log.size > log.end:
            logger.warning(
                "catalog %s: delta log invalid past epoch %d (%s); "
                "serving that epoch", directory, log.epoch, reason,
            )
            self.counters["log_rejections"] += 1
        self._epochs[directory.name] = log.epoch
        return graph

    def _install(self, name: str, engine: GuPEngine) -> None:
        self._resident[name] = engine
        self._resident.move_to_end(name)
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
            self.counters["engine_evictions"] += 1

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus residency, for the service ``stats`` op."""
        with self._lock:
            out: Dict[str, object] = dict(self.counters)
            out["resident"] = list(self._resident)
            out["entries"] = self.names()
            return out
