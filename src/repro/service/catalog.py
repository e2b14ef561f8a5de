"""Persistent graph catalog: named data graphs on disk, warm engines
in memory.

Layout (one directory per registered graph under the catalog root)::

    <root>/<name>/graph.graph      snapshot: the graph, ``.graph`` text
    <root>/<name>/meta.json        snapshot sidecar: versions + checksums
    <root>/<name>/delta.log        updates since the snapshot, one record
                                   per line: ``<sha256(body)> <body>``
    <root>/<name>/journal.json     transient: an in-flight transaction
    <root>/<name>/*.tmp            transient: staged new file versions

Only what cannot be derived is stored.  The filter artifacts
(:class:`~repro.filtering.artifacts.DataArtifacts`) are built once per
cold load, after the log replay.  The sidecar records the catalog
format version, the SHA-256 of the graph file's bytes, the snapshot
epoch, and the graph's semantic checksum
(:func:`repro.graph.io.graph_checksum`).  A sidecar that is missing,
unparsable, at another format version, or whose SHA-256 does not match
the graph file is *repaired*: ``meta.json`` alone is rewritten from the
graph.  The graph file itself is the single source of truth for the
snapshot; if it does not parse, the entry is unusable and a
:class:`CatalogError` is raised.

An ``update`` does not rewrite the snapshot: it appends one fsynced
record (epoch, delta payload, new graph checksum and sizes) to
``delta.log``.  Loading replays the log on top of the snapshot graph
with ``apply_delta``, checking each record's graph checksum, and stops
at the first record that fails — a torn append, a flipped byte, a
break in epoch continuity.  Only the writer cuts such a tail, right
before its own append.  The update that would make the log reach
:data:`LOG_COMPACT_RECORDS` records commits a full snapshot instead
(*compaction*), together with an empty log.

Crash safety (DESIGN.md §10): every snapshot mutation (``add``,
compaction, ``remove``, and the sidecar repair) is a **journaled
transaction**.  New file versions are staged as fsynced ``*.tmp``
files, then a journal records the transaction's target state (epoch +
per-file SHA-256), then each file is atomically renamed into place,
then the journal is deleted (the commit point).  Recovery on the next
load rolls the transaction *forward* when the journal is durable (all
staged bytes are then durable too, by write ordering) and *discards*
it otherwise — a kill at **any** point leaves the entry either fully
at epoch N or fully at epoch N+1, never torn.  A log append is
acknowledged only after its fsync, so only an unacknowledged record
can be torn.  The named persistence points (:func:`txn_points`)
double as fault-injection hooks; the crash-point sweep in
``tests/test_service_faults.py`` kills at every one of them and proves
the old-or-new invariant byte for byte.

In memory the catalog keeps an LRU of warm :class:`GuPEngine` instances
(graph + artifacts resident), so a long-running server reuses engines
across requests instead of re-reading the store.  All counters needed
by the service ``stats`` endpoint are kept on the catalog:
``artifact_builds`` (builds on ``add``), ``artifact_loads`` (cold loads
whose sidecar was valid), ``sidecar_repairs`` (cold loads that rewrote
the sidecar), ``engine_hits`` / ``engine_misses`` (LRU),
``engine_evictions``, the transaction recovery counters
``txn_rollforwards`` / ``txn_rollbacks``, and the delta-log counters
``log_appends``, ``log_compactions``, ``log_replayed`` (records
replayed on load), ``log_rejections`` (loads that stopped at an
invalid tail) and ``log_truncations`` (tails cut by the writer).
"""

from __future__ import annotations

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

CATALOG_FORMAT_VERSION = 1

GRAPH_FILE = "graph.graph"
META_FILE = "meta.json"
LOG_FILE = "delta.log"
JOURNAL_FILE = "journal.json"
TMP_SUFFIX = ".tmp"
_ENTRY_FILES = (GRAPH_FILE, META_FILE, LOG_FILE)
# Files older entries may still hold: the persisted filter artifacts
# and the EXPLAIN ANALYZE sidecar.  Loads ignore them and a full
# snapshot drops them.
LEGACY_FILES = ("artifacts.bin", "analyze.json")

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


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _file_sha256(path: Path) -> Optional[str]:
    try:
        return _sha256(path.read_bytes())
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
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _meta_epoch(meta: Optional[Dict[str, object]]) -> int:
    """A sidecar's snapshot epoch (1 when missing or malformed)."""
    try:
        return max(1, int((meta or {}).get("epoch") or 1))
    except (TypeError, ValueError):
        return 1


def _stat_key(path: Path) -> Optional[Tuple[int, int, int]]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


_RECORD_KEYS = frozenset(
    ("delta", "epoch", "graph_checksum", "num_edges", "num_vertices")
)


def _encode_record(record: Dict[str, object]) -> bytes:
    """One delta-log line: ``<sha256(body)> <body>\\n``, with the JSON
    body key-sorted so the bytes are deterministic."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    raw = body.encode("utf-8")
    return _sha256(raw).encode("ascii") + b" " + raw + b"\n"


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
    """One entry's sidecar plus the valid prefix of its delta log.

    The *effective* entry state is the last valid record, else the
    sidecar.  ``key`` is the ``os.stat`` identity of both files the
    parse saw, so a cached instance is reused until either changes on
    disk (an append by another process included)."""

    __slots__ = ("key", "meta", "records", "ends", "size")

    def __init__(self, key, meta, records, ends, size) -> None:
        self.key = key
        self.meta: Optional[Dict[str, object]] = meta
        self.records: List[Dict[str, object]] = records
        self.ends: List[int] = ends
        self.size: int = size

    @property
    def end(self) -> int:
        """Byte offset just past the last valid record."""
        return self.ends[-1] if self.ends else 0

    @property
    def top(self) -> Dict[str, object]:
        """The effective state: ``epoch``, ``graph_checksum``,
        ``num_vertices`` and ``num_edges`` of the last valid record,
        else of the sidecar."""
        return self.records[-1] if self.records else (self.meta or {})

    @property
    def epoch(self) -> int:
        if self.records:
            return self.records[-1]["epoch"]
        return _meta_epoch(self.meta)

    def cut(self, count: int) -> None:
        """Keep only the first ``count`` records (replay rejected the
        next one); the writer truncates the rest before its append."""
        del self.records[count:]
        del self.ends[count:]


def txn_points(op: str) -> Tuple[str, ...]:
    """Every declared persistence point of one catalog operation, in
    execution order.  ``op`` is ``"update"`` (one delta-log append),
    ``"add"``/``"compact"`` (full snapshot transaction, empty log
    included), ``"repair"`` (the sidecar only; the log is kept), or
    ``"remove"``.  The fault-injection sweep enumerates these,
    so the list *is* the contract: add a hook, and the sweep covers it.
    """
    if op == "remove":
        return (
            ("catalog.remove.begin", "catalog.remove.journal")
            + tuple(f"catalog.remove.unlink.{name}" for name in _ENTRY_FILES)
            + ("catalog.remove.commit",)
        )
    if op == "update":
        return ("catalog.log.begin", "catalog.log.sync")
    if op in ("add", "compact"):
        files: Tuple[str, ...] = _ENTRY_FILES
    elif op == "repair":
        files = (META_FILE,)
    else:
        raise ValueError(f"unknown catalog operation {op!r}")
    points = ["catalog.txn.begin"]
    points += [f"catalog.txn.tmp.{name}" for name in files]
    points += ["catalog.txn.journal"]
    points += [f"catalog.txn.rename.{name}" for name in files]
    points += ["catalog.txn.commit"]
    return tuple(points)


class GraphCatalog:
    """Named data graphs on disk and warm engines in memory.

    Thread-safe: a single lock serializes store access and LRU updates
    (engine *searches* run outside the catalog and share freely).
    ``faults`` is the injection plan threaded through every persistence
    point; production leaves it at :data:`repro.service.faults.NO_FAULTS`.
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
        self.counters = CounterGroup({
            "artifact_builds": 0,
            "artifact_loads": 0,
            "sidecar_repairs": 0,
            "artifact_patches": 0,
            "engine_hits": 0,
            "engine_misses": 0,
            "engine_evictions": 0,
            "updates": 0,
            "removes": 0,
            "reloads": 0,
            "txn_rollforwards": 0,
            "txn_rollbacks": 0,
            "log_appends": 0,
            "log_compactions": 0,
            "log_replayed": 0,
            "log_rejections": 0,
            "log_truncations": 0,
        })
        # Last known epoch per entry, maintained on every persist/load,
        # so request logs can stamp graph+epoch without a disk read.
        self._epochs: Dict[str, int] = {}
        # Parsed sidecar + delta-log prefix per entry (see _log).
        self._logs: Dict[str, _EntryLog] = {}

    # -- registration --------------------------------------------------

    def add(
        self,
        name: str,
        graph: Union[Graph, str, Path],
        overwrite: bool = False,
    ) -> Dict[str, object]:
        """Register ``graph`` (a :class:`Graph` or a ``.graph`` path).

        Builds the artifacts, persists everything in one journaled
        transaction (with an empty delta log), and leaves a warm engine
        resident.  Re-adding a graph identical to the entry's effective
        state (snapshot plus logged updates) is a no-op; a different
        graph requires ``overwrite=True`` and **bumps the epoch** —
        epochs are monotonic per name across adds, updates, and
        repairs, so caches and subscriptions stamped with an epoch can
        always detect that an entry changed underneath them.  Returns
        the entry's info dict.
        """
        directory = self._entry_dir(name)
        if not isinstance(graph, Graph):
            graph = load_graph(graph)
        checksum = graph_checksum(graph)
        epoch = 1
        with self._lock:
            self._recover(directory)
            if (directory / GRAPH_FILE).exists():
                log = self._log(directory)
                if not overwrite and log.top.get("graph_checksum") == checksum:
                    return self.info(name)
                if not overwrite:
                    raise CatalogError(
                        f"catalog entry {name!r} already exists with a "
                        "different graph (use overwrite)"
                    )
                epoch = log.epoch + 1
                self._resident.pop(name, None)
        # Build outside the lock: artifacts construction can take seconds
        # on a large graph and must not stall concurrent engine() calls.
        # (Two racing adds of the same name both build; the later write
        # wins — acceptable for a registration operation.)
        graph_text = saves_graph(graph)
        artifacts = DataArtifacts(graph)
        with self._lock:
            self.counters["artifact_builds"] += 1
            directory.mkdir(parents=True, exist_ok=True)
            self._persist_entry(directory, graph, graph_text, epoch=epoch)
            self._install(name, GuPEngine(graph, self.config, artifacts=artifacts))
        return self.info(name)

    def names(self) -> List[str]:
        """Sorted names of all registered graphs.

        Directories whose names this catalog could not have created
        (failing the name rules) are ignored rather than poisoning
        listings; so are entries whose pending transaction is a
        removal (they are already logically gone)."""
        out = []
        for child in sorted(self.root.iterdir()) if self.root.exists() else []:
            if (
                child.is_dir()
                and _NAME_RE.match(child.name)
                and (child / GRAPH_FILE).exists()
                and not self._pending_remove(child)
            ):
                out.append(child.name)
        return out

    def info(self, name: str) -> Dict[str, object]:
        """The entry's effective state (the last valid delta-log record,
        else the sidecar) plus residency."""
        directory = self._entry_dir(name)
        with self._lock:
            self._recover(directory)
            if not (directory / GRAPH_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            log = self._log(directory)
            return self._info(
                name, log.top, (log.meta or {}).get("format_version")
            )

    def _info(
        self, name: str, state: Dict[str, object], format_version: object
    ) -> Dict[str, object]:
        return {
            "name": name,
            "num_vertices": state.get("num_vertices"),
            "num_edges": state.get("num_edges"),
            "graph_checksum": state.get("graph_checksum"),
            "format_version": format_version,
            "epoch": state.get("epoch"),
            "resident": name in self._resident,
        }

    def update(self, name: str, delta) -> Tuple[Dict[str, object], object]:
        """Apply a :class:`repro.dynamic.delta.GraphDelta` to an entry.

        The entry's graph is replaced by the delta-applied graph and its
        artifacts by the **incrementally patched** ones
        (:meth:`DataArtifacts.apply_delta` — counted under
        ``artifact_patches``, never a from-scratch build), the epoch is
        bumped, and a fresh warm engine is installed that inherits the
        old engine's build-invariant cache (those entries never go
        stale).  The
        update persists as one fsynced record appended to ``delta.log``
        — epoch, delta payload, new graph checksum and sizes — and is
        acknowledged only after that fsync, so a crash leaves the entry
        wholly at the old epoch or wholly at the new one.  The update
        that would make the log reach :data:`LOG_COMPACT_RECORDS`
        records instead commits a full snapshot in one journaled
        transaction (compaction), as does an update whose base is not
        the entry's effective state on disk (another writer got there
        first: last write wins).  Returns ``(info, summary)``, the info
        built from the values this update wrote.

        Updates serialize against each other on a dedicated mutex; the
        catalog lock is held only to fetch the engine and to persist and
        swap in the new state, so the patch never stalls concurrent
        ``engine()`` calls (the same contract :meth:`add` keeps for its
        artifact build).  Engines handed out earlier keep serving the
        pre-update graph snapshot.
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
                    and log.top.get("graph_checksum") == base_checksum
                ):
                    self._append(directory, log, record)
                else:
                    self._persist_entry(
                        directory, new_graph, saves_graph(new_graph),
                        epoch=record["epoch"],
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
                info = self._info(name, record, CATALOG_FORMAT_VERSION)
                return info, summary

    def remove(self, name: str) -> None:
        """Delete an entry (its directory and any resident engine).

        Journaled like every other mutation: a remove-intent record is
        made durable first, so a crash mid-deletion is rolled *forward*
        on the next load — the entry is never resurrected half-deleted.
        """
        directory = self._entry_dir(name)
        with self._lock:
            self._recover(directory)
            if not (directory / GRAPH_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            self._resident.pop(name, None)
            self.faults.reach("catalog.remove.begin")
            journal = {"op": "remove", "name": directory.name}
            _write_durable(
                directory / JOURNAL_FILE,
                (json.dumps(journal) + "\n").encode("utf-8"),
            )
            _fsync_dir(directory)
            self.faults.reach("catalog.remove.journal")
            for filename in _ENTRY_FILES:
                try:
                    (directory / filename).unlink()
                except FileNotFoundError:
                    pass
                self.faults.reach(f"catalog.remove.unlink.{filename}")
            shutil.rmtree(directory)
            _fsync_dir(self.root)
            self.counters["removes"] += 1
            self._epochs.pop(name, None)
            self._logs.pop(name, None)
            self.faults.reach("catalog.remove.commit")

    # -- engines -------------------------------------------------------

    def engine(self, name: str) -> GuPEngine:
        """The warm engine for ``name`` (LRU; loads from disk on miss)."""
        return self.engine_ex(name)[0]

    def engine_ex(self, name: str) -> Tuple[GuPEngine, str, int]:
        """Like :meth:`engine`, plus provenance for request logs:
        ``(engine, source, epoch)`` with ``source`` one of
        ``"resident"`` (LRU hit), ``"load"`` (cold load, valid sidecar),
        or ``"repair"`` (cold load that rewrote the sidecar)."""
        with self._lock:
            engine = self._resident.get(name)
            if engine is not None:
                self.counters["engine_hits"] += 1
                self._resident.move_to_end(name)
                return engine, "resident", self._epochs.get(name, 1)
            self.counters["engine_misses"] += 1
            graph, artifacts, repaired = self._load(name)
            engine = GuPEngine(graph, self.config, artifacts=artifacts)
            self._install(name, engine)
            source = "repair" if repaired else "load"
            return engine, source, self._epochs.get(name, 1)

    def warm(self, name: str) -> bool:
        """Ensure ``name``'s on-disk sidecar is valid and its engine
        resident.  Returns whether the sidecar had to be repaired."""
        with self._lock:
            if name in self._resident:
                # Residency says nothing about the disk copy: re-verify it
                # so ``warm`` always leaves a loadable store behind.
                graph, artifacts, repaired = self._load(name)
                self._install(name, GuPEngine(graph, self.config, artifacts=artifacts))
                return repaired
            return self.engine_ex(name)[1] == "repair"

    # -- zero-downtime reload (DESIGN.md §13) --------------------------

    def reload(
        self, faults: Optional[FaultPlan] = None
    ) -> Dict[str, Dict[str, object]]:
        """Re-scan the store and atomically refresh resident engines.

        Built for the server's zero-downtime ``reload`` op: another
        process (or a ``repro catalog`` invocation) may have added,
        updated, repaired, or removed entries under this root since we
        opened it.  The scan and any loads happen **without replacing a
        single resident engine**; only then does one locked *swap phase*
        install every staged engine and epoch at once.  Engines handed
        out before the swap keep serving their admitted epoch — the
        epoch-handoff half of the proof obligation; the server's
        lifecycle layer owes the other half (subscription diff-replay).

        Per entry the returned report records ``action`` —

        * ``"kept"``: the effective disk epoch and graph checksum (delta
          log included) match the resident engine; nothing moved.
        * ``"reloaded"``: the entry changed on disk; a new-epoch engine
          was staged and swapped in.
        * ``"removed"``: the directory is gone; the resident engine was
          evicted at swap.
        * ``"lazy"``: the entry is not resident; the next ``engine()``
          call loads whatever epoch disk then holds (nothing to swap).

        — plus ``old_epoch``/``epoch``.  ``faults`` (default: the
        catalog's own plan) fires the
        ``lifecycle.reload.{begin,scan,build,swap}`` hooks; an injected
        crash before the swap point leaves every resident engine and
        remembered epoch untouched (old state), a crash at/after it
        leaves the new state — never a mix, which is exactly the
        journaled old-or-new invariant lifted from files to the resident
        set.
        """
        plan = self.faults if faults is None else faults
        plan.reach("lifecycle.reload.begin")
        with self._lock:
            resident = dict(self._resident)
            old_epochs = dict(self._epochs)
        disk_names = set(self.names())
        plan.reach("lifecycle.reload.scan")

        report: Dict[str, Dict[str, object]] = {}
        staged: Dict[str, Tuple[GuPEngine, int]] = {}
        for name in sorted(resident):
            if name not in disk_names:
                report[name] = {
                    "action": "removed",
                    "old_epoch": old_epochs.get(name, 1),
                    "epoch": None,
                }
        for name in sorted(disk_names):
            old_epoch = old_epochs.get(name)
            engine = resident.get(name)
            if engine is None:
                report[name] = {
                    "action": "lazy",
                    "old_epoch": old_epoch,
                    "epoch": None,
                }
                continue
            with self._lock:
                directory = self._entry_dir(name)
                self._recover(directory)
                log = self._log(directory)
                disk_epoch = log.epoch
                disk_checksum = log.top.get("graph_checksum")
            if (
                disk_epoch == (old_epoch or 1)
                and disk_checksum == graph_checksum(engine.data)
            ):
                report[name] = {
                    "action": "kept",
                    "old_epoch": old_epoch or 1,
                    "epoch": old_epoch or 1,
                }
                continue
            # Changed on disk: load the new epoch WITHOUT touching the
            # resident map, and put the remembered epoch back until the
            # swap phase so concurrent requests keep logging the epoch
            # they are actually served from.
            with self._lock:
                graph, artifacts, _repaired = self._load(name)
                new_epoch = self._epochs.get(name, disk_epoch)
                if old_epoch is not None:
                    self._epochs[name] = old_epoch
                else:
                    self._epochs.pop(name, None)
            staged[name] = (
                GuPEngine(graph, self.config, artifacts=artifacts),
                new_epoch,
            )
            report[name] = {
                "action": "reloaded",
                "old_epoch": old_epoch or 1,
                "epoch": new_epoch,
            }
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

    # -- transactions (DESIGN.md §10) ----------------------------------

    def _txn_commit(
        self, directory: Path, files: Dict[str, bytes], epoch: int
    ) -> None:
        """Replace ``files`` in ``directory`` all-or-nothing.

        Write ordering is the whole proof: (1) stage every new version
        as an fsynced ``*.tmp``; (2) make the journal — target epoch +
        per-file SHA-256 — durable; (3) rename each file into place;
        (4) delete the journal.  The journal's existence therefore
        implies every staged byte is durable, so recovery can always
        roll forward once it finds a journal, and must always discard
        when it does not.  ``self.faults`` fires after each step — the
        points listed by :func:`txn_points`.
        """
        faults = self.faults
        faults.reach("catalog.txn.begin")
        for filename, blob in files.items():
            _write_durable(directory / (filename + TMP_SUFFIX), blob)
            faults.reach(f"catalog.txn.tmp.{filename}")
        journal = {
            "op": "write",
            "epoch": epoch,
            "files": {
                filename: _sha256(blob) for filename, blob in files.items()
            },
        }
        _write_durable(
            directory / JOURNAL_FILE,
            (json.dumps(journal, sort_keys=True) + "\n").encode("utf-8"),
        )
        _fsync_dir(directory)
        faults.reach("catalog.txn.journal")
        for filename in files:
            os.replace(
                directory / (filename + TMP_SUFFIX), directory / filename
            )
            faults.reach(f"catalog.txn.rename.{filename}")
        _fsync_dir(directory)
        (directory / JOURNAL_FILE).unlink()
        _fsync_dir(directory)
        faults.reach("catalog.txn.commit")

    def _recover(self, directory: Path) -> Optional[int]:
        """Finish or discard an interrupted transaction in ``directory``.

        Returns an epoch hint for the caller's repair path: when a
        *forged* torn state left the new graph renamed into place but
        the journal unable to roll forward (impossible under our own
        write ordering, but the tests forge it), the graph content
        belongs to the journal's target epoch and the repaired sidecar
        should say so.  ``None`` otherwise.  Call with ``self._lock``
        held.
        """
        journal_path = directory / JOURNAL_FILE
        try:
            raw = journal_path.read_text(encoding="utf-8")
        except OSError:
            # No journal: any leftover tmps predate the commit record
            # and are garbage from a pre-journal crash.
            self._discard_tmps(directory)
            return None
        try:
            journal = json.loads(raw)
        except ValueError:
            journal = None
        if not isinstance(journal, dict):
            logger.warning("catalog %s: corrupt journal, discarding", directory)
            self._discard_tmps(directory)
            journal_path.unlink(missing_ok=True)
            self.counters["txn_rollbacks"] += 1
            return None

        if journal.get("op") == "remove":
            # The remove intent was durable: the entry is logically
            # gone — complete the deletion.
            logger.info("catalog %s: rolling forward remove", directory)
            shutil.rmtree(directory, ignore_errors=True)
            _fsync_dir(self.root)
            self.counters["txn_rollforwards"] += 1
            return None

        files = journal.get("files")
        if not isinstance(files, dict):
            self._discard_tmps(directory)
            journal_path.unlink(missing_ok=True)
            self.counters["txn_rollbacks"] += 1
            return None

        # A file is recoverable at its new version if either the rename
        # already happened (final bytes match the journal) or the staged
        # tmp is intact.
        state: Dict[str, Optional[str]] = {}
        for filename, sha in files.items():
            if _file_sha256(directory / filename) == sha:
                state[filename] = "done"
            elif _file_sha256(directory / (filename + TMP_SUFFIX)) == sha:
                state[filename] = "staged"
            else:
                state[filename] = None

        if all(state.values()):
            logger.info(
                "catalog %s: rolling forward to epoch %s",
                directory, journal.get("epoch"),
            )
            for filename, how in state.items():
                if how == "staged":
                    os.replace(
                        directory / (filename + TMP_SUFFIX),
                        directory / filename,
                    )
            self._discard_tmps(directory)
            _fsync_dir(directory)
            journal_path.unlink(missing_ok=True)
            _fsync_dir(directory)
            self.counters["txn_rollforwards"] += 1
            return None

        # Roll back: some staged version is torn or missing.  Under our
        # own write ordering this only happens *before* the journal was
        # written, i.e. before any rename — the final files are still
        # wholly the old epoch.  Forged states (renames done, tmps torn)
        # degrade gracefully: the graph file is the source of truth and
        # the ordinary load path repairs the sidecar from it.
        logger.info("catalog %s: discarding unrecoverable txn", directory)
        self._discard_tmps(directory)
        journal_path.unlink(missing_ok=True)
        _fsync_dir(directory)
        self.counters["txn_rollbacks"] += 1
        graph_sha = files.get(GRAPH_FILE)
        if (
            graph_sha is not None
            and _file_sha256(directory / GRAPH_FILE) == graph_sha
        ):
            try:
                return max(1, int(journal.get("epoch") or 1))
            except (TypeError, ValueError):
                return None
        return None

    @staticmethod
    def _discard_tmps(directory: Path) -> None:
        for tmp in directory.glob("*" + TMP_SUFFIX):
            tmp.unlink(missing_ok=True)

    @staticmethod
    def _pending_remove(directory: Path) -> bool:
        """Whether ``directory`` holds a durable remove intent."""
        try:
            journal = json.loads(
                (directory / JOURNAL_FILE).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return False
        return isinstance(journal, dict) and journal.get("op") == "remove"

    # -- internals -----------------------------------------------------

    def _entry_dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise CatalogError(
                f"invalid catalog name {name!r} (allowed: letters, digits, "
                "'.', '_', '-'; must not start with a separator)"
            )
        return self.root / name

    def _read_meta(self, directory: Path) -> Optional[Dict[str, object]]:
        try:
            meta = json.loads((directory / META_FILE).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def _persist_entry(
        self,
        directory: Path,
        graph: Graph,
        graph_text: str,
        epoch: int = 1,
        include_graph: bool = True,
    ) -> None:
        """Persist one snapshot as a single journaled transaction.

        A full snapshot (``add``, compaction) commits an empty delta log
        with it and deletes any leftover :data:`LEGACY_FILES`.
        ``include_graph=False`` is the sidecar repair: the
        graph file on disk *is* the source being recovered from and must
        not be rewritten, and the delta log is kept — its records still
        replay on top of this snapshot, and resetting it would silently
        drop acknowledged updates.
        """
        graph_bytes = graph_text.encode("utf-8")
        meta = {
            "format_version": CATALOG_FORMAT_VERSION,
            "name": directory.name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "epoch": epoch,
            "graph_checksum": graph_checksum(graph),
            "graph_file_sha256": _sha256(graph_bytes),
        }
        files: Dict[str, bytes] = {}
        if include_graph:
            files[GRAPH_FILE] = graph_bytes
        files[META_FILE] = (
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        if include_graph:
            files[LOG_FILE] = b""
        self._txn_commit(directory, files, epoch)
        if include_graph:
            # Best effort: a crash before this unlink leaves a file that
            # loads ignore and the next full snapshot drops.
            for legacy in LEGACY_FILES:
                try:
                    (directory / legacy).unlink(missing_ok=True)
                except OSError:
                    pass
        self._epochs[directory.name] = epoch
        self._logs.pop(directory.name, None)

    def _log(self, directory: Path) -> _EntryLog:
        """The entry's sidecar and valid delta-log prefix, re-parsed only
        when either file's ``os.stat`` identity changed.  Readers never
        modify the log.  Call with ``self._lock`` held."""
        key = (
            _stat_key(directory / LOG_FILE),
            _stat_key(directory / META_FILE),
        )
        log = self._logs.get(directory.name)
        if log is None or log.key != key:
            meta = self._read_meta(directory)
            try:
                blob = (directory / LOG_FILE).read_bytes()
            except OSError:
                blob = b""
            base = None if meta is None else _meta_epoch(meta)
            records, ends = _parse_log(blob, base)
            log = _EntryLog(key, meta, records, ends, len(blob))
            self._logs[directory.name] = log
        return log

    def _append(
        self, directory: Path, log: _EntryLog, record: Dict[str, object]
    ) -> None:
        """Append one update record to the delta log, durably.

        Cuts any invalid tail first (a torn append, or records replay
        rejected) and fsyncs the cut, so the new record lands right
        after the last good one.  Then one ``os.write`` on an
        ``O_APPEND`` fd and an fsync; the directory is fsynced only when
        this call created the file (stores from before the log).  No
        caller sees the update before the fsync returns.
        """
        line = _encode_record(record)
        path = directory / LOG_FILE
        self.faults.reach("catalog.log.begin")
        created = not path.exists()
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
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
        if created:
            _fsync_dir(directory)
        self.faults.reach("catalog.log.sync")
        log.records.append(record)
        log.ends.append(log.end + len(line))
        log.size = log.end
        log.key = (_stat_key(path), log.key[1])
        self.counters["log_appends"] += 1

    def _load(self, name: str) -> Tuple[Graph, DataArtifacts, bool]:
        """Load an entry from disk: recover any interrupted transaction,
        parse the graph, repair the sidecar when needed, replay the
        delta log, then build the artifacts once.  Returns the graph,
        its artifacts and whether the sidecar was repaired."""
        directory = self._entry_dir(name)
        epoch_hint: Optional[int] = None
        if directory.exists():
            epoch_hint = self._recover(directory)
        try:
            graph_text = (directory / GRAPH_FILE).read_text(encoding="utf-8")
        except OSError:
            raise CatalogError(f"unknown catalog entry {name!r}")
        try:
            graph = loads_graph(graph_text)
        except ValueError as exc:
            raise CatalogError(f"catalog entry {name!r} graph is corrupt: {exc}")

        meta = self._read_meta(directory)
        repaired = not (
            meta is not None
            and meta.get("format_version") == CATALOG_FORMAT_VERSION
            and meta.get("graph_file_sha256")
            == _sha256(graph_text.encode("utf-8"))
        )
        if repaired:
            self.counters["sidecar_repairs"] += 1
            # A repair recovers the sidecar, not the entry's history:
            # keep whatever snapshot epoch the (possibly corrupt) sidecar
            # still had, unless recovery determined the graph content
            # already belongs to an aborted transaction's target epoch.
            # Without a sidecar, the log's first record names its base.
            epoch = epoch_hint or _meta_epoch(meta)
            if epoch_hint is None and meta is None:
                records = self._log(directory).records
                if records:
                    epoch = max(1, records[0]["epoch"] - 1)
            self._persist_entry(
                directory, graph, graph_text, epoch=epoch, include_graph=False
            )
        else:
            self.counters["artifact_loads"] += 1
        graph = self._replay(directory, graph)
        return graph, DataArtifacts(graph), repaired

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
