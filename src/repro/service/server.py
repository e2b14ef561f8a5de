"""Asyncio JSON-lines TCP server fronting the GuP engine.

Protocol: newline-delimited JSON both ways.  Each request is one
object with an ``"op"`` field, on one line of at most
``MAX_REQUEST_BYTES`` (16 MiB).  Each response is one line,
except that a reply carrying embeddings is one header line followed
by a binary body (the :mod:`repro.service.wire` frame):

``{"op": "ping"}``
    → ``{"ok": true, "pong": true}``
``{"op": "stats"}``
    → ``{"ok": true, "server": {...}, "catalog": {...}, "qcache": {...}}``
``{"op": "metrics"}``
    → ``{"ok": true, "metrics": text}`` — the whole metrics registry in
      Prometheus text exposition format.  The same exposition answers a
      plain-HTTP ``GET /metrics`` sent to this port (and ``GET
      /healthz`` returns the healthz payload as JSON), so a stock
      Prometheus scraper or curl can point at the JSON-lines port
      directly.
``{"op": "catalog_list"}`` / ``{"op": "catalog_add", "name": n, "graph": text}``
    → ``{"ok": true, "entries": [...]}`` / the new entry's info
``{"op": "query", "data": name, "graph": text, "limit": N, "workers": W,
   "time_limit": S, "recursion_limit": R, "count_only": b, "cache": b,
   "trace": id, "profile": b|stride}``
    → header ``{"ok": true, "num_embeddings": N, "status": s,
      "cache": "hit"|"miss"|"bypass", "queue_seconds": q,
      "server_seconds": t, "encode_seconds": e, "trace": id,
      "arity": k, "bytes": n, ...}``, then exactly ``n`` raw bytes:
      the embeddings as little-endian uint32, ``k`` per embedding,
      row-major (``n`` is 0 for count-only and empty results).  Header
      and body go out in one write.  ``queue_seconds`` is
      admission-queue wait, reported separately from execution;
      ``encode_seconds`` is the time spent packing the body, outside
      ``server_seconds``; ``trace`` echoes (or generates) the
      request's trace id, the one its structured log lines share;
      ``profile`` attaches a search-level sampling-profiler summary
      (depth histogram, conflicts by kind, backjumps) to the header.
``{"op": "update", "name": n, "delta": {"add_vertices": [...],
   "add_edges": [[u, v], ...], "remove_edges": [[u, v], ...]}}``
    → ``{"ok": true, "entry": info, "summary": {...},
      "qcache_kept": k, "qcache_evicted": e, "subscribers_notified": m}``
      — applies the delta to the catalog entry (epoch bump, artifacts
      patched incrementally), selectively invalidates the entry's query
      cache (only entries whose label set meets the delta's touched
      labels), and pushes an embedding-diff event to every standing
      subscriber of that graph.
``{"op": "subscribe", "data": name, "graph": text}``
    → header ``{"ok": true, "subscription": id, "num_embeddings": N,
      "epoch": E, "arity": k, "bytes": n}``, then the current
      embeddings as an ``n``-byte frame body, as for ``query``.
      Afterwards every ``update``
      of that graph pushes one line
      ``{"event": "delta", "subscription": id, "data": name,
      "epoch": E, "added": [...], "removed": [...]}`` with the exact
      embedding diff.  Subscriptions end with the connection.  Use a
      dedicated connection per subscriber: events are pushed
      asynchronously and would interleave with reply streams of
      requests issued on the same socket.
``{"op": "healthz"}``
    → ``{"ok": true, "status": "ok"|"overloaded", "active": n,
      "capacity": c, "entries": {name: epoch, ...}, "pool":
      {"respawns": r, "tasks_rerun": t}, "subscriptions": s,
      "uptime_seconds": u}`` — liveness + load + catalog/epoch/pool
      state in one cheap line (never touches the executor, so it
      answers even when matching is saturated).
``{"op": "reload"}``
    → ``{"ok": true, "report": {name: {"action": ..., "epoch": E}},
      "replayed": n, "status": s}`` — zero-downtime catalog reload
      (DESIGN.md §13): picks up entries another process added, updated,
      or removed under the catalog root.  New-epoch engines are built
      off the event loop and swapped in atomically; in-flight queries
      finish on their admitted epoch, standing subscriptions are
      re-attached across the epoch boundary with one exact diff-replay
      event (``"reload": true``).  SIGHUP triggers the same path.
``{"op": "drain", "timeout": S}``
    → ``{"ok": true, "drained": b, "active": n, "stopping": true}`` —
      graceful stop: stops admitting (new queries are shed with reason
      ``"draining"``), waits for in-flight work bounded by the
      deadline, then shuts down; ``drained`` reports whether the server
      emptied in time.
``{"op": "shutdown"}``
    → ``{"ok": true, "stopping": true}`` and the server stops.

Every error is a single ``{"ok": false, "error": msg}`` line; the
connection stays usable (malformed requests don't kill it).  The one
exception is a request line longer than ``MAX_REQUEST_BYTES``: it is
answered ``{"ok": false, "error": msg, "reason":
"request_too_large"}``, counted in ``errors``, and the connection is
closed.  The same bound paces reading: a connection buffers up to
twice it (~32 MiB) before the server stops reading from it.

Concurrency model: the event loop only parses and streams; matching is
CPU-bound and runs on a thread-pool executor bounded by
``max_inflight`` (admission control).  Queries beyond the capacity
``max_inflight + max_pending`` are *rejected immediately* with an
``overloaded`` error rather than queued without bound.  Requests carry
a ``"priority"`` of ``"low"``/``"normal"`` (default)/``"high"``; under
load the lowest class is shed first: ``low`` never queues (rejected as
soon as every matching slot is busy), ``normal`` is rejected at
capacity, and ``high`` may use ``high_headroom`` extra queue slots
reserved for it (DESIGN.md §10).  Requests may also carry a
``"tenant"`` name (legacy clients land on the default tenant): each
tenant has its own token-bucket rate limit, inflight quota, and
weighted share of the matching slots (deficit round robin — no tenant
can monopolize slots or procpool workers; DESIGN.md §13).  Every
rejection reply carries ``"reason"`` (``capacity``/``rate``/``quota``/
``draining``) and a ``"retry_after"`` hint the client's RetryPolicy
honors.  Heavy requests set ``"workers": W >
1`` and are dispatched root-partitioned over the
:mod:`repro.core.procpool` process pool — the executor thread then
mostly waits on worker processes, so a procpool query does not hog the
GIL.  Per-request ``SearchLimits`` (embedding cap, wall-clock timeout,
recursion budget) bound each query; the server can impose default
budgets on requests that specify none.

Subscriber backpressure: every subscription owns a **bounded** event
queue drained by a dedicated sender task, so one slow subscriber can
never stall updates or other subscribers.  When a queue overflows the
``subscriber_policy`` decides: ``"disconnect"`` (default) drops the
subscription and closes its connection — the client notices and can
re-subscribe by epoch; ``"drop"`` discards the event and marks the next
delivered one with ``"lost": k`` so the client knows its standing set
is stale.
"""

from __future__ import annotations

import asyncio
import json
import logging
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple

from repro.core.procpool import POOL_COUNTERS
from repro.dynamic.continuous import embedding_diff
from repro.dynamic.delta import DeltaError, delta_from_payload
from repro.filtering.artifacts import DataArtifacts
from repro.graph.graph import Graph
from repro.graph.io import loads_graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, SearchStats, TerminationStatus
from repro.obs import Observability, SamplingProfiler, new_trace_id, trace_context
from repro.obs.explain import sidecar_record
from repro.obs.metrics import CounterGroup
from repro.obs.spans import emit_spans, new_span_id, span_scope
from repro.service.catalog import CatalogError, GraphCatalog
from repro.service.faults import NO_FAULTS, FaultPlan, InjectedCrash
from repro.service.lifecycle import (
    DRAINING,
    SERVING,
    STOPPED,
    LifecycleManager,
)
from repro.service.qcache import DEFAULT_LEAF_BUDGET, QueryCache
from repro.service.tenancy import (
    PRIORITY_RANKS,
    FairSlots,
    TenantState,
    TenantTable,
)
from repro.service.wire import encode_embeddings

DEFAULT_PORT = 7464

# Graphs travel inline on one request line; the benchmark wordnet is
# about 12 KB of text, so this fits graphs ~1000x larger.  It is also
# asyncio's flow-control threshold: a connection's reader pauses only
# once 2x this is buffered, so a client pipelining requests faster
# than they are served can hold up to ~32 MiB of server memory.
MAX_REQUEST_BYTES = 16 << 20

PRIORITIES = ("high", "normal", "low")

logger = logging.getLogger("repro.service.server")


class _Subscription:
    """One standing query registered by a connected client."""

    __slots__ = (
        "id", "name", "query", "matches", "writer", "queue", "sender",
        "lost", "epoch",
    )

    def __init__(
        self,
        sub_id: int,
        name: str,
        query: Graph,
        matches: Set[Tuple[int, ...]],
        writer: asyncio.StreamWriter,
        queue_limit: int,
    ) -> None:
        self.id = sub_id
        self.name = name
        self.query = query
        self.matches = matches
        self.writer = writer
        self.queue: "asyncio.Queue[Dict]" = asyncio.Queue(maxsize=queue_limit)
        self.sender: Optional[asyncio.Task] = None
        self.lost = 0  # events discarded under the "drop" policy
        # Epoch the standing set was last reconciled against; a reload
        # replays any subscription whose epoch trails the catalog's.
        self.epoch: Optional[int] = None


class MatchingServer:
    """Long-running matching server over a :class:`GraphCatalog`.

    One :class:`QueryCache` per catalog entry (results are only valid
    for the data graph + config that produced them).  All counters are
    exposed by the ``stats`` op — including the catalog's artifact
    build/load/rebuild counters, which is how tests assert that the
    warm path rebuilds nothing.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        max_inflight: int = 2,
        max_pending: int = 8,
        cache_entries: int = 256,
        max_request_workers: int = 8,
        default_time_limit: Optional[float] = None,
        default_recursion_limit: Optional[int] = None,
        leaf_budget: int = DEFAULT_LEAF_BUDGET,
        high_headroom: int = 1,
        subscriber_queue: int = 64,
        subscriber_policy: str = "disconnect",
        faults: FaultPlan = NO_FAULTS,
        obs: Optional[Observability] = None,
        tenants: Optional[TenantTable] = None,
        drain_timeout: float = 30.0,
        retry_after_hint: float = 0.05,
    ) -> None:
        if subscriber_policy not in ("disconnect", "drop"):
            raise ValueError(
                "subscriber_policy must be 'disconnect' or 'drop', "
                f"got {subscriber_policy!r}"
            )
        self.catalog = catalog
        self.max_inflight = max(1, max_inflight)
        self.max_pending = max(0, max_pending)
        self.cache_entries = cache_entries
        self.max_request_workers = max(1, max_request_workers)
        self.default_time_limit = default_time_limit
        self.default_recursion_limit = default_recursion_limit
        self.leaf_budget = leaf_budget
        self.high_headroom = max(0, high_headroom)
        self.subscriber_queue = max(1, subscriber_queue)
        self.subscriber_policy = subscriber_policy
        self.faults = faults
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._caches: Dict[str, QueryCache] = {}
        # Epoch each cache's entries were computed against — lets a
        # reload recognize (and drop) a cache left stale by a crash
        # between the catalog swap and the cache-invalidation step.
        self._cache_epochs: Dict[str, int] = {}
        self._counters_lock = threading.Lock()
        # A CounterGroup so the metrics registry below exposes the very
        # same storage the ``stats`` op snapshots (repro.obs.metrics:
        # "reconciliation by construction").
        self.counters = CounterGroup({
            "queries": 0,
            "served": 0,
            "rejected": 0,
            "shed_low": 0,
            "shed_normal": 0,
            "shed_high": 0,
            "errors": 0,
            "cache_bypass": 0,
            "procpool_dispatches": 0,
            "updates": 0,
            "subscriptions": 0,
            "events_pushed": 0,
            "events_dropped": 0,
            "subscribers_dropped": 0,
            "connections_refused": 0,
        })
        self.obs = obs if obs is not None else Observability()
        # Multi-tenant admission (DESIGN.md §13): every tenant — named
        # by the request's "tenant" field, configured or not — gets its
        # own token bucket, inflight quota, DRR weight, and counters.
        self.tenants = tenants if tenants is not None else TenantTable(
            faults=faults
        )
        self.tenants.on_create = self._attach_tenant
        self.drain_timeout = max(0.0, drain_timeout)
        self.retry_after_hint = max(0.0, retry_after_hint)
        self.lifecycle = LifecycleManager(self)
        self._wire_metrics()
        for tenant_name, state in self.tenants.states().items():
            self._attach_tenant(tenant_name, state)
        self._active = 0
        self._started_at: Optional[float] = None
        self._slots: Optional[FairSlots] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._aux_executor: Optional[ThreadPoolExecutor] = None
        self._conn_tasks: set = set()
        self._subs: Dict[str, Dict[int, _Subscription]] = {}
        self._next_sub_id = 1
        self._update_lock: Optional[asyncio.Lock] = None
        # EXPLAIN ANALYZE sidecar persistence happens off the request
        # path: rewriting a full 64-record analyze.json costs multiples
        # of the analyze itself, so query threads enqueue the distilled
        # record here and a lazily-started daemon writes it out;
        # aclose() drains the queue so a stopped server has flushed
        # every record.
        self._analysis_queue: "queue.Queue" = queue.Queue()
        self._analysis_thread: Optional[threading.Thread] = None

    # -- observability (DESIGN.md §12) ---------------------------------

    def _wire_metrics(self) -> None:
        """Attach every counter group + register gauges/histograms.

        Counter families are *attached* live mappings — rendering reads
        the same objects the ``stats`` op snapshots, so ``/metrics`` and
        ``stats`` can never disagree.  Gauges are refreshed by an
        ``on_scrape`` hook; histograms are fed on the query path.
        """
        reg = self.obs.registry
        reg.attach_group(
            "repro_server", self.counters,
            help_text="MatchingServer request/subscription counters",
        )
        reg.attach_group(
            "repro_catalog", self.catalog.counters,
            help_text="GraphCatalog artifact/engine/transaction counters",
        )
        reg.attach_group(
            "repro_pool", POOL_COUNTERS,
            help_text="Procpool worker-crash recovery counters",
        )
        phase = reg.histogram(
            "repro_server_phase_seconds",
            "Per-phase query latency: queue wait, engine build (GCS "
            "construction), search, reply streaming",
            labelnames=["phase"],
        )
        self._phase_hist = {
            name: phase.labels(phase=name)
            for name in ("queue", "build", "search", "stream")
        }
        self._request_hist = reg.histogram(
            "repro_server_request_seconds",
            "End-to-end server-side query latency (admission to reply)",
        )
        self._gauges = {
            "active": reg.gauge(
                "repro_server_active", "Queries currently admitted"
            ),
            "capacity": reg.gauge(
                "repro_server_capacity",
                "Admission capacity (max_inflight + max_pending)",
            ),
            "subscriptions": reg.gauge(
                "repro_server_subscriptions_active",
                "Standing subscriptions currently registered",
            ),
            "uptime": reg.gauge(
                "repro_server_uptime_seconds", "Seconds since start()"
            ),
            "builds_in_process": reg.gauge(
                "repro_artifact_builds_in_process",
                "DataArtifacts built from scratch in this process",
            ),
            "qcache_entries": reg.gauge(
                "repro_qcache_entries",
                "Live query-cache entries", labelnames=["data"],
            ),
            "tenant_inflight": reg.gauge(
                "repro_tenant_inflight",
                "Queries currently admitted per tenant",
                labelnames=["tenant"],
            ),
        }
        reg.on_scrape(self._refresh_gauges)

    def _attach_tenant(self, name: str, state: TenantState) -> None:
        """Expose a newly materialized tenant's counters as the
        ``repro_tenant_*_total{tenant=...}`` families — live attachment,
        same storage the ``stats`` op snapshots."""
        self.obs.registry.attach_group(
            "repro_tenant", state.counters, labels={"tenant": name},
            help_text="Per-tenant admission counters",
        )

    def _refresh_gauges(self) -> None:
        with self._counters_lock:
            caches = dict(self._caches)
            subscriptions = sum(len(per) for per in self._subs.values())
        g = self._gauges
        g["active"].set(self._active)
        g["capacity"].set(self.max_inflight + self.max_pending)
        g["subscriptions"].set(subscriptions)
        g["uptime"].set(
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        g["builds_in_process"].set(DataArtifacts.builds_performed)
        for name, cache in caches.items():
            g["qcache_entries"].labels(data=name).set(len(cache))
        for name, state in self.tenants.states().items():
            g["tenant_inflight"].labels(tenant=name).set(state.inflight)

    def metrics_text(self) -> str:
        """The full Prometheus text exposition (``metrics`` op body)."""
        return self.obs.registry.render()

    # -- lifecycle -----------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``
        (useful with ``port=0``)."""
        self._slots = FairSlots(self.max_inflight)
        self._shutdown = asyncio.Event()
        self._update_lock = asyncio.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-match"
        )
        # Lifecycle work (reload scans/loads, subscription replay) runs
        # here, never on the matching executor: a saturated server must
        # still be reloadable without stealing a matching slot.
        self._aux_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-aux"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_REQUEST_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        logger.info("serving on %s:%s", self.host, self.port)
        return self.host, self.port

    async def wait_closed(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()
        await self.aclose()

    def request_shutdown(self) -> None:
        """Signal the server to stop (threadsafe only via its loop)."""
        if self._shutdown is not None:
            self._shutdown.set()

    def request_drain(self) -> None:
        """Graceful stop: drain (bounded by ``drain_timeout``), then
        shut down.  Must run on the server's loop (e.g. from a signal
        handler registered with ``loop.add_signal_handler``)."""
        if self._shutdown is None or self._shutdown.is_set():
            return
        asyncio.get_running_loop().create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        try:
            await self.lifecycle.drain(self.drain_timeout)
        finally:
            if self._shutdown is not None:
                self._shutdown.set()

    def request_reload(self) -> None:
        """Schedule a zero-downtime catalog reload (e.g. on SIGHUP).
        Must run on the server's loop; failures are logged, never
        fatal — the server keeps serving the old epoch."""
        if self._shutdown is None or self._shutdown.is_set():
            return

        async def _reload() -> None:
            try:
                await self.lifecycle.reload()
            except InjectedCrash:
                raise
            except Exception:  # noqa: BLE001 - keep serving the old epoch
                self._bump("errors")
                logger.exception("reload failed; still serving old epoch")

        asyncio.get_running_loop().create_task(_reload())

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            # Cancel live connection handlers explicitly: an idle client
            # blocked in readline() would otherwise keep
            # ``Server.wait_closed()`` (which awaits handlers on Python
            # >= 3.12.1) from ever returning.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._aux_executor is not None:
            self._aux_executor.shutdown(wait=False, cancel_futures=True)
            self._aux_executor = None
        if self._analysis_thread is not None:
            # FIFO queue: the sentinel lands behind every pending
            # record, so joining here means the sidecar holds every
            # analyze the server acknowledged.
            self._analysis_queue.put(None)
            self._analysis_thread.join(timeout=10.0)
            self._analysis_thread = None
        self.lifecycle.state = STOPPED

    def _enqueue_analysis(self, name: str, record: Dict) -> None:
        """Queue one analyze record for the background sidecar writer."""
        with self._counters_lock:
            if self._analysis_thread is None:
                self._analysis_thread = threading.Thread(
                    target=self._analysis_writer,
                    name="analysis-writer",
                    daemon=True,
                )
                self._analysis_thread.start()
        self._analysis_queue.put((name, record))

    def _analysis_writer(self) -> None:
        while True:
            item = self._analysis_queue.get()
            if item is None:
                return
            batch = [item]
            stop = False
            # Debounce: the sidecar rewrite is O(full file), so a burst
            # of analyzed queries coalesces into one rewrite per entry
            # — per-record writes would let the writer's GIL time tax
            # the very queries whose work it records.
            deadline = time.monotonic() + 0.05
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._analysis_queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            by_name: Dict[str, List[Dict]] = {}
            for name, record in batch:
                by_name.setdefault(name, []).append(record)
            for name, records in by_name.items():
                try:
                    self.catalog.store_analyses(name, records)
                except (CatalogError, OSError) as exc:
                    # Derived telemetry: a lost write is reported on
                    # the obs stream, never surfaced to (or failing)
                    # the queries that produced it — long answered.
                    self.obs.emit(
                        "analysis_sidecar_error", data=name,
                        error=str(exc),
                    )
            if stop:
                return

    # -- connection handling -------------------------------------------

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict, body: bytes = b""
    ) -> None:
        """One reply line plus an optional frame body, in one write."""
        writer.write(json.dumps(payload).encode("utf-8") + b"\n" + body)
        await writer.drain()

    async def _reject_oversized(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer a request line over ``MAX_REQUEST_BYTES``; the caller
        closes the connection.  The rest of the line is read and dropped
        first: closing on unread input would reset the connection and
        could discard the reply before the client reads it."""
        self._bump("errors")
        self.obs.emit("request_too_large", limit=MAX_REQUEST_BYTES)
        await self._send(writer, {
            "ok": False,
            "error": f"request line exceeds {MAX_REQUEST_BYTES} bytes",
            "reason": "request_too_large",
        })
        while True:
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as exc:
                await reader.readexactly(exc.consumed)
            except asyncio.IncompleteReadError:
                return

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn_subs: List[_Subscription] = []
        try:
            # Fault-injection hook: a flaky network between client and
            # server.  "refuse" closes the connection before any request
            # is read (the client sees an immediate EOF); "delay" stalls
            # the accept path without blocking the event loop.
            rule = self.faults.consume("server.accept")
            if rule is not None:
                if rule.action == "refuse":
                    self._bump("connections_refused")
                    logger.info("refusing connection (injected fault)")
                    self.obs.emit("fault.refuse")
                    return
                if rule.action == "delay":
                    await asyncio.sleep(rule.seconds)
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: a last unterminated line
                except asyncio.LimitOverrunError:
                    await self._reject_oversized(reader, writer)
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                if line.startswith(b"GET "):
                    # Plain-HTTP scrape support: a Prometheus scraper
                    # (or curl) pointed at the JSON-lines port gets a
                    # real HTTP/1.0 response for /metrics and /healthz,
                    # then the connection closes (HTTP/1.0 semantics).
                    await self._handle_http(reader, writer, line)
                    break
                try:
                    request = json.loads(line)
                except ValueError:
                    await self._send(
                        writer, {"ok": False, "error": "malformed JSON request"}
                    )
                    continue
                if not isinstance(request, dict):
                    await self._send(
                        writer,
                        {"ok": False, "error": "request must be a JSON object"},
                    )
                    continue
                op = request.get("op")
                if op == "ping":
                    await self._send(writer, {"ok": True, "pong": True})
                elif op == "healthz":
                    await self._send(writer, self._healthz_payload())
                elif op == "stats":
                    await self._send(writer, self._stats_payload())
                elif op == "metrics":
                    await self._send(
                        writer, {"ok": True, "metrics": self.metrics_text()}
                    )
                elif op == "catalog_list":
                    await self._op_catalog_list(writer)
                elif op == "catalog_add":
                    await self._op_catalog_add(request, writer)
                elif op == "query":
                    await self._op_query(request, writer)
                elif op == "update":
                    await self._op_update(request, writer)
                elif op == "subscribe":
                    await self._op_subscribe(request, writer, conn_subs)
                elif op == "reload":
                    await self._op_reload(request, writer)
                elif op == "drain":
                    stopping = await self._op_drain(request, writer)
                    if stopping:
                        break
                elif op == "shutdown":
                    await self._send(writer, {"ok": True, "stopping": True})
                    if self._shutdown is not None:
                        self._shutdown.set()
                    break
                else:
                    await self._send(
                        writer, {"ok": False, "error": f"unknown op {op!r}"}
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels live connection handlers; finish
            # quietly (the streams machinery would otherwise log it).
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            for sub in conn_subs:
                self._drop_subscription(sub)
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                asyncio.CancelledError,
            ):
                pass

    async def _handle_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
    ) -> None:
        """Answer one ``GET`` request on the JSON-lines port.

        ``/metrics`` returns the text exposition, ``/healthz`` the
        healthz payload as JSON; anything else is a 404.  Request
        headers are drained (up to a sane cap) so well-behaved HTTP
        clients don't see a reset, then the connection closes.
        """
        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        for _ in range(64):  # drain headers until the blank line
            try:
                header = await reader.readline()
            except ValueError:  # a header over MAX_REQUEST_BYTES: skip it
                continue
            if not header or header in (b"\r\n", b"\n"):
                break
        if path.split("?")[0] == "/metrics":
            status, ctype, body = (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                self.metrics_text(),
            )
        elif path.split("?")[0] == "/healthz":
            status, ctype, body = (
                "200 OK",
                "application/json",
                json.dumps(self._healthz_payload()) + "\n",
            )
        else:
            status, ctype, body = ("404 Not Found", "text/plain", "not found\n")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # -- ops -----------------------------------------------------------

    async def _op_catalog_list(self, writer: asyncio.StreamWriter) -> None:
        entries = [self.catalog.info(name) for name in self.catalog.names()]
        await self._send(writer, {"ok": True, "entries": entries})

    async def _op_catalog_add(
        self, request: Dict, writer: asyncio.StreamWriter
    ) -> None:
        name = request.get("name")
        text = request.get("graph")
        if not isinstance(name, str) or not isinstance(text, str):
            await self._send(
                writer,
                {"ok": False, "error": "catalog_add needs 'name' and 'graph'"},
            )
            return
        loop = asyncio.get_running_loop()

        def work() -> Dict:
            graph = loads_graph(text)
            return self.catalog.add(
                name, graph, overwrite=bool(request.get("overwrite", False))
            )

        try:
            info = await loop.run_in_executor(self._executor, work)
        except (CatalogError, ValueError, OSError) as exc:
            self._bump("errors")
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        # The entry may have replaced a different graph under the same
        # name: results cached against the old graph are now wrong.
        with self._counters_lock:
            self._caches.pop(name, None)
            self._cache_epochs.pop(name, None)
        await self._send(writer, {"ok": True, "entry": info})

    # -- dynamic ops (DESIGN.md §9) ------------------------------------

    def _drop_subscription(self, sub: _Subscription) -> None:
        with self._counters_lock:
            per_name = self._subs.get(sub.name)
            if per_name is not None and per_name.pop(sub.id, None) is not None:
                if not per_name:
                    del self._subs[sub.name]
        sender = sub.sender
        if sender is not None and sender is not asyncio.current_task():
            sender.cancel()

    async def _sub_sender(self, sub: _Subscription) -> None:
        """Drain one subscription's bounded event queue to its socket.

        A slow subscriber only ever blocks *here*, never the update
        path or other subscribers.  ``server.subscriber.send`` is the
        fault hook tests use to make this sender arbitrarily slow.
        """
        try:
            while True:
                event = await sub.queue.get()
                rule = self.faults.consume("server.subscriber.send")
                if rule is not None and rule.action == "delay":
                    await asyncio.sleep(rule.seconds)
                await self._send(sub.writer, event)
                self._bump("events_pushed")
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._bump("subscribers_dropped")
            self._drop_subscription(sub)

    def _enqueue_event(self, sub: _Subscription, event: Dict) -> bool:
        """Queue one event for ``sub`` under the backpressure policy.

        Returns whether the subscription is still alive afterwards.
        """
        if sub.lost:
            # Tell the client how many diffs it missed so it knows its
            # standing set is stale and can re-subscribe by epoch.
            event = {**event, "lost": sub.lost}
        try:
            sub.queue.put_nowait(event)
        except asyncio.QueueFull:
            if self.subscriber_policy == "drop":
                sub.lost += 1
                self._bump("events_dropped")
                logger.info(
                    "subscription %d lagging: dropped event (%d lost)",
                    sub.id, sub.lost,
                )
                self.obs.emit(
                    "subscriber.drop", subscription=sub.id,
                    data=sub.name, lost=sub.lost,
                )
                return True
            self._bump("subscribers_dropped")
            logger.info(
                "subscription %d too slow: disconnecting", sub.id
            )
            self.obs.emit(
                "subscriber.disconnect", subscription=sub.id, data=sub.name
            )
            self._drop_subscription(sub)
            try:
                sub.writer.close()
            except OSError:
                pass
            return False
        sub.lost = 0
        return True

    async def _op_update(
        self, request: Dict, writer: asyncio.StreamWriter
    ) -> None:
        name = request.get("name")
        payload = request.get("delta")
        if not isinstance(name, str) or payload is None:
            await self._send(
                writer, {"ok": False, "error": "update needs 'name' and 'delta'"}
            )
            return
        # Same trace discipline as queries: honor the client's id, else
        # generate one — the update event and every subscriber delta it
        # fans out to carry it, so a diff can be traced to its cause.
        trace = request.get("trace")
        if not isinstance(trace, str) or not (1 <= len(trace) <= 64):
            trace = new_trace_id()
        loop = asyncio.get_running_loop()
        assert self._update_lock is not None

        def apply() -> Tuple[Dict, object]:
            delta = delta_from_payload(payload)
            return self.catalog.update(name, delta)

        # One update at a time: the summary -> qcache-invalidation ->
        # subscriber-diff sequence must observe graph epochs in order.
        async with self._update_lock:
            try:
                info, summary = await loop.run_in_executor(
                    self._executor, apply
                )
            except (CatalogError, DeltaError, ValueError, OSError) as exc:
                # OSError: the catalog could not persist (disk full,
                # read-only root) — report it, keep the connection.
                self._bump("errors")
                await self._send(writer, {"ok": False, "error": str(exc)})
                return

            with self._counters_lock:
                cache = self._caches.get(name)
                if cache is not None:
                    # Surviving entries are revalidated against the new
                    # epoch below, so the cache tracks it.
                    self._cache_epochs[name] = info.get("epoch")
            kept = evicted = 0
            if cache is not None:
                kept, evicted = cache.invalidate_labels(summary.touched_labels)

            notified = await self._notify_subscribers(
                name, info, summary, trace=trace
            )

        self._bump("updates")
        self.obs.emit(
            "update", trace=trace, data=name, epoch=info.get("epoch"),
            qcache_kept=kept, qcache_evicted=evicted,
            subscribers_notified=notified,
        )
        await self._send(
            writer,
            {
                "ok": True,
                "entry": info,
                "summary": summary.counts(),
                "qcache_kept": kept,
                "qcache_evicted": evicted,
                "subscribers_notified": notified,
                "trace": trace,
            },
        )

    async def _notify_subscribers(
        self, name: str, info: Dict, summary, trace: Optional[str] = None
    ) -> int:
        """Push the exact embedding diff to every subscriber of ``name``."""
        with self._counters_lock:
            subs = list(self._subs.get(name, {}).values())
        if not subs:
            return 0
        loop = asyncio.get_running_loop()
        engine = await loop.run_in_executor(
            self._executor, self.catalog.engine, name
        )
        notified = 0
        for sub in subs:
            try:
                diff = await loop.run_in_executor(
                    self._executor,
                    embedding_diff,
                    engine,
                    sub.query,
                    sub.matches,
                    summary,
                )
            except Exception as exc:  # noqa: BLE001 - drop, keep serving
                self._bump("subscribers_dropped")
                self._drop_subscription(sub)
                try:
                    await self._send(
                        sub.writer,
                        {"event": "error", "subscription": sub.id,
                         "error": f"diff failed: {exc!r}"},
                    )
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                continue
            sub.matches.difference_update(diff.removed)
            sub.matches.update(diff.added)
            sub.epoch = info.get("epoch")
            # Enqueue, never send inline: the bounded queue + sender
            # task decouple the update path from slow subscriber
            # sockets (backpressure policy in _enqueue_event).
            if self._enqueue_event(
                sub,
                {
                    "event": "delta",
                    "subscription": sub.id,
                    "data": name,
                    "epoch": info.get("epoch"),
                    "trace": trace,
                    "added": [list(e) for e in diff.added],
                    "removed": [list(e) for e in diff.removed],
                },
            ):
                notified += 1
        return notified

    async def _op_subscribe(
        self,
        request: Dict,
        writer: asyncio.StreamWriter,
        conn_subs: List[_Subscription],
    ) -> None:
        name = request.get("data")
        text = request.get("graph")
        if not isinstance(name, str) or not isinstance(text, str):
            await self._send(
                writer,
                {"ok": False, "error": "subscribe needs 'data' and 'graph'"},
            )
            return
        trace = request.get("trace")
        if not isinstance(trace, str) or not (1 <= len(trace) <= 64):
            trace = new_trace_id()
        try:
            query = loads_graph(text)
        except ValueError as exc:
            self._bump("errors")
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        if self.lifecycle.state in (DRAINING, STOPPED):
            await self._send(
                writer,
                {"ok": False,
                 "error": "draining: not admitting new subscriptions",
                 "overloaded": True, "reason": "draining",
                 "retry_after": round(self.retry_after_hint, 6)},
            )
            return
        tenant_field = request.get("tenant")
        tstate = self.tenants.resolve(
            tenant_field if isinstance(tenant_field, str) else None
        )
        loop = asyncio.get_running_loop()

        def initial() -> MatchResult:
            engine = self.catalog.engine(name)
            return engine.match(query, limits=SearchLimits())

        assert self._slots is not None
        assert self._update_lock is not None
        # Serialized against updates end to end: the baseline must be
        # enumerated on the same epoch the subscription registers under
        # (an update landing in between would make every later diff
        # start from a stale set), and no event line may be pushed
        # before the snapshot frame.
        async with self._update_lock:
            try:
                await self._slots.acquire(
                    tstate.spec.name, weight=tstate.spec.weight,
                    rank=PRIORITY_RANKS["normal"],
                )
                try:
                    result = await loop.run_in_executor(
                        self._executor, initial
                    )
                finally:
                    self._slots.release()
            except CatalogError as exc:
                self._bump("errors")
                await self._send(writer, {"ok": False, "error": str(exc)})
                return
            if result.status is not TerminationStatus.COMPLETE:
                self._bump("errors")
                await self._send(
                    writer,
                    {"ok": False,
                     "error": "subscribe needs a complete initial "
                              f"enumeration (got {result.status.value})"},
                )
                return

            matches = {tuple(e) for e in result.embeddings}
            with self._counters_lock:
                sub_id = self._next_sub_id
                self._next_sub_id += 1
                sub = _Subscription(
                    sub_id, name, query, matches, writer,
                    queue_limit=self.subscriber_queue,
                )
                self._subs.setdefault(name, {})[sub_id] = sub
                self.counters["subscriptions"] += 1
            conn_subs.append(sub)

            try:
                epoch = self.catalog.info(name).get("epoch")
            except CatalogError:
                epoch = None
            sub.epoch = epoch
            self.obs.emit(
                "subscribe", trace=trace, data=name, subscription=sub_id,
                epoch=epoch, num_embeddings=len(matches),
                tenant=tstate.spec.name,
            )
            arity, body = encode_embeddings(sorted(matches))
            await self._send(
                writer,
                {
                    "ok": True,
                    "subscription": sub_id,
                    "num_embeddings": len(matches),
                    "epoch": epoch,
                    "trace": trace,
                    "arity": arity,
                    "bytes": len(body),
                },
                body,
            )
            # Only start draining events after the snapshot frame is
            # written — the first queued diff must never interleave
            # with it (we still hold the update lock here, so nothing
            # can have been enqueued yet).
            sub.sender = asyncio.get_running_loop().create_task(
                self._sub_sender(sub)
            )

    # -- lifecycle ops (DESIGN.md §13) ---------------------------------

    async def _op_reload(
        self, request: Dict, writer: asyncio.StreamWriter
    ) -> None:
        """Zero-downtime catalog reload (also reachable via SIGHUP).

        Replies with the per-entry action report and the number of
        subscription diffs replayed across the epoch boundary.  An
        injected crash at a lifecycle hook is reported (``"crashed":
        true``) with the server still up — the catalog is consistent at
        the old or new epoch either way, which is what the fault sweep
        asserts.
        """
        try:
            report, replayed = await self.lifecycle.reload()
        except InjectedCrash as exc:
            self._bump("errors")
            await self._send(
                writer,
                {"ok": False, "error": f"injected crash at {exc}",
                 "crashed": True, "status": self.lifecycle.state},
            )
            return
        except (CatalogError, RuntimeError, OSError) as exc:
            self._bump("errors")
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        await self._send(
            writer,
            {
                "ok": True,
                "report": report,
                "replayed": replayed,
                "status": self.lifecycle.state,
            },
        )

    async def _op_drain(
        self, request: Dict, writer: asyncio.StreamWriter
    ) -> bool:
        """Graceful drain, then stop.  Returns whether we are stopping.

        The reply reports the truth: ``"drained": false`` with the
        number of queries still in flight when the deadline expired
        (the CLI verb exits nonzero on that).
        """
        timeout = request.get("timeout", self.drain_timeout)
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
                or timeout < 0:
            await self._send(
                writer,
                {"ok": False,
                 "error": "'timeout' must be a non-negative number"},
            )
            return False
        try:
            drained, active = await self.lifecycle.drain(float(timeout))
        except InjectedCrash as exc:
            self._bump("errors")
            await self._send(
                writer,
                {"ok": False, "error": f"injected crash at {exc}",
                 "crashed": True, "status": self.lifecycle.state},
            )
            return False
        await self._send(
            writer,
            {
                "ok": True,
                "drained": drained,
                "active": active,
                "stopping": True,
            },
        )
        if self._shutdown is not None:
            self._shutdown.set()
        return True

    def _admission_limit(self, priority: str) -> int:
        """Active-query count at which ``priority`` work is shed.

        Lowest class first: ``low`` never queues (shed once every
        matching slot is busy), ``normal`` is shed at capacity,
        ``high`` may use ``high_headroom`` reserve slots beyond it.
        """
        capacity = self.max_inflight + self.max_pending
        if priority == "low":
            return self.max_inflight
        if priority == "high":
            return capacity + self.high_headroom
        return capacity

    async def _op_query(
        self, request: Dict, writer: asyncio.StreamWriter
    ) -> None:
        self._bump("queries")
        # One trace id per request: honor the client's (so its retry
        # attempts correlate with our handling), else generate one.
        trace = request.get("trace")
        if not isinstance(trace, str) or not (1 <= len(trace) <= 64):
            trace = new_trace_id()
        # Causal spans: the client's attempt span (if sent) parents our
        # request span, so one exported tree covers the whole round trip.
        client_span = request.get("span")
        if not isinstance(client_span, str) or not (1 <= len(client_span) <= 64):
            client_span = None
        request_span = new_span_id()
        request_t0 = time.monotonic()
        priority = request.get("priority", "normal")
        if priority not in PRIORITIES:
            self._bump("errors")
            self.obs.emit(
                "query", trace=trace, outcome="error",
                error=f"bad priority {priority!r}",
            )
            await self._send(
                writer,
                {"ok": False,
                 "error": f"priority must be one of {list(PRIORITIES)}",
                 "trace": trace},
            )
            return
        tenant_field = request.get("tenant")
        if tenant_field is not None and (
            not isinstance(tenant_field, str)
            or not (1 <= len(tenant_field) <= 128)
        ):
            self._bump("errors")
            self.obs.emit(
                "query", trace=trace, outcome="error",
                error="bad tenant field",
            )
            await self._send(
                writer,
                {"ok": False,
                 "error": "'tenant' must be a non-empty string (<=128 chars)",
                 "trace": trace},
            )
            return
        tstate = self.tenants.resolve(tenant_field)
        tenant = tstate.spec.name
        tstate.counters.inc("queries")
        # Admission pipeline (DESIGN.md §13), cheapest reason first:
        # draining → forced/global priority shedding (unchanged
        # semantics: reject *immediately*, no unbounded queueing,
        # lowest class first) → per-tenant token bucket → per-tenant
        # inflight quota.  Every rejection carries a retry_after hint
        # the client's RetryPolicy honors.  The fault hook lets tests
        # force a shed without real resource pressure.
        reason: Optional[str] = None
        retry_after: Optional[float] = None
        error_msg = "overloaded: too many in-flight queries"
        if self.lifecycle.state in (DRAINING, STOPPED):
            reason = "draining"
            retry_after = self.retry_after_hint
            error_msg = "draining: not admitting new queries"
        else:
            forced = self.faults.consume("server.admission")
            if (
                self._active >= self._admission_limit(priority)
                or (forced is not None and forced.action == "overload")
            ):
                reason = "capacity"
                retry_after = self.retry_after_hint
            else:
                rejection = self.tenants.admit(tstate)
                if rejection is not None:
                    reason = rejection.reason
                    retry_after = rejection.retry_after
                    error_msg = (
                        f"rate limited: tenant {tenant!r} over rate"
                        if reason == "rate"
                        else f"overloaded: tenant {tenant!r} at max inflight"
                    )
        if reason is not None:
            self._bump("rejected")
            self._bump(f"shed_{priority}")
            tstate.counters.inc(f"shed_{reason}")
            logger.info(
                "shedding %s-priority query from tenant %s "
                "(reason=%s active=%d)",
                priority, tenant, reason, self._active,
            )
            self.obs.emit(
                "query", trace=trace, outcome="shed", priority=priority,
                tenant=tenant, reason=reason,
                data=request.get("data"), active=self._active,
            )
            rejection_reply = {
                "ok": False,
                "error": error_msg,
                "overloaded": True,
                "priority": priority,
                "tenant": tenant,
                "reason": reason,
                "trace": trace,
            }
            if retry_after is not None:
                rejection_reply["retry_after"] = round(retry_after, 6)
            await self._send(writer, rejection_reply)
            return
        tstate.counters.inc("admitted")
        self._active += 1
        tstate.inflight += 1
        try:
            try:
                parsed = self._parse_query(request)
            except ValueError as exc:
                self._bump("errors")
                self.obs.emit(
                    "query", trace=trace, outcome="error",
                    priority=priority, tenant=tenant, error=str(exc),
                )
                await self._send(
                    writer, {"ok": False, "error": str(exc), "trace": trace}
                )
                return
            if tstate.spec.max_workers is not None:
                # Per-tenant procpool clamp: one tenant cannot
                # monopolize worker processes either.
                (
                    qname, query, limits, workers, use_cache, stride, explain
                ) = parsed
                parsed = (
                    qname, query, limits,
                    min(workers, tstate.spec.max_workers),
                    use_cache, stride, explain,
                )
            name = parsed[0]
            explain_mode = parsed[6]
            loop = asyncio.get_running_loop()
            started = time.perf_counter()
            queue_t0 = time.monotonic()
            assert self._slots is not None
            try:
                # Hold a matching slot only for the CPU work; streaming
                # the reply to a slow client must not block admission.
                # Slots are granted in weighted deficit-round-robin
                # order across tenants, priority-ordered within one.
                await self._slots.acquire(
                    tenant, weight=tstate.spec.weight,
                    rank=PRIORITY_RANKS[priority],
                )
                try:
                    queue_seconds = time.perf_counter() - started
                    result, cache_state, prov = await loop.run_in_executor(
                        self._executor, self._execute, *parsed, trace, tenant,
                        request_span,
                    )
                finally:
                    self._slots.release()
            except CatalogError as exc:
                self._bump("errors")
                self.obs.emit(
                    "query", trace=trace, outcome="error",
                    priority=priority, tenant=tenant, data=name,
                    error=str(exc),
                )
                await self._send(
                    writer, {"ok": False, "error": str(exc), "trace": trace}
                )
                return
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                self._bump("errors")
                self.obs.emit(
                    "query", trace=trace, outcome="error",
                    priority=priority, tenant=tenant, data=name,
                    error=repr(exc),
                )
                await self._send(
                    writer,
                    {"ok": False, "error": f"internal error: {exc!r}",
                     "trace": trace},
                )
                return
            server_seconds = time.perf_counter() - started
            stream_started = time.perf_counter()
            stream_t0 = time.monotonic()
            await self._send_result(
                writer, result, cache_state, server_seconds,
                queue_seconds=queue_seconds, trace=trace,
                profile=prov.get("profile"), explain=prov.get("explain"),
            )
            stream_seconds = time.perf_counter() - stream_started
            if self.obs.enabled:
                hist = self._phase_hist
                hist["queue"].observe(queue_seconds)
                hist["build"].observe(result.preprocessing_seconds)
                hist["search"].observe(result.elapsed_seconds)
                hist["stream"].observe(stream_seconds)
                self._request_hist.observe(server_seconds + stream_seconds)
                config = self.catalog.config
                self.obs.emit(
                    "query",
                    trace=trace,
                    outcome="served",
                    priority=priority,
                    tenant=tenant,
                    data=name,
                    epoch=prov.get("epoch"),
                    cache=prov.get("cache_detail", cache_state),
                    engine_source=prov.get("engine_source"),
                    workers=prov.get("workers"),
                    candidate_backend=config.candidate_backend,
                    build_backend=config.build_backend,
                    mask_backend=config.mask_backend,
                    num_embeddings=result.num_embeddings,
                    status=result.status.value,
                    queue_seconds=round(queue_seconds, 6),
                    build_seconds=round(result.preprocessing_seconds, 6),
                    search_seconds=round(result.elapsed_seconds, 6),
                    stream_seconds=round(stream_seconds, 6),
                    server_seconds=round(server_seconds, 6),
                    **({"explain": explain_mode} if explain_mode else {}),
                )
                # Server-side phase spans: queue and stream around the
                # engine spans _execute emitted under request_span, the
                # request span itself parented by the client's attempt.
                # One batched log pass — three emits would triple the
                # per-record bookkeeping on the hot path.
                emit_spans(self.obs.log, (
                    {"name": "server.queue", "span": new_span_id(),
                     "parent": request_span, "t0": round(queue_t0, 6),
                     "dur": round(queue_seconds, 6)},
                    {"name": "server.stream", "span": new_span_id(),
                     "parent": request_span, "t0": round(stream_t0, 6),
                     "dur": round(stream_seconds, 6)},
                    {"name": "server.request", "span": request_span,
                     "parent": client_span, "t0": round(request_t0, 6),
                     "dur": round(time.monotonic() - request_t0, 6),
                     "tenant": tenant, "data": name},
                ), trace=trace)
            self._bump("served")
            tstate.counters.inc("served")
        finally:
            self._active -= 1
            tstate.inflight -= 1

    def _parse_query(self, request: Dict) -> Tuple:
        name = request.get("data")
        if not isinstance(name, str):
            raise ValueError("query request needs a 'data' catalog name")
        text = request.get("graph")
        if not isinstance(text, str):
            raise ValueError("query request needs 'graph' (.graph text)")
        query = loads_graph(text)  # GraphFormatError is a ValueError

        def opt_number(key, default, kind):
            value = request[key] if key in request else default
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key!r} must be a number or null")
            value = kind(value)
            if value < 0:
                raise ValueError(f"{key!r} must be non-negative")
            return value

        limits = SearchLimits(
            max_embeddings=opt_number("limit", None, int),
            time_limit=opt_number("time_limit", self.default_time_limit, float),
            collect=not bool(request.get("count_only", False)),
            max_recursions=opt_number(
                "recursion_limit", self.default_recursion_limit, int
            ),
        )
        workers = opt_number("workers", 1, int) or 1
        workers = min(workers, self.max_request_workers)
        use_cache = bool(request.get("cache", True))
        # profile: false (off), true (stride-1 sampling), or an int
        # stride — attaches a SamplingProfiler summary to the reply.
        profile = request.get("profile", False)
        if isinstance(profile, bool):
            stride = 1 if profile else 0
        elif isinstance(profile, int) and profile >= 1:
            stride = profile
        else:
            raise ValueError("'profile' must be a boolean or a stride >= 1")
        # explain: null (off), "plan" (report without searching), or
        # "analyze" (run the real search, attribute the work exactly).
        explain = request.get("explain")
        if explain is not None and explain not in ("plan", "analyze"):
            raise ValueError("'explain' must be null, 'plan', or 'analyze'")
        if explain is not None and stride > 0:
            raise ValueError("'explain' cannot be combined with 'profile'")
        return name, query, limits, workers, use_cache, stride, explain

    def _cache_for(self, name: str) -> QueryCache:
        with self._counters_lock:
            cache = self._caches.get(name)
            if cache is None:
                cache = QueryCache(
                    max_entries=self.cache_entries,
                    leaf_budget=self.leaf_budget,
                    cap_serving=not self.catalog.config.break_symmetry,
                )
                self._caches[name] = cache
                # Live attachment: this cache's counters become the
                # ``repro_qcache_*_total{data=...}`` metric families.
                self.obs.registry.attach_group(
                    "repro_qcache", cache.counters, labels={"data": name},
                    help_text="QueryCache counters (per catalog entry)",
                )
            return cache

    def _execute(
        self,
        name: str,
        query: Graph,
        limits: SearchLimits,
        workers: int,
        use_cache: bool,
        profile_stride: int,
        explain: Optional[str] = None,
        trace: Optional[str] = None,
        tenant: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> Tuple[MatchResult, str, Dict]:
        """Blocking query execution (runs on the executor threads).

        Returns ``(result, cache_state, provenance)`` where provenance
        carries the request-log detail: cache hit/truncated-hit, engine
        source (resident/load/rebuild) + epoch, effective workers, the
        profiler summary when ``profile_stride > 0``, and the
        EXPLAIN/ANALYZE report when ``explain`` is set.  The trace id
        and structured log are bound thread-locally for the duration,
        so the procpool (and its fault hooks) log under this request's
        trace across the process boundary; ``parent_span`` (the request
        span) parents the engine's build/search spans the same way.
        """
        prov: Dict[str, object] = {}
        log = self.obs.log if self.obs.enabled else None
        fields = {"tenant": tenant} if tenant is not None else None
        with trace_context(trace, log, fields), span_scope(parent_span):
            cache = self._cache_for(name)
            form = None
            if profile_stride > 0:
                # A cache hit has no search to observe; profiled runs
                # always execute the engine.
                use_cache = False
            if explain == "plan":
                return self._explain_plan(name, query, limits, use_cache, prov)
            if explain == "analyze":
                # ANALYZE attributes real engine work; a cache hit has
                # none, so the cache is bypassed (never polluted: the
                # analyzed result is not stored either, keeping the
                # cache byte-identical to a no-analyze run).
                use_cache = False
            if use_cache:
                cached, form = cache.lookup(query, limits)
                if cached is not None:
                    # A hit served capped at the cached entry's known
                    # embedding count is a *truncated* hit: correct, but
                    # the client should know it saw a prefix.
                    prov["cache_detail"] = (
                        "truncated-hit"
                        if cached.status is TerminationStatus.EMBEDDING_LIMIT
                        else "hit"
                    )
                    return cached, "hit", prov
            engine, source, epoch = self.catalog.engine_ex(name)
            prov["engine_source"] = source
            prov["epoch"] = epoch
            if explain == "analyze":
                if workers > 1:
                    self._bump("procpool_dispatches")
                prov["workers"] = workers
                report, result = engine.explain(
                    query, mode="analyze", limits=limits, workers=workers
                )
                report["qcache"] = {"decision": "bypass", "reason": "analyze"}
                prov["explain"] = report
                self._enqueue_analysis(
                    name, sidecar_record(report, trace=trace)
                )
                self._bump("cache_bypass")
                return result, "bypass", prov
            observer = None
            if profile_stride > 0:
                observer = SamplingProfiler(stride=profile_stride)
            if workers > 1 and observer is None:
                self._bump("procpool_dispatches")
            prov["workers"] = 1 if observer is not None else workers
            result = engine.match(
                query, limits=limits, workers=workers, observer=observer
            )
            if observer is not None:
                prov["profile"] = observer.summary()
            if use_cache and form is not None:
                cache.store(form, limits, result)
                with self._counters_lock:
                    self._cache_epochs[name] = epoch
                return result, "miss", prov
            self._bump("cache_bypass")
            return result, "bypass", prov

    def _explain_plan(
        self,
        name: str,
        query: Graph,
        limits: SearchLimits,
        use_cache: bool,
        prov: Dict,
    ) -> Tuple[MatchResult, str, Dict]:
        """EXPLAIN (plan): build + report, never search.

        The qcache slot in the report comes from the cache's
        non-mutating :meth:`~repro.service.qcache.QueryCache.peek` — the
        decision a real request would get, with the cache left
        untouched.  The reply carries a zero-embedding COMPLETE result
        (EXPLAIN returns no rows).
        """
        cache = self._cache_for(name)
        engine, source, epoch = self.catalog.engine_ex(name)
        prov["engine_source"] = source
        prov["epoch"] = epoch
        prov["workers"] = 0
        report, _ = engine.explain(query, mode="plan")
        report["qcache"] = (
            cache.peek(query, limits)
            if use_cache
            else {"decision": "bypass", "reason": "cache_disabled"}
        )
        prov["explain"] = report
        result = MatchResult(
            embeddings=[],
            num_embeddings=0,
            status=TerminationStatus.COMPLETE,
            elapsed_seconds=0.0,
            stats=SearchStats(),
            preprocessing_seconds=report["build_seconds"],
            method="GuP",
        )
        self._bump("cache_bypass")
        return result, "bypass", prov

    def _bump(self, key: str) -> None:
        self.counters.inc(key)

    async def _send_result(
        self,
        writer: asyncio.StreamWriter,
        result: MatchResult,
        cache_state: str,
        server_seconds: float,
        queue_seconds: float = 0.0,
        trace: Optional[str] = None,
        profile: Optional[Dict] = None,
        explain: Optional[Dict] = None,
    ) -> None:
        """Write the query reply: header line and frame body."""
        encode_started = time.perf_counter()
        arity, body = encode_embeddings(result.embeddings)
        encode_seconds = time.perf_counter() - encode_started
        header = {
            "ok": True,
            "num_embeddings": result.num_embeddings,
            "status": result.status.value,
            "cache": cache_state,
            "recursions": result.stats.recursions,
            "elapsed": round(result.total_seconds, 6),
            "server_seconds": round(server_seconds, 6),
            "queue_seconds": round(queue_seconds, 6),
            "encode_seconds": round(encode_seconds, 6),
            "arity": arity,
            "bytes": len(body),
        }
        if trace is not None:
            header["trace"] = trace
        if profile is not None:
            header["profile"] = profile
        if explain is not None:
            header["explain"] = explain
        await self._send(writer, header, body)

    def _stats_payload(self) -> Dict:
        with self._counters_lock:
            server = dict(self.counters)
            caches = {name: c.stats() for name, c in self._caches.items()}
        server["active"] = self._active
        server["max_inflight"] = self.max_inflight
        server["max_pending"] = self.max_pending
        server["status"] = self.lifecycle.state
        server["reloads"] = self.lifecycle.reloads
        qcache = {
            "per_data": caches,
            "hits": sum(c["hits"] for c in caches.values()),
            "misses": sum(c["misses"] for c in caches.values()),
        }
        return {
            "ok": True,
            "server": server,
            "catalog": self.catalog.stats(),
            "qcache": qcache,
            "tenants": self.tenants.stats(),
            "artifact_builds_in_process": DataArtifacts.builds_performed,
        }

    def _healthz_payload(self) -> Dict:
        """Cheap liveness/readiness probe (never touches the executor).

        Monitoring polls this under overload, so it must answer from
        in-memory state only: load counters, catalog entry epochs and
        pool respawn counters.  ``status`` reports the lifecycle state
        (``draining``/``reloading``/``stopped``) when one is in
        progress, else flips to ``"overloaded"`` exactly when a
        normal-priority query would be shed.
        """
        capacity = self.max_inflight + self.max_pending
        with self._counters_lock:
            subscriptions = sum(len(per) for per in self._subs.values())
        entries = {}
        for name in self.catalog.names():
            try:
                entries[name] = self.catalog.info(name)["epoch"]
            except CatalogError:
                continue  # racing a remove
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        if self.lifecycle.state != SERVING:
            status = self.lifecycle.state
        elif self._active >= capacity:
            status = "overloaded"
        else:
            status = "ok"
        return {
            "ok": True,
            "status": status,
            "active": self._active,
            "capacity": capacity,
            "max_inflight": self.max_inflight,
            "max_pending": self.max_pending,
            "high_headroom": self.high_headroom,
            "entries": entries,
            "pool": dict(POOL_COUNTERS),
            "subscriptions": subscriptions,
            "uptime_seconds": uptime,
        }


class ServerThread:
    """Run a :class:`MatchingServer` on a daemon thread.

    The in-process harness used by the tests and the throughput
    benchmark: ``start()`` blocks until the socket is bound and returns
    ``(host, port)``; ``stop()`` shuts the server down and joins.  Also
    usable as a context manager.
    """

    def __init__(
        self, catalog: GraphCatalog, host: str = "127.0.0.1", port: int = 0,
        **server_kwargs,
    ) -> None:
        self.server = MatchingServer(catalog, **server_kwargs)
        self.address: Optional[Tuple[str, int]] = None
        self.error: Optional[BaseException] = None
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._bound = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
            self._bound.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.address = await self.server.start(self._host, self._port)
        finally:
            self._bound.set()
        await self.server.wait_closed()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread.start()
        if not self._bound.wait(timeout):
            raise RuntimeError("server did not bind in time")
        if self.error is not None:
            raise RuntimeError(f"server failed to start: {self.error!r}")
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            # A hung shutdown must fail loudly: a daemon thread that
            # never exits would otherwise let broken-teardown bugs pass
            # every test invisibly.
            raise RuntimeError(
                f"server thread failed to stop within {timeout}s"
            )

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
