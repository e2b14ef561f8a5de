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
   "trace": id, "explain": null|"plan"|"analyze"}``
    → header ``{"ok": true, "num_embeddings": N, "status": s,
      "cache": "hit"|"miss"|"bypass", "queue_seconds": q,
      "server_seconds": t, "encode_seconds": e, "trace": id,
      "arity": k, "bytes": n, ...}``, then exactly ``n`` raw bytes:
      the embeddings as little-endian uint32, ``k`` per embedding,
      row-major (``n`` is 0 for count-only and empty results).  Header
      and body go out in one write.  ``queue_seconds`` is
      admission-queue wait, reported separately from execution;
      ``encode_seconds`` is the time spent packing the body, outside
      ``server_seconds`` (about 0 when the query went through the
      cache: a hit serves a stored frame, and a miss packs the frame
      the cache keeps while it executes); ``trace`` echoes (or
      generates) the request's trace id, the one its structured log
      lines share; ``explain`` attaches an EXPLAIN (``"plan"``: no
      search, no rows) or ANALYZE (``"analyze"``: the real search,
      cache bypassed, with exact per-stage and per-guard counts) report
      to the header.
      Unknown keys are ignored.
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

Every ``query`` is counted in ``queries`` and ends in exactly one
counted outcome with one ``query`` request-log line naming it:
``served``, ``rejected`` (shed at admission) or ``errors`` (a bad
field, a catalog error, an internal error, or a reply that could not
be written), so ``queries == served + rejected + errors`` whenever none
is in flight.  The fields several ops share are checked in one place
(:class:`_Fields`): a ``trace`` must be a 1–64 character string (else
a fresh id is used), a ``tenant`` null or a 1–128 character string,
and a numeric option (``limit``, ``workers``, ``time_limit``,
``recursion_limit``, drain's ``timeout``) a finite non-negative number
or, where optional, null; anything else, ``Infinity`` and ``NaN``
included, gets an ``{"ok": false, "error": "'<field>' must be …"}``
reply.

Concurrency model: the event loop parses, answers query-cache hits
(canonicalize, then serve a stored frame: no matching slot, no
executor hop, ``queue_seconds`` 0) and streams; matching is CPU-bound
and runs on a thread-pool executor bounded by ``max_inflight``
(admission control).  A hit is still admitted and counted like any
query.  A query whose canonicalization would pass
``INLINE_CANON_STEPS`` is looked up on the executor instead, so one
costly query cannot stall the loop.  Queries beyond the capacity
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
import math
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
from repro.obs import Observability, new_trace_id, trace_context
from repro.obs.metrics import CounterGroup
from repro.obs.spans import QUERY_EVENT, new_span_id, span_scope
from repro.service.catalog import CatalogError, GraphCatalog
from repro.service.faults import NO_FAULTS, FaultPlan, InjectedCrash
from repro.service.lifecycle import (
    DRAINING,
    SERVING,
    STOPPED,
    LifecycleManager,
    complete_matches,
)
from repro.service.qcache import CanonicalForm, QueryCache
from repro.service.tenancy import (
    PRIORITY_RANKS,
    FairSlots,
    Rejection,
    TenantState,
    TenantTable,
)
from repro.service.wire import FrameRows, encode_embeddings

DEFAULT_PORT = 7464

# Graphs travel inline on one request line; the benchmark wordnet is
# about 12 KB of text, so this fits graphs ~1000x larger.  It is also
# asyncio's flow-control threshold: a connection's reader pauses only
# once 2x this is buffered, so a client pipelining requests faster
# than they are served can hold up to ~32 MiB of server memory.
MAX_REQUEST_BYTES = 16 << 20

PRIORITIES = ("high", "normal", "low")

# Upper bound on a query's procpool ``workers`` option.
MAX_REQUEST_WORKERS = 8

# Canonical-search steps a cache lookup may spend on the event loop
# (about 1-2 ms): the 32-vertex queries of the paper's workloads spend
# at most a few thousand.  A query that needs more is looked up on the
# executor, inside a matching slot, so it cannot stall the loop.
INLINE_CANON_STEPS = 10_000

# The error text of a shed query, by rejection reason.
_SHED_ERRORS = {
    "draining": "draining: not admitting new queries",
    "capacity": "overloaded: too many in-flight queries",
    "rate": "rate limited: tenant {tenant!r} over rate",
    "quota": "overloaded: tenant {tenant!r} at max inflight",
}

logger = logging.getLogger("repro.service.server")


class _Fields:
    """The request fields several ops share, checked in one place.

    ``trace`` is never an error: every reply and log line of the
    request carries it.  :meth:`tenant` and :meth:`number` raise
    ``ValueError`` whose text is the reply's ``error``.
    """

    def __init__(self, request: Dict) -> None:
        self.request = request
        self.trace = self.ident("trace") or new_trace_id()

    def ident(self, key: str) -> Optional[str]:
        """A trace or span id: a 1–64 character string, else ``None``."""
        value = self.request.get(key)
        return value if isinstance(value, str) and 1 <= len(value) <= 64 \
            else None

    def tenant(self) -> Optional[str]:
        """The tenant name (``None`` = the default tenant)."""
        value = self.request.get("tenant")
        if value is not None and not (
            isinstance(value, str) and 1 <= len(value) <= 128
        ):
            raise ValueError(
                "'tenant' must be a non-empty string (<=128 chars)"
            )
        return value

    def number(self, key: str, default, kind, nullable: bool = True):
        """A finite non-negative number as ``kind``, or ``None`` for a
        null ``nullable`` field."""
        value = self.request.get(key, default)
        if value is None and nullable:
            return None
        try:
            # type(), not isinstance(): a JSON bool is not a number.
            valid = type(value) in (int, float) and value >= 0 \
                and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            valid = False
        if not valid:
            raise ValueError(
                f"{key!r} must be a finite non-negative number"
                + (" or null" if nullable else "")
            )
        return kind(value)


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
    build/load counters, which is how tests assert that the warm path
    builds and loads nothing.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        max_inflight: int = 2,
        max_pending: int = 8,
        cache_entries: int = 256,
        default_time_limit: Optional[float] = None,
        default_recursion_limit: Optional[int] = None,
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
        self.default_time_limit = default_time_limit
        self.default_recursion_limit = default_recursion_limit
        self.high_headroom = max(0, high_headroom)
        self.subscriber_queue = max(1, subscriber_queue)
        self.subscriber_policy = subscriber_policy
        self.faults = faults
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        # One cache per catalog entry, each recording the epoch its
        # entries are valid for (QueryCache.epoch).
        self._caches: Dict[str, QueryCache] = {}
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
            help_text="GraphCatalog artifact/engine/delta-log counters",
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
        g = self._gauges
        with self._counters_lock:
            # Under the lock that _drop_cache takes: a dropped entry's
            # gauge cannot come back.
            for name, cache in self._caches.items():
                g["qcache_entries"].labels(data=name).set(len(cache))
            subscriptions = sum(len(per) for per in self._subs.values())
        g["active"].set(self._active)
        g["capacity"].set(self.max_inflight + self.max_pending)
        g["subscriptions"].set(subscriptions)
        g["uptime"].set(
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        g["builds_in_process"].set(DataArtifacts.builds_performed)
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
        for executor in (self._executor, self._aux_executor):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._aux_executor = None
        self.lifecycle.state = STOPPED

    # -- connection handling -------------------------------------------

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict, body: bytes = b""
    ) -> None:
        """One reply line plus an optional frame body, in one write."""
        writer.write(json.dumps(payload).encode("utf-8") + b"\n" + body)
        await writer.drain()

    async def _refuse(
        self, writer: asyncio.StreamWriter, error: str, count: bool = True,
        **extra,
    ) -> None:
        """One ``{"ok": false, "error": ...}`` reply to a non-query op;
        ``count`` bumps ``errors``."""
        if count:
            self._bump("errors")
        await self._send(writer, {"ok": False, "error": error, **extra})

    async def _reject_oversized(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer a request line over ``MAX_REQUEST_BYTES``; the caller
        closes the connection.  The rest of the line is read and dropped
        first: closing on unread input would reset the connection and
        could discard the reply before the client reads it."""
        self.obs.emit("request_too_large", limit=MAX_REQUEST_BYTES)
        await self._refuse(
            writer, f"request line exceeds {MAX_REQUEST_BYTES} bytes",
            reason="request_too_large",
        )
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
                    await self._refuse(
                        writer, "malformed JSON request", count=False
                    )
                    continue
                if not isinstance(request, dict):
                    await self._refuse(
                        writer, "request must be a JSON object", count=False
                    )
                    continue
                op = request.get("op")
                payload = _STATE_OPS.get(op)
                if payload is not None:
                    await self._send(writer, payload(self))
                elif op in _OPS:
                    if await _OPS[op](self, request, writer, conn_subs):
                        break  # the op ended the connection
                else:
                    await self._refuse(
                        writer, f"unknown op {op!r}", count=False
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

    async def _op_catalog_add(self, request, writer, conn_subs) -> None:
        name = request.get("name")
        text = request.get("graph")
        if not isinstance(name, str) or not isinstance(text, str):
            await self._refuse(
                writer, "catalog_add needs 'name' and 'graph'", count=False
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
            await self._refuse(writer, str(exc))
            return
        # The entry may have replaced a different graph under the same
        # name: results cached against the old graph are now wrong.
        cache = self._cache_for(name, info["epoch"])
        if cache is not None:
            cache.reset(info["epoch"])
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

    async def _fail_subscription(self, sub: _Subscription, error: str) -> None:
        """Drop ``sub`` and send it a terminal error event (best effort:
        its socket may already be gone)."""
        self._bump("subscribers_dropped")
        self._drop_subscription(sub)
        try:
            await self._send(
                sub.writer,
                {"event": "error", "subscription": sub.id, "error": error},
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _rediff(
        self, name, subs, epoch, trace, executor, diff, step: str, **extra
    ) -> int:
        """Bring ``subs`` of entry ``name`` to ``epoch``; returns how
        many took a ``delta`` event and are still alive.

        ``diff(engine, sub)`` runs on ``executor`` and returns the
        ``(added, removed)`` change of the standing set, or ``None``
        for no change (no event); a failing one drops the subscription
        with an error event naming ``step``.  Events are enqueued,
        never sent inline (backpressure policy in
        :meth:`_enqueue_event`).
        """
        if not subs:
            return 0
        loop = asyncio.get_running_loop()
        engine = await loop.run_in_executor(
            executor, self.catalog.engine, name
        )
        pushed = 0
        for sub in subs:
            try:
                change = await loop.run_in_executor(
                    executor, diff, engine, sub
                )
            except Exception as exc:  # noqa: BLE001 - drop, keep serving
                await self._fail_subscription(sub, f"{step} failed: {exc!r}")
                continue
            sub.epoch = epoch
            if change is None:
                continue
            added, removed = change
            sub.matches.difference_update(removed)
            sub.matches.update(added)
            pushed += self._enqueue_event(sub, {
                "event": "delta",
                "subscription": sub.id,
                "data": sub.name,
                "epoch": epoch,
                "trace": trace,
                "added": [list(e) for e in added],
                "removed": [list(e) for e in removed],
                **extra,
            })
        return pushed

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

    async def _op_update(self, request, writer, conn_subs) -> None:
        name = request.get("name")
        payload = request.get("delta")
        if not isinstance(name, str) or payload is None:
            await self._refuse(
                writer, "update needs 'name' and 'delta'", count=False
            )
            return
        # The update event and every subscriber delta it fans out to
        # carry the trace, so a diff can be traced to its cause.
        trace = _Fields(request).trace
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
                await self._refuse(writer, str(exc))
                return

            # Made if the entry has none, so that a search still running
            # on the old epoch finds the new one and cannot store.
            cache = self._cache_for(name, info["epoch"])
            kept, evicted = (0, 0) if cache is None else cache.invalidate_labels(
                summary.touched_labels, info["epoch"]
            )

            def diff(engine, sub: _Subscription):
                change = embedding_diff(
                    engine, sub.query, sub.matches, summary
                )
                return change.added, change.removed

            with self._counters_lock:
                subs = list(self._subs.get(name, {}).values())
            # Push the exact embedding diff to every subscriber.
            notified = await self._rediff(
                name, subs, info.get("epoch"), trace, self._executor, diff,
                "diff",
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

    async def _op_subscribe(
        self, request, writer, conn_subs: List[_Subscription]
    ) -> None:
        name = request.get("data")
        text = request.get("graph")
        if not isinstance(name, str) or not isinstance(text, str):
            await self._refuse(
                writer, "subscribe needs 'data' and 'graph'", count=False
            )
            return
        fields = _Fields(request)
        try:
            tenant = fields.tenant()
            query = loads_graph(text)
        except ValueError as exc:
            await self._refuse(writer, str(exc))
            return
        if self.lifecycle.state in (DRAINING, STOPPED):
            await self._refuse(
                writer, "draining: not admitting new subscriptions",
                count=False, overloaded=True, reason="draining",
                retry_after=round(self.retry_after_hint, 6),
            )
            return
        tstate = self.tenants.resolve(tenant)
        assert self._update_lock is not None
        # Serialized against updates end to end: the baseline must be
        # enumerated on the same epoch the subscription registers under
        # (an update landing in between would make every later diff
        # start from a stale set), and no event line may be pushed
        # before the snapshot frame.
        async with self._update_lock:
            try:
                matches, _ = await self._in_slot(
                    tstate, "normal",
                    lambda: complete_matches(self.catalog.engine(name), query),
                )
            except (CatalogError, ValueError) as exc:
                await self._refuse(writer, str(exc))
                return
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
                "subscribe", trace=fields.trace, data=name,
                subscription=sub_id,
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
                    "trace": fields.trace,
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

    async def _op_reload(self, request, writer, conn_subs) -> None:
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
            await self._refuse_crash(writer, exc)
            return
        except (CatalogError, RuntimeError, OSError) as exc:
            await self._refuse(writer, str(exc))
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

    async def _op_drain(self, request, writer, conn_subs) -> bool:
        """Graceful drain, then stop.  Returns whether we are stopping.

        The reply reports the truth: ``"drained": false`` with the
        number of queries still in flight when the deadline expired
        (the CLI verb exits nonzero on that).
        """
        try:
            timeout = _Fields(request).number(
                "timeout", self.drain_timeout, float, nullable=False
            )
        except ValueError as exc:
            await self._refuse(writer, str(exc), count=False)
            return False
        try:
            drained, active = await self.lifecycle.drain(timeout)
        except InjectedCrash as exc:
            await self._refuse_crash(writer, exc)
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
        self.request_shutdown()
        return True

    async def _op_shutdown(self, request, writer, conn_subs) -> bool:
        await self._send(writer, {"ok": True, "stopping": True})
        self.request_shutdown()
        return True

    async def _refuse_crash(
        self, writer: asyncio.StreamWriter, exc: InjectedCrash
    ) -> None:
        """The reply of a lifecycle op stopped by an injected crash."""
        await self._refuse(
            writer, f"injected crash at {exc}", crashed=True,
            status=self.lifecycle.state,
        )

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

    def _admit(
        self, tstate: TenantState, priority: str
    ) -> Optional[Rejection]:
        """Admission (DESIGN.md §13), cheapest reason first: draining →
        global priority shedding (lowest class first; the
        ``server.admission`` fault hook forces one) → tenant token
        bucket → tenant inflight quota.  ``None`` admits; a rejection
        sheds at once, never queued."""
        if self.lifecycle.state in (DRAINING, STOPPED):
            return Rejection("draining", self.retry_after_hint)
        forced = self.faults.consume("server.admission")
        if (
            self._active >= self._admission_limit(priority)
            or (forced is not None and forced.action == "overload")
        ):
            return Rejection("capacity", self.retry_after_hint)
        return self.tenants.admit(tstate)

    async def _op_query(self, request, writer, conn_subs) -> None:
        """Check fields, admit (:meth:`_admit`), parse, look the query
        up in its entry's cache, and reply to a hit at once; a miss
        takes a fair matching slot and executes.  Every path leaves
        through :meth:`_query_exit`."""
        self._bump("queries")
        fields = _Fields(request)
        trace = fields.trace
        # Causal spans: the client's attempt span (if sent) parents our
        # request span, so one exported tree covers the whole round trip.
        # Without a sink no line is written, so no span is drawn.
        logged = self.obs.enabled and self.obs.log is not None
        client_span = fields.ident("span")
        request_span = new_span_id() if logged else None
        request_t0 = time.monotonic()
        priority = request.get("priority", "normal")
        try:
            if priority not in PRIORITIES:
                raise ValueError(f"priority must be one of {list(PRIORITIES)}")
            tstate = self.tenants.resolve(fields.tenant())
        except ValueError as exc:
            await self._query_exit(
                writer, trace, "error", str(exc), log={"error": str(exc)}
            )
            return
        tenant = tstate.spec.name
        tstate.counters.inc("queries")
        who = {"priority": priority, "tenant": tenant}
        shed = self._admit(tstate, priority)
        if shed is not None:
            reason = shed.reason
            logger.info(
                "shedding %s-priority query from tenant %s "
                "(reason=%s active=%d)",
                priority, tenant, reason, self._active,
            )
            reply = {"ok": False,
                     "error": _SHED_ERRORS[reason].format(tenant=tenant),
                     "overloaded": True, **who, "reason": reason,
                     "trace": trace}
            if shed.retry_after is not None:
                reply["retry_after"] = round(shed.retry_after, 6)
            await self._query_exit(
                writer, trace, "shed", reply, tstate,
                log={**who, "reason": reason, "data": request.get("data"),
                     "active": self._active},
            )
            return
        tstate.counters.inc("admitted")
        self._active += 1
        tstate.inflight += 1
        try:
            try:
                name, query, limits, workers, use_cache, explain = \
                    self._parse_query(fields, tstate.spec.max_workers)
            except ValueError as exc:
                await self._query_exit(
                    writer, trace, "error", str(exc),
                    log={**who, "error": str(exc)},
                )
                return
            started = time.perf_counter()
            queue_t0 = time.monotonic()
            try:
                # A hit is answered here, on the event loop: it is CPU
                # work on stored bytes, so it takes no matching slot.
                # A miss carries its canonical form to the executor.
                # The form is None when the lookup did not run here
                # (the entry has no cache yet, or the query is too
                # costly to canonicalize on the loop): the executor
                # looks up instead.
                result = form = None
                if use_cache and explain is None:
                    cache = self._caches.get(name)
                    if cache is not None:
                        result, form = cache.lookup(
                            query, limits, defer_past=INLINE_CANON_STEPS
                        )
                if result is not None:
                    cache_state, prov, queue_seconds = "hit", {}, 0.0
                else:
                    (result, cache_state, prov), queue_seconds = \
                        await self._in_slot(
                            tstate, priority, self._execute, name, query,
                            limits, workers, use_cache, explain, trace,
                            tenant, request_span, form,
                        )
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                # A catalog error (an unknown entry, say) is the client's
                # to fix; anything else is ours.
                known = isinstance(exc, CatalogError)
                await self._query_exit(
                    writer, trace, "error",
                    str(exc) if known else f"internal error: {exc!r}",
                    log={**who, "data": name,
                         "error": str(exc) if known else repr(exc)},
                )
                return
            server_seconds = time.perf_counter() - started
            header = {
                "ok": True,
                "num_embeddings": result.num_embeddings,
                "status": result.status.value,
                "cache": cache_state,
                "recursions": result.stats.recursions,
                "elapsed": round(result.total_seconds, 6),
                "server_seconds": round(server_seconds, 6),
                "queue_seconds": round(queue_seconds, 6),
                "trace": trace,
            }
            if "explain" in prov:
                header["explain"] = prov["explain"]
            # The request's one record is built only when a sink will
            # write it; the counters and histograms below see every query.
            # Its timings are the header's where the two share one, and
            # otherwise unrounded: the record is on the hot path.
            record = {}
            if logged:
                # A hit capped at the cached entry's known count is a
                # *truncated* hit: correct, but a prefix.
                detail = cache_state
                if detail == "hit" and \
                        result.status is TerminationStatus.EMBEDDING_LIMIT:
                    detail = "truncated-hit"
                record = {
                    "priority": priority, "tenant": tenant, "data": name,
                    "epoch": prov.get("epoch"),
                    "cache": detail,
                    "engine_source": prov.get("engine_source"),
                    "workers": prov.get("workers"),
                    "num_embeddings": header["num_embeddings"],
                    "status": header["status"],
                    "queue_seconds": header["queue_seconds"],
                    "build_seconds": result.preprocessing_seconds,
                    "search_seconds": result.elapsed_seconds,
                    "server_seconds": header["server_seconds"],
                    "span": request_span, "parent": client_span,
                    "t0": request_t0, "queue_t0": queue_t0,
                }
                if explain:
                    record["explain"] = explain
            stream_seconds = await self._query_exit(
                writer, trace, "served", header, tstate, result, log=record
            )
            if self.obs.enabled:
                hist = self._phase_hist
                hist["queue"].observe(queue_seconds)
                hist["build"].observe(result.preprocessing_seconds)
                hist["search"].observe(result.elapsed_seconds)
                hist["stream"].observe(stream_seconds)
                self._request_hist.observe(server_seconds + stream_seconds)
        finally:
            self._active -= 1
            tstate.inflight -= 1

    async def _in_slot(self, tstate: TenantState, priority: str, work, *args):
        """Run blocking ``work(*args)`` on the matching executor while
        holding a matching slot; returns ``(result, queue_seconds)``.
        Slots are granted in weighted deficit-round-robin order across
        tenants, priority-ordered within one, and held only for the CPU
        work: streaming a reply to a slow client must not block
        admission."""
        assert self._slots is not None
        started = time.perf_counter()
        await self._slots.acquire(
            tstate.spec.name, weight=tstate.spec.weight,
            rank=PRIORITY_RANKS[priority],
        )
        try:
            queue_seconds = time.perf_counter() - started
            result = await asyncio.get_running_loop().run_in_executor(
                self._executor, work, *args
            )
        finally:
            self._slots.release()
        return result, queue_seconds

    async def _query_exit(
        self,
        writer: asyncio.StreamWriter,
        trace: str,
        outcome: str,
        reply,
        tstate: Optional[TenantState] = None,
        result: Optional[MatchResult] = None,
        *,
        log: Dict,
    ) -> float:
        """The one exit of every counted query.

        Sends ``reply`` (a header, or the text of an error reply), with
        ``result``'s embeddings framed behind it; then counts
        ``outcome`` (``served``/``shed``/``error``) on the server, and
        a served or shed one on ``tstate``, and writes the ``query`` log
        line, whose fields are ``log``: that dict is completed in place
        and written as it is, never copied.  A served line is the request's
        one record, which a caller passes only when there is a sink:
        given the request span (``span``, ``parent``, ``t0``) and
        ``queue_t0``, it gains ``stream_seconds``, ``stream_t0`` and the
        request's ``dur`` here, and
        :func:`repro.obs.spans.served_spans` derives the server's phase
        spans from it.  A reply that cannot be written counts as an
        error and re-raises.  Returns the seconds spent framing and
        writing.
        """
        if isinstance(reply, str):
            reply = {"ok": False, "error": reply, "trace": trace}
        started = time.monotonic()
        body = b""
        if result is not None:
            arity, body = encode_embeddings(result.embeddings)
            # Packing the frame is reported apart from server_seconds.
            reply["encode_seconds"] = round(time.monotonic() - started, 6)
            reply["arity"], reply["bytes"] = arity, len(body)
        try:
            await self._send(writer, reply, body)
        except BaseException as exc:
            outcome, log["error"] = "error", f"reply write failed: {exc!r}"
            raise
        finally:
            seconds = time.monotonic() - started
            if outcome == "served":
                self._bump("served")
                tstate.counters.inc("served")
                if "t0" in log:  # the record of a caller with a sink
                    log["stream_seconds"] = seconds
                    log["stream_t0"] = started
                    log["dur"] = started + seconds - log["t0"]
            elif outcome == "shed":
                self._bump("rejected")
                self._bump(f"shed_{log['priority']}")
                tstate.counters.inc(f"shed_{log['reason']}")
            else:
                self._bump("errors")
            if trace:
                log["trace"] = trace
            log["outcome"] = outcome
            self.obs.write(QUERY_EVENT, log)
        return seconds

    def _parse_query(
        self, fields: _Fields, max_workers: Optional[int]
    ) -> Tuple:
        request = fields.request
        name = request.get("data")
        if not isinstance(name, str):
            raise ValueError("query request needs a 'data' catalog name")
        text = request.get("graph")
        if not isinstance(text, str):
            raise ValueError("query request needs 'graph' (.graph text)")
        query = loads_graph(text)  # GraphFormatError is a ValueError
        limits = SearchLimits(
            max_embeddings=fields.number("limit", None, int),
            time_limit=fields.number(
                "time_limit", self.default_time_limit, float
            ),
            collect=not bool(request.get("count_only", False)),
            max_recursions=fields.number(
                "recursion_limit", self.default_recursion_limit, int
            ),
        )
        # The per-tenant clamp keeps one tenant from monopolizing
        # procpool worker processes as well as matching slots.
        workers = min(
            fields.number("workers", 1, int) or 1,
            MAX_REQUEST_WORKERS,
            max_workers or MAX_REQUEST_WORKERS,
        )
        use_cache = bool(request.get("cache", True))
        # explain: null (off), "plan" (report without searching), or
        # "analyze" (run the real search, attribute the work exactly).
        explain = request.get("explain")
        if explain is not None and explain not in ("plan", "analyze"):
            raise ValueError("'explain' must be null, 'plan', or 'analyze'")
        return name, query, limits, workers, use_cache, explain

    def _cache_for(self, name: str, epoch: int) -> Optional[QueryCache]:
        """``name``'s cache, made at ``epoch`` if it has none and the
        catalog still holds ``name`` at ``epoch``; else ``None``.  A
        removing reload drops the cache under this same lock after the
        catalog forgot the entry, so a request that resolved its engine
        before that reload cannot make the cache again.  (``holds``
        takes no lock: no wait on a cold load holding the catalog's.)"""
        with self._counters_lock:
            cache = self._caches.get(name)
            if cache is None and self.catalog.holds(name, epoch):
                cache = QueryCache(
                    max_entries=self.cache_entries,
                    cap_serving=not self.catalog.config.break_symmetry,
                    epoch=epoch,
                )
                self._caches[name] = cache
                # Live attachment: this cache's counters become the
                # ``repro_qcache_*_total{data=...}`` metric families.
                self.obs.registry.attach_group(
                    "repro_qcache", cache.counters, labels={"data": name},
                    help_text="QueryCache counters (per catalog entry)",
                )
            return cache

    def _drop_cache(self, name: str) -> None:
        """Forget ``name``'s cache and its ``repro_qcache`` metrics."""
        with self._counters_lock:
            cache = self._caches.pop(name, None)
            if cache is not None:
                self.obs.registry.detach_group(cache.counters)
                self._gauges["qcache_entries"].remove(data=name)

    def _execute(
        self,
        name: str,
        query: Graph,
        limits: SearchLimits,
        workers: int,
        use_cache: bool,
        explain: Optional[str] = None,
        trace: Optional[str] = None,
        tenant: Optional[str] = None,
        parent_span: Optional[str] = None,
        form: Optional[CanonicalForm] = None,
    ) -> Tuple[MatchResult, str, Dict]:
        """Blocking query execution (runs on the executor threads).

        Returns ``(result, cache_state, provenance)`` where provenance
        carries the request-log detail: engine source
        (resident/load) + epoch, effective workers, and the
        EXPLAIN/ANALYZE report when ``explain`` is set.  The trace id
        and structured log are bound thread-locally for the duration,
        so the procpool (and its fault hooks) log under this request's
        trace across the process boundary; ``parent_span`` (the request
        span) parents the engine's build/search spans the same way.

        The entry's cache is fetched once ``engine_ex`` has proved the
        entry exists (it is made then if there is none, unless a reload
        removed the entry in between: then nothing is stored) and
        before the search, whose result is stored there at the epoch
        the engine ran at.  A reload or update meanwhile either moves
        that cache's epoch, so the store is refused, or drops the
        cache, so the store lands in an object no later query reads.
        ``form`` is
        the query's canonical form when the event loop looked it up
        and missed; without it the lookup happens here, and may hit.

        EXPLAIN (``"plan"``) builds and reports, never searches; its
        qcache slot is :meth:`~repro.service.qcache.QueryCache.peek`'s
        decision.  ANALYZE attributes real engine work, which a cache
        hit has none of, so it bypasses the cache (and never stores,
        keeping the cache byte-identical to a no-analyze run).
        """
        prov: Dict[str, object] = {}
        log = self.obs.log if self.obs.enabled else None
        fields = {"tenant": tenant} if tenant is not None else None
        with trace_context(trace, log, fields), span_scope(parent_span):
            engine, source, epoch = self.catalog.engine_ex(name)
            prov["engine_source"] = source
            prov["epoch"] = epoch
            cache = self._cache_for(name, epoch) if use_cache else None
            if cache is not None and explain is None and form is None:
                cached, form = cache.lookup(query, limits)
                if cached is not None:
                    return cached, "hit", prov
            prov["workers"] = 0 if explain == "plan" else workers
            if explain != "plan" and workers > 1:
                self._bump("procpool_dispatches")
            if explain == "plan":
                report, _ = engine.explain(query, mode="plan")
                report["qcache"] = (
                    cache.peek(query, limits)
                    if cache is not None
                    else {"decision": "bypass", "reason": "cache_disabled"}
                )
                result = MatchResult(
                    embeddings=[],
                    num_embeddings=0,
                    status=TerminationStatus.COMPLETE,
                    elapsed_seconds=0.0,
                    stats=SearchStats(),
                    preprocessing_seconds=report["build_seconds"],
                    method="GuP",
                )
            elif explain == "analyze":
                report, result = engine.explain(
                    query, mode="analyze", limits=limits, workers=workers
                )
                report["qcache"] = {"decision": "bypass", "reason": "analyze"}
            else:
                result = engine.match(query, limits=limits, workers=workers)
                if form is not None and cache is not None:
                    # Packed once: the reply and the cache entry share
                    # this frame.
                    result.embeddings = FrameRows.pack(result.embeddings)
                    cache.store(form, limits, result, epoch)
                    return result, "miss", prov
            if explain is not None:
                prov["explain"] = report
            self._bump("cache_bypass")
            return result, "bypass", prov

    def _bump(self, key: str) -> None:
        self.counters.inc(key)

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


# Ops answered from in-memory state with one line, and ops with a
# handler ``(server, request, writer, conn_subs)`` whose true return
# ends the connection.
_STATE_OPS = {
    "ping": lambda server: {"ok": True, "pong": True},
    "healthz": MatchingServer._healthz_payload,
    "stats": MatchingServer._stats_payload,
    "metrics": lambda server: {"ok": True, "metrics": server.metrics_text()},
    "catalog_list": lambda server: {"ok": True, "entries": [
        server.catalog.info(name) for name in server.catalog.names()
    ]},
}
_OPS = {
    op: getattr(MatchingServer, f"_op_{op}")
    for op in ("catalog_add", "query", "update", "subscribe", "reload",
               "drain", "shutdown")
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
