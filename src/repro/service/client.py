"""Blocking JSON-lines client for the matching server.

Small by design: one socket, synchronous requests, used by the
``repro query`` CLI command, the tests, and the throughput benchmark.
For the wire protocol see :mod:`repro.service.server`.

Resilience (DESIGN.md §10)
--------------------------
Pass a :class:`RetryPolicy` to make the **idempotent** operations
(``ping``/``healthz``/``stats``/``catalog_list``/``query``/
``subscribe``) survive transient failures: a dropped or refused
connection (:class:`ServiceUnavailable`) triggers a reconnect, a shed
request (:class:`ServiceOverloaded`) a plain re-send, both after an
exponential backoff with jitter.  When the rejection carried a server
``retry_after`` hint (tenant rate limits, quotas, capacity, draining)
the hint replaces the exponential schedule for that attempt — jittered
and still capped by the ``deadline=`` budget.  Mutating operations
(``catalog_add``, ``update``, ``drain``, ``shutdown``) are never
retried — the caller must decide whether re-applying is safe.

``query(..., deadline=...)`` propagates a wall-clock budget end to end:
the remaining budget is re-computed per attempt and sent as the
server-side ``time_limit`` (which becomes a ``SearchLimits`` bound), so
a retried query can never overrun the caller's deadline by stacking
full-length attempts.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.graph.graph import Graph
from repro.graph.io import saves_graph
from repro.obs.log import StructuredLog, new_trace_id, trace_context
from repro.obs.spans import span
from repro.service.server import DEFAULT_PORT
from repro.service.wire import decode_embeddings

T = TypeVar("T")


class ServiceError(Exception):
    """The server reported an error or the connection broke."""


class ServiceUnavailable(ServiceError):
    """Transport-level failure: connection refused, reset, or closed.

    Retryable — the request may never have reached the server, and for
    idempotent operations re-sending is always safe.
    """


class ServiceOverloaded(ServiceError):
    """The server shed this request (``overloaded: true`` in the reply).

    Retryable after backoff — by design the server rejects instantly
    instead of queueing, so the client owns the waiting.  When the
    rejection carried a ``retry_after`` hint (capacity sheds, tenant
    rate limits and quotas, draining), it is preserved here and
    :class:`RetryPolicy` waits exactly that long (plus jitter) instead
    of a blind exponential guess; ``reason`` preserves the server's
    shed reason (``capacity``/``rate``/``quota``/``draining``).
    """

    def __init__(
        self,
        message: str,
        retry_after: Optional[float] = None,
        reason: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter for idempotent operations.

    Attempt ``i`` (0-based) failing sleeps
    ``min(base_delay * multiplier**i, max_delay)`` scaled by a random
    factor in ``[1, 1 + jitter]``; after ``attempts`` total attempts the
    last error propagates.  ``sleep`` and ``rng`` are injectable so
    tests can record the exact schedule instead of actually waiting.
    """

    attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=random.Random)

    def backoff(self, attempt: int) -> float:
        delay = min(
            self.base_delay * self.multiplier ** attempt, self.max_delay
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * self.rng.random()
        return delay

    def delay_for(
        self, attempt: int, retry_after: Optional[float] = None
    ) -> float:
        """The wait before the next attempt.

        With a server ``retry_after`` hint, wait exactly that long
        (jittered, capped by ``max_delay``) — the server knows when a
        token or slot frees, so guessing exponentially would either
        hammer it early or waste the tail.  Without a hint, fall back
        to :meth:`backoff`.
        """
        if retry_after is None:
            return self.backoff(attempt)
        delay = min(max(0.0, retry_after), self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * self.rng.random()
        return delay


@dataclass
class QueryReply:
    """One served query: counts, status, cache disposition, embeddings.

    ``queue_seconds`` (admission-queue wait) is reported separately from
    ``server_seconds`` (total server-side handling), which excludes
    ``encode_seconds`` (packing the embedding frame); ``trace`` is the
    request's trace id — the one its structured log lines share across
    client, server, and pool workers; ``explain`` is the
    EXPLAIN/ANALYZE report when the query ran with ``explain=``.
    """

    num_embeddings: int
    status: str
    cache: str
    elapsed: float
    recursions: int
    embeddings: List[Tuple[int, ...]] = field(default_factory=list)
    queue_seconds: float = 0.0
    server_seconds: float = 0.0
    encode_seconds: float = 0.0
    trace: Optional[str] = None
    explain: Optional[Dict] = None


@dataclass
class SubscribeReply:
    """An accepted subscription: id, epoch, and the current matches."""

    subscription: int
    num_embeddings: int
    epoch: Optional[int]
    embeddings: List[Tuple[int, ...]] = field(default_factory=list)


@dataclass
class UpdateReply:
    """One applied delta: new entry info plus invalidation accounting."""

    entry: Dict
    summary: Dict
    qcache_kept: int
    qcache_evicted: int
    subscribers_notified: int

    @property
    def epoch(self) -> Optional[int]:
        return self.entry.get("epoch")


class ServiceClient:
    """Synchronous client; usable as a context manager."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        log: Optional[StructuredLog] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retry = retry
        self.log = log
        # Stamped on every query/subscribe so the server applies this
        # tenant's admission class; None = the server's default tenant.
        self.tenant = tenant
        self.counters = {"retries": 0, "reconnects": 0}
        self._connect()

    def _emit(self, event: str, **fields) -> None:
        if self.log is not None:
            self.log.emit(event, **fields)

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except OSError as exc:
            raise ServiceUnavailable(f"cannot connect: {exc}") from exc
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------

    def _send(self, payload: Dict) -> None:
        try:
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
        except OSError as exc:
            raise ServiceUnavailable(f"connection broke: {exc}") from exc

    def _recv(self) -> Dict:
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ServiceUnavailable(f"connection broke: {exc}") from exc
        if not line:
            raise ServiceUnavailable("connection closed by server")
        try:
            reply = json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"malformed server reply: {exc}")
        if not isinstance(reply, dict):
            raise ServiceError("malformed server reply: not an object")
        return reply

    def request(self, payload: Dict) -> Dict:
        """One request → one reply line (raises on ``ok: false``)."""
        self._send(payload)
        reply = self._recv()
        if not reply.get("ok", False):
            message = reply.get("error", "unknown server error")
            if reply.get("overloaded"):
                hint = reply.get("retry_after")
                if (
                    isinstance(hint, bool)
                    or not isinstance(hint, (int, float))
                    or hint < 0
                ):
                    hint = None
                raise ServiceOverloaded(
                    message,
                    retry_after=float(hint) if hint is not None else None,
                    reason=reply.get("reason"),
                )
            raise ServiceError(message)
        return reply

    def _read_embeddings(self, header: Dict) -> List[Tuple[int, ...]]:
        """Read and decode the frame body announced by ``header``."""
        size = int(header.get("bytes", 0))
        try:
            body = self._file.read(size) if size else b""
        except OSError as exc:
            raise ServiceUnavailable(f"connection broke: {exc}") from exc
        if len(body) != size:
            # The stream is torn mid-frame: the socket is unusable.
            self.close()
            raise ServiceUnavailable(
                f"connection closed after {len(body)} of {size} reply bytes"
            )
        try:
            return decode_embeddings(body, int(header.get("arity", 0)))
        except ValueError as exc:
            raise ServiceError(f"malformed server reply: {exc}") from exc

    def _with_retry(
        self,
        op: Callable[[], T],
        deadline_at: Optional[float] = None,
    ) -> T:
        """Run an **idempotent** operation under the retry policy.

        Transport failures reconnect before the next attempt (the old
        socket may hold half a streamed reply); overload rejections
        re-send on the live connection.  A retry never starts past
        ``deadline_at`` (monotonic) — the current error propagates.
        """
        attempt = 0
        while True:
            try:
                if self._file.closed:
                    self.counters["reconnects"] += 1
                    self._connect()
                return op()
            except (ServiceUnavailable, ServiceOverloaded) as exc:
                retry = self.retry
                if retry is None or attempt >= retry.attempts - 1:
                    raise
                delay = retry.delay_for(
                    attempt, getattr(exc, "retry_after", None)
                )
                if (
                    deadline_at is not None
                    and time.monotonic() + delay >= deadline_at
                ):
                    raise
                if isinstance(exc, ServiceUnavailable):
                    # The dead socket may hold half a streamed reply;
                    # drop it and reconnect at the top of the loop.
                    self.close()
                self.counters["retries"] += 1
                retry.sleep(delay)
                attempt += 1

    # -- operations ----------------------------------------------------

    def ping(self) -> bool:
        return bool(
            self._with_retry(lambda: self.request({"op": "ping"})).get("pong")
        )

    def healthz(self) -> Dict:
        """The server's cheap health probe (status, load, epochs, pool)."""
        return self._with_retry(lambda: self.request({"op": "healthz"}))

    def stats(self) -> Dict:
        return self._with_retry(lambda: self.request({"op": "stats"}))

    def metrics(self) -> str:
        """The server's Prometheus text exposition (``metrics`` op)."""
        return str(
            self._with_retry(lambda: self.request({"op": "metrics"}))[
                "metrics"
            ]
        )

    def catalog_list(self) -> List[Dict]:
        return list(
            self._with_retry(
                lambda: self.request({"op": "catalog_list"})
            )["entries"]
        )

    def catalog_add(
        self, name: str, graph: Union[Graph, str], overwrite: bool = False
    ) -> Dict:
        text = saves_graph(graph) if isinstance(graph, Graph) else str(graph)
        reply = self.request(
            {"op": "catalog_add", "name": name, "graph": text,
             "overwrite": overwrite}
        )
        return reply["entry"]

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})

    def reload(self) -> Dict:
        """Zero-downtime catalog reload (``reload`` op).

        Returns the server reply: ``report`` (per-entry action map),
        ``replayed`` (subscription diffs emitted), ``status``.
        Idempotent — a reload that finds nothing changed is a no-op —
        so it retries under the policy like the other reads.
        """
        return self._with_retry(lambda: self.request({"op": "reload"}))

    def drain(self, timeout: Optional[float] = None) -> Dict:
        """Gracefully drain and stop the server (``drain`` op).

        Returns the reply: ``drained`` (whether in-flight work finished
        before the deadline) and ``active`` (queries still running when
        it expired).  A state change, so — like ``shutdown`` — it is
        never retried.
        """
        payload: Dict = {"op": "drain"}
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request(payload)

    def update(self, name: str, delta) -> UpdateReply:
        """Apply a delta to the catalog entry ``name`` on the server.

        ``delta`` is a :class:`repro.dynamic.delta.GraphDelta` or an
        already-encoded payload dict.
        """
        from repro.dynamic.delta import GraphDelta, delta_to_payload

        payload = (
            delta_to_payload(delta) if isinstance(delta, GraphDelta)
            else dict(delta)
        )
        reply = self.request({"op": "update", "name": name, "delta": payload})
        return UpdateReply(
            entry=dict(reply.get("entry", {})),
            summary=dict(reply.get("summary", {})),
            qcache_kept=int(reply.get("qcache_kept", 0)),
            qcache_evicted=int(reply.get("qcache_evicted", 0)),
            subscribers_notified=int(reply.get("subscribers_notified", 0)),
        )

    def subscribe(self, graph: Union[Graph, str], data: str) -> SubscribeReply:
        """Register a standing query on catalog entry ``data``.

        Returns the current (complete) embedding set; afterwards every
        server-side ``update`` of that graph pushes one event line per
        subscription, read with :meth:`next_event`.  Use a dedicated
        client/connection for subscriptions — events interleave with any
        reply stream on the same socket.
        """
        text = saves_graph(graph) if isinstance(graph, Graph) else str(graph)

        def attempt() -> SubscribeReply:
            # Idempotent re-attach: each attempt registers a *fresh*
            # subscription and snapshots the current epoch, so a retry
            # after a torn stream never resumes a stale one.
            sub_payload: Dict = {"op": "subscribe", "data": data, "graph": text}
            if self.tenant is not None:
                sub_payload["tenant"] = self.tenant
            header = self.request(sub_payload)
            embeddings = self._read_embeddings(header)
            epoch = header.get("epoch")
            return SubscribeReply(
                subscription=int(header["subscription"]),
                num_embeddings=int(header["num_embeddings"]),
                epoch=int(epoch) if epoch is not None else None,
                embeddings=embeddings,
            )

        return self._with_retry(attempt)

    def next_event(self, timeout: Optional[float] = None) -> Dict:
        """Block until the server pushes the next event line.

        ``timeout`` temporarily overrides the socket timeout.  The
        returned dict carries ``event`` (``"delta"`` or ``"error"``)
        plus the event payload; embedding lists are tuple-ized.
        """
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            event = self._recv()
        finally:
            if timeout is not None:
                self._sock.settimeout(previous)
        if "event" not in event:
            raise ServiceError(f"expected an event line, got {event!r}")
        for key in ("added", "removed"):
            if key in event:
                event[key] = [tuple(e) for e in event[key]]
        return event

    def query(
        self,
        graph: Union[Graph, str],
        data: str,
        limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        recursion_limit: Optional[int] = None,
        workers: int = 1,
        count_only: bool = False,
        cache: bool = True,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
        explain: Optional[str] = None,
    ) -> QueryReply:
        """Match ``graph`` (a :class:`Graph` or ``.graph`` text) against
        the catalog entry ``data``; decodes the reply's embedding frame.

        ``priority`` (``"high"``/``"normal"``/``"low"``) selects the
        server's load-shedding class.  ``deadline`` is a wall-clock
        budget in seconds for the *whole call including retries*: every
        attempt sends the remaining budget as the server-side
        ``time_limit`` (tightened against an explicit ``time_limit``),
        and no retry starts once the budget is spent.  ``explain``
        (``"plan"`` or ``"analyze"``) attaches the server's
        EXPLAIN/ANALYZE report — ``"plan"`` replies with zero embeddings
        (the plan only), ``"analyze"`` runs the real search
        cache-bypassed.

        One trace id is generated per *call* and sent with every
        attempt, so a retried query's client attempts, server handling,
        and pool worker executions all log under the same id.  Each
        attempt additionally opens a ``client.attempt`` span and sends
        its id, which the server's request span adopts as parent — the
        exported span tree covers the full round trip.
        """
        text = saves_graph(graph) if isinstance(graph, Graph) else str(graph)
        trace = new_trace_id()
        payload: Dict = {
            "op": "query", "data": data, "graph": text, "trace": trace,
        }
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if explain is not None:
            payload["explain"] = explain
        if limit is not None:
            payload["limit"] = limit
        if recursion_limit is not None:
            payload["recursion_limit"] = recursion_limit
        if workers != 1:
            payload["workers"] = workers
        if count_only:
            payload["count_only"] = True
        if not cache:
            payload["cache"] = False
        if priority is not None:
            payload["priority"] = priority
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )

        attempts = [0]

        def attempt() -> QueryReply:
            attempts[0] += 1
            self._emit(
                "client.attempt", trace=trace, attempt=attempts[0], data=data
            )
            budget = time_limit
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    raise ServiceError("deadline exceeded before send")
                budget = (
                    remaining if budget is None else min(budget, remaining)
                )
            if budget is not None:
                payload["time_limit"] = budget
            # The attempt span brackets send → decoded reply body; its
            # id travels in the payload so the server parents under it —
            # but only when this client has a log to emit the span to:
            # advertising a parent that is never written would leave the
            # server-side tree rootless with an unresolved parent.
            with trace_context(trace, self.log), \
                    span("client.attempt", attempt=attempts[0]) as att:
                if self.log is not None:
                    payload["span"] = att.id
                header = self.request(payload)
                embeddings = self._read_embeddings(header)
            return QueryReply(
                num_embeddings=int(header["num_embeddings"]),
                status=str(header["status"]),
                cache=str(header.get("cache", "")),
                elapsed=float(header.get("elapsed", 0.0)),
                recursions=int(header.get("recursions", 0)),
                embeddings=embeddings,
                queue_seconds=float(header.get("queue_seconds", 0.0)),
                server_seconds=float(header.get("server_seconds", 0.0)),
                encode_seconds=float(header.get("encode_seconds", 0.0)),
                trace=header.get("trace", trace),
                explain=header.get("explain"),
            )

        return self._with_retry(attempt, deadline_at=deadline_at)
