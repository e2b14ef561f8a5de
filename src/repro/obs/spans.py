"""Hierarchical timed spans over the structured log (causal tracing).

PR 8's trace ids answer *which* log lines belong to one request; spans
answer *where the time went inside it*.  A span is (id, parent id,
name, monotonic start, duration, attrs), carried on a thread-local
stack next to :mod:`repro.obs.log`'s trace context and emitted as one
ordinary structured-log line (``event="span"``) when the span closes —
so spans ride the existing transport for free: the same ``O_APPEND``
JSON-lines file, the same pickle-once procpool initializer, the same
trace stamping.  When no log is bound to the thread a span costs two
``time.monotonic()`` calls and nothing else.

Timestamps are ``time.monotonic()``: on Linux that is CLOCK_MONOTONIC,
which is system-wide, so spans emitted by the server process and by
procpool worker *processes* share one clock and nest correctly in the
exported timeline.  Cross-process parenting works like trace ids do:
:func:`repro.core.procpool.run_partitioned` captures
:func:`current_span` (the engine's search span) into the worker
initializer context and each worker seeds its stack with
:func:`set_base_span`, so per-root-partition task spans are children
of the search phase span that dispatched them.

The server emits no span lines of its own: its ``server.request`` /
``server.queue`` / ``server.stream`` spans are derived from its one
``query`` line per request (:func:`served_spans`), so a served request
writes one record plus whatever engine and worker spans it opened.

Reconstruction: :func:`spans_for_trace` collects one trace's spans
from a log, :func:`build_chrome_trace` converts them to the
Chrome trace-event JSON that ``chrome://tracing`` and Perfetto open
directly, and :func:`validate_span_tree` checks the causal tree (every
parent resolves, one root per trace) — the CI smoke runs all three
against a live served query.

Not to be confused with :class:`repro.analysis.trace.TraceRecorder`,
which records the *Algorithm-2 search event stream* (descend / conflict
/ embedding) of one in-process run; obs trace ids and spans describe
the serving stack around the search, not the search tree itself.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.log import current_log

_local = threading.local()

SPAN_EVENT = "span"
"""The structured-log event name every closed span is emitted under."""

QUERY_EVENT = "query"
"""The event name of the server's one line per query request."""


def new_span_id() -> str:
    """A fresh 8-hex-char span id (unique within a trace)."""
    return os.urandom(4).hex()


def _stack() -> List[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_span() -> Optional[str]:
    """The innermost open span id on this thread (None outside spans)."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def set_base_span(span_id: Optional[str]) -> None:
    """Seed this thread's span stack with an externally-created parent.

    Worker-lifetime analogue of :func:`repro.obs.log.set_trace_context`:
    the procpool initializer calls it once per worker process so every
    task span the worker opens parents to the dispatching search span.
    """
    _local.stack = [span_id] if span_id else []


class span_scope:
    """Install ``parent`` as the span stack for a ``with`` block.

    Executor threads are reused across requests, so a request handler
    must not leave its span stack behind; this saves and restores the
    whole stack (unlike :func:`set_base_span`, which is deliberately
    sticky for worker processes).
    """

    __slots__ = ("parent", "_prev")

    def __init__(self, parent: Optional[str]) -> None:
        self.parent = parent
        self._prev: Optional[List[str]] = None

    def __enter__(self) -> "span_scope":
        self._prev = getattr(_local, "stack", None)
        _local.stack = [self.parent] if self.parent else []
        return self

    def __exit__(self, *exc) -> None:
        _local.stack = self._prev


class span:
    """Context manager timing one named phase as a child of the current span.

    Only when a structured log is bound to the thread
    (:func:`repro.obs.log.current_log`) does it take an id and a parent
    at ``__enter__`` and emit one ``event="span"`` line at ``__exit__``,
    stamped with the bound trace id like every other line; otherwise it
    reads the clock twice and nothing else.  Attrs must be JSON-friendly.
    """

    __slots__ = ("name", "attrs", "id", "parent", "t0")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.id: Optional[str] = None
        self.parent: Optional[str] = None
        self.t0 = 0.0

    def __enter__(self) -> "span":
        if current_log() is not None:
            stack = _stack()
            self.parent = stack[-1] if stack else None
            self.id = new_span_id()
            stack.append(self.id)
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.monotonic() - self.t0
        if self.id is None:
            return
        stack = getattr(_local, "stack", None)
        if stack and stack[-1] == self.id:
            stack.pop()
        log = current_log()
        if log is not None:
            log.emit(
                SPAN_EVENT, name=self.name, span=self.id, parent=self.parent,
                t0=round(self.t0, 6), dur=round(dur, 6), **self.attrs,
            )


# ----------------------------------------------------------------------
# Reconstruction: log records -> causal tree -> Chrome trace JSON
# ----------------------------------------------------------------------


def spans_for_trace(
    records: Sequence[Dict[str, Any]], trace: str
) -> List[Dict[str, Any]]:
    """One trace's spans, sorted by start time: its ``event="span"``
    records plus the phase spans derived from its served ``query``
    records (:func:`served_spans`)."""
    spans: List[Dict[str, Any]] = []
    for record in records:
        if record.get("trace") != trace:
            continue
        if record.get("event") == SPAN_EVENT:
            spans.append(record)
        elif (
            record.get("event") == QUERY_EVENT
            and record.get("outcome") == "served"
            and record.get("span")
        ):
            spans.extend(served_spans(record))
    spans.sort(key=lambda r: (r.get("t0", 0.0), r.get("span", "")))
    return spans


def served_spans(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The server's three phase spans of one served ``query`` record.

    The record is the request's one canonical line: its ``span`` /
    ``parent`` / ``t0`` / ``dur`` are the request span's (the parent is
    the client's attempt span), and ``queue_t0`` / ``queue_seconds`` and
    ``stream_t0`` / ``stream_seconds`` time the admission queue and the
    reply write inside it.  The queue and stream spans take the request
    span id with a ``.queue`` / ``.stream`` suffix: nothing parents to
    them, so they only need to be unique in the trace.
    """
    request = record["span"]
    common = {
        "ts": record.get("ts"), "event": SPAN_EVENT,
        "trace": record.get("trace"), "pid": record.get("pid"),
    }
    return [
        {**common, "name": "server.request", "span": request,
         "parent": record.get("parent"), "t0": record["t0"],
         "dur": record["dur"], "tenant": record.get("tenant"),
         "data": record.get("data")},
        {**common, "name": "server.queue", "span": request + ".queue",
         "parent": request, "t0": record["queue_t0"],
         "dur": record["queue_seconds"]},
        {**common, "name": "server.stream", "span": request + ".stream",
         "parent": request, "t0": record["stream_t0"],
         "dur": record["stream_seconds"]},
    ]


def build_chrome_trace(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Spans -> Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    Each span becomes one complete ("X") event; ``ts``/``dur`` are the
    shared monotonic clock in microseconds, ``pid``/``tid`` come from
    the emitting process so worker rows separate visually, and the span
    / parent ids ride in ``args`` for programmatic consumers.
    """
    events = []
    for record in spans:
        events.append({
            "name": record.get("name", "?"),
            "ph": "X",
            "ts": round(record.get("t0", 0.0) * 1e6, 1),
            "dur": round(record.get("dur", 0.0) * 1e6, 1),
            "pid": record.get("pid", 0),
            "tid": record.get("pid", 0),
            "cat": "repro",
            "args": {
                key: value
                for key, value in record.items()
                if key not in ("event", "name", "t0", "dur", "ts")
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_span_tree(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """Structural checks on one trace's spans; returns problem strings.

    Valid means: at least one span, unique span ids, every non-null
    parent resolves to another span in the set, and exactly one root —
    client attempt through procpool worker tasks form a single causal
    tree under the trace id.
    """
    problems: List[str] = []
    if not spans:
        return ["no spans"]
    ids = [r.get("span") for r in spans]
    if None in ids or "" in ids:
        problems.append("span record without a span id")
    if len(set(ids)) != len(ids):
        problems.append("duplicate span ids")
    known = set(ids)
    roots = []
    for record in spans:
        parent = record.get("parent")
        if parent is None:
            roots.append(record)
        elif parent not in known:
            problems.append(
                f"span {record.get('span')} ({record.get('name')}) has "
                f"unresolved parent {parent}"
            )
    if len(roots) != 1:
        names = [r.get("name") for r in roots]
        problems.append(f"expected exactly one root span, got {names}")
    return problems


def children_of(
    spans: Sequence[Dict[str, Any]], span_id: Optional[str]
) -> List[Dict[str, Any]]:
    """Direct children of ``span_id`` (tests and validators)."""
    return [r for r in spans if r.get("parent") == span_id]
