"""Structured JSON request logs + trace-id propagation.

One request = one trace id: the client stamps a trace id on each
attempt, the server writes one ``query`` line for the request under the
same id (its canonical record: outcome, provenance and phase timings,
from which :mod:`repro.obs.spans` derives the server's phase spans),
and the procpool ships the id to worker processes through the
pickle-once initializer so even a worker that a fault plan kills
mid-task has already written its line.  A crash-recovery sequence is
reconstructable from the log alone by grepping one trace id.  A sink is
opt-in: :class:`repro.obs.Observability` has none by default, and
``repro serve`` opens one only for ``--request-log``.

:class:`StructuredLog` writes one JSON object per line.  When backed by
a path it opens the file in append mode and emits each record as a
single ``write()`` of one ``\\n``-terminated string — on POSIX an
``O_APPEND`` write of that size is atomic, so server threads and pool
worker *processes* can share one file without interleaving.  Path-backed
logs pickle (the path travels; the handle is reopened), which is what
lets the pool initializer carry the log across the process boundary.

Trace context is thread-local: the server wraps the execution of a
request in :func:`trace_context` and everything below it — engine,
procpool dispatch, fault hooks — reads :func:`current_trace` /
:func:`current_log` without signature churn.

Terminology: these trace ids (and the timed spans of
:mod:`repro.obs.spans` that ride on them) describe the *serving stack*
around a request.  They are unrelated to
:class:`repro.analysis.trace.TraceRecorder`, which records the
Algorithm-2 search event stream (descend / conflict / embedding) of
one in-process matching run.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

_local = threading.local()


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def _timestamp() -> float:
    """Wall-clock seconds to the microsecond.  ``round(t, 6)`` goes
    through a decimal string and costs several microseconds on a cold
    server hot path; rounding the microsecond count is one float op."""
    return round(time.time() * 1e6) / 1e6


class StructuredLog:
    """An append-only JSON-lines log, safe across threads and processes.

    ``path=None`` keeps the last ``memory_limit`` records in memory
    (``records``) — an explicit choice for tests and the observability
    bench; a server without a log keeps nothing.  ``stream=`` writes to
    an open text stream
    (e.g. ``sys.stderr``).  ``path=`` appends to a file and survives
    pickling.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[io.TextIOBase] = None,
        memory_limit: int = 10_000,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._stream = stream
        self._lock = threading.Lock()
        self._file: Optional[io.TextIOBase] = None
        self.records: Deque[Dict[str, Any]] = deque(maxlen=memory_limit)

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Write one log line from keyword fields; returns the record
        (tests read it).  The line carries the thread's bound trace id
        unless ``trace`` is given, and the bound context fields."""
        record: Dict[str, Any] = {}
        trace = fields.pop("trace", None) or current_trace()
        if trace:
            record["trace"] = trace
        record.update(fields)
        for key, value in current_fields().items():
            # Context fields (e.g. the admitting tenant) annotate every
            # line under the binding, but an explicit field always wins.
            record.setdefault(key, value)
        return self.write(event, record)

    def write(self, event: str, record: Dict[str, Any]) -> Dict[str, Any]:
        """Write ``record`` as one line, as given plus ``ts``, ``event``
        and ``pid``; returns it.  :meth:`emit` ends here.  A caller on
        a hot path that builds its record whole calls this directly and
        skips the keyword copies and the thread-context reads, which
        measure several microseconds there (the server's ``query``
        record, built on its event loop, which binds no context)."""
        record["ts"] = _timestamp()
        record["event"] = event
        record["pid"] = os.getpid()
        if self.path is None and self._stream is None:
            # Memory-backed: keep the dict, skip serialization entirely.
            with self._lock:
                self.records.append(record)
            return record
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self.path is not None:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(line)
                self._file.flush()
            elif self._stream is not None:
                self._stream.write(line)
                self._stream.flush()
            return record

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    # -- reading back (tests, CI artifact checks) ----------------------

    def read_records(self) -> List[Dict[str, Any]]:
        """All records: from memory, or parsed back from the file."""
        if self.path is None:
            with self._lock:
                return list(self.records)
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return [
                    json.loads(line)
                    for line in handle
                    if line.strip()
                ]
        except FileNotFoundError:
            return []

    # -- pickling (procpool initializer) -------------------------------

    def __getstate__(self):
        if self.path is None and self._stream is not None:
            # Streams don't travel; workers fall back to stderr.
            return {"path": None}
        return {"path": self.path}

    def __setstate__(self, state):
        self.__init__(path=state["path"])


class trace_context:
    """Bind (trace id, log, extra fields) to the current thread for a
    ``with`` block.  ``fields`` (e.g. ``{"tenant": name}``) are merged
    into every record emitted under the binding — including procpool
    worker lines, since the initializer ships the whole context."""

    def __init__(
        self,
        trace: Optional[str],
        log: Optional[StructuredLog],
        fields: Optional[Dict[str, Any]] = None,
    ):
        self.trace = trace
        self.log = log
        self.fields = fields
        self._prev: Any = None

    def __enter__(self) -> "trace_context":
        self._prev = getattr(_local, "ctx", None)
        _local.ctx = (self.trace, self.log, self.fields or {})
        return self

    def __exit__(self, *exc) -> None:
        _local.ctx = self._prev


def set_trace_context(
    trace: Optional[str],
    log: Optional[StructuredLog],
    fields: Optional[Dict[str, Any]] = None,
) -> None:
    """Bind without a ``with`` block — used by the procpool worker
    initializer, where the binding should last the worker's lifetime."""
    _local.ctx = (trace, log, fields or {})


def current_trace() -> Optional[str]:
    ctx = getattr(_local, "ctx", None)
    return ctx[0] if ctx else None


def current_log() -> Optional[StructuredLog]:
    ctx = getattr(_local, "ctx", None)
    return ctx[1] if ctx else None


def current_fields() -> Dict[str, Any]:
    """The context fields bound to this thread (empty dict if none)."""
    ctx = getattr(_local, "ctx", None)
    return ctx[2] if ctx and len(ctx) > 2 and ctx[2] else {}


def emit(event: str, **fields: Any) -> None:
    """Log to the thread's bound log, if any (no-op otherwise)."""
    log = current_log()
    if log is not None:
        log.emit(event, **fields)
