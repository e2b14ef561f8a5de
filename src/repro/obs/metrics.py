"""Dependency-free metrics primitives + Prometheus text exposition.

Three instrument kinds, the usual trio:

* :class:`Counter` — monotone float/int, ``inc()``;
* :class:`Gauge` — settable point-in-time value, ``set()`` / ``inc()``;
* :class:`Histogram` — fixed cumulative buckets, ``observe()``.

Instruments are created through a :class:`MetricsRegistry`, optionally
with **label names**; ``family.labels(phase="queue")`` returns (and
memoizes) the child for that label value tuple.  ``registry.render()``
emits the whole registry in the Prometheus text exposition format
(version 0.0.4) — the thing a ``GET /metrics`` scrape returns.

Reconciliation by construction
------------------------------
The server/catalog/query-cache/procpool counter dicts that the ``stats``
op snapshots are instances of :class:`CounterGroup` — a thread-safe
mapping with the exact dict API the existing code uses (``c["k"] += 1``,
``dict(c)``) — and the registry *attaches* those live groups
(:meth:`MetricsRegistry.attach_group`).  A scrape renders one counter
family per group key, reading the very same storage the ``stats`` op
reads, so the two surfaces cannot drift: there is one set of numbers.

Scrape-time gauges (active queries, uptime, cache residency) are set by
``on_scrape`` hooks the instant before rendering.

:func:`parse_exposition` is the inverse of ``render`` for the subset
this module emits; tests use it to assert the reconciliation.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Latency buckets (seconds): 0.5ms .. 10s, roughly log-spaced.  A
``+Inf`` bucket is always appended implicitly."""


class MetricsError(Exception):
    """Misuse of the registry (duplicate family, bad label set, ...)."""


def _format_number(value: float) -> str:
    """Prometheus-style value formatting (ints without the ``.0``)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return str(int(value))
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_suffix(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


class CounterGroup:
    """A thread-safe named set of counters with the plain-dict API.

    Drop-in for the ad-hoc ``Dict[str, int]`` counter dicts the service
    stack grew: ``group["queries"] += 1``, ``dict(group)``, ``"queries"
    in group``, iteration — all work.  The point of the class is that a
    :class:`MetricsRegistry` can *attach* the live group and render it
    as one counter family per key, so the ``stats`` snapshot and the
    ``/metrics`` exposition read identical storage.

    ``inc`` is atomic; the ``+=`` spelling is a read-modify-write like
    it always was (callers that need atomicity across keys hold their
    own locks, as before).
    """

    __slots__ = ("_values", "_lock")

    def __init__(self, initial: Optional[Mapping[str, float]] = None) -> None:
        self._values: Dict[str, float] = dict(initial or {})
        self._lock = threading.Lock()

    def inc(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    # -- mapping API ---------------------------------------------------

    def __getitem__(self, key: str) -> float:
        with self._lock:
            return self._values[key]

    def __setitem__(self, key: str, value: float) -> None:
        with self._lock:
            self._values[key] = value

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def keys(self):
        return self.snapshot().keys()

    def items(self):
        return self.snapshot().items()

    def values(self):
        return self.snapshot().values()

    def get(self, key: str, default=None):
        with self._lock:
            return self._values.get(key, default)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:  # debugging convenience
        return f"CounterGroup({self.snapshot()!r})"

    # Pickling must survive the procpool initializer (the lock cannot).

    def __getstate__(self) -> Dict[str, float]:
        return self.snapshot()

    def __setstate__(self, state: Dict[str, float]) -> None:
        self._values = dict(state)
        self._lock = threading.Lock()


class _Child:
    """One (label-valued) instrument: holds a value or histogram state."""

    __slots__ = ("kind", "value", "bucket_counts", "sum", "count", "_lock")

    def __init__(self, kind: str, num_buckets: int = 0) -> None:
        self.kind = kind
        self.value = 0.0
        self.bucket_counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Family:
    """One metric family (name + type + label names) and its children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._default = self._child(())
        else:
            self._default = None

    def _child(self, values: Tuple[str, ...]) -> _Child:
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = _Child(self.kind, len(self.buckets) + 1)
                self._children[values] = child
            return child

    def labels(self, **labelvalues: str) -> "_Handle":
        if set(labelvalues) != set(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        values = tuple(str(labelvalues[name]) for name in self.labelnames)
        return _Handle(self, self._child(values))

    def remove(self, **labelvalues: str) -> None:
        """Drop one labeled child, if present (its label value is gone)."""
        values = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            self._children.pop(values, None)

    # Unlabeled families act as their own handle.

    def inc(self, amount: float = 1) -> None:
        self._require_default().inc(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        if self._default is None:
            raise MetricsError(f"{self.name}: labeled family, use .labels()")
        _observe(self, self._default, value)

    def _require_default(self) -> _Child:
        if self._default is None:
            raise MetricsError(f"{self.name}: labeled family, use .labels()")
        return self._default

    def value(self, **labelvalues: str) -> float:
        """Current value (counter/gauge) — for tests and stats bridging."""
        if self.labelnames:
            return self.labels(**labelvalues)._child.value
        return self._require_default().value

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        with self._lock:
            return sorted(self._children.items())


def _observe(family: Family, child: _Child, value: float) -> None:
    index = bisect_left(family.buckets, value)
    with child._lock:
        child.bucket_counts[index] += 1
        child.sum += value
        child.count += 1


class _Handle:
    """A bound (family, child) pair returned by ``labels()``."""

    __slots__ = ("_family", "_child")

    def __init__(self, family: Family, child: _Child) -> None:
        self._family = family
        self._child = child

    def inc(self, amount: float = 1) -> None:
        self._child.inc(amount)

    def set(self, value: float) -> None:
        self._child.set(value)

    def observe(self, value: float) -> None:
        _observe(self._family, self._child, value)

    @property
    def value(self) -> float:
        return self._child.value


class MetricsRegistry:
    """Instrument factory + attached counter groups + text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, Family] = {}
        self._groups: List[Tuple[str, Mapping, Tuple[Tuple[str, str], ...], str]] = []
        self._hooks: List[Callable[[], None]] = []

    # -- instruments ---------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = (),
    ) -> Family:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise MetricsError(
                        f"metric {name!r} re-registered with a different "
                        "type or label set"
                    )
                return existing
            family = Family(name, kind, help_text, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> Family:
        return self._family(name, "counter", help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> Family:
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        buckets = tuple(sorted(buckets))
        if not buckets:
            raise MetricsError("histogram needs at least one finite bucket")
        family = self._family(name, "histogram", help_text, labelnames, buckets)
        if family.buckets != buckets:
            raise MetricsError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return family

    # -- attached groups and scrape hooks ------------------------------

    def attach_group(
        self,
        prefix: str,
        group: Mapping[str, float],
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
    ) -> None:
        """Expose a live counter mapping as ``<prefix>_<key>_total``.

        The mapping is read at scrape time — attach the *same object*
        the ``stats`` op snapshots and the surfaces reconcile by
        construction.  ``labels`` (e.g. ``{"data": name}``) distinguish
        multiple groups under one prefix.
        """
        label_pairs = tuple(sorted((labels or {}).items()))
        with self._lock:
            self._groups.append((prefix, group, label_pairs, help_text))

    def detach_group(self, group: Mapping[str, float]) -> None:
        """Stop exposing ``group`` (the object :meth:`attach_group` got)."""
        with self._lock:
            self._groups = [g for g in self._groups if g[1] is not group]

    def on_scrape(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at the start of every :meth:`render` (gauges)."""
        with self._lock:
            self._hooks.append(hook)

    # -- exposition ----------------------------------------------------

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            hooks = list(self._hooks)
            groups = list(self._groups)
            families = dict(self._families)
        for hook in hooks:
            hook()

        lines: List[str] = []

        # Attached counter groups first: one family per (prefix, key),
        # children are the per-label-set groups.
        by_name: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], float, str]]] = {}
        for prefix, group, label_pairs, help_text in groups:
            snapshot = (
                group.snapshot() if isinstance(group, CounterGroup)
                else dict(group)
            )
            for key, value in snapshot.items():
                name = f"{prefix}_{key}_total"
                by_name.setdefault(name, []).append(
                    (label_pairs, float(value), help_text)
                )
        for name in sorted(by_name):
            children = sorted(by_name[name])
            help_text = children[0][2]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            for label_pairs, value, _ in children:
                lines.append(
                    f"{name}{_labels_suffix(label_pairs)} "
                    f"{_format_number(value)}"
                )

        for name in sorted(families):
            family = families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values, child in family.children():
                pairs = tuple(zip(family.labelnames, values))
                if family.kind == "histogram":
                    with child._lock:
                        counts = list(child.bucket_counts)
                        total = child.count
                        total_sum = child.sum
                    cumulative = 0
                    bounds = list(family.buckets) + [math.inf]
                    for bound, count in zip(bounds, counts):
                        cumulative += count
                        le = pairs + (("le", _format_number(bound)),)
                        lines.append(
                            f"{name}_bucket{_labels_suffix(le)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_labels_suffix(pairs)} "
                        f"{_format_number(total_sum)}"
                    )
                    lines.append(
                        f"{name}_count{_labels_suffix(pairs)} {total}"
                    )
                else:
                    lines.append(
                        f"{name}{_labels_suffix(pairs)} "
                        f"{_format_number(child.value)}"
                    )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Exposition parsing (tests / CLI reconciliation)
# ----------------------------------------------------------------------

Sample = Tuple[str, Tuple[Tuple[str, str], ...]]
"""A parsed sample key: ``(metric_name, sorted label pairs)``."""


def _parse_labels(body: str) -> Tuple[Tuple[str, str], ...]:
    pairs: List[Tuple[str, str]] = []
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip().strip(",")
        assert body[eq + 1] == '"'
        j = eq + 2
        out = []
        while body[j] != '"':
            if body[j] == "\\":
                j += 1
                out.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(body[j], body[j])
                )
            else:
                out.append(body[j])
            j += 1
        pairs.append((name, "".join(out)))
        i = j + 1
    return tuple(sorted(pairs))


def parse_exposition(text: str) -> Dict[Sample, float]:
    """Parse the subset of the text format :meth:`render` emits.

    Returns ``{(name, sorted_label_pairs): value}``; ``+Inf``/``-Inf``
    parse to infinities.
    """
    out: Dict[Sample, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            labels = _parse_labels(rest.rstrip("}"))
        else:
            name, labels = name_part, ()
        value_part = value_part.strip()
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        else:
            value = float(value_part)
        out[(name.strip(), labels)] = value
    return out
