"""Deterministic fault injection for the service stack (DESIGN.md §10).

The fault-tolerance claims of this repo are *proven*, not assumed: every
recovery path has a test that forces the corresponding failure at an
exact, named point and asserts the system ends up in a declared-legal
state.  This module is the injection mechanism those tests share.

Production code declares **hook points** — short dotted names like
``"catalog.snapshot.log"`` or ``"procpool.task.3"`` — and calls
:meth:`FaultPlan.reach` at each one.  A plan with no matching armed rule
makes ``reach`` a dictionary miss and an integer compare (nanoseconds);
the default plan :data:`NO_FAULTS` has no rules at all.  There is no
monkeypatching anywhere: a test builds a :class:`FaultPlan` and hands it
to the component under test (``GraphCatalog(faults=...)``,
``MatchingServer(faults=...)``, ``procpool.run_partitioned(...,
faults=...)``).

Actions
-------
``crash``
    Raise :class:`InjectedCrash` — a **BaseException** so ordinary
    ``except Exception`` recovery code cannot swallow it.  It models a
    process killed at that instant: whatever bytes are on disk stay on
    disk, nothing later in the operation runs.
``oserror``
    Raise an :class:`OSError` with a configurable errno (default
    ``ENOSPC`` — the full-disk case).  Unlike ``crash`` this *is* an
    ordinary exception: it exercises the error-reporting paths.
``die``
    ``os._exit(17)`` — the process vanishes without unwinding.  Used
    inside procpool workers to produce a real ``BrokenProcessPool``.
``delay``
    Sleep ``rule.seconds`` at the point (async call sites translate
    this into ``asyncio.sleep`` via :meth:`FaultPlan.consume`).
``refuse`` / ``overload``
    No-ops at this layer; call sites interpret them (the server closes
    the connection / sheds the request).  Tests use them to exercise
    client retry without real resource pressure.

Rules fire deterministically: a rule matches its ``point`` exactly,
skips its first ``after`` hits, then fires ``times`` times (``None`` =
every later hit).  All mutation happens under a lock; plans are
picklable (the lock is dropped and re-created) so they can ride the
procpool initializer into worker processes.
"""

from __future__ import annotations

import errno as errno_module
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ACTIONS = ("crash", "oserror", "die", "delay", "refuse", "overload")


class InjectedCrash(BaseException):
    """A simulated kill -9 at a named persistence point.

    Deliberately a :class:`BaseException`: recovery code that catches
    ``Exception`` must never be able to "handle" a crash — the whole
    point is that nothing after the kill point runs.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


@dataclass
class FaultRule:
    """One armed fault: *what* happens at *which* point, and *when*.

    ``after`` skips that many hits of the point before arming;
    ``times`` bounds how often the rule fires (``None`` = unlimited).
    """

    point: str
    action: str = "crash"
    after: int = 0
    times: Optional[int] = 1
    seconds: float = 0.0
    errno: int = errno_module.ENOSPC
    # Mutable firing state (managed by the plan, under its lock).
    seen: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (one of {ACTIONS})"
            )

    def _should_fire(self) -> bool:
        """Record one hit; report whether the rule fires on it."""
        self.seen += 1
        if self.seen <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A set of :class:`FaultRule`\\ s plus a record of points reached.

    The empty plan is the production configuration: ``reach`` returns
    immediately.  Tests typically build one plan per scenario::

        plan = FaultPlan([FaultRule("catalog.snapshot.log", "crash")])
        catalog = GraphCatalog(root, faults=plan)
        with pytest.raises(InjectedCrash):
            catalog.update(name, delta)

    ``history`` (the ordered list of points reached) makes sweeps
    self-checking: a test that kills at a declared point can assert the
    point was actually on the executed path.
    """

    def __init__(self, rules: Optional[List[FaultRule]] = None) -> None:
        self._rules: Dict[str, List[FaultRule]] = {}
        self.history: List[str] = []
        self.record_history = False
        self._lock = threading.Lock()
        for rule in rules or []:
            self.add(rule)

    # -- configuration -------------------------------------------------

    def add(self, rule: FaultRule) -> "FaultPlan":
        with self._lock:
            self._rules.setdefault(rule.point, []).append(rule)
        return self

    @property
    def rules(self) -> List[FaultRule]:
        with self._lock:
            return [r for rules in self._rules.values() for r in rules]

    # -- hook points ---------------------------------------------------

    def consume(self, point: str) -> Optional[FaultRule]:
        """Record a hit of ``point``; return the rule that fires, if any.

        Used by call sites that must interpret the action themselves
        (async contexts cannot ``time.sleep``).  At most one rule fires
        per hit, in insertion order.
        """
        with self._lock:
            if self.record_history:
                self.history.append(point)
            for rule in self._rules.get(point, ()):  # miss = no iteration
                if rule._should_fire():
                    return rule
        return None

    def reach(self, point: str) -> None:
        """Hit ``point`` and *execute* the firing rule's action, if any.

        This is the one-liner production hook: ``faults.reach("...")``.
        """
        rule = self.consume(point)
        if rule is None:
            return
        if rule.action == "crash":
            raise InjectedCrash(point)
        if rule.action == "oserror":
            raise OSError(rule.errno, os.strerror(rule.errno), point)
        if rule.action == "die":
            os._exit(17)
        if rule.action == "delay":
            time.sleep(rule.seconds)
        # "refuse"/"overload" are interpreted by the call site via
        # consume(); reached through reach() they are recorded no-ops.

    # -- introspection -------------------------------------------------

    def fired(self, point: Optional[str] = None) -> int:
        """How many times rules have fired (optionally just at ``point``)."""
        with self._lock:
            total = 0
            for p, rules in self._rules.items():
                if point is None or p == point:
                    total += sum(r.fired for r in rules)
            return total

    # -- pickling (procpool initializer support) -----------------------

    def __getstate__(self) -> Tuple[Dict, List[str], bool]:
        with self._lock:
            return (self._rules, list(self.history), self.record_history)

    def __setstate__(self, state) -> None:
        self._rules, self.history, self.record_history = state
        self._lock = threading.Lock()


NO_FAULTS = FaultPlan()
"""The shared production plan: no rules, ``reach`` is effectively free.

Components default their ``faults`` parameter to this instance; never
add rules to it (build a fresh :class:`FaultPlan` per test instead).
"""


def crash_at(point: str, after: int = 0) -> FaultPlan:
    """Shorthand for the single-kill-point plans the sweeps use."""
    return FaultPlan([FaultRule(point, "crash", after=after)])
