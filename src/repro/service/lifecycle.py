"""Server lifecycle: zero-downtime reload and graceful drain.

The other half of ROADMAP item 4 (DESIGN.md §13).  A running
:class:`~repro.service.server.MatchingServer` owns one
:class:`LifecycleManager` that moves it through the states

    serving  →  reloading  →  serving          (``reload`` op / SIGHUP)
    serving  →  draining   →  stopped          (``drain`` op / SIGTERM)

**Reload** picks up whatever another process left under the catalog
root — new entries, new epochs from out-of-band updates or overwrites,
removed entries — without dropping a single in-flight query or
standing subscription:

1. :meth:`GraphCatalog.reload` scans and loads new-epoch engines *off
   the event loop* (on the server's auxiliary executor, so not even a
   matching slot is consumed), then atomically swaps the resident set.
   Queries admitted before the swap finish on their admitted epoch;
   queries admitted after see the new one.
2. Query caches of every changed entry are emptied and moved to the
   new epoch (results cached against the old epoch would be wrong;
   "kept" entries keep theirs), so a query that ran on the old engine
   cannot store its result afterwards.
3. Every subscription on a changed entry is **re-attached across the
   epoch boundary with exact diff-replay**: the standing query is
   re-enumerated on the new engine and the subscriber receives one
   delta event ``added = new − old``, ``removed = old − new`` — so its
   replayed set satisfies the PR 5 invariant ``old − removed + added
   == new`` *by construction*, with no lost and no duplicated events.
   Subscriptions on removed entries get a terminal error event.

The whole sequence runs under the server's update lock, so an in-band
``update`` op can never interleave with a reload replay (and an entry
updated in-band is "kept" by the scan — its subscribers were already
notified on the update path, never twice).

**Drain** stops admitting (new queries are shed with reason
``draining`` and a ``retry_after`` hint), waits for in-flight work
bounded by a deadline, and reports whether the server emptied in time;
the ``drain`` op then shuts the server down either way.

Every decision point is a named :class:`FaultPlan` hook
(:func:`lifecycle_points`), so the ``tests/test_service_faults.py``
style sweep can crash or delay at each one; the catalog-side points
(`begin`/`scan`/`build`/`swap`) bracket the resident-set swap and a
crash on either side of it leaves a consistent old-or-new epoch —
the catalog's file-level invariant lifted to the serving layer.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Dict, List, Optional, Set, Tuple

from repro.matching.limits import SearchLimits
from repro.matching.result import TerminationStatus
from repro.obs import new_trace_id
from repro.service.catalog import CatalogError
from repro.service.faults import InjectedCrash

SERVING = "serving"
RELOADING = "reloading"
DRAINING = "draining"
STOPPED = "stopped"

logger = logging.getLogger("repro.service.lifecycle")


def lifecycle_points(op: str) -> Tuple[str, ...]:
    """Every named fault hook of one lifecycle operation, in execution
    order — the sweep contract, mirroring ``catalog.txn_points``.  The
    ``reload`` points fire inside :meth:`GraphCatalog.reload` (begin /
    scan / build / swap) and around the server-side replay (replay /
    commit); the ``drain`` points bracket admission stop, the bounded
    wait, the deadline expiry, and the close decision."""
    if op == "reload":
        return (
            "lifecycle.reload.begin",
            "lifecycle.reload.scan",
            "lifecycle.reload.build",
            "lifecycle.reload.swap",
            "lifecycle.reload.replay",
            "lifecycle.reload.commit",
        )
    if op == "drain":
        return (
            "lifecycle.drain.begin",
            "lifecycle.drain.wait",
            "lifecycle.drain.timeout",
            "lifecycle.drain.close",
        )
    raise ValueError(f"unknown lifecycle operation {op!r}")


def complete_matches(engine, query) -> Set[Tuple[int, ...]]:
    """Every embedding of ``query``: the standing set a subscription
    starts from, and is re-attached with across a reload.  Raises
    ``ValueError`` unless the enumeration completed."""
    result = engine.match(query, limits=SearchLimits())
    if result.status is not TerminationStatus.COMPLETE:
        raise ValueError(
            f"subscriptions need a complete enumeration "
            f"(got {result.status.value})"
        )
    return {tuple(e) for e in result.embeddings}


def _reenumerate(engine, sub):
    """One subscription's change across a reload (``None``: the epoch
    moved without changing this query's set)."""
    new = complete_matches(engine, sub.query)
    added = sorted(new - sub.matches)
    removed = sorted(sub.matches - new)
    return (added, removed) if added or removed else None


class LifecycleManager:
    """State machine + reload/drain orchestration for one server.

    A friend class of :class:`MatchingServer`: it reaches into the
    server's update lock, subscription registry, caches, and executors
    on purpose — lifecycle *is* a server concern, split out so the
    state transitions and replay proof live in one reviewable place.
    """

    def __init__(self, server) -> None:
        self.server = server
        self.state = SERVING
        self.reloads = 0
        self.drains = 0

    async def _afault(self, point: str) -> None:
        """Async-side fault hook: crash raises, delay sleeps on the loop."""
        rule = self.server.faults.consume(point)
        if rule is None:
            return
        if rule.action == "crash":
            raise InjectedCrash(point)
        if rule.action == "delay":
            await asyncio.sleep(rule.seconds)

    # -- reload --------------------------------------------------------

    async def reload(self) -> Tuple[Dict[str, Dict[str, object]], int]:
        """Zero-downtime catalog reload; returns ``(report, replayed)``.

        ``report`` is :meth:`GraphCatalog.reload`'s per-entry action
        map; ``replayed`` counts subscription delta events emitted by
        the epoch-boundary re-attach.  Runs under the server's update
        lock.  An injected crash propagates (the server's ``reload`` op
        turns it into an error reply); the state flag always returns to
        its pre-reload value.
        """
        server = self.server
        if self.state == STOPPED:
            raise RuntimeError("server is stopped")
        assert server._update_lock is not None, "start() first"
        # One trace id per reload: the reload event and every replayed
        # subscription delta carry it, so an operator can attribute a
        # surprise diff to the reload that caused it.
        trace = new_trace_id()
        loop = asyncio.get_running_loop()
        async with server._update_lock:
            prev = self.state
            self.state = RELOADING
            try:
                # Scan + load off the event loop, on the auxiliary
                # executor: reload must not consume a matching slot,
                # or a saturated server could never be reloaded.
                report = await loop.run_in_executor(
                    server._aux_executor,
                    lambda: server.catalog.reload(faults=server.faults),
                )
                for name, info in report.items():
                    # Cached results belong to the old epoch.  "kept"
                    # entries normally keep theirs — unless the cache's
                    # epoch trails the entry's, which happens when a
                    # previous reload crashed between the catalog swap
                    # and this very invalidation step.
                    epoch = info["epoch"]
                    if epoch is None:  # removed, or loaded lazily
                        server._drop_cache(name)
                    elif info["action"] == "reloaded" or \
                            name in server._caches:
                        # Made if absent: a search still running on the
                        # old engine then cannot store into a new cache.
                        cache = server._cache_for(name, epoch)
                        if cache is not None:
                            cache.reset(epoch)
                replayed = await self._replay_subscriptions(
                    report, trace=trace
                )
                await self._afault("lifecycle.reload.replay")
            finally:
                if self.state == RELOADING:
                    self.state = prev
            self.reloads += 1
            await self._afault("lifecycle.reload.commit")
        actions = {name: info["action"] for name, info in report.items()}
        server.obs.emit(
            "reload",
            trace=trace,
            entries=actions,
            epochs={
                name: info.get("epoch") for name, info in report.items()
            },
            replayed=replayed,
        )
        logger.info(
            "reload complete: %s (replayed %d subscription diffs)",
            actions, replayed,
        )
        return report, replayed

    async def _replay_subscriptions(
        self, report: Dict[str, Dict[str, object]], trace=None
    ) -> int:
        """Re-attach standing subscriptions across the epoch boundary.

        For each changed entry, every subscription's query is re-run on
        the new engine and the subscriber gets exactly one delta event
        with the set difference — ``old − removed + added == new`` by
        construction.  Unchanged entries emit nothing (their sets are
        already exact); removed entries' subscribers get an error event
        and are dropped.  Caller holds the update lock.
        """
        server = self.server
        loop = asyncio.get_running_loop()
        replayed = 0
        for name, info in sorted(report.items()):
            action = info["action"]
            with server._counters_lock:
                subs = list(server._subs.get(name, {}).values())
            if not subs:
                continue
            if action == "removed":
                for sub in subs:
                    await server._fail_subscription(
                        sub, f"catalog entry {name!r} removed"
                    )
                continue
            epoch = info["epoch"]
            if action == "lazy":
                # The engine was LRU-evicted but subscriptions stand;
                # disk may hold a newer epoch than they last saw.
                try:
                    epoch = await loop.run_in_executor(
                        server._aux_executor,
                        lambda n=name: server.catalog.info(n).get("epoch"),
                    )
                except CatalogError:
                    continue
            # Replay any subscription whose last-reconciled epoch trails
            # the entry's — on a plain reload that is exactly the
            # "reloaded" entries, but it also catches subscriptions left
            # behind by a crash at the swap hook (the retry reports
            # "kept") and changes that landed while an entry was
            # non-resident.
            stale = [sub for sub in subs if sub.epoch != epoch]
            if not stale:
                continue  # standing sets are already exact
            replayed += await server._rediff(
                name, stale, epoch, trace, server._aux_executor,
                _reenumerate, "reload replay", reload=True,
            )
        return replayed

    # -- drain ---------------------------------------------------------

    async def drain(self, timeout: float) -> Tuple[bool, int]:
        """Stop admitting, wait (bounded) for in-flight work to finish.

        Returns ``(drained, active)``: whether the server emptied
        before the deadline, and how many queries were still running
        at the end.  The state stays ``draining`` while waiting (new
        queries are shed with reason ``"draining"``; ``healthz`` /
        ``stats`` / ``GET /metrics`` keep answering) and becomes
        ``stopped`` at the close decision either way — the caller shuts
        the server down and reports the truth to the operator.
        """
        server = self.server
        if self.state == STOPPED:
            return True, 0
        await self._afault("lifecycle.drain.begin")
        self.state = DRAINING
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        await self._afault("lifecycle.drain.wait")
        while server._active > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        active = server._active
        drained = active == 0
        if not drained:
            await self._afault("lifecycle.drain.timeout")
            logger.warning(
                "drain deadline (%ss) expired with %d queries in flight",
                timeout, active,
            )
        await self._afault("lifecycle.drain.close")
        self.state = STOPPED
        self.drains += 1
        server.obs.emit("drain", drained=drained, active=active)
        return drained, active
