"""Post-window verification of every served reply.

A :class:`Reference` follows the workload's ops on a reference graph
advanced in lockstep with the served one and answers each query with a
direct ``GuPEngine.match`` (a cold engine per graph state, so the
server's incrementally patched artifacts are checked against
from-scratch builds).  Rounds revisit the same few graph states, so
direct answers are memoized per state.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.engine import GuPEngine
from repro.dynamic.delta import apply_delta
from repro.graph.graph import Graph
from repro.graph.io import graph_checksum
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult
from repro.matching.verify import is_embedding

from workloads import QueryOp, UpdateOp, Workload


class _State:
    """Direct answers on one graph state."""

    def __init__(self, wl: Workload, graph: Graph) -> None:
        self.wl = wl
        self.key = graph_checksum(graph)
        self.engine = GuPEngine(graph)
        self._direct: Dict[Tuple[int, int], MatchResult] = {}
        self._standing: Optional[Set[Tuple[int, ...]]] = None

    def direct(self, op: QueryOp) -> MatchResult:
        key = (op.base, op.perm)
        result = self._direct.get(key)
        if result is None:
            result = self.engine.match(self.wl.query(op), limits=self.wl.limits)
            self._direct[key] = result
        return result

    def standing(self) -> Set[Tuple[int, ...]]:
        if self._standing is None:
            result = self.engine.match(self.wl.subscription, limits=SearchLimits())
            self._standing = {tuple(e) for e in result.embeddings}
        return self._standing


class Reference:
    """Checks replies in the order they were served."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.graph = wl.data
        self._states: Dict[str, _State] = {}
        self._enter()
        self.subscription = set(self.state.standing())
        # base -> the direct run that filled its cache entry: a hit
        # reports that run's recursions, whatever the labeling of the
        # request it answers, and an entry that survives an update
        # keeps them.
        self._filled: Dict[int, MatchResult] = {}
        self._mapped: Dict[Tuple, frozenset] = {}
        self._checked: Dict[Tuple, list] = {}

    def _enter(self) -> None:
        key = graph_checksum(self.graph)
        if key not in self._states:
            self._states[key] = _State(self.wl, self.graph)
        self.state = self._states[key]

    def check_subscribe(self, embeddings) -> Optional[str]:
        if set(embeddings) != self.subscription:
            return "initial subscription set differs from the direct match"
        return None

    def check_query(self, op: QueryOp, reply) -> Optional[str]:
        """``None`` when ``reply`` is exact, else the first mismatch."""
        base = self.state.direct(QueryOp(op.base, 0))
        if reply.status != base.status.value:
            return f"status {reply.status} != direct {base.status.value}"
        if reply.num_embeddings != base.num_embeddings:
            return (
                f"num_embeddings {reply.num_embeddings} "
                f"!= direct {base.num_embeddings}"
            )
        if reply.cache == "hit":
            source = self._filled.get(op.base)
            if source is None:
                return "cache hit for a query never run on the engine"
        else:
            source = self.state.direct(op)
            if reply.cache == "miss":
                self._filled[op.base] = source
        if reply.recursions != source.stats.recursions:
            return f"recursions {reply.recursions} != direct {source.stats.recursions}"
        if not self.wl.limits.collect:
            return None
        if len(reply.embeddings) != reply.num_embeddings:
            return "embedding list length differs from num_embeddings"
        if base.complete:
            if set(reply.embeddings) != self._relabeled_set(op):
                return "embedding set differs from the relabeled direct set"
        elif not self._valid_prefix(op, reply.embeddings):
            # A capped hit is the filling run's prefix translated through
            # the canonical form, which may differ from our relabeling by
            # a query automorphism: check the embeddings themselves.
            return "capped reply holds an invalid or repeated embedding"
        return None

    def _relabeled_set(self, op: QueryOp) -> frozenset:
        """The direct embedding set of the base query, renumbered to
        ``op``'s relabeling (new vertex ``i`` is old vertex ``perm[i]``)."""
        key = (self.state.key, op.base, op.perm)
        out = self._mapped.get(key)
        if out is None:
            perm = self.wl.perms[op.base][op.perm]
            base = self.state.direct(QueryOp(op.base, 0))
            out = frozenset(tuple(e[p] for p in perm) for e in base.embeddings)
            self._mapped[key] = out
        return out

    def _valid_prefix(self, op: QueryOp, embeddings) -> bool:
        key = (self.state.key, op.base, op.perm)
        if self._checked.get(key) == embeddings:
            return True  # same answer as an already checked reply
        query, data = self.wl.query(op), self.state.engine.data
        if len(set(embeddings)) != len(embeddings) or not all(
            is_embedding(query, data, e) for e in embeddings
        ):
            return False
        self._checked[key] = embeddings
        return True

    def check_update(self, op: UpdateOp, ack, event) -> Optional[str]:
        """Advance the reference graph and check the ack and the
        subscriber's delta event against it."""
        self.graph, _ = apply_delta(self.graph, op.delta)
        self._enter()
        if ack.entry.get("graph_checksum") != self.state.key:
            return "served graph diverged from the reference graph"
        if event.get("event") != "delta":
            return f"expected a delta event, got {event.get('event')!r}"
        self.subscription.difference_update(event["removed"])
        self.subscription.update(event["added"])
        if self.subscription != self.state.standing():
            return "subscriber deltas do not compose to the direct match"
        return None
