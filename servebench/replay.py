"""Per-layer traced replay: the served request path, in process.

Replays a fixed op sequence through each layer's public functions in
the order the client and server call them, timing every call from
outside (no spans inside ``src/``).  The layer names follow the
``repro`` modules:

* query path — ``client.encode`` (``saves_graph`` + request JSON),
  ``server.parse`` (``json.loads`` + ``loads_graph``), ``qcache.lookup``
  (canonical form + serve), ``catalog.engine`` (``engine_ex``),
  ``engine.build`` (``GuPEngine.build``), ``engine.search``
  (``GuPEngine.match(gcs=...)``), ``qcache.store``, ``server.encode``
  (header, chunk and end lines) and ``client.decode`` (``json.loads``
  + embedding tuples);
* update path — ``catalog.update`` (``GraphCatalog.update`` with its
  durable persist), ``qcache.invalidate`` and ``dynamic.diff``
  (``embedding_diff``); ``dynamic.apply`` (``apply_delta``) and
  ``dynamic.patch`` (``DataArtifacts.apply_delta``) run inside
  ``catalog.update`` and are timed on their own, outside the sum.

Times are means per query (per update on the update path);
``wire.residual_ms`` and ``wire.update_residual_ms`` are the untraced
client means of the same ops minus the layer sums: socket, event loop,
admission and, for updates, the ack and event round trips.  Counts are
means per query (``search.futile_ratio`` is futile over all
recursions, ``qcache.hit_ratio`` hits over lookups) and repeat exactly
for a workload and seed: the server header's timing fields carry a
fixed-width placeholder so that the byte counts do too.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from repro.dynamic.continuous import embedding_diff
from repro.dynamic.delta import apply_delta
from repro.graph.io import loads_graph, saves_graph
from repro.matching.limits import SearchLimits
from repro.service.catalog import GraphCatalog
from repro.service.qcache import QueryCache

from workloads import ENTRY, QueryOp, Workload

CHUNK_SIZE = 512  # the server's default reply chunk
PLACEHOLDER_SECONDS = 0.000123

QUERY_LAYERS = (
    "client.encode", "server.parse", "qcache.lookup", "catalog.engine",
    "engine.build", "engine.search", "qcache.store", "server.encode",
    "client.decode",
)
UPDATE_LAYERS = ("catalog.update", "qcache.invalidate", "dynamic.diff")
NESTED_LAYERS = ("dynamic.apply", "dynamic.patch")


class Layers:
    """Layer times and counts of the measured ops of one replay.

    Each layer keeps its best time per op position (the rounds repeat,
    as in the end-to-end run); a layer mean is the sum of those over
    the positions, divided by the query (or update) positions.
    """

    def __init__(self) -> None:
        self.best: Dict[str, Dict] = defaultdict(dict)
        self.counts: Counter = Counter()
        self.queries = 0
        self.updates = 0
        self.query_positions: set = set()
        self.update_positions: set = set()
        self.position = None

    def timed(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        best = self.best[layer]
        best[self.position] = min(elapsed, best.get(self.position, elapsed))
        return out

    def _per(self, total: float, n: int) -> float:
        return total / n if n else 0.0

    def counts_only(self) -> Dict[str, float]:
        """The exact, repeatable part of :meth:`metrics`."""
        c, q = self.counts, self.queries
        return {
            "wire.request_bytes": self._per(c["request_bytes"], q),
            "wire.reply_bytes": self._per(c["reply_bytes"], q),
            "qcache.hit_ratio": self._per(c["hits"], c["lookups"]),
            "qcache.evicted_per_update": self._per(c["evicted"], self.updates),
            "build.candidate_vertices": self._per(c["candidate_vertices"], q),
            "build.candidate_edges": self._per(c["candidate_edges"], q),
            "search.recursions": self._per(c["recursions"], q),
            "search.futile_ratio": self._per(c["futile"], c["recursions"]),
            "search.guard_pruned": self._per(c["guard_pruned"], q),
            "search.nogoods_recorded": self._per(c["nogoods"], q),
        }

    def metrics(
        self, client_query_ms: float, client_update_ms: float
    ) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric; the residuals close the layer sums
        against the untraced client means of the same ops."""
        out: Dict[str, Tuple[float, str]] = {}
        for layers, positions in (
            (QUERY_LAYERS, self.query_positions),
            (UPDATE_LAYERS + NESTED_LAYERS, self.update_positions),
        ):
            for layer in layers:
                mean = self._per(sum(self.best[layer].values()), len(positions))
                out[f"{layer}_ms"] = (1e3 * mean, "ms")
        query_sum = sum(out[f"{layer}_ms"][0] for layer in QUERY_LAYERS)
        update_sum = sum(out[f"{layer}_ms"][0] for layer in UPDATE_LAYERS)
        out["client.query_mean_ms"] = (client_query_ms, "ms")
        out["wire.residual_ms"] = (client_query_ms - query_sum, "ms")
        out["client.update_mean_ms"] = (client_update_ms, "ms")
        out["wire.update_residual_ms"] = (client_update_ms - update_sum, "ms")
        units = {
            "wire.request_bytes": "B", "wire.reply_bytes": "B",
            "qcache.hit_ratio": "ratio", "qcache.evicted_per_update": "count",
            "search.futile_ratio": "ratio",
        }
        for name, value in self.counts_only().items():
            out[name] = (value, units.get(name, "count"))
        return out


class Replayer:
    """The served request path over an on-disk catalog, in process."""

    def __init__(self, wl: Workload, catalog_dir: Path) -> None:
        self.wl = wl
        self.catalog = GraphCatalog(catalog_dir)
        # The server's per-entry cache, with its default settings.
        self.cache = QueryCache(cap_serving=not self.catalog.config.break_symmetry)
        engine = self.catalog.engine(ENTRY)
        standing = engine.match(wl.subscription, limits=SearchLimits())
        self.matches = {tuple(e) for e in standing.embeddings}

    def query(self, op: QueryOp, seq: int, acc: Layers):
        """One query request; returns the decoded reply header."""
        wl = self.wl
        trace = f"{seq:016x}"

        def encode():
            payload = {"op": "query", "data": ENTRY,
                       "graph": saves_graph(wl.query(op)), "trace": trace}
            for key, value in wl.options.items():
                payload[key] = value
            return json.dumps(payload).encode("utf-8") + b"\n"

        line = acc.timed("client.encode", encode)

        def parse():
            request = json.loads(line)
            query = loads_graph(request["graph"])
            limits = SearchLimits(
                max_embeddings=request.get("limit"),
                collect=not request.get("count_only", False),
                max_recursions=request.get("recursion_limit"),
            )
            return request, query, limits

        request, query, limits = acc.timed("server.parse", parse)
        use_cache = bool(request.get("cache", True))
        result = form = None
        if use_cache:
            acc.counts["lookups"] += 1
            result, form = acc.timed("qcache.lookup", self.cache.lookup, query, limits)
        if result is not None:
            acc.counts["hits"] += 1
            cache_state = "hit"
        else:
            engine, _, _ = acc.timed("catalog.engine", self.catalog.engine_ex, ENTRY)
            gcs = acc.timed("engine.build", engine.build, query)
            result = acc.timed(
                "engine.search", engine.match, query, limits=limits, gcs=gcs
            )
            stats = result.stats
            acc.counts["candidate_vertices"] += gcs.cs.total_candidates()
            acc.counts["candidate_edges"] += gcs.cs.num_candidate_edges
            acc.counts["recursions"] += stats.recursions
            acc.counts["futile"] += stats.futile_recursions
            acc.counts["guard_pruned"] += stats.pruned_by_guards()
            acc.counts["nogoods"] += (
                stats.nogoods_recorded_vertex + stats.nogoods_recorded_edge
            )
            if use_cache:
                acc.timed("qcache.store", self.cache.store, form, limits, result)
                cache_state = "miss"
            else:
                cache_state = "bypass"

        def encode_reply() -> List[bytes]:
            embeddings = result.embeddings
            chunks = (len(embeddings) + CHUNK_SIZE - 1) // CHUNK_SIZE
            header = {
                "ok": True,
                "num_embeddings": result.num_embeddings,
                "status": result.status.value,
                "cache": cache_state,
                "recursions": result.stats.recursions,
                "elapsed": PLACEHOLDER_SECONDS,
                "server_seconds": PLACEHOLDER_SECONDS,
                "queue_seconds": PLACEHOLDER_SECONDS,
                "chunks": chunks,
                "trace": trace,
            }
            lines = [json.dumps(header).encode("utf-8") + b"\n"]
            for i in range(chunks):
                chunk = {"chunk": embeddings[i * CHUNK_SIZE: (i + 1) * CHUNK_SIZE]}
                lines.append(json.dumps(chunk).encode("utf-8") + b"\n")
            lines.append(json.dumps({"end": True}).encode("utf-8") + b"\n")
            return lines

        lines = acc.timed("server.encode", encode_reply)

        def decode():
            header = json.loads(lines[0])
            embeddings = []
            for raw in lines[1:-1]:
                embeddings.extend(tuple(e) for e in json.loads(raw)["chunk"])
            if not json.loads(lines[-1]).get("end"):
                raise ValueError("missing end-of-stream marker")
            header["embeddings"] = embeddings
            return header

        header = acc.timed("client.decode", decode)
        acc.counts["request_bytes"] += len(line)
        acc.counts["reply_bytes"] += sum(len(raw) for raw in lines)
        acc.queries += 1
        acc.query_positions.add(acc.position)
        return header

    def update(self, op, acc: Layers):
        """One update plus the standing subscription's diff."""
        engine = self.catalog.engine(ENTRY)
        new_graph, summary = acc.timed(
            "dynamic.apply", apply_delta, engine.data, op.delta
        )
        acc.timed("dynamic.patch", engine.artifacts.apply_delta, new_graph, summary)
        info, summary = acc.timed(
            "catalog.update", self.catalog.update, ENTRY, op.delta
        )
        kept, evicted = acc.timed(
            "qcache.invalidate", self.cache.invalidate_labels, summary.touched_labels
        )
        engine = self.catalog.engine(ENTRY)
        diff = acc.timed(
            "dynamic.diff", embedding_diff, engine, self.wl.subscription,
            self.matches, summary,
        )
        self.matches.difference_update(diff.removed)
        self.matches.update(diff.added)
        acc.counts["evicted"] += evicted
        acc.updates += 1
        acc.update_positions.add(acc.position)
        return {"epoch": info.get("epoch"), "evicted": evicted,
                "added": diff.added, "removed": diff.removed}


def replay(wl: Workload, catalog_dir: Path, warmup, measured,
           served=None, failures=None) -> Layers:
    """Replay the ``warmup`` ops, then the ``(position, op)`` pairs of
    ``measured`` with layer timing.

    ``served`` (the untraced client's replies to the same ops, if
    given) is compared op by op; a replay that disagrees with the
    served system appends to ``failures``.  The garbage collector stays
    on, as it is in the server.
    """
    replayer = Replayer(wl, catalog_dir)
    unmeasured = Layers()
    acc = Layers()
    steps = [(unmeasured, None, op) for op in warmup]
    steps += [(acc, position, op) for position, op in measured]
    for seq, (layers, position, op) in enumerate(steps):
        layers.position = position
        if isinstance(op, QueryOp):
            got = replayer.query(op, seq, layers)
        else:
            got = replayer.update(op, layers)
        if served is None or seq >= len(served) or isinstance(served[seq], Exception):
            continue
        if _disagrees(op, got, served[seq]):
            failures.append(f"replay differs from the served reply at op {seq}")
    return acc


def _disagrees(op, got, reply) -> bool:
    if isinstance(op, QueryOp):
        mine = (got["num_embeddings"], got["status"], got["recursions"], got["cache"])
        served = (reply.num_embeddings, reply.status, reply.recursions, reply.cache)
        return mine != served
    ack, event = reply
    mine = (got["epoch"], got["evicted"], sorted(got["added"]), sorted(got["removed"]))
    served = (ack.epoch, ack.qcache_evicted,
              sorted(event["added"]), sorted(event["removed"]))
    return mine != served
