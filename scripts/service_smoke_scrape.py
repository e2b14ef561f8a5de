"""CI smoke: query a live server, then scrape and reconcile /metrics.

Starts a real :class:`MatchingServer` over a throwaway catalog with a
path-backed structured request log, drives a query round-trip through
:class:`ServiceClient`, and then checks the observability surfaces:

* the ``metrics`` op and a raw HTTP ``GET /metrics`` on the same port
  return the same exposition (modulo scrape-time gauges);
* every required metric family is present;
* the ``stats`` op's server counters equal their ``/metrics``
  counterparts (reconciliation-by-construction, spot-checked end to
  end);
* every query ends in one counted outcome: a raw ``"limit":
  Infinity`` query line gets a structured ``'limit' must be …`` error
  (not a dropped connection), and ``queries == served + rejected +
  errors`` in ``stats``;
* the request log holds a ``query`` line whose trace id matches the
  one the reply header carried;
* one ``explain="analyze"`` round-trip (workers=2) returns the
  attribution report, its ``search`` recursion and embedding counts
  equal the reply header's, and the Chrome trace exported from that request's span records is
  well-formed: every span's parent exists, the single root is the
  client attempt, and the procpool worker spans nest under the
  ``engine.search`` phase span;
* against a real ``repro serve`` subprocess on the same catalog, the
  smoke query re-issued under a vertex relabeling is a cache hit whose
  embeddings are the first reply's under that relabeling (as a set),
  and ``repro_qcache_translated_hits_total`` on its ``/metrics`` rises
  by exactly one: a translated hit served from the cached frame.

Exits nonzero with a message on the first violated check.  The request
log is written to ``service-smoke-requests.jsonl`` and the trace
export to ``service-smoke-trace.json`` in the working directory so CI
can upload them as artifacts when this script fails.

Run: ``PYTHONPATH=src python scripts/service_smoke_scrape.py``
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.graph.builder import graph_from_adjacency  # noqa: E402
from repro.graph.io import saves_graph  # noqa: E402
from repro.obs import Observability, StructuredLog, parse_exposition  # noqa: E402
from repro.obs.spans import (  # noqa: E402
    build_chrome_trace,
    spans_for_trace,
    validate_span_tree,
)
from repro.service.catalog import GraphCatalog  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServerThread  # noqa: E402

LOG_PATH = "service-smoke-requests.jsonl"
TRACE_PATH = "service-smoke-trace.json"

REQUIRED_FAMILIES = (
    "repro_server_queries_total",
    "repro_server_served_total",
    "repro_server_rejected_total",
    "repro_server_errors_total",
    "repro_server_events_dropped_total",
    "repro_server_phase_seconds_bucket",
    "repro_server_phase_seconds_count",
    "repro_server_request_seconds_count",
    "repro_server_active",
    "repro_server_capacity",
    "repro_catalog_engine_hits_total",
    "repro_catalog_engine_misses_total",
    "repro_pool_respawns_total",
    "repro_qcache_hits_total",
    "repro_qcache_misses_total",
)

# stats-op server counter -> metric family name
RECONCILED = {
    "queries": "repro_server_queries_total",
    "served": "repro_server_served_total",
    "rejected": "repro_server_rejected_total",
    "errors": "repro_server_errors_total",
    "events_dropped": "repro_server_events_dropped_total",
}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def http_get(host: str, port: int, path: str) -> str:
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("ascii", "replace")
    if " 200 " not in f" {status} ":
        fail(f"GET {path}: expected 200, got {status!r}")
    return body.decode("utf-8")


def raw_request(host: str, port: int, payload: dict) -> dict:
    """One request line over a raw socket; ``json.dumps`` writes a
    non-finite float as ``Infinity``/``NaN``, which no client sends."""
    with socket.create_connection((host, port), timeout=10) as sock:
        handle = sock.makefile("rwb")
        handle.write(json.dumps(payload).encode("utf-8") + b"\n")
        handle.flush()
        line = handle.readline()
    if not line:
        fail(f"{payload.get('op')}: connection closed without a reply")
    return json.loads(line)


def translated_hits(host: str, port: int) -> float:
    exposed = parse_exposition(http_get(host, port, "/metrics"))
    return sum(
        value for (name, _), value in exposed.items()
        if name == "repro_qcache_translated_hits_total"
    )


def relabeled_hit_check(root: str, query) -> str:
    """The smoke query, then a relabeled copy, against ``repro serve``
    run as a subprocess on ``root``; returns a summary line."""
    perm = list(reversed(range(query.num_vertices)))
    relabeled = query.relabeled(perm)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        if not banner:
            fail("repro serve printed no banner")
        host, port = "127.0.0.1", int(banner.rsplit(":", 1)[1])
        with ServiceClient(host, port) as client:
            first = client.query(query, "g")
            before = translated_hits(host, port)
            again = client.query(relabeled, "g")
            after = translated_hits(host, port)
            client.drain()
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    if again.cache != "hit":
        fail(f"relabeled query was a cache {again.cache}, not a hit")
    # New vertex i of the relabeled query is old vertex perm[i].
    expected = {tuple(e[p] for p in perm) for e in first.embeddings}
    if set(again.embeddings) != expected or \
            again.num_embeddings != first.num_embeddings:
        fail(
            f"relabeled hit served {sorted(again.embeddings)}, "
            f"expected {sorted(expected)}"
        )
    if after - before != 1:
        fail(
            "repro_qcache_translated_hits_total rose by "
            f"{after - before}, not 1"
        )
    return (
        "relabeled hit on a repro serve subprocess: "
        f"{again.num_embeddings} embeddings translated"
    )


def main() -> int:
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    query = graph_from_adjacency(["A", "B"], [(0, 1)])
    Path(LOG_PATH).unlink(missing_ok=True)
    Path(TRACE_PATH).unlink(missing_ok=True)
    obs = Observability(log=StructuredLog(path=LOG_PATH))

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        GraphCatalog(tmp).add("g", data)
        with ServerThread(GraphCatalog(tmp), obs=obs) as thread:
            host, port = thread.address
            # The client shares the server's path-backed log so its
            # client.attempt span lands in the same file the server's
            # phase spans do — the export below must see one tree.
            with ServiceClient(host, port, log=obs.log) as client:
                reply = client.query(query, "g")
                if reply.num_embeddings != 2:
                    fail(f"expected 2 embeddings, got {reply.num_embeddings}")
                if not reply.trace:
                    fail("reply header carried no trace id")
                analyzed = client.query(
                    query, "g", workers=2, cache=False, explain="analyze"
                )
                if analyzed.num_embeddings != 2:
                    fail(
                        "analyze changed the result: "
                        f"{analyzed.num_embeddings} embeddings"
                    )
                if not analyzed.explain or \
                        analyzed.explain.get("mode") != "analyze":
                    fail(f"no analyze report in reply: {analyzed.explain!r}")
                search = analyzed.explain.get("search") or {}
                if search.get("recursions") != analyzed.recursions:
                    fail(
                        f"analyze counted {search.get('recursions')} "
                        f"recursions, the header {analyzed.recursions}"
                    )
                if search.get("embeddings_found") != analyzed.num_embeddings:
                    fail(
                        f"analyze counted {search.get('embeddings_found')} "
                        f"embeddings, the header {analyzed.num_embeddings}"
                    )
                bad = raw_request(host, port, {
                    "op": "query", "data": "g", "graph": saves_graph(query),
                    "limit": float("inf"),
                })
                if bad.get("ok") is not False or not str(
                    bad.get("error")
                ).startswith("'limit' must be") or not bad.get("trace"):
                    fail(f"non-finite limit got {bad!r}")
                stats = client.stats()
                op_text = client.metrics()
            http_text = http_get(host, port, "/metrics")
            health = http_get(host, port, "/healthz")
        relabeled = relabeled_hit_check(tmp, query)

    if '"status"' not in health:
        fail(f"/healthz returned no status: {health[:200]!r}")

    for text, surface in ((op_text, "metrics op"), (http_text, "GET /metrics")):
        families = {name for name, _ in parse_exposition(text)}
        missing = [f for f in REQUIRED_FAMILIES if f not in families]
        if missing:
            fail(f"{surface} is missing families: {missing}")

    exposed = parse_exposition(http_text)
    flat = {}
    for (name, labels), value in exposed.items():
        flat[name] = flat.get(name, 0) + value
    for counter, family in RECONCILED.items():
        if stats["server"][counter] != flat.get(family):
            fail(
                f"stats server.{counter}={stats['server'][counter]} but "
                f"{family}={flat.get(family)}"
            )

    server = stats["server"]
    outcomes = server["served"] + server["rejected"] + server["errors"]
    if server["queries"] != outcomes:
        fail(
            f"stats server.queries={server['queries']} but served + "
            f"rejected + errors = {outcomes}"
        )

    records = StructuredLog(path=LOG_PATH).read_records()
    served = [
        r for r in records
        if r.get("event") == "query" and r.get("outcome") == "served"
    ]
    if not served:
        fail(f"no served query line in {LOG_PATH} ({len(records)} records)")
    if served[0].get("trace") != reply.trace:
        fail(
            f"log trace {served[0].get('trace')} != header trace "
            f"{reply.trace}"
        )

    spans = spans_for_trace(records, analyzed.trace)
    problems = validate_span_tree(spans)
    if problems:
        fail(f"span tree for trace {analyzed.trace}: {problems}")
    by_id = {r["span"]: r for r in spans}
    roots = [r for r in spans if r.get("parent") is None]
    if roots[0].get("name") != "client.attempt":
        fail(f"trace root is {roots[0].get('name')}, not client.attempt")
    search = [r for r in spans if r.get("name") == "engine.search"]
    if len(search) != 1:
        fail(f"expected one engine.search span, got {len(search)}")
    workers = [r for r in spans if r.get("name") == "worker.task"]
    if not workers:
        fail("no worker.task spans despite workers=2")
    for record in workers:
        if record.get("parent") != search[0]["span"]:
            fail(
                f"worker span {record['span']} parents under "
                f"{by_id.get(record.get('parent'), {}).get('name')}, "
                "not engine.search"
            )

    export = build_chrome_trace(spans)
    Path(TRACE_PATH).write_text(
        json.dumps(export, indent=2) + "\n", encoding="utf-8"
    )
    parsed = json.loads(Path(TRACE_PATH).read_text(encoding="utf-8"))
    if len(parsed.get("traceEvents", [])) != len(spans):
        fail(
            f"{TRACE_PATH} holds {len(parsed.get('traceEvents', []))} "
            f"events for {len(spans)} spans"
        )

    print(
        f"ok: {len(REQUIRED_FAMILIES)} families on both surfaces, "
        f"{len(RECONCILED)} counters reconciled, {server['queries']} "
        f"queries in counted outcomes, trace {reply.trace} "
        f"in {LOG_PATH}, {len(spans)} spans ({len(workers)} worker tasks) "
        f"exported to {TRACE_PATH}; {relabeled}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
