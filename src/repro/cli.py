"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``match``      run a matcher on query/data ``.graph`` files
``batch``      match a whole query set (glob) with a process-pool engine
``dataset``    synthesize a benchmark stand-in graph to a ``.graph`` file
``querygen``   extract queries from a data graph (random walk / cycles / mined)
``inspect``    print candidate-space and guard statistics for a query
``methods``    list registered matchers
``catalog``    manage the persistent graph catalog
               (``add``/``list``/``info``/``warm``/``remove``)
``serve``      run the long-running matching server over a catalog
``query``      send queries to a running server (blocking client)
``update``     apply a graph delta to an entry on a running server
``stats``      print a running server's counters as a table
``metrics``    print a running server's Prometheus exposition
``reload``     zero-downtime catalog reload on a running server
``drain``      gracefully drain and stop a running server
``trace``      export one trace's spans as Chrome trace-event JSON

Examples
--------
::

    python -m repro dataset yeast --out yeast.graph
    python -m repro querygen yeast.graph --size 8 --density sparse \
        --count 3 --out-prefix q
    python -m repro match q0.graph yeast.graph --method GuP --limit 10
    python -m repro batch 'q*.graph' yeast.graph --workers 4 --limit 1000
    python -m repro inspect q0.graph yeast.graph
    python -m repro catalog add yeast yeast.graph --root ./catalog
    python -m repro serve --root ./catalog --port 7464
    python -m repro query 'q*.graph' yeast --port 7464 --limit 10
    python -m repro update yeast edits.delta --port 7464
    python -m repro stats 127.0.0.1 7464
    python -m repro metrics 127.0.0.1 7464
    python -m repro reload 127.0.0.1 7464
    python -m repro drain 127.0.0.1 7464 --timeout 10
    python -m repro query q0.graph yeast --explain analyze
    python -m repro trace <trace-id> --log requests.jsonl --out trace.json
"""

from __future__ import annotations

import argparse
import glob as globlib
import os
import sys
import time
from typing import List, Optional

from repro.baselines.registry import MATCHERS, PAPER_METHODS, get_matcher
from repro.core.config import GuPConfig
from repro.core.gcs import build_gcs
from repro.graph.io import load_graph, save_graph
from repro.matching.limits import SearchLimits
from repro.workload.datasets import DATASETS, load_dataset
from repro.workload.hardness import generate_cycle_query, mine_hard_queries
from repro.workload.querygen import generate_query


def _add_match_parser(subparsers) -> None:
    p = subparsers.add_parser("match", help="run a matcher on .graph files")
    p.add_argument("query", help="query .graph file")
    p.add_argument("data", help="data .graph file")
    p.add_argument("--method", default="GuP", choices=MATCHERS)
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many embeddings")
    p.add_argument("--time-limit", type=float, default=None,
                   help="kill the search after SECONDS")
    p.add_argument("--recursion-limit", type=int, default=None,
                   help="kill the search after this many recursions")
    p.add_argument("--count-only", action="store_true",
                   help="print only the embedding count")
    p.add_argument("--max-print", type=int, default=20,
                   help="print at most this many embeddings")


def _add_batch_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "batch",
        help="match a query set against one data graph (process pool)",
    )
    p.add_argument("queries",
                   help="glob of query .graph files (quote it), or one file")
    p.add_argument("data", help="data .graph file")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process, artifacts still "
                        "shared across the set)")
    p.add_argument("--limit", type=int, default=None,
                   help="stop each query after this many embeddings")
    p.add_argument("--time-limit", type=float, default=None,
                   help="per-query wall-clock kill (seconds)")
    p.add_argument("--recursion-limit", type=int, default=None,
                   help="per-query virtual-time kill (recursions)")
    p.add_argument("--count-only", action="store_true",
                   help="count embeddings without materializing them")


def _add_dataset_parser(subparsers) -> None:
    p = subparsers.add_parser("dataset", help="synthesize a stand-in graph")
    p.add_argument("name", choices=sorted(DATASETS))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--out", required=True, help="output .graph path")


def _add_querygen_parser(subparsers) -> None:
    p = subparsers.add_parser("querygen", help="extract queries from a graph")
    p.add_argument("data", help="data .graph file")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--density", choices=["sparse", "dense"], default="sparse")
    p.add_argument("--kind", choices=["walk", "cycle", "hard"], default="walk")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="query",
                   help="queries are written to <prefix><i>.graph")


def _add_inspect_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "inspect", help="candidate space + guard statistics for a query"
    )
    p.add_argument("query", help="query .graph file")
    p.add_argument("data", help="data .graph file")
    p.add_argument("--reservation-limit", type=int, default=3)


def _add_bench_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "bench", help="quick method comparison on a synthetic workload"
    )
    p.add_argument("--dataset", default="wordnet", choices=sorted(DATASETS))
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--density", choices=["sparse", "dense"], default="sparse")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--hard", action="store_true",
                   help="mine the hard tail instead of random-walk queries")
    p.add_argument("--methods", nargs="+", default=list(PAPER_METHODS))
    p.add_argument("--recursion-limit", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=2023)


def _add_catalog_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "catalog", help="manage the persistent graph catalog"
    )
    sp = p.add_subparsers(dest="catalog_command", required=True)
    add = sp.add_parser("add", help="register a data graph under a name")
    add.add_argument("name", help="catalog entry name")
    add.add_argument("graph", help="data .graph file")
    add.add_argument("--root", default="catalog", help="catalog directory")
    add.add_argument("--overwrite", action="store_true",
                     help="replace an existing entry with a different graph")
    lst = sp.add_parser("list", help="list registered graphs")
    lst.add_argument("--root", default="catalog", help="catalog directory")
    warm = sp.add_parser(
        "warm",
        help="load an entry cold: check its snapshot, replay its log",
    )
    warm.add_argument("names", nargs="+", help="entries to warm")
    warm.add_argument("--root", default="catalog", help="catalog directory")
    info = sp.add_parser("info", help="show one entry's metadata")
    info.add_argument("name", help="catalog entry name")
    info.add_argument("--root", default="catalog", help="catalog directory")
    remove = sp.add_parser("remove", help="delete an entry from the catalog")
    remove.add_argument("names", nargs="+", help="entries to remove")
    remove.add_argument("--root", default="catalog", help="catalog directory")


def _add_serve_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "serve", help="run the long-running matching server"
    )
    p.add_argument("--root", default="catalog", help="catalog directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help="TCP port (0 = pick a free one and print it)")
    p.add_argument("--max-inflight", type=int, default=2,
                   help="queries executing concurrently")
    p.add_argument("--max-pending", type=int, default=8,
                   help="admitted-but-waiting queries before rejection")
    p.add_argument("--max-resident", type=int, default=4,
                   help="data graphs kept warm in memory (LRU)")
    p.add_argument("--cache-entries", type=int, default=256,
                   help="query-cache slots per data graph")
    p.add_argument("--time-limit", type=float, default=None,
                   help="default per-query wall-clock budget (seconds)")
    p.add_argument("--recursion-limit", type=int, default=None,
                   help="default per-query recursion budget")
    p.add_argument("--high-headroom", type=int, default=1,
                   help="reserve slots only high-priority queries may use")
    p.add_argument("--subscriber-queue", type=int, default=64,
                   help="buffered diff events per subscriber")
    p.add_argument("--subscriber-policy", default="disconnect",
                   choices=("disconnect", "drop"),
                   help="what to do when a subscriber's queue overflows")
    p.add_argument("--request-log", default=None, metavar="PATH",
                   help="append one structured JSON log line per request "
                        "to PATH (trace ids propagate into pool workers); "
                        "without it no request log is kept")
    p.add_argument("--tenants", default=None, metavar="FILE",
                   help="JSON file of per-tenant admission classes "
                        "(rate/burst/max_inflight/weight/max_workers)")
    p.add_argument("--tenant", action="append", default=[], metavar="SPEC",
                   help="inline tenant class 'name:key=val,...' "
                        "(repeatable; overrides --tenants entries)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="graceful-drain wait for in-flight queries on "
                        "SIGINT/SIGTERM or the 'drain' op (seconds)")


def _add_query_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "query", help="send queries to a running matching server"
    )
    p.add_argument("queries",
                   help="glob of query .graph files (quote it), or one file")
    p.add_argument("data", help="catalog entry name on the server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--limit", type=int, default=None,
                   help="stop each query after this many embeddings")
    p.add_argument("--time-limit", type=float, default=None,
                   help="per-query wall-clock kill (seconds)")
    p.add_argument("--recursion-limit", type=int, default=None,
                   help="per-query virtual-time kill (recursions)")
    p.add_argument("--workers", type=int, default=1,
                   help="root-partitioned procpool workers on the server")
    p.add_argument("--count-only", action="store_true",
                   help="count embeddings without materializing them")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the server's query cache")
    p.add_argument("--max-print", type=int, default=5,
                   help="print at most this many embeddings per query")
    p.add_argument("--priority", default=None,
                   choices=("high", "normal", "low"),
                   help="load-shedding class on an overloaded server")
    p.add_argument("--tenant", default=None,
                   help="tenant name stamped on every request (admission "
                        "class on a multi-tenant server)")
    p.add_argument("--deadline", type=float, default=None,
                   help="total wall-clock budget per query incl. retries")
    p.add_argument("--retries", type=int, default=0,
                   help="retry attempts for shed/broken requests")
    p.add_argument("--explain", default=None, choices=("plan", "analyze"),
                   help="attach an EXPLAIN report: 'plan' reports the "
                        "matching order/filters without searching, "
                        "'analyze' runs the real search and attributes "
                        "the work (cache bypassed)")


def _add_trace_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "trace",
        help="export one trace's spans as Chrome trace-event JSON",
    )
    p.add_argument("trace", help="trace id (from a query reply or log line)")
    p.add_argument("--log", required=True,
                   help="structured request log (JSON lines) to read")
    p.add_argument("--out", default="trace.json",
                   help="output path for the Chrome trace-event JSON")


def _add_stats_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "stats", help="print a running server's counters as a table"
    )
    p.add_argument("host", nargs="?", default="127.0.0.1")
    p.add_argument("port", nargs="?", type=int, default=DEFAULT_PORT)


def _add_metrics_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "metrics",
        help="print a running server's Prometheus text exposition",
    )
    p.add_argument("host", nargs="?", default="127.0.0.1")
    p.add_argument("port", nargs="?", type=int, default=DEFAULT_PORT)


def _add_reload_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "reload",
        help="zero-downtime catalog reload on a running server",
    )
    p.add_argument("host", nargs="?", default="127.0.0.1")
    p.add_argument("port", nargs="?", type=int, default=DEFAULT_PORT)


def _add_drain_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "drain",
        help="gracefully drain and stop a running server",
    )
    p.add_argument("host", nargs="?", default="127.0.0.1")
    p.add_argument("port", nargs="?", type=int, default=DEFAULT_PORT)
    p.add_argument("--timeout", type=float, default=None,
                   help="wait this long for in-flight queries "
                        "(default: the server's --drain-timeout)")


def _add_update_parser(subparsers) -> None:
    from repro.service.server import DEFAULT_PORT

    p = subparsers.add_parser(
        "update",
        help="apply a graph delta to an entry on a running server",
    )
    p.add_argument("data", help="catalog entry name on the server")
    p.add_argument("delta",
                   help="delta file (av <label> / ae <u> <v> / re <u> <v>)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GuP subgraph matching (SIGMOD 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_match_parser(subparsers)
    _add_batch_parser(subparsers)
    _add_dataset_parser(subparsers)
    _add_querygen_parser(subparsers)
    _add_inspect_parser(subparsers)
    _add_bench_parser(subparsers)
    _add_catalog_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_query_parser(subparsers)
    _add_update_parser(subparsers)
    _add_stats_parser(subparsers)
    _add_metrics_parser(subparsers)
    _add_reload_parser(subparsers)
    _add_drain_parser(subparsers)
    _add_trace_parser(subparsers)
    subparsers.add_parser("methods", help="list registered matchers")
    return parser


def _cmd_match(args) -> int:
    query = load_graph(args.query)
    data = load_graph(args.data)
    limits = SearchLimits(
        max_embeddings=args.limit,
        time_limit=args.time_limit,
        max_recursions=args.recursion_limit,
        collect=not args.count_only,
    )
    result = get_matcher(args.method).match(query, data, limits)
    print(f"method:      {result.method}")
    print(f"embeddings:  {result.num_embeddings}")
    print(f"status:      {result.status.value}")
    print(f"time:        {result.total_seconds:.4f}s "
          f"(preprocessing {result.preprocessing_seconds:.4f}s)")
    print(f"recursions:  {result.stats.recursions} "
          f"({result.stats.futile_recursions} futile)")
    if not args.count_only:
        shown = result.embeddings[: args.max_print]
        for e in shown:
            print("  " + " ".join(f"u{i}->v{v}" for i, v in enumerate(e)))
        hidden = result.num_embeddings - len(shown)
        if hidden > 0:
            print(f"  ... and {hidden} more")
    return 0


def _expand_queries(pattern: str) -> List[str]:
    """Query workload paths for a glob (or literal path) argument.

    Empty means *no matching files*, so callers can fail loudly instead
    of running a silent empty workload.  A literal path wins over its
    glob reading when the file exists (e.g. a file actually named
    ``q[1].graph``).
    """
    paths = sorted(globlib.glob(pattern))
    if not paths and os.path.exists(pattern):
        return [pattern]
    return paths


def _cmd_batch(args) -> int:
    from repro.bench.report import format_table
    from repro.core.engine import GuPEngine

    paths = _expand_queries(args.queries)
    if not paths:
        print(f"error: no query files match {args.queries!r}", file=sys.stderr)
        return 2
    try:
        queries = [load_graph(path) for path in paths]
        data = load_graph(args.data)
    except (OSError, ValueError) as exc:  # missing file or malformed .graph
        print(f"error: {exc}", file=sys.stderr)
        return 1
    limits = SearchLimits(
        max_embeddings=args.limit,
        time_limit=args.time_limit,
        max_recursions=args.recursion_limit,
        collect=not args.count_only,
    )
    engine = GuPEngine(data)
    started = time.perf_counter()
    results = engine.match_many(queries, limits=limits, workers=args.workers)
    wall = time.perf_counter() - started

    rows = []
    for path, result in zip(paths, results):
        rows.append(
            [
                path,
                result.num_embeddings,
                result.status.value,
                result.stats.recursions,
                f"{result.total_seconds:.4f}s",
            ]
        )
    print(
        format_table(
            ["Query", "Embeddings", "Status", "Recursions", "Time"],
            rows,
            title=(
                f"batch: {len(queries)} queries vs {args.data} "
                f"(workers={args.workers})"
            ),
        )
    )
    total_embeddings = sum(r.num_embeddings for r in results)
    total_recursions = sum(r.stats.recursions for r in results)
    print(f"total embeddings: {total_embeddings}")
    print(f"total recursions: {total_recursions}")
    print(f"wall time:        {wall:.4f}s")
    return 0


def _cmd_dataset(args) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    save_graph(graph, args.out)
    print(f"wrote {args.out}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges, {len(graph.label_set)} labels")
    return 0


def _cmd_querygen(args) -> int:
    data = load_graph(args.data)
    queries = []
    if args.kind == "walk":
        for i in range(args.count):
            queries.append(
                generate_query(data, args.size, args.density, seed=args.seed + i)
            )
    elif args.kind == "cycle":
        for i in range(args.count):
            q = generate_cycle_query(
                data, max(3, args.size - 2), args.size + 2, seed=args.seed + i
            )
            if q is None:
                print("error: data graph has no cycle of the requested length",
                      file=sys.stderr)
                return 1
            queries.append(q)
    else:  # hard
        queries = mine_hard_queries(
            data, count=args.count, size=args.size, density=args.density,
            seed=args.seed,
        )
    for i, q in enumerate(queries):
        path = f"{args.out_prefix}{i}.graph"
        save_graph(q, path)
        print(f"wrote {path}: {q.num_vertices} vertices, {q.num_edges} edges "
              f"(avg degree {q.average_degree():.2f})")
    return 0


def _cmd_inspect(args) -> int:
    query = load_graph(args.query)
    data = load_graph(args.data)
    config = GuPConfig(reservation_limit=args.reservation_limit)
    gcs = build_gcs(query, data, config)

    print(f"query: {query}")
    print(f"data:  {data}")
    print(f"matching order (original ids): {gcs.order}")
    print(f"candidate space: {gcs.cs.total_candidates()} vertices, "
          f"{gcs.cs.num_candidate_edges} edges")
    for i in gcs.query.vertices():
        size = len(gcs.cs.candidates[i])
        print(f"  u{gcs.order[i]} (step {i}): {size} candidates")

    print(f"reservation guards: {sum(gcs.reservation_sizes().values())} "
          f"total, {gcs.nontrivial_reservations} non-trivial")
    print(f"2-core query edges (NE-guard eligible): {len(gcs.two_core)}")
    print(f"GCS build time: {gcs.build_seconds:.4f}s")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.report import format_table

    data = load_dataset(args.dataset, seed=args.seed)
    if args.hard:
        queries = mine_hard_queries(
            data, count=args.count, size=args.size, density=args.density,
            seed=args.seed,
        )
    else:
        queries = [
            generate_query(data, args.size, args.density, seed=args.seed + i)
            for i in range(args.count)
        ]
    limits = SearchLimits(
        max_embeddings=1_000,
        max_recursions=args.recursion_limit,
        collect=False,
    )

    rows = []
    for method in args.methods:
        matcher = get_matcher(method)
        recursions = embeddings = timeouts = 0
        wall = 0.0
        for query in queries:
            result = matcher.match(query, data, limits)
            recursions += result.stats.recursions
            embeddings += result.num_embeddings
            timeouts += int(result.timed_out)
            wall += result.total_seconds
        rows.append(
            [method, recursions, embeddings, timeouts, f"{wall:.2f}s"]
        )
    rows.sort(key=lambda r: r[1])
    print(
        format_table(
            ["Method", "Recursions", "Embeddings", "Kills", "Wall"],
            rows,
            title=(
                f"{args.dataset} {args.size}{args.density[0].upper()} "
                f"({'hard' if args.hard else 'random'} x{len(queries)}, "
                f"kill={args.recursion_limit} recursions)"
            ),
        )
    )
    return 0


def _cmd_methods(_args) -> int:
    for name in MATCHERS:
        print(name)
    return 0


def _cmd_catalog(args) -> int:
    from repro.service.catalog import CatalogError, GraphCatalog

    catalog = GraphCatalog(args.root)
    try:
        if args.catalog_command == "add":
            info = catalog.add(args.name, args.graph, overwrite=args.overwrite)
            print(f"added {info['name']}: {info['num_vertices']} vertices, "
                  f"{info['num_edges']} edges "
                  f"(checksum {str(info['graph_checksum'])[:12]})")
        elif args.catalog_command == "list":
            names = catalog.names()
            if not names:
                print(f"catalog {args.root}: empty")
            for name in names:
                info = catalog.info(name)
                print(f"{name}: {info['num_vertices']} vertices, "
                      f"{info['num_edges']} edges "
                      f"(checksum {str(info['graph_checksum'])[:12]})")
        elif args.catalog_command == "info":
            info = catalog.info(args.name)
            print(f"name:       {info['name']}")
            print(f"vertices:   {info['num_vertices']}")
            print(f"edges:      {info['num_edges']}")
            print(f"epoch:      {info['epoch']}")
            print(f"checksum:   {info['graph_checksum']}")
            print(f"resident:   {'yes' if info['resident'] else 'no'}")
        elif args.catalog_command == "remove":
            for name in args.names:
                catalog.remove(name)
                print(f"removed {name}")
        else:  # warm
            for name in args.names:
                epoch = catalog.engine_ex(name)[2]
                print(f"{name}: ok (epoch {epoch})")
    except (CatalogError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.obs import Observability, StructuredLog
    from repro.service.catalog import GraphCatalog
    from repro.service.server import MatchingServer
    from repro.service.tenancy import (
        TenancyError,
        TenantTable,
        tenant_from_spec,
        tenants_from_file,
    )

    try:
        specs = tenants_from_file(args.tenants) if args.tenants else {}
        for inline in args.tenant:
            spec = tenant_from_spec(inline)
            specs[spec.name] = spec
    except TenancyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tenants = TenantTable(specs) if specs else None

    catalog = GraphCatalog(args.root, max_resident=args.max_resident)
    obs = None
    if args.request_log:
        obs = Observability(log=StructuredLog(path=args.request_log))
    server = MatchingServer(
        catalog,
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        cache_entries=args.cache_entries,
        default_time_limit=args.time_limit,
        default_recursion_limit=args.recursion_limit,
        high_headroom=args.high_headroom,
        subscriber_queue=args.subscriber_queue,
        subscriber_policy=args.subscriber_policy,
        obs=obs,
        tenants=tenants,
        drain_timeout=args.drain_timeout,
    )

    async def run() -> None:
        # SIGINT/SIGTERM request a graceful drain: stop admitting,
        # wait (bounded by --drain-timeout) for in-flight queries,
        # then shut down through the same path as the "shutdown" op —
        # instead of unwinding a KeyboardInterrupt through whatever
        # the event loop happened to be doing.  SIGHUP triggers a
        # zero-downtime catalog reload (DESIGN.md §13).
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loop: fall back to KeyboardInterrupt
        if hasattr(signal, "SIGHUP"):
            try:
                loop.add_signal_handler(signal.SIGHUP, server.request_reload)
            except (NotImplementedError, RuntimeError):
                pass
        host, port = await server.start(args.host, args.port)
        print(f"serving catalog {args.root} on {host}:{port}", flush=True)
        await server.wait_closed()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    print("server stopped", flush=True)
    return 0


def _cmd_query(args) -> int:
    from repro.service.client import (
        RetryPolicy,
        ServiceClient,
        ServiceError,
    )

    paths = _expand_queries(args.queries)
    if not paths:
        print(f"error: no query files match {args.queries!r}", file=sys.stderr)
        return 2
    try:
        texts = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append(handle.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    total = 0
    retry = (
        RetryPolicy(attempts=args.retries + 1) if args.retries > 0 else None
    )
    try:
        with ServiceClient(
            args.host, args.port, retry=retry, tenant=args.tenant
        ) as client:
            for path, text in zip(paths, texts):
                reply = client.query(
                    text,
                    args.data,
                    limit=args.limit,
                    time_limit=args.time_limit,
                    recursion_limit=args.recursion_limit,
                    workers=args.workers,
                    count_only=args.count_only,
                    cache=not args.no_cache,
                    priority=args.priority,
                    deadline=args.deadline,
                    explain=args.explain,
                )
                total += reply.num_embeddings
                print(f"{path}: {reply.num_embeddings} embeddings, "
                      f"{reply.status}, cache {reply.cache}, "
                      f"trace {reply.trace}, "
                      f"{reply.elapsed:.4f}s "
                      f"(queue {reply.queue_seconds:.4f}s, "
                      f"exec {reply.server_seconds:.4f}s)")
                if reply.explain:
                    _print_explain(reply.explain)
                for e in reply.embeddings[: args.max_print]:
                    print("  " + " ".join(
                        f"u{i}->v{v}" for i, v in enumerate(e)))
                hidden = len(reply.embeddings) - args.max_print
                if hidden > 0:
                    print(f"  ... and {hidden} more")
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"total embeddings: {total}")
    return 0


def _print_explain(report: dict) -> None:
    """Compact human rendering of an EXPLAIN/ANALYZE report."""
    print(f"  explain ({report.get('mode')}): "
          f"ordering {report.get('ordering')}, "
          f"filter {report.get('filter')}")
    print(f"    order: {report.get('order')}")
    for stage in report.get("stages") or []:
        print(f"    stage {stage.get('stage')}: "
              f"{stage.get('total')} candidates "
              f"{stage.get('candidates_per_vertex')}")
    reservations = report.get("reservations") or {}
    print(f"    reservations: {reservations.get('guards', 0)} guards, "
          f"{reservations.get('reserved_vertices', 0)} reserved vertices")
    qcache = report.get("qcache") or {}
    print(f"    qcache: {qcache.get('decision')}"
          + (f" ({qcache.get('reason')})" if qcache.get("reason") else ""))
    if report.get("mode") == "analyze":
        search = report.get("search") or {}
        print(f"    search: {search.get('recursions', 0)} recursions, "
              f"{search.get('backjumps', 0)} backjumps, "
              f"{search.get('pruned_by_guards', 0)} guard-pruned, "
              f"{search.get('nogoods_recorded_vertex', 0)}/"
              f"{search.get('nogoods_recorded_edge', 0)} "
              f"vertex/edge nogoods recorded")
        pruned = [
            f"{key[len('pruned_'):]} {search[key]}"
            for key in sorted(search)
            if key.startswith("pruned_") and key != "pruned_by_guards"
            and search[key]
        ]
        if pruned:
            print(f"    pruned: {', '.join(pruned)}")
        for task in report.get("tasks") or []:
            print(f"    worker task {task.get('index')} "
                  f"(root v{task.get('vertex')}): "
                  f"{task.get('embeddings_found')} embeddings, "
                  f"{task.get('recursions')} recursions, "
                  f"{task.get('elapsed_seconds'):.4f}s")


def _cmd_trace(args) -> int:
    import json

    from repro.obs.spans import (
        build_chrome_trace,
        spans_for_trace,
        validate_span_tree,
    )

    records = []
    try:
        with open(args.log, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail line of a live log
                if isinstance(record, dict):
                    records.append(record)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spans = spans_for_trace(records, args.trace)
    if not spans:
        print(f"error: no spans for trace {args.trace!r} in {args.log}",
              file=sys.stderr)
        return 1
    problems = validate_span_tree(spans)
    export = build_chrome_trace(spans)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(export, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(spans)} span(s) for trace {args.trace} -> {args.out}")
    for record in spans:
        print(f"  {record.get('name')} span={record.get('span')} "
              f"parent={record.get('parent')} "
              f"dur={record.get('dur', 0.0):.6f}s pid={record.get('pid')}")
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_update(args) -> int:
    from repro.dynamic.delta import DeltaError, load_delta
    from repro.service.client import ServiceClient, ServiceError

    try:
        delta = load_delta(args.delta)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DeltaError as exc:
        print(f"error: {args.delta}: {exc}", file=sys.stderr)
        return 1
    try:
        with ServiceClient(args.host, args.port) as client:
            reply = client.update(args.data, delta)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = reply.summary
    print(f"{args.data}: epoch {reply.epoch} "
          f"({reply.entry.get('num_vertices')} vertices, "
          f"{reply.entry.get('num_edges')} edges)")
    print(f"delta:        +{summary.get('added_vertices', 0)} vertices, "
          f"+{summary.get('added_edges', 0)}/-{summary.get('removed_edges', 0)}"
          f" edges, {summary.get('touched_vertices', 0)} vertices touched")
    print(f"query cache:  {reply.qcache_kept} kept, "
          f"{reply.qcache_evicted} evicted")
    print(f"subscribers:  {reply.subscribers_notified} notified")
    return 0


def _cmd_stats(args) -> int:
    from repro.bench.report import format_table
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            stats = client.stats()
    except (ServiceError, OSError) as exc:
        print(f"error: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    def counter_rows(section) -> List[List[str]]:
        rows = []
        for key in sorted(section):
            value = section[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows.append([key, value])
        return rows

    server = stats.get("server", {})
    print(format_table(
        ["Counter", "Value"], counter_rows(server),
        title=f"server {args.host}:{args.port}",
    ))
    tenants = stats.get("tenants") or {}
    if tenants:
        rows = []
        for name in sorted(tenants):
            t = tenants[name]
            shed = {
                key[len("shed_"):]: value
                for key, value in sorted(t.items())
                if key.startswith("shed_") and value
            }
            rows.append([
                name, t.get("weight", 1), t.get("inflight", 0),
                t.get("queries", 0), t.get("admitted", 0),
                t.get("served", 0),
                ", ".join(f"{k}={v}" for k, v in shed.items()) or "-",
            ])
        print(format_table(
            ["Tenant", "Weight", "Inflight", "Queries", "Admitted",
             "Served", "Shed"],
            rows, title="tenants",
        ))
    catalog = stats.get("catalog", {})
    print(format_table(
        ["Counter", "Value"], counter_rows(catalog), title="catalog",
    ))
    resident = catalog.get("resident") or []
    if resident:
        print(f"resident: {', '.join(resident)}")
    qcache = stats.get("qcache", {})
    per_data = qcache.get("per_data") or {}
    rows = [
        [name, c.get("entries", 0), c.get("hits", 0), c.get("misses", 0),
         c.get("evictions", 0)]
        for name, c in sorted(per_data.items())
    ]
    print(format_table(
        ["Data", "Entries", "Hits", "Misses", "Evictions"], rows,
        title=(f"query cache ({qcache.get('hits', 0)} hits / "
               f"{qcache.get('misses', 0)} misses)"),
    ))
    return 0


def _cmd_metrics(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            text = client.metrics()
    except (ServiceError, OSError) as exc:
        print(f"error: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _cmd_reload(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            reply = client.reload()
    except (ServiceError, OSError) as exc:
        print(f"error: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    report = reply.get("report") or {}
    for name in sorted(report):
        info = report[name]
        line = f"{name}: {info.get('action')}"
        if info.get("action") == "reloaded":
            line += (f" (epoch {info.get('old_epoch')} -> "
                     f"{info.get('epoch')})")
        print(line)
    if not report:
        print("catalog empty")
    print(f"replayed {reply.get('replayed', 0)} subscription(s)")
    return 0


def _cmd_drain(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            reply = client.drain(timeout=args.timeout)
    except (ServiceError, OSError) as exc:
        print(f"error: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    drained = bool(reply.get("drained"))
    active = int(reply.get("active", 0))
    if drained:
        print("drained: server stopping with no queries in flight")
        return 0
    print(f"error: drain timed out with {active} query(ies) still "
          f"running (server stopping anyway)", file=sys.stderr)
    return 1


COMMANDS = {
    "match": _cmd_match,
    "batch": _cmd_batch,
    "dataset": _cmd_dataset,
    "querygen": _cmd_querygen,
    "inspect": _cmd_inspect,
    "bench": _cmd_bench,
    "catalog": _cmd_catalog,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "update": _cmd_update,
    "stats": _cmd_stats,
    "metrics": _cmd_metrics,
    "reload": _cmd_reload,
    "drain": _cmd_drain,
    "trace": _cmd_trace,
    "methods": _cmd_methods,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (also wired as ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
