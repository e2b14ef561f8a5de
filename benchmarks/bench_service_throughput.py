"""Service throughput: queries/sec against a live server, cold vs warm.

Spins up the real stack — on-disk :class:`GraphCatalog`,
:class:`MatchingServer` on a TCP socket, blocking
:class:`ServiceClient` — and measures end-to-end queries/sec over a
fig6-style query set (each query repeated with permuted vertex
numbering, as a real workload would re-issue it):

* **cold** — fresh server process state: the first pass loads the
  catalog entry from disk (building its artifacts once), runs every
  query on the engine, and populates the query cache;
* **warm** — the same workload again: engines resident, every query a
  canonicalization cache hit (the catalog performs zero ``add`` builds,
  asserted from ``stats``);
* **procpool** — the cache-bypassing heavy path (``workers=2``),
  root-partitioned over the process pool.

Every pass first verifies the served results are byte-identical to
direct ``GuPEngine.match`` before timing anything.  Emits
``BENCH_service.json`` at the repo root (alongside
``BENCH_hotpath.json``) and a text table under ``benchmarks/results/``.

Run: ``python benchmarks/bench_service_throughput.py [--count N]
[--repeats R] [--out PATH]``
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.engine import GuPEngine  # noqa: E402
from repro.matching.limits import SearchLimits  # noqa: E402
from repro.service.catalog import GraphCatalog  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServerThread  # noqa: E402
from repro.workload.datasets import load_dataset  # noqa: E402
from repro.workload.querygen import QuerySetSpec, generate_query_set  # noqa: E402

DATASET = "wordnet"
SCALE = 0.25
SEED = 2023
LIMIT = 1_000
DEFAULT_OUT = ROOT / "BENCH_service.json"
RESULTS = ROOT / "benchmarks" / "results" / "service_throughput.txt"


def build_workload(count: int, repeats: int):
    """``count`` base queries, each re-issued ``repeats`` times with a
    shuffled vertex numbering (isomorphic re-requests, the cache's
    bread and butter)."""
    data = load_dataset(DATASET, scale=SCALE, seed=SEED)
    base = list(
        generate_query_set(data, QuerySetSpec(8, "sparse"), count=count,
                           seed=SEED)
    )
    rng = random.Random(SEED)
    workload = []
    for repeat in range(repeats):
        for i, query in enumerate(base):
            if repeat == 0:
                workload.append((i, query))
            else:
                perm = list(range(query.num_vertices))
                rng.shuffle(perm)
                workload.append((i, query.relabeled(perm)))
    return data, base, workload


def timed_pass(client, workload, **query_kwargs):
    """(seconds, qps, cache disposition counts) over one workload pass."""
    dispositions = {}
    started = time.perf_counter()
    for _, query in workload:
        reply = client.query(query, DATASET, limit=LIMIT, **query_kwargs)
        dispositions[reply.cache] = dispositions.get(reply.cache, 0) + 1
    seconds = time.perf_counter() - started
    return seconds, len(workload) / seconds, dispositions


def run(count: int, repeats: int, workers: int):
    data, base, workload = build_workload(count, repeats)
    with tempfile.TemporaryDirectory(prefix="repro-bench-catalog-") as tmp:
        GraphCatalog(tmp).add(DATASET, data)  # persist, then start cold
        catalog = GraphCatalog(tmp)
        with ServerThread(catalog, max_inflight=2) as thread:
            with ServiceClient(*thread.address) as client:
                # Exactness first: served == direct, embedding for
                # embedding, before any timing claims.
                engine = GuPEngine(data)
                limits = SearchLimits(max_embeddings=LIMIT)
                direct = {
                    i: engine.match(q, limits=limits)
                    for i, q in enumerate(base)
                }
                for i, query in workload[: len(base)]:
                    reply = client.query(query, DATASET, limit=LIMIT,
                                         cache=False)
                    expected = direct[i]
                    assert reply.embeddings == expected.embeddings
                    assert reply.num_embeddings == expected.num_embeddings
                    assert reply.status == expected.status.value

                baseline = client.stats()
        # Fresh server for the timed cold pass (the verification above
        # warmed the engines).
        catalog = GraphCatalog(tmp)
        with ServerThread(catalog, max_inflight=2) as thread:
            with ServiceClient(*thread.address) as client:
                cold_seconds, cold_qps, cold_kinds = timed_pass(
                    client, workload
                )
                warm_seconds, warm_qps, warm_kinds = timed_pass(
                    client, workload
                )
                pool_seconds, pool_qps, _ = timed_pass(
                    client, workload[: len(base)], workers=workers,
                    cache=False,
                )
                stats = client.stats()

    assert stats["catalog"]["artifact_builds"] == 0
    assert warm_kinds.get("hit", 0) == len(workload), warm_kinds

    qcache = stats["qcache"]
    hit_rate = qcache["hits"] / max(qcache["hits"] + qcache["misses"], 1)
    return {
        "dataset": DATASET,
        "scale": SCALE,
        "workload": {
            "base_queries": len(base),
            "requests_per_pass": len(workload),
            "isomorphic_reissues": repeats - 1,
            "limit": LIMIT,
            "procpool_workers": workers,
        },
        "cold": {
            "seconds": round(cold_seconds, 4),
            "qps": round(cold_qps, 2),
            "dispositions": cold_kinds,
        },
        "warm": {
            "seconds": round(warm_seconds, 4),
            "qps": round(warm_qps, 2),
            "dispositions": warm_kinds,
        },
        "procpool": {
            "seconds": round(pool_seconds, 4),
            "qps": round(pool_qps, 2),
        },
        "warm_speedup": round(warm_qps / cold_qps, 3),
        "qcache_hit_rate": round(hit_rate, 4),
        "server_stats": {
            "catalog": stats["catalog"],
            "server": stats["server"],
        },
        "verified": "served results byte-identical to direct GuPEngine.match",
        "baseline_stats_after_verify": baseline["server"]["served"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=4,
                        help="base fig6-style queries")
    parser.add_argument("--repeats", type=int, default=3,
                        help="passes of isomorphic re-issues per pass")
    parser.add_argument("--workers", type=int, default=2,
                        help="procpool workers for the heavy path")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = run(args.count, args.repeats, args.workers)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"service throughput ({DATASET} x{SCALE}, "
        f"{report['workload']['requests_per_pass']} requests/pass, "
        f"limit {LIMIT}):",
        f"  cold:     {report['cold']['qps']:8.2f} q/s "
        f"({report['cold']['seconds']}s)  {report['cold']['dispositions']}",
        f"  warm:     {report['warm']['qps']:8.2f} q/s "
        f"({report['warm']['seconds']}s)  {report['warm']['dispositions']}",
        f"  procpool: {report['procpool']['qps']:8.2f} q/s "
        f"(workers={report['workload']['procpool_workers']}, cache off)",
        f"  warm speedup {report['warm_speedup']}x, "
        f"qcache hit rate {report['qcache_hit_rate']:.1%}",
        f"  artifact builds during serving: "
        f"{report['server_stats']['catalog']['artifact_builds']}",
    ]
    text = "\n".join(lines)
    print(text)
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {args.out} and {RESULTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
