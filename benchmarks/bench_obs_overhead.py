"""Observability overhead: metrics-on vs metrics-off hot-path latency.

The ``repro.obs`` layer is supposed to be cheap enough to stay on by
default: per served query the server records four phase histogram
samples plus one request histogram sample, refreshes gauges only at
scrape time, and emits one structured JSON log line.  This benchmark
puts a number on that claim.  A server keeps no log unless given one,
so both comparisons pass an in-memory ``StructuredLog`` explicitly: the
"on" side prices the log record and the engine spans as well.

One server serves a warm cache-hit workload (the service hot path)
while ``Observability.enabled`` is toggled *per request* (each query
timed on both sides back to back) — same process, same socket, same
connection, so per-instance bias (two servers differ by several
percent on an otherwise identical setup) and CPU-frequency drift land
on both sides equally.  The figure of merit is the *median paired
difference* — ``median(on_i - off_i)`` over the sample pairs, relative
to the off-side p50 — which cancels the common-mode noise each pair
shares; the difference of independently-computed medians swings ±7%
run to run on a shared box, an order of magnitude more than the
effect being measured.  ``check_perf.py --gate obs`` holds the
overhead to ≤5% of p50 (computed fresh — latencies on a shared box
are not stable enough to commit as an absolute baseline).

A second paired comparison prices **EXPLAIN ANALYZE**: the same query
run cache-bypassed plain vs with ``explain="analyze"`` (which runs the
identical search plus stage-count collection and report assembly).  ``check_perf.py --gate obs`` holds
analyze-mode to ≤15% of the plain cache-bypass p50.

The measured numbers are merged into ``BENCH_service.json`` under
additive ``obs`` and ``obs_analyze`` keys (the rest of the file is
left untouched).

Run: ``python benchmarks/bench_obs_overhead.py [--batches N]
[--batch-size K] [--out PATH]``
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.obs import Observability, StructuredLog  # noqa: E402
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
RESULTS = ROOT / "benchmarks" / "results" / "obs_overhead.txt"


def _timed_request(client, query) -> float:
    started = time.perf_counter()
    reply = client.query(query, DATASET, limit=LIMIT)
    elapsed = time.perf_counter() - started
    assert reply.cache == "hit", reply.cache
    return elapsed


def run_overhead(batches: int, batch_size: int) -> dict:
    """Paired-sample A/B comparison; returns the ``obs`` report dict."""
    data = load_dataset(DATASET, scale=SCALE, seed=SEED)
    queries = list(
        generate_query_set(data, QuerySetSpec(8, "sparse"), count=2,
                           seed=SEED)
    )
    workload = [queries[i % len(queries)] for i in range(batch_size)]

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        GraphCatalog(tmp).add(DATASET, data)
        obs = Observability(log=StructuredLog())
        thread = ServerThread(GraphCatalog(tmp), max_inflight=2, obs=obs)
        latencies = {"on": [], "off": []}
        with thread:
            with ServiceClient(*thread.address) as client:
                # Warm up: engines resident, every timed request a
                # query-cache hit — the pure service hot path.
                for query in workload:
                    client.query(query, DATASET, limit=LIMIT)
                # Toggle the master switch per request — each query is
                # timed on both sides back to back, with the order
                # alternating, so drift (CPU frequency ramps,
                # page-cache warming) lands on both sides equally and
                # cannot masquerade as observability overhead.
                index = 0
                for _ in range(batches):
                    for query in workload:
                        order = (
                            ("on", "off") if index % 2 == 0
                            else ("off", "on")
                        )
                        index += 1
                        for name in order:
                            obs.enabled = name == "on"
                            latencies[name].append(
                                _timed_request(client, query)
                            )
        obs.enabled = True

    p50_on = statistics.median(latencies["on"])
    p50_off = statistics.median(latencies["off"])
    # Each (on_i, off_i) pair ran back to back, so their difference
    # cancels whatever the box was doing at that moment; the median of
    # those differences isolates the per-request observability cost.
    paired_diff = statistics.median(
        on - off for on, off in zip(latencies["on"], latencies["off"])
    )
    return {
        "workload": {
            "batches": batches,
            "batch_size": batch_size,
            "requests_per_side": batches * batch_size,
            "limit": LIMIT,
            "path": ("warm query-cache hits, one server, enabled toggled "
                     "per request (paired samples)"),
        },
        "p50_on_ms": round(p50_on * 1e3, 4),
        "p50_off_ms": round(p50_off * 1e3, 4),
        "paired_overhead_ms": round(paired_diff * 1e3, 4),
        "overhead_ratio": round(1.0 + paired_diff / p50_off, 4),
    }


def run_analyze_overhead(batches: int, batch_size: int) -> dict:
    """Paired plain vs ``explain="analyze"`` comparison (cache bypassed).

    Both sides run the identical engine search (the differential tests
    prove byte-identical results); analyze adds the stage-count
    collection, report assembly, reply payload, and the sidecar write.
    Returns the ``obs_analyze`` report dict.
    """
    data = load_dataset(DATASET, scale=SCALE, seed=SEED)
    queries = list(
        generate_query_set(data, QuerySetSpec(8, "sparse"), count=2,
                           seed=SEED)
    )
    workload = [queries[i % len(queries)] for i in range(batch_size)]

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        GraphCatalog(tmp).add(DATASET, data)
        thread = ServerThread(
            GraphCatalog(tmp), max_inflight=2,
            obs=Observability(log=StructuredLog()),
        )
        latencies = {"plain": [], "analyze": []}
        with thread:
            with ServiceClient(*thread.address) as client:
                for query in workload:  # engines resident before timing
                    client.query(query, DATASET, limit=LIMIT, cache=False)
                index = 0
                for _ in range(batches):
                    for query in workload:
                        order = (
                            ("plain", "analyze") if index % 2 == 0
                            else ("analyze", "plain")
                        )
                        index += 1
                        for name in order:
                            explain = (
                                "analyze" if name == "analyze" else None
                            )
                            started = time.perf_counter()
                            reply = client.query(
                                query, DATASET, limit=LIMIT, cache=False,
                                explain=explain,
                            )
                            elapsed = time.perf_counter() - started
                            assert reply.cache == "bypass", reply.cache
                            if explain is not None:
                                assert reply.explain is not None
                            latencies[name].append(elapsed)

    p50_plain = statistics.median(latencies["plain"])
    p50_analyze = statistics.median(latencies["analyze"])
    paired_diff = statistics.median(
        a - p for a, p in zip(latencies["analyze"], latencies["plain"])
    )
    return {
        "workload": {
            "batches": batches,
            "batch_size": batch_size,
            "requests_per_side": batches * batch_size,
            "limit": LIMIT,
            "path": ("cache-bypassed engine runs, one server, plain vs "
                     "explain=analyze (paired samples)"),
        },
        "p50_plain_ms": round(p50_plain * 1e3, 4),
        "p50_analyze_ms": round(p50_analyze * 1e3, 4),
        "paired_overhead_ms": round(paired_diff * 1e3, 4),
        "overhead_ratio": round(1.0 + paired_diff / p50_plain, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, default=8,
                        help="interleaved batches per side")
    parser.add_argument("--batch-size", type=int, default=25,
                        help="requests per batch")
    parser.add_argument("--analyze-batches", type=int, default=2,
                        help="interleaved batches per side (analyze A/B)")
    parser.add_argument("--analyze-batch-size", type=int, default=10,
                        help="requests per batch (analyze A/B)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = run_overhead(args.batches, args.batch_size)
    analyze = run_analyze_overhead(
        args.analyze_batches, args.analyze_batch_size
    )

    merged = {}
    if args.out.exists():
        merged = json.loads(args.out.read_text(encoding="utf-8"))
    merged["obs"] = report
    merged["obs_analyze"] = analyze
    args.out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")

    overhead = (report["overhead_ratio"] - 1.0) * 100.0
    analyze_overhead = (analyze["overhead_ratio"] - 1.0) * 100.0
    lines = [
        f"observability overhead ({DATASET} x{SCALE}, warm hits, "
        f"{report['workload']['requests_per_side']} requests/side):",
        f"  p50 metrics on:  {report['p50_on_ms']:7.3f} ms",
        f"  p50 metrics off: {report['p50_off_ms']:7.3f} ms",
        f"  median paired overhead: {report['paired_overhead_ms']:+.4f} ms "
        f"= {overhead:+.2f}% of p50 (ratio {report['overhead_ratio']})",
        f"explain-analyze overhead (cache bypassed, "
        f"{analyze['workload']['requests_per_side']} requests/side):",
        f"  p50 plain:   {analyze['p50_plain_ms']:7.3f} ms",
        f"  p50 analyze: {analyze['p50_analyze_ms']:7.3f} ms",
        f"  median paired overhead: "
        f"{analyze['paired_overhead_ms']:+.4f} ms "
        f"= {analyze_overhead:+.2f}% of p50 "
        f"(ratio {analyze['overhead_ratio']})",
    ]
    text = "\n".join(lines)
    print(text)
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote obs + obs_analyze keys into {args.out} and {RESULTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
