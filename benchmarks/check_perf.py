"""Perf smoke gates for CI: search hot path, GCS build path, dynamic
maintenance, service degradation, observability overhead.

Five gates, each a few seconds of work:

* **hotpath** — re-runs the *smoke* sub-grid of
  :mod:`benchmarks.bench_hotpath` and compares the bitmap search's
  recursions/sec against the committed baseline in
  ``BENCH_hotpath.json``; also fails if the bitmap search is no longer
  faster than the seed list search at all.
* **buildpath** — re-runs the smoke sub-grid of
  :mod:`benchmarks.bench_buildpath` and compares the bitmap build
  column's builds/sec against ``BENCH_buildpath.json``; also fails if
  the bitmap builder is no longer faster than the seed set builder.
* **dynamic** — re-runs the small-delta smoke grid of
  :mod:`benchmarks.bench_dynamic` and compares the incremental
  ``DataArtifacts.apply_delta`` geomean speedup over a cold rebuild
  against ``BENCH_dynamic.json``; also fails if the speedup drops
  below the 2x acceptance floor for small deltas.
* **service** — re-runs the two-level smoke of
  :mod:`benchmarks.bench_service_saturation` against a live server and
  checks the degradation contract: zero shedding below capacity,
  nonzero shedding past it, ``offered == served + shed``, and the
  below-capacity p50 latency within a widened (latency-noise) tolerance
  of the ``BENCH_service.json`` baseline.  Also runs the two-tenant
  fairness smoke: the greedy bulk tenant's excess must be shed with
  tenant-labeled rejections, the light tenant must never be shed, and
  its paired contended/solo p50 ratio must stay bounded.
* **obs** — re-runs a small paired-sample smoke of
  :mod:`benchmarks.bench_obs_overhead` (one server, ``Observability``
  toggled per request) and fails if the median paired metrics-on
  overhead exceeds 5% of the metrics-off p50.  Computed fresh each
  run — absolute latencies on a shared box are not stable enough to
  compare against a committed number, but the paired difference is.

A gate fails (exit 1) when throughput dropped more than the tolerance
(default 30%), catching accidental de-optimization.

Run: ``python benchmarks/check_perf.py
[--gate hotpath|buildpath|dynamic|service|obs|all] [--baseline PATH]
[--build-baseline PATH] [--dynamic-baseline PATH]
[--service-baseline PATH] [--tolerance F]``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.bench_buildpath import (  # noqa: E402
    SMOKE_SETS as BUILD_SMOKE_SETS,
    run_grid as run_build_grid,
)
from benchmarks.bench_dynamic import (  # noqa: E402
    SMOKE_DELTA_SIZES,
    run_maintenance_grid,
)
from benchmarks.bench_hotpath import (  # noqa: E402
    SMOKE_SETS as HOT_SMOKE_SETS,
    run_grid as run_hot_grid,
)
from benchmarks.bench_obs_overhead import (  # noqa: E402
    run_analyze_overhead,
    run_overhead,
)
from benchmarks.bench_service_saturation import (  # noqa: E402
    BULK_TENANT,
    LIGHT_TENANT,
    SMOKE_LEVELS,
    run_fairness,
    run_saturation,
)

DYNAMIC_SPEEDUP_FLOOR = 2.0  # the ISSUE's small-delta acceptance floor
OBS_OVERHEAD_CEILING = 1.05
"""Observability must stay on-by-default cheap: the median paired
metrics-on overhead may cost at most 5% of the metrics-off hot-path
p50 latency."""
ANALYZE_OVERHEAD_CEILING = 1.15
"""EXPLAIN ANALYZE runs the identical search plus attribution
(stage counts, report, sidecar write); that bookkeeping may cost at
most 15% of the plain cache-bypass p50 latency."""


def check_hotpath(baseline_path: Path, tolerance: float, repeats: int) -> bool:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_rps = baseline["smoke"]["overall"]["bitmap"]["recursions_per_sec"]

    fresh = run_hot_grid(HOT_SMOKE_SETS, repeats=repeats, smoke=True)
    now_rps = fresh["overall"]["bitmap"]["recursions_per_sec"]
    speedup = fresh["overall"]["wall_speedup"]

    floor = base_rps * (1.0 - tolerance)
    print(
        f"[hotpath] bitmap smoke recursions/sec: {now_rps:,} "
        f"(baseline {base_rps:,}, floor {floor:,.0f})"
    )
    print(f"[hotpath] bitmap vs seed list search on the smoke grid: {speedup}x")

    ok = True
    if now_rps < floor:
        print(
            f"FAIL: recursions/sec dropped more than "
            f"{tolerance:.0%} vs the committed baseline"
        )
        ok = False
    if speedup < 1.0:
        print("FAIL: bitmap search is slower than the seed list search")
        ok = False
    return ok


def check_buildpath(baseline_path: Path, tolerance: float, repeats: int) -> bool:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_bps = baseline["smoke"]["overall"]["bitmap"]["builds_per_sec"]

    fresh = run_build_grid(BUILD_SMOKE_SETS, repeats=repeats, smoke=True)
    now_bps = fresh["overall"]["bitmap"]["builds_per_sec"]
    speedup = fresh["overall"]["wall_speedup"]

    floor = base_bps * (1.0 - tolerance)
    print(
        f"[buildpath] bitmap smoke builds/sec: {now_bps:,} "
        f"(baseline {base_bps:,}, floor {floor:,.1f})"
    )
    print(f"[buildpath] bitmap vs seed set builder on the smoke grid: {speedup}x")

    ok = True
    if now_bps < floor:
        print(
            f"FAIL: builds/sec dropped more than "
            f"{tolerance:.0%} vs the committed baseline"
        )
        ok = False
    if speedup < 1.0:
        print("FAIL: bitmap builder is slower than the seed set builder")
        ok = False
    return ok


def check_dynamic(baseline_path: Path, tolerance: float, repeats: int) -> bool:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base = baseline["smoke"]["overall"]["geomean_speedup_small_deltas"]

    fresh = run_maintenance_grid(SMOKE_DELTA_SIZES, repeats=repeats)
    now = fresh["overall"]["geomean_speedup_small_deltas"]

    floor = base * (1.0 - tolerance)
    print(
        f"[dynamic] small-delta incremental-vs-rebuild geomean: {now}x "
        f"(baseline {base}x, floor {floor:.2f}x)"
    )

    ok = True
    if now < floor:
        print(
            f"FAIL: incremental-maintenance speedup dropped more than "
            f"{tolerance:.0%} vs the committed baseline"
        )
        ok = False
    if now < DYNAMIC_SPEEDUP_FLOOR:
        print(
            f"FAIL: incremental maintenance is below the "
            f"{DYNAMIC_SPEEDUP_FLOOR}x small-delta acceptance floor"
        )
        ok = False
    return ok


def check_service(baseline_path: Path, tolerance: float) -> bool:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_p50 = baseline["saturation"]["levels"][0]["p50_ms"]

    fresh = run_saturation(SMOKE_LEVELS, per_client=8)
    low, high = fresh["levels"][0], fresh["levels"][-1]

    # Socket-level latency on a shared CI box is far noisier than the
    # in-process throughput counters the other gates use, so this
    # ceiling quadruples the tolerance (30% -> allow up to 2.2x).
    ceiling = base_p50 * (1.0 + 4.0 * tolerance)
    print(
        f"[service] below-capacity p50: {low['p50_ms']}ms "
        f"(baseline {base_p50}ms, ceiling {ceiling:.3f}ms)"
    )
    print(
        f"[service] overload shed rate at {high['clients']} clients: "
        f"{high['shed_rate']:.1%} ({high['shed']}/{high['offered']})"
    )

    ok = True
    if low["shed"] != 0:
        print("FAIL: server shed requests below capacity")
        ok = False
    if high["shed"] == 0:
        print("FAIL: server queued unboundedly instead of shedding overload")
        ok = False
    for level in fresh["levels"]:
        if level["served"] + level["shed"] != level["offered"]:
            print(f"FAIL: lost requests at {level['clients']} clients")
            ok = False
    if low["p50_ms"] > ceiling:
        print(
            f"FAIL: below-capacity p50 latency regressed more than "
            f"{2 * tolerance:.0%} vs the committed baseline"
        )
        ok = False
    return check_fairness(tolerance) and ok


def check_fairness(tolerance: float) -> bool:
    """The two-tenant half of the service gate (DESIGN.md §13).

    Paired within one run — the contended/solo p50 ratio of the light
    tenant is stable on a shared box even when absolute latencies are
    not (same reasoning as the obs gate), so no committed baseline is
    consulted.
    """
    fresh = run_fairness(per_client=6)
    light = fresh["contended_light"]
    bulk = fresh["contended_bulk"]
    ratio = fresh["p50_ratio_contended_vs_solo"]
    bulk_stats = fresh["tenant_stats"].get(BULK_TENANT, {})
    labeled_sheds = sum(
        count for key, count in bulk_stats.items()
        if key.startswith("shed_")
    )

    # Weighted DRR + the bulk quota bound how much of the light
    # tenant's latency the bulk storm may consume; the ceiling widens
    # the default 30% tolerance 10x because this is a socket-level
    # latency ratio, not a throughput counter (measured ~2.6x when
    # healthy on an idle box).
    ceiling = 1.0 + 10.0 * tolerance
    print(
        f"[service] fairness: {LIGHT_TENANT} p50 solo "
        f"{fresh['solo']['p50_ms']}ms -> contended {light['p50_ms']}ms "
        f"(ratio {ratio}x, ceiling {ceiling:.1f}x)"
    )
    print(
        f"[service] fairness: {BULK_TENANT} shed "
        f"{bulk['shed']}/{bulk['offered']} "
        f"({labeled_sheds} tenant-labeled), {LIGHT_TENANT} shed "
        f"{light['shed']}"
    )

    ok = True
    if light["shed"] != 0:
        print(
            f"FAIL: the {LIGHT_TENANT} tenant was shed under the "
            f"{BULK_TENANT} tenant's storm (admission is not isolating)"
        )
        ok = False
    if bulk["shed"] == 0:
        print(
            f"FAIL: the {BULK_TENANT} tenant's excess was queued instead "
            "of shed at its quota"
        )
        ok = False
    if bulk["shed"] != labeled_sheds:
        print(
            f"FAIL: {bulk['shed']} bulk sheds but {labeled_sheds} "
            "tenant-labeled shed_* counts — rejections lost their tenant"
        )
        ok = False
    if ratio is not None and ratio > ceiling:
        print(
            f"FAIL: the {LIGHT_TENANT} tenant's contended p50 is "
            f"{ratio}x its solo baseline (ceiling {ceiling:.1f}x) — "
            "weighted fair admission is not protecting it"
        )
        ok = False
    return ok


def check_obs() -> bool:
    # Best-of-3: the paired median cancels per-pair noise, but whole-run
    # drift (CPU frequency ramps, a background compile) only ever
    # *inflates* an overhead estimate — the minimum across repetitions
    # is the tightest honest reading, same convention as the best-of-N
    # per-query timing the other benches use on this shared box.
    fresh = min(
        (run_overhead(batches=4, batch_size=25) for _ in range(3)),
        key=lambda r: r["overhead_ratio"],
    )
    ratio = fresh["overhead_ratio"]
    print(
        f"[obs] metrics-on hot-path overhead: "
        f"{fresh['paired_overhead_ms']:+.4f}ms paired median "
        f"({(ratio - 1.0) * 100:+.2f}% of p50 {fresh['p50_off_ms']}ms, "
        f"ceiling {OBS_OVERHEAD_CEILING}x, best of 3 runs)"
    )
    ok = True
    if ratio > OBS_OVERHEAD_CEILING:
        print(
            f"FAIL: observability costs more than "
            f"{(OBS_OVERHEAD_CEILING - 1.0):.0%} of hot-path p50 latency"
        )
        ok = False
    analyze = min(
        (run_analyze_overhead(batches=2, batch_size=10) for _ in range(3)),
        key=lambda r: r["overhead_ratio"],
    )
    analyze_ratio = analyze["overhead_ratio"]
    print(
        f"[obs] explain-analyze overhead: "
        f"{analyze['paired_overhead_ms']:+.4f}ms paired median "
        f"({(analyze_ratio - 1.0) * 100:+.2f}% of p50 "
        f"{analyze['p50_plain_ms']}ms, "
        f"ceiling {ANALYZE_OVERHEAD_CEILING}x, best of 3 runs)"
    )
    if analyze_ratio > ANALYZE_OVERHEAD_CEILING:
        print(
            f"FAIL: explain=analyze costs more than "
            f"{(ANALYZE_OVERHEAD_CEILING - 1.0):.0%} of the plain "
            f"cache-bypass p50 latency"
        )
        ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--gate",
        choices=("hotpath", "buildpath", "dynamic", "service", "obs", "all"),
        default="all",
    )
    parser.add_argument(
        "--baseline", type=Path, default=ROOT / "BENCH_hotpath.json"
    )
    parser.add_argument(
        "--build-baseline", type=Path, default=ROOT / "BENCH_buildpath.json"
    )
    parser.add_argument(
        "--dynamic-baseline", type=Path, default=ROOT / "BENCH_dynamic.json"
    )
    parser.add_argument(
        "--service-baseline", type=Path, default=ROOT / "BENCH_service.json"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="maximum allowed fractional drop in throughput",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    ok = True
    if args.gate in ("hotpath", "all"):
        ok = check_hotpath(args.baseline, args.tolerance, args.repeats) and ok
    if args.gate in ("buildpath", "all"):
        ok = (
            check_buildpath(args.build_baseline, args.tolerance, args.repeats)
            and ok
        )
    if args.gate in ("dynamic", "all"):
        ok = (
            check_dynamic(args.dynamic_baseline, args.tolerance, args.repeats)
            and ok
        )
    if args.gate in ("service", "all"):
        ok = check_service(args.service_baseline, args.tolerance) and ok
    if args.gate in ("obs", "all"):
        ok = check_obs() and ok
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
