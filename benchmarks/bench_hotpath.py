"""Hot-path perf trajectory: bitmap search vs the seed list-based search.

Runs full GuP (all guards + backjumping) with both searches on the same
production-built GCS — ``"bitmap"`` (:mod:`repro.core.backtrack`, the
production search) and ``"list"`` (:class:`~repro.core.backtrack_ref.ListGuPSearch`,
the seed implementation kept verbatim as a test oracle, driven through
:class:`~repro.core.backtrack_ref.ReferenceEngine`) — over the fig6/fig7
workload grid (the six query sets of
:data:`benchmarks.conftest.SET_SPECS` on wordnet, easy random-walk bulk
plus the mined hard tail, under the recursion-budget harness).  Both
searches explore byte-identical search trees (``tests/test_bitmap_cs.py``
proves it), so recursions and refinements match exactly and the only
difference is wall time per recursion.

Emits ``BENCH_hotpath.json`` at the repo root with, per query set and
overall:

* recursions/sec and refinements/sec for both searches (search phase
  only, best-of-N per query);
* the wall-aggregate speedup (hard, recursion-capped queries dominate
  this) and the per-query geometric-mean speedup (each workload point
  weighted equally — the headline number);
* a ``smoke`` section from a tiny sub-grid that ``check_perf.py`` uses
  as its regression baseline.

Run: ``python benchmarks/bench_hotpath.py [--repeats N] [--out PATH]``
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.conftest import (  # noqa: E402
    SET_SPECS,
    VIRTUAL_SCALE,
    dataset,
    easy_query_set,
    hard_query_set,
)
from repro.core.backtrack_ref import ReferenceEngine  # noqa: E402
from repro.core.engine import GuPEngine  # noqa: E402

DATASET = "wordnet"  # the fig6/fig7 dataset
BACKENDS = ("list", "bitmap")
FULL_SETS = tuple(SET_SPECS)
SMOKE_SETS = ("8S", "8D")
DEFAULT_OUT = ROOT / "BENCH_hotpath.json"


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_grid(sets, repeats: int = 5, smoke: bool = False):
    """Measure both searches over the given query sets.

    Search-phase wall time only, both on production-built GCSes
    (construction is excluded, as in the paper's recursion accounting);
    best-of-``repeats`` per query to suppress scheduler noise.
    """
    data = dataset(DATASET)
    engines = {"list": ReferenceEngine(data), "bitmap": GuPEngine(data)}
    limits = VIRTUAL_SCALE.limits()

    per_set = {}
    totals = {b: {"recursions": 0, "refine_ops": 0, "wall_seconds": 0.0}
              for b in BACKENDS}
    per_query_speedups = []

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for set_name in sets:
            queries = easy_query_set(DATASET, set_name)
            if not smoke:
                queries = queries + hard_query_set(DATASET, set_name)
            set_totals = {
                b: {"recursions": 0, "refine_ops": 0, "wall_seconds": 0.0}
                for b in BACKENDS
            }
            set_speedups = []
            for query in queries:
                walls = {}
                for backend in BACKENDS:
                    engine = engines[backend]
                    # A fresh production build per search, right before
                    # it: both sides time a cache-warm GCS, as the
                    # committed baseline did.
                    gcs = engines["bitmap"].build(query)
                    best = None
                    result = None
                    for _ in range(repeats):
                        result = engine.match(query, limits=limits, gcs=gcs)
                        elapsed = result.elapsed_seconds
                        best = elapsed if best is None else min(best, elapsed)
                    walls[backend] = best
                    bucket = set_totals[backend]
                    bucket["recursions"] += result.stats.recursions
                    bucket["refine_ops"] += result.stats.refine_ops
                    bucket["wall_seconds"] += best
                per_query_speedups.append(walls["list"] / walls["bitmap"])
                set_speedups.append(per_query_speedups[-1])
            entry = {}
            for backend in BACKENDS:
                bucket = set_totals[backend]
                wall = bucket["wall_seconds"]
                entry[backend] = {
                    "recursions": bucket["recursions"],
                    "refine_ops": bucket["refine_ops"],
                    "wall_seconds": round(wall, 6),
                    "recursions_per_sec": round(bucket["recursions"] / wall),
                    "refine_ops_per_sec": round(bucket["refine_ops"] / wall),
                }
                for key in ("recursions", "refine_ops", "wall_seconds"):
                    totals[backend][key] += bucket[key]
            entry["wall_speedup"] = round(
                entry["list"]["wall_seconds"] / entry["bitmap"]["wall_seconds"], 3
            )
            entry["geomean_speedup"] = round(_geomean(set_speedups), 3)
            per_set[set_name] = entry
    finally:
        if gc_was_enabled:
            gc.enable()

    overall = {}
    for backend in BACKENDS:
        bucket = totals[backend]
        wall = bucket["wall_seconds"]
        overall[backend] = {
            "recursions": bucket["recursions"],
            "refine_ops": bucket["refine_ops"],
            "wall_seconds": round(wall, 6),
            "recursions_per_sec": round(bucket["recursions"] / wall),
            "refine_ops_per_sec": round(bucket["refine_ops"] / wall),
        }
    overall["wall_speedup"] = round(
        totals["list"]["wall_seconds"] / totals["bitmap"]["wall_seconds"], 3
    )
    overall["geomean_speedup_per_query"] = round(
        _geomean(per_query_speedups), 3
    )
    assert (
        totals["list"]["recursions"] == totals["bitmap"]["recursions"]
    ), "searches must explore identical search trees"
    return {"sets": per_set, "overall": overall}


def run(repeats: int = 5):
    """The full trajectory plus the smoke baseline, as one report."""
    report = {
        "dataset": DATASET,
        "harness": "virtual (recursion budget), full GuP config, "
        "search phase only, best-of-%d per query" % repeats,
        "metric_notes": (
            "geomean_speedup_per_query weights every grid point equally; "
            "wall_speedup is dominated by the recursion-capped hard tail"
        ),
        "full": run_grid(FULL_SETS, repeats=repeats),
        "smoke": run_grid(SMOKE_SETS, repeats=repeats, smoke=True),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = run(repeats=args.repeats)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    overall = report["full"]["overall"]
    print(f"fig6/fig7 grid on {DATASET} (full GuP, search phase):")
    for backend in BACKENDS:
        o = overall[backend]
        print(
            f"  {backend:6s}: {o['recursions']} recursions, "
            f"{o['recursions_per_sec']:,} rec/s, "
            f"{o['refine_ops_per_sec']:,} refinements/s"
        )
    print(
        f"  wall speedup {overall['wall_speedup']}x | "
        f"per-query geomean {overall['geomean_speedup_per_query']}x"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
