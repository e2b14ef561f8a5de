"""Build-path perf trajectory: bitmap GCS construction vs the seed set builder.

Runs GCS construction (``GuPEngine.build`` — seeding, filtering,
candidate-edge materialization, reservation generation) with both
builders — ``"bitmap"`` (:mod:`repro.filtering.masks`, the production
builder) and ``"set"`` (the seed set/dict pipeline kept verbatim as a
test oracle, :class:`~repro.core.backtrack_ref.ReferenceEngine`) —
over the fig6/fig7 workload grid (the six query sets of
:data:`benchmarks.conftest.SET_SPECS` on wordnet, easy random-walk bulk
plus the mined hard tail).  Both builders produce byte-identical GCSes
(``tests/test_build_masks.py`` proves it; this bench re-asserts
candidates, candidate-edge counts, and reservations per query), so the
only difference is wall time per construction.

Timings are *warm-path*: engines keep their data-side artifacts and
build-invariant caches across the best-of-N repeats, exactly like the
PR 3 service serving repeated/similar queries — the regime the ISSUE
targets.  Both builders share the same caching, so the ratio compares
the pipelines, not the caches.

Emits ``BENCH_buildpath.json`` at the repo root with, per query set and
overall:

* builds/sec and total candidate/candidate-edge/reservation counts for
  both builders (best-of-N per query);
* the wall-aggregate speedup and the per-query geometric-mean speedup
  (the headline number, target >= 2x);
* a ``smoke`` section from a tiny sub-grid that ``check_perf.py`` uses
  as its regression baseline.

Run: ``python benchmarks/bench_buildpath.py [--repeats N] [--out PATH]``
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

import time  # noqa: E402

from benchmarks.conftest import (  # noqa: E402
    SET_SPECS,
    dataset,
    easy_query_set,
    hard_query_set,
)
from repro.core.backtrack_ref import ReferenceEngine  # noqa: E402
from repro.core.engine import GuPEngine  # noqa: E402

DATASET = "wordnet"  # the fig6/fig7 dataset
BACKENDS = ("set", "bitmap")
FULL_SETS = tuple(SET_SPECS)
SMOKE_SETS = ("8S", "8D")
DEFAULT_OUT = ROOT / "BENCH_buildpath.json"


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_grid(sets, repeats: int = 5, smoke: bool = False):
    """Measure both builders over the given query sets.

    Build phase only (``engine.build``), best-of-``repeats`` per query
    to suppress scheduler noise; per query the two builders' GCSes are
    asserted identical (candidates, candidate edges, reservations).
    """
    data = dataset(DATASET)
    engines = {"set": ReferenceEngine(data), "bitmap": GuPEngine(data)}
    for engine in engines.values():
        engine.artifacts  # prebuild the per-graph artifacts outside timing

    per_set = {}
    totals = {
        b: {"candidates": 0, "candidate_edges": 0, "reservations": 0,
            "wall_seconds": 0.0, "builds": 0}
        for b in BACKENDS
    }
    per_query_speedups = []

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for set_name in sets:
            queries = easy_query_set(DATASET, set_name)
            if not smoke:
                queries = queries + hard_query_set(DATASET, set_name)
            set_totals = {
                b: {"candidates": 0, "candidate_edges": 0, "reservations": 0,
                    "wall_seconds": 0.0, "builds": 0}
                for b in BACKENDS
            }
            set_speedups = []
            for query in queries:
                walls = {}
                gcses = {}
                for backend in BACKENDS:
                    engine = engines[backend]
                    best = None
                    for _ in range(repeats):
                        started = time.perf_counter()
                        gcs = engine.build(query)
                        elapsed = time.perf_counter() - started
                        best = elapsed if best is None else min(best, elapsed)
                    walls[backend] = best
                    gcses[backend] = gcs
                    bucket = set_totals[backend]
                    bucket["candidates"] += gcs.cs.total_candidates()
                    bucket["candidate_edges"] += gcs.cs.num_candidate_edges
                    bucket["reservations"] += sum(
                        gcs.reservation_sizes().values()
                    )
                    bucket["wall_seconds"] += best
                    bucket["builds"] += 1
                assert (
                    gcses["set"].cs.candidates == gcses["bitmap"].cs.candidates
                    and gcses["set"].cs.num_candidate_edges
                    == gcses["bitmap"].cs.num_candidate_edges
                    and gcses["set"].reservations == gcses["bitmap"].reservations
                ), "builders must produce identical GCSes"
                per_query_speedups.append(walls["set"] / walls["bitmap"])
                set_speedups.append(per_query_speedups[-1])
            entry = {}
            for backend in BACKENDS:
                bucket = set_totals[backend]
                wall = bucket["wall_seconds"]
                entry[backend] = {
                    "candidates": bucket["candidates"],
                    "candidate_edges": bucket["candidate_edges"],
                    "reservations": bucket["reservations"],
                    "wall_seconds": round(wall, 6),
                    "builds_per_sec": round(bucket["builds"] / wall, 1),
                }
                for key in ("candidates", "candidate_edges", "reservations",
                            "wall_seconds", "builds"):
                    totals[backend][key] += bucket[key]
            entry["wall_speedup"] = round(
                entry["set"]["wall_seconds"] / entry["bitmap"]["wall_seconds"], 3
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
            "candidates": bucket["candidates"],
            "candidate_edges": bucket["candidate_edges"],
            "reservations": bucket["reservations"],
            "wall_seconds": round(wall, 6),
            "builds_per_sec": round(bucket["builds"] / wall, 1),
        }
    overall["wall_speedup"] = round(
        totals["set"]["wall_seconds"] / totals["bitmap"]["wall_seconds"], 3
    )
    overall["geomean_speedup_per_query"] = round(
        _geomean(per_query_speedups), 3
    )
    assert (
        totals["set"]["candidates"] == totals["bitmap"]["candidates"]
        and totals["set"]["candidate_edges"] == totals["bitmap"]["candidate_edges"]
        and totals["set"]["reservations"] == totals["bitmap"]["reservations"]
    ), "builders must produce identical GCS totals"
    return {"sets": per_set, "overall": overall}


def run(repeats: int = 5):
    """The full trajectory plus the smoke baseline, as one report."""
    return {
        "dataset": DATASET,
        "harness": "build phase only (GuPEngine.build), warm artifact + "
        "invariant caches, best-of-%d per query" % repeats,
        "metric_notes": (
            "geomean_speedup_per_query weights every grid point equally "
            "(the headline, target >= 2x); wall_speedup aggregates the "
            "whole grid's build seconds"
        ),
        "full": run_grid(FULL_SETS, repeats=repeats),
        "smoke": run_grid(SMOKE_SETS, repeats=repeats, smoke=True),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = run(repeats=args.repeats)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    overall = report["full"]["overall"]
    print(f"fig6/fig7 grid on {DATASET} (GCS build phase):")
    for backend in BACKENDS:
        o = overall[backend]
        print(
            f"  {backend:6s}: {o['wall_seconds']:.3f} s, "
            f"{o['builds_per_sec']} builds/s, "
            f"{o['candidate_edges']} candidate edges"
        )
    print(
        f"  wall speedup {overall['wall_speedup']}x | "
        f"per-query geomean {overall['geomean_speedup_per_query']}x"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
