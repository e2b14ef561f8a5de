"""Dynamic-graph trajectory: incremental maintenance vs full rebuild.

Two sections, both on the fig6/fig7 dataset (wordnet) and both
*differentially verified in-run*:

* **maintenance** — for each delta size on a grid (1..64 edge edits,
  half insertions / half deletions, plus a sprinkle of new vertices),
  time ``DataArtifacts.apply_delta`` (the incremental patch) against a
  cold ``DataArtifacts(new_graph)`` rebuild, asserting the two are
  equal value for value (``tests.oracle_engines.artifact_values``).
  The headline is the per-delta geometric mean speedup; the acceptance
  floor is >= 2x for small deltas (the committed numbers are far above
  it — a patch touches a handful of rows where the rebuild walks all
  |V|).
* **continuous** — standing queries from the 8S query set registered on
  a :class:`repro.dynamic.continuous.ContinuousMatcher`; per delta,
  time the incremental diff (``matcher.apply``) against a full
  re-match of every standing query on the updated warm engine,
  asserting ``old - removed + added == full re-match`` each step.

Emits ``BENCH_dynamic.json`` at the repo root; the ``smoke`` section
(small delta-size sub-grid, fewer repeats) is the regression baseline
for ``check_perf.py --gate dynamic``.

Run: ``python benchmarks/bench_dynamic.py [--repeats N] [--out PATH]``
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.conftest import dataset, easy_query_set  # noqa: E402
from repro.core.engine import GuPEngine  # noqa: E402
from repro.dynamic.continuous import ContinuousMatcher  # noqa: E402
from repro.dynamic.delta import GraphDelta, apply_delta  # noqa: E402
from repro.filtering.artifacts import DataArtifacts  # noqa: E402
from repro.matching.limits import SearchLimits  # noqa: E402
from tests.oracle_engines import artifact_values  # noqa: E402

DATASET = "wordnet"  # the fig6/fig7 dataset
DELTA_SIZES = (1, 4, 16, 64)
SMOKE_DELTA_SIZES = (1, 4)
SMALL_SIZE_CUTOFF = 4  # "small deltas" for the >= 2x acceptance floor
DELTAS_PER_SIZE = 8
DEFAULT_OUT = ROOT / "BENCH_dynamic.json"


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def random_delta(rng: random.Random, graph, size: int) -> GraphDelta:
    """``size`` edge edits (half removals, half insertions) against
    ``graph``; every fourth delta also adds a labeled vertex."""
    n = graph.num_vertices
    add_vertices = ()
    if rng.random() < 0.25:
        add_vertices = (rng.randrange(3),)
    n_new = n + len(add_vertices)
    edges = list(graph.edges())
    remove = tuple(rng.sample(edges, min(size // 2, len(edges))))
    removed = set(remove)
    add = []
    while len(add) < size - len(remove):
        u, v = rng.randrange(n_new), rng.randrange(n_new)
        edge = (min(u, v), max(u, v))
        if (
            u != v
            and edge not in removed
            and edge not in add
            and not (edge[1] < n and graph.has_edge(*edge))
        ):
            add.append(edge)
    return GraphDelta(
        add_vertices=add_vertices,
        add_edges=tuple(add),
        remove_edges=remove,
    )


def run_maintenance_grid(sizes, repeats: int = 3, seed: int = 2023):
    """Patch-vs-rebuild timings per delta size (byte-identity asserted)."""
    graph = dataset(DATASET)
    artifacts = DataArtifacts(graph)
    # Warm the mask ladders the way a serving engine would have them.
    for query in easy_query_set(DATASET, "8S"):
        artifacts.nlf_candidate_masks(query)

    per_size = {}
    all_speedups = []
    small_speedups = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for size in sizes:
            rng = random.Random(seed + size)
            speedups = []
            patch_wall = rebuild_wall = 0.0
            for _ in range(DELTAS_PER_SIZE):
                delta = random_delta(rng, graph, size)
                new_graph, summary = apply_delta(graph, delta)

                best_patch = best_rebuild = None
                patched = cold = None
                for _ in range(repeats):
                    started = time.perf_counter()
                    patched = artifacts.apply_delta(new_graph, summary)
                    elapsed = time.perf_counter() - started
                    best_patch = (
                        elapsed if best_patch is None
                        else min(best_patch, elapsed)
                    )
                    started = time.perf_counter()
                    cold = DataArtifacts(new_graph)
                    elapsed = time.perf_counter() - started
                    best_rebuild = (
                        elapsed if best_rebuild is None
                        else min(best_rebuild, elapsed)
                    )
                assert artifact_values(patched) == artifact_values(cold), (
                    "incremental patch must equal a cold rebuild"
                )
                speedups.append(best_rebuild / best_patch)
                patch_wall += best_patch
                rebuild_wall += best_rebuild
            all_speedups.extend(speedups)
            if size <= SMALL_SIZE_CUTOFF:
                small_speedups.extend(speedups)
            per_size[str(size)] = {
                "deltas": DELTAS_PER_SIZE,
                "patch_seconds": round(patch_wall, 6),
                "rebuild_seconds": round(rebuild_wall, 6),
                "geomean_speedup": round(_geomean(speedups), 3),
                "wall_speedup": round(rebuild_wall / patch_wall, 3),
            }
    finally:
        if gc_was_enabled:
            gc.enable()

    overall = {
        "geomean_speedup": round(_geomean(all_speedups), 3),
        "geomean_speedup_small_deltas": round(
            _geomean(small_speedups), 3
        ) if small_speedups else None,
    }
    return {"sizes": per_size, "overall": overall}


def run_continuous(
    num_queries: int = 3,
    num_deltas: int = 6,
    delta_size: int = 4,
    seed: int = 2023,
):
    """Incremental diff maintenance vs full re-match per delta."""
    graph = dataset(DATASET)
    queries = easy_query_set(DATASET, "8S")[:num_queries]
    matcher = ContinuousMatcher(graph)
    for i, query in enumerate(queries):
        matcher.register(f"q{i}", query)
    rng = random.Random(seed)

    incr_wall = full_wall = 0.0
    diffs_total = 0
    for _ in range(num_deltas):
        delta = random_delta(rng, matcher.graph, delta_size)
        started = time.perf_counter()
        diffs = matcher.apply(delta)
        incr_wall += time.perf_counter() - started
        diffs_total += sum(
            len(d.added) + len(d.removed) for d in diffs.values()
        )
        # Full re-match on the *same* warm engine: fair baseline, and
        # the correctness oracle for the maintained sets.
        started = time.perf_counter()
        rematch = [
            matcher.engine.match(query, limits=SearchLimits())
            for query in queries
        ]
        full_wall += time.perf_counter() - started
        for i, result in enumerate(rematch):
            assert set(matcher.matches(f"q{i}")) == {
                tuple(e) for e in result.embeddings
            }, "diff stream must replay to the full re-match result"
    return {
        "standing_queries": len(queries),
        "deltas": num_deltas,
        "delta_size": delta_size,
        "diff_embeddings": diffs_total,
        "incremental_seconds": round(incr_wall, 6),
        "full_rematch_seconds": round(full_wall, 6),
        "wall_speedup": round(full_wall / incr_wall, 3),
        "counters": dict(matcher.counters),
    }


def run(repeats: int = 3):
    return {
        "dataset": DATASET,
        "harness": (
            "maintenance: DataArtifacts.apply_delta vs cold rebuild, "
            "best-of-%d per delta, %d deltas per size, byte-identity "
            "asserted; continuous: ContinuousMatcher.apply vs full "
            "re-match on the same warm engine, equality asserted"
            % (repeats, DELTAS_PER_SIZE)
        ),
        "metric_notes": (
            "geomean_speedup_small_deltas (sizes <= %d) is the headline "
            "with the >= 2x acceptance floor; continuous wall_speedup "
            "depends on the standing queries' result-set sizes"
            % SMALL_SIZE_CUTOFF
        ),
        "maintenance": run_maintenance_grid(DELTA_SIZES, repeats=repeats),
        "continuous": run_continuous(),
        "smoke": run_maintenance_grid(
            SMOKE_DELTA_SIZES, repeats=max(2, repeats - 1)
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = run(repeats=args.repeats)
    args.out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    maintenance = report["maintenance"]
    for size, entry in sorted(
        maintenance["sizes"].items(), key=lambda kv: int(kv[0])
    ):
        print(
            f"[maintenance] {size:>3} edits: patch {entry['patch_seconds']}s "
            f"vs rebuild {entry['rebuild_seconds']}s "
            f"-> {entry['geomean_speedup']}x"
        )
    print(
        f"[maintenance] overall geomean "
        f"{maintenance['overall']['geomean_speedup']}x "
        f"(small deltas "
        f"{maintenance['overall']['geomean_speedup_small_deltas']}x)"
    )
    cont = report["continuous"]
    print(
        f"[continuous] {cont['standing_queries']} standing queries x "
        f"{cont['deltas']} deltas: incremental {cont['incremental_seconds']}s "
        f"vs full re-match {cont['full_rematch_seconds']}s "
        f"-> {cont['wall_speedup']}x"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
