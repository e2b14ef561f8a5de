"""Fig. 9: futile recursions per guard combination (the ablation).

Paper shape: "Baseline" (no guards) has the most futile recursions;
reservation guards ("R") remove a workload-dependent chunk; nogood
guards on vertices ("R+NV") contribute the most; edge guards
("R+NV+NE") the second most; backjumping ("All") adds a little more.

Each row also prices its guards: the total search seconds over every
set (``QueryRunRecord.search_seconds``, build excluded) and the search
microseconds per recursion, so a combination's cost sits next to the
futile recursions it saves.
"""

from __future__ import annotations

from benchmarks.conftest import VIRTUAL_SCALE, dataset, mixed_query_set, publish
from repro.baselines.registry import GuPMatcher
from repro.bench.report import format_table
from repro.bench.runner import run_query_set
from repro.core.config import GuPConfig

ABLATIONS = (
    ("Baseline", GuPConfig.baseline()),
    ("R", GuPConfig.reservation_only()),
    ("R+NV", GuPConfig.r_nv()),
    ("R+NV+NE", GuPConfig.r_nv_ne()),
    ("All", GuPConfig.full()),
)
DATASET = "wordnet"
SETS = ("8S", "16S", "24S", "8D", "16D", "24D")


def run_ablation():
    """Futile recursions per config and set, plus each config's total
    ``(search_seconds, recursions)`` over all sets."""
    futile = {name: {} for name, _ in ABLATIONS}
    cost = {name: [0.0, 0] for name, _ in ABLATIONS}
    for name, config in ABLATIONS:
        matcher = GuPMatcher(config, name=name)
        for set_name in SETS:
            res = run_query_set(
                matcher,
                dataset(DATASET),
                mixed_query_set(DATASET, set_name),
                scale=VIRTUAL_SCALE,
                set_name=set_name,
                stop_on_dnf=False,
            )
            futile[name][set_name] = res.total_futile()
            cost[name][0] += sum(r.search_seconds for r in res.records)
            cost[name][1] += res.total_recursions()
    return futile, cost


def test_fig9_ablation(benchmark):
    futile, cost = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = [
        [name] + [futile[name][s] for s in SETS] + [sum(futile[name].values())]
        + [round(cost[name][0], 3),
           round(1e6 * cost[name][0] / max(cost[name][1], 1), 2)]
        for name, _ in ABLATIONS
    ]
    publish(
        "fig9_ablation",
        format_table(
            ["Config"] + list(SETS) + ["Total", "Search s", "us/rec"],
            rows,
            title=f"Fig. 9: futile recursions per guard combination on {DATASET}",
        ),
    )

    total = {name: sum(per.values()) for name, per in futile.items()}
    # Paper shape: the ladder is monotone and ends strictly below the
    # baseline.
    assert total["R"] <= total["Baseline"]
    assert total["R+NV"] <= total["R"]
    assert total["R+NV+NE"] <= total["R+NV"]
    assert total["All"] <= total["R+NV+NE"]
    assert total["All"] < total["Baseline"]
