"""Statistics over query-set runs, matching the paper's presentations.

* Figs. 4/5 count queries whose processing time exceeds thresholds
  (1 s / 1 min / 1 hr in the paper; scaled in our harness).
* Fig. 6 reports mean time per query with timed-out queries *clamped to
  the kill limit* ("timed-out query graphs are counted as if they were
  completed in one hour").
* Fig. 7 compares total recursion counts.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.bench.runner import QueryRunRecord, QuerySetResult


def threshold_counts(
    records: Iterable[QueryRunRecord],
    thresholds: Sequence[float],
    clamp_timeouts_to: float,
    cost_of=None,
) -> Dict[float, int]:
    """Number of queries costing at least each threshold (Figs. 4/5).

    ``cost_of`` maps a record to its cost (defaults to wall seconds; the
    recursion-mode harness passes ``scale.cost``).  Timed-out queries
    count at the kill limit, so they land in every bucket up to that
    limit — mirroring the paper, where the over-an-hour bar equals the
    killed queries.
    """
    if cost_of is None:
        cost_of = lambda r: r.seconds  # noqa: E731
    costs = [
        clamp_timeouts_to if r.timed_out else cost_of(r) for r in records
    ]
    return {t: sum(1 for x in costs if x >= t) for t in thresholds}


def average_time_with_timeouts(
    result: QuerySetResult,
    clamp_timeouts_to: float,
) -> float:
    """Mean per-query seconds with the Fig. 6 timeout convention."""
    times = result.times(clamp_timeouts_to=clamp_timeouts_to)
    if not times:
        return 0.0
    return sum(times) / len(times)


def average_cost_with_timeouts(
    result: QuerySetResult,
    cost_of,
    clamp_timeouts_to: float,
) -> float:
    """Mean per-query cost (any unit) with the Fig. 6 timeout convention."""
    costs = [
        clamp_timeouts_to if r.timed_out else cost_of(r)
        for r in result.records
    ]
    if not costs:
        return 0.0
    return sum(costs) / len(costs)


def total_recursions(result: QuerySetResult) -> int:
    """Total backtracking recursions over the set (Fig. 7)."""
    return result.total_recursions()


def finished_matrix(
    results: Iterable[QuerySetResult],
) -> Dict[str, Dict[str, bool]]:
    """Table 2 shape: method -> set name -> finished (non-DNF)."""
    matrix: Dict[str, Dict[str, bool]] = {}
    for r in results:
        matrix.setdefault(r.method, {})[r.set_name] = r.finished
    return matrix


def finished_counts(results: Iterable[QuerySetResult]) -> Dict[str, int]:
    """Table 2's Count column: finished sets per method."""
    counts: Dict[str, int] = {}
    for r in results:
        counts[r.method] = counts.get(r.method, 0) + (1 if r.finished else 0)
    return counts


def geometric_mean(values: Sequence[float], floor: float = 1e-9) -> float:
    """Geometric mean with a floor (robust to zero timings)."""
    if not values:
        return 0.0
    log_sum = sum(math.log(max(v, floor)) for v in values)
    return math.exp(log_sum / len(values))
