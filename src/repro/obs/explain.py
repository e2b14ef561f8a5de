"""EXPLAIN / ANALYZE report builders for GuP queries.

*Plan* answers "what would the engine do": the chosen matching order
with the per-vertex selection-score components the ordering actually
consulted, the query DAG the DAG-DP filter swept, and the reservation /
guard inventory — all read off a real
:class:`~repro.core.gcs.GuardedCandidateSpace` build, never re-derived
by a parallel code path that could drift.  *Analyze*
additionally runs the real search and attributes the work exactly:
per-query-vertex candidate counts after each filter stage (collected
by :class:`FilterStageLog`, a passive observer the build pipeline
feeds), the guard-level pruning counters :class:`SearchStats` already
accumulates, and per-root-partition worker wall-clock from the
procpool.

The differential rule is absolute and inherited by construction:
``FilterStageLog`` only reads mask popcounts, the procpool task
collector only copies results the pool produced anyway, and analyze
calls the *ordinary* ``GuPEngine.match`` on the very GCS it inspected
— so an analyze run returns byte-identical embeddings / stats / status
to an unobserved run (``tests/test_explain_differential.py`` proves it
for production and the seed oracle × workers).

The report is returned in the query reply and nothing else keeps it: a
served analyze is one ``query`` line in a ``--request-log`` like any
other query.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence

from repro.matching.result import MatchResult, SearchStats

class FilterStageLog:
    """Passive collector of per-vertex candidate counts per filter stage.

    The mask build pipeline calls :meth:`record` with the popcounts of
    the current candidate masks after each stage it completes (seed
    masks, the selected filter, each DAG-DP round, the consistency
    prune); counts are indexed by *matching-order position* because the
    pipeline runs on the reordered query.  Recording reads popcounts
    and copies a list — it never touches the masks, which is what keeps
    an explained build identical to a plain one.
    """

    __slots__ = ("stages", "dag_parents", "dag_children")

    def __init__(self) -> None:
        self.stages: List[Dict[str, Any]] = []
        self.dag_parents: Optional[List[List[int]]] = None
        self.dag_children: Optional[List[List[int]]] = None

    def record(self, stage: str, counts: Sequence[int]) -> None:
        self.stages.append({
            "stage": stage,
            "candidates_per_vertex": list(counts),
            "total": sum(counts),
        })

    def record_masks(self, stage: str, masks: Sequence[int]) -> None:
        self.record(stage, [m.bit_count() for m in masks])

    def set_dag(self, dag) -> None:
        """Capture the actual :class:`~repro.filtering.dag.QueryDag` swept."""
        self.dag_parents = [list(p) for p in dag.parents]
        self.dag_children = [list(c) for c in dag.children]


def stats_dict(stats: SearchStats) -> Dict[str, Any]:
    """A :class:`SearchStats` as a JSON-friendly dict plus derived rates."""
    out = {f.name: getattr(stats, f.name) for f in dataclass_fields(SearchStats)}
    out["pruned_by_guards"] = stats.pruned_by_guards()
    out["guard_prune_fraction"] = round(stats.guard_prune_fraction(), 6)
    out["average_nogood_size"] = round(stats.average_nogood_size(), 4)
    return out


def plan_report(gcs, config, stage_log: Optional[FilterStageLog] = None) -> Dict[str, Any]:
    """The EXPLAIN (plan) report for one built GCS.

    Everything here is read off the build the engine actually performed
    — ``gcs.order`` *is* the matching order the search would run, the
    reservation inventory *is* the generated guard table.  Per-vertex
    score rows expose the components the ``vc`` ordering ranks by
    (cover membership, candidates, degree); for other orderings the
    cover column is omitted.
    """
    query = gcs.original_query
    cover = None
    if config.ordering == "vc" and query.num_vertices > 0:
        from repro.ordering.vc import _query_vertex_cover

        cover = _query_vertex_cover(query)

    stages = stage_log.stages if stage_log is not None else []
    base = next(
        (s["candidates_per_vertex"] for s in stages if s["stage"] == "seed"),
        None,
    )
    vertex_scores = []
    for position, vertex in enumerate(gcs.order):
        row: Dict[str, Any] = {
            "position": position,
            "vertex": vertex,
            "label": str(query.label(vertex)),
            "degree": query.degree(vertex),
            "initial_candidates": (
                base[position] if base is not None else None
            ),
            "final_candidates": len(gcs.cs.candidates[position]),
        }
        if cover is not None:
            row["in_cover"] = vertex in cover
        vertex_scores.append(row)

    reservation_sizes = gcs.reservation_sizes()
    memory = gcs.memory_estimate()
    report: Dict[str, Any] = {
        "mode": "plan",
        "query": {
            "num_vertices": query.num_vertices,
            "num_edges": query.num_edges,
            "labels": sorted(str(l) for l in query.label_set),
        },
        "ordering": config.ordering,
        "order": list(gcs.order),
        "vertex_scores": vertex_scores,
        "filter": config.filter_method,
        "stages": stages,
        "dag": (
            {
                "parents": stage_log.dag_parents,
                "children": stage_log.dag_children,
            }
            if stage_log is not None and stage_log.dag_parents is not None
            else None
        ),
        "reservations": {
            "guards": sum(reservation_sizes.values()),
            "reserved_vertices": sum(
                size * count for size, count in reservation_sizes.items()
            ),
            "memory_bytes": memory["reservation"],
        },
        "two_core_edges": len(gcs.two_core),
        "candidate_space": {
            "vertices": gcs.cs.total_candidates(),
            "edges": gcs.cs.num_candidate_edges,
            "memory_bytes": memory["candidate_space"],
        },
        "build_seconds": round(gcs.build_seconds, 6),
        "qcache": None,  # the server fills its admission-side decision in
    }
    return report


def analyze_report(
    report: Dict[str, Any],
    result: MatchResult,
    tasks: Optional[List[Dict[str, Any]]] = None,
    workers: int = 1,
) -> Dict[str, Any]:
    """Extend a plan report with the executed search's attribution."""
    report["mode"] = "analyze"
    report["workers"] = workers
    report["result"] = {
        "num_embeddings": result.num_embeddings,
        "status": result.status.value,
        "search_seconds": round(result.elapsed_seconds, 6),
        "preprocessing_seconds": round(result.preprocessing_seconds, 6),
    }
    report["search"] = stats_dict(result.stats)
    report["tasks"] = tasks or []
    return report

