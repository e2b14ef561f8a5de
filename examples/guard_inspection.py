#!/usr/bin/env python
"""Walk through GuP's guards on the paper's running example (Fig. 1).

This pedagogical example reconstructs Section 3's worked examples:

* the candidate sets after NLF filtering (§3.1: only v13 is removed),
* the reservation guards of Algorithm 1 (Example 3.13),
* the backtracking search with guard statistics (Example 3.34 / Fig. 3),
* the nogood guards recorded along the way.

Run:  python examples/guard_inspection.py
"""

from repro.core.backtrack import GuPSearch
from repro.core.config import GuPConfig
from repro.core.gcs import GuardedCandidateSpace
from repro.core.nogood import NogoodStore
from repro.core.reservation import generate_reservation_guards
from repro.filtering.candidate_space import CandidateSpace
from repro.filtering.nlf import nlf_candidates
from repro.graph.algorithms import two_core_edges
from repro.workload import paper_example_data, paper_example_query


def main() -> None:
    query = paper_example_query()
    data = paper_example_data()
    print("query Q (Fig. 1a):", query)
    for u in query.vertices():
        print(f"  u{u} [{query.label(u)}] - neighbors "
              f"{['u%d' % w for w in query.neighbors(u)]}")
    print("data G (Fig. 1b):", data)

    # -- candidate filtering (the paper keeps the natural order u0..u4) --
    candidates = nlf_candidates(query, data)
    print("\ncandidate sets after LDF+NLF (sec. 3.1):")
    for u, c in enumerate(candidates):
        print(f"  C(u{u}) = {{{', '.join('v%d' % v for v in c)}}}")
    print("  (v13 was removed from C(u0): it has no label-B neighbor)")

    # -- reservation guards (Algorithm 1, Example 3.13) ------------------
    cs = CandidateSpace(query, data, candidates)
    gcs = GuardedCandidateSpace(
        original_query=query,
        query=query,
        data=data,
        order=list(query.vertices()),
        cs=cs,
        reservations=generate_reservation_guards(cs, size_limit=3),
        two_core=frozenset(two_core_edges(query)),
    )
    print("\nreservation guards R(u_i, v) (Example 3.13):")
    for i in query.vertices():
        row = []
        for v in cs.candidates[i]:
            guard = sorted(gcs.reservation(i, v))
            row.append(f"v{v}:{{{','.join('v%d' % w for w in guard)}}}")
        print(f"  u{i}: " + "  ".join(row))

    # -- guarded backtracking (Fig. 3 / Example 3.34) --------------------
    search = GuPSearch(gcs, config=GuPConfig.full())
    embeddings, status = search.run()

    print(f"\nsearch outcome: {len(embeddings)} embedding(s), {status.value}")
    for e in embeddings:
        print("  M = {" + ", ".join(f"(u{i}, v{v})" for i, v in enumerate(e)) + "}")

    stats = search.stats
    print("\nguard activity during the search:")
    print(f"  recursions:              {stats.recursions}")
    print(f"  futile recursions:       {stats.futile_recursions}")
    print(f"  reservation prunes:      {stats.pruned_reservation}")
    print(f"  nogood-vertex prunes:    {stats.pruned_nogood_vertex}")
    print(f"  nogood-edge prunes:      {stats.pruned_nogood_edge}")
    print(f"  NV guards recorded:      {stats.nogoods_recorded_vertex}")
    print(f"  NE guards recorded:      {stats.nogoods_recorded_edge}")
    print(f"  backjumps:               {stats.backjumps}")

    # -- guard inventory (what the run learned) ---------------------------
    from repro.analysis.guards import guard_inventory

    print("\nguard inventory:")
    for line in guard_inventory(gcs, stats).lines():
        print("  " + line)

    # -- compare with conventional backtracking (the unshaded Fig. 3) ----
    plain = GuPSearch(
        gcs, config=GuPConfig.baseline(), nogoods=NogoodStore()
    )
    plain_embeddings, _ = plain.run()
    assert sorted(plain_embeddings) == sorted(embeddings)
    print(f"\nconventional backtracking explores {plain.stats.recursions} "
          f"recursions ({plain.stats.futile_recursions} futile); GuP "
          f"explored {stats.recursions} ({stats.futile_recursions} futile) "
          f"- the shaded nodes of Fig. 3 are the difference.")


if __name__ == "__main__":
    main()
