"""Unit + property tests for reservation guards (§3.2).

The key property test checks Definition 3.3 directly: for every
generated guard ``R(u_i, v)``, every subembedding rooted at ``(u_i, v)``
(enumerated exhaustively) must contain an assignment to a vertex of the
guard.
"""

import random

import pytest

from repro.core.gcs import build_gcs
from repro.core.reservation import (
    generate_reservation_guards,
    is_matchable,
    reservation_memory_bytes,
)
from repro.filtering.candidate_space import CandidateSpace, build_candidate_space
from repro.filtering.nlf import nlf_candidates
from tests.conftest import make_random_pair


def all_guards(cs, R):
    """Every candidate's ``((i, v), R(u_i, v))``: the stored guard at the
    candidate's position, else the trivial ``{v}``."""
    for i, cands in enumerate(cs.candidates):
        for p, v in enumerate(cands):
            yield (i, v), R[i].get(p, frozenset((v,)))


def rooted_subembeddings(cs, i, v):
    """Exhaustively enumerate subembeddings rooted at (u_i, v) (Def 3.2)."""
    query = cs.query
    # Inclusive descendants of u_i (Definition 3.1).
    descendants = {i}
    changed = True
    while changed:
        changed = False
        for u in list(descendants):
            for w in query.neighbors(u):
                if w > u and w not in descendants:
                    descendants.add(w)
                    changed = True
    members = sorted(descendants)
    index = {u: p for p, u in enumerate(members)}

    results = []

    def backtrack(assignment):
        p = len(assignment)
        if p == len(members):
            results.append(dict(zip(members, assignment)))
            return
        u = members[p]
        for cand in cs.candidates[u]:
            if cand in assignment:
                continue
            ok = True
            for w in query.neighbors(u):
                if w in index and index[w] < p:
                    if not cs.data.has_edge(assignment[index[w]], cand):
                        ok = False
                        break
            if ok:
                backtrack(assignment + [cand])

    # Force the root assignment.
    if v in cs.candidates[i]:
        backtrack([v])
    return [m for m in results if m[i] == v]


class TestPaperExamples:
    def test_example_3_13(self, paper_query, paper_data):
        cs = CandidateSpace(paper_query, paper_data, nlf_candidates(paper_query, paper_data))
        R = generate_reservation_guards(cs, size_limit=3)
        pos = cs.positions
        assert R[3][pos[3][9]] == frozenset({0})
        assert R[2][pos[2][5]] == frozenset({0})
        # The trivial reservations {v} are not stored.
        assert pos[4][0] not in R[4]
        assert pos[4][13] not in R[4]

    def test_example_3_8_matchability(self, paper_query, paper_data):
        cs = CandidateSpace(paper_query, paper_data, nlf_candidates(paper_query, paper_data))
        # {v0, v1} fails condition (ii) at position 1.
        assert not is_matchable(cs, 1, frozenset({0, 1}))
        # Each singleton alone is matchable there.
        assert is_matchable(cs, 1, frozenset({0}))
        assert is_matchable(cs, 1, frozenset({1}))

    def test_condition_i(self, paper_query, paper_data):
        cs = CandidateSpace(paper_query, paper_data, nlf_candidates(paper_query, paper_data))
        # v13 is only a candidate of u4, so C^{-1}(v13)[:i] is empty for
        # every position i <= 4 — {v13} is never matchable as a guard.
        assert not is_matchable(cs, 2, frozenset({13}))
        assert not is_matchable(cs, 4, frozenset({13}))
        # v0 is a candidate of u0, so it is matchable from position 1 on.
        assert is_matchable(cs, 4, frozenset({0}))


class TestGeneration:
    def test_every_candidate_gets_a_guard(self, paper_query, paper_data):
        cs = CandidateSpace(paper_query, paper_data, nlf_candidates(paper_query, paper_data))
        R = generate_reservation_guards(cs)
        # One table per query vertex, holding only non-trivial guards;
        # every other candidate has the trivial {v}.
        assert len(R) == paper_query.num_vertices
        for i in paper_query.vertices():
            for p, guard in R[i].items():
                assert 0 <= p < len(cs.candidates[i])
                assert guard != frozenset((cs.candidates[i][p],))

    def test_size_limit_respected(self, rng):
        for _ in range(10):
            q, d = make_random_pair(rng, max_query=7)
            cs = build_candidate_space(q, d, method="nlf")
            for r in (0, 1, 2, 3):
                R = generate_reservation_guards(cs, size_limit=r)
                for (i, v), guard in all_guards(cs, R):
                    # Trivial fallback {v} is exempt from the limit.
                    assert len(guard) <= max(r, 1)

    def test_memory_model(self, paper_query, paper_data):
        gcs = build_gcs(paper_query, paper_data)
        sizes = gcs.reservation_sizes()
        # Every candidate has a guard, the trivial ones included.
        assert sum(sizes.values()) == gcs.cs.total_candidates()
        assert reservation_memory_bytes(sizes) > 0
        assert reservation_memory_bytes(sizes) == gcs.memory_estimate()["reservation"]


class TestReservationProperty:
    """Definition 3.3, checked by exhaustive enumeration."""

    @pytest.mark.parametrize("size_limit", [1, 3, None])
    def test_guards_are_reservations(self, size_limit, rng):
        for _ in range(30):
            q, d = make_random_pair(rng, max_query=5, max_data=10)
            cs = build_candidate_space(q, d, method="nlf")
            R = generate_reservation_guards(cs, size_limit=size_limit)
            for (i, v), guard in all_guards(cs, R):
                # Definition 3.3: every rooted subembedding must hit the
                # guard.  An empty guard therefore asserts there is no
                # rooted subembedding at all.
                for sub in rooted_subembeddings(cs, i, v):
                    used = set(sub.values())
                    assert used & set(guard), (
                        f"guard {set(guard)} missed subembedding {sub} "
                        f"rooted at (u{i}, v{v})"
                    )

    def test_empty_guard_only_when_no_subembedding(self, rng):
        # An empty reservation asserts NO rooted subembedding exists.
        for _ in range(20):
            q, d = make_random_pair(rng, max_query=5, max_data=10)
            cs = build_candidate_space(q, d, method="nlf")
            R = generate_reservation_guards(cs, size_limit=3)
            for (i, v), guard in all_guards(cs, R):
                if guard == frozenset():
                    assert rooted_subembeddings(cs, i, v) == []
