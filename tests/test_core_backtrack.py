"""Behavioral tests for the guarded backtracking (Algorithm 2).

These pin down the paper's mechanisms: guard pruning actually fires,
backjumping skips siblings, ablation configs form a pruning ladder, and
aborted runs never record guards.
"""

import sys

import pytest

from repro.core.backtrack import GuPSearch
from repro.core.backtrack_ref import ListGuPSearch
from repro.core.config import GuPConfig
from repro.core.engine import match
from repro.core.gcs import build_gcs
from repro.graph.builder import GraphBuilder
from repro.graph.generators import powerlaw_cluster_graph, random_connected_graph
from repro.matching.limits import SearchLimits
from repro.matching.result import TerminationStatus


def hard_instance(seed=11, nq=10, nd=60):
    """Satisfiable cyclic query on a clustered graph: deadend-rich search.

    Extracting the query from the data graph (random walk) guarantees at
    least one embedding, so filtering cannot empty the candidate space
    and the backtracking actually explores.
    """
    from repro.workload.querygen import generate_query

    data = powerlaw_cluster_graph(nd, 3, 0.35, num_labels=4, seed=seed + 1)
    query = generate_query(data, nq, "dense", seed=seed)
    return query, data


class TestGuardFiring:
    def test_reservation_prunes_on_paper_example(self, paper_query, paper_data):
        result = match(paper_query, paper_data, config=GuPConfig.reservation_only())
        # Fig. 3 / Example 3.34: R(u2, v5) fires during the search.
        assert result.stats.pruned_reservation >= 1

    def test_nv_guards_fire(self):
        q, d = hard_instance()
        result = match(q, d, config=GuPConfig.r_nv())
        assert result.stats.nogoods_recorded_vertex > 0
        # Recording alone is not the point; matches must prune.
        total = 0
        for seed in range(6):
            q, d = hard_instance(seed=seed * 7 + 1)
            total += match(q, d, config=GuPConfig.r_nv()).stats.pruned_nogood_vertex
        assert total > 0

    def test_ne_guards_fire(self):
        total_rec = total_pruned = 0
        for seed in range(8):
            q, d = hard_instance(seed=seed * 13 + 3)
            r = match(q, d, config=GuPConfig.r_nv_ne())
            total_rec += r.stats.nogoods_recorded_edge
            total_pruned += r.stats.pruned_nogood_edge
        assert total_rec > 0
        assert total_pruned > 0

    def test_backjumps_happen(self):
        total = 0
        for seed in range(6):
            q, d = hard_instance(seed=seed * 3 + 2)
            total += match(q, d, config=GuPConfig.full()).stats.backjumps
        assert total > 0


class TestAblationLadder:
    def test_each_guard_reduces_futile_recursions(self):
        """Fig. 9's qualitative shape over a small workload."""
        configs = [
            ("baseline", GuPConfig.baseline()),
            ("R", GuPConfig.reservation_only()),
            ("R+NV", GuPConfig.r_nv()),
            ("R+NV+NE", GuPConfig.r_nv_ne()),
            ("All", GuPConfig.full()),
        ]
        futile = {}
        for name, config in configs:
            total = 0
            for seed in range(12):
                q, d = hard_instance(seed=seed * 17 + 5)
                total += match(q, d, config=config).stats.futile_recursions
            futile[name] = total
        assert futile["R"] <= futile["baseline"]
        assert futile["R+NV"] <= futile["R"]
        assert futile["R+NV+NE"] <= futile["R+NV"]
        assert futile["All"] <= futile["R+NV+NE"]
        # And the whole ladder is a strict improvement end to end.
        assert futile["All"] < futile["baseline"]


class TestAbortSafety:
    def test_no_recording_after_embedding_limit(self):
        q, d = hard_instance(seed=29)
        gcs = build_gcs(q, d)
        limits = SearchLimits(max_embeddings=1, collect=False)
        search = GuPSearch(gcs, limits=limits)
        _, status = search.run()
        if status is TerminationStatus.EMBEDDING_LIMIT:
            # Recording stops at the abort; the counters must agree with
            # the store contents (no post-abort writes).
            assert search.stats.embeddings_found == 1

    def test_timeout_fires_on_long_searches(self):
        # An unlabeled path in a dense unlabeled graph: astronomically
        # many embeddings, so the search must hit the deadline poll.
        data = random_connected_graph(40, 300, num_labels=1, seed=1)
        from repro.workload.querygen import generate_query

        query = generate_query(data, 8, "dense", seed=2)
        result = match(
            query,
            data,
            limits=SearchLimits(time_limit=0.0, collect=False),
        )
        assert result.status is TerminationStatus.TIMEOUT

    def test_tiny_searches_may_finish_before_the_poll(self, paper_query, paper_data):
        # Deadline polling is amortized (every ~2k recursions): a search
        # that small legitimately completes despite a 0-second limit.
        result = match(
            paper_query, paper_data, limits=SearchLimits(time_limit=0.0)
        )
        assert result.status in (
            TerminationStatus.COMPLETE,
            TerminationStatus.TIMEOUT,
        )

    def test_fresh_search_not_reusable_state(self, paper_query, paper_data):
        gcs = build_gcs(paper_query, paper_data)
        s1 = GuPSearch(gcs)
        r1, _ = s1.run()
        s2 = GuPSearch(gcs)
        r2, _ = s2.run()
        assert r1 == r2


class TestWatchAccounting:
    def test_watches_fully_released(self):
        """The watch accounting must drain back to zero."""
        for seed in (3, 5, 7):
            q, d = hard_instance(seed=seed)
            gcs = build_gcs(q, d)
            search = GuPSearch(gcs)
            search.run()
            assert search._watch_total == 0

    def test_max_watches_zero_disables_ne_recording_only(self):
        q, d = hard_instance(seed=41)
        gcs = build_gcs(q, d)
        search = GuPSearch(gcs, max_watches=0)
        embeddings, _ = search.run()
        reference = GuPSearch(build_gcs(q, d))
        ref_embeddings, _ = reference.run()
        assert sorted(embeddings) == sorted(ref_embeddings)


class TestFrameChunk:
    """The recursion runs in one data-stack chunk, wherever it starts."""

    def test_chunk_call_is_a_plain_call_with_reserved_frame(self):
        from repro.core.backtrack import _chunk_call, _trampoline

        assert _chunk_call(3000, divmod, 17, 5) == (3, 2)
        # 3000 words need a chunk of 8192: half of it is the trampoline.
        assert _trampoline(8192).__code__.co_stacksize > 4096
        assert _trampoline(4096) is _trampoline(4096)

    @staticmethod
    def worst_faults(search, ring):
        """Most page faults of one ``search`` run on a ``ring``-vertex
        ring query, over caller depths 0-23."""
        resource = pytest.importorskip("resource")
        from repro.graph.builder import graph_from_adjacency
        from repro.graph.generators import erdos_renyi_graph

        query = graph_from_adjacency(
            [i % 2 for i in range(ring)],
            [(i, (i + 1) % ring) for i in range(ring)],
        )
        gcs = build_gcs(query, erdos_renyi_graph(60, 90, num_labels=2, seed=0))

        def faults(depth):
            if depth:
                return faults(depth - 1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            search(gcs).run()
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(0)  # warm the allocator
        return max(faults(depth) for depth in range(24))

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="CPython's chunked frame stack",
    )
    def test_no_chunk_churn_at_any_base_depth(self):
        # Without the reserved chunk, some caller depth puts a chunk
        # boundary inside the recursion, and every descent across it
        # maps a chunk (page faults) that the return unmaps again.  An
        # 8-vertex ring takes the search just over half a chunk.
        worst = self.worst_faults(GuPSearch, 8)
        assert worst < 100, worst

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="CPython's chunked frame stack",
    )
    @pytest.mark.parametrize("search", [GuPSearch, ListGuPSearch])
    def test_no_chunk_churn_on_a_deeper_ring(self, search):
        # The oracle's recursion needs over half a chunk only from a
        # 12-vertex ring.  It follows the same rule, so the hot-path
        # gate's ratio over it compares searches, not stack positions.
        worst = self.worst_faults(search, 12)
        assert worst < 100, worst
