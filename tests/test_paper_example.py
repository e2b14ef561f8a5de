"""The paper's worked examples, end to end (Fig. 1/2/3, Examples 3.x).

These tests pin the implementation to the paper's own numbers wherever
the text states them explicitly.
"""

import pytest

from repro.baselines.vf2 import Vf2Matcher
from repro.core.config import GuPConfig
from repro.core.engine import match
from repro.core.gcs import build_gcs
from repro.filtering.nlf import nlf_candidates
from repro.filtering.candidate_space import CandidateSpace
from repro.core.reservation import generate_reservation_guards
from repro.workload.paper_example import (
    PAPER_FULL_EMBEDDING,
    paper_example_data,
    paper_example_query,
)


@pytest.fixture(scope="module")
def graphs():
    return paper_example_query(), paper_example_data()


class TestFigure1:
    def test_sizes(self, graphs):
        q, d = graphs
        assert q.num_vertices == 5
        assert d.num_vertices == 14

    def test_unique_full_embedding(self, graphs):
        """Fig. 3: the search tree contains exactly one full embedding."""
        q, d = graphs
        result = Vf2Matcher().match(q, d)
        assert result.embeddings == [PAPER_FULL_EMBEDDING]

    def test_intro_example_structure(self, graphs):
        # §1's M maps u0..u4 to v1, v4, v7, v10, v0.
        q, d = graphs
        m = PAPER_FULL_EMBEDDING
        for a, b in q.edges():
            assert d.has_edge(m[a], m[b])


class TestSection31:
    def test_candidate_sets_label_only_except_v13(self, graphs):
        q, d = graphs
        c = nlf_candidates(q, d)
        assert c[0] == [0, 1]          # v13 removed by NLF
        assert c[1] == [2, 3, 4]
        assert c[2] == [5, 6, 7, 8]
        assert c[3] == [9, 10, 11, 12]
        assert c[4] == [0, 1, 13]


class TestExample34:
    def test_subembeddings_rooted_at_u1_v3(self, graphs):
        """Example 3.4 lists exactly four subembeddings, all hitting
        {v0, v1}."""
        from tests.test_core_reservation import rooted_subembeddings

        q, d = graphs
        cs = CandidateSpace(q, d, nlf_candidates(q, d))
        subs = rooted_subembeddings(cs, 1, 3)
        as_sets = sorted(tuple(sorted(s.items())) for s in subs)
        expected = sorted(
            tuple(sorted(s.items()))
            for s in [
                {1: 3, 2: 5, 3: 9, 4: 0},
                {1: 3, 2: 7, 3: 10, 4: 0},
                {1: 3, 2: 8, 3: 11, 4: 1},
                {1: 3, 2: 8, 3: 12, 4: 1},
            ]
        )
        assert as_sets == expected
        for s in subs:
            assert {0, 1} & set(s.values())


class TestExample313:
    def test_reservation_guards(self, graphs):
        q, d = graphs
        cs = CandidateSpace(q, d, nlf_candidates(q, d))
        R = generate_reservation_guards(cs, size_limit=3)
        pos = cs.positions
        # R(u4, v0) = {v0} and R(u4, v13) = {v13} are trivial: not stored.
        assert pos[4][0] not in R[4]
        assert pos[4][13] not in R[4]
        assert R[3][pos[3][9]] == frozenset({0})
        assert R[2][pos[2][5]] == frozenset({0})


class TestExample320:
    def test_local_candidates_after_u0(self, graphs):
        q, d = graphs
        c = nlf_candidates(q, d)
        nbr_v0 = d.neighbor_set(0)
        assert [v for v in c[2] if v in nbr_v0] == [5, 6, 7]
        # u1's assignment (v3) does not shrink it further.
        nbr_v3 = d.neighbor_set(3)
        assert [v for v in c[2] if v in nbr_v0 and v in nbr_v3] == [5, 6, 7]


class TestExample324:
    def test_no_candidate_conflict(self, graphs):
        q, d = graphs
        c = nlf_candidates(q, d)
        common = (
            set(d.neighbor_set(6)) & set(d.neighbor_set(11)) & set(c[4])
        )
        assert common == set()


class TestGuPOnExample:
    @pytest.mark.parametrize(
        "config",
        [
            GuPConfig.full(),
            GuPConfig.baseline(),
            GuPConfig.reservation_only(),
            GuPConfig.r_nv(),
            GuPConfig.r_nv_ne(),
        ],
        ids=["All", "baseline", "R", "R+NV", "R+NV+NE"],
    )
    def test_every_config_finds_the_unique_embedding(self, graphs, config):
        q, d = graphs
        result = match(q, d, config=config)
        assert result.embeddings == [PAPER_FULL_EMBEDDING]

    def test_guards_prune_relative_to_baseline(self, graphs):
        """The shaded-node pruning of Fig. 3: GuP explores less."""
        q, d = graphs
        full = match(q, d, config=GuPConfig.full())
        base = match(q, d, config=GuPConfig.baseline())
        assert full.stats.recursions <= base.stats.recursions
        assert full.stats.futile_recursions <= base.stats.futile_recursions
