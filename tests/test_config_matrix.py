"""Config-matrix differential test: every feature combination is exact.

The engine now has many orthogonal knobs (guards, backjumping, nogood
representation, reservation limit, symmetry breaking, filter, order).
This test sweeps a structured sample of the cross-product and checks
the embedding set against the VF2 oracle on randomized instances —
the guard combinations must compose without interfering.
"""

import itertools
import random

import pytest

from repro.baselines.vf2 import Vf2Matcher
from repro.core.backtrack_ref import ReferenceEngine
from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine, match
from repro.dynamic.continuous import ContinuousMatcher
from repro.dynamic.delta import GraphDelta
from repro.graph.generators import erdos_renyi_graph, random_connected_graph
from repro.workload.datasets import load_dataset
from repro.workload.querygen import QuerySetSpec, generate_query_set
from tests.oracle_engines import assert_twin_stats, oracle_match

ORACLE = Vf2Matcher()


def configs():
    """A structured sample of the configuration cross-product."""
    out = []
    for use_r, use_nv, use_ne, use_bj in itertools.product((False, True), repeat=4):
        out.append(
            GuPConfig(
                use_reservation=use_r,
                use_nogood_vertex=use_nv,
                use_nogood_edge=use_ne,
                use_backjumping=use_bj,
            )
        )
    for representation in ("search_node", "explicit"):
        for symmetry in (False, True):
            out.append(
                GuPConfig(
                    nogood_representation=representation,
                    break_symmetry=symmetry,
                )
            )
    for filt in ("ldf", "nlf", "nlf2", "dagdp", "gql"):
        for order in ("vc", "gql", "ri"):
            out.append(GuPConfig(filter_method=filt, ordering=order))
    for r in (0, 1, None):
        out.append(GuPConfig(reservation_limit=r, ne_two_core_only=False))
    return out


CONFIGS = configs()


def instances(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nq = rng.randint(2, 5)
        nd = rng.randint(4, 12)
        labels = rng.randint(1, 3)
        query = random_connected_graph(
            nq, nq - 1 + rng.randint(0, 4), num_labels=labels,
            seed=rng.randint(0, 10**9),
        )
        data = erdos_renyi_graph(
            nd, rng.randint(0, nd * 2), num_labels=labels,
            seed=rng.randint(0, 10**9),
        )
        yield query, data


@pytest.mark.parametrize("index", range(0, len(CONFIGS), 3))
def test_config_sample_is_exact(index):
    config = CONFIGS[index]
    for query, data in instances(seed=index * 31 + 7, count=10):
        expected = ORACLE.match(query, data).embedding_set()
        got = match(query, data, config=config).embedding_set()
        assert got == expected, config


def test_every_config_on_one_instance():
    rng = random.Random(99)
    query = random_connected_graph(5, 7, num_labels=2, seed=1)
    data = erdos_renyi_graph(14, 30, num_labels=2, seed=2)
    expected = ORACLE.match(query, data).embedding_set()
    for config in CONFIGS:
        got = match(query, data, config=config).embedding_set()
        assert got == expected, config


# -- reference twin grid ---------------------------------------------------
#
# The production pipeline (bitmap candidates, int-mask build) must be
# bit-for-bit the oracle (``ReferenceEngine``: list candidates, set
# build; its procpool runs reuse the production search): not
# just the same embedding *set*, but the same embedding list
# (enumeration order), the same SearchStats (every recursion, every
# guard firing), and the same termination status — crossed with the
# guard, filter and order knobs so a mask-kernel bug can't hide behind
# a particular configuration.

TWIN_CROSS = [
    {},
    {"filter_method": "dagdp", "ordering": "ri"},
    {"filter_method": "gql", "ordering": "gql"},
    {"filter_method": "nlf", "ordering": "vc"},
    {"reservation_limit": None, "ne_two_core_only": False},
    {"use_reservation": False, "use_backjumping": False,
     "use_nogood_vertex": False, "use_nogood_edge": False},
]

def assert_twin_results(mask_result, reference, context):
    """``reference`` is ``oracle_match``'s (result, dead records) pair."""
    reference_result, dead = reference
    assert mask_result.embeddings == reference_result.embeddings, context
    assert mask_result.num_embeddings == reference_result.num_embeddings, context
    assert mask_result.status == reference_result.status, context
    assert_twin_stats(
        mask_result.stats, reference_result.stats, dead,
        reference_result.status, context,
    )


class TestReferenceTwin:
    @pytest.mark.parametrize(
        "index", range(len(TWIN_CROSS)),
        ids=["+".join(sorted(k)) or "defaults" for k in TWIN_CROSS],
    )
    def test_mask_twin_on_randomized_instances(self, index):
        knobs = TWIN_CROSS[index]
        config = GuPConfig(**knobs)
        for query, data in instances(seed=index * 101 + 13, count=8):
            assert_twin_results(
                match(query, data, config=config),
                oracle_match(ReferenceEngine(data, config), query),
                knobs,
            )

    @pytest.fixture(scope="class")
    def fig6_workload(self):
        data = load_dataset("wordnet", scale=0.25, seed=2023)
        queries = generate_query_set(
            data, QuerySetSpec(8, "sparse"), count=3, seed=7
        )
        return data, list(queries)

    def test_mask_twin_on_fig6_set(self, fig6_workload):
        data, queries = fig6_workload
        mask_engine = GuPEngine(data)
        ref_engine = ReferenceEngine(data)
        for query in queries:
            assert_twin_results(
                mask_engine.match(query), oracle_match(ref_engine, query),
                "fig6",
            )

    def test_mask_twin_through_procpool(self, fig6_workload):
        # The pool pickles DataArtifacts into workers; the int masks
        # must round-trip through that and still replay the reference
        # twin's exact enumeration (root-order concatenation, DESIGN.md §6).
        data, queries = fig6_workload
        mask_engine = GuPEngine(data)
        ref_engine = ReferenceEngine(data)
        for query in queries:
            par = mask_engine.match(query, workers=2)
            assert_twin_results(
                par, oracle_match(ref_engine, query, workers=2),
                "fig6+procpool",
            )
            # and the pool itself is exact: same list as sequential
            assert par.embeddings == mask_engine.match(query).embeddings

    def test_mask_twin_through_delta_sequence(self):
        # ContinuousMatcher patches artifacts in place via apply_delta,
        # flipping adjacency bits (it is mask-native, so it has no
        # reference build of its own); every epoch's diff must replay to
        # exactly the reference twin's fresh match on the new graph.
        rng = random.Random(4242)
        data = erdos_renyi_graph(16, 30, num_labels=2, seed=5)
        query = random_connected_graph(3, 3, num_labels=2, seed=6)
        matcher = ContinuousMatcher(data)
        standing = set(matcher.register("q", query))
        assert standing == ReferenceEngine(data).match(query).embedding_set()
        for step in range(6):
            edges = list(matcher.graph.edges())
            remove = tuple(rng.sample(edges, min(2, len(edges))))
            add = []
            while len(add) < 2:
                u, v = rng.randrange(16), rng.randrange(16)
                e = (min(u, v), max(u, v))
                if u != v and not matcher.graph.has_edge(u, v) \
                        and e not in add and e not in remove:
                    add.append(e)
            delta = GraphDelta(add_edges=tuple(add), remove_edges=remove)
            diff = matcher.apply(delta)["q"]
            standing = (standing - set(diff.removed)) | set(diff.added)
            fresh = ReferenceEngine(matcher.graph).match(query)
            assert standing == fresh.embedding_set(), step
            assert set(matcher.matches("q")) == standing, step
