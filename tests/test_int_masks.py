"""Int-mask kernel suite: every mask idiom agrees with a set oracle.

Masks are plain Python ints end to end (DESIGN.md §11).  The idioms the
filtering and search code inlines — ``bitset.mask_of`` / ``bits_of``,
``int.bit_count``, the NLF threshold ladder, the DAG-DP ``survivors``
loop and the edge-bit flips in ``DataArtifacts.apply_delta`` — are
checked here against straightforward set/list oracles:

* a shared fixture list of boundary cases (empty mask, bit 63 / 64 /
  127, all-ones runs, sparse wide masks) where a fixed-width encoding
  would have gone wrong;
* Hypothesis round-trip and bit-op properties on arbitrary masks;
* the composite kernels (threshold masks, survivors with 0..3
  constraining masks, edge flips, LDF / NLF candidate masks) against
  their set-based definitions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.delta import GraphDelta, apply_delta
from repro.filtering.artifacts import DataArtifacts, _threshold_mask
from repro.filtering.ldf import ldf_candidates
from repro.filtering.masks import survivors
from repro.filtering.nlf import nlf_candidates
from repro.graph.generators import erdos_renyi_graph, random_connected_graph
from repro.utils.bitset import (
    EmptyMaskError,
    bit_count,
    bits_of,
    highest_bit,
    iter_bits,
    lowest_bit,
    mask_of,
)

# ----------------------------------------------------------------------
# Shared boundary fixtures: (name, mask, nbits)
# ----------------------------------------------------------------------

BOUNDARY_CASES = [
    ("empty", 0, 64),
    ("bit0", 1, 64),
    ("bit63", 1 << 63, 64),
    ("bit64", 1 << 64, 128),
    ("bit127", 1 << 127, 128),
    ("bits63_64", (1 << 63) | (1 << 64), 128),
    ("all_ones_1w", (1 << 64) - 1, 64),
    ("all_ones_2w", (1 << 128) - 1, 128),
    ("straddle", ((1 << 70) - 1) ^ (1 << 5), 128),
    ("sparse_wide", (1 << 200) | (1 << 64) | 1, 256),
    ("ragged_width", (1 << 65) | (1 << 3), 100),
]
BOUNDARY_IDS = [case[0] for case in BOUNDARY_CASES]


def set_bits(mask, nbits):
    """Oracle decode: test every position one by one."""
    return [i for i in range(nbits) if mask >> i & 1]


# ----------------------------------------------------------------------
# Representation: mask_of / bits_of round-trips
# ----------------------------------------------------------------------


class TestMaskRepresentation:
    @pytest.mark.parametrize("name,mask,nbits", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_round_trip(self, name, mask, nbits):
        assert mask_of(bits_of(mask)) == mask
        assert mask_of(iter_bits(mask)) == mask

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 512) - 1))
    def test_round_trip_property(self, mask):
        assert mask_of(bits_of(mask)) == mask

    def test_mask_of_round_trip_random_widths(self):
        rng = random.Random(3)
        for nbits in (1, 63, 64, 65, 127, 128, 700):
            mask = rng.getrandbits(nbits)
            assert mask_of(bits_of(mask)) == mask
        assert mask_of([]) == 0

    def test_mask_of_ignores_order_and_duplicates(self):
        assert mask_of([64, 0, 63, 64, 0]) == (1 << 64) | (1 << 63) | 1

    def test_positions_are_plain_ascending_ints(self):
        # GuPSearch decodes candidate positions with bits_of; they key
        # dicts and get pickled into procpool tasks, so they must be
        # plain ints in ascending order.
        wide = (1 << 700) | (1 << 64) | 1
        positions = bits_of(wide)
        assert positions == [0, 64, 700]
        assert all(type(p) is int for p in positions)


# ----------------------------------------------------------------------
# Bit ops vs the set oracle
# ----------------------------------------------------------------------

pair_masks = st.tuples(
    st.integers(min_value=0, max_value=(1 << 300) - 1),
    st.integers(min_value=0, max_value=(1 << 300) - 1),
)


class TestBitOpsAgainstSetOracle:
    @settings(max_examples=150, deadline=None)
    @given(pair_masks)
    def test_binary_ops(self, pair):
        a, b = pair
        sa, sb = set(bits_of(a)), set(bits_of(b))
        assert set(bits_of(a & b)) == sa & sb
        assert set(bits_of(a | b)) == sa | sb
        assert set(bits_of(a & ~b)) == sa - sb
        assert set(bits_of(a ^ b)) == sa ^ sb

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_unary_ops(self, mask):
        oracle = set_bits(mask, 300)
        assert bits_of(mask) == oracle
        assert mask.bit_count() == bit_count(mask) == len(oracle)
        if mask:
            assert lowest_bit(mask) == oracle[0]
            assert highest_bit(mask) == oracle[-1]

    @pytest.mark.parametrize("name,mask,nbits", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_boundary_decode_and_popcount(self, name, mask, nbits):
        oracle = set_bits(mask, nbits)
        assert bits_of(mask) == oracle
        assert list(iter_bits(mask)) == oracle
        assert mask.bit_count() == len(oracle)
        for i in range(0, nbits, 7):
            assert bool(mask >> i & 1) == (i in oracle)

    @pytest.mark.parametrize("name,mask,nbits", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_boundary_lowest_highest(self, name, mask, nbits):
        oracle = set_bits(mask, nbits)
        if not oracle:
            with pytest.raises(EmptyMaskError):
                lowest_bit(mask)
            with pytest.raises(EmptyMaskError):
                highest_bit(mask)
            return
        assert lowest_bit(mask) == oracle[0]
        assert highest_bit(mask) == oracle[-1]

    def test_set_clear_bits_across_word_boundary(self):
        mask = 0
        mask |= 1 << 63
        mask |= 1 << 64
        assert mask == (1 << 63) | (1 << 64)
        mask &= ~(1 << 63)
        assert mask == 1 << 64
        mask &= ~1  # clearing an unset bit is a no-op
        assert mask == 1 << 64


# ----------------------------------------------------------------------
# Threshold ladders (NLF / NLF2 count masks)
# ----------------------------------------------------------------------


class TestThresholdMask:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    @pytest.mark.parametrize("needed", [0, 1, 3, 6])
    def test_matches_set_definition(self, n, needed):
        rng = random.Random(n * 10 + needed)
        counts = [rng.randrange(6) for _ in range(n)]
        expected = {v for v, c in enumerate(counts) if c >= needed}
        assert set(bits_of(_threshold_mask(counts, needed))) == expected

    def test_nlf_count_masks_match_frequency_tables(self):
        data = erdos_renyi_graph(90, 260, num_labels=3, seed=17)
        artifacts = DataArtifacts(data)
        for label in sorted(data.label_set):
            for count in range(4):
                expected = {
                    v
                    for v in data.vertices()
                    if data.neighbor_label_frequency(v).get(label, 0) >= count
                }
                got = artifacts.nlf_count_mask(label, count)
                assert set(bits_of(got)) == expected


# ----------------------------------------------------------------------
# Survivors (the DAG-DP / consistency-prune inner loop)
# ----------------------------------------------------------------------


def _random_adjacency(rng, n):
    rows = [0] * n
    for _ in range(n * 3):
        u, v = rng.randrange(n), rng.randrange(n)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def survivors_oracle(adjacency, mask, constraining_masks):
    keep = set()
    for v in bits_of(mask):
        neighbors = set(bits_of(adjacency[v]))
        if all(neighbors & set(bits_of(c)) for c in constraining_masks):
            keep.add(v)
    return mask_of(keep)


class TestSurvivors:
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    @pytest.mark.parametrize("num_constraints", [0, 1, 2, 3])
    def test_matches_set_oracle(self, n, num_constraints):
        rng = random.Random(n * 7 + num_constraints)
        adjacency = _random_adjacency(rng, n)
        for _ in range(40):
            mask = rng.getrandbits(n)
            cons = [rng.getrandbits(n) for _ in range(num_constraints)]
            expected = survivors_oracle(adjacency, mask, cons)
            assert survivors(adjacency, mask, cons) == expected

    def test_empty_inputs(self):
        adjacency = [0b10, 0b01]
        assert survivors(adjacency, 0, [0b11]) == 0
        assert survivors(adjacency, 0b11, []) == 0b11
        assert survivors(adjacency, 0b11, [0]) == 0

    def test_boundary_widths(self):
        # Survival across the 64-bit boundary: vertex 63 adjacent to
        # vertex 64 only.
        n = 66
        adjacency = [0] * n
        adjacency[63] = 1 << 64
        adjacency[64] = 1 << 63
        mask = (1 << 63) | (1 << 64) | (1 << 65)
        cons = [(1 << 63) | (1 << 64)]
        assert survivors(adjacency, mask, cons) == (1 << 63) | (1 << 64)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_single_constraint_fast_path_matches_general_loop(self, seed):
        # One constraint takes the fast path; repeating it forces the
        # general loop over the same constraint set.
        rng = random.Random(seed)
        n = rng.randint(1, 150)
        adjacency = _random_adjacency(rng, n)
        mask, c = rng.getrandbits(n), rng.getrandbits(n)
        assert survivors(adjacency, mask, [c]) == survivors(adjacency, mask, [c, c])


def _random_mask(rng, n, density):
    return mask_of(v for v in range(n) if rng.random() < density)


def _neighbourhood(adjacency, c):
    n_c = 0
    for w in bits_of(c):
        n_c |= adjacency[w]
    return n_c


class _CountingRows(list):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestNeighbourhoodSurvivors:
    """``survivors`` with an ``N(c)`` cache vs the per-candidate test."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_per_candidate_test_across_shrinking_masks(self, seed):
        # Constraint densities straddle the mask's, so both sides of the
        # popcount rule are taken; the cache outlives each call while
        # the mask and the constraints shrink, as in a DAG-DP sweep.
        rng = random.Random(seed)
        n = rng.randint(1, 150)
        adjacency = _random_adjacency(rng, n)
        neighbourhoods = {}
        mask = _random_mask(rng, n, rng.choice([0.2, 0.6, 1.0]))
        cons = [
            _random_mask(rng, n, rng.choice([0.02, 0.2, 0.6, 0.95]))
            for _ in range(rng.randint(0, 3))
        ]
        for _ in range(6):
            want = survivors(adjacency, mask, cons)
            assert want == survivors_oracle(adjacency, mask, cons)
            assert survivors(adjacency, mask, cons, neighbourhoods) == want
            for c, n_c in neighbourhoods.items():
                assert n_c == _neighbourhood(adjacency, c)
            mask &= _random_mask(rng, n, 0.7)
            cons = [
                c & _random_mask(rng, n, 0.8) if rng.random() < 0.5 else c
                for c in cons
            ]

    def test_popcount_rule_sides(self):
        rng = random.Random(11)
        n = 64
        adjacency = _CountingRows(_random_adjacency(rng, n))
        small = 0b1011  # 3 bits: fewer than the mask's, so N(small) is built
        big = (1 << 40) - 1  # 40 bits: more than the mask's, looped
        mask = (1 << 20) - 1
        cache = {}
        got = survivors(adjacency, mask, [small, big], cache)
        assert got == survivors_oracle(adjacency, mask, [small, big])
        assert set(cache) == {small}
        assert cache[small] == _neighbourhood(adjacency, small)
        # A mask with more bits than ``big`` builds and caches N(big).
        wide = (1 << 50) - 1
        got = survivors(adjacency, wide, [big], cache)
        assert got == survivors_oracle(adjacency, wide, [big])
        assert big in cache
        # Cached neighbourhoods are reused for a narrower mask: no row read.
        adjacency.reads = 0
        got = survivors(adjacency, mask, [small, big], cache)
        assert adjacency.reads == 0
        assert got == survivors_oracle(adjacency, mask, [small, big])

    def test_empty_inputs(self):
        adjacency = [0b10, 0b01]
        assert survivors(adjacency, 0, [0b11], {}) == 0
        assert survivors(adjacency, 0b11, [], {}) == 0b11
        assert survivors(adjacency, 0b11, [0], {}) == 0


# ----------------------------------------------------------------------
# Edge-bit flips (DataArtifacts.apply_delta)
# ----------------------------------------------------------------------


def random_edge_delta(rng, graph, k):
    n = graph.num_vertices
    edges = list(graph.edges())
    remove = tuple(rng.sample(edges, min(k, len(edges))))
    add = []
    while len(add) < k:
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and not graph.has_edge(u, v) and e not in add:
            add.append(e)
    return GraphDelta(add_edges=tuple(add), remove_edges=remove)


class TestEdgeBitFlips:
    @pytest.mark.parametrize("seed", range(8))
    def test_patched_rows_match_neighbor_sets(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(150, 400, num_labels=2, seed=seed)
        artifacts = DataArtifacts(graph)
        for _ in range(3):
            delta = random_edge_delta(rng, graph, 6)
            graph, summary = apply_delta(graph, delta)
            artifacts = artifacts.apply_delta(graph, summary)
            for v in graph.vertices():
                assert set(bits_of(artifacts.adjacency_bitmaps[v])) == set(
                    graph.neighbors(v)
                )

    def test_flips_at_word_boundary(self):
        graph = erdos_renyi_graph(130, 0, num_labels=1, seed=1)
        artifacts = DataArtifacts(graph)
        delta = GraphDelta(add_edges=((63, 64), (0, 127), (64, 128)))
        graph, summary = apply_delta(graph, delta)
        artifacts = artifacts.apply_delta(graph, summary)
        rows = artifacts.adjacency_bitmaps
        assert rows[63] == 1 << 64
        assert rows[64] == (1 << 63) | (1 << 128)
        assert rows[127] == 1
        delta = GraphDelta(remove_edges=((63, 64),))
        graph, summary = apply_delta(graph, delta)
        rows = artifacts.apply_delta(graph, summary).adjacency_bitmaps
        assert rows[63] == 0
        assert rows[64] == 1 << 128


# ----------------------------------------------------------------------
# LDF / NLF candidate masks vs the list filters
# ----------------------------------------------------------------------


def query_data_pair(seed):
    rng = random.Random(seed)
    data = erdos_renyi_graph(
        rng.randint(60, 140), rng.randint(100, 400), num_labels=3,
        seed=rng.randint(0, 10**9),
    )
    nq = rng.randint(3, 7)
    query = random_connected_graph(
        nq, nq - 1 + rng.randint(0, 4), num_labels=3,
        seed=rng.randint(0, 10**9),
    )
    return query, data


class TestCandidateMasks:
    @pytest.mark.parametrize("seed", range(8))
    def test_ldf_masks_match_list_filter(self, seed):
        query, data = query_data_pair(seed)
        masks = DataArtifacts(data).ldf_candidate_masks(query)
        assert [bits_of(m) for m in masks] == ldf_candidates(query, data)

    @pytest.mark.parametrize("seed", range(8))
    def test_nlf_masks_match_list_filter(self, seed):
        query, data = query_data_pair(seed)
        masks = DataArtifacts(data).nlf_candidate_masks(query)
        assert [bits_of(m) for m in masks] == nlf_candidates(query, data)
