"""Query canonicalization and result-cache semantics.

Two contracts under test:

* :func:`repro.service.qcache.canonical_form` keys are equal *iff* the
  graphs are isomorphic (respecting labels) — including pairs that 1-WL
  color refinement alone cannot separate — and the witness permutation
  really is an isomorphism onto the canonical form.
* :class:`repro.service.qcache.QueryCache` serves capped requests
  byte-identically to a fresh engine run (the engine's truncation is
  prefix-exact, DESIGN.md §6): a complete entry serves any cap, a
  truncated entry serves only caps ≤ its own.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GuPEngine
from repro.graph.builder import GraphBuilder, complete_graph, cycle_graph
from repro.graph.generators import powerlaw_cluster_graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, TerminationStatus
from repro.matching.verify import is_embedding
from repro.service.qcache import QueryCache, canonical_form, refine_colors
from repro.service.wire import encode_embeddings
from repro.workload.querygen import generate_query


def shuffled(graph, seed=0):
    perm = list(range(graph.num_vertices))
    random.Random(seed).shuffle(perm)
    return graph.relabeled(perm), perm


class TestCanonicalForm:
    def test_isomorphic_same_key(self):
        data = powerlaw_cluster_graph(60, 3, 0.3, num_labels=3, seed=5)
        query = generate_query(data, 8, "sparse", seed=6)
        for seed in range(5):
            relabeled, _ = shuffled(query, seed)
            assert canonical_form(relabeled).key == canonical_form(query).key

    def test_key_is_exact_for_small_queries(self):
        form = canonical_form(cycle_graph(["A"] * 6))
        assert form.exact

    def test_perm_is_isomorphism_witness(self):
        query = generate_query(
            powerlaw_cluster_graph(50, 3, 0.3, num_labels=2, seed=9),
            7, "dense", seed=10,
        )
        relabeled, _ = shuffled(query, 3)
        f1, f2 = canonical_form(query), canonical_form(relabeled)
        # Map query vertex -> canonical position -> relabeled vertex.
        pos = {u: p for p, u in enumerate(f1.perm)}
        iso = {u: f2.perm[pos[u]] for u in query.vertices()}
        assert sorted(iso.values()) == list(relabeled.vertices())
        for u in query.vertices():
            assert query.label(u) == relabeled.label(iso[u])
        for u, v in query.edges():
            assert relabeled.has_edge(iso[u], iso[v])

    def test_wl_indistinguishable_pair_separated(self):
        """C6 vs 2xC3 (uniform labels): same refinement coloring, not
        isomorphic — the backtracking step must separate them."""
        c6 = cycle_graph(["A"] * 6)
        b = GraphBuilder()
        b.add_vertices(["A"] * 6)
        b.add_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        two_triangles = b.build()
        assert len(set(refine_colors(c6))) == 1
        assert len(set(refine_colors(two_triangles))) == 1
        assert canonical_form(c6).key != canonical_form(two_triangles).key

    def test_labels_distinguish(self):
        assert (
            canonical_form(cycle_graph(["A", "A", "B"])).key
            != canonical_form(cycle_graph(["A", "B", "B"])).key
        )

    def test_extra_edge_distinguishes(self):
        path = GraphBuilder()
        path.add_vertices(["A"] * 4)
        path.add_edges([(0, 1), (1, 2), (2, 3)])
        cycle = cycle_graph(["A"] * 4)
        assert canonical_form(path.build()).key != canonical_form(cycle).key

    def test_budget_fallback_is_sound(self):
        """Past the node budget the key degrades to the exact encoding:
        identical graphs still share it, rotations may not — never a
        false positive."""
        ring = cycle_graph(["A"] * 8)
        form = canonical_form(ring, leaf_budget=1)
        assert not form.exact
        assert form.perm == tuple(range(8))
        assert canonical_form(ring, leaf_budget=1).key == form.key
        k7 = complete_graph(["A"] * 7)
        assert not canonical_form(k7, leaf_budget=10).exact

    def test_empty_and_singleton(self):
        empty = GraphBuilder().build()
        assert canonical_form(empty).perm == ()
        one = GraphBuilder()
        one.add_vertices(["X"])
        assert canonical_form(one.build()).exact


@pytest.fixture(scope="module")
def workload():
    data = powerlaw_cluster_graph(70, 3, 0.35, num_labels=3, seed=41)
    query = generate_query(data, 7, "sparse", seed=42)
    engine = GuPEngine(data)
    return data, query, engine


class TestQueryCacheCapSemantics:
    def store_full(self, engine, query):
        cache = QueryCache()
        limits = SearchLimits()
        full = engine.match(query, limits=limits)
        _, form = cache.lookup(query, limits)
        assert cache.store(form, limits, full)
        return cache, full

    def test_full_entry_serves_any_cap_prefix_exact(self, workload):
        _, query, engine = workload
        cache, full = self.store_full(engine, query)
        assert full.num_embeddings > 3
        for cap in (None, 0, 1, 2, full.num_embeddings,
                    full.num_embeddings + 5):
            limits = SearchLimits(max_embeddings=cap)
            direct = engine.match(query, limits=limits)
            served, _ = cache.lookup(query, limits)
            assert served is not None, f"cap {cap} should hit"
            assert served.embeddings == direct.embeddings
            assert served.num_embeddings == direct.num_embeddings
            assert served.status == direct.status

    def test_truncated_entry_serves_lower_caps_only(self, workload):
        _, query, engine = workload
        cache = QueryCache()
        limits3 = SearchLimits(max_embeddings=3)
        capped = engine.match(query, limits=limits3)
        assert capped.status is TerminationStatus.EMBEDDING_LIMIT
        _, form = cache.lookup(query, limits3)
        assert cache.store(form, limits3, capped)
        for cap in (0, 1, 2, 3):
            limits = SearchLimits(max_embeddings=cap)
            direct = engine.match(query, limits=limits)
            served, _ = cache.lookup(query, limits)
            assert served is not None
            assert served.embeddings == direct.embeddings
            assert served.num_embeddings == direct.num_embeddings
            assert served.status == direct.status
        for cap in (4, None):
            served, _ = cache.lookup(
                query, SearchLimits(max_embeddings=cap)
            )
            assert served is None, "higher caps must miss a truncated entry"

    def test_full_entry_replaces_truncated(self, workload):
        _, query, engine = workload
        cache = QueryCache()
        limits2 = SearchLimits(max_embeddings=2)
        _, form = cache.lookup(query, limits2)
        cache.store(form, limits2, engine.match(query, limits=limits2))
        assert cache.lookup(query, SearchLimits())[0] is None
        full_limits = SearchLimits()
        cache.store(form, full_limits, engine.match(query, limits=full_limits))
        served, _ = cache.lookup(query, SearchLimits())
        assert served is not None
        assert served.status is TerminationStatus.COMPLETE
        # The reverse direction must NOT downgrade: re-offering a
        # truncated run keeps the complete entry.
        cache.store(form, limits2, engine.match(query, limits=limits2))
        assert cache.lookup(query, SearchLimits())[0] is not None

    def test_count_only_served_from_full_entry(self, workload):
        _, query, engine = workload
        cache, full = self.store_full(engine, query)
        limits = SearchLimits(collect=False)
        direct = engine.match(query, limits=limits)
        served, _ = cache.lookup(query, limits)
        assert served is not None
        assert served.embeddings == []
        assert served.num_embeddings == direct.num_embeddings
        assert served.status == direct.status

    def test_timeout_results_never_cached(self, workload):
        _, query, engine = workload
        cache = QueryCache()
        limits = SearchLimits(max_recursions=1)
        result = engine.match(query, limits=limits)
        assert result.status is TerminationStatus.TIMEOUT
        _, form = cache.lookup(query, limits)
        assert not cache.store(form, limits, result)
        assert cache.counters["uncacheable"] == 1

    def test_isomorphic_query_served_translated(self, workload):
        data, query, engine = workload
        cache, full = self.store_full(engine, query)
        relabeled, _ = shuffled(query, seed=11)
        served, _ = cache.lookup(relabeled, SearchLimits())
        assert served is not None
        assert cache.counters["translated_hits"] == 1
        direct = engine.match(relabeled)
        assert served.num_embeddings == direct.num_embeddings
        assert served.embedding_set() == direct.embedding_set()
        for e in served.embeddings:
            assert is_embedding(relabeled, data, e)

    def test_isomorphic_capped_hit_is_valid_prefix(self, workload):
        """A capped translated hit returns cap-many correct, distinct
        embeddings drawn from the full set (the representative's prefix;
        order-identity to a direct run only holds for same-numbering
        repeats — DESIGN.md §7)."""
        data, query, engine = workload
        cache, full = self.store_full(engine, query)
        relabeled, _ = shuffled(query, seed=12)
        cap = 3
        served, _ = cache.lookup(relabeled, SearchLimits(max_embeddings=cap))
        assert served is not None
        assert served.num_embeddings == cap
        assert served.status is TerminationStatus.EMBEDDING_LIMIT
        assert len(set(served.embeddings)) == cap
        direct_full = engine.match(relabeled)
        for e in served.embeddings:
            assert is_embedding(relabeled, data, e)
            assert tuple(e) in direct_full.embedding_set()

    def test_lru_eviction(self, workload):
        data, _, engine = workload
        cache = QueryCache(max_entries=2)
        limits = SearchLimits(max_embeddings=5)
        queries = [
            generate_query(data, 5, "sparse", seed=100 + i) for i in range(3)
        ]
        for q in queries:
            _, form = cache.lookup(q, limits)
            cache.store(form, limits, engine.match(q, limits=limits))
        assert len(cache) == 2
        assert cache.counters["evictions"] >= 1


def distinct_label_query(arity, rng):
    """A query with no automorphism (every label differs), so exactly
    one isomorphism maps a relabeled copy onto it."""
    b = GraphBuilder()
    b.add_vertices(list(range(arity)))
    edges = {(v - 1, v) for v in range(1, arity)}
    for _ in range(arity):
        u, v = sorted(rng.sample(range(arity), 2)) if arity > 1 else (0, 0)
        if u != v:
            edges.add((u, v))
    b.add_edges(sorted(edges))
    return b.build()


def synthetic_result(rows, num_embeddings, status):
    return MatchResult(embeddings=rows, num_embeddings=num_embeddings,
                       status=status, elapsed_seconds=0.0)


def expected_serve(kind, total, stored_cap, cap, collect):
    """``(count, status)`` a hit must carry, ``None`` for a miss: the
    serve rules of the module docstring, spelled out."""
    stop = None if cap is None else max(cap, 1)
    if collect and kind == "count_only":
        return None
    if kind != "truncated" and (stop is None or total < stop):
        return total, TerminationStatus.COMPLETE
    if stop is None or (kind == "truncated" and stop > max(stored_cap, 1)):
        return None
    return stop, TerminationStatus.EMBEDDING_LIMIT


class TestFrameServing:
    """Hits are served from the stored frame: every body equals the
    packed tuple-path translation of the stored rows, and identity hits
    share the stored bytes."""

    @settings(max_examples=80, deadline=None)
    @given(
        arity=st.integers(1, 16),
        count=st.integers(0, 2000),
        top=st.sampled_from([1, 2**16, 2**32 - 1]),
        seed=st.integers(0, 2**32),
        kind=st.sampled_from(["complete", "truncated", "count_only"]),
        data=st.data(),
    )
    def test_served_bodies_equal_the_tuple_path(
        self, arity, count, top, seed, kind, data
    ):
        rng = random.Random(seed)
        rows = [tuple(rng.randint(0, top) for _ in range(arity))
                for _ in range(count)]
        query = distinct_label_query(arity, rng)
        cache = QueryCache()
        stored_cap = None
        if kind == "truncated":
            rows = rows or [(top,) * arity]
            # A run truncated at cap C holds exactly max(C, 1) rows.
            stored_cap = data.draw(st.sampled_from(
                [len(rows), 0] if len(rows) == 1 else [len(rows)]))
            stored = SearchLimits(max_embeddings=stored_cap)
            result = synthetic_result(
                rows, len(rows), TerminationStatus.EMBEDDING_LIMIT)
        elif kind == "count_only":
            stored = SearchLimits(collect=False)
            result = synthetic_result([], len(rows),
                                      TerminationStatus.COMPLETE)
        else:
            stored = SearchLimits()
            result = synthetic_result(rows, len(rows),
                                      TerminationStatus.COMPLETE)
        _, form = cache.lookup(query, stored)
        assert cache.store(form, stored, result)
        frame = cache._entries[form.key].embeddings
        perm = data.draw(st.permutations(range(arity)))
        relabeled = query.relabeled(perm)
        for cap in (None, 0, 1, rng.randint(0, len(rows) + 1),
                    len(rows) + 3):
            for collect in (True, False):
                limits = SearchLimits(max_embeddings=cap, collect=collect)
                want = expected_serve(kind, len(rows), stored_cap, cap,
                                      collect)
                for asked, mapping in ((query, range(arity)),
                                       (relabeled, perm)):
                    served, _ = cache.lookup(asked, limits)
                    if want is None:
                        assert served is None
                        continue
                    assert (served.num_embeddings, served.status) == want
                    expected = [tuple(row[j] for j in mapping)
                                for row in rows[:want[0]]] if collect else []
                    assert encode_embeddings(served.embeddings) == \
                        encode_embeddings(expected)
                    assert served.embeddings == expected
                    if collect and asked is query and frame.body:
                        _, body = encode_embeddings(served.embeddings)
                        assert body.obj is frame.body  # zero-copy

    def test_zero_vertex_query_round_trips(self, workload):
        data, _, engine = workload
        empty = GraphBuilder().build()
        cache = QueryCache()
        limits = SearchLimits()
        result = engine.match(empty, limits=limits)
        assert result.embeddings == [()]
        _, form = cache.lookup(empty, limits)
        assert cache.store(form, limits, result)
        for cap in (None, 0, 1):
            served, _ = cache.lookup(empty, SearchLimits(max_embeddings=cap))
            assert served.embeddings == [()]
            assert list(served.embeddings) == [()]
            assert served.num_embeddings == 1
            assert encode_embeddings(served.embeddings) == (0, b"")

    def test_entry_holds_a_frame_not_tuples(self, workload):
        _, query, engine = workload
        cache = QueryCache()
        limits = SearchLimits()
        full = engine.match(query, limits=limits)
        _, form = cache.lookup(query, limits)
        cache.store(form, limits, full)
        rows = cache._entries[form.key].embeddings
        assert isinstance(rows.body, bytes)
        assert len(rows.body) == 4 * query.num_vertices * full.num_embeddings
