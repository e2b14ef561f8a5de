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
from repro.graph.builder import (
    GraphBuilder,
    complete_graph,
    cycle_graph,
    graph_from_adjacency,
)
from repro.graph.generators import powerlaw_cluster_graph
from repro.matching.limits import SearchLimits
from repro.matching.result import MatchResult, TerminationStatus
from repro.matching.verify import is_embedding
from repro.service.qcache import (
    DEFAULT_BUDGET,
    QueryCache,
    _canonical_search,
    _Deferred,
    _Partition,
    _Work,
    canonical_form,
)
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
        for graph in (c6, two_triangles):
            rows = [graph.neighbors(v) for v in graph.vertices()]
            work = _Work(DEFAULT_BUDGET)
            assert _Partition.equitable(graph, rows, work).cells == 1
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
        """Past the step budget the key degrades to the exact encoding:
        identical graphs still share it, rotations may not — never a
        false positive."""
        ring = cycle_graph(["A"] * 8)
        form = canonical_form(ring, budget=1)
        assert not form.exact
        assert form.perm == tuple(range(8))
        assert canonical_form(ring, budget=1).key == form.key
        k7 = complete_graph(["A"] * 7)
        assert not canonical_form(k7, budget=10).exact

    def test_empty_and_singleton(self):
        empty = GraphBuilder().build()
        assert canonical_form(empty).perm == ()
        one = GraphBuilder()
        one.add_vertices(["X"])
        assert canonical_form(one.build()).exact


@st.composite
def labeled_graphs(draw, vertices=None):
    """Random graphs on at most 10 vertices with 1-3 labels."""
    n = draw(st.integers(0, 10)) if vertices is None else vertices
    alphabet = "ABC"[:draw(st.integers(1, 3))]
    labels = draw(st.lists(st.sampled_from(alphabet), min_size=n,
                           max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return graph_from_adjacency(
        labels, [pair for pair, kept in zip(pairs, keep) if kept]
    )


@st.composite
def circulant_graphs(draw, vertices=None):
    """Single-label circulant graphs: regular and vertex-transitive, so
    refinement alone leaves one cell and individualization decides."""
    n = draw(st.integers(3, 10)) if vertices is None else vertices
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    edges = {
        (min(i, (i + j) % n), max(i, (i + j) % n))
        for i in range(n) for j in jumps
    }
    return graph_from_adjacency(["A"] * n, sorted(edges))


query_graphs = st.one_of(labeled_graphs(), circulant_graphs())


def isomorphic(g1, g2):
    """Equal sizes and an embedding of ``g1`` in ``g2`` (found by the
    repository's own matcher): with equal edge counts, an injective
    edge-preserving map is an isomorphism."""
    return (
        g1.num_vertices == g2.num_vertices
        and g1.num_edges == g2.num_edges
        and GuPEngine(g2).match(
            g1, limits=SearchLimits(max_embeddings=1)
        ).num_embeddings > 0
    )


class TestCertificateProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph=query_graphs, rnd=st.randoms(use_true_random=False))
    def test_relabeling_keeps_the_key_and_translates_hits(self, graph, rnd):
        perm = list(range(graph.num_vertices))
        rnd.shuffle(perm)
        relabeled = graph.relabeled(perm)
        f1, f2 = canonical_form(graph), canonical_form(relabeled)
        # The search tree's size is an invariant, so is its budget.
        assert f1.exact == f2.exact
        if not f1.exact:
            return
        assert f1.key == f2.key
        # The query's own graph as the data graph: its embeddings are
        # its automorphisms, a symmetric case for the translation.  The
        # larger cap leaves most runs complete.
        engine = GuPEngine(graph)
        cache = QueryCache()
        for cap in (500, 5):
            limits = SearchLimits(max_embeddings=cap)
            _, form = cache.lookup(graph, limits)
            cache.store(form, limits, engine.match(graph, limits=limits))
            served, _ = cache.lookup(relabeled, limits)
            direct = engine.match(relabeled, limits=limits)
            assert served is not None
            assert served.num_embeddings == direct.num_embeddings
            rows = list(served.embeddings)
            assert len(set(rows)) == len(rows) == direct.num_embeddings
            for row in rows:
                assert is_embedding(relabeled, graph, row)
            if direct.status is TerminationStatus.COMPLETE:
                assert set(rows) == set(direct.embeddings)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equal_keys_iff_isomorphic(self, data):
        g1 = data.draw(query_graphs)
        n = g1.num_vertices
        how = data.draw(st.sampled_from(
            ["relabel", "rewire", "circulant", "labeled"]
        ))
        if how == "relabel":
            perm = data.draw(st.permutations(range(n)))
            g2 = g1.relabeled(perm)
        elif how == "rewire" and 0 < g1.num_edges < n * (n - 1) // 2:
            # One edge moved: same sizes and labels, rarely isomorphic.
            edges = sorted(g1.edges())
            gone = data.draw(st.sampled_from(edges))
            absent = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if not g1.has_edge(u, v)]
            added = data.draw(st.sampled_from(absent))
            g2 = graph_from_adjacency(
                g1.labels, [e for e in edges if e != gone] + [added]
            )
        elif how == "circulant" and n >= 3:
            g2 = data.draw(circulant_graphs(vertices=n))
        else:
            g2 = data.draw(labeled_graphs(vertices=n))
        f1, f2 = canonical_form(g1), canonical_form(g2)
        if f1.exact and f2.exact:
            assert (f1.key == f2.key) == isomorphic(g1, g2)
        elif f1.key == f2.key:  # the fallback key: identical graphs only
            assert g1 == g2

    @settings(max_examples=40, deadline=None)
    @given(graph=query_graphs)
    def test_budget_fallback_is_inexact(self, graph):
        form = canonical_form(graph, budget=0)
        assert not form.exact
        assert form.perm == tuple(range(graph.num_vertices))
        assert canonical_form(graph, budget=0).key == form.key

    @settings(max_examples=40, deadline=None)
    @given(graph=query_graphs, defer_past=st.integers(0, 300))
    def test_deferral_never_changes_the_form(self, graph, defer_past):
        form = canonical_form(graph, defer_past=defer_past)
        assert form is None or form == canonical_form(graph)


class TestSearchWork:
    @pytest.mark.parametrize("graph", [
        cycle_graph(["A"] * 500),
        complete_graph(["A"] * 40),
    ], ids=["C500", "K40"])
    def test_deferral_bounds_the_steps(self, graph):
        """A deferred search stops within one splitter's, node's or
        leaf's steps of ``defer_past``, however costly the whole search
        is; the full search falls back past its budget."""
        n, m = graph.num_vertices, graph.num_edges
        work = _Work(DEFAULT_BUDGET, defer_past=1000)
        with pytest.raises(_Deferred):
            _canonical_search(graph, work)
        assert 1000 < work.done <= 1000 + 2 * (n + m)
        assert canonical_form(graph, defer_past=1000) is None
        assert not canonical_form(graph).exact

    def test_steps_are_an_isomorphism_invariant(self):
        data = powerlaw_cluster_graph(60, 3, 0.3, num_labels=2, seed=3)
        query = generate_query(data, 16, "sparse", seed=4)
        spent = set()
        for seed in range(4):
            work = _Work(DEFAULT_BUDGET)
            _canonical_search(shuffled(query, seed)[0], work)
            spent.add(work.done)
        assert len(spent) == 1


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
