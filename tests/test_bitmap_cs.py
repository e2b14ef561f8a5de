"""Differential test: the bitmap search is byte-identical to the seed.

The dense-index bitmap search (:mod:`repro.core.backtrack`) and the seed
list-based search (:mod:`repro.core.backtrack_ref`, a test oracle that
production never imports) must explore the exact same search tree, on
the same production-built GCS: identical embeddings *in order*, identical
termination status, and identical pruning/recording statistics — every
counter, not just the result set, except that production does not record
the edge nogoods the oracle counts as dead (``assert_twin_stats``).
This is what licenses the hot-path benchmark to compare their wall
clocks as the same algorithm on two candidate representations.

Covered here:

* the ``test_config_matrix`` configuration grid (guard combinations,
  representations, filters, orders, reservation limits, symmetry);
* random workloads with truncation (embedding caps and recursion
  budgets hit mid-search, exercising the abort paths);
* the synthetic benchmark workloads (one small set per dataset profile);
* production (sequential, procpool, ANALYZE) never importing the oracle.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.graph.generators import erdos_renyi_graph, random_connected_graph
from repro.matching.limits import SearchLimits
from tests.oracle_engines import (
    ListSearchEngine, assert_twin_stats, oracle_match,
)
from tests.test_config_matrix import CONFIGS

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_identical(query, data, config, limits=None):
    """Same production GCS, the two searches on it."""
    bitmap = GuPEngine(data, config).match(query, limits=limits)
    listed, dead = oracle_match(
        ListSearchEngine(data, config), query, limits=limits
    )
    assert bitmap.embeddings == listed.embeddings  # ordered, not set-wise
    assert bitmap.num_embeddings == listed.num_embeddings
    assert bitmap.status == listed.status
    assert_twin_stats(bitmap.stats, listed.stats, dead, listed.status)


def _instances(seed, count, max_q=7, max_d=24):
    rng = random.Random(seed)
    for _ in range(count):
        nq = rng.randint(2, max_q)
        nd = rng.randint(5, max_d)
        labels = rng.randint(1, 3)
        query = random_connected_graph(
            nq, nq - 1 + rng.randint(0, 5), num_labels=labels,
            seed=rng.randint(0, 10**9),
        )
        data = erdos_renyi_graph(
            nd, rng.randint(nd, nd * 3), num_labels=labels,
            seed=rng.randint(0, 10**9),
        )
        yield query, data


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_config_grid_identical(index):
    """Every config of the matrix on a handful of random instances."""
    config = CONFIGS[index]
    for query, data in _instances(seed=index * 37 + 5, count=4):
        assert_identical(query, data, config)


def test_random_workloads_with_truncation():
    """Caps hit mid-search must abort identically in both backends."""
    rng = random.Random(20230730)
    combos = list(itertools.product((False, True), repeat=4))
    for t, (query, data) in enumerate(_instances(seed=99, count=40, max_q=8)):
        use_r, use_nv, use_ne, use_bj = combos[t % len(combos)]
        config = GuPConfig(
            use_reservation=use_r,
            use_nogood_vertex=use_nv,
            use_nogood_edge=use_ne,
            use_backjumping=use_bj,
            nogood_representation="explicit" if t % 5 == 0 else "search_node",
            break_symmetry=(t % 7 == 0),
        )
        limits = SearchLimits(
            max_embeddings=rng.choice([None, 1, 5, 50]),
            max_recursions=rng.choice([None, 25, 400]),
        )
        assert_identical(query, data, config, limits=limits)


def test_counting_mode_identical():
    """collect=False (counting) runs the same trees too."""
    for query, data in _instances(seed=4242, count=8):
        config = GuPConfig()
        limits = SearchLimits(collect=False, max_embeddings=100)
        assert_identical(query, data, config, limits=limits)


def test_benchmark_workload_identical():
    """One small query set per synthetic dataset profile."""
    from repro.workload.datasets import load_dataset
    from repro.workload.querygen import QuerySetSpec, generate_query_set

    for name, scale in (("yeast", 0.3), ("wordnet", 0.2)):
        data = load_dataset(name, scale=scale, seed=7)
        queries = generate_query_set(
            data, QuerySetSpec(8, "sparse"), count=3, seed=11
        )
        limits = SearchLimits(max_embeddings=500, max_recursions=4000)
        for query in queries:
            assert_identical(query, data, GuPConfig(), limits=limits)


def test_max_watches_zero_identical():
    """The watch cap path (no NE line-11 recording) matches too."""
    from repro.core.backtrack import GuPSearch
    from repro.core.backtrack_ref import ListGuPSearch
    from repro.core.gcs import build_gcs

    for query, data in _instances(seed=777, count=6):
        gcs_a = build_gcs(query, data)
        gcs_b = build_gcs(query, data)
        a = GuPSearch(gcs_a, max_watches=0)
        b = ListGuPSearch(gcs_b, max_watches=0)
        emb_a, status_a = a.run()
        emb_b, status_b = b.run()
        assert emb_a == emb_b
        assert status_a == status_b
        assert_twin_stats(a.stats, b.stats, b.dead_edge_records, status_b)


@pytest.mark.parametrize("cap", (1, 8, 64))
def test_max_watches_cap_identical(cap):
    """A cap that binds partway through a search stays stats-identical:
    every watch counts toward it, pushed as a frame or not."""
    from repro.core.backtrack import GuPSearch
    from repro.core.backtrack_ref import ListGuPSearch
    from repro.core.gcs import build_gcs

    from tests.test_live_edge_guards import ring

    cases = list(_instances(seed=778, count=6, max_q=8))
    cases.append((ring(8, 2), erdos_renyi_graph(60, 90, num_labels=2, seed=0)))
    cases.append((
        random_connected_graph(6, 9, num_labels=1, seed=1),
        erdos_renyi_graph(30, 120, num_labels=1, seed=1),
    ))
    capped_runs = 0
    for query, data in cases:
        a = GuPSearch(build_gcs(query, data), max_watches=cap)
        b = ListGuPSearch(build_gcs(query, data), max_watches=cap)
        free = ListGuPSearch(build_gcs(query, data))
        emb_a, status_a = a.run()
        emb_b, status_b = b.run()
        free.run()
        assert emb_a == emb_b
        assert status_a == status_b
        assert_twin_stats(a.stats, b.stats, b.dead_edge_records, status_b)
        if b.stats.nogoods_recorded_edge != free.stats.nogoods_recorded_edge:
            capped_runs += 1
    assert capped_runs > 0, "the cap never bound"


def test_production_never_imports_the_oracle():
    """Sequential, procpool and ANALYZE runs stay off the seed twins."""
    code = (
        "import sys\n"
        "from repro.core.engine import GuPEngine\n"
        "from repro.workload.datasets import load_dataset\n"
        "from repro.workload.querygen import generate_query\n"
        "data = load_dataset('wordnet', scale=0.1, seed=11)\n"
        "query = generate_query(data, 6, 'sparse', seed=11)\n"
        "engine = GuPEngine(data)\n"
        "assert engine.match(query).num_embeddings > 0\n"
        "assert engine.match(query, workers=2).num_embeddings > 0\n"
        "engine.explain(query, 'analyze')\n"
        "assert 'repro.core.backtrack_ref' not in sys.modules, "
        "'production imported the oracle'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
