"""Differential tests: the process-parallel engines are exact.

The contract under test (DESIGN.md §6): for any query/data/config,
root-partitioned execution with task-local nogood stores
(``GuPEngine.match(workers=N)`` / :mod:`repro.core.procpool`) and the
batch pool (``GuPEngine.match_many(workers=N)``) return results
*identical* to the sequential engine — the same embedding **list** (not
just set: guards prune only embedding-free subtrees, so root-order
concatenation reproduces the sequential enumeration order), the same
``num_embeddings``, and the same termination status — including under
``max_embeddings`` truncation and symmetry breaking.
"""

import pytest

from repro.cli import main as cli_main
from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.core.procpool import (
    match_parallel,
    merge_root_results,
    root_partition,
    run_root_task,
)
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.io import save_graph
from repro.matching.limits import SearchLimits
from repro.matching.result import TerminationStatus
from repro.workload.datasets import load_dataset
from repro.workload.querygen import QuerySetSpec, generate_query, generate_query_set

WORKERS = 2  # enough to exercise the pool without forking storms


@pytest.fixture(scope="module")
def instances():
    """Small but search-heavy (query, data) pairs."""
    pairs = []
    for seed, n, size, density in (
        (77, 80, 8, "dense"),
        (123, 70, 7, "sparse"),
        (9, 60, 6, "dense"),
    ):
        data = powerlaw_cluster_graph(n, 3, 0.35, num_labels=3, seed=seed)
        pairs.append((generate_query(data, size, density, seed=seed + 1), data))
    return pairs


def assert_identical(seq, par):
    assert par.embeddings == seq.embeddings
    assert par.num_embeddings == seq.num_embeddings
    assert par.status == seq.status


CONFIGS = {
    "full": GuPConfig(),
    "baseline": GuPConfig.baseline(),
    "symmetry": GuPConfig(break_symmetry=True),
    "explicit_nogoods": GuPConfig(nogood_representation="explicit"),
}


class TestMatchWorkersExact:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_procpool_identical_to_sequential(self, instances, config_name):
        config = CONFIGS[config_name]
        for query, data in instances:
            engine = GuPEngine(data, config)
            assert_identical(
                engine.match(query), engine.match(query, workers=WORKERS)
            )

    @pytest.mark.parametrize("cap", [1, 3, 7])
    def test_truncation_is_prefix_exact(self, instances, cap):
        """max_embeddings keeps the sequential prefix, bit for bit."""
        limits = SearchLimits(max_embeddings=cap)
        for query, data in instances:
            engine = GuPEngine(data)
            seq = engine.match(query, limits=limits)
            par = engine.match(query, limits=limits, workers=WORKERS)
            assert_identical(seq, par)
            if engine.match(query).num_embeddings > cap:
                assert seq.status is TerminationStatus.EMBEDDING_LIMIT

    def test_zero_cap_matches_sequential(self, instances):
        """max_embeddings=0: the sequential search still yields the
        first embedding (the cap is checked after recording); the merge
        must mirror that, and stay COMPLETE when nothing exists."""
        limits = SearchLimits(max_embeddings=0)
        for query, data in instances:
            engine = GuPEngine(data)
            assert_identical(
                engine.match(query, limits=limits),
                engine.match(query, limits=limits, workers=WORKERS),
            )

    def test_truncation_under_symmetry(self, instances):
        limits = SearchLimits(max_embeddings=4)
        for query, data in instances:
            engine = GuPEngine(data, GuPConfig(break_symmetry=True))
            assert_identical(
                engine.match(query, limits=limits),
                engine.match(query, limits=limits, workers=WORKERS),
            )

    def test_count_only_runs(self, instances):
        """collect=False: counts and status still merge exactly."""
        limits = SearchLimits(collect=False)
        query, data = instances[0]
        engine = GuPEngine(data)
        seq = engine.match(query, limits=limits)
        par = engine.match(query, limits=limits, workers=WORKERS)
        assert par.embeddings == [] == seq.embeddings
        assert par.num_embeddings == seq.num_embeddings
        assert par.status == seq.status

    def test_match_parallel_convenience(self, instances):
        query, data = instances[0]
        assert_identical(
            GuPEngine(data).match(query),
            match_parallel(query, data, workers=WORKERS),
        )

    def test_results_independent_of_worker_count(self, instances):
        query, data = instances[0]
        engine = GuPEngine(data)
        runs = [engine.match(query, workers=w) for w in (1, 2, 3)]
        for other in runs[1:]:
            assert_identical(runs[0], other)


class TestInlinePartitionExact:
    """The shared partitioning codepath itself, without processes."""

    def test_merged_root_tasks_equal_sequential(self, instances):
        config = GuPConfig()
        limits = SearchLimits()
        for query, data in instances:
            engine = GuPEngine(data, config)
            gcs = engine.build(query)
            results = [
                run_root_task(gcs, task, config, limits)
                for task in root_partition(gcs)
            ]
            raw, status, stats = merge_root_results(results, gcs, limits)
            seq = engine.match(query, gcs=engine.build(query))
            assert [gcs.to_original_embedding(e) for e in raw] == seq.embeddings
            assert status == seq.status
            assert stats.embeddings_found == seq.num_embeddings

    def test_partition_covers_root_candidates(self, instances):
        query, data = instances[0]
        gcs = GuPEngine(data).build(query)
        tasks = root_partition(gcs)
        assert [t.vertex for t in tasks] == list(gcs.cs.candidates[0])
        assert [t.index for t in tasks] == list(range(len(tasks)))
        assert all(t.mask == 1 << t.index for t in tasks)


class TestMatchManyExact:
    def test_batch_identical_to_sequential(self, instances):
        queries = [q for q, _ in instances]
        data = instances[0][1]
        # All queries against one data graph (the batch contract).
        engine = GuPEngine(data)
        seq = engine.match_many(queries)
        par = engine.match_many(queries, workers=3)
        assert len(seq) == len(par) == len(queries)
        for a, b in zip(seq, par):
            assert_identical(a, b)

    def test_batch_respects_limits(self, instances):
        queries = [q for q, _ in instances]
        data = instances[0][1]
        limits = SearchLimits(max_embeddings=2)
        engine = GuPEngine(data)
        for a, b in zip(
            engine.match_many(queries, limits=limits),
            engine.match_many(queries, limits=limits, workers=WORKERS),
        ):
            assert_identical(a, b)
            assert a.num_embeddings <= 2

    def test_empty_and_single_query_sets(self, instances):
        query, data = instances[0]
        engine = GuPEngine(data)
        assert engine.match_many([], workers=WORKERS) == []
        (only,) = engine.match_many([query], workers=WORKERS)
        assert_identical(engine.match(query), only)


class TestFig6WorkloadBatch:
    """The acceptance-criterion workload: a fig6-style query set against
    the wordnet stand-in, 4 workers, embedding sets identical."""

    @pytest.fixture(scope="class")
    def workload(self):
        data = load_dataset("wordnet", scale=0.25, seed=2023)
        queries = generate_query_set(
            data, QuerySetSpec(8, "sparse"), count=4, seed=2023
        )
        return data, list(queries)

    def test_batch_workers4_identical(self, workload):
        data, queries = workload
        limits = SearchLimits(max_embeddings=1_000)
        engine = GuPEngine(data)
        seq = engine.match_many(queries, limits=limits)
        par = engine.match_many(queries, limits=limits, workers=4)
        for a, b in zip(seq, par):
            assert b.embedding_set() == a.embedding_set()
            assert_identical(a, b)

    def test_cli_batch_workers4(self, workload, tmp_path, capsys):
        data, queries = workload
        save_graph(data, str(tmp_path / "data.graph"))
        for i, query in enumerate(queries):
            save_graph(query, str(tmp_path / f"q{i}.graph"))
        rc = cli_main(
            [
                "batch",
                str(tmp_path / "q*.graph"),
                str(tmp_path / "data.graph"),
                "--workers",
                "4",
                "--limit",
                "1000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        engine = GuPEngine(data)
        expected = sum(
            r.num_embeddings
            for r in engine.match_many(
                queries, limits=SearchLimits(max_embeddings=1_000)
            )
        )
        assert f"total embeddings: {expected}" in out
