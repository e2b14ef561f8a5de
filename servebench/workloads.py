"""Seeded inputs for the serving benchmark's three workloads.

Each workload is one fixed *round* of ops that the closed loop repeats
until the window ends.  A round leaves the server where it found it:
every graph delta in it is later undone by its exact inverse, so from
the second round on every op position meets the same graph and the
same cache state, and its best time over the rounds is a repeatable
best-of-N (this box's CPU speed drifts by 10-20% over tens of seconds).

The data graphs are the repository's canonical synthetic datasets
(dataset seed 2023, the one every other bench uses), and each
workload's pool of base queries is drawn once with a fixed seed: with
16 to 56 queries, which of them a seed drew moved the p50 and p99 by up
to 20%.  The ``engine_bypass`` hard tail is mined with the fixed seeds
of ``benchmarks/conftest.hard_query_set``.  ``--seed`` drives the rest
of what the server is sent: the vertex relabelings, the op order and
the graph deltas.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.core.engine import GuPEngine
from repro.dynamic.delta import GraphDelta, apply_delta
from repro.graph.builder import graph_from_adjacency
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.service.qcache import canonical_form
from repro.workload.datasets import load_dataset
from repro.workload.hardness import mine_hard_queries
from repro.workload.querygen import QuerySetSpec, generate_query_set

DATA_SEED = 2023
ENTRY = "g"  # catalog entry name of the workload's data graph
PERMS_PER_BASE = 8  # relabelings per base query; index 0 is the identity
LIMIT = 1000
DELTA_EDGES = 4  # 2 edge removals + 2 insertions per update
CHURN_QUERIES = 8  # cached queries before each update on update_churn
# Deltas per round, each undone later in the round.  update_churn's 32
# give 512 query positions, so its p99 is not one position's time.
CHURN_DELTAS = 32
WRITE_DELTAS = 8
MAX_SUBSCRIPTION_MATCHES = 5_000

WORKLOADS = ("cache_hit", "engine_bypass", "update_churn")


@dataclass(frozen=True)
class QueryOp:
    base: int
    perm: int


@dataclass(frozen=True)
class UpdateOp:
    delta: GraphDelta


Op = Union[QueryOp, UpdateOp]


@dataclass
class Workload:
    """One workload's data graph, queries, request options and rounds."""

    name: str
    seed: int
    data: Graph
    bases: List[Graph]
    perms: List[List[Tuple[int, ...]]]
    # ServiceClient.query keyword arguments (besides graph and entry).
    options: Dict[str, object]
    subscription: Graph
    probe: Graph  # the first query of every spawned server (setup_s)
    warm: List[QueryOp]  # issued once before the window, never timed
    round: List[Op]  # the timed round, repeated
    # Updates-only round that the read-only workloads run around the
    # window, so that every workload reports the write path.
    write_round: List[UpdateOp]
    _graphs: Dict[Tuple[int, int], Graph] = field(default_factory=dict)

    @property
    def limits(self) -> SearchLimits:
        """The SearchLimits the server derives from :attr:`options`."""
        return SearchLimits(
            max_embeddings=self.options.get("limit"),
            collect=not self.options.get("count_only", False),
            max_recursions=self.options.get("recursion_limit"),
        )

    def query(self, op: QueryOp) -> Graph:
        key = (op.base, op.perm)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self.bases[op.base].relabeled(self.perms[op.base][op.perm])
            self._graphs[key] = graph
        return graph


def random_delta(rng: random.Random, graph: Graph, size: int) -> GraphDelta:
    """``size`` edge edits against ``graph``, half removals and half
    insertions (the edge model of ``benchmarks/bench_dynamic.py``; no
    vertex insertions, so every delta has an exact inverse)."""
    n = graph.num_vertices
    remove = tuple(rng.sample(list(graph.edges()), size // 2))
    add: List[Tuple[int, int]] = []
    while len(add) < size - len(remove):
        u, v = rng.randrange(n), rng.randrange(n)
        edge = (min(u, v), max(u, v))
        if u != v and edge not in add and not graph.has_edge(u, v):
            add.append(edge)
    return GraphDelta(add_edges=tuple(add), remove_edges=remove)


def round_trip(rng: random.Random, graph: Graph, count: int) -> List[UpdateOp]:
    """``count`` deltas, then their inverses in reverse order: the
    graph ends where it started."""
    forward = []
    for _ in range(count):
        delta = random_delta(rng, graph, DELTA_EDGES)
        graph, _ = apply_delta(graph, delta)
        forward.append(delta)
    inverses = [
        GraphDelta(add_edges=d.remove_edges, remove_edges=d.add_edges)
        for d in reversed(forward)
    ]
    return [UpdateOp(delta) for delta in forward + inverses]


def _distinct(queries: List[Graph]) -> List[Graph]:
    """Pairwise non-isomorphic queries: a cache hit must be
    attributable to exactly one base query."""
    seen = set()
    out = []
    for query in queries:
        key = canonical_form(query).key
        if key not in seen:
            seen.add(key)
            out.append(query)
    return out


def _walk_queries(data: Graph, spec: QuerySetSpec, count: int, seed: str,
                  capped: bool = False) -> List[Graph]:
    """``count`` distinct random-walk queries; ``capped`` keeps only
    those whose match fills the embedding cap, so every reply carries
    the same number of embeddings."""
    rng = random.Random(seed)
    engine = GuPEngine(data)
    limits = SearchLimits(max_embeddings=LIMIT)
    out: List[Graph] = []
    for _ in range(50):
        drawn = generate_query_set(data, spec, 4 * count, seed=rng)
        for query in _distinct(out + drawn)[len(out):]:
            if capped and engine.match(query, limits=limits).complete:
                continue
            out.append(query)
            if len(out) == count:
                return out
    raise RuntimeError(f"could not draw {count} {spec.name} queries")


def _hard_tail(data: Graph, count: int) -> List[Graph]:
    queries = []
    for set_name, size, density in (("16S", 16, "sparse"), ("8D", 8, "dense")):
        queries += mine_hard_queries(
            data, count=count, size=size, density=density,
            seed=zlib.crc32(f"wordnet/{set_name}/hard".encode("utf-8")),
            candidate_factor=8, probe_recursions=12_000,
        )
    return queries


def _subscription(data: Graph) -> Graph:
    """A small standing query with a modest complete match set."""
    engine = GuPEngine(data)
    limits = SearchLimits(max_embeddings=MAX_SUBSCRIPTION_MATCHES + 1)
    rng = random.Random(DATA_SEED)
    for query in generate_query_set(data, QuerySetSpec(4, "sparse"), 16, seed=rng):
        result = engine.match(query, limits=limits)
        if result.complete and result.num_embeddings > 0:
            return query
    raise RuntimeError("no 4-vertex query with a small complete match set")


def _edge_probe(data: Graph) -> Graph:
    u = next(v for v in range(data.num_vertices) if data.degree(v) > 0)
    w = data.neighbors(u)[0]
    return graph_from_adjacency([data.label(u), data.label(w)], [(0, 1)])


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed`` (deterministic)."""
    tag = f"{name}/{seed}"
    rng = random.Random(f"{tag}/round")
    if name == "cache_hit":
        # Relabeled re-issues of capped queries: every request is a
        # cache hit that never reaches the engine.
        data = load_dataset("wordnet", scale=0.25, seed=DATA_SEED)
        bases = _walk_queries(
            data, QuerySetSpec(8, "sparse"), 16, f"{name}/8S", capped=True
        )
        options: Dict[str, object] = {"limit": LIMIT}
        warm = [QueryOp(b, 0) for b in range(len(bases))]
        ops: List[Op] = [
            QueryOp(b, p) for b in range(len(bases)) for p in range(1, PERMS_PER_BASE)
        ]
        rng.shuffle(ops)
    elif name == "engine_bypass":
        # fig6-style random walks plus the mined hard tail, cache off:
        # GCS build and guarded search are nearly the whole request.
        data = load_dataset("wordnet", scale=1.0, seed=DATA_SEED)
        bases = []
        for size, density in ((8, "sparse"), (16, "sparse"), (8, "dense")):
            spec = QuerySetSpec(size, density)
            bases += _walk_queries(data, spec, 16, f"{name}/{spec.name}")
        bases += _hard_tail(data, 4)
        options = {"limit": LIMIT, "count_only": True, "cache": False,
                   "recursion_limit": 10_000}
        warm = []
        ops = [QueryOp(b, 0) for b in range(len(bases))]
        rng.shuffle(ops)
    elif name == "update_churn":
        # Relabeled cached queries between updates on the same cache:
        # label-selective invalidation, re-miss, patch, persist, diff.
        data = load_dataset("yeast", scale=1.0, seed=DATA_SEED)
        bases = _walk_queries(data, QuerySetSpec(8, "sparse"), 16, f"{name}/8S")
        options = {"limit": LIMIT}
        warm = []
        ops = []
        for update in round_trip(rng, data, CHURN_DELTAS):
            ops += [QueryOp(rng.randrange(len(bases)), rng.randrange(1, PERMS_PER_BASE))
                    for _ in range(CHURN_QUERIES)]
            ops.append(update)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    perm_rng = random.Random(f"{tag}/perms")
    perms = []
    for query in bases:
        pool = [tuple(range(query.num_vertices))]
        for _ in range(PERMS_PER_BASE - 1):
            perm = list(range(query.num_vertices))
            perm_rng.shuffle(perm)
            pool.append(tuple(perm))
        perms.append(pool)
    return Workload(
        name=name,
        seed=seed,
        data=data,
        bases=bases,
        perms=perms,
        options=options,
        subscription=_subscription(data),
        probe=_edge_probe(data),
        warm=warm,
        round=ops,
        write_round=(
            [] if name == "update_churn" else round_trip(rng, data, WRITE_DELTAS)
        ),
    )
