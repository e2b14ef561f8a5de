"""Reusable data-graph-side filter artifacts.

The first two filters of every pipeline — LDF and NLF — only read
*data-graph* structure that is identical for every query: the label
index, per-vertex degrees, and the neighbor label frequency tables.
:class:`DataArtifacts` precomputes them once per data graph so a batch
engine (``GuPEngine.match_many``) pays the cost once per data graph /
worker process instead of once per query:

* ``label_buckets`` stores, per label, the carrying vertices sorted by
  *descending degree* (plus the aligned degree sequence).  The LDF
  candidate set for ``(label, min_degree)`` is then a prefix located by
  one binary search, instead of a scan over every vertex with the label.
* NLF is answered per label: the first query that needs a label's
  neighbor counts derives them from that label's own rows, so no
  per-vertex NLF table is built.

The artifacts also carry the **dense build-path bitmaps** (DESIGN.md
§8): per-label data-vertex bitmaps and per-vertex adjacency bitmaps,
both Python ints with bit ``v`` standing for data vertex ``v``.  On
top of them the artifacts derive (lazily, cached forever per instance)
the LDF degree-prefix masks and the NLF/NLF2 count-threshold masks, so
the whole seeding stage of GCS construction collapses into a handful
of cached-mask ANDs per query vertex (:meth:`nlf_candidate_masks`), and
DAG-graph DP's survival test becomes ``adjacency_bitmaps[v] &
candidate_mask`` (:mod:`repro.filtering.masks`).

The mask variants decode to exactly the lists of
:func:`repro.filtering.ldf.ldf_candidates` and
:func:`repro.filtering.nlf.nlf_candidates` (``tests/test_build_masks.py``).

Nothing here is persisted: the service catalog
(:mod:`repro.service.catalog`) stores only the graph and builds the
artifacts once per cold load — one linear pass, small next to parsing
the graph text.  Pickling (:meth:`DataArtifacts.__getstate__`) exists
for the process pool's workers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph, label_counts
from repro.utils.bitset import mask_of


def _threshold_mask(counts: List[int], needed: int) -> int:
    """Mask of indices ``v`` with ``counts[v] >= needed``."""
    mask = 0
    for v, count in enumerate(counts):
        if count >= needed:
            mask |= 1 << v
    return mask


class DataArtifacts:
    """Per-data-graph filter state, shared across a whole query set."""

    __slots__ = (
        "data",
        "degrees",
        "label_buckets",
        "label_bitmaps",
        "adjacency_bitmaps",
        "reuse_report",
        "_ldf_masks",
        "_nlf_count_vectors",
        "_nlf_count_masks",
        "_nlf2_tables",
        "_nlf2_count_masks",
    )

    builds_performed = 0
    """Process-wide count of from-scratch constructions (class attribute).

    Every cold catalog load builds once, so a load counts here too; a
    warm engine (resident, or patched by an update) adds nothing, which
    is what lets the service tests assert that warm traffic builds
    nothing."""

    patches_performed = 0
    """Process-wide count of incremental delta patches (class attribute).

    :meth:`apply_delta` increments this instead of ``builds_performed``,
    so the service tests can assert that graph updates never fall back
    to a from-scratch rebuild."""

    def __init__(self, data: Graph) -> None:
        DataArtifacts.builds_performed += 1
        self.data = data
        self.reuse_report: Dict[str, int] = {}
        degrees = self.degrees = tuple(map(data.degree, data.vertices()))
        buckets: Dict[object, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for label in data.label_set:
            vs = sorted(
                data.vertices_with_label(label),
                key=degrees.__getitem__,
                reverse=True,
            )
            buckets[label] = (
                tuple(vs),
                # Negated-degree sequence is ascending: bisect finds the
                # end of the ``degree >= min_degree`` prefix.
                tuple(-degrees[v] for v in vs),
            )
        self.label_buckets = buckets
        # Dense build-path bitmaps (DESIGN.md §8): bit v == data vertex v.
        self.label_bitmaps: Dict[object, int] = {
            label: mask_of(data.vertices_with_label(label))
            for label in data.label_set
        }
        # OR-ing shared ``1 << w`` ints instead of fresh ones halves the
        # big-int allocations of the one build a cold catalog load pays.
        bits = [1 << v for v in data.vertices()]
        adjacency = []
        for row in map(data.neighbors, data.vertices()):
            mask = 0
            for w in row:
                mask |= bits[w]
            adjacency.append(mask)
        self.adjacency_bitmaps: Tuple[int, ...] = tuple(adjacency)
        self._init_mask_caches()

    def _init_mask_caches(self) -> None:
        """Empty lazy caches derived from the bitmaps and buckets."""
        self._ldf_masks: Dict[Tuple[object, int], int] = {}
        self._nlf_count_vectors: Dict[object, List[int]] = {}
        self._nlf_count_masks: Dict[Tuple[object, int], int] = {}
        self._nlf2_tables: Optional[List[Dict[object, int]]] = None
        self._nlf2_count_masks: Dict[Tuple[object, int], int] = {}

    # ------------------------------------------------------------------
    # Pickling (procpool workers)
    #
    # Only the graph and the int bitmaps/buckets travel.  Derived
    # caches — mask ladders, count vectors — are dropped and rebuilt
    # lazily in the worker.
    # ------------------------------------------------------------------

    def __getstate__(self):
        return (
            self.data,
            self.degrees,
            self.label_buckets,
            self.label_bitmaps,
            self.adjacency_bitmaps,
            self.reuse_report,
        )

    def __setstate__(self, state) -> None:
        (
            self.data,
            self.degrees,
            self.label_buckets,
            self.label_bitmaps,
            self.adjacency_bitmaps,
            self.reuse_report,
        ) = state
        self._init_mask_caches()

    # ------------------------------------------------------------------
    # Dense build path: candidate masks over data-vertex ids
    # ------------------------------------------------------------------

    def ldf_mask(self, label: object, min_degree: int) -> int:
        """LDF candidate *mask*: vertices with ``label`` and degree >= bound.

        The label bucket is degree-descending, so the mask is a bucket
        prefix located by one bisect; each distinct ``(label, prefix)``
        is assembled once and cached for the artifacts' lifetime —
        repeated queries pay one dict hit.
        """
        bucket = self.label_buckets.get(label)
        if bucket is None:
            return 0
        vs, neg_degrees = bucket
        end = bisect_right(neg_degrees, -min_degree)
        if end == len(vs):
            return self.label_bitmaps[label]
        key = (label, end)
        cached = self._ldf_masks.get(key)
        if cached is None:
            cached = self._ldf_masks[key] = mask_of(vs[:end])
        return cached

    def _nlf_count_vector(self, label: object) -> List[int]:
        """Per-vertex count of label-``label`` neighbors (lazy per label).

        Adjacency is symmetric, so ``v``'s label-``label`` neighbors are
        the label-``label`` vertices whose rows list ``v``: one pass over
        that label's rows per distinct label, shared by every threshold
        in its ladder.
        """
        vector = self._nlf_count_vectors.get(label)
        if vector is None:
            data = self.data
            vector = [0] * data.num_vertices
            for u in data.vertices_with_label(label):
                for v in data.neighbors(u):
                    vector[v] += 1
            self._nlf_count_vectors[label] = vector
        return vector

    def nlf_count_mask(self, label: object, count: int) -> int:
        """Mask of data vertices with >= ``count`` label-``label`` neighbors.

        NLF's per-candidate frequency-table comparison factors into one
        AND per (label, needed-count) pair against these thresholds;
        each distinct pair is computed once from the label's cached
        count vector (:meth:`_nlf_count_vector`) and cached.
        """
        key = (label, count)
        cached = self._nlf_count_masks.get(key)
        if cached is None:
            cached = _threshold_mask(self._nlf_count_vector(label), count)
            self._nlf_count_masks[key] = cached
        return cached

    def nlf2_count_mask(self, label: object, count: int) -> int:
        """Like :meth:`nlf_count_mask` over the distance-<=2 ball counts."""
        key = (label, count)
        cached = self._nlf2_count_masks.get(key)
        if cached is None:
            tables = self.nlf2_tables()
            cached = _threshold_mask(
                [counts.get(label, 0) for counts in tables], count
            )
            self._nlf2_count_masks[key] = cached
        return cached

    def nlf2_tables(self) -> List[Dict[object, int]]:
        """Data-side distance-<=2 label-count tables (lazy, cached)."""
        if self._nlf2_tables is None:
            from repro.filtering.nlf2 import _two_hop_label_counts

            self._nlf2_tables = _two_hop_label_counts(self.data)
        return self._nlf2_tables

    def ldf_candidate_masks(self, query: Graph) -> List[int]:
        """Per-query-vertex LDF masks (decode ==
        :func:`repro.filtering.ldf.ldf_candidates`)."""
        return [
            self.ldf_mask(query.label(u), query.degree(u))
            for u in query.vertices()
        ]

    def nlf_candidate_masks(self, query: Graph) -> List[int]:
        """Per-query-vertex LDF+NLF masks (decode ==
        :func:`repro.filtering.nlf.nlf_candidates`)."""
        masks: List[int] = []
        for u in query.vertices():
            mask = self.ldf_mask(query.label(u), query.degree(u))
            for label, needed in query.neighbor_label_frequency(u).items():
                if not mask:
                    break
                mask &= self.nlf_count_mask(label, needed)
            masks.append(mask)
        return masks

    # ------------------------------------------------------------------
    # Incremental maintenance (DESIGN.md §9)
    # ------------------------------------------------------------------

    def apply_delta(self, new_graph: Graph, summary) -> "DataArtifacts":
        """Patched artifacts for ``new_graph`` (the delta-applied graph).

        ``summary`` is the :class:`repro.dynamic.delta.DeltaSummary`
        returned by ``apply_delta(self.data, delta)`` and ``new_graph``
        the graph it produced.  The result equals
        ``DataArtifacts(new_graph)`` value for value —
        ``tests/test_dynamic.py`` and ``tests/test_property_dynamic.py``
        prove it differentially.

        Per-vertex tuples (degrees, adjacency bitmaps) are copied as
        reference lists in C with only the touched vertices rewritten.
        Everything else costs O(delta) Python work:

        * a label bitmap changes only by the added vertices' bits;
        * a label bucket changes only by its *moved* vertices — touched
          vertices whose degree changed are bisect-removed at
          ``(-old degree, id)`` and bisect-inserted at
          ``(-new degree, id)`` — and by its added vertices;
        * a bucket with no moved or added vertex is reused by reference
          and keeps its LDF prefix-mask ladder; a patched bucket's
          ladder is dropped, since its prefixes shifted.

        NLF count-threshold masks have exactly the touched vertices'
        bits recomputed.  The NLF2 two-hop tables are invalidated
        wholesale — a delta's influence there has radius 2, so patching
        them would touch the whole neighborhood of the neighborhood for
        marginal reuse.

        ``reuse_report`` on the returned instance quantifies the reuse;
        the class-level ``patches_performed`` counter increments instead
        of ``builds_performed``.
        """
        DataArtifacts.patches_performed += 1
        touched = summary.touched_vertices
        n_old = summary.num_vertices_before
        n_new = summary.num_vertices_after

        patched = DataArtifacts.__new__(DataArtifacts)
        patched.data = new_graph

        old_degrees = self.degrees
        degrees = list(old_degrees)
        degrees.extend([0] * (n_new - n_old))
        # label -> [(vertex, old degree or None when added, new degree)]
        moved: Dict[object, List[Tuple[int, Optional[int], int]]] = {}
        for v in touched:
            degree = degrees[v] = new_graph.degree(v)
            old = old_degrees[v] if v < n_old else None
            if old != degree:
                moved.setdefault(new_graph.label(v), []).append(
                    (v, old, degree)
                )
        patched.degrees = tuple(degrees)

        buckets = dict(self.label_buckets)
        bitmaps = dict(self.label_bitmaps)
        for label, changes in moved.items():
            vs, neg_degrees = buckets.get(label, ((), ()))
            vs, neg_degrees = list(vs), list(neg_degrees)
            for v, old, degree in changes:
                if old is None:
                    bitmaps[label] = bitmaps.get(label, 0) | (1 << v)
                else:
                    at = bisect_left(
                        vs, v, bisect_left(neg_degrees, -old),
                        bisect_right(neg_degrees, -old),
                    )
                    del vs[at], neg_degrees[at]
                at = bisect_left(
                    vs, v, bisect_left(neg_degrees, -degree),
                    bisect_right(neg_degrees, -degree),
                )
                vs.insert(at, v)
                neg_degrees.insert(at, -degree)
            buckets[label] = (tuple(vs), tuple(neg_degrees))
        patched.label_buckets = buckets
        patched.label_bitmaps = bitmaps

        adjacency = list(self.adjacency_bitmaps)
        adjacency.extend([0] * (n_new - n_old))
        for u, v in summary.added_edges:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        for u, v in summary.removed_edges:
            adjacency[u] &= ~(1 << v)
            adjacency[v] &= ~(1 << u)
        patched.adjacency_bitmaps = tuple(adjacency)

        # Lazy ladders: keep what provably survived, patch the rest.
        patched._ldf_masks = {
            key: mask
            for key, mask in self._ldf_masks.items()
            if key[0] not in moved
        }
        labels = new_graph.labels
        touched_counts = [
            (v, label_counts(labels, new_graph.neighbors(v))) for v in touched
        ]
        patched._nlf_count_masks = {}
        for (label, count), mask in self._nlf_count_masks.items():
            for v, counts in touched_counts:
                if counts.get(label, 0) >= count:
                    mask |= 1 << v
                else:
                    mask &= ~(1 << v)
            patched._nlf_count_masks[(label, count)] = mask
        # Count vectors are derived caches tied to the *old* rows;
        # rebuilt lazily against the patched state.
        patched._nlf_count_vectors = {}
        patched._nlf2_tables = None
        patched._nlf2_count_masks = {}

        ldf_kept = len(patched._ldf_masks)
        patched.reuse_report = {
            "vertices": n_new,
            "vertices_touched": len(touched),
            "adjacency_rows_reused": n_new - len(touched),
            "label_buckets_reused": len(buckets) - len(moved),
            "label_buckets_rebuilt": len(moved),
            "ldf_masks_kept": ldf_kept,
            "ldf_masks_dropped": len(self._ldf_masks) - ldf_kept,
            "nlf_masks_patched": len(self._nlf_count_masks),
        }
        return patched


