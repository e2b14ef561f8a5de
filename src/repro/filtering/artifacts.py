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
* Constructing the artifacts materializes the graph's (lazily built) NLF
  tables, so forked/pickled workers inherit them instead of each
  recomputing them on first use.

Since format v2 the artifacts also carry the **dense build-path
bitmaps** (DESIGN.md §8): per-label data-vertex bitmaps and per-vertex
adjacency bitmaps, both Python ints with bit ``v`` standing for data
vertex ``v``.  On top of them the artifacts derive (lazily, cached
forever per instance) the LDF degree-prefix masks and the NLF/NLF2
count-threshold masks, so the whole seeding stage of GCS construction
collapses into a handful of cached-mask ANDs per query vertex
(:meth:`nlf_candidate_masks`), and DAG-graph DP's survival test becomes
``adjacency_bitmaps[v] & candidate_mask`` (:mod:`repro.filtering.masks`).

Outputs are exactly those of :func:`repro.filtering.ldf.ldf_candidates`
and :func:`repro.filtering.nlf.nlf_candidates` (asserted by
``tests/test_filtering.py``); the mask variants decode to the same
lists (``tests/test_build_masks.py``).

The artifacts are also *persistable*: :func:`dumps_artifacts` /
:func:`loads_artifacts` serialize everything derived (degrees, label
buckets, the graph's NLF tables) **without** the graph itself, so the
service catalog (:mod:`repro.service.catalog`) can store the graph in
the portable ``.graph`` text format and the artifacts as a sidecar
blob, rebinding them on load.  The blob is versioned and validated
against the graph it is loaded for; any mismatch raises
:exc:`ArtifactsFormatError` so callers rebuild instead of trusting a
stale or corrupted store.
"""

from __future__ import annotations

import io
import pickle
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.filtering.nlf import _nlf_ok
from repro.graph.graph import Graph
from repro.utils.bitset import mask_of

ARTIFACTS_FORMAT_VERSION = 2
"""Bump when the serialized payload layout changes; loaders treat any
other version as stale and rebuild from the graph.

v1: degrees + label buckets + NLF tables.
v2: v1 plus the dense build-path bitmaps (per-label data-vertex
bitmaps, per-vertex adjacency bitmaps)."""


class ArtifactsFormatError(ValueError):
    """A serialized artifacts blob is corrupt, stale, or mismatched."""


def _threshold_mask(counts: List[int], needed: int) -> int:
    """Mask of indices ``v`` with ``counts[v] >= needed``."""
    mask = 0
    for v, count in enumerate(counts):
        if count >= needed:
            mask |= 1 << v
    return mask


def _label_sort_key(label: object) -> Tuple[str, str]:
    """Deterministic cross-type ordering for labels.

    Label-keyed dicts (buckets, bitmaps) are built in this order so a
    cold build and a delta patch produce byte-identical serialized
    payloads — set iteration order would differ once a delta introduces
    a new label.
    """
    return (type(label).__name__, repr(label))


def _sorted_labels(labels) -> List[object]:
    return sorted(labels, key=_label_sort_key)


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

    Deserializing via :func:`loads_artifacts` does *not* increment it,
    which is what lets the service tests assert that a warm catalog
    performs zero rebuilds."""

    patches_performed = 0
    """Process-wide count of incremental delta patches (class attribute).

    :meth:`apply_delta` increments this instead of ``builds_performed``,
    so the service tests can assert that graph updates never fall back
    to a from-scratch rebuild."""

    def __init__(self, data: Graph) -> None:
        DataArtifacts.builds_performed += 1
        self.data = data
        self.reuse_report: Dict[str, int] = {}
        self.degrees: Tuple[int, ...] = tuple(
            data.degree(v) for v in data.vertices()
        )
        # Label-keyed dicts are built in canonical label order (see
        # _label_sort_key) so delta patches can reproduce them exactly.
        buckets: Dict[object, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for label in _sorted_labels(data.label_set):
            vs = sorted(
                data.vertices_with_label(label),
                key=lambda v: self.degrees[v],
                reverse=True,
            )
            buckets[label] = (
                tuple(vs),
                # Negated-degree sequence is ascending: bisect finds the
                # end of the ``degree >= min_degree`` prefix.
                tuple(-self.degrees[v] for v in vs),
            )
        self.label_buckets = buckets
        # Dense build-path bitmaps (DESIGN.md §8): bit v == data vertex v.
        self.label_bitmaps: Dict[object, int] = {
            label: mask_of(data.vertices_with_label(label))
            for label in _sorted_labels(data.label_set)
        }
        self.adjacency_bitmaps: Tuple[int, ...] = tuple(
            mask_of(data.neighbors(v)) for v in data.vertices()
        )
        self._init_mask_caches()
        if data.num_vertices > 0:
            data.neighbor_label_frequency(0)  # materialize the NLF cache

    def _init_mask_caches(self) -> None:
        """Empty lazy caches derived from the persisted bitmaps."""
        self._ldf_masks: Dict[Tuple[object, int], int] = {}
        self._nlf_count_vectors: Dict[object, List[int]] = {}
        self._nlf_count_masks: Dict[Tuple[object, int], int] = {}
        self._nlf2_tables: Optional[List[Dict[object, int]]] = None
        self._nlf2_count_masks: Dict[Tuple[object, int], int] = {}

    # ------------------------------------------------------------------
    # Pickling (procpool workers, debugging dumps)
    #
    # Only the canonical persisted state travels: the graph and the
    # int bitmaps/buckets.  Derived caches — mask ladders, count
    # vectors — are dropped and rebuilt lazily, so two artifacts that
    # saw different query workloads pickle to the *same bytes*.
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

    def ldf_candidates(self, query: Graph) -> List[List[int]]:
        """LDF candidate lists (== :func:`repro.filtering.ldf.ldf_candidates`)."""
        candidates: List[List[int]] = []
        for u in query.vertices():
            bucket = self.label_buckets.get(query.label(u))
            if bucket is None:
                candidates.append([])
                continue
            vs, neg_degrees = bucket
            end = bisect_right(neg_degrees, -query.degree(u))
            candidates.append(sorted(vs[:end]))
        return candidates

    def nlf_candidates(self, query: Graph) -> List[List[int]]:
        """LDF+NLF candidate lists (== :func:`repro.filtering.nlf.nlf_candidates`)."""
        data = self.data
        refined: List[List[int]] = []
        for u, base in enumerate(self.ldf_candidates(query)):
            query_freq = query.neighbor_label_frequency(u)
            refined.append(
                [
                    v
                    for v in base
                    if _nlf_ok(query_freq, data.neighbor_label_frequency(v))
                ]
            )
        return refined

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

        One O(|V|) table scan per distinct label, shared by every
        threshold in that label's ladder.
        """
        vector = self._nlf_count_vectors.get(label)
        if vector is None:
            data = self.data
            vector = [
                data.neighbor_label_frequency(v).get(label, 0)
                for v in data.vertices()
            ]
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
        """Per-query-vertex LDF masks (decode == :meth:`ldf_candidates`)."""
        return [
            self.ldf_mask(query.label(u), query.degree(u))
            for u in query.vertices()
        ]

    def nlf_candidate_masks(self, query: Graph) -> List[int]:
        """Per-query-vertex LDF+NLF masks (decode == :meth:`nlf_candidates`)."""
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
        the graph it produced.  The result serializes byte-identically
        to ``DataArtifacts(new_graph)`` — ``tests/test_dynamic.py`` and
        ``tests/test_property_dynamic.py`` prove it differentially.

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
        if len(buckets) != len(self.label_buckets):
            # A new label: restore the canonical key order a cold build has.
            order = _sorted_labels(buckets)
            buckets = {label: buckets[label] for label in order}
            bitmaps = {label: bitmaps[label] for label in order}
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
        patched._nlf_count_masks = {}
        for (label, count), mask in self._nlf_count_masks.items():
            for v in touched:
                if new_graph.neighbor_label_frequency(v).get(label, 0) >= count:
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


# ----------------------------------------------------------------------
# Serialization (graph-free payload; the graph is stored separately)
# ----------------------------------------------------------------------


def dumps_artifacts(artifacts: DataArtifacts) -> bytes:
    """Serialize everything derived from the data graph (not the graph).

    The payload carries the degree sequence, the label buckets, and the
    graph's materialized NLF tables, so :func:`loads_artifacts` restores
    the full warm state — including the NLF cache that
    ``DataArtifacts.__init__`` would otherwise recompute — without any
    per-vertex work.  The bytes are a function of the artifacts' values,
    so equal artifacts serialize identically however they were made.
    """
    data = artifacts.data
    payload = (
        ARTIFACTS_FORMAT_VERSION,
        data.num_vertices,
        data.num_edges,
        artifacts.degrees,
        artifacts.label_buckets,
        # Access through the public API so the tables exist even if the
        # artifacts were built against a graph whose cache was cleared.
        [data.neighbor_label_frequency(v) for v in data.vertices()]
        if data.num_vertices > 0
        else [],
        artifacts.label_bitmaps,
        artifacts.adjacency_bitmaps,
    )
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    # No memo: the bytes then depend on the payload's values only, not
    # on which equal label strings happen to be one object (a loaded or
    # delta-patched instance shares them differently from a cold build).
    pickler.fast = True
    pickler.dump(payload)
    return buffer.getvalue()


def loads_artifacts(blob: bytes, data: Graph) -> DataArtifacts:
    """Rebind a serialized payload to ``data`` without rebuilding.

    Validates the payload against the graph (format version, vertex and
    edge counts, degree sequence, label-bucket key set) and raises
    :exc:`ArtifactsFormatError` on *any* mismatch or decode failure —
    truncated files, foreign pickles, stale versions — so callers treat
    the blob as disposable and rebuild.
    """
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - any decode failure is "corrupt"
        raise ArtifactsFormatError(f"artifacts blob does not decode: {exc}")
    if not (isinstance(payload, tuple) and len(payload) >= 1):
        raise ArtifactsFormatError("artifacts payload has unexpected shape")
    if payload[0] != ARTIFACTS_FORMAT_VERSION:
        # Stale format (e.g. a v1 blob without the build-path bitmaps):
        # a clean rebuild signal, never an attempt to upgrade in place.
        raise ArtifactsFormatError(
            f"artifacts format version {payload[0]!r} != {ARTIFACTS_FORMAT_VERSION}"
        )
    if len(payload) != 8:
        raise ArtifactsFormatError("artifacts payload has unexpected shape")
    (
        _version,
        num_vertices,
        num_edges,
        degrees,
        label_buckets,
        nlf,
        label_bitmaps,
        adjacency_bitmaps,
    ) = payload
    if num_vertices != data.num_vertices or num_edges != data.num_edges:
        raise ArtifactsFormatError(
            "artifacts were built for a different graph "
            f"({num_vertices} vertices / {num_edges} edges, graph has "
            f"{data.num_vertices} / {data.num_edges})"
        )
    if not isinstance(degrees, tuple) or len(degrees) != data.num_vertices:
        raise ArtifactsFormatError("degree sequence has wrong length")
    if any(degrees[v] != data.degree(v) for v in data.vertices()):
        raise ArtifactsFormatError("degree sequence does not match the graph")
    if not isinstance(label_buckets, dict) or set(label_buckets) != set(
        data.label_set
    ):
        raise ArtifactsFormatError("label buckets do not match the graph")
    if not isinstance(nlf, list) or len(nlf) != data.num_vertices:
        raise ArtifactsFormatError("NLF tables have wrong length")
    if not isinstance(label_bitmaps, dict) or set(label_bitmaps) != set(
        data.label_set
    ):
        raise ArtifactsFormatError("label bitmaps do not match the graph")
    if (
        not isinstance(adjacency_bitmaps, tuple)
        or len(adjacency_bitmaps) != data.num_vertices
    ):
        raise ArtifactsFormatError("adjacency bitmaps have wrong length")
    # Bitmaps must be canonical nonnegative Python ints — a payload
    # carrying anything else (word arrays, bytes, negative ints) is
    # corrupt or foreign, never silently adapted.
    if any(type(m) is not int or m < 0 for m in label_bitmaps.values()) or any(
        type(m) is not int or m < 0 for m in adjacency_bitmaps
    ):
        raise ArtifactsFormatError(
            "bitmap payload is not canonical int masks"
        )

    artifacts = DataArtifacts.__new__(DataArtifacts)
    artifacts.data = data
    artifacts.reuse_report = {}
    artifacts.degrees = degrees
    artifacts.label_buckets = label_buckets
    artifacts.label_bitmaps = label_bitmaps
    artifacts.adjacency_bitmaps = adjacency_bitmaps
    artifacts._init_mask_caches()
    if data.num_vertices > 0 and not data._nlf:
        data._nlf = nlf  # install the warm NLF cache
    return artifacts
