"""Test oracles: the seed twins, and the artifacts value oracle.

Production (:class:`GuPEngine`) builds with int masks and searches with
candidate bitmaps; the oracle (:class:`ReferenceEngine`) builds with the
seed set pipeline and searches with the seed lists.  The two mixed
engines swap exactly one twin, so a differential test can pin a
mismatch on the builder or on the search.

:func:`artifact_values` is what "equal filter artifacts" means to the
patched-vs-cold and live-vs-cold differentials.

:func:`oracle_match` and :func:`assert_twin_stats` state what "the same
search" means for statistics: production skips the edge nogoods a
search-node store can never match again, which the oracle still records
and counts (``ListGuPSearch.dead_edge_records``).
"""

import dataclasses

from repro.core.backtrack import GuPSearch
from repro.core.backtrack_ref import ListGuPSearch, ReferenceEngine
from repro.core.engine import GuPEngine
from repro.matching.result import TerminationStatus


class ListSearchEngine(GuPEngine):
    """Production mask build, seed list search."""

    search_class = ListGuPSearch


class SetBuildEngine(ReferenceEngine):
    """Seed set build, production bitmap search."""

    search_class = GuPSearch


ENGINES = {
    ("bitmap", "bitmap"): GuPEngine,
    ("bitmap", "list"): ListSearchEngine,
    ("set", "bitmap"): SetBuildEngine,
    ("set", "list"): ReferenceEngine,
}
"""Engine class by ``(build, search)`` twin names."""


def artifact_values(artifacts):
    """Everything a :class:`DataArtifacts` holds about its graph, as
    plain values: degrees, label buckets, label bitmaps, adjacency
    bitmaps and each vertex's NLF table.  Two artifacts are equal iff
    these compare equal; dict key order and the lazy mask caches do not
    count."""
    data = artifacts.data
    return (
        artifacts.degrees,
        artifacts.label_buckets,
        artifacts.label_bitmaps,
        artifacts.adjacency_bitmaps,
        [data.neighbor_label_frequency(v) for v in data.vertices()],
    )


def oracle_match(engine, query, **kwargs):
    """``engine.match(query, **kwargs)`` and the number of dead edge
    records its sequential oracle search made (0 when the engine's
    search is production's, e.g. through the procpool)."""
    searches = []

    class Recording(engine.search_class):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            searches.append(self)

    engine.search_class = Recording
    try:
        result = engine.match(query, **kwargs)
    finally:
        del engine.search_class
    return result, sum(getattr(s, "dead_edge_records", 0) for s in searches)


def assert_twin_stats(stats, oracle_stats, dead, status, context=None):
    """Production's ``SearchStats`` against the oracle's.

    Every field is equal except ``nogoods_recorded_edge``: on a COMPLETE
    run production recorded exactly the oracle's records minus the
    ``dead`` ones.  A truncated run skips that field, because production
    resolves the watches on the next query vertex in place and keeps the
    sound records it made before the cut, where the oracle drops them."""
    got = dataclasses.asdict(stats)
    want = dataclasses.asdict(oracle_stats)
    recorded = got.pop("nogoods_recorded_edge")
    oracle_recorded = want.pop("nogoods_recorded_edge")
    assert got == want, context
    if status == TerminationStatus.COMPLETE:
        assert recorded == oracle_recorded - dead, context
