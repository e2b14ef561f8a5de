"""Test oracles: the seed twins, and the artifacts value oracle.

Production (:class:`GuPEngine`) builds with int masks and searches with
candidate bitmaps; the oracle (:class:`ReferenceEngine`) builds with the
seed set pipeline and searches with the seed lists.  The two mixed
engines swap exactly one twin, so a differential test can pin a
mismatch on the builder or on the search.

:func:`artifact_values` is what "equal filter artifacts" means to the
patched-vs-cold and live-vs-cold differentials.
"""

from repro.core.backtrack import GuPSearch
from repro.core.backtrack_ref import ListGuPSearch, ReferenceEngine
from repro.core.engine import GuPEngine


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
