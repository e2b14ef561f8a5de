"""The seed twins, composed per test: which GCS builder × which search.

Production (:class:`GuPEngine`) builds with int masks and searches with
candidate bitmaps; the oracle (:class:`ReferenceEngine`) builds with the
seed set pipeline and searches with the seed lists.  The two mixed
engines swap exactly one twin, so a differential test can pin a
mismatch on the builder or on the search.
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
