"""Long-running matching service on top of the GuP engine.

The library's pipeline (filter → GCS → guarded backtracking) factors
into per-*data-graph* state that is identical for every query and
per-*query* work that is highly repetitive across a real workload.
This package exploits both:

* :mod:`repro.service.catalog` — a persistent, versioned on-disk store
  of named data graphs plus their precomputed
  :class:`~repro.filtering.artifacts.DataArtifacts`, with an in-memory
  LRU of warm :class:`~repro.core.engine.GuPEngine` instances;
* :mod:`repro.service.qcache` — query canonicalization (isomorphic
  queries share one cache slot) and an LRU result cache with exact
  semantics under differing ``max_embeddings`` caps;
* :mod:`repro.service.server` — an asyncio JSON-lines TCP server with
  admission control, per-request :class:`~repro.matching.limits.SearchLimits`,
  embedding lists in one binary frame per reply
  (:mod:`repro.service.wire`), and procpool dispatch for heavy
  requests;
* :mod:`repro.service.client` — a small blocking client (used by the
  ``repro query`` CLI command and the tests) with opt-in retry/backoff
  and end-to-end deadlines;
* :mod:`repro.service.faults` — the deterministic fault-injection
  plans threaded through catalog, server, and procpool;
* :mod:`repro.service.tenancy` — per-tenant admission classes: token
  buckets, inflight quotas, and weighted deficit-round-robin sharing
  of the matching slots;
* :mod:`repro.service.lifecycle` — zero-downtime catalog reload and
  graceful drain with exact subscription diff-replay across epochs.

See DESIGN.md §7 for the architecture, §10 for the failure model,
§13 for multi-tenancy & zero-downtime operations, and README.md
("Serving", "Fault tolerance", "Multi-tenancy") for a quickstart.
"""

from repro.service.catalog import CatalogError, GraphCatalog
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.service.faults import FaultPlan, FaultRule, InjectedCrash
from repro.service.lifecycle import LifecycleManager, lifecycle_points
from repro.service.qcache import QueryCache, canonical_form
from repro.service.server import MatchingServer, ServerThread
from repro.service.tenancy import (
    FairSlots,
    TenancyError,
    TenantSpec,
    TenantTable,
    TokenBucket,
    tenant_from_spec,
    tenants_from_file,
    tenants_from_json,
)

__all__ = [
    "CatalogError",
    "FairSlots",
    "FaultPlan",
    "FaultRule",
    "GraphCatalog",
    "InjectedCrash",
    "LifecycleManager",
    "MatchingServer",
    "QueryCache",
    "RetryPolicy",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "TenancyError",
    "TenantSpec",
    "TenantTable",
    "TokenBucket",
    "canonical_form",
    "lifecycle_points",
    "tenant_from_spec",
    "tenants_from_file",
    "tenants_from_json",
]
