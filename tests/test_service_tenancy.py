"""Multi-tenant admission control (DESIGN.md §13).

Three layers, matching the module split:

* :class:`TokenBucket` / :class:`TenantTable` — deterministic unit
  tests under an injectable fake clock: refill arithmetic, exact
  ``retry_after`` hints, quota decisions, tenant isolation.
* :class:`FairSlots` — the weighted deficit-round-robin gate, driven
  on a real event loop: weight-proportional grant order, priority
  order within one tenant, cancellation safety.
* Server integration — tenant-labeled sheds over the wire, the
  three-surface reconciliation (``stats`` / ``/metrics`` / reply
  fields) for ``repro_tenant_*`` counters, and the client honoring
  the server's ``retry_after`` hint.
"""

import asyncio
import json

import pytest

from repro.graph.builder import graph_from_adjacency
from repro.obs import parse_exposition
from repro.service.catalog import GraphCatalog
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.faults import FaultPlan, FaultRule, InjectedCrash
from repro.service.server import ServerThread
from repro.service.tenancy import (
    DEFAULT_TENANT,
    FairSlots,
    TenancyError,
    TenantSpec,
    TenantTable,
    TokenBucket,
    tenant_from_spec,
    tenants_from_file,
    tenants_from_json,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def bipartite_world():
    data = graph_from_adjacency(
        ["A", "B", "A", "C", "D", "C"],
        [(0, 1), (1, 2), (3, 4), (4, 5)],
    )
    ab_query = graph_from_adjacency(["A", "B"], [(0, 1)])
    return data, ab_query


def serve_world(tmp_path, faults=None, **server_kwargs):
    data, ab_query = bipartite_world()
    root = tmp_path / "catalog"
    GraphCatalog(root).add("g", data)
    catalog = GraphCatalog(root)
    if faults is not None:
        server_kwargs["faults"] = faults
    return ServerThread(catalog, **server_kwargs), ab_query


class TestTokenBucket:
    def test_burst_then_exact_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        ok, wait = bucket.try_take()
        assert not ok
        assert wait == pytest.approx(0.5)  # 1 token / (2 tokens/s)
        clock.advance(0.5)
        assert bucket.try_take() == (True, 0.0)

    def test_unlimited_when_rate_is_none(self):
        bucket = TokenBucket(rate=None, clock=FakeClock())
        for _ in range(1000):
            assert bucket.try_take() == (True, 0.0)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        for _ in range(3):
            assert bucket.try_take()[0]
        clock.advance(3600.0)  # a long idle refills to burst, not more
        for _ in range(3):
            assert bucket.try_take()[0]
        assert not bucket.try_take()[0]

    def test_partial_refill_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.try_take()[0]
        clock.advance(0.125)  # half a token back
        ok, wait = bucket.try_take()
        assert not ok
        assert wait == pytest.approx(0.125)

    def test_refill_fault_hook_fires(self):
        plan = FaultPlan([FaultRule("tenancy.bucket.refill", "crash")])
        bucket = TokenBucket(rate=1.0, clock=FakeClock(), faults=plan)
        with pytest.raises(InjectedCrash):
            bucket.try_take()


class TestTenantSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0},
        {"rate": -1.0},
        {"burst": 0.5},
        {"max_inflight": 0},
        {"weight": 0},
        {"max_workers": 0},
    ])
    def test_bad_field_raises(self, kwargs):
        with pytest.raises(TenancyError):
            TenantSpec("t", **kwargs)


class TestSpecParsing:
    def test_json_nested_shape(self):
        specs = tenants_from_json(json.dumps({
            "default": {"rate": 5, "weight": 1},
            "tenants": {"gold": {"weight": 4}, "free": {"rate": 0.5}},
        }))
        assert set(specs) == {"default", "gold", "free"}
        assert specs["default"].rate == 5.0
        assert specs["gold"].weight == 4
        assert specs["free"].rate == 0.5

    def test_json_flat_shape(self):
        specs = tenants_from_json(
            '{"a": {"max_inflight": 2}, "default": {"burst": 3}}'
        )
        assert specs["a"].max_inflight == 2
        assert specs["default"].burst == 3.0

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        '{"t": {"bogus_field": 1}}',
        '{"t": {"rate": "fast"}}',
        '{"t": 42}',
        '{"tenants": [1]}',
    ])
    def test_bad_json_raises(self, text):
        with pytest.raises(TenancyError):
            tenants_from_json(text)

    def test_inline_spec(self):
        spec = tenant_from_spec("paid:rate=2.5,weight=4,max_workers=2")
        assert spec.name == "paid"
        assert spec.rate == 2.5
        assert spec.weight == 4
        assert spec.max_workers == 2
        assert tenant_from_spec("bare").rate is None  # name only is fine

    @pytest.mark.parametrize("text", [
        ":rate=1",
        "t:notkeyvalue",
        "t:rate",
        "t:speed=9",
    ])
    def test_bad_inline_spec_raises(self, text):
        with pytest.raises(TenancyError):
            tenant_from_spec(text)

    def test_file_round_trip_and_missing_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('{"x": {"weight": 2}}', encoding="utf-8")
        assert tenants_from_file(path)["x"].weight == 2
        with pytest.raises(TenancyError, match="cannot read"):
            tenants_from_file(tmp_path / "missing.json")


class TestTenantTable:
    def test_default_tenant_for_legacy_clients(self):
        table = TenantTable(clock=FakeClock())
        state = table.resolve(None)
        assert state.spec.name == DEFAULT_TENANT
        assert table.resolve("") is state
        assert table.resolve("default") is state

    def test_unknown_tenants_are_isolated(self):
        # Unknown names inherit the default class but get private
        # buckets: one noisy unknown cannot spend another's tokens.
        clock = FakeClock()
        default = TenantSpec(DEFAULT_TENANT, rate=1.0, burst=1.0)
        table = TenantTable(default_spec=default, clock=clock)
        a, b = table.resolve("a"), table.resolve("b")
        assert a is not b
        assert a.spec.rate == 1.0
        assert table.admit(a) is None
        assert table.admit(a).reason == "rate"  # a exhausted its bucket
        assert table.admit(b) is None           # b still has its own

    def test_rate_rejection_carries_exact_hint(self):
        clock = FakeClock()
        table = TenantTable(
            [TenantSpec("t", rate=0.5, burst=1.0)], clock=clock
        )
        state = table.resolve("t")
        assert table.admit(state) is None
        rejection = table.admit(state)
        assert rejection.reason == "rate"
        assert rejection.retry_after == pytest.approx(2.0)

    def test_quota_rejection_uses_slot_hint(self):
        table = TenantTable(
            [TenantSpec("t", max_inflight=2)],
            clock=FakeClock(), slot_retry_after=0.125,
        )
        state = table.resolve("t")
        state.inflight = 2
        rejection = table.admit(state)
        assert rejection.reason == "quota"
        assert rejection.retry_after == 0.125
        state.inflight = 1
        assert table.admit(state) is None

    def test_on_create_fires_once_per_tenant(self):
        created = []
        table = TenantTable(clock=FakeClock(), on_create=lambda name, state:
                            created.append(name))
        table.resolve("x")
        table.resolve("x")
        table.resolve("y")
        assert created == ["x", "y"]

    def test_known_and_stats(self):
        table = TenantTable([TenantSpec("cfg")], clock=FakeClock())
        assert table.known() == ["cfg", "default"]
        assert table.stats() == {}  # no traffic yet
        table.resolve("cfg").counters.inc("queries")
        stats = table.stats()
        assert stats["cfg"]["queries"] == 1
        assert stats["cfg"]["inflight"] == 0
        assert stats["cfg"]["weight"] == 1


def run(coro):
    return asyncio.run(coro)


class TestFairSlots:
    def test_uncontended_fast_path(self):
        async def scenario():
            slots = FairSlots(2)
            await slots.acquire("a")
            await slots.acquire("b")
            assert slots.free == 0
            slots.release()
            assert slots.free == 1
            slots.release()
            assert slots.free == 2

        run(scenario())

    def test_weighted_deficit_round_robin_order(self):
        # Capacity 1; tenant a (weight 2) and b (weight 1) each queue 4
        # waiters.  DRR grants a two serves per rotation and b one, so
        # a's backlog drains twice as fast — and b is never starved.
        async def scenario():
            slots = FairSlots(1)
            order = []

            async def worker(tenant, i, weight):
                await slots.acquire(tenant, weight=weight)
                order.append(f"{tenant}{i}")
                await asyncio.sleep(0)
                slots.release()

            tasks = []
            for i in range(4):
                tasks.append(asyncio.ensure_future(worker("a", i, 2)))
            for i in range(4):
                tasks.append(asyncio.ensure_future(worker("b", i, 1)))
            await asyncio.gather(*tasks)
            return order

        order = run(scenario())
        assert len(order) == 8
        # a0 takes the free slot before anyone queues; thereafter the
        # 2:1 weighting shows in every prefix of the contended grants.
        assert order[0] == "a0"
        first_six = order[:6]
        assert sum(1 for g in first_six if g.startswith("a")) >= 4
        assert any(g.startswith("b") for g in order[:4]), \
            "weight 1 tenant must not be starved by weight 2 backlog"
        # Within one tenant the order is FIFO.
        for tenant in ("a", "b"):
            seq = [g for g in order if g.startswith(tenant)]
            assert seq == sorted(seq)

    def test_priority_order_within_one_tenant(self):
        async def scenario():
            slots = FairSlots(1)
            await slots.acquire("hold")  # saturate
            order = []

            async def worker(label, rank):
                await slots.acquire("t", rank=rank)
                order.append(label)
                slots.release()

            tasks = [
                asyncio.ensure_future(worker("low", 2)),
                asyncio.ensure_future(worker("normal", 1)),
                asyncio.ensure_future(worker("high", 0)),
            ]
            await asyncio.sleep(0)  # all three queued
            slots.release()
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == ["high", "normal", "low"]

    def test_cancelled_waiter_is_discarded(self):
        async def scenario():
            slots = FairSlots(1)
            await slots.acquire("hold")
            task = asyncio.ensure_future(slots.acquire("t"))
            await asyncio.sleep(0)
            assert slots.pending("t") == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert slots.pending() == 0
            slots.release()
            assert slots.free == 1  # nothing was leaked to the dead waiter

        run(scenario())

    def test_single_tenant_fifo_without_weights(self):
        async def scenario():
            slots = FairSlots(1)
            await slots.acquire("t")
            order = []

            async def worker(i):
                await slots.acquire("t")
                order.append(i)
                slots.release()

            tasks = [asyncio.ensure_future(worker(i)) for i in range(5)]
            await asyncio.sleep(0)
            slots.release()
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == [0, 1, 2, 3, 4]


class TestServerTenantAdmission:
    def test_rate_limited_tenant_sheds_with_hint(self, tmp_path):
        tenants = TenantTable([TenantSpec("slow", rate=0.001, burst=1.0)])
        thread, query = serve_world(tmp_path, tenants=tenants)
        with thread:
            with ServiceClient(*thread.address, tenant="slow") as client:
                assert client.query(query, "g").num_embeddings == 2
                with pytest.raises(ServiceOverloaded) as info:
                    client.query(query, "g", cache=False)
                assert info.value.reason == "rate"
                assert info.value.retry_after is not None
                assert info.value.retry_after > 100  # ~1000s to next token
                stats = client.stats()
            slow = stats["tenants"]["slow"]
            assert slow["queries"] == 2
            assert slow["admitted"] == 1
            assert slow["served"] == 1
            assert slow["shed_rate"] == 1

    def test_quota_shed_when_tenant_at_max_inflight(self, tmp_path):
        tenants = TenantTable([TenantSpec("q", max_inflight=1)])
        thread, query = serve_world(tmp_path, tenants=tenants)
        with thread:
            state = thread.server.tenants.resolve("q")
            state.inflight = 1  # as if one query were mid-flight
            try:
                with ServiceClient(*thread.address, tenant="q") as client:
                    with pytest.raises(ServiceOverloaded) as info:
                        client.query(query, "g")
                    assert info.value.reason == "quota"
                    assert info.value.retry_after is not None
            finally:
                state.inflight = 0
            with ServiceClient(*thread.address, tenant="q") as client:
                assert client.query(query, "g").num_embeddings == 2

    def test_tenant_counters_reconcile_with_metrics(self, tmp_path):
        tenants = TenantTable([TenantSpec("slow", rate=0.001, burst=1.0)])
        thread, query = serve_world(tmp_path, tenants=tenants)
        with thread:
            with ServiceClient(*thread.address, tenant="slow") as client:
                client.query(query, "g")
                with pytest.raises(ServiceOverloaded):
                    client.query(query, "g", cache=False)
                stats = client.stats()
                exposition = parse_exposition(client.metrics())
            for counter in ("queries", "admitted", "served", "shed_rate"):
                key = (
                    f"repro_tenant_{counter}_total",
                    (("tenant", "slow"),),
                )
                assert exposition[key] == stats["tenants"]["slow"][counter]
            assert exposition[
                ("repro_tenant_inflight", (("tenant", "slow"),))
            ] == 0

    def test_unknown_tenants_isolated_over_the_wire(self, tmp_path):
        default = TenantSpec("default", rate=0.001, burst=1.0)
        thread, query = serve_world(
            tmp_path, tenants=TenantTable(default_spec=default)
        )
        with thread:
            with ServiceClient(*thread.address, tenant="a") as a, \
                    ServiceClient(*thread.address, tenant="b") as b:
                assert a.query(query, "g").num_embeddings == 2
                with pytest.raises(ServiceOverloaded):
                    a.query(query, "g", cache=False)
                # b inherits the same class but owns a private bucket.
                assert b.query(query, "g").num_embeddings == 2
                stats = b.stats()
            assert stats["tenants"]["a"]["shed_rate"] == 1
            assert stats["tenants"]["b"]["shed_rate"] == 0

    def test_bad_tenant_field_is_clean_error(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.tenant = 42  # bypass the constructor's typing
                with pytest.raises(Exception, match="tenant"):
                    client.query(query, "g")
                client.tenant = None
                assert client.ping()  # connection survived

    def test_bad_tenant_field_rejected_by_subscribe_too(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.tenant = ["x"]  # bypass the constructor's typing
                with pytest.raises(ServiceError) as on_query:
                    client.query(query, "g")
                with pytest.raises(ServiceError) as on_subscribe:
                    client.subscribe(query, "g")
                client.tenant = None
                assert client.ping()  # connection survived
                stats = client.stats()
        assert str(on_subscribe.value) == str(on_query.value)
        assert "'tenant' must be" in str(on_subscribe.value)
        assert stats["server"]["subscriptions"] == 0
        assert stats["server"]["errors"] == 2

    def test_legacy_clients_land_on_default_tenant(self, tmp_path):
        thread, query = serve_world(tmp_path)
        with thread:
            with ServiceClient(*thread.address) as client:
                client.query(query, "g")
                stats = client.stats()
            assert stats["tenants"]["default"]["served"] == 1

    def test_max_workers_clamp_still_serves_exactly(self, tmp_path):
        tenants = TenantTable([TenantSpec("capped", max_workers=1)])
        thread, query = serve_world(tmp_path, tenants=tenants)
        with thread:
            with ServiceClient(*thread.address, tenant="capped") as client:
                reply = client.query(query, "g", workers=4, cache=False)
                assert reply.num_embeddings == 2
                stats = client.stats()
            # The clamp forced workers=1: no procpool dispatch happened.
            assert stats["server"]["procpool_dispatches"] == 0


class TestClientRetryAfterHint:
    def test_hint_replaces_exponential_backoff(self, tmp_path):
        plan = FaultPlan([FaultRule("server.admission", "overload", times=2)])
        thread, query = serve_world(
            tmp_path, faults=plan, retry_after_hint=0.015
        )
        sleeps = []
        retry = RetryPolicy(
            attempts=4, base_delay=5.0, multiplier=2.0, jitter=0.0,
            sleep=sleeps.append,
        )
        with thread:
            with ServiceClient(*thread.address, retry=retry) as client:
                reply = client.query(query, "g")
                assert reply.num_embeddings == 2
        # Without the hint this schedule would be [5.0, 10.0].
        assert sleeps == [0.015, 0.015]

    def test_hint_is_jittered_and_capped(self):
        retry = RetryPolicy(jitter=0.5, max_delay=1.0,
                            rng=__import__("random").Random(7))
        delay = retry.delay_for(0, retry_after=0.5)
        assert 0.5 <= delay <= 0.75
        assert retry.delay_for(0, retry_after=99.0) <= 1.5  # capped+jitter
        plain = RetryPolicy(jitter=0.0)
        assert plain.delay_for(3, retry_after=None) == plain.backoff(3)
