"""Plan-cache correctness: warm runs are identical, invalidation is exact.

The acceptance bar: executing the same query twice hits the plan cache
(observable via planner metrics) and returns byte-identical results —
same rows, same order (ties included), same scores — while any change to
tables, indexes or statistics invalidates every cached plan.
"""

from __future__ import annotations

import pytest

from repro.cli import build_demo_database
from repro.planner import CachedPlan, PlanCache

SQL = "SELECT * FROM hotel ORDER BY cheap(hotel.price) + starry(hotel.stars) LIMIT 7"
JOIN_SQL = (
    "SELECT * FROM hotel, restaurant WHERE hotel.area = restaurant.area "
    "ORDER BY cheap(hotel.price) + tasty(restaurant.price) LIMIT 5"
)


@pytest.fixture
def db():
    return build_demo_database(seed=7)


def assert_identical(cold, warm):
    assert warm.rows == cold.rows          # same tuples, same (tie) order
    assert warm.scores == cold.scores
    assert warm.schema == cold.schema
    assert warm.plan.fingerprint() == cold.plan.fingerprint()


class TestCacheHits:
    def test_second_run_hits_cache(self, db):
        cold = db.query(SQL)
        warm = db.query(SQL)
        assert not cold.plan_cached
        assert warm.plan_cached
        assert db.planner.cache.stats.hits == 1
        assert db.planner.cache.stats.misses == 1
        assert_identical(cold, warm)

    def test_join_query_hits_cache(self, db):
        cold = db.query(JOIN_SQL)
        warm = db.query(JOIN_SQL)
        assert warm.plan_cached
        assert_identical(cold, warm)

    def test_warm_run_does_identical_execution_work(self, db):
        cold = db.query(SQL)
        warm = db.query(SQL)
        # Same plan, same data: the execution metrics must agree exactly.
        assert warm.metrics.summary() == cold.metrics.summary()

    def test_distinct_knobs_planned_separately(self, db):
        db.query(SQL)
        result = db.query(SQL, left_deep=True)
        assert not result.plan_cached
        assert db.planner.cache.stats.hits == 0

    def test_planner_metrics_observable(self, db):
        db.query(SQL)
        db.query(SQL)
        metrics = db.planner.metrics
        assert metrics.prepares == 2
        assert metrics.plans_built == 1
        assert db.planner.cache.stats.hit_rate == 0.5


class TestInvalidation:
    def test_insert_invalidates(self, db):
        db.query(SQL)
        # A new best hotel must surface — a stale cached plan would at
        # minimum be re-planned; the result must include the new row.
        db.insert("hotel", [("hotel-new", 1.0, 5, 3)])
        db.analyze("hotel")
        result = db.query(SQL)
        assert not result.plan_cached
        assert result.rows[0][0] == "hotel-new"

    def test_create_rank_index_invalidates(self, db):
        db.query(SQL)
        assert len(db.planner.cache) == 1
        db.create_rank_index("hotel", "starry")
        assert len(db.planner.cache) == 0
        result = db.query(SQL)
        assert not result.plan_cached

    def test_analyze_invalidates(self, db):
        db.query(SQL)
        db.analyze()
        result = db.query(SQL)
        assert not result.plan_cached

    def test_results_identical_across_invalidation(self, db):
        cold = db.query(SQL)
        db.analyze()  # stats refresh without data change
        replanned = db.query(SQL)
        assert replanned.rows == cold.rows
        assert replanned.scores == cold.scores

    def test_generation_advances(self, db):
        before = db.planner.generation
        db.insert("hotel", [("h", 50.0, 2, 1)])
        assert db.planner.generation == before + 1

    def test_spec_mutation_cannot_corrupt_cached_entry(self, db):
        # k/scoring are snapshotted at prepare time: mutating a spec after
        # querying must not truncate later hits keyed under the old k.
        spec = db.bind(SQL)
        assert len(db.query(spec)) == 7
        spec.k = 2
        fresh = db.bind(SQL)  # same signature as the cached k=7 entry
        result = db.query(fresh)
        assert result.plan_cached
        assert len(result) == 7


class TestPlanCacheUnit:
    @staticmethod
    def entry(signature, generation=0, plan_cost=0.0):
        return CachedPlan(
            signature=signature,
            spec=None,
            plan=None,
            strategy="rank-aware",
            evaluators=None,
            generation=generation,
            plan_cost=plan_cost,
        )

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(self.entry(("a",)))
        cache.put(self.entry(("b",)))
        assert cache.get(("a",), 0) is not None  # touch: "a" is now MRU
        cache.put(self.entry(("c",)))            # evicts "b"
        assert cache.get(("b",), 0) is None
        assert cache.get(("a",), 0) is not None
        assert cache.stats.evictions == 1

    def test_stale_generation_is_a_miss(self):
        cache = PlanCache(capacity=4)
        cache.put(self.entry(("a",), generation=0))
        assert cache.get(("a",), 1) is None
        assert ("a",) not in cache  # stale entries are dropped eagerly

    def test_invalidate_clears(self):
        cache = PlanCache(capacity=4)
        cache.put(self.entry(("a",)))
        cache.put(self.entry(("b",)))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestCostWeightedEviction:
    """Eviction weighs recency by replanning cost (`plan_cost / age`):
    expensive-to-replan templates survive pressure that would LRU-evict
    them, while uniform costs degrade to plain LRU."""

    entry = staticmethod(TestPlanCacheUnit.entry)

    def test_expensive_entry_survives_lru_pressure(self):
        cache = PlanCache(capacity=2)
        cache.put(self.entry(("costly",), plan_cost=10.0))
        cache.put(self.entry(("cheap-1",), plan_cost=0.001))
        # LRU would evict "costly" (least recently used); cost-weighting
        # sacrifices the cheap, newer entry instead.
        cache.put(self.entry(("cheap-2",), plan_cost=0.001))
        assert ("costly",) in cache
        assert ("cheap-1",) not in cache
        assert ("cheap-2",) in cache
        assert cache.stats.evictions == 1

    def test_uniform_costs_degrade_to_lru(self):
        cache = PlanCache(capacity=2)
        cache.put(self.entry(("a",), plan_cost=1.0))
        cache.put(self.entry(("b",), plan_cost=1.0))
        assert cache.get(("a",), 0) is not None  # touch: "a" is now MRU
        cache.put(self.entry(("c",), plan_cost=1.0))  # evicts "b" (LRU)
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache

    def test_aged_costly_entry_outweighs_fresh_cheap_ones(self):
        cache = PlanCache(capacity=2)
        cache.put(self.entry(("costly",), plan_cost=5.0))
        cache.put(self.entry(("cheap-hot",), plan_cost=0.01))
        # Age the costly entry hard: 50 touches on the cheap one.
        for __ in range(50):
            assert cache.get(("cheap-hot",), 0) is not None
        cache.put(self.entry(("newcomer",), plan_cost=0.01))
        # costly: 5 / ~52 ticks ≈ 0.10 still beats either cheap entry's
        # 0.01 / 1 — recency discounts the cost, but fifty touches on a
        # hundredth of the cost do not overturn it.
        assert ("costly",) in cache
        assert cache.stats.evictions == 1

    def test_sustained_heat_eventually_overturns_cost(self):
        cache = PlanCache(capacity=2)
        cache.put(self.entry(("costly",), plan_cost=5.0))
        cache.put(self.entry(("cheap-hot",), plan_cost=0.01))
        # Enough age makes even a 500× cost gap lose: after ~1000 ticks the
        # costly entry scores 5/1000 < 0.01/1.
        for __ in range(1000):
            assert cache.get(("cheap-hot",), 0) is not None
        cache.put(self.entry(("newcomer",), plan_cost=0.01))
        assert ("costly",) not in cache
        assert ("cheap-hot",) in cache and ("newcomer",) in cache

    def test_planner_stamps_measured_plan_cost(self, db):
        db.query(SQL)
        entries = db.planner.cache.entries()
        assert len(entries) == 1
        assert entries[0].plan_cost > 0.0  # measured planning seconds
