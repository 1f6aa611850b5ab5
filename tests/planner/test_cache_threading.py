"""Multi-threaded stress for the shared plan cache.

Eight threads hammer one :class:`PlanCache` — and, separately, one real
:class:`Planner` — and every invariant the single-threaded accounting
gives must survive: no lost entries, no double evictions, consistent
hit/miss totals, capacity never exceeded.  The embedded surfaces
(``db.query``, cursors, sessions) sharing one parameterized template
across threads must each get the top-k of their own bindings, and no run
of a template may wait for another run (or open cursor) of it.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.engine.database import Database
from repro.planner.cache import CachedPlan, PlanCache
from repro.storage.schema import DataType

THREADS = 8


def entry_for(signature, generation: int = 0, cost: float = 0.0) -> CachedPlan:
    """A minimal synthetic entry (the cache never inspects the plan)."""
    return CachedPlan(
        signature=signature,
        spec=None,
        plan=None,
        strategy="rank-aware",
        evaluators=None,
        generation=generation,
        plan_cost=cost,
    )


class TestPlanCacheStress:
    def test_no_lost_entries_or_double_evictions(self):
        """THREADS threads × unique signatures: every put either survives
        or is counted as exactly one eviction."""
        cache = PlanCache(capacity=32)
        per_thread = 200

        def hammer(thread_id: int) -> None:
            for i in range(per_thread):
                signature = (thread_id, i)
                cache.put(entry_for(signature))
                cache.get(signature, 0)  # may hit or already be evicted

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        puts = THREADS * per_thread
        assert len(cache) <= 32
        # Conservation: every inserted entry is either resident or was
        # evicted exactly once (a double eviction would overcount, a lost
        # entry would undercount).
        assert cache.stats.evictions + len(cache) == puts
        # Every get was counted exactly once, as a hit or a miss.
        assert cache.stats.hits + cache.stats.misses == puts

    def test_concurrent_gets_count_every_lookup(self):
        cache = PlanCache(capacity=64)
        for i in range(16):
            cache.put(entry_for(("shared", i)))
        lookups_per_thread = 500

        def hammer() -> None:
            for i in range(lookups_per_thread):
                assert cache.get(("shared", i % 16), 0) is not None

        threads = [threading.Thread(target=hammer) for __ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats.hits == THREADS * lookups_per_thread
        assert len(cache) == 16

    def test_invalidation_races_never_corrupt(self):
        """get/put racing generation bumps: stale entries are dropped, the
        cache stays within capacity, and no operation raises."""
        cache = PlanCache(capacity=16)
        stop = threading.Event()

        def mutate() -> None:
            for generation in range(300):
                cache.put(entry_for(("g", generation % 24), generation % 3))
            stop.set()

        def probe() -> None:
            while not stop.is_set():
                for i in range(24):
                    cache.get(("g", i), 1)
                cache.entries()
                len(cache)

        def invalidate() -> None:
            while not stop.is_set():
                cache.invalidate()

        threads = (
            [threading.Thread(target=mutate)]
            + [threading.Thread(target=probe) for __ in range(THREADS - 2)]
            + [threading.Thread(target=invalidate)]
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 16


class TestGenerationOrdering:
    def test_stale_reader_cannot_evict_a_fresher_entry(self):
        """A get() with a generation read before a concurrent invalidation
        must miss without destroying the fresher entry."""
        cache = PlanCache(capacity=8)
        fresh = entry_for("sig", generation=6)
        cache.put(fresh)
        assert cache.get("sig", 5) is None  # stale reader: miss...
        assert cache.get("sig", 6) is fresh  # ...but the entry survives

    def test_stale_build_cannot_replace_a_fresher_entry(self):
        cache = PlanCache(capacity=8)
        fresh = entry_for("sig", generation=6)
        cache.put(fresh)
        cache.put(entry_for("sig", generation=5))  # stale-on-arrival build
        assert cache.get("sig", 6) is fresh

    def test_older_entries_are_still_dropped_eagerly(self):
        cache = PlanCache(capacity=8)
        cache.put(entry_for("sig", generation=3))
        assert cache.get("sig", 4) is None
        assert len(cache) == 0


class TestPlannerStress:
    def test_eight_threads_share_templates(self):
        """Eight threads × six templates against one real planner: results
        stay correct, the cache converges to one entry per template, and
        reuse dominates."""
        db = Database()
        db.create_table("h", [("name", DataType.TEXT), ("price", DataType.FLOAT)])
        db.insert("h", [(f"x{i}", float(i)) for i in range(60)])
        db.register_predicate("cheap", ["h.price"], lambda p: max(0.0, 1 - p / 60))
        db.create_rank_index("h", "cheap")
        db.analyze()

        templates = [
            f"SELECT * FROM h WHERE h.price <= {bound} "
            f"ORDER BY cheap(h.price) LIMIT 5"
            for bound in (10, 20, 30, 40, 50, 60)
        ]
        expected = [db.query(sql).rows for sql in templates]
        db.planner.cache.invalidate()  # measure the threaded phase alone
        stats = db.planner.cache.stats
        base_hits, base_misses = stats.hits, stats.misses

        errors: list[BaseException] = []

        def hammer() -> None:
            try:
                for __ in range(20):
                    for sql, want in zip(templates, expected):
                        assert db.query(sql).rows == want
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=hammer) for __ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        # One surviving entry per template; concurrent first-misses may
        # have built a few duplicates, but the put is last-wins by key.
        assert len(db.planner.cache) == len(templates)
        total = THREADS * 20 * len(templates)
        hits = stats.hits - base_hits
        misses = stats.misses - base_misses
        assert hits + misses == total
        # Reuse must dominate: at most one cold build per (thread, template)
        # even under the worst racing.
        assert misses <= THREADS * len(templates)
        assert hits / total > 0.9


# ----------------------------------------------------------------------
# one parameterized template shared across threads, embedded surfaces
# ----------------------------------------------------------------------
CAPPED_ROWS = 1000
CAPPED = "SELECT * FROM h WHERE h.price <= :cap ORDER BY dear(h.price) LIMIT 5"
CAPS = (0.2, 0.4, 0.6, 0.8)


@pytest.fixture()
def fast_switching():
    """Switch threads as often as the interpreter allows, so an unguarded
    bind → execute window is interleaved almost every time."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture()
def capped_db():
    """Prices ``i / 1000``; ranking prefers the dearest row, so each
    ``:cap`` binding has its own top-k — the five prices just below it."""
    db = Database()
    db.create_table("h", [("id", DataType.INT), ("price", DataType.FLOAT)])
    db.insert("h", [(i, i / CAPPED_ROWS) for i in range(CAPPED_ROWS)])
    db.register_predicate("dear", ["h.price"], lambda p: p)
    db.create_rank_index("h", "dear")
    db.analyze()
    return db


def run_concurrently(*targets) -> None:
    errors: list[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "a client thread hung"
    assert not errors, errors


class TestSharedTemplateAcrossThreads:
    def test_threads_querying_one_template_get_their_own_top_k(
        self, capped_db, fast_switching
    ):
        db = capped_db
        expected = {cap: db.query(CAPPED, params={"cap": cap}).rows for cap in CAPS}
        wrong: list[tuple] = []

        def client(cap: float) -> None:
            for __ in range(30):
                rows = db.query(CAPPED, params={"cap": cap}).rows
                if rows != expected[cap]:
                    wrong.append((cap, rows))

        run_concurrently(*(lambda cap=cap: client(cap) for cap in CAPS))
        assert not wrong, f"{len(wrong)} of 120 answers used another cap"

    def test_open_cursor_keeps_its_cap_beside_other_queries(
        self, capped_db, fast_switching
    ):
        db = capped_db
        stop = threading.Event()

        def rebind() -> None:
            while not stop.is_set():
                db.query(CAPPED, params={"cap": 0.9})

        prepared = db.prepare(CAPPED)
        thread = threading.Thread(target=rebind)
        thread.start()
        try:
            with prepared.cursor(params={"cap": 0.1}) as cursor:
                prices = [row[1] for row in cursor]
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive(), "the rebinding thread hung"
        above = [price for price in prices if price > 0.1]
        assert not above, f"{len(above)} rows above the cursor's cap"
        assert len(prices) == CAPPED_ROWS // 10 + 1

    def test_two_sessions_on_two_threads_get_their_own_top_k(
        self, capped_db, fast_switching
    ):
        db = capped_db
        caps = CAPS[:2]
        expected = {cap: db.query(CAPPED, params={"cap": cap}).rows for cap in caps}
        wrong: list[tuple] = []

        def client(cap: float) -> None:
            with db.session() as session:
                for __ in range(30):
                    rows = session.execute(CAPPED, params={"cap": cap}).rows
                    if rows != expected[cap]:
                        wrong.append((cap, rows))

        run_concurrently(*(lambda cap=cap: client(cap) for cap in caps))
        assert not wrong, f"{len(wrong)} of 60 answers used another cap"


# ----------------------------------------------------------------------
# a run of a template never waits for another run of it
# ----------------------------------------------------------------------
BLOCKED = "SELECT * FROM h WHERE h.price <= :cap ORDER BY slow(h.price) LIMIT 5"
#: how long a run of the template may take beside a blocked one
PATIENCE_S = 2.0


@pytest.fixture()
def gated_db():
    """The capped table, ranked by ``slow`` — a predicate without a rank
    index, so row execution evaluates it at run time — which blocks
    inside the run of whichever thread is set as ``gate.holder`` until
    ``gate.release`` is set."""
    gate = SimpleNamespace(
        holder=None, entered=threading.Event(), release=threading.Event()
    )

    def slow(price: float) -> float:
        if threading.current_thread() is gate.holder:
            gate.entered.set()
            gate.release.wait(30)
        return price

    db = Database(execution="row")
    db.create_table("h", [("id", DataType.INT), ("price", DataType.FLOAT)])
    db.insert("h", [(i, i / CAPPED_ROWS) for i in range(CAPPED_ROWS)])
    db.register_predicate("slow", ["h.price"], slow)
    db.analyze()
    db.gate = gate
    yield db
    gate.release.set()


def top_prices(cap: float) -> list[float]:
    """The five prices just below ``cap`` (the capped template's answer)."""
    top = [i / CAPPED_ROWS for i in range(CAPPED_ROWS) if i / CAPPED_ROWS <= cap]
    return sorted(top, reverse=True)[:5]


def blocked_thread(db, target) -> threading.Thread:
    """Start ``target`` on a thread that blocks inside the template's
    ranking predicate; returns once it is blocked there."""
    thread = threading.Thread(target=target)
    db.gate.holder = thread
    thread.start()
    assert db.gate.entered.wait(PATIENCE_S), "the gated run never started"
    return thread


def finishes(target) -> bool:
    """Whether ``target`` completes on another thread within the patience."""
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(PATIENCE_S)
    return not thread.is_alive()


class TestNoTemplateLock:
    def test_a_run_completes_beside_a_blocked_run_of_its_template(self, gated_db):
        db = gated_db
        db.query(BLOCKED, params={"cap": 0.5})  # plan the template unblocked
        answers: dict[float, list] = {}

        def run(cap: float) -> None:
            answers[cap] = [row[1] for row in db.query(BLOCKED, params={"cap": cap})]

        holder = blocked_thread(db, lambda: run(0.2))
        try:
            assert finishes(lambda: run(0.6)), (
                "a run of the template waited for another run of it"
            )
            assert answers[0.6] == top_prices(0.6)
        finally:
            db.gate.release.set()
            holder.join(60)
        assert not holder.is_alive()
        assert answers[0.2] == top_prices(0.2)

    def test_a_run_completes_beside_a_blocked_cursor_fetch(self, gated_db):
        db = gated_db
        prepared = db.prepare(BLOCKED, params={"cap": 0.5})
        fetched: list[float] = []

        def fetch() -> None:
            with prepared.cursor(params={"cap": 0.1}) as cursor:
                fetched.extend(row[1] for row in cursor.fetch_many(5))

        holder = blocked_thread(db, fetch)
        try:
            answer: list = []
            assert finishes(
                lambda: answer.extend(prepared.run(params={"cap": 0.9}).rows)
            ), "a run of the template waited for a cursor's fetch"
            assert [row[1] for row in answer] == top_prices(0.9)
        finally:
            db.gate.release.set()
            holder.join(60)
        assert not holder.is_alive()
        assert fetched == top_prices(0.1)

    def test_a_cursor_keeps_its_cap_across_another_threads_run(self, gated_db):
        db = gated_db
        prepared = db.prepare(BLOCKED, params={"cap": 0.5})
        with prepared.cursor(params={"cap": 0.1}) as cursor:
            first = cursor.fetch_next()
            answer: list = []
            assert finishes(
                lambda: answer.extend(prepared.run(params={"cap": 0.9}).rows)
            )
            rest = list(cursor)
        assert [row[1] for row in answer] == top_prices(0.9)
        prices = [first[1]] + [row[1] for row in rest]
        assert prices == sorted(
            (i / CAPPED_ROWS for i in range(CAPPED_ROWS) if i / CAPPED_ROWS <= 0.1),
            reverse=True,
        )
