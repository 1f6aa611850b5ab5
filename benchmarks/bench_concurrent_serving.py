"""Concurrent serving: aggregate throughput and latency by session count.

Closed-loop multi-user serving: N client sessions each issue a statement,
wait ``THINK_SECONDS`` (a user reading results), and issue the next — the
classic closed-loop model (cf. TPC keying/think times).  Executions are
GIL-bound Python, so the worker pool's win is *overlap*: while one
session's statement executes, the other sessions' think times and socket
waits cost nothing.  Aggregate throughput should therefore scale with the
session count until execution demand saturates one core — the shape a
serving engine must show before sharding/async work can build on it.

Measured per (session count, cache state):

* **cold**  — plan cache invalidated at start: the first execution of each
  template pays enumeration, everyone else reuses it (shared cache);
* **warm**  — a priming session pre-plans every template: all sessions hit
  from their first statement.

Acceptance gate: warm aggregate throughput at 4 sessions ≥
``SERVING_MIN_SPEEDUP`` (default 2.0) × the 1-session baseline, and the
shared-cache hit rate across a warm 16-session run ≥ 0.9.

Run:  pytest benchmarks/bench_concurrent_serving.py -q -s --benchmark-disable
"""

from __future__ import annotations

import os
import statistics
import threading
import time

from repro.engine.database import Database
from repro.storage.schema import DataType

from .conftest import record_result

SESSION_COUNTS = (1, 4, 16)
STATEMENTS_PER_SESSION = 24
THINK_SECONDS = 0.010
WORKER_THREADS = 8

MIN_SPEEDUP = float(os.environ.get("SERVING_MIN_SPEEDUP", "2.0"))
MIN_WARM_HIT_RATE = 0.9

#: the served statement mix: rank scan, weighted scan, equi-join, bound
#: template (two bindings) — repeated-traffic shapes, all top-k
TEMPLATES = [
    ("SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 5", None),
    (
        "SELECT * FROM hotel ORDER BY cheap(hotel.price) + starry(hotel.stars) "
        "LIMIT 5",
        None,
    ),
    (
        "SELECT * FROM hotel, restaurant WHERE hotel.area = restaurant.area "
        "ORDER BY cheap(hotel.price) + tasty(restaurant.price) LIMIT 3",
        None,
    ),
    (
        "SELECT * FROM hotel WHERE hotel.price <= :cap "
        "ORDER BY cheap(hotel.price) LIMIT 5",
        {"cap": 150.0},
    ),
    (
        "SELECT * FROM hotel WHERE hotel.price <= :cap "
        "ORDER BY cheap(hotel.price) LIMIT 5",
        {"cap": 280.0},
    ),
]


def build_serving_db(rows: int = 150) -> Database:
    db = Database()
    db.create_table(
        "hotel",
        [
            ("name", DataType.TEXT),
            ("price", DataType.FLOAT),
            ("stars", DataType.INT),
            ("area", DataType.INT),
        ],
    )
    db.create_table(
        "restaurant",
        [("name", DataType.TEXT), ("price", DataType.FLOAT), ("area", DataType.INT)],
    )
    db.insert(
        "hotel",
        [
            (f"hotel-{i}", 40.0 + (i * 7919) % 360, 1 + i % 5, i % 10)
            for i in range(rows)
        ],
    )
    db.insert(
        "restaurant",
        [(f"rest-{i}", 10.0 + (i * 104729) % 80, i % 10) for i in range(rows)],
    )
    db.register_predicate("cheap", ["hotel.price"], lambda p: max(0.0, 1 - p / 400))
    db.register_predicate("starry", ["hotel.stars"], lambda s: s / 5)
    db.register_predicate("tasty", ["restaurant.price"], lambda p: max(0.0, 1 - p / 90))
    db.create_rank_index("hotel", "cheap")
    db.create_rank_index("restaurant", "tasty")
    db.create_column_index("hotel", "area")
    db.create_column_index("restaurant", "area")
    db.analyze()
    return db


def drive_sessions(server, sessions: int) -> dict:
    """Run the closed loop; returns wall/throughput/latency/hit-rate."""
    latencies: list[float] = []
    lock = threading.Lock()
    errors: list[BaseException] = []
    clients = [server.session() for __ in range(sessions)]

    def loop(client) -> None:
        mine: list[float] = []
        try:
            for i in range(STATEMENTS_PER_SESSION):
                sql, params = TEMPLATES[i % len(TEMPLATES)]
                start = time.perf_counter()
                client.execute(sql, params=params)
                mine.append(time.perf_counter() - start)
                time.sleep(THINK_SECONDS)
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    assert not errors, errors[0]

    summaries = [c.summary() for c in clients]
    hits = sum(s["plan_cache_hits"] for s in summaries)
    misses = sum(s["plan_cache_misses"] for s in summaries)
    for client in clients:
        client.close()
    total = sessions * STATEMENTS_PER_SESSION
    latencies.sort()
    return {
        "sessions": sessions,
        "statements": total,
        "wall_seconds": wall,
        "throughput_qps": total / wall,
        "mean_latency_ms": statistics.fmean(latencies) * 1e3,
        "p95_latency_ms": latencies[int(len(latencies) * 0.95) - 1] * 1e3,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def measure(db: Database, sessions: int, warm: bool) -> dict:
    db.planner.invalidate()  # every case starts from the same cold planner
    with db.serve(workers=WORKER_THREADS) as server:
        if warm:
            with server.session() as primer:
                for sql, params in TEMPLATES:
                    primer.execute(sql, params=params)
        stats = drive_sessions(server, sessions)
    stats["cache"] = "warm" if warm else "cold"
    return stats


def test_concurrent_serving_throughput():
    db = build_serving_db()
    results: dict[tuple[int, str], dict] = {}
    for warm in (False, True):
        for sessions in SESSION_COUNTS:
            stats = measure(db, sessions, warm)
            results[(sessions, stats["cache"])] = stats
            record_result(
                name=f"concurrent_serving[{sessions}sessions:{stats['cache']}]",
                **stats,
            )
            print(
                f"  {sessions:>2} sessions ({stats['cache']:4}): "
                f"{stats['throughput_qps']:7.1f} q/s, "
                f"mean {stats['mean_latency_ms']:5.1f} ms, "
                f"p95 {stats['p95_latency_ms']:5.1f} ms, "
                f"hit rate {stats['hit_rate']:.2f}"
            )

    # The serving gates: concurrency scales aggregate throughput, and the
    # shared cache serves repeated templates from every session.
    speedup = (
        results[(4, "warm")]["throughput_qps"]
        / results[(1, "warm")]["throughput_qps"]
    )
    print(f"  4-session warm speedup: {speedup:.2f}x (gate {MIN_SPEEDUP}x)")
    record_result(
        name="concurrent_serving[speedup]",
        speedup_4_sessions=speedup,
        gate=MIN_SPEEDUP,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"aggregate throughput at 4 sessions only {speedup:.2f}x the "
        f"1-session baseline (need {MIN_SPEEDUP}x)"
    )
    assert results[(16, "warm")]["hit_rate"] >= MIN_WARM_HIT_RATE
    db.close()
