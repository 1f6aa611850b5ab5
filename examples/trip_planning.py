"""Example 1 from the paper: Amy plans a trip to Chicago.

Three tables — Hotel, Restaurant, Museum — a Boolean selection (Italian
cuisine), a Boolean join (hotel + restaurant under $100), an equi-join
(restaurant and museum in the same area), and three ranking predicates:

    p1: cheap(h.price)                 — rank-selection on Hotel
    p2: close(h.addr, r.addr)          — rank-join over Hotel × Restaurant
    p3: related(m.collection, topic)   — rank-selection on Museum

The script runs the query through the rank-aware optimizer and through the
traditional materialize-then-sort baseline, verifies the answers match, and
compares the work both plans did.

Run:  python examples/trip_planning.py
"""

from __future__ import annotations

import random

from repro import Database, DataType

AREAS = 25
CUISINES = ["Italian", "Thai", "French", "Mexican", "Japanese"]
COLLECTIONS = ["dinosaur", "impressionism", "space", "egypt", "modern art"]


def build_city(db: Database, n: int, seed: int) -> None:
    rng = random.Random(seed)
    db.create_table(
        "Hotel",
        [("name", DataType.TEXT), ("price", DataType.FLOAT), ("addr", DataType.INT)],
    )
    db.create_table(
        "Restaurant",
        [
            ("name", DataType.TEXT),
            ("cuisine", DataType.TEXT),
            ("price", DataType.FLOAT),
            ("addr", DataType.INT),
            ("area", DataType.INT),
        ],
    )
    db.create_table(
        "Museum",
        [("name", DataType.TEXT), ("collection", DataType.TEXT), ("area", DataType.INT)],
    )
    db.insert(
        "Hotel",
        [
            (f"hotel-{i}", round(rng.uniform(50, 250), 2), rng.randrange(100))
            for i in range(n)
        ],
    )
    db.insert(
        "Restaurant",
        [
            (
                f"rest-{i}",
                rng.choice(CUISINES),
                round(rng.uniform(10, 80), 2),
                rng.randrange(100),
                rng.randrange(AREAS),
            )
            for i in range(n)
        ],
    )
    db.insert(
        "Museum",
        [
            (f"museum-{i}", rng.choice(COLLECTIONS), rng.randrange(AREAS))
            for i in range(n // 2)
        ],
    )


def register_predicates(db: Database) -> None:
    # p1: cheap hotels.  Cheap to evaluate (simple arithmetic).
    db.register_predicate(
        "cheap", ["Hotel.price"], lambda p: max(0.0, 1 - p / 250), cost=1.0
    )
    # p2: hotel near the restaurant — a rank-JOIN predicate spanning two
    # tables; modeled as address distance, moderately expensive
    # (imagine a geo lookup).
    db.register_predicate(
        "close",
        ["Hotel.addr", "Restaurant.addr"],
        lambda a, b: max(0.0, 1 - abs(a - b) / 100),
        cost=5.0,
    )
    # p3: museum relevance to Amy's interests — an IR-style predicate,
    # the most expensive of the three.
    db.register_predicate(
        "related",
        ["Museum.collection"],
        lambda c: 1.0 if c == "dinosaur" else (0.4 if c == "space" else 0.1),
        cost=10.0,
    )
    db.create_rank_index("Hotel", "cheap")
    db.create_rank_index("Museum", "related")
    db.create_column_index("Restaurant", "area")
    db.create_column_index("Museum", "area")
    db.analyze()


def main() -> None:
    db = Database()
    build_city(db, n=400, seed=11)
    register_predicates(db)

    sql = """
        SELECT * FROM Hotel h, Restaurant r, Museum m
        WHERE r.cuisine = 'Italian'
          AND h.price + r.price < 100
          AND r.area = m.area
        ORDER BY cheap(h.price) + close(h.addr, r.addr) + related(m.collection)
        LIMIT 5
    """

    ranked = db.query(sql)
    print("Rank-aware plan:")
    print(ranked.explain())
    print()

    spec = db.bind(sql)
    traditional_plan = db.plan_traditional(sql)
    traditional = db.execute(traditional_plan, spec.scoring, k=spec.k)
    print("Traditional (materialize-then-sort) plan:")
    print(traditional.explain())
    print()

    assert [round(s, 9) for s in ranked.scores] == [
        round(s, 9) for s in traditional.scores
    ], "the two plans must agree on the top-k"

    print("Top trips (hotel, restaurant, museum):")
    for record in ranked.to_dicts():
        print(
            f"  {record['Hotel.name']:<10} + {record['Restaurant.name']:<9} "
            f"+ {record['Museum.name']:<11} score={record['score']:.3f}"
        )
    print()

    for label, result in (("rank-aware", ranked), ("traditional", traditional)):
        m = result.metrics
        print(
            f"{label:>12}: scanned={m.tuples_scanned:>7} "
            f"pred-evals={m.predicate_evaluations:>7} "
            f"pred-cost={m.predicate_cost_units:>9.0f} "
            f"total={m.simulated_cost:>10.0f} units"
        )
    speedup = traditional.metrics.simulated_cost / max(ranked.metrics.simulated_cost, 1)
    print(f"\nRank-aware plan does ~{speedup:.0f}x less work for the top-5.")


if __name__ == "__main__":
    main()
