"""Quickstart: a top-k query over one table in a few lines.

Creates a hotel table, registers a ranking predicate (a user-defined
scoring function), builds a rank index so the engine can use a rank-scan,
runs a top-k SQL query through the rank-aware optimizer, and then prepares
a parameterized statement (bind variables) so one cached plan serves many
constants.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import Database, DataType


def main() -> None:
    rng = random.Random(7)
    db = Database()

    db.create_table(
        "hotel",
        [("name", DataType.TEXT), ("price", DataType.FLOAT), ("stars", DataType.INT)],
    )
    db.insert(
        "hotel",
        [
            (f"hotel-{i}", round(rng.uniform(40, 400), 2), rng.randrange(1, 6))
            for i in range(1000)
        ],
    )

    # Ranking predicates: normalized scores in [0, 1], each with a cost.
    db.register_predicate("cheap", ["hotel.price"], lambda p: max(0.0, 1 - p / 400))
    db.register_predicate("starry", ["hotel.stars"], lambda s: s / 5)

    # A rank index lets the optimizer read hotels in "cheap" order without
    # evaluating the predicate at query time (the paper's rank-scan).
    db.create_rank_index("hotel", "cheap")
    db.analyze()

    sql = """
        SELECT * FROM hotel
        WHERE hotel.stars >= 3
        ORDER BY cheap(hotel.price) + starry(hotel.stars)
        LIMIT 5
    """
    result = db.query(sql)

    print("Chosen plan:")
    print(result.explain())
    print()
    print(f"{'name':<12} {'price':>8} {'stars':>5} {'score':>7}")
    for record in result.to_dicts():
        print(
            f"{record['hotel.name']:<12} {record['hotel.price']:>8.2f} "
            f"{record['hotel.stars']:>5} {record['score']:>7.3f}"
        )
    print()
    print(
        f"Work done: {result.metrics.tuples_scanned} tuples scanned, "
        f"{result.metrics.predicate_evaluations} predicate evaluations "
        f"(simulated cost {result.metrics.simulated_cost:.1f} units)"
    )

    # -- prepared statements with bind variables -----------------------
    # `:max_price` / `:min_stars` are placeholders: the statement is
    # planned once (on the first run), and every later binding reuses the
    # cached template plan — only execution is paid.
    finder = db.prepare(
        """
        SELECT * FROM hotel
        WHERE hotel.price <= :max_price AND hotel.stars >= :min_stars
        ORDER BY cheap(hotel.price) + starry(hotel.stars)
        LIMIT 3
        """,
    )
    print()
    print("Prepared template, three bindings:")
    for max_price, min_stars in [(150.0, 3), (43.0, 1), (400.0, 5)]:
        top = finder.run(params={"max_price": max_price, "min_stars": min_stars})
        names = ", ".join(record["hotel.name"] for record in top.to_dicts())
        print(
            f"  price<={max_price:>5.0f}, stars>={min_stars}: {names} "
            f"(plan_cached={top.plan_cached})"
        )
    built = db.planner.metrics.plans_built
    print(f"Plans built for 3 bindings: {built} (template reuse)")
    assert built == 2, "expected one plan per template (ad-hoc + prepared)"


if __name__ == "__main__":
    main()
