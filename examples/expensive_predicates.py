"""Expensive ranking predicates: the paper's Web-database motivation.

§2.1 motivates predicates that are costly to evaluate — live price lookups,
geographic distance services, IR relevance functions.  The rank-aware
algebra evaluates such predicates *only when they can affect the result
order*, instead of on every materialized row.

This example models a product search where one predicate is a cheap local
attribute and the other simulates an expensive remote call (cost 200 units
vs 1), and shows how the evaluation counts — and therefore the total cost —
diverge between the traditional plan and the rank-aware plan as k shrinks.

Run:  python examples/expensive_predicates.py
"""

from __future__ import annotations

import random

from repro import Database, DataType


def build(db: Database, n: int, seed: int) -> None:
    rng = random.Random(seed)
    db.create_table(
        "product",
        [
            ("sku", DataType.TEXT),
            ("list_price", DataType.FLOAT),
            ("popularity", DataType.FLOAT),
        ],
    )
    db.insert(
        "product",
        [
            (f"sku-{i}", round(rng.uniform(5, 500), 2), rng.random())
            for i in range(n)
        ],
    )
    # Cheap local predicate with a rank index: read in popularity order.
    db.register_predicate("popular", ["product.popularity"], lambda p: p, cost=1.0)
    db.create_rank_index("product", "popular")
    # Expensive "remote" predicate: imagine fetching the live discounted
    # price from a partner API — 200 cost units per call.
    db.register_predicate(
        "discounted",
        ["product.list_price"],
        lambda price: max(0.0, 1 - price / 500),
        cost=200.0,
    )
    db.analyze()


def main() -> None:
    db = Database()
    build(db, n=5000, seed=23)

    print(f"{'k':>6} {'plan':>12} {'remote calls':>13} {'total cost':>12}")
    for k in (1, 10, 100):
        sql = (
            "SELECT * FROM product "
            "ORDER BY popular(product.popularity) + discounted(product.list_price) "
            f"LIMIT {k}"
        )
        ranked = db.query(sql)
        spec = db.bind(sql)
        traditional = db.execute(
            db.plan_traditional(sql),
            spec.scoring,
            k=spec.k,
        )
        assert [round(s, 9) for s in ranked.scores] == [
            round(s, 9) for s in traditional.scores
        ]
        for label, result in (("rank-aware", ranked), ("traditional", traditional)):
            print(
                f"{k:>6} {label:>12} {result.metrics.predicate_evaluations:>13} "
                f"{result.metrics.simulated_cost:>12.0f}"
            )

    print()
    print("The traditional plan calls the expensive predicate once per row")
    print("(5000 calls) regardless of k; the rank-aware plan calls it only")
    print("for rows whose popularity bound kept them in contention.")


if __name__ == "__main__":
    main()
