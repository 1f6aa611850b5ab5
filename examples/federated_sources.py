"""Rank-aware set operations: merging ranked results from two sources.

The extended algebra makes ∪, ∩ and − rank-aware and *incremental* (§4.2):
with ranked inputs, the operators can emit early instead of exhausting both
sides to rule out duplicates.

Scenario: two union-compatible catalogues of the same product space (two
regional warehouses).  We ask three questions through hand-built logical
plans, each node implemented by its cheapest physical operator:

* top products available in *either* warehouse        (union),
* top products available in *both*                    (intersection),
* top products exclusive to warehouse 1               (difference).

Run:  python examples/federated_sources.py
"""

from __future__ import annotations

import random

from repro import Database, DataType
from repro.algebra import ScoringFunction
from repro.algebra.operators import (
    LogicalDifference,
    LogicalIntersect,
    LogicalLimit,
    LogicalRank,
    LogicalScan,
    LogicalUnion,
)
from repro.optimizer import QuerySpec


def build() -> tuple[Database, ScoringFunction]:
    rng = random.Random(29)
    db = Database()
    for name in ("warehouse1", "warehouse2"):
        db.create_table(
            name, [("product", DataType.TEXT), ("margin", DataType.FLOAT)]
        )
    products = [(f"product-{i}", round(rng.random(), 3)) for i in range(80)]
    db.insert("warehouse1", products[:55])
    db.insert("warehouse2", products[35:])
    # Predicates on the *bare* column so they evaluate on either operand.
    profit = db.register_predicate("profit", ["margin"], lambda m: m, cost=1.0)
    velocity = db.register_predicate(
        "velocity", ["margin"], lambda m: 1 - m / 2, cost=1.0
    )
    db.analyze()
    return db, ScoringFunction([profit, velocity])


def ranked_inputs(db: Database):
    w1 = LogicalRank(
        LogicalScan("warehouse1", db.catalog.table("warehouse1").schema), "profit"
    )
    w2 = LogicalRank(
        LogicalScan("warehouse2", db.catalog.table("warehouse2").schema), "velocity"
    )
    return w1, w2


def main() -> None:
    db, scoring = build()
    spec = QuerySpec(tables=["warehouse1"], scoring=scoring, k=5)
    w1, w2 = ranked_inputs(db)

    questions = [
        ("available anywhere (∪)", LogicalUnion(w1, w2)),
        ("available in both (∩)", LogicalIntersect(w1, w2)),
        ("exclusive to warehouse 1 (−)", LogicalDifference(w1, w2)),
    ]
    for title, set_plan in questions:
        plan = LogicalLimit(set_plan, 5)
        result = db.query_logical(plan, spec)
        print(f"Top 5 {title}:")
        for row, score in zip(result.rows, result.scores):
            print(f"  {row[0]:<12} score={score:.3f}")
        m = result.metrics
        print(
            f"  (scanned {m.tuples_scanned} tuples, "
            f"{m.predicate_evaluations} predicate evaluations)\n"
        )


if __name__ == "__main__":
    main()
