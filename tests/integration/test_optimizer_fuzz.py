"""Randomized end-to-end fuzzing of the whole pipeline.

For a sweep of randomly generated schemas, data, index sets and queries
(1–3 tables, 2–4 ranking predicates, optional selections), the optimizer's
chosen plan must return exactly the brute-force top-k.  This is the
highest-level consistency check in the suite: any unsoundness in the
algebra, the operators' bounds, the enumerator or the estimator shows up
here as a wrong answer.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import JoinCondition, QuerySpec, RankAwareOptimizer
from repro.storage import Catalog, ColumnIndex, DataType, RankIndex, Schema


def build_random_case(seed: int):
    rng = random.Random(seed)
    catalog = Catalog()
    n_tables = rng.randint(1, 3)
    table_names = ["T0", "T1", "T2"][:n_tables]
    n_rows = rng.randint(20, 120)
    distinct = rng.randint(3, 12)
    predicates: list[RankingPredicate] = []
    selections: list[BooleanPredicate] = []

    for t_index, name in enumerate(table_names):
        table = catalog.create_table(
            name, Schema.of(("j", DataType.INT), ("x", DataType.FLOAT), ("y", DataType.FLOAT))
        )
        for __ in range(n_rows):
            table.insert(
                [rng.randrange(distinct), round(rng.random(), 4), round(rng.random(), 4)]
            )
        # one or two predicates per table
        for column in ("x", "y")[: rng.randint(1, 2)]:
            predicate = RankingPredicate(
                f"p_{name}_{column}",
                [f"{name}.{column}"],
                lambda v: v,
                cost=rng.choice([0.5, 1.0, 5.0]),
            )
            predicates.append(predicate)
            catalog.register_predicate(predicate)
            if rng.random() < 0.6:
                table.attach_index(
                    RankIndex(
                        f"{name}_{predicate.name}",
                        table.schema,
                        predicate.name,
                        predicate.compile(table.schema),
                    )
                )
        if rng.random() < 0.5:
            table.attach_index(ColumnIndex(f"{name}_j", table.schema, f"{name}.j"))
        if rng.random() < 0.4:
            threshold = rng.choice([0.2, 0.5])
            selections.append(
                BooleanPredicate(
                    col(f"{name}.x") > threshold, f"{name}.x>{threshold}"
                )
            )

    join_conditions = [
        JoinCondition.from_predicate(
            BooleanPredicate(
                col(f"{a}.j").eq(col(f"{b}.j")), f"{a}.j={b}.j"
            )
        )
        for a, b in zip(table_names, table_names[1:])
    ]
    n_scoring = rng.randint(min(2, len(predicates)), len(predicates))
    scoring = ScoringFunction(predicates[:n_scoring])
    k = rng.choice([1, 3, 10])
    spec = QuerySpec(
        tables=table_names,
        scoring=scoring,
        k=k,
        selections=[s for s in selections if _mentions(s, table_names)],
        join_conditions=join_conditions,
    )
    return catalog, scoring, spec


def _mentions(selection: BooleanPredicate, tables: list[str]) -> bool:
    return selection.tables() <= set(tables)


def brute_force(catalog, scoring, spec):
    tables = [catalog.table(name) for name in spec.tables]
    selection_fns = []
    for table in tables:
        fns = [
            c.compile(table.schema)
            for c in spec.selections
            if c.tables() == {table.name}
        ]
        selection_fns.append(fns)
    filtered = [
        [r for r in table.rows() if all(fn(r) for fn in fns)]
        for table, fns in zip(tables, selection_fns)
    ]
    combined_schema = tables[0].schema
    for table in tables[1:]:
        combined_schema = combined_schema.concat(table.schema)
    join_fns = [j.predicate.compile(combined_schema) for j in spec.join_conditions]
    predicate_fns = {
        p.name: p.compile(combined_schema) for p in scoring.predicates
    }
    scores = []
    for combo in itertools.product(*filtered):
        row = combo[0]
        for other in combo[1:]:
            row = row.concat(other)
        if not all(fn(row) for fn in join_fns):
            continue
        values = {name: fn(row) for name, fn in predicate_fns.items()}
        scores.append(scoring.final_score(values))
    scores.sort(reverse=True)
    return [round(v, 9) for v in scores[: spec.k]]


@pytest.mark.parametrize("seed", range(12))
def test_optimizer_fuzz(seed):
    catalog, scoring, spec = build_random_case(seed)
    expected = brute_force(catalog, scoring, spec)
    for kwargs in (
        {},
        {"left_deep": True, "greedy_mu": True},
        {"enumerate_selections": True},
    ):
        optimizer = RankAwareOptimizer(
            catalog, spec, **kwargs
        )
        plan = optimizer.optimize()
        context = ExecutionContext(catalog, scoring)
        out = run_plan(plan.build(), context, k=spec.k)
        got = [round(context.upper_bound(s), 9) for s in out]
        assert got == expected, (
            f"seed={seed} kwargs={kwargs}\nplan:\n{plan.explain()}"
        )
