"""``SELECT *`` lists its columns in FROM order, whatever join order wins.

The cheapest plan for the statement below joins ``small`` before ``big``
(its rank index is the better driver, and it is the smaller hash build
side), so the planner puts a projection on top that restores FROM order.
"""

import pytest

from repro import Database, DataType
from repro.optimizer.plans import ProjectPlan

SQL = (
    "SELECT * FROM big, small WHERE big.j = small.j AND small.b "
    "ORDER BY fx(big.x) + fy(small.y) LIMIT 5"
)
FROM_ORDER = ["big.id", "big.j", "big.x", "small.j", "small.y", "small.b"]


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.create_table(
        "big", [("id", DataType.INT), ("j", DataType.INT), ("x", DataType.FLOAT)]
    )
    db.create_table(
        "small", [("j", DataType.INT), ("y", DataType.FLOAT), ("b", DataType.BOOL)]
    )
    db.insert("big", [(i, i % 40, (i * 37 % 101) / 101) for i in range(400)])
    db.insert("small", [(j, (j * 13 % 41) / 41, j % 4 == 0) for j in range(40)])
    db.register_predicate("fx", ["big.x"], lambda v: v)
    db.register_predicate("fy", ["small.y"], lambda v: v)
    db.create_rank_index("big", "fx")
    db.create_rank_index("small", "fy")
    db.create_column_index("big", "j")
    db.create_column_index("small", "j")
    db.analyze()
    return db


def scans(plan):
    return [node.table for node in plan.walk() if not node.children]


@pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
def test_the_pick_joins_small_first(db, strategy):
    entry, __ = db.planner.prepare(SQL, strategy=strategy, execution="row")
    assert isinstance(entry.plan, ProjectPlan)
    assert scans(entry.plan.children[0]) == ["small", "big"]


@pytest.mark.parametrize("execution", ["row", "compiled", "auto"])
@pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
def test_columns_and_values_in_from_order(db, strategy, execution):
    big = {row[0]: row.values for row in db.catalog.table("big").rows()}
    small = {row[0]: row.values for row in db.catalog.table("small").rows()}
    result = db.query(SQL, strategy=strategy, execution=execution)
    assert result.schema.qualified_names() == FROM_ORDER
    assert len(result) == 5
    for values in result.rows:
        assert values == big[values[0]] + small[values[1]]
