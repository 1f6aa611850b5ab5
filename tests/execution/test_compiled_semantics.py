"""Case-by-case semantics of the compiled regime against row mode.

:mod:`repro.execution.codegen` emits Python source that must reproduce the
interpreted expression closures and ranking predicates exactly — NULL
propagation in arithmetic, NULL-to-False comparison collapse, strict-bool
short-circuit ``and`` / ``or`` / ``not``, exact (never float-coerced)
integer comparison, text compared as text, the score clamp chain and the
``(-F, rid)`` top-k order — and charge the same work.  The end-to-end
parity sweeps in ``test_codegen.py`` and ``test_physical_vs_reference.py``
run a handful of query shapes; this module walks the emitter's surface one
construct at a time on a table that holds NULLs in every nullable column,
repeated scores (rid tie order), numeric-looking strings and integers
beyond 2**53.

Every case is planned with the traditional (materialize-then-sort)
strategy in two engines over identical data — ``execution="row"`` (the
oracle) and ``execution="compiled"`` — and must return the same rows,
scores and rid order and do the same work; each case also asserts the
compiled engine really ran a fused function, so no case passes by silently
falling back to the row plan.  The three ``LIMIT`` forms drive the three
sort epilogues: a top-k smaller than the input (``nsmallest``), a limit
the filtered input may not reach, and no limit at all (full ordering).
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.expressions import col
from repro.engine.database import Database
from repro.execution import codegen
from repro.storage import DataType

from tests.conftest import assert_same_work

#: just above 2**53: the first integer a float cannot represent
BIG = 2**53 + 1


def build_db(execution: str) -> Database:
    """``T`` (80 rows) and ``U`` (50 rows) with NULLs, ties and awkward
    values; ranking predicates of every scorer kind the emitter handles."""
    db = Database(execution=execution)
    db.create_table(
        "T",
        [
            ("id", DataType.INT),
            ("a", DataType.INT),
            ("g", DataType.INT),
            ("x", DataType.FLOAT),
            ("s", DataType.TEXT),
            ("big", DataType.INT),
        ],
    )
    db.create_table(
        "U", [("g", DataType.INT), ("y", DataType.FLOAT), ("t", DataType.TEXT)]
    )
    rng = random.Random(11)

    def maybe(value):
        return None if rng.random() < 0.15 else value

    db.insert(
        "T",
        [
            (
                i,
                maybe(rng.randrange(8)),
                maybe(rng.randrange(6)),
                # few distinct values, so many rows tie on their score
                maybe(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, round(rng.random(), 3)])),
                maybe(rng.choice(["a", "b", "9", "10", "1", "z"])),
                BIG - 1 + rng.randrange(3),
            )
            for i in range(80)
        ],
    )
    db.insert(
        "U",
        [
            (
                maybe(rng.randrange(6)),
                maybe(round(rng.random(), 3)),
                maybe(rng.choice(["a", "b"])),
            )
            for __ in range(50)
        ],
    )
    # Expression scorer; NULL x scores None, which clamps to 0.
    db.register_predicate("px", ["T.x"], col("T.x") * 0.5 + 0.25)
    # Callable scorer that passes NULL through.
    db.register_predicate("pa", ["T.a"], lambda a: None if a is None else a / 8)
    # Expression scorer spanning [-1, 2]: both clamp bounds are hit.
    db.register_predicate("pclamp", ["T.x"], col("T.x") * 3 - 1)
    # Callable returning ints (0 or 1): the clamp chain's float() branch.
    db.register_predicate(
        "pint", ["T.a"], lambda a: None if a is None else a % 2
    )
    # Callable over a text column.
    db.register_predicate(
        "ptext", ["T.s"], lambda s: None if s is None else len(s) / 2
    )
    # Non-unit cost and a p_max above 1.
    db.register_predicate("pcost", ["T.x"], col("T.x") * 2, cost=4.0, p_max=2.0)
    # The calibrated busy loop runs per evaluation in both regimes.
    db.register_predicate(
        "pspin",
        ["T.x"],
        lambda x: 0.0 if x is None else x,
        spin_loops=20,
    )
    db.register_predicate(
        "py", ["U.y"], lambda y: None if y is None else 1.0 - y
    )
    db.analyze()
    return db


@pytest.fixture(scope="module")
def engines():
    """One row-mode and one compiled engine over identical data; the cases
    only read, so the module shares them."""
    return {mode: build_db(mode) for mode in ("row", "compiled")}


def observe(db, sql, params=None):
    """Prepare (traditional strategy) and fully drain ``sql``: the entry,
    the observable sequence and the metric totals."""
    entry, __ = db.planner.prepare(sql, strategy="traditional", params=params)
    result = db.execute(
        entry.executable, entry.scoring, k=entry.k, evaluators=entry.evaluators
    )
    rows = [
        (tuple(sr.row.values), sr.row.rid, dict(sr.scores))
        for sr in result.scored_rows
    ]
    return entry, rows, result.metrics.summary()


def assert_compiled_matches_row(engines, sql, params=None):
    """``sql`` compiles, and the compiled engine returns the row engine's
    rows, scores and rid order with the same work.  Returns the rows."""
    __, want_rows, want_work = observe(engines["row"], sql, params)
    entry, got_rows, got_work = observe(engines["compiled"], sql, params)
    assert codegen.compiled_segment_count(entry.executable) == 1, sql
    assert got_rows == want_rows, sql
    assert_same_work(got_work, want_work)
    return got_rows


LIMITS = {"top1": " LIMIT 1", "top6": " LIMIT 6", "all": ""}


# ----------------------------------------------------------------------
# filter expressions
# ----------------------------------------------------------------------

CONDITIONS = {
    "gt": "T.x > 0.5",
    "ge_on_tied_value": "T.x >= 0.5",
    "lt": "T.x < 0.25",
    "le": "T.x <= 0.25",
    "eq_int": "T.a = 3",
    "ne_bang": "T.a != 3",
    "ne_angle": "T.a <> 3",
    "literal_on_left": "1 < T.a",
    "float_literal_eq": "0.5 = T.x",
    "and": "T.x > 0.2 AND T.a < 5",
    "or": "T.x > 0.8 OR T.a = 1",
    "and_or_nested": "(T.x > 0.5 OR T.a = 2) AND (T.g < 3 OR T.s = 'a')",
    "three_way_and": "T.x > 0.1 AND T.a > 1 AND T.g > 1",
    "not": "NOT T.x > 0.5",
    "not_and": "NOT (T.x > 0.5 AND T.a = 2)",
    "not_or": "NOT (T.a = 1 OR T.g = 2)",
    "in": "T.a IN (1, 2, 3)",
    "not_in": "T.a NOT IN (1, 2, 3)",
    "between": "T.x BETWEEN 0.2 AND 0.6",
    "not_between": "T.x NOT BETWEEN 0.2 AND 0.6",
    "add": "T.a + 1 > 3",
    "mul_sub": "T.a * 2 - 1 <= 5",
    "mod": "T.a % 3 = 0",
    "div": "T.x / 2 > 0.2",
    "two_nullable_columns": "T.a - T.g > 0",
    "column_eq_column": "T.a = T.g",
    "mixed_int_float": "T.x + T.a > 2",
    "nested_arithmetic": "T.x * (T.a + T.g) > 1",
    "self_comparison": "T.x >= T.x",
    "text_eq": "T.s = 'b'",
    "numeric_strings_stay_text": "T.s < '5'",
    "text_in": "T.s IN ('1', '10', 'b')",
    "text_or_int": "NOT (T.a IN (1, 2)) OR T.s = 'a'",
    "big_int_gt": f"T.big > {BIG}",
    "big_int_eq": f"T.big = {BIG}",
    "empty": "T.x > 0.5 AND T.x < 0.5",
}


@pytest.mark.parametrize("limit", sorted(LIMITS))
@pytest.mark.parametrize("condition", sorted(CONDITIONS))
def test_filter_expression_matches_row(engines, condition, limit):
    sql = (
        f"SELECT * FROM T WHERE {CONDITIONS[condition]} "
        f"ORDER BY px(T.x) + pa(T.a){LIMITS[limit]}"
    )
    assert_compiled_matches_row(engines, sql)


def test_filter_cases_are_not_vacuous(engines):
    """The catalogue exercises both outcomes: most conditions keep some
    rows and drop others, and the empty case keeps none."""
    kept = {
        name: len(
            assert_compiled_matches_row(
                engines, f"SELECT * FROM T WHERE {text} ORDER BY px(T.x)"
            )
        )
        for name, text in CONDITIONS.items()
    }
    assert kept["empty"] == 0
    partial = [name for name, n in kept.items() if 0 < n < 80]
    assert len(partial) >= len(CONDITIONS) - 3
    # A float literal would round to 2**53 and admit every BIG - 1 row too.
    assert 0 < kept["big_int_eq"] < 40


# ----------------------------------------------------------------------
# ranking predicates and combiners
# ----------------------------------------------------------------------

ORDERINGS = {
    "expression_scorer": "px(T.x)",
    "callable_null_passthrough": "pa(T.a)",
    "clamped_both_ends": "pclamp(T.x)",
    "int_scores": "pint(T.a)",
    "text_argument": "ptext(T.s)",
    "cost_and_p_max": "pcost(T.x)",
    "spin_loops": "pspin(T.x)",
    "sum": "px(T.x) + pa(T.a) + pint(T.a)",
    "weighted_sum": "0.3 * px(T.x) + 0.7 * pa(T.a)",
    "product": "px(T.x) * pa(T.a)",
    "expression_predicate": "(1 - T.x) / 2",
    "expression_over_two_columns": "T.x + T.a",
}


@pytest.mark.parametrize("limit", ["top6", "all"])
@pytest.mark.parametrize("ordering", sorted(ORDERINGS))
def test_scoring_matches_row(engines, ordering, limit):
    sql = (
        f"SELECT * FROM T WHERE T.id >= 0 "
        f"ORDER BY {ORDERINGS[ordering]}{LIMITS[limit]}"
    )
    assert_compiled_matches_row(engines, sql)


def test_clamp_bounds_are_reached(engines):
    """``pclamp`` really leaves [0, 1] before clamping, so the clamp
    branches the scoring cases compare are taken."""
    rows = assert_compiled_matches_row(
        engines, "SELECT * FROM T ORDER BY pclamp(T.x)"
    )
    scores = [scores["pclamp"] for __, __, scores in rows]
    assert scores[0] == 1.0 and scores[-1] == 0.0
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_ties_follow_rid_order(engines):
    """Equal scores emit in rid order in both regimes."""
    rows = assert_compiled_matches_row(engines, "SELECT * FROM T ORDER BY pint(T.a)")
    by_score: dict = {}
    for __, rid, scores in rows:
        by_score.setdefault(scores["pint"], []).append(rid)
    assert set(by_score) == {0.0, 1.0}
    for rids in by_score.values():
        assert rids == sorted(rids)


# ----------------------------------------------------------------------
# hash-join pipelines
# ----------------------------------------------------------------------

JOINS = {
    # U.g and T.g both hold NULLs: a NULL key never matches
    "equi": "SELECT * FROM T, U WHERE T.g = U.g",
    "filtered_probe": "SELECT * FROM T, U WHERE T.g = U.g AND T.x > 0.3",
    "filtered_both_sides": (
        "SELECT * FROM T, U WHERE T.g = U.g AND T.x > 0.3 AND U.t = 'a'"
    ),
    "cross_table_residual": "SELECT * FROM T, U WHERE T.g = U.g AND T.x > U.y",
    "projection": (
        "SELECT T.id, U.y FROM T, U WHERE T.g = U.g AND T.a < 6"
    ),
}


@pytest.mark.parametrize("limit", ["top6", "all"])
@pytest.mark.parametrize("join", sorted(JOINS))
def test_hash_join_pipeline_matches_row(engines, join, limit):
    sql = f"{JOINS[join]} ORDER BY px(T.x) + py(U.y){LIMITS[limit]}"
    assert_compiled_matches_row(engines, sql)


# ----------------------------------------------------------------------
# parameter slots
# ----------------------------------------------------------------------

TEMPLATE = (
    "SELECT * FROM T WHERE T.x > ? AND T.s != ? "
    "ORDER BY px(T.x) + pa(T.a) LIMIT 5"
)

BINDINGS = {
    "typical": (0.3, "a"),
    "int_for_float": (0, "b"),
    "numeric_string": (0.1, "10"),
    "null_threshold": (None, "a"),
    "null_text": (0.2, None),
    "nothing_passes": (5.0, "a"),
}


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_parameter_binding_matches_row(engines, binding):
    """One compiled template serves every binding, a NULL one included
    (it compares false, so the filter drops every row)."""
    rows = assert_compiled_matches_row(engines, TEMPLATE, BINDINGS[binding])
    if BINDINGS[binding][0] is None or BINDINGS[binding][1] is None:
        assert rows == []


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------


def test_division_by_zero_raises_the_same_error(engines):
    """An arithmetic error in a filter surfaces from the fused function as
    it does from the row closures.  The template is planned under a safe
    binding (planning samples the filter too); the zero divisor arrives
    with a later binding of the cached plan."""
    sql = "SELECT * FROM T WHERE T.x / ? > 1 ORDER BY px(T.x) LIMIT 3"
    assert_compiled_matches_row(engines, sql, (0.5,))
    for mode in ("row", "compiled"):
        with pytest.raises(ZeroDivisionError):
            observe(engines[mode], sql, (0,))
