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
        entry.executable,
        entry.scoring,
        k=entry.k,
        evaluators=entry.evaluators,
        entry=entry,
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
    "negative_literal": "T.x > -0.5 AND T.a > -1",
    "unary_minus_column": "-T.a < -3",
    "unary_minus_expression": "-(T.x - 1) > 0.5",
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
    "unary_minus_expression": "(-T.x + 1) / 2",
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


# ----------------------------------------------------------------------
# the sort epilogue: late materialization, bulk scoring, keyless top-k
# ----------------------------------------------------------------------
#
# J1 ⋈ J2 ⋈ J3 on small key domains, so every probe row meets several
# partners; every score column takes one of three values, so whole runs of
# join results tie on F and only the rid decides their order.

NAN = float("nan")


def build_tie_db(execution: str) -> Database:
    db = Database(execution=execution)
    db.create_table(
        "J1", [("id", DataType.INT), ("k", DataType.INT), ("v", DataType.INT)]
    )
    db.create_table(
        "J2",
        [("k", DataType.INT), ("m", DataType.INT), ("w", DataType.INT)],
    )
    db.create_table("J3", [("m", DataType.INT), ("z", DataType.INT)])
    rng = random.Random(5)
    db.insert(
        "J1", [(i, rng.randrange(4), rng.randrange(1, 4)) for i in range(40)]
    )
    db.insert(
        "J2",
        [(rng.randrange(4), rng.randrange(3), rng.randrange(1, 4)) for __ in range(30)],
    )
    db.insert("J3", [(rng.randrange(3), rng.randrange(1, 4)) for __ in range(12)])
    db.register_predicate("q1", ["J1.v"], lambda v: v / 4)
    db.register_predicate("q2", ["J2.w"], lambda w: w / 4)
    db.register_predicate("q3", ["J3.z"], lambda z: z / 4)
    # Out-of-range results: each clamp branch, and NaN (which passes it).
    db.register_predicate("qneg", ["J1.v"], lambda v: v - 2)
    db.register_predicate("qbig", ["J2.w"], lambda w: w, p_max=2.0)
    db.register_predicate("qnone", ["J2.w"], lambda w: None if w == 2 else w / 3)
    db.register_predicate("qnan", ["J1.v"], lambda v: NAN if v == 3 else v / 4)
    # Scorers over both sides of the top join J1 ⋈ J2.
    db.register_predicate(
        "qboth", ["J1.v", "J2.w"], lambda v, w: (v + w) / 6, cost=2.0
    )
    db.register_predicate(
        "qexpr", ["J1.v", "J2.w"], col("J1.v") * col("J2.w") / 9
    )
    db.analyze()
    return db


@pytest.fixture(scope="module")
def tie_engines():
    return {mode: build_tie_db(mode) for mode in ("row", "compiled")}


def observe_exact(db, query):
    """Like :func:`observe` for a SQL text or a bound ``QuerySpec``, with
    scores compared by bit pattern (NaN included)."""
    entry, __ = db.planner.prepare(query, strategy="traditional")
    result = db.execute(
        entry.executable, entry.scoring, k=entry.k, evaluators=entry.evaluators
    )
    rows = [
        (
            tuple(sr.row.values),
            sr.row.rid,
            {name: score.hex() for name, score in sr.scores.items()},
        )
        for sr in result.scored_rows
    ]
    return entry, rows, result.metrics.summary()


def compiled_source(entry) -> str:
    (artifact,) = [
        node.compiled
        for node in entry.executable.walk()
        if getattr(node, "compiled", None) is not None
    ]
    return artifact.source


def assert_epilogue_matches_row(engines, query, late=True):
    __, want_rows, want_work = observe_exact(engines["row"], query)
    entry, got_rows, got_work = observe_exact(engines["compiled"], query)
    source = compiled_source(entry)
    assert ("_left_append" in source) == late, source
    assert got_rows == want_rows, query
    assert_same_work(got_work, want_work)
    return got_rows


JOIN_SHAPES = {
    "scan": ("SELECT * FROM J1", "q1(J1.v)", False),
    "two_way": (
        "SELECT * FROM J1, J2 WHERE J1.k = J2.k",
        "q1(J1.v) + q2(J2.w)",
        True,
    ),
    "three_way": (
        "SELECT * FROM J1, J2, J3 WHERE J1.k = J2.k AND J2.m = J3.m",
        "q1(J1.v) + q2(J2.w) + q3(J3.z)",
        True,
    ),
}

#: None, 1, a k below the input size, and a limit above it
FETCH_LIMITS = {"none": "", "one": " LIMIT 1", "k": " LIMIT 7", "over": " LIMIT 100000"}


@pytest.mark.parametrize("limit", sorted(FETCH_LIMITS))
@pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
def test_tied_scores_match_row(tie_engines, shape, limit):
    base, order, late = JOIN_SHAPES[shape]
    rows = assert_epilogue_matches_row(
        tie_engines, f"{base} ORDER BY {order}{FETCH_LIMITS[limit]}", late
    )
    if limit in ("none", "over"):
        # Not vacuous: many results share a score, so rids break the ties.
        scores = [tuple(sorted(s.items())) for __, __, s in rows]
        assert len(set(scores)) < len(scores) / 3


TWO_WAY = "SELECT * FROM J1, J2 WHERE J1.k = J2.k"

EPILOGUE_ORDERINGS = {
    "wsum_non_unit": "0.3 * q1(J1.v) + 0.7 * q2(J2.w)",
    "wsum_mixed": "2 * q1(J1.v) + q2(J2.w)",
    "product": "q1(J1.v) * q2(J2.w)",
    "negative_clamped": "qneg(J1.v) + q2(J2.w)",
    "above_p_max_clamped": "qbig(J2.w) + q1(J1.v)",
    "none_scores": "qnone(J2.w) + q1(J1.v)",
    "nan_scores": "qnan(J1.v) + q2(J2.w)",
    "callable_over_both_sides": "qboth(J1.v, J2.w) + q1(J1.v)",
    "expression_over_both_sides": "qexpr(J1.v, J2.w) + q2(J2.w)",
    "raw_expression_over_both_sides": "(J1.v + J2.w) / 6",
}


@pytest.mark.parametrize("limit", ["none", "k"])
@pytest.mark.parametrize("ordering", sorted(EPILOGUE_ORDERINGS))
def test_epilogue_scoring_matches_row(tie_engines, ordering, limit):
    sql = f"{TWO_WAY} ORDER BY {EPILOGUE_ORDERINGS[ordering]}{FETCH_LIMITS[limit]}"
    assert_epilogue_matches_row(tie_engines, sql)


def test_nan_scores_reach_the_epilogue(tie_engines):
    rows = assert_epilogue_matches_row(
        tie_engines, f"{TWO_WAY} ORDER BY qnan(J1.v) + q2(J2.w)"
    )
    assert any(s["qnan"] == "nan" for __, __, s in rows)


@pytest.mark.parametrize("limit", ["none", "k"])
@pytest.mark.parametrize("combiner", ["min", "max", "avg", "product"])
def test_other_combiners_match_row(tie_engines, combiner, limit):
    """SQL spells only sum, wsum and product; min / max / avg reach the
    epilogue through a bound spec whose scoring function is swapped."""
    from dataclasses import replace

    from repro.algebra.predicates import ScoringFunction

    sql = (
        f"{TWO_WAY} ORDER BY q1(J1.v) + qnone(J2.w) + qboth(J1.v, J2.w)"
        f"{FETCH_LIMITS[limit]}"
    )
    queries = {}
    for mode, db in tie_engines.items():
        spec = db.bind(sql)
        queries[mode] = replace(
            spec, scoring=ScoringFunction(spec.scoring.predicates, combiner)
        )
    __, want_rows, want_work = observe_exact(tie_engines["row"], queries["row"])
    entry, got_rows, got_work = observe_exact(
        tie_engines["compiled"], queries["compiled"]
    )
    assert "_combine" in compiled_source(entry)
    assert got_rows == want_rows
    assert_same_work(got_work, want_work)


def test_filter_above_the_top_join_keeps_concatenating(tie_engines):
    """A residual over both sides runs above the join, so the join's
    results are concatenated in-loop, as before."""
    sql = (
        f"{TWO_WAY} AND J1.v > J2.w ORDER BY qboth(J1.v, J2.w) + q1(J1.v) "
        "LIMIT 5"
    )
    assert assert_epilogue_matches_row(tie_engines, sql, late=False)


def test_cursor_drains_the_full_order_past_k(tie_engines):
    """A cursor strips the λ, so the compiled epilogue sorts everything;
    draining past k returns the row engine's whole sequence."""
    sql = f"{TWO_WAY} ORDER BY q1(J1.v) + q2(J2.w) + qboth(J1.v, J2.w) LIMIT 5"
    drained = {}
    for mode, db in tie_engines.items():
        with db.prepare(sql, strategy="traditional").cursor() as cursor:
            out = []
            while (item := cursor.fetch_next_scored()) is not None:
                values, score = item
                out.append((values, score.hex()))
        drained[mode] = out
    assert len(drained["row"]) > 5
    assert drained["compiled"] == drained["row"]
