"""Join synopses: the engine's ranked cardinalities from weighted walks.

The paper's §5.2 estimator (:mod:`repro.optimizer.cardinality`) samples
every *table* and runs each candidate subplan on the samples.  At a 0.1 %
sample the §6 tables keep one row each, the sample join is empty, ``x'``
is ``-inf`` at every ``k`` and every rank-aware plan ties.  This module
samples the *join* instead: a join synopsis (Acharya et al., SIGMOD 1999)
drawn by weighted random walks over the join indexes (Wander Join, Li et
al., SIGMOD 2016).

A walk over a table set ``SR`` starts on a uniform row of its first table
(weight ``|T|``) and adds one table at a time:

* over an equi-join edge it follows the ``ColumnIndex`` on the join column
  (or a one-off value dictionary when the column has no index) to a
  uniform matching row, multiplying the weight by the number of matches;
* otherwise it takes a uniform row of the table (weight ``× |T|``);

and either way it tests every other join condition between the new table
and those already visited.  A walk that finds no match or fails a test
dies.  Each surviving walk reaches its join result with probability
``1 / weight``, so ``Σ weight / N`` over the walks that pass a filter is a
Horvitz–Thompson estimate of how many join results pass it.  From that:

* ``x'`` is the weighted ``k``-th score of the walks over every table that
  pass every selection;
* ``card(SR, SP, SB)`` is the estimated number of ``SR`` join results that
  pass the selections ``SB`` and whose upper bound ``F̄_SP`` is ``≥ x'`` —
  a function of the signature alone, so no subplan is ever executed.

A :class:`JoinSynopsis` holds the walks and their per-predicate row scores
for one join graph; the planner caches it across statements and rebuilds
it only when a covered table's row count drifts past :data:`DRIFT` or its
table or index set changes.  A :class:`SynopsisEstimator` binds it to one
statement: it evaluates the statement's selections on the walk rows and
counts signatures.

The synopsis is also the engine's only source of selectivities: the
fraction of a table's :data:`WALKS` uniform rows that pass a condition.
They are drawn on the table's own seed, never taken from a walk (whose
rows depend on which table sets were drawn before).
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from typing import Any

from ..algebra.expressions import ColumnRef, Evaluator, Expression, Params
from ..algebra.parameters import holds_parameters
from ..algebra.predicates import RankingPredicate
from ..storage.catalog import Catalog
from ..storage.index import ColumnIndex
from ..storage.row import Row
from ..storage.schema import SchemaError
from .plans import (
    BatchSegmentPlan,
    FilterPlan,
    PlanNode,
    RankDifferencePlan,
    RankIntersectPlan,
    RankUnionPlan,
    ScanSelectPlan,
)
from .query_spec import JoinCondition, QuerySpec

#: walks drawn per table set
WALKS = 512
#: relative row-count change of a covered table past which a cached
#: synopsis is rebuilt
DRIFT = 0.10
#: the walks' random seed (walks are deterministic per table set)
SEED = 0


def join_graph_key(spec: QuerySpec) -> tuple:
    """What a synopsis is cached under: the tables and join conditions."""
    from ..planner.signature import expression_key

    return (
        tuple(sorted(spec.tables)),
        tuple(
            sorted(
                expression_key(j.predicate.expression)
                for j in spec.join_conditions
            )
        ),
    )


class _Draw:
    """:data:`WALKS` walks along one table order.  A walk's prefix over
    the first ``i`` tables is itself a walk over those tables, so one draw
    serves every prefix of its order."""

    __slots__ = ("order", "rows", "weights", "columns")

    def __init__(self, order: tuple[str, ...]):
        self.order = order
        #: per table, the row each walk visited (None where it had died)
        self.rows: dict[str, list[Row | None]] = {t: [None] * WALKS for t in order}
        #: per table, each walk's weight once through it (None where dead)
        self.weights: dict[str, list[float | None]] = {
            t: [None] * WALKS for t in order
        }
        #: per-walk value columns (see :meth:`JoinSynopsis.walk_scores`)
        self.columns: dict[tuple, tuple] = {}


class _Walks:
    """The walks over one table set: the walks of a draw that got through
    the set's tables (a prefix of the draw's order), with per table the
    row each visited and each walk's Horvitz–Thompson weight."""

    __slots__ = ("draw", "order", "index", "weights")

    def __init__(self, draw: _Draw, depth: int):
        self.draw = draw
        self.order = draw.order[:depth]
        last = draw.weights[self.order[-1]]
        #: the draw's walk numbers that got through the set's tables
        self.index = [w for w, weight in enumerate(last) if weight is not None]
        self.weights = [last[w] for w in self.index]

    def rows(self, table: str) -> list[Row]:
        """The row of ``table`` each walk visited."""
        return self.restrict(self.draw.rows[table])

    def restrict(self, column: list) -> list:
        """A draw-wide per-walk column, restricted to these walks."""
        return [column[w] for w in self.index]


class JoinSynopsis:
    """Weighted random walks over one query's join graph (lazily, per
    table set), with their per-predicate row scores."""

    def __init__(self, catalog: Catalog, join_conditions: list[JoinCondition]):
        self.catalog = catalog
        self.join_conditions = tuple(join_conditions)
        #: table -> (table object, row count, index names) when first read
        self._state: dict[str, tuple[Any, int, frozenset[str]]] = {}
        self._rows: dict[str, list[Row]] = {}
        self._lookups: dict[tuple[str, str], dict] = {}
        self._walks: dict[frozenset[str], _Walks] = {}
        self._uniform: dict[str, list[Row]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # freshness
    # ------------------------------------------------------------------
    def stale(self) -> bool:
        """Whether a covered table was replaced, changed its index set, or
        drifted by more than :data:`DRIFT` in row count since it was read."""
        for name, (table, count, indexes) in list(self._state.items()):
            try:
                current = self.catalog.table(name)
            except Exception:
                return True
            if current is not table or frozenset(current.indexes) != indexes:
                return True
            if abs(current.row_count - count) > DRIFT * count:
                return True
        return False

    def _table_rows(self, name: str) -> list[Row]:
        rows = self._rows.get(name)
        if rows is None:
            table = self.catalog.table(name)
            rows = list(table.rows())
            self._state[name] = (table, len(rows), frozenset(table.indexes))
            self._rows[name] = rows
        return rows

    def _matches(self, table: str, column: str, value: Any) -> list[Row]:
        """Rows of ``table`` whose ``column`` equals ``value``."""
        lookup = self._lookups.get((table, column))
        if lookup is None:
            lookup = {}
            index = self.catalog.table(table).find_index(key=column)
            if not isinstance(index, ColumnIndex):
                position = self.catalog.table(table).schema.index_of(column)
                for row in self._table_rows(table):
                    if row[position] is not None:
                        lookup.setdefault(row[position], []).append(row)
                lookup[_COMPLETE] = True
            self._lookups[(table, column)] = lookup
        rows = lookup.get(value)
        if rows is None:
            if value is None or _COMPLETE in lookup:
                return []
            index = self.catalog.table(table).find_index(key=column)
            try:
                rows = list(index.lookup(value))
            except TypeError:
                rows = []
            lookup[value] = rows
        return rows

    # ------------------------------------------------------------------
    # selectivities
    # ------------------------------------------------------------------
    def uniform(self, table: str) -> list[Row]:
        """:data:`WALKS` uniform rows of ``table``, drawn like walk starts
        but on the table's own seed — or, for a table of at most
        :data:`WALKS` rows, the table itself (an exact fraction)."""
        rows = self._uniform.get(table)
        if rows is None:
            with self._lock:
                rows = self._uniform.get(table)
                if rows is None:
                    rows = self._table_rows(table)
                    if len(rows) > WALKS:
                        rng = random.Random(f"{SEED}:uniform:{table}")
                        rows = [rows[rng.randrange(len(rows))] for __ in range(WALKS)]
                    self._uniform[table] = rows
        return rows

    def selectivity(
        self, table: str, expression: Expression, params: Params = None
    ) -> float:
        """The fraction of ``table``'s uniform rows that pass
        ``expression`` (evaluated per call, so a parameter takes its
        peeked value in ``params``)."""
        fn = expression.compile(self.catalog.table(table).schema, params)
        return passing_fraction(self.uniform(table), fn)

    # ------------------------------------------------------------------
    # walks
    # ------------------------------------------------------------------
    def walks(self, sr: frozenset[str]) -> _Walks:
        """The walks over table set ``sr``.  A set no earlier draw's order
        starts with is drawn now; its order's prefixes come with it."""
        walks = self._walks.get(sr)
        if walks is None:
            with self._lock:
                walks = self._walks.get(sr)
                if walks is None:
                    draw = self._draw(sr)
                    for depth in range(1, len(draw.order) + 1):
                        prefix = frozenset(draw.order[:depth])
                        if prefix not in self._walks:
                            self._walks[prefix] = _Walks(draw, depth)
                    walks = self._walks[sr]
        return walks

    def _walk_order(self, sr: frozenset[str]) -> list[tuple[str, Any, list]]:
        """``(table, edge, tests)`` per step: the equi edge to follow (or
        None), and the other join conditions to test on arrival.  A
        condition holding a bind variable is no test: the walks are shared
        by every binding, so each statement filters them with its own
        values (:meth:`SynopsisEstimator._mask`)."""
        conditions = [
            j
            for j in self.join_conditions
            if j.tables <= sr and not holds_parameters(j.predicate.expression)
        ]
        remaining = sorted(sr)
        visited: list[str] = []
        steps = []
        while remaining:
            table = next(
                (
                    t
                    for t in remaining
                    if any(self._edge_key(j, visited, t) for j in conditions)
                ),
                remaining[0],
            )
            remaining.remove(table)
            arriving = [
                j
                for j in conditions
                if table in j.tables and j.tables <= set(visited) | {table}
            ]
            edge = next(
                (j for j in arriving if self._edge_key(j, visited, table)), None
            )
            tests = [j for j in arriving if j is not edge]
            steps.append((table, edge, tests))
            visited.append(table)
        return steps

    @staticmethod
    def _edge_key(condition: JoinCondition, visited: list[str], table: str):
        """``(visited table, its key, table's key)`` if ``condition`` is an
        equi edge from a visited table to ``table``."""
        if not condition.is_equi or table not in condition.tables:
            return None
        (table_a, key_a), (table_b, key_b) = condition.equi_keys
        if table_b == table and table_a in visited:
            return table_a, key_a, key_b
        if table_a == table and table_b in visited:
            return table_b, key_b, key_a
        return None

    def _draw(self, sr: frozenset[str]) -> _Draw:
        steps = self._walk_order(sr)
        order = tuple(table for table, __, ___ in steps)
        draw = _Draw(order)
        rng = random.Random(f"{SEED}:{','.join(order)}")
        plan = []
        visited: list[str] = []
        for table, edge, tests in steps:
            rows = self._table_rows(table)
            schema = self._schema(visited + [table])
            follow = None
            if edge is not None:
                source, source_key, key = self._edge_key(edge, visited, table)
                source_schema = self.catalog.table(source).schema
                follow = (
                    order.index(source),
                    source_schema.index_of(source_key),
                    key,
                )
            evaluators = [j.predicate.compile(schema) for j in tests]
            plan.append((table, rows, follow, evaluators))
            visited.append(table)
        for walk in range(WALKS):
            path: list[Row] = []
            weight = 1.0
            for table, rows, follow, evaluators in plan:
                if follow is None:
                    if not rows:
                        break
                    row = rows[rng.randrange(len(rows))]
                    weight *= len(rows)
                else:
                    source, position, key = follow
                    matches = self._matches(table, key, path[source][position])
                    if not matches:
                        break
                    row = matches[rng.randrange(len(matches))]
                    weight *= len(matches)
                path.append(row)
                if evaluators:
                    merged = _merged(path)
                    if not all(fn(merged) for fn in evaluators):
                        break
                draw.rows[table][walk] = row
                draw.weights[table][walk] = weight
        return draw

    # ------------------------------------------------------------------
    # scores
    # ------------------------------------------------------------------
    def walk_scores(
        self, sr: frozenset[str], predicate: RankingPredicate
    ) -> list[float]:
        """``predicate``'s score on every walk over ``sr``; each walk row
        of a draw is scored once per predicate, for every statement."""
        walks = self.walks(sr)
        tables = predicate.tables()
        if len(tables) == 1:
            (table,) = tables
            column = self._column(walks.draw, table, predicate)
            return walks.restrict(column)
        # A join predicate reads several of the walk's rows.
        try:
            fn = predicate.compile(self._schema(walks.order))
        except SchemaError:
            # Not a join predicate after all (its columns resolve on
            # several tables): leave it unevaluated, at p_max.
            return [predicate.p_max] * len(walks.weights)
        return [
            fn(_merged(path))
            for path in zip(*(walks.rows(t) for t in walks.order))
        ]

    def _schema(self, tables) -> Any:
        """The schema of the tables' rows concatenated in this order."""
        schema = None
        for table in tables:
            table_schema = self.catalog.table(table).schema
            schema = table_schema if schema is None else schema.concat(table_schema)
        return schema

    def _column(self, draw: _Draw, table: str, predicate: RankingPredicate) -> list:
        """``predicate``'s score on ``table``'s row of every walk of
        ``draw`` (None where the walk died first)."""
        key = (table, predicate.name)
        cached = draw.columns.get(key)
        if cached is None or cached[0] is not predicate:
            fn = predicate.compile(self.catalog.table(table).schema)
            column = [
                None if row is None else fn(row) for row in draw.rows[table]
            ]
            cached = draw.columns[key] = (predicate, column)
        return cached[1]


#: marks a lookup dictionary that holds every value of its column
_COMPLETE = object()


def passing_fraction(rows: list[Row], fn: Evaluator) -> float:
    """The fraction of ``rows`` on which ``fn`` is true, floored at half a
    row (0.5 without rows) so no selection prices as empty."""
    if not rows:
        return 0.5
    hits = len(list(filter(fn, rows)))
    return max(hits / len(rows), 1.0 / (2 * len(rows)))


def _merged(path: list[Row]) -> Row:
    """One walk's rows as the joined row they stand for."""
    return Row(tuple(v for row in path for v in row.values), ())

_SET_OPERATIONS = (RankUnionPlan, RankIntersectPlan, RankDifferencePlan)


def _over_set_operation(plan: PlanNode) -> bool:
    """Whether ``plan`` is a chain of unary nodes over a set operation —
    its tables are the operands', not a join, so no walk describes it."""
    while len(plan.children) == 1:
        plan = plan.children[0]
        if isinstance(plan, _SET_OPERATIONS):
            return True
    return False


class FullCardinalities:
    """The estimator of an optimizer without the ranking dimension (the
    traditional baseline): selectivities from the synopsis's uniform rows,
    and — nothing it prices being k-sensitive — no ranked cardinality below
    the full one, so no walk is drawn."""

    cutoff = -math.inf

    def __init__(self, synopsis: JoinSynopsis, params: Params = None):
        self.synopsis = synopsis
        #: the statement's peeked bind-variable values
        self.params = params

    def estimate(self, plan: PlanNode) -> float:
        return math.inf

    def selectivity(self, table: str, expression: Expression) -> float:
        """A single-table condition's selectivity."""
        return self.synopsis.selectivity(table, expression, self.params)


class SynopsisEstimator(FullCardinalities):
    """Ranked cardinalities for one statement, read off a join synopsis:
    ``estimate`` and ``cutoff`` (``x'``) with the ranking dimension."""

    def __init__(
        self, synopsis: JoinSynopsis, spec: QuerySpec, params: Params = None
    ):
        super().__init__(synopsis, params)
        self.spec = spec
        self.scoring = spec.scoring
        self._selection_tables = {
            c.name: next(iter(c.tables())) for c in spec.selections if c.tables()
        }
        #: the join conditions the shared walks do not test (they hold a
        #: bind variable), filtered here with this statement's values
        self._parameterized_joins = [
            j
            for j in spec.join_conditions
            if holds_parameters(j.predicate.expression)
        ]
        self._selections: dict[tuple, list[bool]] = {}
        self._masks: dict[tuple, list[bool]] = {}
        self._above_memo: dict[tuple, bytes] = {}
        self._memo: dict[tuple, float] = {}
        self._applied: dict[str, frozenset[str]] = {}
        self._by_plan: dict[str, float] = {}
        self._terms: dict[tuple, list[float]] = {}
        self._selection_names = frozenset(c.name for c in spec.selections)
        self.cutoff = self._estimate_cutoff()

    # ------------------------------------------------------------------
    # x'
    # ------------------------------------------------------------------
    def _complete_walks(self) -> list[tuple[float, float]]:
        """``(complete score, weight)`` of the walks over every table that
        pass every selection, best first."""
        sr = frozenset(self.spec.tables)
        walks = self.synopsis.walks(sr)
        mask = self._mask(sr, self._selection_names)
        bounds = self._bounds(sr, frozenset(self.scoring.predicate_names))
        return sorted(
            (
                (score, weight)
                for score, weight, hit in zip(bounds, walks.weights, mask)
                if hit
            ),
            key=lambda pair: -pair[0],
        )

    def answers(self) -> float:
        """The estimated number of answers before the limit."""
        return sum(weight for __, weight in self._complete_walks()) / WALKS

    def _estimate_cutoff(self) -> float:
        """``x'``: the weighted ``k``-th complete score, or ``-inf`` when
        the synopsis estimates fewer than ``k`` answers."""
        k = self.spec.k
        if k <= 0:
            return math.inf
        reached = 0.0
        for score, weight in self._complete_walks():
            reached += weight / WALKS
            if reached >= k:
                return score
        return -math.inf

    # ------------------------------------------------------------------
    # card(SR, SP, SB)
    # ------------------------------------------------------------------
    def estimate(self, plan: PlanNode) -> float:
        """Estimated count of ``plan``'s outputs whose upper bound is
        ``≥ x'`` on the full database."""
        fingerprint = plan.fingerprint()
        value = self._by_plan.get(fingerprint)
        if value is None:
            if isinstance(plan, BatchSegmentPlan):
                value = self.estimate(plan.inner)
            elif isinstance(plan, RankUnionPlan):
                value = sum(self.estimate(child) for child in plan.children)
            elif isinstance(plan, RankIntersectPlan):
                value = min(self.estimate(child) for child in plan.children)
            elif isinstance(plan, RankDifferencePlan) or _over_set_operation(plan):
                value = self.estimate(plan.children[0])
            else:
                value = self.count(
                    plan.tables, plan.rank_predicates, self.applied(plan)
                )
            self._by_plan[fingerprint] = value
        return value

    def count(
        self, sr: frozenset[str], sp: frozenset[str], sb: frozenset[str]
    ) -> float:
        """The Horvitz–Thompson count of ``card(SR, SP, SB)``."""
        key = (sr, sp, sb)
        value = self._memo.get(key)
        if value is None:
            weights = self.synopsis.walks(sr).weights
            value = (
                sum(
                    weight
                    for weight, above, hit in zip(
                        weights, self._above(sr, sp), self._mask(sr, sb)
                    )
                    if above and hit
                )
                / WALKS
            )
            self._memo[key] = value
        return value

    def _above(self, sr: frozenset[str], sp: frozenset[str]) -> bytes:
        """Per walk over ``sr``, whether its ``F̄_SP`` is ``≥ x'``."""
        key = (sr, sp)
        above = self._above_memo.get(key)
        if above is None:
            cutoff = self.cutoff
            above = self._above_memo[key] = bytes(
                bound >= cutoff for bound in self._bounds(sr, sp)
            )
        return above

    def applied(self, plan: PlanNode) -> frozenset[str]:
        """SB: the names of the statement's selections ``plan`` applies."""
        fingerprint = plan.fingerprint()
        applied = self._applied.get(fingerprint)
        if applied is None:
            if isinstance(plan, BatchSegmentPlan):
                applied = self.applied(plan.inner)
            else:
                applied = frozenset()
                for child in plan.children:
                    applied |= self.applied(child)
                if isinstance(plan, FilterPlan):
                    own = [plan.condition.name]
                elif isinstance(plan, ScanSelectPlan):
                    own = self._scan_selected(plan)
                else:
                    own = []
                applied |= self._selection_names & frozenset(own)
            self._applied[fingerprint] = applied
        return applied

    def _scan_selected(self, plan: ScanSelectPlan) -> list[str]:
        """The selection a scan-select's Boolean key consumes."""
        bare = plan.bool_column.partition(".")[2]
        for condition in self.spec.selections_on(plan.table):
            expression = condition.expression
            if isinstance(expression, ColumnRef) and expression.name in (
                plan.bool_column,
                bare,
            ):
                return [condition.name]
        return []

    # ------------------------------------------------------------------
    # per-walk vectors
    # ------------------------------------------------------------------
    def _bounds(self, sr: frozenset[str], sp: frozenset[str]) -> list[float]:
        """``F̄_SP`` of every walk over ``sr`` — the same arithmetic as
        :meth:`~repro.algebra.predicates.ScoringFunction.upper_bound`."""
        scoring = self.scoring
        n = len(self.synopsis.walks(sr).weights)
        if scoring.combiner in ("sum", "wsum"):
            terms = [
                self._term(sr, p, w)
                if p.name in sp
                else itertools.repeat(w * p.p_max, n)
                for p, w in zip(scoring.predicates, scoring.weights)
            ]
            return list(map(sum, zip(*terms)))
        columns = {
            p.name: self.synopsis.walk_scores(sr, p)
            for p in scoring.predicates
            if p.name in sp
        }
        if not columns:
            return [scoring.max_possible()] * n
        names = list(columns)
        return [
            scoring.upper_bound(dict(zip(names, values)))
            for values in zip(*columns.values())
        ]

    def _term(self, sr, predicate, weight: float) -> list[float]:
        """One evaluated predicate's weighted term of ``F̄`` on every walk
        over ``sr``."""
        key = (sr, predicate.name)
        term = self._terms.get(key)
        if term is None:
            term = self.synopsis.walk_scores(sr, predicate)
            if weight != 1.0:
                term = [weight * s for s in term]
            self._terms[key] = term
        return term

    def _mask(self, sr: frozenset[str], sb: frozenset[str]) -> list[bool]:
        """Whether each walk over ``sr`` passes every selection in ``sb``
        and every parameterized join condition within ``sr``."""
        key = (sr, sb)
        mask = self._masks.get(key)
        if mask is None:
            walks = self.synopsis.walks(sr)
            mask = [True] * len(walks.weights)
            for name in sorted(sb):
                table = self._selection_tables.get(name)
                if table is not None:
                    passes = self._passes(walks.draw, name, table)
                    mask = [
                        ok and passes[w] for ok, w in zip(mask, walks.index)
                    ]
            joins = [j for j in self._parameterized_joins if j.tables <= sr]
            if joins:
                schema = self.synopsis._schema(walks.order)
                paths = zip(*(walks.rows(t) for t in walks.order))
                tests = [j.predicate.compile(schema, self.params) for j in joins]
                mask = [
                    ok and all(fn(_merged(path)) for fn in tests)
                    for ok, path in zip(mask, paths)
                ]
            self._masks[key] = mask
        return mask

    def _passes(self, draw: _Draw, name: str, table: str) -> list:
        """Whether ``table``'s row of every walk of ``draw`` passes the
        selection ``name`` (False where the walk died first)."""
        key = (draw, name)
        passes = self._selections.get(key)
        if passes is None:
            condition = next(c for c in self.spec.selections if c.name == name)
            fn = condition.compile(
                self.synopsis.catalog.table(table).schema, self.params
            )
            passes = self._selections[key] = [
                row is not None and bool(fn(row)) for row in draw.rows[table]
            ]
        return passes


def engine_estimator(
    catalog: Catalog,
    spec: QuerySpec,
    synopsis: JoinSynopsis | None = None,
    ranked: bool = True,
    params: Params = None,
) -> "SynopsisEstimator | FullCardinalities":
    """The estimator every engine optimizer prices with, reading
    ``synopsis`` (a fresh one when not given): ranked cardinalities and
    selectivities, or selectivities alone without the ranking dimension
    (``ranked=False``).  ``params`` are the statement's peeked
    bind-variable values."""
    synopsis = synopsis or JoinSynopsis(catalog, spec.join_conditions)
    if not ranked:
        return FullCardinalities(synopsis, params)
    return SynopsisEstimator(synopsis, spec, params)
