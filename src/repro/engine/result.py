"""Query results."""

from __future__ import annotations

from typing import Any, Iterator

from ..algebra.predicates import ScoringFunction
from ..algebra.rank_relation import ScoredRow
from ..execution.metrics import ExecutionMetrics
from ..optimizer.plans import PlanNode
from ..storage.schema import Schema


class QueryResult:
    """The outcome of executing a (top-k) query.

    Iterable over value tuples; also exposes per-row final scores, the
    executed physical plan, the execution metrics and whether the plan came
    from the plan cache (:attr:`plan_cached`).

    :attr:`plan_cached` is faithful to the optimizer work this execution
    actually skipped: False exactly when the plan was freshly optimized for
    this run — including the *cold template build* of a parameterized
    statement's first ``run(params=...)``, which must never report True no
    matter how many bindings follow it.  It is True when a cached or
    prepared plan was reused without re-optimization, e.g. warm runs of the
    same template with different bindings.
    """

    def __init__(
        self,
        schema: Schema,
        scored_rows: list[ScoredRow],
        scoring: ScoringFunction,
        plan: PlanNode,
        metrics: ExecutionMetrics,
        plan_cached: bool = False,
    ):
        self.schema = schema
        self.scored_rows = scored_rows
        self.scoring = scoring
        self.plan = plan
        self.metrics = metrics
        self.plan_cached = plan_cached

    def __len__(self) -> int:
        return len(self.scored_rows)

    def __iter__(self) -> Iterator[tuple]:
        return (s.row.values for s in self.scored_rows)

    def __getitem__(self, index: int) -> tuple:
        return self.scored_rows[index].row.values

    @property
    def rows(self) -> list[tuple]:
        """Result rows as plain value tuples, best first."""
        return [s.row.values for s in self.scored_rows]

    @property
    def scores(self) -> list[float]:
        """Final (upper-bound = complete, at the root) scores, best first."""
        return [self.scoring.upper_bound(s.scores) for s in self.scored_rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as ``{qualified_column: value}`` dicts plus ``'score'``."""
        names = self.schema.qualified_names()
        out = []
        for scored, score in zip(self.scored_rows, self.scores):
            record: dict[str, Any] = dict(zip(names, scored.row.values))
            record["score"] = score
            out.append(record)
        return out

    def explain(self) -> str:
        """The executed physical plan, pretty-printed."""
        return self.plan.explain()

    def to_csv(self, path, include_score: bool = True) -> int:
        """Write the result rows to a CSV file; returns the row count.

        A trailing ``score`` column holds each row's final score unless
        ``include_score`` is False.
        """
        from .csv_io import dump_csv

        names = self.schema.qualified_names()
        if include_score:
            rows = [
                row + (score,) for row, score in zip(self.rows, self.scores)
            ]
            return dump_csv(rows, names + ["score"], path)
        return dump_csv(self.rows, names, path)


class Cursor:
    """Incremental access to a ranking query's results (§4.1).

    The paper motivates pipelined plans with interactive use: "k may be
    only an estimate of the desired result size or not even specified
    beforehand".  A cursor keeps the plan open and pulls results on demand,
    so the work done is proportional to the number of rows actually
    fetched.  Close it (or use it as a context manager) to release the
    plan.

    Cursors obtained from a :class:`~repro.planner.PreparedQuery` (or
    ``Database.open_cursor``, which routes through one) execute the cached
    plan with its shared compiled evaluators — reopening a cursor on the
    same statement skips enumeration and recompilation.  The cursor's
    bind-variable values ride on its own ``context`` and are compiled in
    when the plan opens, so a fetch reads nothing another execution of the
    same template can change.
    """

    def __init__(self, root, context, scoring: ScoringFunction, plan: PlanNode):
        self._root = root
        self._context = context
        self.scoring = scoring
        self.plan = plan
        self._root.open(context)
        self.schema: Schema = self._root.schema()
        self._closed = False
        self._exhausted = False

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._root.close()
            self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- fetching ----------------------------------------------------------
    def fetch_next(self) -> "tuple | None":
        """The next result row (best first), or None when exhausted."""
        scored = self._fetch_scored()
        if scored is None:
            return None
        return scored.row.values

    def fetch_many(self, n: int) -> list[tuple]:
        """Up to ``n`` further rows."""
        out = []
        for __ in range(n):
            row = self.fetch_next()
            if row is None:
                break
            out.append(row)
        return out

    def fetch_next_scored(self) -> "tuple[tuple, float] | None":
        """The next ``(row, score)`` pair, or None when exhausted."""
        scored = self._fetch_scored()
        if scored is None:
            return None
        return scored.row.values, self.scoring.upper_bound(scored.scores)

    def _fetch_scored(self) -> "ScoredRow | None":
        if self._closed:
            raise RuntimeError("cursor is closed")
        if self._exhausted:
            return None
        scored = self._root.next()
        if scored is None:
            self._exhausted = True
        return scored

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetch_next()
            if row is None:
                return
            yield row

    # -- introspection -----------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """Work done so far (grows as rows are fetched)."""
        return self._context.metrics
