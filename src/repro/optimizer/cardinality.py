"""Sampling-based cardinality estimation for rank-aware operators (§5.2).

This is the paper's method, kept only as the reproduced baseline: it
serves ``bench_fig13_cardinality``, the sampling-ratio ablation and their
tests, and is reached solely by injection into an optimizer
(``RankAwareOptimizer(..., estimator=...)``), which then prices
selectivities on the same sample too.  The engine's optimizers take every
statistic — ranked cardinalities and selectivities — from a join synopsis
(:mod:`repro.optimizer.synopsis`) and never build a table sample.

The output cardinality of a rank-aware operator is *context-sensitive*: it
depends on ``k`` and on the operator's position in the complete plan, so it
cannot be propagated bottom-up from base-table statistics.  The paper's
estimator:

1. Build a small (e.g. 0.1%) sample of every table and evaluate all ranking
   predicates on it — reusable across queries.
2. Before enumeration, run the query *conventionally* on the sample for
   ``k' = ceil(k × s%)`` results; the k'-th score ``x'`` estimates ``x``,
   the final k-th result score on the full database.
3. During enumeration, execute each candidate subplan on the sample and
   count ``u``, its outputs scoring above ``x'``.  Scale to the full
   database with the §5.2 propagation formulas:

   * leaf:    ``card(P) = u / s%``
   * unary:   ``card(P) = u × card(P') / cards(P')``
   * binary:  ``card(P) = u × (card(P1)/cards(P1) + card(P2)/cards(P2)) / 2``

   where ``cards(·)`` are the children's *sample* output counts observed
   while running ``P`` on the sample.

Sample executions are memoized per plan fingerprint, as the paper
prescribes ("the results are kept together with P").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..algebra.expressions import Expression, Params
from ..algebra.predicates import ScoringFunction
from ..algebra.rank_relation import rank_order_key, ScoredRow
from ..storage.catalog import Catalog
from ..storage.index import ColumnIndex, MultiKeyIndex, RankIndex
from ..execution.iterator import ExecutionContext
from .plans import PlanNode
from .query_spec import QuerySpec
from .synopsis import passing_fraction

DEFAULT_SAMPLE_RATIO = 0.001
#: Sample executions cap: a runaway subplan on the sample stops here.
MAX_SAMPLE_OUTPUTS = 1_000_000


class SampleDatabase:
    """A parallel catalog holding an s% Bernoulli sample of every table.

    Tables keep their names, so any plan built for the real catalog runs
    unchanged against the sample.  Secondary indexes are rebuilt on the
    sample so rank-scans stay available.
    """

    def __init__(
        self,
        catalog: Catalog,
        ratio: float = DEFAULT_SAMPLE_RATIO,
        seed: int = 0,
        min_rows: int = 1,
    ):
        if not 0 < ratio <= 1:
            raise ValueError("sample ratio must be in (0, 1]")
        self.source = catalog
        self.ratio = ratio
        self.catalog = Catalog()
        rng = random.Random(seed)
        for predicate in catalog.predicates():
            self.catalog.register_predicate(predicate)
        for table in catalog.tables():
            bare_schema = table.schema.with_table(None)
            sample = self.catalog.create_table(table.name, bare_schema)
            chosen = [row for row in table.rows() if rng.random() < ratio]
            if len(chosen) < min_rows and table.row_count:
                # Guarantee a non-empty sample so subplan runs stay defined.
                rows = list(table.rows())
                while len(chosen) < min(min_rows, len(rows)):
                    extra = rows[rng.randrange(len(rows))]
                    if extra not in chosen:
                        chosen.append(extra)
            for row in chosen:
                sample.insert(row.values)
            self._mirror_indexes(table, sample)

    def _mirror_indexes(self, source_table, sample_table) -> None:
        for name, index in source_table.indexes.items():
            if isinstance(index, RankIndex):
                predicate = self.source.predicate(index.predicate_name)
                sample_table.attach_index(
                    RankIndex(
                        name,
                        sample_table.schema,
                        index.predicate_name,
                        predicate.compile(sample_table.schema),
                    )
                )
            elif isinstance(index, MultiKeyIndex):
                predicate = self.source.predicate(index.predicate_name)
                # The sample table keeps the source name, so qualified
                # column references resolve unchanged.
                sample_table.attach_index(
                    MultiKeyIndex(
                        name,
                        sample_table.schema,
                        index.bool_column,
                        index.predicate_name,
                        predicate.compile(sample_table.schema),
                    )
                )
            elif isinstance(index, ColumnIndex):
                sample_table.attach_index(
                    ColumnIndex(name, sample_table.schema, index.column)
                )


@dataclass
class SampleRun:
    """Memoized result of executing one subplan on the sample."""

    outputs_above_cutoff: int
    child_sample_outputs: tuple[int, ...]
    estimated_cardinality: float


class CardinalityEstimator:
    """The §5.2 sampling estimator, bound to one query."""

    def __init__(
        self,
        catalog: Catalog,
        spec: QuerySpec,
        sample: SampleDatabase | None = None,
        ratio: float = DEFAULT_SAMPLE_RATIO,
        seed: int = 0,
        params: Params = None,
    ):
        self.spec = spec
        #: the statement's bind-variable values, for its conditions
        self.params = params
        self.sample = sample or SampleDatabase(catalog, ratio=ratio, seed=seed)
        self.scoring = spec.scoring
        self._memo: dict[str, SampleRun] = {}
        self.cutoff = self._estimate_cutoff()

    # ------------------------------------------------------------------
    # step 2: estimate x' by answering the query conventionally on the sample
    # ------------------------------------------------------------------
    def _estimate_cutoff(self) -> float:
        """``x'``: the k'-th top score of the query run on the sample."""
        k_prime = max(1, math.ceil(self.spec.k * self.sample.ratio))
        results = self._conventional_sample_answer()
        if len(results) < k_prime:
            return -math.inf
        ordered = sorted(results, key=lambda s: rank_order_key(self.scoring, s))
        return self.scoring.upper_bound(ordered[k_prime - 1].scores)

    def _conventional_sample_answer(self) -> list[ScoredRow]:
        """Materialize the full query answer on the sample (naive plan)."""
        catalog = self.sample.catalog
        spec = self.spec
        # Accumulate the filtered cross product table by table.
        current: list[ScoredRow] | None = None
        joined: frozenset[str] = frozenset()
        schema = None
        for table_name in spec.tables:
            table = catalog.table(table_name)
            rows = [ScoredRow(r, {}) for r in table.rows()]
            for condition in spec.selections_on(table_name):
                fn = condition.compile(table.schema, self.params)
                rows = [s for s in rows if fn(s.row)]
            if current is None:
                current, schema, joined = rows, table.schema, frozenset({table_name})
                continue
            new_schema = schema.concat(table.schema)
            new_joined = joined | {table_name}
            conditions = [
                j.predicate
                for j in spec.join_conditions_between(joined, frozenset({table_name}))
            ]
            evaluators = [c.compile(new_schema, self.params) for c in conditions]
            combined: list[ScoredRow] = []
            for left in current:
                for right in rows:
                    merged = left.merge(right)
                    if all(fn(merged.row) for fn in evaluators):
                        combined.append(merged)
            current, schema, joined = combined, new_schema, new_joined
        assert current is not None and schema is not None
        out: list[ScoredRow] = []
        compiled = {
            p.name: p.compile(schema) for p in self.scoring.predicates
        }
        for scored in current:
            scores = {name: fn(scored.row) for name, fn in compiled.items()}
            out.append(ScoredRow(scored.row, scores))
        return out

    def selectivity(self, table: str, expression: Expression) -> float:
        """A single-table condition's selectivity, on the sample."""
        sample = self.sample.catalog.table(table)
        return passing_fraction(
            list(sample.rows()), expression.compile(sample.schema, self.params)
        )

    # ------------------------------------------------------------------
    # step 3: per-subplan estimation with the propagation formulas
    # ------------------------------------------------------------------
    def estimate(self, plan: PlanNode) -> float:
        """Estimated output cardinality of ``plan`` on the full database."""
        return self._run(plan).estimated_cardinality

    def sample_outputs(self, plan: PlanNode) -> int:
        """``cards(P)``: the subplan's output count on the sample."""
        return self._run(plan).outputs_above_cutoff

    def _run(self, plan: PlanNode) -> SampleRun:
        key = plan.fingerprint()
        if key in self._memo:
            return self._memo[key]
        u, child_outputs = self._execute_on_sample(plan)
        card = self._scale(plan, u, child_outputs)
        run = SampleRun(u, child_outputs, card)
        self._memo[key] = run
        return run

    def _execute_on_sample(self, plan: PlanNode) -> tuple[int, tuple[int, ...]]:
        """Run the subplan on the sample; count outputs scoring >= x'."""
        context = ExecutionContext(
            self.sample.catalog, self.scoring, params=self.params
        )
        root = plan.build()
        root.open(context)
        try:
            u = 0
            ranked = plan.is_ranked
            while u < MAX_SAMPLE_OUTPUTS:
                scored = root.next()
                if scored is None:
                    break
                above = context.upper_bound(scored) >= self.cutoff
                if above:
                    u += 1
                elif ranked:
                    # Ranked output is descending: nothing above x' follows.
                    break
            children = tuple(
                child_operator.stats.tuples_out
                for child_operator in root.children()
            )
        finally:
            root.close()
        return u, children

    def _scale(self, plan: PlanNode, u: int, child_sample_outputs: tuple[int, ...]) -> float:
        ratio = self.sample.ratio
        if not plan.children:
            return u / ratio
        child_ratios = []
        for child, cards in zip(plan.children, child_sample_outputs):
            child_card = self._run(child).estimated_cardinality
            if cards > 0:
                child_ratios.append(child_card / cards)
            else:
                # Degenerate sample: fall back to the raw sampling ratio.
                child_ratios.append(1.0 / ratio)
        return u * sum(child_ratios) / len(child_ratios)
