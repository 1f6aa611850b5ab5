"""EXPLAIN ANALYZE: per-operator estimated vs actual statistics.

Runs a physical plan and renders its tree with, per operator,

* the optimizer's *estimated* output rows and cost — those of the cost
  model that chose the plan, when the plan came from the planner
  (:attr:`CachedPlan.estimates <repro.planner.cache.CachedPlan.estimates>`)
  — and
* the *actual* tuples in/out observed during execution.

This is the engine's analogue of PostgreSQL's ``EXPLAIN ANALYZE`` and makes
estimator accuracy inspectable on any query::

    limit(10)                        est=10 act=10  (cost=4,204 in=10)
      HRJN(B.jc2=C.jc2)              est=20 act=10  (cost=4,102 in=45)
      ...

Operators whose estimate is off by more than 10x in either direction are
flagged with ``!! <n>x misestimate`` — the human-readable face of the same
estimated-vs-actual feedback the plan cache records for adaptive
replanning (:class:`repro.observe.feedback.PlanFeedback`).  A blocking
sort or compiled segment is judged on the rows it consumed, not on the
few a λ above it pulled.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.predicates import ScoringFunction
from ..execution.iterator import ExecutionContext, PhysicalOperator
from ..observe.feedback import misestimate_factor, pair_plan_operators
from ..storage.catalog import Catalog
from .cost_model import CostModel, plan_estimates
from .plans import BatchSegmentPlan, PlanNode
from .query_spec import QuerySpec
from .synopsis import engine_estimator


@dataclass
class NodeReport:
    """Estimated and actual statistics for one plan node."""

    label: str
    depth: int
    estimated_rows: float
    estimated_cost: float
    actual_in: int
    actual_out: int
    #: measured wall-clock milliseconds of a compiled segment's fused
    #: function call; ``None`` for row-mode operators.
    wall_ms: float | None = None
    #: :attr:`PlanNode.blocking <repro.optimizer.plans.PlanNode.blocking>`
    blocking: bool = False

    @property
    def misestimate_factor(self) -> float:
        """How far off the estimate was (see
        :func:`~repro.observe.feedback.misestimate_factor`)."""
        return misestimate_factor(
            self.estimated_rows, self.actual_in, self.actual_out, self.blocking
        )


@dataclass
class AnalyzeReport:
    """The full EXPLAIN ANALYZE result."""

    nodes: list[NodeReport]
    returned: int
    metrics_summary: dict
    #: per-segment row-vs-compiled pricing records, if any
    decisions: "list | None" = None

    def render(self) -> str:
        """Pretty-print the annotated plan tree."""
        label_width = max(
            (len("  " * n.depth + n.label) for n in self.nodes), default=10
        )
        lines = []
        for node in self.nodes:
            name = "  " * node.depth + node.label
            line = (
                f"{name:<{label_width}}  "
                f"est={node.estimated_rows:,.0f} act={node.actual_out}"
                f"  (cost={node.estimated_cost:,.0f} in={node.actual_in})"
            )
            if node.wall_ms is not None:
                line += f" time={node.wall_ms:.2f}ms"
            if node.misestimate_factor > 10.0:
                line += f"  !! {node.misestimate_factor:,.1f}x misestimate"
            lines.append(line)
        if self.decisions:
            from .hybrid import render_decisions

            lines.append(render_decisions(self.decisions))
        lines.append(
            f"returned {self.returned} rows; "
            f"measured cost {self.metrics_summary['simulated_cost']:,.1f} units, "
            f"{self.metrics_summary['tuples_scanned']} tuples scanned, "
            f"{self.metrics_summary['predicate_evaluations']} predicate evaluations"
        )
        return "\n".join(lines)


def explain_analyze(
    catalog: Catalog,
    spec: QuerySpec,
    plan: PlanNode,
    k: int | None = None,
    estimates: "dict | None" = None,
    decisions: "list | None" = None,
    params: "dict | None" = None,
) -> AnalyzeReport:
    """Execute ``plan`` and report estimated-vs-actual per operator.

    ``estimates`` maps each node's fingerprint to its ``(estimated rows,
    estimated cost)`` — pass the planner entry's
    :attr:`~repro.planner.cache.CachedPlan.estimates` so the report judges
    the estimator that chose the plan.  Without them the plan is priced
    here by the engine's cost model, on a fresh join synopsis.

    ``plan`` may contain compiled segments (:class:`BatchSegmentPlan`):
    each is reported as one node, since the fused function has no
    per-operator twins to descend into; its time is the function call's.
    ``decisions`` (the per-segment regime pricing records) are rendered as
    a footer when supplied.  ``params`` are the execution's validated
    bind-variable values.
    """
    if estimates is None:
        estimator = engine_estimator(catalog, spec, params=params)
        estimates = plan_estimates(plan, CostModel(catalog, spec, estimator))
    scoring: ScoringFunction = spec.scoring
    context = ExecutionContext(catalog, scoring, params=params)
    root = plan.build()
    root.open(context)
    try:
        returned = 0
        target = spec.k if k is None else k
        while returned < target:
            if root.next() is None:
                break
            returned += 1
        nodes = [
            _report(node, operator, depth, estimates)
            for node, operator, depth in pair_plan_operators(plan, root)
        ]
    finally:
        root.close()
    return AnalyzeReport(nodes, returned, context.metrics.summary(), decisions)


def _report(
    plan: PlanNode,
    operator: PhysicalOperator,
    depth: int,
    estimates: dict,
) -> NodeReport:
    label = plan.label()
    wall_ms = None
    if isinstance(plan, BatchSegmentPlan):
        label = operator.describe()
        if plan.decision is not None:
            label += f" ({plan.decision.summary()})"
        wall_ms = operator.stats.wall_seconds * 1000.0
    estimated_rows, estimated_cost = estimates[plan.fingerprint()]
    return NodeReport(
        label=label,
        depth=depth,
        estimated_rows=estimated_rows,
        estimated_cost=estimated_cost,
        actual_in=operator.stats.tuples_in,
        actual_out=operator.stats.tuples_out,
        wall_ms=wall_ms,
        blocking=plan.blocking,
    )
