"""The execution regime as a costed post-pass: row or compiled, per segment.

The paper's central argument is that the optimizer should *price*
alternative execution strategies in one cost model and pick per plan, the
same way it prices rank-aware against traditional plans.  This module is
that pricing pass for the execution regime.  The DP enumerates row plans
only; afterwards every blocking sort over an unranked (``P = φ``) subtree —
the traditional materialize-then-sort segment — is priced as

* **row** — tuple-at-a-time, the plan as enumerated
  (:meth:`~repro.optimizer.cost_model.CostModel.cost`);
* **compiled** — one fused generated function
  (:mod:`repro.execution.codegen`,
  :meth:`~repro.optimizer.cost_model.CostModel.compiled_segment_cost`),
  when the code generator supports the shape;

and the cheaper regime wins.  Under ``execution="compiled"`` every
supported segment compiles regardless of price.  A segment that is
unsupported (a rank-carrying input, a sort-merge or nested-loop join, an
exotic expression), or whose compilation fails, runs as its row plan —
the row plan is also the parity oracle of the compiled one.

Rank-aware operators (µ, rank-joins, rank set-ops, rank-scans) are never
part of a segment: compiling them would destroy the incremental emission
the ranking principle is about.

* :class:`SegmentDecision` — one priced comparison: the segment, both
  regimes' estimated costs, and the winner;
* :func:`decide_regimes` — walk a plan top-down, price every candidate
  segment under the plan's own cost model, compile the winners and wrap
  each in a :class:`~repro.optimizer.plans.BatchSegmentPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..execution import codegen
from .cost_model import CostModel
from .plans import BatchSegmentPlan, PlanNode, SortPlan


@dataclass
class SegmentDecision:
    """One priced row-vs-compiled comparison for a sort-topped segment."""

    #: label of the segment's root operator (matches the plan tree)
    segment: str
    #: estimated cost of executing the segment tuple-at-a-time
    row_cost: float
    #: estimated cost of the compiled fused function, or None when the code
    #: generator has no form for the segment
    compiled_cost: float | None = None
    #: whether ``execution="compiled"`` forces every supported segment
    forced: bool = False

    @property
    def compiled_chosen(self) -> bool:
        """Whether the compiled regime wins this segment."""
        if self.compiled_cost is None:
            return False
        return self.forced or self.compiled_cost < self.row_cost

    @property
    def winner(self) -> str:
        return "compiled" if self.compiled_chosen else "row"

    def summary(self) -> str:
        text = f"row cost={self.row_cost:,.0f}"
        if self.compiled_cost is None:
            text += " (no compiled form)"
        else:
            text += f" vs compiled cost={self.compiled_cost:,.0f}"
        return f"{text} -> {self.winner}"


def price_segment(
    segment: PlanNode, cost_model: CostModel, forced: bool = False
) -> SegmentDecision:
    """Price one candidate segment as row and, when the code generator
    supports it, as compiled."""
    compiled_cost = None
    if codegen.supports(segment, cost_model.catalog, cost_model.scoring):
        compiled_cost = cost_model.compiled_segment_cost(segment)
    return SegmentDecision(
        segment=segment.label(),
        row_cost=cost_model.cost(segment),
        compiled_cost=compiled_cost,
        forced=forced,
    )


def decide_regimes(
    plan: PlanNode, cost_model: CostModel, forced: bool = False
) -> tuple[PlanNode, list[SegmentDecision], int, float]:
    """Compile each candidate segment of ``plan`` whose decision picks the
    compiled regime.

    Returns ``(plan, decisions, segments_compiled, compile_seconds)``.
    The decided plan shares every untouched subtree with ``plan``;
    rewritten interior nodes are fresh nodes, so a row plan and its
    decided twin can coexist.  A segment whose compilation raises keeps
    its row plan, invisibly to the client.
    """
    decisions: list[SegmentDecision] = []
    compiled: list = []
    decided = _decide(plan, cost_model, forced, decisions, compiled)
    return (
        decided,
        decisions,
        len(compiled),
        sum(artifact.compile_seconds for artifact in compiled),
    )


def _decide(plan, cost_model, forced, decisions, compiled) -> PlanNode:
    # A candidate segment: a blocking sort over a subtree with no ranking
    # predicate evaluated (P = φ).
    if isinstance(plan, SortPlan) and not plan.children[0].rank_predicates:
        decision = price_segment(plan, cost_model, forced)
        decisions.append(decision)
        if decision.compiled_chosen:
            try:
                artifact = codegen.compile_segment(
                    plan, cost_model.catalog, cost_model.scoring
                )
            except Exception:
                return plan
            compiled.append(artifact)
            return BatchSegmentPlan(plan, artifact, decision)
        return plan
    if not plan.children:
        return plan
    children = tuple(
        _decide(child, cost_model, forced, decisions, compiled)
        for child in plan.children
    )
    if all(new is old for new, old in zip(children, plan.children)):
        return plan
    return plan.with_children(children)


def render_decisions(decisions: list[SegmentDecision]) -> str:
    """The explain footer: every priced segment, both costs, the winner."""
    if not decisions:
        return "execution regime: no sort-topped segments"
    lines = ["execution regime decisions (costed per segment):"]
    for decision in decisions:
        lines.append(f"  {decision.segment}: {decision.summary()}")
    return "\n".join(lines)
