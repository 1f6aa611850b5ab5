"""Cost-governed hybrid execution: the execution regime as an optimizer decision.

The paper's central argument is that the optimizer should *price*
alternative execution strategies in one cost model and pick per plan, the
same way it prices rank-aware against traditional plans.  This module is
that pricing pass for the execution-regime dimension.  Every maximal
unranked (``P = φ``) segment of a physical plan is priced as

* **row** — tuple-at-a-time, the plan as enumerated;
* **batch@dop** — the lowered columnar twin (:mod:`repro.execution.batch`)
  at every candidate degree of parallelism up to the statement's
  ``parallelism`` ceiling
  (:meth:`~repro.optimizer.cost_model.CostModel.parallel_segment_cost`);
* **compiled** — the fused generated function
  (:mod:`repro.execution.codegen`,
  :meth:`~repro.optimizer.cost_model.CostModel.compiled_segment_cost`),
  when ``compiled_mode`` enables it and the generator supports the shape;

and the cheapest regime wins:

* :class:`SegmentDecision` — one priced comparison: the segment, each
  regime's estimated cost, and the winner;
* :func:`decide_batch_lowering` — walk a plan top-down, price every
  maximal lowerable segment under the plan's own
  :class:`~repro.optimizer.cost_model.CostModel`, and wrap it in a
  :class:`~repro.optimizer.plans.BatchSegmentPlan` (stamped with the
  chosen DOP) only when a lowered regime is estimated cheaper.

Small segments stay tuple-at-a-time: the per-segment setup and the
per-tuple ``BatchToRow`` frontier conversion (``BATCH_SETUP_UNIT``,
``FRONTIER_TUPLE_UNIT``) outweigh the dispatch savings below a few hundred
tuples, and worker setup plus morsel dispatch keep them at DOP 1.  Large
drained segments lower — the bulk regime replaces row-mode per-tuple
dispatch (``MOVE_UNIT``) with per-batch dispatch plus a ~5× smaller
per-tuple handling cost — and segments whose morsel count exceeds the DOP
divide their work and win.

Under ``compiled_mode="auto"`` the compiled regime must beat *both*
others; under ``"always"`` (``execution="compiled"``) every supported
segment compiles.  Segments the generator cannot reproduce
(non-sort-topped, rank-carrying, exotic operators) are never priced for
compilation and keep their costed row-vs-batch outcome — the interpreter
remains the fallback and the parity oracle.

The enumerator prices :class:`BatchSegmentPlan` alternatives *during* the
DP (its ``price_batch`` knob), so the pass also runs over wrappers that
already exist: they are re-priced and annotated, never re-wrapped, so the
recorded decisions always reflect the one cost model that produced the
plan.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .cost_model import CostModel
from .plans import (
    BatchSegmentPlan,
    PlanNode,
    SortPlan,
    segment_lowerable,
)


@dataclass
class SegmentDecision:
    """One priced row-vs-batch comparison for a maximal ``P = φ`` segment."""

    #: label of the segment's root operator (matches the plan tree)
    segment: str
    #: estimated cost of executing the segment tuple-at-a-time
    row_cost: float
    #: estimated cost of the lowered twin at DOP 1 (bulk operators +
    #: BatchToRow frontier + per-segment setup)
    batch_cost: float
    #: chosen degree of parallelism (1 = serial batch execution)
    dop: int = 1
    #: estimated batch cost per candidate DOP, ``{dop: cost}``; always
    #: contains at least ``{1: batch_cost}``
    parallel_costs: dict[int, float] = field(default_factory=dict)
    #: estimated cost of the compiled fused-function twin, or None when the
    #: segment was not priced for compilation (mode off / unsupported shape)
    compiled_cost: float | None = None
    #: the compiled-regime mode this decision was priced under:
    #: "off" (never compile), "auto" (compile iff cheapest), or "always"
    #: (forced — every supported segment compiles)
    compiled_mode: str = "off"

    @property
    def chosen_batch_cost(self) -> float:
        """Batch-regime cost at the chosen DOP."""
        return self.parallel_costs.get(self.dop, self.batch_cost)

    @property
    def compiled_chosen(self) -> bool:
        """Whether the compiled regime wins this segment.  ``None``
        compiled_cost means the segment has no compiled twin, so forced
        mode still falls back to the interpreted pipeline."""
        if self.compiled_cost is None:
            return False
        if self.compiled_mode == "always":
            return True
        return (
            self.compiled_cost < self.row_cost
            and self.compiled_cost < self.chosen_batch_cost
        )

    @property
    def lowered(self) -> bool:
        if self.compiled_chosen:
            return True
        # Segments without a compiled twin (unsupported shapes) keep the
        # normal costed row-vs-batch outcome in every compiled mode; a
        # *chosen* segment whose compilation later fails falls back to
        # the interpreted batch pipeline of the same wrapper.
        return self.chosen_batch_cost < self.row_cost

    @property
    def winner(self) -> str:
        if self.compiled_chosen:
            return "compiled"
        if not self.lowered:
            return "row"
        return "batch" if self.dop <= 1 else f"batch(dop={self.dop})"

    def summary(self) -> str:
        text = (
            f"row cost={self.row_cost:,.0f} vs batch cost={self.batch_cost:,.0f}"
        )
        if self.dop > 1:
            text += (
                f" vs batch@dop={self.dop} cost={self.chosen_batch_cost:,.0f}"
            )
        if self.compiled_cost is not None:
            text += f" vs compiled cost={self.compiled_cost:,.0f}"
        return f"{text} -> {self.winner}"


def _dop_candidates(max_dop: int) -> list[int]:
    """Candidate degrees of parallelism up to the session knob: powers of
    two plus ``max_dop`` itself (the classical exchange-operator ladder)."""
    max_dop = max(1, int(max_dop))
    candidates = [1]
    dop = 2
    while dop < max_dop:
        candidates.append(dop)
        dop *= 2
    if max_dop > 1:
        candidates.append(max_dop)
    return candidates


def price_segment(
    segment: PlanNode,
    cost_model: CostModel,
    max_dop: int = 1,
    compiled_mode: str = "off",
) -> SegmentDecision:
    """Price the execution regimes — row, every candidate DOP of the batch
    regime up to ``max_dop``, and (when ``compiled_mode`` enables it and
    the code generator supports the shape) the compiled fused function —
    for one lowerable segment.

    ``segment`` may already be wrapped in a :class:`BatchSegmentPlan` (the
    enumerator's doing); the comparison is always between the regime twins
    of the inner tree.  The decision's ``dop`` is the cheapest batch
    candidate (ties break low, so parallelism must *win*, not merely
    match, to be chosen).
    """
    inner = segment.inner if isinstance(segment, BatchSegmentPlan) else segment
    parallel_costs = {
        dop: cost_model.parallel_segment_cost(inner, dop)
        for dop in _dop_candidates(max_dop)
    }
    best_dop = min(parallel_costs, key=lambda dop: (parallel_costs[dop], dop))
    compiled_cost = None
    if compiled_mode != "off":
        from ..execution import codegen

        if codegen.supports(inner, cost_model.catalog, cost_model.scoring):
            compiled_cost = cost_model.compiled_segment_cost(inner)
    return SegmentDecision(
        segment=inner.label(),
        row_cost=cost_model.cost(inner),
        batch_cost=parallel_costs[1],
        dop=best_dop,
        parallel_costs=parallel_costs,
        compiled_cost=compiled_cost,
        compiled_mode=compiled_mode,
    )


def decide_batch_lowering(
    plan: PlanNode,
    cost_model: CostModel,
    max_dop: int = 1,
    compiled_mode: str = "off",
) -> tuple[PlanNode, list[SegmentDecision]]:
    """Lower each maximal ``P = φ`` segment of ``plan`` iff batch wins.

    Returns the decided plan (nodes treated as immutable — rewritten
    interior nodes are shallow copies, as in
    :func:`~repro.optimizer.plans.lower_to_batch`) and the list of
    per-segment decisions, in plan order.  Segments the enumerator already
    wrapped are kept (and annotated); segments it left row-mode are priced
    here — the same cost model reaches the same conclusion, so the pass is
    a no-op on fully DP-decided plans apart from collecting the records.
    """
    decisions: list[SegmentDecision] = []
    decided = _decide(
        plan, cost_model, decisions, max(1, int(max_dop)), compiled_mode
    )
    return decided, decisions


def _decide(
    plan: PlanNode,
    cost_model: CostModel,
    decisions: list[SegmentDecision],
    max_dop: int,
    compiled_mode: str,
) -> PlanNode:
    if isinstance(plan, BatchSegmentPlan):
        # Already decided (by the enumerator or a previous pass): keep, but
        # record and annotate the comparison that justifies it — including
        # the DOP choice, which the enumerator does not price.
        decision = price_segment(plan, cost_model, max_dop, compiled_mode)
        plan.decision = decision
        if decision.lowered:
            plan.dop = decision.dop
        decisions.append(decision)
        return plan

    # Price the largest lowerable candidate rooted here: the whole subtree
    # when it is a pure ``P = φ`` segment, or the sort-inclusive twin when
    # a blocking sort sits on such a segment (it lowers to BatchSort).
    # When the maximal candidate loses, recursion continues below — a
    # smaller sub-segment may still win on its own (its frontier sits at a
    # cheaper point of the plan).
    is_candidate = segment_lowerable(plan) or (
        isinstance(plan, SortPlan) and segment_lowerable(plan.children[0])
    )
    if is_candidate:
        decision = price_segment(plan, cost_model, max_dop, compiled_mode)
        decisions.append(decision)
        if decision.lowered:
            wrapped = BatchSegmentPlan(plan, dop=decision.dop)
            wrapped.decision = decision
            return wrapped

    if not plan.children:
        return plan
    decided = tuple(
        _decide(child, cost_model, decisions, max_dop, compiled_mode)
        for child in plan.children
    )
    if all(new is old for new, old in zip(decided, plan.children)):
        return plan
    clone = copy.copy(plan)
    clone.children = decided
    return clone


def render_decisions(decisions: list[SegmentDecision]) -> str:
    """The explain footer: every priced segment, both costs, the winner."""
    if not decisions:
        return "hybrid execution: no lowerable segments"
    lines = ["hybrid execution decisions (costed per segment):"]
    for decision in decisions:
        lines.append(f"  {decision.segment}: {decision.summary()}")
    return "\n".join(lines)
