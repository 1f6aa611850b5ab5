"""Per-operator estimated-vs-actual feedback, recorded into cached plans.

This is the concrete seam for the ROADMAP's "adaptive re-optimization
from observed cardinalities" item: every execution of a cached plan
folds its per-operator actual row counts into the entry's
:class:`PlanFeedback`, next to the optimizer's estimates, so a future
re-planning pass can ask each entry "where was the estimator wrong, and
by how much?" without re-running anything.

The node list is built at *first* execution, when the physical operator
tree exists — that is the only moment the plan-descriptor ↔ operator
pairing is unambiguous (a compiled segment collapses its descriptor
subtree into one fused operator; pairing at prepare time would count
nodes that never materialize).  Estimates are the ones the cost model
that chose the plan priced it with, carried on the cache entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["OperatorFeedback", "PlanFeedback", "pair_plan_operators"]


def misestimate_factor(
    estimated_rows: float, actual_in: float, actual_out: float, blocking: bool
) -> float:
    """How far a node's row estimate is off, as a ≥1 ratio (10.0 = 10× in
    either direction), zero-floored: a blocking node is judged on the rows
    it consumed, any other on the rows it emitted.  The one rule of both
    ``explain_analyze`` and the feedback store."""
    estimated = max(estimated_rows, 1.0)
    actual = max(float(actual_in if blocking else actual_out), 1.0)
    return max(estimated / actual, actual / estimated)


def pair_plan_operators(
    plan: Any, operator: Any, depth: int = 0
) -> "Iterator[tuple[Any, Any, int]]":
    """Pre-order ``(plan_node, operator, depth)`` pairs for a plan and
    its built operator tree.

    A compiled segment's descriptor builds one operator with no children,
    so the walk stops there: the fused function has no per-node twins.
    This is the single pairing rule shared by ``explain_analyze`` and the
    feedback recorder, so the two always report the same tree.
    """
    yield plan, operator, depth
    for child_plan, child_operator in zip(plan.children, operator.children()):
        yield from pair_plan_operators(child_plan, child_operator, depth + 1)


@dataclass
class OperatorFeedback:
    """Accumulated observations for one plan node across executions."""

    label: str
    depth: int
    estimated_rows: "float | None" = None
    actual_in: int = 0
    actual_out: int = 0
    executions: int = 0
    #: :attr:`PlanNode.blocking <repro.optimizer.plans.PlanNode.blocking>`
    blocking: bool = False

    @property
    def mean_actual_out(self) -> "float | None":
        if self.executions == 0:
            return None
        return self.actual_out / self.executions

    def misestimate_factor(self) -> "float | None":
        """:func:`misestimate_factor` on the mean observed rows; None
        until both sides exist."""
        if self.executions == 0 or self.estimated_rows is None:
            return None
        return misestimate_factor(
            self.estimated_rows,
            self.actual_in / self.executions,
            self.actual_out / self.executions,
            self.blocking,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "depth": self.depth,
            "estimated_rows": self.estimated_rows,
            "actual_in": self.actual_in,
            "actual_out": self.actual_out,
            "executions": self.executions,
            "misestimate_factor": self.misestimate_factor(),
        }


class PlanFeedback:
    """Estimated-vs-actual row counts for every node of one cached plan.

    Thread-safe: concurrent executions of a shared entry fold under the
    instance lock, so counts are never lost (same discipline as the
    metrics registry).
    """

    def __init__(self, nodes: list[OperatorFeedback]):
        self.nodes = nodes
        self._lock = threading.Lock()

    @classmethod
    def build(cls, plan: Any, root_operator: Any, estimates: Any = None):
        """Create the node list from the first execution's operator
        tree; ``estimates`` (optional) maps a node's fingerprint to its
        ``(estimated rows, estimated cost)``."""
        nodes = []
        for plan_node, operator, depth in pair_plan_operators(plan, root_operator):
            estimated = None
            if estimates and plan_node.fingerprint() in estimates:
                estimated = float(estimates[plan_node.fingerprint()][0])
            label = getattr(operator, "describe", None)
            nodes.append(
                OperatorFeedback(
                    label=label() if callable(label) else plan_node.label(),
                    depth=depth,
                    estimated_rows=estimated,
                    blocking=plan_node.blocking,
                )
            )
        return cls(nodes)

    def record(self, plan: Any, root_operator: Any) -> None:
        """Fold one execution's actuals in (positional pairing — same
        pre-order the node list was built from)."""
        pairs = list(pair_plan_operators(plan, root_operator))
        with self._lock:
            if len(pairs) != len(self.nodes):
                return  # plan shape changed under us; skip, never corrupt
            for node, (__, operator, ___) in zip(self.nodes, pairs):
                stats = getattr(operator, "stats", None)
                if stats is None:
                    continue
                node.actual_in += stats.tuples_in
                node.actual_out += stats.tuples_out
                node.executions += 1

    def misestimates(self, factor: float = 10.0) -> list[OperatorFeedback]:
        """Nodes whose estimate is off by more than ``factor``×."""
        with self._lock:
            return [
                node
                for node in self.nodes
                if (node.misestimate_factor() or 0.0) > factor
            ]

    def to_dicts(self) -> list[dict[str, Any]]:
        with self._lock:
            return [node.to_dict() for node in self.nodes]
