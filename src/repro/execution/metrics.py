"""Execution metrics: the simulated-cost substrate.

The paper measures wall-clock seconds on 2005 hardware inside PostgreSQL;
the *shape* of every reported curve is determined by operation counts —
tuples scanned, predicate evaluations (weighted by per-predicate cost),
join pairs examined, tuples moved between operators.  Every physical
operator charges an :class:`ExecutionMetrics` instance, and benchmarks
report both wall time and the deterministic :attr:`simulated_cost` so the
cost-dominated regimes (e.g., Figure 12(b), predicate cost 0→1000)
reproduce exactly.

Per-operator input/output cardinalities are also recorded
(:class:`OperatorStats`) — these are the "real output cardinalities" of
Figure 13 and the selectivity observations of §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Cost-unit weights of the simulated cost model.  A heap/index tuple read is
#: the unit; moving a tuple through an operator boundary and examining a join
#: pair are fractions of it; ranking-predicate evaluations contribute their
#: own per-predicate cost directly (the experiments sweep it 0..1000).
SCAN_UNIT = 1.0
MOVE_UNIT = 0.05
JOIN_PAIR_UNIT = 0.2
BOOLEAN_EVAL_UNIT = 0.1
COMPARE_UNIT = 0.01


@dataclass
class OperatorStats:
    """Input/output cardinalities of one operator instance in a plan."""

    name: str
    tuples_in: int = 0
    tuples_out: int = 0
    #: wall-clock seconds attributed to this operator.  Only a compiled
    #: segment records it (the time of its fused function call); row
    #: operators leave it at zero.
    wall_seconds: float = 0.0

    @property
    def selectivity(self) -> float:
        """Observed output/input ratio (1.0 for sources with no input)."""
        if self.tuples_in == 0:
            return 1.0
        return self.tuples_out / self.tuples_in


@dataclass
class ExecutionMetrics:
    """Counters accumulated while a physical plan runs."""

    tuples_scanned: int = 0
    tuples_moved: int = 0
    predicate_evaluations: int = 0
    predicate_cost_units: float = 0.0
    boolean_evaluations: int = 0
    boolean_cost_units: float = 0.0
    join_pairs_examined: int = 0
    comparisons: int = 0
    operators: dict[str, OperatorStats] = field(default_factory=dict)

    def charge_scan(self, count: int = 1) -> None:
        self.tuples_scanned += count

    def charge_move(self, count: int = 1) -> None:
        self.tuples_moved += count

    def charge_predicate(self, cost: float, count: int = 1) -> None:
        self.predicate_evaluations += count
        self.predicate_cost_units += cost * count

    def charge_boolean(self, count: int = 1, cost: float = BOOLEAN_EVAL_UNIT) -> None:
        self.boolean_evaluations += count
        self.boolean_cost_units += cost * count

    def charge_join_pair(self, count: int = 1) -> None:
        self.join_pairs_examined += count

    def charge_comparisons(self, count: int = 1) -> None:
        self.comparisons += count

    def stats_for(self, operator_name: str) -> OperatorStats:
        """The (created-on-demand) per-operator stats record."""
        if operator_name not in self.operators:
            self.operators[operator_name] = OperatorStats(operator_name)
        return self.operators[operator_name]

    @property
    def simulated_cost(self) -> float:
        """Deterministic total cost in abstract units (see module docstring)."""
        return (
            self.tuples_scanned * SCAN_UNIT
            + self.tuples_moved * MOVE_UNIT
            + self.join_pairs_examined * JOIN_PAIR_UNIT
            + self.boolean_cost_units
            + self.comparisons * COMPARE_UNIT
            + self.predicate_cost_units
        )

    def summary(self) -> dict[str, float]:
        """A flat dict of the headline counters (for reports/benchmarks)."""
        return {
            "tuples_scanned": self.tuples_scanned,
            "tuples_moved": self.tuples_moved,
            "predicate_evaluations": self.predicate_evaluations,
            "predicate_cost_units": self.predicate_cost_units,
            "boolean_evaluations": self.boolean_evaluations,
            "boolean_cost_units": self.boolean_cost_units,
            "join_pairs_examined": self.join_pairs_examined,
            "comparisons": self.comparisons,
            "simulated_cost": self.simulated_cost,
        }
