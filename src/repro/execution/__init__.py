"""Physical execution engine: rank-aware iterators, compiled segments for
the materialize-then-sort plan, and metrics."""

from .filter import Filter, Project
from .iterator import (
    EvaluatorCache,
    ExecutionContext,
    PhysicalOperator,
    RankingQueue,
    collect_plan,
    explain_physical,
    run_plan,
)
from .joins import HRJN, NRJN, HashJoin, NestedLoopJoin, SortMergeJoin
from .metrics import (
    BOOLEAN_EVAL_UNIT,
    COMPARE_UNIT,
    JOIN_PAIR_UNIT,
    MOVE_UNIT,
    SCAN_UNIT,
    ExecutionMetrics,
    OperatorStats,
)
from .rank import Mu
from .scans import ColumnOrderScan, RankScan, ScanSelect, SeqScan
from .setops import RankDifference, RankIntersect, RankUnion
from .sort import Limit, Sort
__all__ = [
    "BOOLEAN_EVAL_UNIT",
    "COMPARE_UNIT",
    "ColumnOrderScan",
    "EvaluatorCache",
    "ExecutionContext",
    "ExecutionMetrics",
    "Filter",
    "HRJN",
    "HashJoin",
    "JOIN_PAIR_UNIT",
    "Limit",
    "MOVE_UNIT",
    "Mu",
    "NRJN",
    "NestedLoopJoin",
    "OperatorStats",
    "PhysicalOperator",
    "Project",
    "RankDifference",
    "RankIntersect",
    "RankScan",
    "RankUnion",
    "RankingQueue",
    "SCAN_UNIT",
    "ScanSelect",
    "SeqScan",
    "Sort",
    "SortMergeJoin",
    "collect_plan",
    "explain_physical",
    "run_plan",
]
