"""Physical execution engine: rank-aware iterators, the batched columnar
path for unranked segments, and metrics."""

from .batch import (
    BATCH_SIZE,
    Batch,
    BatchColumnOrderScan,
    BatchFilter,
    BatchHashJoin,
    BatchNestedLoopJoin,
    BatchOperator,
    BatchProject,
    BatchScan,
    BatchSort,
    BatchSortMergeJoin,
    BatchToRow,
)
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
from .vectors import (
    numpy_available,
    set_backend as set_vector_backend,
    backend as vector_backend,
)

__all__ = [
    "BATCH_SIZE",
    "BOOLEAN_EVAL_UNIT",
    "Batch",
    "BatchColumnOrderScan",
    "BatchFilter",
    "BatchHashJoin",
    "BatchNestedLoopJoin",
    "BatchOperator",
    "BatchProject",
    "BatchScan",
    "BatchSort",
    "BatchSortMergeJoin",
    "BatchToRow",
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
    "numpy_available",
    "run_plan",
    "set_vector_backend",
    "vector_backend",
]
