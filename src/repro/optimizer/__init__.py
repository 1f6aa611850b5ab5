"""Rank-aware query optimizer: plans, costing, estimation, DP."""

from .cardinality import (
    DEFAULT_SAMPLE_RATIO,
    CardinalityEstimator,
    SampleDatabase,
    SampleRun,
)
from .cost_model import CostModel, DEFAULT_JOIN_SELECTIVITY
from .explain import AnalyzeReport, NodeReport, explain_analyze
from .enumeration import (
    Candidate,
    OptimizationError,
    RankAwareOptimizer,
    optimize_traditional,
)
from .hybrid import SegmentDecision, decide_regimes, render_decisions
from .plans import (
    BatchSegmentPlan,
    ColumnOrderScanPlan,
    FilterPlan,
    HRJNPlan,
    HashJoinPlan,
    LimitPlan,
    MuPlan,
    NRJNPlan,
    NestedLoopJoinPlan,
    PlanNode,
    ProjectPlan,
    RankDifferencePlan,
    RankIntersectPlan,
    RankScanPlan,
    RankUnionPlan,
    ScanSelectPlan,
    SeqScanPlan,
    SortMergeJoinPlan,
    SortPlan,
)
from .query_spec import JoinCondition, QuerySpec
from .rule_based import RuleBasedOptimizer
from .synopsis import JoinSynopsis, SynopsisEstimator

__all__ = [
    "AnalyzeReport",
    "Candidate",
    "CardinalityEstimator",
    "ColumnOrderScanPlan",
    "CostModel",
    "DEFAULT_JOIN_SELECTIVITY",
    "DEFAULT_SAMPLE_RATIO",
    "FilterPlan",
    "HRJNPlan",
    "HashJoinPlan",
    "JoinCondition",
    "JoinSynopsis",
    "LimitPlan",
    "MuPlan",
    "NRJNPlan",
    "NodeReport",
    "NestedLoopJoinPlan",
    "OptimizationError",
    "PlanNode",
    "ProjectPlan",
    "QuerySpec",
    "RankAwareOptimizer",
    "RankDifferencePlan",
    "RankIntersectPlan",
    "RankScanPlan",
    "RankUnionPlan",
    "RuleBasedOptimizer",
    "SampleDatabase",
    "explain_analyze",
    "SampleRun",
    "ScanSelectPlan",
    "BatchSegmentPlan",
    "SegmentDecision",
    "SeqScanPlan",
    "SortMergeJoinPlan",
    "SortPlan",
    "SynopsisEstimator",
    "decide_regimes",
    "optimize_traditional",
    "render_decisions",
]
