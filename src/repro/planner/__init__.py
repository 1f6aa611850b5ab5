"""Staged query planning: parse → bind → optimize → cache → prepared reuse.

This package owns everything between SQL text and an executable physical
plan.  :class:`Planner` runs the one ``(SR, SP)`` DP under two named
strategies (``rank-aware`` | ``traditional``); :class:`PlanCache` memoizes chosen plans by normalized query
signature; :class:`PreparedQuery` and :class:`Session` expose reuse to
clients.  See ``docs/architecture.md`` for the full lifecycle map.
"""

from .cache import CachedPlan, PlanCache, PlanCacheStats
from .planner import Planner, PlannerMetrics, STRATEGIES
from .prepared import PreparedQuery, Session, strip_limit
from .signature import QuerySignature, plan_signature, spec_signature

__all__ = [
    "CachedPlan",
    "PlanCache",
    "PlanCacheStats",
    "Planner",
    "PlannerMetrics",
    "PreparedQuery",
    "QuerySignature",
    "STRATEGIES",
    "Session",
    "plan_signature",
    "spec_signature",
    "strip_limit",
]
