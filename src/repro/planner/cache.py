"""The plan cache: optimized physical plans keyed by query signature.

Repeated traffic (the ROADMAP's north star) re-runs the same parameterized
queries; the two-dimensional ``(SR, SP)`` DP enumeration they pay for is
identical every time.  The cache stores one :class:`CachedPlan` per
normalized signature — the chosen :class:`~repro.optimizer.plans.PlanNode`
plus the compiled-evaluator cache its executions share — with
**cost-weighted eviction** and *generation*-based invalidation: any
DDL/DML/statistics change bumps the owning planner's generation, orphaning
every cached entry at once.

Eviction weighs recency by how expensive the entry is to rebuild: the
victim minimizes ``plan_cost / age`` (an old, cheap-to-replan entry goes
before a slightly-older template whose enumeration took a hundred times
longer).  With uniform costs this degrades exactly to LRU.

The cache is **process-wide shared state** in the concurrent serving
subsystem (:mod:`repro.server`): every session of every client hits the
same instance, so all sessions reuse each other's compiled plans.  All
operations — ``get`` (which reorders and restamps), ``put`` + eviction,
and ``invalidate`` — are atomic under one internal lock; stats counters
are only ever updated while it is held, so no hit, miss or eviction is
lost and no victim is evicted twice under contention.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..algebra.parameters import validate_params
from ..algebra.predicates import ScoringFunction
from ..execution.iterator import EvaluatorCache
from ..optimizer.plans import LimitPlan, PlanNode, ProjectPlan
from ..optimizer.query_spec import QuerySpec
from .signature import QuerySignature


def strip_limit(plan: PlanNode) -> PlanNode:
    """The same plan without its top-level λ_k (for cursors / larger k)."""
    if isinstance(plan, ProjectPlan) and isinstance(plan.children[0], LimitPlan):
        return ProjectPlan(plan.children[0].children[0], plan.columns)
    if isinstance(plan, LimitPlan):
        return plan.children[0]
    return plan


@dataclass
class CachedPlan:
    """One cache entry: a plan, its spec, and its shared runtime artifacts.

    ``k`` and ``scoring`` are snapshotted at prepare time — ``QuerySpec`` is
    mutable, and executing from a live ``spec.k`` would let a caller mutate
    an entry that is keyed under its original signature.

    A cached entry is a value-free *template*: nothing an execution does
    writes into it, so any number of threads may run it at once.  The
    bind-variable values of one execution ride on a *bound* entry
    (:meth:`bind`), which the plan cache never holds.
    """

    signature: QuerySignature
    spec: QuerySpec
    plan: PlanNode
    strategy: str
    evaluators: EvaluatorCache
    #: planner generation the plan was built under (stale when it differs)
    generation: int
    #: result size and scoring function as of prepare time (see above)
    k: int = 0
    scoring: ScoringFunction | None = None
    hits: int = 0
    #: per-segment regime pricing records
    #: (:class:`~repro.optimizer.hybrid.SegmentDecision`) — what explain
    #: renders; ``None`` under ``execution="row"`` (nothing is priced)
    decisions: "list | None" = None
    #: ``fingerprint -> (estimated rows, estimated cost)`` of every plan
    #: node, from the cost model that chose the plan
    #: (:func:`~repro.optimizer.cost_model.plan_estimates`) — what the
    #: feedback and EXPLAIN ANALYZE judge actuals against
    estimates: dict = field(default_factory=dict)
    #: how expensive this entry was to build (measured planning seconds) —
    #: the weight cost-aware eviction protects it with
    plan_cost: float = 0.0
    #: how many of ``plan``'s segments run as a compiled fused function
    #: (the artifacts live on the BatchSegmentPlan wrappers; 0 = pure row
    #: execution)
    compiled_segments: int = 0
    #: wall time spent generating + ``compile()``-ing those functions at
    #: prepare time — amortized across every warm execution of the entry
    compile_seconds: float = 0.0
    #: cache-clock stamp of the last touch (maintained by PlanCache)
    last_used: int = 0
    #: one execution's validated bind-variable values (``{slot key:
    #: value}``) on a bound entry; None on a template
    params: "dict[str, Any] | None" = None
    #: the template a bound entry was made from (None on a template)
    template: "CachedPlan | None" = field(default=None, repr=False)
    #: per-operator estimated-vs-actual row counts
    #: (:class:`~repro.observe.feedback.PlanFeedback`), built at first
    #: execution and folded into by every run — the hook the adaptive
    #: re-planning roadmap item consumes.  ``None`` until executed.
    feedback: "object | None" = None

    def regime(self) -> str:
        """The execution regime this entry runs under: ``compiled`` when
        any segment carries a fused function, else ``row``."""
        return "compiled" if self.compiled_segments else "row"

    def bind(self, params: Any) -> "CachedPlan":
        """This entry bound to one execution's ``params`` — the one place
        any surface validates values for execution.

        A template without parameters is returned itself (``params`` must
        be empty).  Otherwise the result is a shallow copy carrying the
        validated values as :attr:`params` and sharing everything else —
        plan, compiled artifacts, evaluators — with the template, whose
        feedback store its executions fold into (:attr:`template`)."""
        values = validate_params(self.spec.parameters, params)
        if not values:
            return self
        bound = copy.copy(self)
        bound.params = values
        bound.template = self.template or self
        return bound

    @property
    def executable(self) -> PlanNode:
        """The plan executions should build: the costed regime decision
        is part of the chosen plan itself."""
        return self.plan

    def executable_for(self, k: int | None) -> tuple[PlanNode, int]:
        """The executable plan and effective result size for a ``k``
        override — a ``k`` beyond the prepared LIMIT runs the
        limit-stripped twin (shared by prepared statements and server
        sessions, so the override semantics cannot drift apart)."""
        wanted = self.k if k is None else k
        plan = self.executable
        return (plan if wanted <= self.k else strip_limit(plan)), wanted


@dataclass
class PlanCacheStats:
    """Observable cache behaviour (the acceptance-criteria metrics)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """A cost-weighted LRU mapping from query signature to :class:`CachedPlan`.

    Under pressure the victim is the entry minimizing ``plan_cost / age``
    (age in cache-clock ticks since the last touch): recency still matters,
    but an expensive-to-replan template outlives many cheap entries that
    were touched slightly more recently.  Uniform plan costs reduce the
    policy to plain LRU (ties break toward the least recently used).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[QuerySignature, CachedPlan]" = OrderedDict()
        #: monotone access clock; every touch stamps the entry
        self._clock = 0
        #: guards entries, clock and stats — every public operation is
        #: atomic, so concurrent sessions can share one cache
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: QuerySignature) -> bool:
        with self._lock:
            return signature in self._entries

    def _touch(self, entry: CachedPlan) -> None:
        self._clock += 1
        entry.last_used = self._clock

    def get(self, signature: QuerySignature, generation: int) -> CachedPlan | None:
        """The live entry for a signature, or None (miss / stale).

        Only entries *older* than the caller's generation are dropped; an
        entry *newer* than it means the caller read the generation before
        a concurrent invalidation — its lookup misses, but another
        session's fresher plan must not be destroyed by it.
        """
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None or entry.generation != generation:
                if entry is not None and entry.generation < generation:
                    del self._entries[signature]  # stale: drop it eagerly
                self.stats.misses += 1
                return None
            self._entries.move_to_end(signature)
            self._touch(entry)
            self.stats.hits += 1
            entry.hits += 1
            return entry

    def put(self, entry: CachedPlan) -> None:
        """Insert an entry (newest generation wins on conflicts).

        A build that raced an invalidation arrives stale-on-arrival; it
        must not replace a fresher plan another session built meanwhile.
        """
        with self._lock:
            existing = self._entries.get(entry.signature)
            if existing is not None and existing.generation > entry.generation:
                return
            self._entries[entry.signature] = entry
            self._entries.move_to_end(entry.signature)
            self._touch(entry)
            while len(self._entries) > self.capacity:
                del self._entries[self._victim()]
                self.stats.evictions += 1

    def _victim(self) -> QuerySignature:
        """The signature to evict: minimal ``plan_cost / age``.

        Iteration runs least- to most-recently used and the comparison is
        strict, so equal scores (e.g. all-zero costs) evict the least
        recently used entry — the LRU degradation.
        """
        best_signature = None
        best_score = None
        for signature, entry in self._entries.items():
            age = max(1, self._clock - entry.last_used)
            score = entry.plan_cost / age
            if best_score is None or score < best_score:
                best_signature, best_score = signature, score
        assert best_signature is not None
        return best_signature

    def invalidate(self) -> None:
        """Drop every cached plan (schema, data or statistics changed)."""
        with self._lock:
            if self._entries:
                self._entries.clear()
            self.stats.invalidations += 1

    def entries(self) -> list[CachedPlan]:
        """Cached entries, least- to most-recently used (for inspection)."""
        with self._lock:
            return list(self._entries.values())
