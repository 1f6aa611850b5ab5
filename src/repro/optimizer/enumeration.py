"""Two-dimensional dynamic-programming plan enumeration (Figure 8) with the
Figure 10 heuristics.

The enumerator extends System-R bottom-up DP with a second dimension: a
subplan's signature is the pair ``(SR, SP)`` of joined relations and
evaluated ranking predicates — the two logical properties of a
rank-relation.  Plans for a signature are generated three ways:

* ``joinPlan`` — joining plans for ``(SR1, SP1)`` and ``(SR2, SP2)``;
* ``rankPlan`` — appending a µ operator to a plan for ``(SR, SP − {p})``;
* ``scanPlan`` — access paths for single relations with at most one
  predicate (seq-scan, rank-scan, scan-based selection).

Per signature only the cheapest plan is kept, except that a rank-ordered
plan and an unordered one survive alongside: rank-orderedness is the one
physical property the algebra has.  Column order is not one — the cost
model prices a column-order scan like a seq-scan and a sort-merge join no
cheaper than a hash join on the same inputs, so System R's interesting-order
class could never win and is not enumerated (Fig. 11's Plan 1 builds those
operators by hand).

Heuristics (Figure 10), both optional:

* **left-deep** join trees: ``||SR2|| ≤ 1``;
* **greedy µ scheduling**: a µ_pu is appended only if no other applicable
  µ_pv has a strictly higher ``rank`` metric, where
  ``rank(µ) = (1 − card(plan')/card(plan)) / cost(µ)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from ..algebra.expressions import ColumnRef
from ..algebra.predicates import BooleanPredicate
from ..storage.catalog import Catalog
from ..storage.index import MultiKeyIndex, RankIndex
from .cost_model import CostModel
from .plans import (
    FilterPlan,
    HRJNPlan,
    HashJoinPlan,
    LimitPlan,
    MuPlan,
    NRJNPlan,
    NestedLoopJoinPlan,
    PlanNode,
    ProjectPlan,
    RankScanPlan,
    ScanSelectPlan,
    SeqScanPlan,
    SortPlan,
)
from .query_spec import JoinCondition, QuerySpec
from .synopsis import JoinSynopsis, engine_estimator

#: (SR, SP, SB): joined relations, evaluated ranking predicates, applied
#: Boolean selections — the third dimension is the §5.1 extension for
#: scheduling (possibly expensive) selection predicates.
Signature = tuple[frozenset[str], frozenset[str], frozenset[str]]


@dataclass
class Candidate:
    """A plan kept in the memo, with its estimated cost."""

    plan: PlanNode
    cost: float
    #: the tie-break key — estimated depth (the tuples the plan is
    #: estimated to emit), then shape — computed on the first tie
    tie_key: tuple | None = None

    @property
    def physical_key(self) -> bool:
        return self.plan.is_ranked


#: operator kinds in tie-break order (see ``RankAwareOptimizer._tie_key``):
#: plain scans before index-ordered ones, hash before nested-loop joins,
#: rank-joins before their nested-loop form
_KIND_ORDER = {
    kind: position
    for position, kind in enumerate(
        (
            LimitPlan,
            ProjectPlan,
            SortPlan,
            MuPlan,
            FilterPlan,
            HRJNPlan,
            NRJNPlan,
            HashJoinPlan,
            NestedLoopJoinPlan,
            SeqScanPlan,
            RankScanPlan,
            ScanSelectPlan,
        )
    )
}


class OptimizationError(Exception):
    """Raised when no complete plan can be constructed."""


class RankAwareOptimizer:
    """Cost-based optimizer with the ranking dimension (§5).

    Parameters
    ----------
    left_deep:
        Restrict join enumeration to left-deep trees (Figure 10, line 2).
    greedy_mu:
        Apply the greedy rank-metric µ-scheduling heuristic (Figure 10,
        lines 4–6).
    enumerate_ranking:
        When False the ranking dimension is disabled (``SP = φ``
        everywhere) and the final plan is completed by a blocking sort —
        this is the *traditional* optimizer baseline.
    enumerate_selections:
        §5.1's extension: treat Boolean selection predicates as a *third*
        enumeration dimension (signature component ``SB``), so expensive
        filters can be scheduled anywhere — interleaved with µ operators or
        deferred above joins — instead of always pushed to the scans.

    The DP enumerates row plans only; the execution regime of each
    sort-topped segment is a post-pass
    (:func:`repro.optimizer.hybrid.decide_regimes`).
    """

    def __init__(
        self,
        catalog: Catalog,
        spec: QuerySpec,
        left_deep: bool = False,
        greedy_mu: bool = False,
        enumerate_ranking: bool = True,
        enumerate_selections: bool = False,
        allow_cartesian: bool = False,
        *,
        synopsis: JoinSynopsis | None = None,
        estimator=None,
        params: dict[str, Any] | None = None,
    ):
        self.catalog = catalog
        self.spec = spec
        #: cardinalities and selectivities come from ``estimator`` when
        #: given (the §5.2 CardinalityEstimator, as a reproduction
        #: baseline), else from the join synopsis
        #: (:mod:`repro.optimizer.synopsis`) — its uniform rows alone,
        #: without the ranking dimension.  ``params`` are the statement's
        #: peeked bind-variable values: the estimator evaluates the
        #: conditions with them, and nothing keeps them past this instance.
        self.estimator = estimator or engine_estimator(
            catalog, spec, synopsis, ranked=enumerate_ranking, params=params
        )
        self.cost_model = CostModel(catalog, spec, self.estimator)
        self.left_deep = left_deep
        self.greedy_mu = greedy_mu
        self.enumerate_ranking = enumerate_ranking
        self.enumerate_selections = enumerate_selections
        self.allow_cartesian = allow_cartesian
        #: memo: signature -> {physical_key (rank-ordered?) -> Candidate}
        self.memo: dict[Signature, dict[bool, Candidate]] = {}
        #: number of plans generated (for enumeration-efficiency reports)
        self.plans_generated = 0
        self._evaluable_on: dict[frozenset[str], frozenset[str]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(self) -> PlanNode:
        """Run the DP and return the best complete physical plan."""
        self._enumerate()
        all_tables = frozenset(self.spec.tables)
        all_predicates = (
            frozenset(self.spec.scoring.predicate_names)
            if self.enumerate_ranking
            else frozenset()
        )
        final = self._final_candidates(all_tables)
        if not final:
            if not self.allow_cartesian:
                # Retry once permitting Cartesian products.
                self.allow_cartesian = True
                self.memo.clear()
                return self.optimize()
            raise OptimizationError("no complete plan found")
        plan: PlanNode = self._best(final).plan
        plan = LimitPlan(plan, self.spec.k)
        if self.spec.projection:
            plan = ProjectPlan(plan, self.spec.projection)
        return plan

    def best_candidate(self, signature) -> Candidate | None:
        """The cheapest memoized candidate for a signature (for inspection).

        Accepts ``(SR, SP)`` — normalized to the full applicable selection
        set — or a full ``(SR, SP, SB)`` triple.
        """
        if len(signature) == 2:
            sr, sp = signature
            signature = (sr, sp, self._selection_names(sr))
        candidates = self.memo.get(signature)
        if not candidates:
            return None
        return self._best(candidates.values())

    def _selections_within(self, sr: frozenset[str]) -> list[BooleanPredicate]:
        """Selections whose table lies in ``sr`` (declaration order)."""
        return [c for c in self.spec.selections if c.tables() <= sr]

    def _selection_names(self, sr: frozenset[str]) -> frozenset[str]:
        return frozenset(c.name for c in self._selections_within(sr))

    def _selection_by_name(self, name: str) -> BooleanPredicate:
        for condition in self.spec.selections:
            if condition.name == name:
                return condition
        raise KeyError(f"unknown selection: {name!r}")

    # ------------------------------------------------------------------
    # the DP of Figure 8
    # ------------------------------------------------------------------
    def _enumerate(self) -> None:
        tables = list(self.spec.tables)
        h = len(tables)
        for i in range(1, h + 1):  # 1st dimension: join size
            for sr in itertools.combinations(tables, i):
                sr_set = frozenset(sr)
                evaluable = (
                    self.spec.predicates_evaluable_on(sr_set)
                    if self.enumerate_ranking
                    else []
                )
                applicable = [c.name for c in self._selections_within(sr_set)]
                for j in range(0, len(evaluable) + 1):  # 2nd dimension
                    for sp in itertools.combinations(evaluable, j):
                        sp_set = frozenset(sp)
                        # 3rd dimension: Boolean selections, smallest first
                        if self.enumerate_selections:
                            for b in range(0, len(applicable) + 1):
                                for sb in itertools.combinations(applicable, b):
                                    self._plans_for_signature(
                                        sr_set, sp_set, frozenset(sb)
                                    )
                        else:
                            self._plans_for_signature(
                                sr_set, sp_set, frozenset(applicable)
                            )

    def _plans_for_signature(
        self, sr: frozenset[str], sp: frozenset[str], sb: frozenset[str]
    ) -> None:
        # scanPlan: single relation, at most one predicate (Fig. 8 line 16)
        if len(sr) == 1 and len(sp) <= 1:
            (table,) = sr
            for plan in self._scan_plans(table, sp, sb):
                self._consider(sr, sp, sb, plan)
        # rankPlan: SR2 = φ, SP2 = {p} (Fig. 8 line 14)
        for predicate_name in sorted(sp):
            rest = sp - {predicate_name}
            for candidate in self._candidates(sr, rest, sb):
                if not self._mu_allowed(candidate, predicate_name, sp):
                    continue
                plan = MuPlan(candidate.plan, predicate_name)
                self._consider(sr, sp, sb, plan)
        # filterPlan: the 3rd dimension's move — apply one more selection
        if self.enumerate_selections:
            for selection_name in sorted(sb):
                rest_sb = sb - {selection_name}
                condition = self._selection_by_name(selection_name)
                for candidate in self._candidates(sr, sp, rest_sb):
                    self._consider(
                        sr, sp, sb, FilterPlan(candidate.plan, condition)
                    )
        # joinPlan: SR2 != φ (Fig. 8 line 12)
        if len(sr) >= 2:
            for sr1, sr2 in self._relation_splits(sr):
                # Selections are single-table, so SB splits deterministically.
                sb1 = frozenset(
                    c.name for c in self._selections_within(sr1) if c.name in sb
                )
                sb2 = frozenset(
                    c.name for c in self._selections_within(sr2) if c.name in sb
                )
                if sb1 | sb2 != sb:
                    continue
                for sp1, sp2 in self._predicate_splits(sp, sr1, sr2):
                    for left in self._candidates(sr1, sp1, sb1):
                        for right in self._candidates(sr2, sp2, sb2):
                            for plan in self._join_plans(left, right, sr1, sr2):
                                self._consider(sr, sp, sb, plan)

    def _relation_splits(self, sr: frozenset[str]):
        members = sorted(sr)
        for r in range(1, len(members)):
            for combo in itertools.combinations(members, r):
                sr1 = frozenset(combo)
                sr2 = sr - sr1
                if self.left_deep and len(sr2) > 1:
                    continue
                yield sr1, sr2

    def _predicate_splits(
        self, sp: frozenset[str], sr1: frozenset[str], sr2: frozenset[str]
    ):
        members = sorted(sp)
        for mask in range(2 ** len(members)):
            sp1 = frozenset(m for b, m in enumerate(members) if mask & (1 << b))
            sp2 = sp - sp1
            if not self._evaluable(sp1, sr1) or not self._evaluable(sp2, sr2):
                continue
            yield sp1, sp2

    def _evaluable(self, sp: frozenset[str], sr: frozenset[str]) -> bool:
        evaluable = self._evaluable_on.get(sr)
        if evaluable is None:
            evaluable = frozenset(self.spec.predicates_evaluable_on(sr))
            self._evaluable_on[sr] = evaluable
        return sp <= evaluable

    def _candidates(
        self, sr: frozenset[str], sp: frozenset[str], sb: frozenset[str]
    ) -> list[Candidate]:
        return list(self.memo.get((sr, sp, sb), {}).values())

    def _consider(
        self,
        sr: frozenset[str],
        sp: frozenset[str],
        sb: frozenset[str],
        plan: PlanNode,
    ) -> None:
        """Cost a generated plan and keep it if it wins its physical class."""
        self.plans_generated += 1
        candidate = self._candidate(plan)
        bucket = self.memo.setdefault((sr, sp, sb), {})
        key = candidate.physical_key
        incumbent = bucket.get(key)
        if incumbent is None or self._wins(candidate, incumbent):
            bucket[key] = candidate

    def _candidate(self, plan: PlanNode) -> Candidate:
        return Candidate(plan, self.cost_model.cost(plan))

    # ------------------------------------------------------------------
    # deterministic choice among equal costs
    # ------------------------------------------------------------------
    def _tie_key(self, candidate: Candidate) -> tuple:
        """What breaks a cost tie: the plan's estimated depth, then over
        its nodes in pre-order their estimated depths, operator kinds
        (:data:`_KIND_ORDER`) and labels (the fingerprint's parts)."""
        if candidate.tie_key is None:
            production = self.cost_model.production
            nodes = list(candidate.plan.walk())
            last = len(_KIND_ORDER)
            candidate.tie_key = (
                production(candidate.plan),
                tuple(production(node) for node in nodes),
                tuple(_KIND_ORDER.get(type(node), last) for node in nodes),
                tuple(node.label() for node in nodes),
            )
        return candidate.tie_key

    def _wins(self, candidate: Candidate, incumbent: Candidate) -> bool:
        """Lower cost, then :meth:`_tie_key` — never the order the two
        plans were generated in."""
        if candidate.cost != incumbent.cost:
            return candidate.cost < incumbent.cost
        return self._tie_key(candidate) < self._tie_key(incumbent)

    def _best(self, candidates) -> Candidate:
        candidates = list(candidates)
        cost = min(c.cost for c in candidates)
        return min(
            (c for c in candidates if c.cost == cost), key=self._tie_key
        )

    # ------------------------------------------------------------------
    # plan constructors
    # ------------------------------------------------------------------
    def _scan_plans(
        self, table: str, sp: frozenset[str], sb: frozenset[str]
    ) -> list[PlanNode]:
        """Access paths for one relation with zero or one predicate,
        applying exactly the selections in ``sb``."""
        selections = [
            c for c in self.spec.selections_on(table) if c.name in sb
        ]
        if not sp:
            return [self._with_filters(SeqScanPlan(table), selections)]
        (predicate_name,) = sp
        plans: list[PlanNode] = []
        for index in self.catalog.table(table).indexes.values():
            if isinstance(index, RankIndex) and index.predicate_name == predicate_name:
                plans.append(
                    self._with_filters(
                        RankScanPlan(table, predicate_name), selections
                    )
                )
            if (
                isinstance(index, MultiKeyIndex)
                and index.predicate_name == predicate_name
            ):
                consumed, remaining = self._match_bool_selection(
                    index.bool_column, selections
                )
                if consumed is not None:
                    plans.append(
                        self._with_filters(
                            ScanSelectPlan(table, index.bool_column, predicate_name),
                            remaining,
                        )
                    )
        return plans

    @staticmethod
    def _match_bool_selection(
        bool_column: str, selections: list[BooleanPredicate]
    ) -> tuple[BooleanPredicate | None, list[BooleanPredicate]]:
        """Find a selection that is exactly "bool_column is true"."""
        for i, condition in enumerate(selections):
            expression = condition.expression
            if isinstance(expression, ColumnRef) and (
                expression.name == bool_column
                or expression.name == bool_column.partition(".")[2]
            ):
                return condition, selections[:i] + selections[i + 1:]
        return None, list(selections)

    @staticmethod
    def _with_filters(plan: PlanNode, selections: list[BooleanPredicate]) -> PlanNode:
        for condition in selections:
            plan = FilterPlan(plan, condition)
        return plan

    def _join_plans(
        self,
        left: Candidate,
        right: Candidate,
        sr1: frozenset[str],
        sr2: frozenset[str],
    ) -> list[PlanNode]:
        conditions = self.spec.join_conditions_between(sr1, sr2)
        if not conditions and not self.allow_cartesian:
            return []
        equi = [c for c in conditions if self.condition_keys(c, sr1, sr2)]
        if equi:
            # The first equi-condition keys HRJN / hash join; the rest
            # filter above it.
            left_key, right_key = self.condition_keys(equi[0], sr1, sr2)
            rest = [c.predicate for c in conditions if c is not equi[0]]
        plans: list[PlanNode] = []
        both_ranked = left.plan.is_ranked and right.plan.is_ranked
        has_rank_below = bool(left.plan.rank_predicates | right.plan.rank_predicates)

        if equi and both_ranked:
            plans.append(
                self._with_filters(
                    HRJNPlan(left.plan, right.plan, left_key, right_key), rest
                )
            )
        if conditions and both_ranked and has_rank_below:
            condition = self._conjunction(conditions)
            plans.append(NRJNPlan(left.plan, right.plan, condition))
        if not has_rank_below:
            # Classical joins: valid only when no predicate has been
            # evaluated below (output order is then vacuously rank-valid).
            if equi:
                plans.append(
                    self._with_filters(
                        HashJoinPlan(left.plan, right.plan, left_key, right_key),
                        rest,
                    )
                )
            condition = self._conjunction(conditions) if conditions else None
            plans.append(NestedLoopJoinPlan(left.plan, right.plan, condition))
        return plans

    @staticmethod
    def condition_keys(
        condition: JoinCondition, sr1: frozenset[str], sr2: frozenset[str]
    ) -> tuple[str, str] | None:
        """Equi-key columns oriented as (left side, right side), if any."""
        if not condition.is_equi:
            return None
        (table_a, key_a), (table_b, key_b) = condition.equi_keys
        if table_a in sr1 and table_b in sr2:
            return key_a, key_b
        if table_b in sr1 and table_a in sr2:
            return key_b, key_a
        return None

    @staticmethod
    def _conjunction(conditions: list[JoinCondition]) -> BooleanPredicate:
        if len(conditions) == 1:
            return conditions[0].predicate
        from ..algebra.expressions import conjunction

        names = " and ".join(c.predicate.name for c in conditions)
        return BooleanPredicate(
            conjunction([c.predicate.expression for c in conditions]), names
        )

    # ------------------------------------------------------------------
    # greedy µ-scheduling heuristic (Figure 10)
    # ------------------------------------------------------------------
    def _mu_allowed(
        self, candidate: Candidate, predicate_name: str, target_sp: frozenset[str]
    ) -> bool:
        if not self.greedy_mu:
            return True
        sr = candidate.plan.tables
        applicable = set(self.spec.predicates_evaluable_on(sr)) - target_sp
        if not applicable:
            return True
        rank_u = self._mu_rank(candidate.plan, predicate_name)
        for other in applicable:
            if self._mu_rank(candidate.plan, other) > rank_u:
                return False
        return True

    def _mu_rank(self, plan: PlanNode, predicate_name: str) -> float:
        """``rank(µ_p) = (1 − card(plan')/card(plan)) / cost(p)``."""
        cost = max(self.spec.scoring.predicate(predicate_name).cost, 1e-9)
        base = self.estimator.estimate(plan)
        if base <= 0:
            return 0.0
        extended = self.estimator.estimate(MuPlan(plan, predicate_name))
        selectivity_reduction = 1.0 - min(extended / base, 1.0)
        return selectivity_reduction / cost

    # ------------------------------------------------------------------
    # final assembly
    # ------------------------------------------------------------------
    def _final_candidates(self, all_tables: frozenset[str]) -> list[Candidate]:
        """Complete plans: fully-ranked pipelines plus sort-completions.

        A complete plan must have applied every selection (SB complete).
        """
        all_predicates = frozenset(self.spec.scoring.predicate_names)
        all_selections = self._selection_names(all_tables)
        out: list[Candidate] = []
        if self.enumerate_ranking:
            out.extend(self._candidates(all_tables, all_predicates, all_selections))
        # Sort-completion: finish any partially-ranked plan with a blocking
        # sort (subsumes the traditional materialize-then-sort plan).
        partial_signatures = [
            signature
            for signature in self.memo
            if signature[0] == all_tables
            and signature[1] != all_predicates
            and signature[2] == all_selections
        ]
        for signature in partial_signatures:
            for candidate in self._candidates(*signature):
                out.append(
                    self._candidate(SortPlan(candidate.plan, all_predicates))
                )
        return out


def optimize_traditional(catalog: Catalog, spec: QuerySpec) -> PlanNode:
    """The traditional-optimizer baseline: join enumeration only, blocking
    materialize-then-sort on top (the paper's plan 1 shape)."""
    return RankAwareOptimizer(catalog, spec, enumerate_ranking=False).optimize()
