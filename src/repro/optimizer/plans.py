"""Physical plan descriptors.

The optimizer manipulates immutable, buildable *descriptors* rather than
live operators: a :class:`PlanNode` tree can be turned into a fresh
:class:`~repro.execution.iterator.PhysicalOperator` tree any number of times
(the §5.2 baseline estimator runs candidate subplans on its samples; the
engine's join-synopsis estimator runs none).

Every node carries the optimizer signature ``(SR, SP)`` — covered base
tables and evaluated ranking predicates (§5.1).
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.predicates import BooleanPredicate
from ..execution.codegen import CompiledSegment
from ..execution.filter import Filter, Project
from ..execution.iterator import PhysicalOperator
from ..execution.joins import HRJN, NRJN, HashJoin, NestedLoopJoin, SortMergeJoin
from ..execution.rank import Mu
from ..execution.scans import ColumnOrderScan, RankScan, ScanSelect, SeqScan
from ..execution.setops import RankDifference, RankIntersect, RankUnion
from ..execution.sort import Limit, Sort


_EMPTY: frozenset[str] = frozenset()

#: one shared instance per distinct identity set, so plan trees — and the
#: cached plans that keep them — do not each carry their own copies
_SETS: dict[frozenset[str], frozenset[str]] = {}


def _canonical(names: frozenset[str]) -> frozenset[str]:
    if len(_SETS) > 4096:
        _SETS.clear()
    return _SETS.setdefault(names, names)


def _single(name: str) -> frozenset[str]:
    return _canonical(frozenset((name,)))


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``, reusing an operand when it already is the union."""
    if b <= a:
        return a
    if a <= b:
        return b
    return _canonical(a | b)


class PlanNode:
    """Base class of physical plan descriptors.

    A node's identity — ``fingerprint()``, ``tables`` and
    ``rank_predicates`` — is derived once, when the node is built: a
    subclass sets its own fields *before* calling ``PlanNode.__init__``,
    which reads them through :meth:`label`, :meth:`_own_tables` and
    :meth:`_derive_rank_predicates`.  Nodes are never mutated afterwards;
    :meth:`with_children` builds a fresh node instead.
    """

    __slots__ = ("children", "tables", "rank_predicates", "_fingerprint")

    #: whether the node consumes its whole input whatever a λ above it
    #: pulls (a sort, or a compiled segment topped by one) — the rows its
    #: estimate is judged against are then the rows it consumed
    blocking = False

    def __init__(self, children: Sequence["PlanNode"] = ()):
        self.children: tuple[PlanNode, ...] = tuple(children)
        tables = self._own_tables()
        for child in self.children:
            tables = _union(tables, child.tables)
        #: SR — the base tables this plan covers
        self.tables: frozenset[str] = tables
        #: SP — the ranking predicates this plan has evaluated
        self.rank_predicates: frozenset[str] = self._derive_rank_predicates()
        label = self.label()
        if self.children:
            inner = ",".join(child.fingerprint() for child in self.children)
            label = f"{label}({inner})"
        self._fingerprint = label

    def _own_tables(self) -> frozenset[str]:
        return _EMPTY

    def _derive_rank_predicates(self) -> frozenset[str]:
        out: frozenset[str] = _EMPTY
        for child in self.children:
            out = _union(out, child.rank_predicates)
        return out

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """A fresh node with this node's fields over new ``children``
        (identity derived anew)."""
        clone = object.__new__(type(self))
        for kind in type(self).__mro__:
            for name in getattr(kind, "__slots__", ()):
                setattr(clone, name, getattr(self, name))
        PlanNode.__init__(clone, children)
        return clone

    # -- signature -----------------------------------------------------
    @property
    def signature(self) -> tuple[frozenset[str], frozenset[str]]:
        return (self.tables, self.rank_predicates)

    #: physical property: column the output is sorted on (interesting order)
    @property
    def column_order(self) -> str | None:
        return None

    @property
    def is_ranked(self) -> bool:
        """Whether the output stream satisfies Definition 1's score order."""
        return True

    # -- construction ----------------------------------------------------
    def build(self) -> PhysicalOperator:
        """Instantiate a fresh physical operator tree."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self._fingerprint

    def fingerprint(self) -> str:
        """A canonical string identifying this plan shape (memo key)."""
        return self._fingerprint

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------

class SeqScanPlan(PlanNode):
    """Sequential heap scan."""

    __slots__ = ("table",)

    def __init__(self, table: str):
        self.table = table
        super().__init__()

    def _own_tables(self) -> frozenset[str]:
        return _single(self.table)

    def build(self) -> PhysicalOperator:
        return SeqScan(self.table)

    def label(self) -> str:
        return f"seqScan({self.table})"


class RankScanPlan(PlanNode):
    """Rank-index scan in descending predicate-score order."""

    __slots__ = ("table", "predicate_name")

    def __init__(self, table: str, predicate_name: str):
        self.table = table
        self.predicate_name = predicate_name
        super().__init__()

    def _own_tables(self) -> frozenset[str]:
        return _single(self.table)

    def _derive_rank_predicates(self) -> frozenset[str]:
        return _single(self.predicate_name)

    def build(self) -> PhysicalOperator:
        return RankScan(self.table, self.predicate_name)

    def label(self) -> str:
        return f"idxScan_{self.predicate_name}({self.table})"


class ColumnOrderScanPlan(PlanNode):
    """Index scan in column order (interesting order for merge joins)."""

    __slots__ = ("table", "column")

    def __init__(self, table: str, column: str):
        self.table = table
        self.column = column
        super().__init__()

    def _own_tables(self) -> frozenset[str]:
        return _single(self.table)

    @property
    def column_order(self) -> str | None:
        return self.column

    def build(self) -> PhysicalOperator:
        return ColumnOrderScan(self.table, self.column)

    def label(self) -> str:
        return f"idxScan_{self.column}({self.table})"


class ScanSelectPlan(PlanNode):
    """Scan-based selection via a multi-key index (§4.2)."""

    __slots__ = ("table", "bool_column", "predicate_name")

    def __init__(self, table: str, bool_column: str, predicate_name: str):
        self.table = table
        self.bool_column = bool_column
        self.predicate_name = predicate_name
        super().__init__()

    def _own_tables(self) -> frozenset[str]:
        return _single(self.table)

    def _derive_rank_predicates(self) -> frozenset[str]:
        return _single(self.predicate_name)

    def build(self) -> PhysicalOperator:
        return ScanSelect(self.table, self.bool_column, self.predicate_name)

    def label(self) -> str:
        return f"scanSelect_{self.predicate_name}[{self.bool_column}]({self.table})"


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------

class FilterPlan(PlanNode):
    """Boolean selection."""

    __slots__ = ("condition",)

    def __init__(self, child: PlanNode, condition: BooleanPredicate):
        self.condition = condition
        super().__init__([child])

    @property
    def column_order(self) -> str | None:
        return self.children[0].column_order

    @property
    def is_ranked(self) -> bool:
        return self.children[0].is_ranked

    def build(self) -> PhysicalOperator:
        return Filter(self.children[0].build(), self.condition)

    def label(self) -> str:
        return f"filter({self.condition.name})"


class MuPlan(PlanNode):
    """The rank operator µ_p."""

    __slots__ = ("predicate_name",)

    def __init__(self, child: PlanNode, predicate_name: str):
        self.predicate_name = predicate_name
        super().__init__([child])

    def _derive_rank_predicates(self) -> frozenset[str]:
        return _union(
            self.children[0].rank_predicates, _single(self.predicate_name)
        )

    def build(self) -> PhysicalOperator:
        return Mu(self.children[0].build(), self.predicate_name)

    def label(self) -> str:
        return f"rank_{self.predicate_name}"


class ProjectPlan(PlanNode):
    """Projection."""

    __slots__ = ("columns",)

    def __init__(self, child: PlanNode, columns: Sequence[str]):
        self.columns = tuple(columns)
        super().__init__([child])

    @property
    def is_ranked(self) -> bool:
        return self.children[0].is_ranked

    def build(self) -> PhysicalOperator:
        return Project(self.children[0].build(), self.columns)

    def label(self) -> str:
        return f"project({','.join(self.columns)})"


class SortPlan(PlanNode):
    """Blocking materialize-then-sort on the complete scoring function.

    ``all_predicates`` is the scoring function's full predicate set: a sort
    evaluates every predicate still missing, so its output signature always
    carries them all.
    """

    __slots__ = ("all_predicates",)

    blocking = True

    def __init__(self, child: PlanNode, all_predicates: frozenset[str] = frozenset()):
        self.all_predicates = _canonical(frozenset(all_predicates))
        super().__init__([child])

    def _derive_rank_predicates(self) -> frozenset[str]:
        return _union(self.all_predicates, self.children[0].rank_predicates)

    def build(self) -> PhysicalOperator:
        return Sort(self.children[0].build())

    def label(self) -> str:
        return "sort"


class LimitPlan(PlanNode):
    """λ_k."""

    __slots__ = ("k",)

    def __init__(self, child: PlanNode, k: int):
        self.k = k
        super().__init__([child])

    def _derive_rank_predicates(self) -> frozenset[str]:
        return self.children[0].rank_predicates

    @property
    def is_ranked(self) -> bool:
        return self.children[0].is_ranked

    def build(self) -> PhysicalOperator:
        return Limit(self.children[0].build(), self.k)

    def label(self) -> str:
        return f"limit({self.k})"


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------

class HRJNPlan(PlanNode):
    """Hash rank-join on an equi condition."""

    __slots__ = ("left_key", "right_key")

    def __init__(self, left: PlanNode, right: PlanNode, left_key: str, right_key: str):
        self.left_key = left_key
        self.right_key = right_key
        super().__init__([left, right])

    def build(self) -> PhysicalOperator:
        return HRJN(
            self.children[0].build(),
            self.children[1].build(),
            self.left_key,
            self.right_key,
        )

    def label(self) -> str:
        return f"HRJN({self.left_key}={self.right_key})"


class NRJNPlan(PlanNode):
    """Nested-loop rank-join on an arbitrary condition."""

    __slots__ = ("condition",)

    def __init__(self, left: PlanNode, right: PlanNode, condition: BooleanPredicate):
        self.condition = condition
        super().__init__([left, right])

    def build(self) -> PhysicalOperator:
        return NRJN(self.children[0].build(), self.children[1].build(), self.condition)

    def label(self) -> str:
        return f"NRJN({self.condition.name})"


class SortMergeJoinPlan(PlanNode):
    """Classical sort-merge join (not score-ordered)."""

    __slots__ = ("left_key", "right_key")

    def __init__(self, left: PlanNode, right: PlanNode, left_key: str, right_key: str):
        self.left_key = left_key
        self.right_key = right_key
        super().__init__([left, right])

    @property
    def is_ranked(self) -> bool:
        # Output is key-ordered; it satisfies Definition 1 only vacuously,
        # when no predicate has been evaluated below.
        return not self.rank_predicates

    @property
    def column_order(self) -> str | None:
        return self.left_key

    def build(self) -> PhysicalOperator:
        return SortMergeJoin(
            self.children[0].build(),
            self.children[1].build(),
            self.left_key,
            self.right_key,
        )

    def label(self) -> str:
        return f"sortMergeJoin({self.left_key}={self.right_key})"


class HashJoinPlan(PlanNode):
    """Classical hash join (not score-ordered)."""

    __slots__ = ("left_key", "right_key")

    def __init__(self, left: PlanNode, right: PlanNode, left_key: str, right_key: str):
        self.left_key = left_key
        self.right_key = right_key
        super().__init__([left, right])

    @property
    def is_ranked(self) -> bool:
        return not self.rank_predicates

    def build(self) -> PhysicalOperator:
        return HashJoin(
            self.children[0].build(),
            self.children[1].build(),
            self.left_key,
            self.right_key,
        )

    def label(self) -> str:
        return f"hashJoin({self.left_key}={self.right_key})"


class NestedLoopJoinPlan(PlanNode):
    """Classical nested-loop join (not score-ordered)."""

    __slots__ = ("condition",)

    def __init__(self, left: PlanNode, right: PlanNode, condition: BooleanPredicate | None):
        self.condition = condition
        super().__init__([left, right])

    @property
    def is_ranked(self) -> bool:
        return not self.rank_predicates

    def build(self) -> PhysicalOperator:
        return NestedLoopJoin(
            self.children[0].build(),
            self.children[1].build(),
            self.condition,
        )

    def label(self) -> str:
        name = self.condition.name if self.condition else "true"
        return f"nestLoop({name})"


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------

class RankUnionPlan(PlanNode):
    """Incremental rank-aware union."""

    __slots__ = ()

    def build(self) -> PhysicalOperator:
        return RankUnion(self.children[0].build(), self.children[1].build())

    def label(self) -> str:
        return "rankUnion"


class RankIntersectPlan(PlanNode):
    """Incremental rank-aware intersection (optionally ∩_r, by identity)."""

    __slots__ = ("by_identity",)

    def __init__(self, children, by_identity: bool = False):
        self.by_identity = by_identity
        super().__init__(children)

    def build(self) -> PhysicalOperator:
        return RankIntersect(
            self.children[0].build(), self.children[1].build(), self.by_identity
        )

    def label(self) -> str:
        return "rankIntersect_r" if self.by_identity else "rankIntersect"


class RankDifferencePlan(PlanNode):
    """Incremental rank-aware difference."""

    __slots__ = ()

    def _derive_rank_predicates(self) -> frozenset[str]:
        return self.children[0].rank_predicates

    def build(self) -> PhysicalOperator:
        return RankDifference(self.children[0].build(), self.children[1].build())

    def label(self) -> str:
        return "rankDifference"


# ----------------------------------------------------------------------
# compiled segments
# ----------------------------------------------------------------------

class BatchSegmentPlan(PlanNode):
    """A sort-topped ``P = φ`` segment that runs as one compiled function.

    Wraps the row-mode descriptor subtree it replaces (``inner``, a
    :class:`SortPlan` over scans, filters, projections and hash joins) and
    the :class:`~repro.execution.codegen.CompiledArtifact` generated for it
    at prepare time.  Building produces a single
    :class:`~repro.execution.codegen.CompiledSegment` operator, so the
    surrounding plan still sees an ordinary
    :class:`~repro.execution.iterator.PhysicalOperator`.  Only the regime
    pass (:func:`repro.optimizer.hybrid.decide_regimes`) creates wrappers,
    and only around a segment that compiled; the fingerprint is the inner
    plan's, wrapped, because the fused function produces the same tuples.
    """

    __slots__ = ("inner", "compiled", "decision")

    blocking = True

    def __init__(self, inner: PlanNode, compiled, decision=None):
        self.inner = inner
        #: the segment's :class:`~repro.execution.codegen.CompiledArtifact`
        self.compiled = compiled
        #: the :class:`~repro.optimizer.hybrid.SegmentDecision` that chose
        #: the compiled regime (an annotation, never part of the fingerprint)
        self.decision = decision
        super().__init__()
        self._fingerprint = f"compiled({inner.fingerprint()})"

    def _own_tables(self) -> frozenset[str]:
        return self.inner.tables

    def _derive_rank_predicates(self) -> frozenset[str]:
        return self.inner.rank_predicates

    @property
    def column_order(self) -> str | None:
        return self.inner.column_order

    @property
    def is_ranked(self) -> bool:
        return self.inner.is_ranked

    def build(self) -> PhysicalOperator:
        return CompiledSegment(self.compiled)

    def label(self) -> str:
        return "compiled"

    def explain(self, indent: int = 0) -> str:
        head = "compiled segment"
        if self.decision is not None:
            head += f" ({self.decision.summary()})"
        return "\n".join(["  " * indent + head, self.inner.explain(indent + 1)])

    def walk(self):
        yield self
        yield from self.inner.walk()
