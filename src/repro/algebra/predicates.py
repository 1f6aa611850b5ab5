"""Boolean and ranking predicates, and monotone scoring functions.

The paper's query model (§2.1) has four predicate kinds:

* Boolean *selection* predicates (reference one table) and Boolean *join*
  predicates (reference several) — :class:`BooleanPredicate`;
* *rank-selection* predicates (one table) and *rank-join* predicates
  (several) — :class:`RankingPredicate`.

A ranking predicate returns a numeric score in ``[0, p_max]`` and carries an
evaluation *cost* (the paper models predicates as user-defined functions of
widely varying cost).  The overall query score is a monotone
:class:`ScoringFunction` over the predicate scores; the upper-bound
(maximal-possible) score ``F_P[t]`` of Property 1 substitutes ``p_max`` for
every unevaluated predicate.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ..storage.row import Row
from ..storage.schema import Schema
from .expressions import Evaluator, Expression, Params


class BooleanPredicate:
    """A Boolean filter condition over one or more tables.

    Like ranking predicates, Boolean predicates "can be of various costs"
    (§2.1) — ``cost`` is the per-evaluation cost in the same abstract units
    (default: the cheap built-in comparison).  The optimizer's Boolean-
    scheduling dimension uses it to decide where to place expensive filters.
    """

    __slots__ = ("name", "expression", "cost")

    DEFAULT_COST = 0.1

    def __init__(
        self,
        expression: Expression,
        name: str | None = None,
        cost: float = DEFAULT_COST,
    ):
        if cost < 0:
            raise ValueError("predicate cost must be non-negative")
        self.expression = expression
        self.name = name or repr(expression)
        self.cost = float(cost)

    def __repr__(self) -> str:
        return f"BooleanPredicate({self.name})"

    def tables(self) -> set[str]:
        """Tables referenced by this condition."""
        return self.expression.tables()

    @property
    def is_join_predicate(self) -> bool:
        """True when the condition spans more than one table."""
        return len(self.tables()) > 1

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        return self.expression.compile(schema, params)


class RankingPredicate:
    """A named ranking predicate ``p`` with score range ``[0, p_max]``.

    ``scorer`` is either an :class:`Expression` or a plain callable taking
    the referenced column values in declaration order.  ``cost`` is the
    per-evaluation cost in abstract units (the experiments sweep it from 0 to
    1000); the execution engine charges it to the metrics on every call.
    """

    __slots__ = (
        "name",
        "columns",
        "cost",
        "p_max",
        "spin_loops",
        "_expression",
        "_fn",
    )

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        scorer: Expression | Callable[..., float],
        cost: float = 1.0,
        p_max: float = 1.0,
        spin_loops: int = 0,
    ):
        if not name:
            raise ValueError("ranking predicate needs a name")
        if cost < 0:
            raise ValueError("predicate cost must be non-negative")
        if p_max <= 0:
            raise ValueError("p_max must be positive")
        if spin_loops < 0:
            raise ValueError("spin_loops must be non-negative")
        self.name = name
        self.columns = tuple(columns)
        self.cost = float(cost)
        self.p_max = float(p_max)
        #: busy-work iterations per evaluation — makes the abstract `cost`
        #: show up in *wall time* too (for wall-clock-faithful benchmarks)
        self.spin_loops = int(spin_loops)
        if isinstance(scorer, Expression):
            self._expression: Expression | None = scorer
            self._fn: Callable[..., float] | None = None
        else:
            self._expression = None
            self._fn = scorer

    def __repr__(self) -> str:
        return f"RankingPredicate({self.name}, cost={self.cost})"

    def tables(self) -> set[str]:
        """Tables referenced by this predicate's input columns."""
        if self._expression is not None:
            return self._expression.tables()
        return {c.partition(".")[0] for c in self.columns if "." in c}

    @property
    def scorer(self) -> "Expression | Callable[..., float]":
        """The underlying scorer (an expression tree or a plain callable).

        Plan-cache signatures key on this so two predicates that merely
        share a name cannot collide (see
        :func:`repro.planner.signature.expression_key`).
        """
        if self._expression is not None:
            return self._expression
        assert self._fn is not None
        return self._fn

    @property
    def is_join_predicate(self) -> bool:
        """True for rank-join predicates (spanning several tables)."""
        return len(self.tables()) > 1

    def compile(self, schema: Schema) -> Evaluator:
        """Compile to a ``row -> score`` closure over ``schema``.

        Scores are clamped to ``[0, p_max]`` so the upper-bound reasoning of
        the ranking principle stays sound even for sloppy user functions.
        """
        p_max = self.p_max
        if self._expression is not None:
            inner = self.expression_evaluator(schema)
        else:
            positions = [schema.index_of(c) for c in self.columns]
            fn = self._fn
            assert fn is not None

            def inner(row: Row) -> float:
                return fn(*(row[p] for p in positions))

        spin_loops = self.spin_loops

        def evaluate(row: Row) -> float:
            if spin_loops:
                sink = 0
                for i in range(spin_loops):
                    sink += i
            score = inner(row)
            if score is None:
                return 0.0
            if score < 0.0:
                return 0.0
            if score > p_max:
                return p_max
            return float(score)

        return evaluate

    def expression_evaluator(self, schema: Schema) -> Evaluator:
        assert self._expression is not None
        return self._expression.compile(schema)

    def evaluable_on(self, schema: Schema) -> bool:
        """Whether every input column of this predicate resolves in ``schema``."""
        if self._expression is not None:
            refs = self._expression.references()
        else:
            refs = set(self.columns)
        return all(schema.has_column(r) for r in refs)


class ScoringFunction:
    """A monotone aggregate ``F(p1, ..., pn)`` over ranking predicates.

    Supported combiners (all monotone for non-negative scores): ``sum``,
    ``wsum`` (weighted sum), ``product``, ``min``, ``max``, ``avg``.  The
    paper uses summation throughout; the others exercise the generality
    claim.
    """

    COMBINERS = ("sum", "wsum", "product", "min", "max", "avg")

    def __init__(
        self,
        predicates: Sequence[RankingPredicate],
        combiner: str = "sum",
        weights: Sequence[float] | None = None,
    ):
        if combiner not in self.COMBINERS:
            raise ValueError(f"unknown combiner: {combiner!r}")
        if not predicates:
            raise ValueError("scoring function needs at least one predicate")
        names = [p.name for p in predicates]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate predicate names: {names}")
        if combiner == "wsum":
            if weights is None or len(weights) != len(predicates):
                raise ValueError("wsum needs one weight per predicate")
            if any(w < 0 for w in weights):
                raise ValueError("wsum weights must be non-negative")
            self.weights = tuple(float(w) for w in weights)
        else:
            self.weights = tuple(1.0 for __ in predicates)
        self.predicates = tuple(predicates)
        self.combiner = combiner
        self._by_name = {p.name: p for p in self.predicates}
        #: per-predicate ``(name, p_max, weight)`` in declaration order —
        #: what :meth:`upper_bound` reads instead of re-walking predicates
        self._slots = tuple(
            (p.name, p.p_max, w) for p, w in zip(self.predicates, self.weights)
        )
        self._max_possible = self.upper_bound({})

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.predicates)
        return f"ScoringFunction({self.combiner}; {names})"

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def predicate_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predicates)

    def predicate(self, name: str) -> RankingPredicate:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"predicate {name!r} not in {self!r}") from None

    def combine(self, scores: Sequence[float]) -> float:
        """Apply the combiner to a full score vector (one per predicate).

        ``sum``/``wsum`` are the builtin ``sum`` over ``w * s`` in
        declaration order — the one arithmetic :meth:`upper_bound`,
        :meth:`final_score` and the compiled epilogue share.  It must
        stay the builtin: Python 3.12's float ``sum`` is compensated, so a
        hand-written accumulation loop would round differently there.
        """
        if len(scores) != len(self.predicates):
            raise ValueError("score vector arity mismatch")
        if self.combiner in ("sum", "wsum"):
            return sum(w * s for w, s in zip(self.weights, scores))
        if self.combiner == "product":
            out = 1.0
            for s in scores:
                out *= s
            return out
        if self.combiner == "min":
            return min(scores)
        if self.combiner == "max":
            return max(scores)
        return sum(scores) / len(scores)  # avg

    def upper_bound(self, evaluated: Mapping[str, float]) -> float:
        """``F_P[t]`` of Property 1: real scores for evaluated predicates,
        ``p_max`` for the rest.

        ``evaluated`` maps predicate name to score; predicates absent from
        the mapping are assumed unevaluated.  Reads the slot table built at
        construction; for ``sum``/``wsum`` it is :meth:`combine`'s exact
        arithmetic (same builtin ``sum``, same terms, same order), so the
        two are bit-identical on every Python version.  Execution calls
        this once per tuple: the result rides on the
        :class:`~repro.algebra.rank_relation.ScoredRow` (see
        :meth:`repro.execution.iterator.ExecutionContext.upper_bound`).
        """
        get = evaluated.get
        if self.combiner in ("sum", "wsum"):
            return sum(w * get(name, p_max) for name, p_max, w in self._slots)
        return self.combine([get(name, p_max) for name, p_max, __ in self._slots])

    def final_score(self, evaluated: Mapping[str, float]) -> float:
        """The complete score; requires every predicate to be evaluated."""
        missing = [p.name for p in self.predicates if p.name not in evaluated]
        if missing:
            raise ValueError(f"missing predicate scores: {missing}")
        return self.combine([evaluated[p.name] for p in self.predicates])

    def max_possible(self) -> float:
        """``F_phi`` — the upper bound with nothing evaluated (a constant
        computed once, at construction, by :meth:`upper_bound`)."""
        return self._max_possible

    def subset(self, names: Iterable[str]) -> tuple[RankingPredicate, ...]:
        """The predicate objects for a set of names (order of declaration)."""
        wanted = set(names)
        unknown = wanted - set(self._by_name)
        if unknown:
            raise KeyError(f"unknown predicates: {sorted(unknown)}")
        return tuple(p for p in self.predicates if p.name in wanted)


def sum_of(*predicates: RankingPredicate) -> ScoringFunction:
    """Shorthand for the paper's default summation scoring function."""
    return ScoringFunction(list(predicates), combiner="sum")
