"""Normalized query signatures: the plan-cache key.

Two queries share a signature exactly when a physical plan chosen for one
is a valid (and equally good, under identical optimizer knobs) plan for the
other.  The signature therefore covers every input the optimizer reads:

* the relation set (order-normalized — enumeration considers all orders);
* single-table Boolean selections (name ≡ canonical expression repr, cost);
* the join graph (condition expression, connected tables, equi-keys);
* the scoring function (combiner, weights, per-predicate name/cost/p_max —
  declaration order matters because weights are positional);
* ``k`` and the projection list;
* the parameter *structure* — slot keys of ``?`` / ``:name`` placeholders.
  Bound values are deliberately excluded: bindings change executions, not
  plans, which is exactly what lets one cached template plan serve every
  constant (template reuse);
* the optimizer strategy and knob values (heuristic flags, threshold mode,
  execution regime).

Anything *data*-dependent (table contents, statistics, available indexes)
is deliberately excluded: data changes don't change the key, they
invalidate the cache (see :class:`~repro.planner.cache.PlanCache`).
"""

from __future__ import annotations

from ..algebra.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
)
from ..algebra.parameters import Parameter
from ..optimizer.query_spec import QuerySpec

#: a hashable, comparison-stable cache key
QuerySignature = tuple


def expression_key(expression: Expression) -> tuple:
    """A hashable token identifying an expression's *behaviour*.

    ``repr()`` is not enough: :class:`FunctionCall` renders only its display
    name, so two filters wrapping different callables would collide.  This
    walk keys calls (and any unknown node kind) by object identity — safe
    because every live signature is held by a cache entry that also holds
    the expression, so ids cannot be recycled into a false match.  Identity
    keys can only cause false *misses* (a re-plan), never wrong results.
    """
    if isinstance(expression, ColumnRef):
        return ("col", expression.name)
    if isinstance(expression, Literal):
        # Type-discriminated and stringly so keys stay mutually comparable
        # (5 vs '5') and distinct across equal-hash values (0 vs False).
        value = expression.value
        return ("lit", type(value).__name__, repr(value))
    if isinstance(expression, Parameter):
        # Keyed by slot, never by bound value: every binding of a template
        # shares the signature (and therefore one cached plan), and the
        # "param" tag keeps parameterized specs from ever colliding with
        # literal ones.
        return ("param", expression.key)
    if isinstance(expression, (Arithmetic, Comparison)):
        return (
            type(expression).__name__,
            expression.op,
            expression_key(expression.left),
            expression_key(expression.right),
        )
    if isinstance(expression, BooleanOp):
        return (
            "bool",
            expression.op,
            tuple(expression_key(operand) for operand in expression.operands),
        )
    if isinstance(expression, FunctionCall):
        return (
            "call",
            expression.name,
            id(expression.fn),
            tuple(expression_key(argument) for argument in expression.args),
        )
    return ("opaque", id(expression))


def _scorer_key(predicate) -> tuple:
    """The behaviour token of a ranking predicate's scorer: expression
    scorers key structurally (with call identity), callables by identity —
    the cache entry holds the predicate, so the id stays live."""
    scorer = predicate.scorer
    if isinstance(scorer, Expression):
        return ("expr", expression_key(scorer))
    return ("fn", id(scorer))


def spec_signature(spec: QuerySpec) -> QuerySignature:
    """The normalized signature of a bound query spec (knob-independent).

    Boolean conditions are keyed by :func:`expression_key` (names can alias
    distinct expressions when callers pass ``name=`` explicitly, and repr
    hides the callable inside a ``FunctionCall``); ranking predicates are
    additionally keyed by their scorer (:func:`_scorer_key`), so two
    predicates sharing a name but scoring differently never collide.
    """
    # sort by repr: keys are heterogeneous tuples, not mutually orderable
    selections = tuple(
        sorted(
            ((expression_key(c.expression), c.cost) for c in spec.selections),
            key=repr,
        )
    )
    joins = tuple(
        sorted(
            (
                (
                    expression_key(j.predicate.expression),
                    tuple(sorted(j.tables)),
                    j.equi_keys,
                )
                for j in spec.join_conditions
            ),
            key=repr,
        )
    )
    scoring = spec.scoring
    predicates = tuple(
        (p.name, p.cost, p.p_max, _scorer_key(p)) for p in scoring.predicates
    )
    return (
        tuple(sorted(spec.tables)),
        selections,
        joins,
        (scoring.combiner, scoring.weights, predicates),
        spec.k,
        tuple(spec.projection) if spec.projection is not None else None,
        # Parameter structure (slot keys in order), never bound values —
        # all bindings of one template share this component.
        spec.parameters.signature() if spec.parameters is not None else None,
    )


def plan_signature(
    spec: QuerySpec, strategy: str, knobs: dict | None = None
) -> QuerySignature:
    """The full cache key: spec signature + strategy + optimizer knobs."""
    normalized_knobs = tuple(sorted((knobs or {}).items()))
    return (spec_signature(spec), strategy, normalized_knobs)
