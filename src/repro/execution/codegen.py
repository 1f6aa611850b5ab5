"""Plan-to-code compilation: one fused function per sort-topped segment.

The traditional materialize-then-sort plan (a blocking τ_F over an
unranked, ``P = φ``, pipeline of scan / filter / project / hash join) pays
one Python operator call, one metrics charge and one ``ScoredRow`` per
tuple per operator when it runs on the Volcano iterators.  None of that is
needed: the sort drains its input before emitting anything, so the whole
segment can run as one loop nest.  This module is that regime, in the
style of relational-algebra compilers with pipelined code-generation
backends: a :class:`~repro.optimizer.plans.BatchSegmentPlan` whose shape
is supported is walked once at prepare time and emitted as Python source
for a **single fused function** — scans drive plain ``for`` loops,
predicate expressions are inlined (no closure per node), hash-join probes
and projections run in the loop body, and the blocking top-k sort is the
loop epilogue.  The source is ``compile()``d once and stored on the cached
plan; bind variables are read from the calling execution's
``context.params`` at call time, so one compiled function serves every
binding of a prepared template, concurrently.

Pipeline breakers become loop boundaries: every hash-join build runs as its
own loop before the probe loop that uses it, and the sort materializes
after the main loop.  The µ frontier and all rank-aware operators stay on
the iterators — the fused function runs inside :class:`CompiledSegment`,
one row-world operator that takes the place of the sort.

**The epilogue works a column at a time.**  When the main pipeline ends in
a hash-join probe, that join's results are materialized late: the loop
appends the probe tuple, the partner tuple and the joined rid to three
lists, and only the ``fetch_limit`` winners are concatenated, just before
the function returns (a filter or projection above the join reads the
joined tuple, so there the join still concatenates in-loop).  A callable
scorer over columns becomes one ``map(fn, map(itemgetter(i), side), ...)``
and one comprehension with the clamp chain; ``Expression`` scorers and
``spin_loops`` keep a per-row loop that reads columns off the split.  ``F``
is ``combine``'s arithmetic applied column-wise — ``sum`` over the bare
scores when every weight is 1.0, ``sum(map(mul, W, per))`` for other
weights, the baked ``combine`` for the other combiners — and the top-k is
``heapq.nsmallest`` (or ``sorted``) over ``(-F, rid, index)`` triples,
with no Python key function.

**Parity contract.**  Row mode is the oracle: a compiled segment must
produce identical results — rows, scores, rid tie order — *and* identical
fully-drained metric counters.  Generated code therefore replicates the
row operators' semantics exactly (NULL propagation, comparison collapse,
score clamping, bit-identical ``F``, ``(-F, rid)`` ordering — rids are
unique, so the triples' index never decides — and the same ``heapq`` /
``sorted`` top-k) and charges the same totals the row operators charge tuple by
tuple, summed once: ``charge_scan`` per scan, ``charge_boolean`` with each
filter's input cardinality, ``charge_move`` with the summed per-operator
emissions, ``charge_join_pair`` with the probe-side partner count,
``charge_predicate`` per scored predicate, and the sort's exact comparison
formulas.  Only the float cost totals (``simulated_cost`` and the
``*_cost_units``) can differ, in the last bits, because each operator's
charge is added once instead of once per tuple.
Anything the emitter cannot faithfully reproduce raises
:class:`UnsupportedSegment`, and the segment runs as its row plan.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from operator import attrgetter, itemgetter, mul, neg
from typing import Any, Callable

from ..algebra.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
)
from ..algebra.parameters import Parameter, param_value
from ..algebra.predicates import ScoringFunction
from ..algebra.rank_relation import ScoredRow
from ..storage.row import Row
from ..storage.schema import Schema
from .iterator import PhysicalOperator


class UnsupportedSegment(Exception):
    """The segment has no compiled equivalent; it runs as its row plan
    (never surfaced to the client)."""


def _plan_types():
    # Imported lazily: optimizer.plans imports this module's operator, so a
    # module-level import here would make package import order load-bearing.
    from ..optimizer import plans

    return plans


# ----------------------------------------------------------------------
# the compiled artifact
# ----------------------------------------------------------------------

@dataclass
class CompiledArtifact:
    """One segment's generated source and compiled fused function.

    ``function(context, fetch_limit)`` runs the whole pipeline and returns
    ``(ordered_items, ordered_scores, ordered_bounds, n)`` — the ordered
    result the row :class:`~repro.execution.sort.Sort` materializes — where
    ``ordered_items`` is ``[(carrier, rid), ...]`` in ``(-F, rid)`` order
    (only these ``fetch_limit`` carriers are ever built as joined tuples),
    ``ordered_scores`` maps predicate name to the reordered score vector,
    ``ordered_bounds`` carries the per-tuple ``F`` values, and ``n`` is the
    pre-top-k input cardinality.
    """

    source: str
    function: Callable
    schema: Schema
    #: whether carrier items are base ``Row`` objects (scan/filter-only
    #: pipelines) or plain value tuples (any project/join in the pipeline)
    rows_kept: bool
    label: str
    compile_seconds: float


def compiled_segment_count(plan) -> int:
    """How many segments of ``plan`` carry a compiled artifact."""
    if plan is None:
        return 0
    return sum(
        1 for node in plan.walk() if getattr(node, "compiled", None) is not None
    )


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------

_SUPPORTED_EXPR = (ColumnRef, Literal, Parameter, Arithmetic, Comparison,
                   BooleanOp, FunctionCall)


def _expression_supported(expression: Expression) -> bool:
    if not isinstance(expression, _SUPPORTED_EXPR):
        return False
    return all(_expression_supported(c) for c in expression.children())


def _pipeline_schema(plan, catalog) -> Schema:
    """Output schema of a pipeline subtree (raises on unsupported nodes)."""
    plans = _plan_types()
    if isinstance(plan, plans.SeqScanPlan):
        return catalog.table(plan.table).schema
    if isinstance(plan, plans.FilterPlan):
        return _pipeline_schema(plan.children[0], catalog)
    if isinstance(plan, plans.ProjectPlan):
        return _pipeline_schema(plan.children[0], catalog).project(plan.columns)
    if isinstance(plan, plans.HashJoinPlan):
        return _pipeline_schema(plan.children[0], catalog).concat(
            _pipeline_schema(plan.children[1], catalog)
        )
    raise UnsupportedSegment(f"no compiled form for {plan.label()}")


def _check_pipeline(plan, catalog) -> None:
    plans = _plan_types()
    if isinstance(plan, plans.SeqScanPlan):
        catalog.table(plan.table)
        return
    if isinstance(plan, plans.FilterPlan):
        if not _expression_supported(plan.condition.expression):
            raise UnsupportedSegment(
                f"unsupported filter expression in {plan.label()}"
            )
        schema = _pipeline_schema(plan.children[0], catalog)
        for ref in plan.condition.expression.references():
            schema.index_of(ref)
        _check_pipeline(plan.children[0], catalog)
        return
    if isinstance(plan, plans.ProjectPlan):
        schema = _pipeline_schema(plan.children[0], catalog)
        for column in plan.columns:
            schema.index_of(column)
        _check_pipeline(plan.children[0], catalog)
        return
    if isinstance(plan, plans.HashJoinPlan):
        _pipeline_schema(plan.children[0], catalog).index_of(plan.left_key)
        _pipeline_schema(plan.children[1], catalog).index_of(plan.right_key)
        _check_pipeline(plan.children[0], catalog)
        _check_pipeline(plan.children[1], catalog)
        return
    raise UnsupportedSegment(f"no compiled form for {plan.label()}")


def supports(inner, catalog, scoring: ScoringFunction) -> bool:
    """Whether ``inner`` (a segment's unwrapped descriptor subtree) has a
    compiled equivalent: a sort-topped pipeline of scan / filter / project
    / hash join whose expressions and scorers the emitter can reproduce.

    The sort-topped restriction is deliberate: the sort is blocking in row
    mode too, so eager materialization inside the fused function preserves
    drain order and metric totals.  Streaming (non-sort-topped) segments
    can be cut short by rank-aware consumers, and a fused function that
    eagerly drained them would diverge on partially-consumed metric totals
    — those stay on the iterators.
    """
    plans = _plan_types()
    try:
        if not isinstance(inner, plans.SortPlan):
            return False
        if not scoring.predicate_names:
            return False
        _check_pipeline(inner.children[0], catalog)
        schema = _pipeline_schema(inner.children[0], catalog)
        for name in scoring.predicate_names:
            predicate = scoring.predicate(name)
            scorer = predicate.scorer
            if isinstance(scorer, Expression):
                if not _expression_supported(scorer):
                    return False
                for ref in scorer.references():
                    schema.index_of(ref)
            else:
                for column in predicate.columns:
                    schema.index_of(column)
        return True
    except Exception:
        return False


# ----------------------------------------------------------------------
# the emitter
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Split:
    """A join result kept as its two sides, never concatenated: column
    ``i`` of the joined schema is ``left[i]`` below ``width`` and
    ``right[i - width]`` from there on.  (With ``width`` at the schema's
    length, ``left`` is an ordinary tuple and ``right`` is never read.)"""

    left: str
    right: str
    width: int

    def locate(self, position: int) -> tuple[str, int]:
        if position < self.width:
            return self.left, position
        return self.right, position - self.width

    def read(self, position: int) -> str:
        side, index = self.locate(position)
        return f"{side}[{index}]"

    def column(self, position: int) -> str:
        """An iterator over one column, when both sides are lists."""
        side, index = self.locate(position)
        return f"map(_itemgetter({index}), {side})"


class _Emitter:
    """Accumulates generated source lines, baked constants, and the
    aggregate metric charges the epilogue must issue."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, Any] = {
            "_nsmallest": heapq.nsmallest,
            "_log2": math.log2,
            "_itemgetter": itemgetter,
            "_row_values": attrgetter("values"),
            "_third": itemgetter(2),
            "_mul": mul,
            "_neg": neg,
            "_param": param_value,
        }
        self._serial = 0
        self._params: dict[str, str] = {}
        self.param_lines: list[str] = []
        #: one term per operator emission; their sum is ``tuples_moved``
        self.move_terms: list[str] = []
        #: (count expression, per-evaluation cost) per filter
        self.boolean_charges: list[tuple[str, float]] = []
        #: pairs-counter variable per hash join
        self.pair_counters: list[str] = []

    def fresh(self, prefix: str) -> str:
        self._serial += 1
        return f"_{prefix}{self._serial}"

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def const(self, value: Any, prefix: str = "c") -> str:
        name = self.fresh(prefix)
        self.namespace[name] = value
        return name

    # -- expression emission -------------------------------------------
    def param_var(self, parameter: Parameter) -> str:
        """Hoist a bind-variable read into the per-call prelude: the values
        belong to the calling execution (``context.params``) and cannot
        change during its call, so one read per call is equivalent to the
        row operators' compile-at-open constant and the loop body sees a
        plain local."""
        key = parameter.key
        var = self._params.get(key)
        if var is None:
            var = self.fresh("param")
            self.param_lines.append(f"{var} = _param(context.params, {key!r})")
            self._params[key] = var
        return var

    def value(
        self, expr: Expression, cur: "str | _Split", schema: Schema, depth: int
    ) -> str:
        """Emit evaluation of ``expr`` against the row-like ``cur`` (a
        tuple variable, or a :class:`_Split` join result); returns a
        source atom (safe to repeat) or a single-assignment temp.

        Replicates :meth:`Expression.compile` closure semantics exactly:
        NULL propagation in arithmetic, NULL-to-False comparison collapse,
        and short-circuit strict-bool ``and`` / ``or``.
        """
        atom, __ = self._value(expr, cur, schema, depth)
        return atom

    def _value(
        self, expr: Expression, cur: "str | _Split", schema: Schema, depth: int
    ) -> tuple[str, bool]:
        """(source atom, may-be-None) — the flag folds away the NULL checks
        the interpreted closures perform, exactly where their outcome is
        statically known (a literal operand can never be NULL at runtime,
        and ``0.25 is None`` in generated source would be a SyntaxWarning —
        fatal under the warnings-as-errors CI jobs)."""
        if isinstance(expr, ColumnRef):
            position = schema.index_of(expr.name)
            if isinstance(cur, _Split):
                return cur.read(position), True
            return f"{cur}[{position}]", True
        if isinstance(expr, Parameter):
            return self.param_var(expr), True
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return "None", True
            if isinstance(value, (bool, int, float, str)):
                return repr(value), False
            return self.const(value, "lit"), False
        if isinstance(expr, Arithmetic):
            a, a_null = self._value(expr.left, cur, schema, depth)
            b, b_null = self._value(expr.right, cur, schema, depth)
            if a == "None" or b == "None":
                return "None", True
            checks = [f"{x} is None" for x, n in ((a, a_null), (b, b_null)) if n]
            out = self.fresh("t")
            if checks:
                self.emit(
                    depth,
                    f"{out} = None if {' or '.join(checks)} "
                    f"else {a} {expr.op} {b}",
                )
                return out, True
            self.emit(depth, f"{out} = {a} {expr.op} {b}")
            return out, False
        if isinstance(expr, Comparison):
            a, a_null = self._value(expr.left, cur, schema, depth)
            b, b_null = self._value(expr.right, cur, schema, depth)
            op = "==" if expr.op == "=" else expr.op
            if a == "None" or b == "None":
                return "False", False
            checks = [f"{x} is None" for x, n in ((a, a_null), (b, b_null)) if n]
            out = self.fresh("t")
            if checks:
                self.emit(
                    depth,
                    f"{out} = False if {' or '.join(checks)} "
                    f"else {a} {op} {b}",
                )
            else:
                self.emit(depth, f"{out} = {a} {op} {b}")
            return out, False
        if isinstance(expr, BooleanOp):
            return self._boolean(expr, cur, schema, depth), False
        if isinstance(expr, FunctionCall):
            args = [self.value(a, cur, schema, depth) for a in expr.args]
            fn = self.const(expr.fn, "fn")
            out = self.fresh("t")
            self.emit(depth, f"{out} = {fn}({', '.join(args)})")
            return out, True
        raise UnsupportedSegment(
            f"no compiled form for expression node {type(expr).__name__}"
        )

    def _boolean(
        self, expr: BooleanOp, cur: "str | _Split", schema: Schema, depth: int
    ) -> str:
        out = self.fresh("t")
        if expr.op == "not":
            inner = self.value(expr.operands[0], cur, schema, depth)
            self.emit(depth, f"{out} = not {inner}")
            return out
        # The interpreted closures are all()/any() over lazily-evaluated
        # operands: later operands are emitted inside the else-branch,
        # preserving short-circuiting, and the result is a strict bool.
        is_and = expr.op == "and"

        def chain(operands, d: int) -> None:
            value = self.value(operands[0], cur, schema, d)
            if is_and:
                self.emit(d, f"if not {value}:")
                self.emit(d + 1, f"{out} = False")
            else:
                self.emit(d, f"if {value}:")
                self.emit(d + 1, f"{out} = True")
            self.emit(d, "else:")
            if len(operands) == 1:
                self.emit(d + 1, f"{out} = {'True' if is_and else 'False'}")
            else:
                chain(operands[1:], d + 1)

        chain(tuple(expr.operands), depth)
        return out


# ----------------------------------------------------------------------
# pipeline compilation
# ----------------------------------------------------------------------

def _flatten_pipeline(plan) -> list:
    """The left-deep pipeline rooted at ``plan``, bottom-up (scan first).
    Hash joins contribute their probe step; their right subtrees are
    separate build pipelines handled by the caller."""
    plans = _plan_types()
    ops: list = []
    node = plan
    while True:
        ops.append(node)
        if isinstance(node, plans.SeqScanPlan):
            break
        if isinstance(
            node, (plans.FilterPlan, plans.ProjectPlan, plans.HashJoinPlan)
        ):
            node = node.children[0]
        else:
            raise UnsupportedSegment(f"no compiled form for {node.label()}")
    ops.reverse()
    return ops


def _emit_pipeline(
    emitter: _Emitter,
    root,
    catalog,
    consume,
    tail_count_expr,
    depth: int,
    split_top: bool = False,
) -> tuple[Schema, str]:
    """Emit one pipeline as a fused scan-driven loop.

    ``consume(cur, access, rid, carrier, schema, depth)`` emits the
    innermost body (result append or hash-table insert); ``cur`` is the
    carrier item (a ``Row`` while the carrier is ``"rows"``) and
    ``access`` the plain value tuple to index — hoisted once per
    iteration, so column reads never go through ``Row.__getitem__``.
    ``rid`` is a source expression for the tuple's row id.
    ``tail_count_expr`` names the pipeline's final emission count when the
    caller computes it after the loop (``_n`` for the main pipeline);
    ``None`` forces per-operator counters.  Returns the final schema and
    carrier kind (``"rows"`` while tuples are still base ``Row`` objects,
    ``"values"`` once a project or join rebuilt them as plain tuples —
    the base rows survive only scans and filters).

    With ``split_top`` and a hash-join probe as the pipeline's last step,
    that join's results are not concatenated: ``cur`` and ``access`` are
    a :class:`_Split` over the probe tuple and the partner tuple, and the
    carrier is ``"split"``.
    """
    plans = _plan_types()
    ops = _flatten_pipeline(root)

    # Output schema of each operator, bottom-up.
    schemas: list[Schema] = []
    for op in ops:
        if isinstance(op, plans.SeqScanPlan):
            schemas.append(catalog.table(op.table).schema)
        elif isinstance(op, plans.FilterPlan):
            schemas.append(schemas[-1])
        elif isinstance(op, plans.ProjectPlan):
            schemas.append(schemas[-1].project(op.columns))
        else:  # HashJoinPlan
            schemas.append(
                schemas[-1].concat(_pipeline_schema(op.children[1], catalog))
            )

    # Emission-count expression per operator — the terms of the aggregate
    # charge_move and each filter's charge_boolean input count.  The scan
    # knows its count, a project passes its child's through, and a
    # filter/join whose output reaches the pipeline tail through projects
    # only reuses the tail count; everything else gets a dedicated counter
    # incremented in-loop.
    scan_n = emitter.fresh("n")
    counters: dict[int, str] = {}
    count_exprs: list[str] = []
    for i, op in enumerate(ops):
        if isinstance(op, plans.SeqScanPlan):
            count_exprs.append(scan_n)
        elif isinstance(op, plans.ProjectPlan):
            count_exprs.append(count_exprs[i - 1])
        else:  # filter or join
            tail_chained = tail_count_expr is not None and all(
                isinstance(above, plans.ProjectPlan) for above in ops[i + 1:]
            )
            if tail_chained:
                count_exprs.append(tail_count_expr)
            else:
                counter = emitter.fresh("kept")
                counters[i] = counter
                count_exprs.append(counter)
    emitter.move_terms.extend(count_exprs)

    # Hash-join builds are loop boundaries: each join's build pipeline runs
    # (recursively, so nested joins fill their own tables first) before the
    # probe loop that uses it.
    join_state: dict[int, tuple[str, str]] = {}
    for i, op in enumerate(ops):
        if not isinstance(op, plans.HashJoinPlan):
            continue
        ht = emitter.fresh("ht")
        ht_add = emitter.fresh("htadd")
        pairs = emitter.fresh("pairs")
        emitter.pair_counters.append(pairs)
        emitter.emit(depth, f"{ht} = {{}}")
        emitter.emit(depth, f"{ht_add} = {ht}.setdefault")
        emitter.emit(depth, f"{pairs} = 0")

        def build_consume(
            cur, access, rid, carrier, schema, d, *, _op=op, _add=ht_add
        ):
            position = schema.index_of(_op.right_key)
            # Identical to the row HashJoin's build: partners stored in
            # build-arrival order per key, as (value-tuple, rid) pairs.
            emitter.emit(
                d, f"{_add}({access}[{position}], []).append(({access}, {rid}))"
            )

        _emit_pipeline(
            emitter, op.children[1], catalog, build_consume, None, depth
        )
        join_state[i] = (ht, pairs)

    # Counter initializations, then the scan-driven loop.
    for counter in counters.values():
        emitter.emit(depth, f"{counter} = 0")
    scan = ops[0]
    view = emitter.fresh("view")
    cur = emitter.fresh("row")
    rid = emitter.fresh("rid")
    emitter.emit(depth, f"{view} = _catalog.table({scan.table!r}).columns()")
    emitter.emit(depth, f"{scan_n} = len({view})")
    emitter.emit(depth, f"_metrics.charge_scan({scan_n})")
    emitter.emit(depth, f"for {cur}, {rid} in zip({view}.rows, {view}.rids):")

    carrier = "rows"
    schema = schemas[0]
    d = depth + 1
    # Hoist the value tuple once per row: every downstream column read
    # indexes a plain tuple instead of calling ``Row.__getitem__``.
    access = emitter.fresh("vals")
    emitter.emit(d, f"{access} = {cur}.values")
    for i in range(1, len(ops)):
        op = ops[i]
        if isinstance(op, plans.FilterPlan):
            value = emitter.value(op.condition.expression, access, schema, d)
            emitter.boolean_charges.append(
                (count_exprs[i - 1], op.condition.cost)
            )
            emitter.emit(d, f"if not {value}:")
            emitter.emit(d + 1, "continue")
            if i in counters:
                emitter.emit(d, f"{counters[i]} += 1")
        elif isinstance(op, plans.ProjectPlan):
            positions = [schema.index_of(c) for c in op.columns]
            out = emitter.fresh("proj")
            cells = ", ".join(f"{access}[{p}]" for p in positions)
            trailing = "," if len(positions) == 1 else ""
            emitter.emit(d, f"{out} = ({cells}{trailing})")
            cur = out
            access = out
            carrier = "values"
            schema = schemas[i]
        else:  # HashJoinPlan probe
            ht, pairs = join_state[i]
            position = schema.index_of(op.left_key)
            partners = emitter.fresh("part")
            emitter.emit(d, f"{partners} = {ht}.get({access}[{position}])")
            emitter.emit(d, f"if not {partners}:")
            emitter.emit(d + 1, "continue")
            emitter.emit(d, f"{pairs} += len({partners})")
            pv = emitter.fresh("pv")
            prid = emitter.fresh("prid")
            emitter.emit(d, f"for {pv}, {prid} in {partners}:")
            d += 1
            if split_top and i == len(ops) - 1:
                # Late materialization: only the winners the epilogue
                # selects are ever concatenated.  The last step's count is
                # the tail count, so it has no in-loop counter.
                cur = access = _Split(access, pv, len(schema))
                rid = f"{rid} + {prid}"
                carrier = "split"
                schema = schemas[i]
                break
            jv = emitter.fresh("jv")
            jrid = emitter.fresh("jrid")
            emitter.emit(d, f"{jv} = {access} + {pv}")
            emitter.emit(d, f"{jrid} = {rid} + {prid}")
            cur, rid = jv, jrid
            access = jv
            carrier = "values"
            schema = schemas[i]
            if i in counters:
                emitter.emit(d, f"{counters[i]} += 1")

    consume(cur, access, rid, carrier, schema, d)
    return schemas[-1], carrier


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------

def compile_segment(inner, catalog, scoring: ScoringFunction) -> CompiledArtifact:
    """Compile a sort-topped segment descriptor into a fused function.

    Raises :class:`UnsupportedSegment` for any shape, expression, or
    scorer the emitter cannot faithfully reproduce — the caller keeps the
    row plan.
    """
    plans = _plan_types()
    started = time.perf_counter()
    if not isinstance(inner, plans.SortPlan):
        raise UnsupportedSegment("only sort-topped segments compile")
    names = scoring.predicate_names
    if not names:
        raise UnsupportedSegment("no ranking predicates to order by")

    emitter = _Emitter()
    emitter.emit(1, "_catalog = context.catalog")
    emitter.emit(1, "_metrics = context.metrics")
    prelude_index = len(emitter.lines)
    top = inner.children[0]
    # A hash-join probe at the top of the pipeline keeps its results split
    # (see _emit_pipeline): one list per side, concatenated for the
    # winners only.
    split = isinstance(top, plans.HashJoinPlan)
    for var in ("_left", "_right") if split else ("_items",):
        emitter.emit(1, f"{var} = []")
        emitter.emit(1, f"{var}_append = {var}.append")
    emitter.emit(1, "_rids = []")
    emitter.emit(1, "_rids_append = _rids.append")

    def consume(cur, access, rid, carrier, schema, depth):
        if carrier == "split":
            emitter.emit(depth, f"_left_append({cur.left})")
            emitter.emit(depth, f"_right_append({cur.right})")
        else:
            emitter.emit(depth, f"_items_append({cur})")
        emitter.emit(depth, f"_rids_append({rid})")

    schema, carrier = _emit_pipeline(
        emitter, top, catalog, consume, "_n", 1, split_top=split
    )

    # ---- epilogue: aggregate charges ---------------------------------
    emitter.emit(1, "_n = len(_rids)")
    if emitter.move_terms:
        emitter.emit(
            1, f"_metrics.charge_move({' + '.join(emitter.move_terms)})"
        )
    for count, cost in emitter.boolean_charges:
        emitter.emit(1, f"_metrics.charge_boolean({count}, cost={cost!r})")
    for pairs in emitter.pair_counters:
        emitter.emit(1, f"_metrics.charge_join_pair({pairs})")

    # ---- epilogue: score every ranking predicate, a column at a time --
    # ``lists`` locates a column among the result lists (map over it at C
    # speed); ``row`` is what a per-row loop, ``row_loop``, indexes.
    if split:
        width = len(_pipeline_schema(top.children[0], catalog))
        lists = _Split("_left", "_right", width)
        row_loop = "for _lv, _rv in zip(_left, _right):"
        row = _Split("_lv", "_rv", width)
    else:
        values = "_items"
        if carrier == "rows":
            # Items are base Row objects: index their value tuples.
            values = "_values"
            emitter.emit(1, "_values = list(map(_row_values, _items))")
        lists = _Split(values, values, len(schema))
        row_loop = f"for _v in {values}:"
        row = _Split("_v", "_v", len(schema))

    score_vars: list[tuple[str, str]] = []
    for name in names:
        predicate = scoring.predicate(name)
        sv = emitter.fresh("scores")
        score_vars.append((name, sv))
        scorer = predicate.scorer
        # RankingPredicate.compile's exact clamp chain, as one expression.
        p_max = repr(predicate.p_max)
        clamp = (
            f"0.0 if _s is None else 0.0 if _s < 0.0 else {p_max} "
            f"if _s > {p_max} else float(_s)"
        )
        positions = [] if isinstance(scorer, Expression) else [
            schema.index_of(c) for c in predicate.columns
        ]
        if positions and not predicate.spin_loops:
            # A callable over columns: map it over the column iterators,
            # so the scorer is the only Python frame per result.
            fn = emitter.const(scorer, "pfn")
            args = ", ".join(lists.column(p) for p in positions)
            emitter.emit(1, f"{sv} = [{clamp} for _s in map({fn}, {args})]")
        else:
            app = emitter.fresh("sapp")
            emitter.emit(1, f"{sv} = []")
            emitter.emit(1, f"{app} = {sv}.append")
            emitter.emit(1, row_loop)
            if predicate.spin_loops:
                # The calibrated busy-loop the row scorer runs per
                # evaluation — kept so wall-time comparisons stay honest.
                sink = emitter.fresh("sink")
                idx = emitter.fresh("spin")
                emitter.emit(2, f"{sink} = 0")
                emitter.emit(2, f"for {idx} in range({predicate.spin_loops}):")
                emitter.emit(3, f"{sink} += {idx}")
            if isinstance(scorer, Expression):
                raw = emitter.value(scorer, row, schema, 2)
            else:
                fn = emitter.const(scorer, "pfn")
                reads = ", ".join(row.read(p) for p in positions)
                raw = f"{fn}({reads})"
            emitter.emit(2, f"_s = {raw}")
            emitter.emit(2, f"{app}({clamp})")
        emitter.emit(1, f"_metrics.charge_predicate({predicate.cost!r}, _n)")

    # ---- epilogue: per-row F with combine's exact arithmetic ---------
    # Every predicate is evaluated here and the score columns follow
    # ``scoring.predicates`` order, so ``upper_bound(dict)`` is
    # ``combine(per)`` on the identical sequence.  For sum/wsum that is
    # the builtin ``sum`` over ``w * s`` in declaration order; with unit
    # weights ``1.0 * s`` is exactly ``s``, so ``sum`` over the bare
    # scores is bit-identical (on every Python, compensated ``sum`` or
    # not).  The other combiners call the baked ``combine``.
    columns = ", ".join(sv for __, sv in score_vars)
    if scoring.combiner in ("sum", "wsum"):
        if all(w == 1.0 for w in scoring.weights):
            emitter.emit(1, f"_bounds = list(map(sum, zip({columns})))")
        else:
            weights = emitter.const(scoring.weights, "w")
            emitter.emit(
                1,
                f"_bounds = [sum(map(_mul, {weights}, _per)) "
                f"for _per in zip({columns})]",
            )
    else:
        emitter.namespace["_combine"] = scoring.combine
        emitter.emit(1, f"_bounds = list(map(_combine, zip({columns})))")

    # ---- epilogue: the sort (Sort's exact top-k and formulas) --------
    # The (-F, rid, index) triples compare exactly as Sort's (-F, rid)
    # key: rids are unique, so the index is never reached, and heapq's
    # keyed form decorates with the input position in the same way.
    emitter.emit(1, "_keys = zip(map(_neg, _bounds), _rids, range(_n))")
    emitter.emit(1, "if fetch_limit is not None and fetch_limit < _n:")
    emitter.emit(
        2,
        "_metrics.charge_comparisons("
        "int(_n * max(1, _log2(max(2, fetch_limit)))))",
    )
    emitter.emit(2, "_order = list(map(_third, _nsmallest(fetch_limit, _keys)))")
    emitter.emit(1, "else:")
    emitter.emit(
        2, "_metrics.charge_comparisons(int(_n * max(1, _log2(_n or 1))))"
    )
    emitter.emit(2, "_order = list(map(_third, sorted(_keys)))")
    scores_items = ", ".join(
        f"{name!r}: [{sv}[_i] for _i in _order]" for name, sv in score_vars
    )
    item = "_left[_i] + _right[_i]" if split else "_items[_i]"
    emitter.emit(1, "return (")
    emitter.emit(2, f"[({item}, _rids[_i]) for _i in _order],")
    emitter.emit(2, f"{{{scores_items}}},")
    emitter.emit(2, "[_bounds[_i] for _i in _order],")
    emitter.emit(2, "_n,")
    emitter.emit(1, ")")

    # ---- assemble and compile ----------------------------------------
    lines = (
        emitter.lines[:prelude_index]
        + ["    " + line for line in emitter.param_lines]
        + emitter.lines[prelude_index:]
    )
    source = "def _fused(context, fetch_limit):\n" + "\n".join(lines) + "\n"
    steps = [op.label() for op in _flatten_pipeline(inner.children[0])]
    label = f"compiled[{' -> '.join(steps)} -> sort]"
    code = compile(source, f"<codegen:{label}>", "exec")
    namespace = emitter.namespace
    exec(code, namespace)
    return CompiledArtifact(
        source=source,
        function=namespace["_fused"],
        schema=schema,
        rows_kept=(carrier == "rows"),
        label=label,
        compile_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# the operator
# ----------------------------------------------------------------------

class CompiledSegment(PhysicalOperator):
    """A compiled segment as one row-world operator.

    It takes the place of the segment's blocking sort: at the first pull it
    calls the fused function once — with the ``fetch_limit`` a
    directly-enclosing λ_k announced through :meth:`notify_limit` (cursor
    plans strip the λ and therefore always get the full ordering) — and
    then emits the ordered result one :class:`ScoredRow` at a time.  Its
    ``P`` is the full predicate set and its :meth:`bound` is the next
    pending tuple's ``F``, read from the ordered F column the function
    returns.  Each emitted tuple is charged one move, like the sort it
    replaces; the moves of the operators fused below are charged inside
    the function.
    """

    kind = "compiled"

    def __init__(self, artifact: CompiledArtifact):
        super().__init__()
        self.artifact = artifact
        self.fetch_limit: int | None = None
        self._ordered: list | None = None
        self._scores: dict[str, list[float]] = {}
        self._bounds: list[float] = []
        self._position = 0

    def describe(self) -> str:
        if self.fetch_limit is not None:
            return f"{self.artifact.label}(top {self.fetch_limit})"
        return self.artifact.label

    def notify_limit(self, k: int) -> None:
        if self.fetch_limit is None:
            self.fetch_limit = k

    def schema(self) -> Schema:
        return self.artifact.schema

    def predicates(self) -> frozenset[str]:
        return frozenset(self.context.scoring.predicate_names)

    def bound(self) -> float:
        if self._ordered is None:
            return self.context.scoring.max_possible()
        if self._position >= len(self._bounds):
            return -math.inf
        return self._bounds[self._position]

    def _open(self) -> None:
        self._ordered = None
        self._position = 0

    def _run(self) -> None:
        stats = self.stats
        started = time.perf_counter()
        with self.context.span("compiled_call", fn=self.artifact.label):
            self._ordered, self._scores, self._bounds, n = self.artifact.function(
                self.context, self.fetch_limit
            )
        stats.wall_seconds += time.perf_counter() - started
        stats.tuples_in += n

    def _next(self) -> ScoredRow | None:
        if self._ordered is None:
            self._run()
        position = self._position
        if position >= len(self._ordered):
            return None
        self._position = position + 1
        item, rid = self._ordered[position]
        row = item if self.artifact.rows_kept else Row(item, rid)
        return ScoredRow(
            row, {name: column[position] for name, column in self._scores.items()}
        )

    def _close(self) -> None:
        self._ordered = None
        self._scores = {}
        self._bounds = []
