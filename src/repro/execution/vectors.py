"""Optional NumPy column-vector kernels behind the :class:`Batch` API.

The batch operators (:mod:`repro.execution.batch`) exchange plain-Python
column vectors.  This module supplies the *evaluation kernels* they use at
the hot spots — Boolean selection over a batch, ranking-predicate scoring
over a batch — in two interchangeable backends:

* ``"python"`` (default, always available): one tight loop per batch over
  the compiled row evaluator.  Semantically identical to tuple-at-a-time
  evaluation by construction.
* ``"numpy"`` (feature-gated, zero hard dependency): expressions compile
  to element-wise ndarray programs; plain-callable scorers are attempted
  directly on column arrays (``lambda v: v``-style scorers vectorize for
  free) with strict result validation.  Whenever a batch or an expression
  falls outside the safely-vectorizable subset — non-numeric columns,
  NULLs that NumPy cannot represent faithfully, division by zero,
  callables that reject arrays — the kernel returns ``None`` and the
  caller falls back to the Python loop for that batch.

Parity is a hard requirement: both backends run the same IEEE-754 double
arithmetic element-wise, results are converted back to built-in Python
values at the kernel boundary (``.tolist()``), and every construct whose
NumPy semantics could diverge from the row evaluator (NULL handling in
``!=``, truthiness of NaN, ``/ 0``) either gets an explicit guard or
forces the fallback.  ``tests/execution/test_vectors.py`` asserts
bit-identical outputs across backends.

Backend selection: :func:`set_backend` at runtime, or the
``REPRO_VECTOR_BACKEND`` environment variable at import (an unavailable
NumPy silently keeps the pure-Python backend — the gate, not an error).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from ..algebra.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
)
from ..algebra.predicates import BooleanPredicate, RankingPredicate
from ..storage.schema import Schema

try:  # the optional accelerator — never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

BACKENDS = ("python", "numpy")

_backend = "python"


def numpy_available() -> bool:
    """Whether the NumPy backend can be enabled in this environment."""
    return _np is not None


def backend() -> str:
    """The active vector backend (``"python"`` or ``"numpy"``)."""
    return _backend


def set_backend(name: str) -> None:
    """Select the vector backend.

    ``"numpy"`` raises :class:`RuntimeError` when NumPy is not installed —
    use the ``REPRO_VECTOR_BACKEND`` environment variable for a soft gate
    that falls back silently.
    """
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown vector backend {name!r}; expected one of {BACKENDS}")
    if name == "numpy" and _np is None:
        raise RuntimeError("numpy backend requested but numpy is not installed")
    _backend = name


def _configure_from_env() -> None:
    raw = os.environ.get("REPRO_VECTOR_BACKEND")
    if raw is None:
        return
    name = raw.strip().lower()
    if name not in BACKENDS:
        # Fail loudly on typos (consistent with REPRO_EXECUTION);
        # only a *missing numpy* is gated silently.
        raise ValueError(
            f"unknown REPRO_VECTOR_BACKEND value {raw!r}; "
            f"expected one of {BACKENDS}"
        )
    if name == "numpy" and _np is None:
        return  # soft gate: keep the pure-python fallback
    set_backend(name)


_configure_from_env()


class _Unsupported(Exception):
    """Internal: expression/batch outside the vectorizable subset."""


# ----------------------------------------------------------------------
# ndarray program compilation (numpy backend)
# ----------------------------------------------------------------------
#
# A compiled program is ``fn(columns) -> ndarray`` where ``columns`` maps
# schema positions to float64 arrays (NULL = NaN).  Only constructs whose
# element-wise semantics match the row evaluator exactly are compiled;
# everything else raises _Unsupported at compile time.

def _compile_array_program(expression: Expression, schema: Schema):
    if isinstance(expression, ColumnRef):
        position = schema.index_of(expression.name)
        return lambda columns: columns[position], (position,)
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, bool):
            value = float(value)
        if not isinstance(value, (int, float)):
            raise _Unsupported(f"non-numeric literal {value!r}")
        constant = float(value)
        return lambda columns: constant, ()
    if isinstance(expression, Arithmetic):
        left, left_refs = _compile_array_program(expression.left, schema)
        right, right_refs = _compile_array_program(expression.right, schema)
        op = expression.op
        if op == "+":
            fn = lambda columns: left(columns) + right(columns)  # noqa: E731
        elif op == "-":
            fn = lambda columns: left(columns) - right(columns)  # noqa: E731
        elif op == "*":
            fn = lambda columns: left(columns) * right(columns)  # noqa: E731
        elif op in ("/", "%"):
            def fn(columns, _l=left, _r=right, _op=op):
                divisor = _r(columns)
                # The row evaluator raises on division by zero; keep that
                # observable behaviour by refusing to vectorize the batch.
                if _np.any(divisor == 0):
                    raise _Unsupported("division by zero in batch")
                return _l(columns) / divisor if _op == "/" else _l(columns) % divisor
        else:  # pragma: no cover - Arithmetic validates its ops
            raise _Unsupported(f"operator {op!r}")
        return fn, left_refs + right_refs
    if isinstance(expression, Comparison):
        left, left_refs = _compile_array_program(expression.left, schema)
        right, right_refs = _compile_array_program(expression.right, schema)
        op = expression.op
        # NaN encodes NULL; every comparison involving NULL must be False
        # (the row evaluator's two-valued collapse).  <, <=, >, >= and =
        # are naturally False against NaN; != needs an explicit guard.
        if op == "=":
            fn = lambda columns: left(columns) == right(columns)  # noqa: E731
        elif op == "!=":
            def fn(columns, _l=left, _r=right):
                a, b = _l(columns), _r(columns)
                mask = a != b
                for side in (a, b):
                    if isinstance(side, _np.ndarray):
                        mask &= ~_np.isnan(side)
                    elif _np.isnan(side):  # NaN literal: everything NULL
                        return _np.zeros_like(mask, dtype=bool)
                return mask
        elif op == "<":
            fn = lambda columns: left(columns) < right(columns)  # noqa: E731
        elif op == "<=":
            fn = lambda columns: left(columns) <= right(columns)  # noqa: E731
        elif op == ">":
            fn = lambda columns: left(columns) > right(columns)  # noqa: E731
        else:
            fn = lambda columns: left(columns) >= right(columns)  # noqa: E731
        return fn, left_refs + right_refs
    if isinstance(expression, BooleanOp):
        compiled = [
            _compile_array_program(operand, schema) for operand in expression.operands
        ]
        refs = tuple(r for __, operand_refs in compiled for r in operand_refs)
        programs = [fn for fn, __ in compiled]
        op = expression.op

        def as_mask(value):
            # Truthiness of a numeric operand: non-zero and non-NULL
            # (None is falsy for the row evaluator; NaN must not be truthy).
            if isinstance(value, _np.ndarray):
                if value.dtype != bool:
                    return (value != 0) & ~_np.isnan(value)
                return value
            # Scalar operand (a Literal program): a plain Python bool so
            # the &, | and not combinators below stay well-defined.
            return bool(value != 0 and not _np.isnan(value))

        if op == "not":
            inner = programs[0]

            def negate(columns):
                mask = as_mask(inner(columns))
                if isinstance(mask, _np.ndarray):
                    return ~mask
                return not mask

            return negate, refs
        if op == "and":
            def fn(columns):
                mask = as_mask(programs[0](columns))
                for program in programs[1:]:
                    mask = mask & as_mask(program(columns))
                return mask
        else:
            def fn(columns):
                mask = as_mask(programs[0](columns))
                for program in programs[1:]:
                    mask = mask | as_mask(program(columns))
                return mask
        return fn, refs
    raise _Unsupported(f"expression {type(expression).__name__}")


#: largest magnitude a float64 represents exactly for every integer —
#: integer columns beyond it must not be coerced (silent rounding would
#: merge distinct keys)
_EXACT_INT_LIMIT = 2**53


def _column_array(values) -> "Any | None":
    """One column as a float64 array (NULL → NaN), or None when the values
    cannot be represented *faithfully* — non-numeric source types must not
    be numerically coerced (``'10' > 15`` is a TypeError for the row
    evaluator, never an arithmetic fact), and integers beyond 2^53 must
    not be rounded onto each other."""
    try:
        raw = _np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        raw = _np.asarray(values, dtype=object)
    kind = raw.dtype.kind
    if kind in "iufb":
        array = raw.astype(_np.float64)
    elif kind == "O":
        # NULLs and/or arbitrary objects: only genuine numbers qualify.
        if not all(
            v is None or isinstance(v, (int, float)) for v in values
        ):
            return None
        try:
            array = _np.asarray(
                [(_np.nan if v is None else v) for v in values],
                dtype=_np.float64,
            )
        except (TypeError, ValueError, OverflowError):
            return None
    else:  # strings, datetimes, ... — the row evaluator's business
        return None
    with _np.errstate(invalid="ignore"):
        if _np.any(_np.abs(array) >= _EXACT_INT_LIMIT):
            # Not exact in float64: a vectorized comparison could merge
            # distinct values (NaNs compare False, so NULLs pass through).
            return None
    return array


def _batch_arrays(batch, positions: Sequence[int]):
    """Float64 arrays (NULL → NaN) for the referenced columns, or None
    when any column cannot be represented faithfully."""
    columns = batch.columns
    out: dict[int, Any] = {}
    for position in set(positions):
        array = _column_array(columns[position])
        if array is None:
            return None
        out[position] = array
    return out


class BooleanKernel:
    """Per-(condition, schema) vectorized Boolean evaluation."""

    __slots__ = ("_program", "_positions")

    def __init__(self, program, positions):
        self._program = program
        self._positions = positions

    @classmethod
    def compile(cls, condition: BooleanPredicate, schema: Schema) -> "BooleanKernel | None":
        """A kernel for the active backend, or None (caller loops)."""
        if _backend != "numpy":
            return None
        expression = condition.expression
        try:
            program, positions = _compile_array_program(expression, schema)
        except _Unsupported:
            return None

        def root(columns, _p=program):
            mask = _p(columns)
            if isinstance(mask, _np.ndarray) and mask.dtype != bool:
                # Bare numeric expression in Boolean position: truthiness.
                mask = (mask != 0) & ~_np.isnan(mask)
            return mask

        return cls(root, positions)

    def keep_indices(self, batch) -> "list[int] | None":
        """Indices of qualifying tuples, or None (fall back this batch)."""
        arrays = _batch_arrays(batch, self._positions)
        if arrays is None:
            return None
        try:
            mask = self._program(arrays)
        except Exception:
            # _Unsupported (e.g. division by zero in the batch), or any
            # numpy edge the compiler missed: fall back, never crash the
            # query the row evaluator would have answered.
            return None
        if not isinstance(mask, _np.ndarray):
            mask = _np.full(len(batch), bool(mask))
        return [int(i) for i in _np.flatnonzero(mask)]


class RankingKernel:
    """Per-(predicate, schema) vectorized score evaluation.

    Expression scorers compile to ndarray programs; plain-callable scorers
    are *attempted* on the column arrays directly (many scorers are
    element-wise NumPy-compatible) and strictly validated — a scalar
    result, a wrong shape, a non-numeric dtype or any exception falls back
    to the per-tuple loop.  Clamping to ``[0, p_max]`` and the NULL → 0
    rule replicate :meth:`RankingPredicate.compile` exactly.
    """

    __slots__ = ("_predicate", "_program", "_positions", "_callable")

    def __init__(self, predicate, program, positions, callable_fn):
        self._predicate = predicate
        self._program = program
        self._positions = positions
        self._callable = callable_fn

    @classmethod
    def compile(cls, predicate: RankingPredicate, schema: Schema) -> "RankingKernel | None":
        if _backend != "numpy":
            return None
        if predicate.spin_loops:
            # Busy-work per evaluation is a wall-time calibration aid; a
            # vectorized path that skipped it would distort benchmarks.
            return None
        scorer = predicate.scorer
        if isinstance(scorer, Expression):
            try:
                program, positions = _compile_array_program(scorer, schema)
            except _Unsupported:
                return None
            return cls(predicate, program, positions, None)
        if not predicate.columns:
            return None
        try:
            positions = tuple(schema.index_of(c) for c in predicate.columns)
        except Exception:
            return None
        return cls(predicate, None, positions, scorer)

    def scores(self, batch) -> "list[float] | None":
        """The clamped score vector, or None (fall back this batch)."""
        arrays = _batch_arrays(batch, self._positions)
        if arrays is None:
            return None
        n = len(batch)
        try:
            if self._program is not None:
                raw = self._program(arrays)
            else:
                arguments = [arrays[p] for p in self._positions]
                # A plain callable receives Python values in row mode —
                # including None, which it may branch on or crash on.  NaN
                # stand-ins would silently change either outcome, so NULLs
                # force the per-tuple fallback (expression programs handle
                # NaN-as-NULL exactly and skip this guard).
                if any(bool(_np.isnan(a).any()) for a in arguments):
                    return None
                raw = self._callable(*arguments)
        except _Unsupported:
            return None
        except Exception:
            # The callable rejected array arguments — not vectorizable.
            return None
        if not isinstance(raw, _np.ndarray) or raw.shape != (n,):
            return None
        if raw.dtype.kind not in "bif":
            return None
        raw = raw.astype(_np.float64, copy=False)
        p_max = self._predicate.p_max
        clamped = _np.clip(raw, 0.0, p_max)
        clamped = _np.where(_np.isnan(raw), 0.0, clamped)
        return clamped.tolist()


# ----------------------------------------------------------------------
# the kernel entry points the batch operators use
# ----------------------------------------------------------------------

def boolean_kernel(condition: BooleanPredicate, schema: Schema) -> "BooleanKernel | None":
    """Compile a Boolean batch kernel (None under the python backend)."""
    return BooleanKernel.compile(condition, schema)


def ranking_kernel(predicate: RankingPredicate, schema: Schema) -> "RankingKernel | None":
    """Compile a ranking-score batch kernel (None under the python backend)."""
    return RankingKernel.compile(predicate, schema)


def keep_indices(
    kernel: "BooleanKernel | None",
    evaluator: Callable,
    batch,
) -> list[int]:
    """Qualifying tuple indices for a batch: vectorized when the kernel
    applies, the tight Python loop otherwise."""
    if kernel is not None:
        indices = kernel.keep_indices(batch)
        if indices is not None:
            return indices
    return [i for i, t in enumerate(batch.tuples()) if evaluator(t)]


def score_vector(
    kernel: "RankingKernel | None",
    evaluator: Callable,
    batch,
) -> list[float]:
    """One ranking predicate's score vector over a batch: vectorized when
    the kernel applies, the tight Python loop otherwise."""
    if kernel is not None:
        scores = kernel.scores(batch)
        if scores is not None:
            return scores
    return [evaluator(t) for t in batch.tuples()]
