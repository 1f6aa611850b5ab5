"""Bind variables: parameter placeholders and their per-statement slots.

A parameterized statement (``WHERE h.price <= ?`` or ``<= :max_price``)
binds to the same :class:`~repro.optimizer.query_spec.QuerySpec` shape for
every constant — the placeholder becomes a :class:`Parameter` expression
node naming a *slot*.  All placeholders of one statement share a
:class:`ParameterSlots` object, owned by the spec, that declares the slots
and checks a set of bindings against them (:meth:`ParameterSlots.validate`).
It holds no values: the validated ``{slot: value}`` dict travels with one
execution (``ExecutionContext.params``), and a :class:`Parameter` compiles
against it to a constant.

This is what turns the plan cache from exact-text reuse into *template*
reuse: the cache key covers the parameter structure (which slots exist),
never the bound values, so one value-free cached plan serves every binding
— concurrently, since no execution writes into it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..storage.schema import DataType, Schema
from .expressions import Evaluator, Expression, Params

#: placeholder styles (one statement may use only one)
POSITIONAL = "positional"
NAMED = "named"


class ParameterError(Exception):
    """Raised on parameter problems: missing, extra or mistyped bindings,
    mixing placeholder styles, or compiling a parameter without a value."""


def style_of(key: str) -> str:
    """The placeholder style of a slot key (``"?3"`` → positional)."""
    return POSITIONAL if key.startswith("?") else NAMED


class ParameterSlots:
    """The ordered parameter slots of one statement template.

    Keys are ``"?1"``, ``"?2"``, … for positional placeholders (ordinal by
    occurrence) and ``":name"`` for named ones (a repeated name shares one
    slot).  Each slot may carry *expected types* inferred by the binder
    (e.g. a parameter compared against a FLOAT column expects a number);
    :meth:`validate` checks bindings against them and rejects missing or
    extra values with the offending keys spelled out.

    The slots are value-free: :meth:`validate` returns the checked values
    instead of storing them, so a cached template plan stays immutable and
    any number of executions may run it at once, each with its own values.
    """

    __slots__ = ("_keys", "_style", "_expected")

    def __init__(self) -> None:
        self._keys: list[str] = []
        self._style: str | None = None
        self._expected: dict[str, set[DataType]] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __repr__(self) -> str:
        return f"ParameterSlots({', '.join(self._keys) or 'none'})"

    @property
    def keys(self) -> tuple[str, ...]:
        """Slot keys in declaration (first-occurrence) order."""
        return tuple(self._keys)

    @property
    def style(self) -> str | None:
        """``"positional"`` | ``"named"`` | None (no parameters)."""
        return self._style

    # ------------------------------------------------------------------
    # declaration (binder-side)
    # ------------------------------------------------------------------
    def declare(self, key: str) -> str:
        """Register a slot key; repeated named keys collapse to one slot."""
        style = style_of(key)
        if self._style is None:
            self._style = style
        elif self._style != style:
            raise ParameterError(
                "cannot mix positional (?) and named (:name) parameters "
                "in one statement"
            )
        if key not in self._keys:
            self._keys.append(key)
        return key

    def expect(self, key: str, dtype: DataType) -> None:
        """Record an expected data type for a slot (binder type inference)."""
        self._expected.setdefault(key, set()).add(dtype)

    def expected(self, key: str) -> frozenset[DataType]:
        return frozenset(self._expected.get(key, ()))

    def signature(self) -> tuple:
        """The value-free cache-key component: which slots exist, in order."""
        return tuple(self._keys)

    # ------------------------------------------------------------------
    # validation (execution-side)
    # ------------------------------------------------------------------
    def validate(
        self, params: "Sequence[Any] | Mapping[str, Any] | None"
    ) -> dict[str, Any]:
        """One full set of bindings, checked: ``{slot key: value}``.

        Positional templates take a sequence (one value per ``?``, in
        order); named templates take a mapping (keys with or without the
        leading colon).  Raises :class:`ParameterError` on missing or extra
        values and on type mismatches against the binder's expectations.
        Nothing is stored: the values belong to the one execution that
        carries them.
        """
        if not self._keys:
            if params:
                raise ParameterError("query takes no parameters")
            return {}
        if params is None:
            raise ParameterError(
                f"query has {len(self._keys)} unbound parameter(s) "
                f"({', '.join(self._keys)}); pass params=... when executing"
            )
        if self._style == NAMED:
            values = self._match_named(params)
        else:
            values = self._match_positional(params)
        for key, value in values.items():
            self._check_type(key, value)
        return values

    def _match_named(self, params: Any) -> dict[str, Any]:
        if not isinstance(params, Mapping):
            raise ParameterError(
                "named parameters take a mapping, e.g. params={'name': value}; "
                f"got {type(params).__name__}"
            )
        given: dict[str, Any] = {}
        for key, value in params.items():
            normalized = key if str(key).startswith(":") else f":{key}"
            if normalized in given:
                raise ParameterError(
                    f"parameter {normalized} bound twice "
                    "(bare and colon-prefixed forms of the same name)"
                )
            given[normalized] = value
        missing = [key for key in self._keys if key not in given]
        extra = sorted(set(given) - set(self._keys))
        if missing or extra:
            problems = []
            if missing:
                problems.append(f"missing {', '.join(missing)}")
            if extra:
                problems.append(f"unexpected {', '.join(extra)}")
            raise ParameterError(
                f"parameter bindings do not match the statement: "
                f"{'; '.join(problems)} (expected {', '.join(self._keys)})"
            )
        return {key: given[key] for key in self._keys}

    def _match_positional(self, params: Any) -> dict[str, Any]:
        if isinstance(params, Mapping):
            raise ParameterError(
                "positional parameters take a sequence, e.g. params=[v1, v2]; "
                "got a mapping"
            )
        if isinstance(params, (str, bytes)) or not isinstance(params, Sequence):
            raise ParameterError(
                "positional parameters take a sequence, e.g. params=[v1, v2]; "
                f"got {type(params).__name__}"
            )
        supplied = list(params)
        if len(supplied) != len(self._keys):
            raise ParameterError(
                f"query takes {len(self._keys)} positional parameter(s), "
                f"got {len(supplied)}"
            )
        return dict(zip(self._keys, supplied))

    def _check_type(self, key: str, value: Any) -> None:
        """Any-of validation: a slot compared against differently-typed
        contexts (``name = :x OR price = :x``) accepts a value matching
        any one of them; only a value matching none is rejected."""
        expected = self._expected.get(key)
        if not expected:
            return
        if any(dtype.validate(value) for dtype in expected):
            return
        wanted = " or ".join(sorted(dtype.value for dtype in expected))
        raise ParameterError(
            f"parameter {key} expects {wanted}, "
            f"got {value!r} ({type(value).__name__})"
        )


class Parameter(Expression):
    """A bind-variable placeholder inside an expression tree.

    Compiles against one execution's values (``compile(schema, params)``)
    to a constant, so an operator compiled at open reads no shared state
    per row.  A parameter references no columns, and its cache-key token
    is the slot key alone — never a value (see
    :func:`repro.planner.signature.expression_key`).
    """

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        value = param_value(params, self.key)
        return lambda row: value

    def __repr__(self) -> str:
        return self.key


def param_value(params: Params, key: str) -> Any:
    """The value of slot ``key`` in one execution's ``params`` — the one
    read of a binding, for compiled closures and fused functions alike."""
    try:
        return params[key]
    except (KeyError, TypeError):
        raise ParameterError(
            f"parameter {key} is unbound; pass params=... when executing"
        ) from None


def holds_parameters(expression: Expression) -> bool:
    """Whether a :class:`Parameter` occurs anywhere in ``expression``."""
    if isinstance(expression, Parameter):
        return True
    return any(holds_parameters(child) for child in expression.children())


def validate_params(
    slots: ParameterSlots | None,
    params: "Sequence[Any] | Mapping[str, Any] | None",
) -> dict[str, Any]:
    """:meth:`ParameterSlots.validate` on a (possibly absent) slot set: a
    statement without parameters takes no bindings and gets ``{}``."""
    if slots is None:
        if params:
            raise ParameterError("query takes no parameters")
        return {}
    return slots.validate(params)
