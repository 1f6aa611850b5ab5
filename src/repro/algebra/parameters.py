"""Bind variables: parameter placeholders and their per-statement slots.

A parameterized statement (``WHERE h.price <= ?`` or ``<= :max_price``)
binds to the same :class:`~repro.optimizer.query_spec.QuerySpec` shape for
every constant — the placeholder becomes a :class:`Parameter` expression
node whose compiled evaluator reads a *slot* instead of a baked-in literal.
All placeholders of one statement share a :class:`ParameterSlots` object,
owned by the spec; executing the statement writes values into the slots
(:meth:`ParameterSlots.bind`) and the shared compiled closures pick them up
at evaluation time.

This is what turns the plan cache from exact-text reuse into *template*
reuse: the cache key covers the parameter structure (which slots exist),
never the bound values, so one cached plan serves every binding.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..storage.schema import DataType, Schema
from .expressions import Evaluator, Expression

#: placeholder styles (one statement may use only one)
POSITIONAL = "positional"
NAMED = "named"


class ParameterError(Exception):
    """Raised on parameter problems: missing, extra or mistyped bindings,
    mixing placeholder styles, or evaluating an unbound slot."""


def style_of(key: str) -> str:
    """The placeholder style of a slot key (``"?3"`` → positional)."""
    return POSITIONAL if key.startswith("?") else NAMED


class ParameterSlots:
    """The ordered parameter slots of one statement template.

    Keys are ``"?1"``, ``"?2"``, … for positional placeholders (ordinal by
    occurrence) and ``":name"`` for named ones (a repeated name shares one
    slot).  Each slot may carry *expected types* inferred by the binder
    (e.g. a parameter compared against a FLOAT column expects a number);
    :meth:`bind` validates bindings against them and rejects missing or
    extra values with the offending keys spelled out.

    Values live here — not in the expression tree and not in the plan — so
    a cached template plan stays value-free and every execution simply
    rebinds.  Bindings are read *during* execution; whole runs are atomic,
    and cursors snapshot their bindings at open and :meth:`restore` them
    before every fetch, so interleaved executions of one template stay
    isolated from each other.
    """

    __slots__ = ("_keys", "_style", "_expected", "_values")

    def __init__(self) -> None:
        self._keys: list[str] = []
        self._style: str | None = None
        self._expected: dict[str, set[DataType]] = {}
        self._values: dict[str, Any] = {}

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
    # binding (execution-side)
    # ------------------------------------------------------------------
    def bind(self, params: "Sequence[Any] | Mapping[str, Any] | None") -> None:
        """Validate and install one full set of bindings.

        Positional templates take a sequence (one value per ``?``, in
        order); named templates take a mapping (keys with or without the
        leading colon).  Raises :class:`ParameterError` on missing or extra
        values and on type mismatches against the binder's expectations.
        """
        if not self._keys:
            if params:
                raise ParameterError("query takes no parameters")
            return
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
        self._values = values

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

    def clear(self) -> None:
        """Drop current bindings (slots become unbound again)."""
        self._values = {}

    @property
    def is_bound(self) -> bool:
        """Whether every slot currently holds a value."""
        return all(key in self._values for key in self._keys)

    def value(self, key: str) -> Any:
        """The current binding of a slot (evaluation-time read)."""
        try:
            return self._values[key]
        except KeyError:
            raise ParameterError(
                f"parameter {key} is unbound; pass params=... when executing"
            ) from None

    def current(self) -> dict[str, Any]:
        """A snapshot of the current bindings (for introspection, and for
        per-execution restore — see :meth:`restore`)."""
        return dict(self._values)

    def restore(self, values: Mapping[str, Any]) -> None:
        """Reinstall a snapshot previously taken with :meth:`current`.

        This is how interleaved executions of one template stay isolated:
        a cursor snapshots its (already validated) bindings at open and
        restores them before every fetch, so later runs of the same
        template cannot silently change an open cursor's predicate.
        """
        self._values = dict(values)


class Parameter(Expression):
    """A bind-variable placeholder inside an expression tree.

    Compiles to a closure that reads its slot *at evaluation time*, so the
    same compiled (and cached) evaluator serves every binding of the
    template.  A parameter references no columns, and its cache-key token
    is the slot key alone — never a value (see
    :func:`repro.planner.signature.expression_key`).
    """

    __slots__ = ("key", "slots")

    def __init__(self, key: str, slots: ParameterSlots):
        self.key = key
        self.slots = slots

    def compile(self, schema: Schema) -> Evaluator:
        slots = self.slots
        key = self.key
        return lambda row: slots.value(key)

    def __repr__(self) -> str:
        return self.key


def bind_slots(
    slots: ParameterSlots | None,
    params: "Sequence[Any] | Mapping[str, Any] | None",
) -> None:
    """Bind values into a (possibly absent) slot set.

    The shared entry point of every execution path: validates that
    non-parameterized statements receive no bindings and that parameterized
    ones receive a complete, well-typed set.
    """
    if slots is None or not slots:
        if params:
            raise ParameterError("query takes no parameters")
        return
    slots.bind(params)
