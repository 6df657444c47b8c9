"""Static checks: name resolution and kind inference for oracle definitions.

A definition is first held to `syntax.check_shape`; what follows assumes
its shape, operators and values, and checks names and kinds, each operand
before the expression that holds it.

Each expression position reads only its own names (`t` is a trace field):
the event and the condition read the trace fields, the constants and the
function's own timers; the action and notification values read the trace
fields and the constants; the summary reads the constants and the
scoring-function scores. seq_time is readable in conditions only, and
never beside a trace field of that name. Events and conditions must be
boolean; actions, notification values, and the summary must be numeric.
A `CheckedOracle` is checked by being made. It is a plain value; its scoring
programs, of messages and of trace lines, are generated and compiled when
first used (`engine.generate_program`, `engine.generate_line_program`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

from .engine import LineProgram, Program, generate_line_program, generate_program
from .errors import CheckError, EngineError
from .syntax import (
    BINARY,
    BUILTINS,
    UNARY,
    Binary,
    Expr,
    Ident,
    Literal,
    OracleDefinition,
    Unary,
    check_shape,
    kind_of_value,
    unknown_function,
)
from .trace import Kind, Trace, TraceMessage, TraceSchema, schema_fault


@dataclass(frozen=True)
class CheckedOracle:
    """An oracle definition validated against a trace schema when it is made
    (by `dataclasses.replace` too): one check_od refuses raises its CheckError.

    `timers` maps each scoring-function name to the timer names some
    notification targets at it (the timers its expressions may read).
    """

    od: OracleDefinition
    schema: TraceSchema
    timers: Mapping[str, frozenset[str]] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "timers", _check(self.od, self.schema))

    @cached_property
    def program(self) -> Program:
        """The scoring function, made by `engine.generate_program` on first use
        and kept. Only `engine.score_messages` calls it; the reference evaluates `od`."""
        return generate_program(self)

    @cached_property
    def line_program(self) -> LineProgram:
        """The scoring function of numbered trace lines, made by
        `engine.generate_line_program` on first use and kept. Only
        `engine.score_lines` calls it."""
        return generate_line_program(self)

    def _messages_of(self, trace: Trace) -> tuple[TraceMessage, ...]:
        """The messages of a trace of the schema this oracle was checked against."""
        if self.schema.as_dict() != trace.schema.as_dict():
            raise EngineError("trace schema does not match the one the oracle was checked against")
        return trace.messages


_WORDS = {Kind.BOOLEAN: "boolean", Kind.NUMBER: "numeric"}


class _Scope(NamedTuple):
    """What one expression position may name. `readable` maps each name it
    reads to its kind, `refused` each name it must refuse to the reason,
    which the error gives after `where`, and `unknown(name)` is the error
    for any other name. `read` collects the names read."""

    where: str
    readable: Mapping[str, Kind]
    refused: Mapping[str, str]
    unknown: Callable[[str], str]
    read: set[str]

    def resolve(self, name: str) -> Kind:
        if name in self.readable:
            self.read.add(name)
            return self.readable[name]
        if name in self.refused:
            raise CheckError(f"{self.where}: {self.refused[name]}")
        raise CheckError(self.unknown(name))


def _infer(expr: Expr, scope: _Scope) -> Kind:
    if isinstance(expr, Literal):
        return kind_of_value(expr.value)
    if isinstance(expr, Ident):
        return scope.resolve(expr.name)
    if isinstance(expr, Unary):
        kind = _infer(expr.operand, scope)
        _, operand = UNARY[expr.op]
        if kind is not operand:
            # An operator that is binary too is named unary: "unary '-'".
            named = f"unary '{expr.op}'" if expr.op in BINARY else f"'{expr.op}'"
            raise CheckError(f"{scope.where}: {named} requires a {_WORDS[operand]} operand")
        return operand
    if isinstance(expr, Binary):
        op = expr.op
        left = _infer(expr.left, scope)
        right = _infer(expr.right, scope)
        _, operands, kind, _ = BINARY[op]
        if operands is None:
            # Equality on numbers or booleans only; point2 equality stays out
            # to avoid floating-point equality traps on compound values.
            if Kind.POINT2 in (left, right):
                raise CheckError(
                    f"{scope.where}: '{op}' is not defined on point2 values; "
                    "compare coordinates explicitly"
                )
            if left is not right:
                raise CheckError(
                    f"{scope.where}: '{op}' requires operands of one kind, got "
                    f"{left.value} and {right.value}"
                )
        elif left is not operands or right is not operands:
            if kind is not operands:  # an ordering of numbers
                raise CheckError(
                    f"{scope.where}: ordering '{op}' is not defined on "
                    f"{left.value} and {right.value}"
                )
            raise CheckError(f"{scope.where}: '{op}' requires {_WORDS[operands]} operands")
        return kind
    kinds = [_infer(arg, scope) for arg in expr.args]  # a Call
    if expr.name not in BUILTINS:
        raise CheckError(f"{scope.where}: {unknown_function(expr.name)}")
    kind, fewest, most, takes = BUILTINS[expr.name]
    if not fewest <= len(kinds) <= most or kinds != [kind] * len(kinds):
        raise CheckError(f"{scope.where}: {expr.name} {takes}")
    return Kind.NUMBER


def _expect(expr: Expr, scope: _Scope, kind: Kind, what: str) -> None:
    """Check a whole expression and require `kind` of it."""
    if _infer(expr, scope) is not kind:
        raise CheckError(f"{what} must be {_WORDS[kind]}")


def _collect_timers(
    od: OracleDefinition,
    fields: Mapping[str, Kind],
    constants: Mapping[str, Kind],
) -> dict[str, dict[str, str]]:
    """Each function's timers, each with the function that notifies it."""
    notifiers: dict[str, dict[str, str]] = {fn.name: {} for fn in od.functions}
    for fn in od.functions:
        for notif in fn.notifications:
            if notif.target not in notifiers:
                raise CheckError(
                    f"function '{fn.name}': notification target "
                    f"'{notif.target}' is not a scoring function"
                )
            timers = notifiers[notif.target]
            for timer, _ in notif.bindings:
                for names, what in ((fields, "a trace field"), (constants, "a constant")):
                    if timer in names:
                        raise CheckError(f"function '{fn.name}': timer '{timer}' collides with {what}")
                if timer in timers:
                    raise CheckError(
                        f"timer '{timer}' of '{notif.target}' is set by both "
                        f"'{timers[timer]}' and '{fn.name}'; each timer takes "
                        "exactly one notifier"
                    )
                timers[timer] = fn.name
    return notifiers


def _no_timer(where: str, fn_name: str) -> Callable[[str], str]:
    return lambda name: (
        f"{where}: timer '{name}' has no notification targeting "
        f"'{fn_name}' (and '{name}' is not a trace field or constant)"
    )


def _unresolved(where: str) -> Callable[[str], str]:
    return lambda name: f"{where}: unresolved identifier '{name}'"


def check_od(od: OracleDefinition, schema: TraceSchema) -> CheckedOracle:
    """Resolve and kind-check an oracle definition against a trace schema,
    after refusing a definition check_shape refuses and a schema parse_trace would."""
    return CheckedOracle(od, schema)


def _check(od: OracleDefinition, schema: TraceSchema) -> dict[str, frozenset[str]]:
    """check_od's checks, run by `CheckedOracle(od, schema)`; each function's timers."""
    check_shape(od)
    if not od.functions:
        raise CheckError("oracle definition declares no scoring functions")
    fault = schema_fault(schema.fields)
    if fault is not None:
        raise CheckError(fault)
    fields: dict[str, Kind] = {"t": Kind.NUMBER}
    fields.update(schema.as_dict())
    constants: dict[str, Kind] = {}
    for name, value in od.constants:
        if name in fields:
            raise CheckError(f"constant '{name}' collides with trace field '{name}'")
        constants[name] = kind_of_value(value)

    notifiers = _collect_timers(od, fields, constants)

    # seq_time is the sequence time wherever it is named: it is reserved, so
    # no constant, timer or score takes the name, and a field of that name
    # is not readable. Only a condition reads it, and not beside a trace
    # field of that name, which it would shadow.
    outside_condition = "seq_time may only appear in a condition"
    values = {**fields, **constants}
    values.pop("seq_time", None)
    refused = {
        name: f"scoring function '{name}' may only be referenced in the summary"
        for name in od.function_names()
    }
    refused["seq_time"] = outside_condition
    seq_time = {"seq_time": Kind.NUMBER}
    if "seq_time" in fields:
        refused["seq_time"] = (
            "'seq_time' names both the sequence time and a trace field; rename the field"
        )
        seq_time = {}

    for fn in od.functions:
        timers = dict.fromkeys(notifiers[fn.name], Kind.NUMBER)
        in_event = {**values, **timers}
        in_action = {**refused}
        for name in timers:
            in_action[name] = f"timer '{name}' may only be read in the event or condition"
        read: set[str] = set()

        where = f"event of '{fn.name}'"
        scope = _Scope(where, in_event, refused, _no_timer(where, fn.name), read)
        _expect(fn.event, scope, Kind.BOOLEAN, where)
        if fn.condition is not None:
            where = f"condition of '{fn.name}'"
            scope = _Scope(where, {**in_event, **seq_time}, refused, _no_timer(where, fn.name), read)
            _expect(fn.condition, scope, Kind.BOOLEAN, where)
        if fn.action is not None:
            where = f"action of '{fn.name}'"
            scope = _Scope(where, values, in_action, _unresolved(where), read)
            _expect(fn.action, scope, Kind.NUMBER, where)
        for notif in fn.notifications:
            for timer, value in notif.bindings:
                what = f"notification value for '{notif.target}.{timer}'"
                where = f"{what} of '{fn.name}'"
                scope = _Scope(where, values, in_action, _unresolved(where), read)
                _expect(value, scope, Kind.NUMBER, f"{what} in '{fn.name}'")
        unread = notifiers[fn.name].keys() - read.intersection(timers)
        if unread:
            raise CheckError(
                f"timer '{min(unread)}' is targeted at '{fn.name}' but never read "
                "in its event or condition"
            )

    if od.summary is not None:
        scores = {**constants, **dict.fromkeys(od.function_names(), Kind.NUMBER)}
        scope = _Scope(
            "summary", scores, {"seq_time": outside_condition},
            lambda name: f"summary references unknown name '{name}'", set(),
        )
        _expect(od.summary, scope, Kind.NUMBER, "summary")

    return {name: frozenset(timers) for name, timers in notifiers.items()}
