"""Static checks: name resolution and kind inference for oracle definitions.

Every identifier must resolve to a trace field, a constant, one of the
function's own timers, seq_time (conditions only, and never beside a trace
field of that name), or — in the summary — a scoring-function score.
Events and conditions must be boolean; actions, initial values,
notification values, and the summary must be numeric.
A checked oracle is a plain value; its scoring program is generated and
compiled when it is first scored (`engine.generate_program`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .engine import Program, generate_program
from .errors import CheckError
from .parser import BUILTIN_FUNCTIONS
from .syntax import (
    MAX_NESTING,
    Binary,
    Call,
    Expr,
    Ident,
    Literal,
    OracleDefinition,
    Unary,
    nests_deeper,
)
from .trace import Kind, Point2, TraceSchema, Value


@dataclass(frozen=True)
class CheckedOracle:
    """An oracle definition validated against a trace schema.

    `timers` maps each scoring-function name to the timer names some
    notification targets at it (the timers its expressions may read).
    """

    od: OracleDefinition
    schema: TraceSchema
    timers: Mapping[str, frozenset[str]]

    @cached_property
    def program(self) -> Program:
        """The scoring function, made by `engine.generate_program` on first use
        and kept. Only `engine.score_messages` calls it; the reference walks `od`."""
        return generate_program(self.od, self.timers)


def _kind_of_value(value: Value) -> Kind:
    if isinstance(value, bool):
        return Kind.BOOLEAN
    if isinstance(value, Point2):
        return Kind.POINT2
    return Kind.NUMBER


@dataclass
class _Scope:
    where: str
    fields: Mapping[str, Kind]
    constants: Mapping[str, Kind]
    function_names: frozenset[str]
    own_timers: frozenset[str] = frozenset()
    timers_readable: bool = False
    seq_time_allowed: bool = False
    scores_readable: bool = False
    referenced_timers: set[str] = field(default_factory=set)
    fn_name: str = ""

    def resolve(self, name: str) -> Kind:
        if name == "seq_time":
            if name in self.fields:
                raise CheckError(
                    f"{self.where}: 'seq_time' names both the sequence time and a "
                    "trace field; rename the field"
                )
            if not self.seq_time_allowed:
                raise CheckError(f"{self.where}: seq_time may only appear in a condition")
            return Kind.NUMBER
        if self.scores_readable and name in self.function_names:
            return Kind.NUMBER
        if name in self.fields:
            return self.fields[name]
        if name in self.constants:
            return self.constants[name]
        if name in self.own_timers:
            if not self.timers_readable:
                raise CheckError(
                    f"{self.where}: timer '{name}' may only be read in the "
                    "event or condition"
                )
            self.referenced_timers.add(name)
            return Kind.NUMBER
        if self.scores_readable:
            raise CheckError(f"summary references unknown name '{name}'")
        if name in self.function_names:
            raise CheckError(
                f"{self.where}: scoring function '{name}' may only be "
                "referenced in the summary"
            )
        if self.timers_readable:
            raise CheckError(
                f"{self.where}: timer '{name}' has no notification targeting "
                f"'{self.fn_name}' (and '{name}' is not a trace field or constant)"
            )
        raise CheckError(f"{self.where}: unresolved identifier '{name}'")


def _check_call(call: Call, scope: _Scope) -> Kind:
    kinds = [_infer(arg, scope) for arg in call.args]
    name = call.name
    if name == "distance":
        if len(kinds) != 2 or kinds != [Kind.POINT2, Kind.POINT2]:
            raise CheckError(
                f"{scope.where}: distance takes exactly two point2 arguments"
            )
        return Kind.NUMBER
    if name == "abs":
        if kinds != [Kind.NUMBER]:
            raise CheckError(f"{scope.where}: abs takes exactly one number")
        return Kind.NUMBER
    if name in ("min", "max"):
        if len(kinds) < 2 or any(k is not Kind.NUMBER for k in kinds):
            raise CheckError(
                f"{scope.where}: {name} takes two or more numbers"
            )
        return Kind.NUMBER
    raise CheckError(
        f"{scope.where}: unknown function '{name}' "
        f"(built-ins: {', '.join(BUILTIN_FUNCTIONS)})"
    )


def _infer(expr: Expr, scope: _Scope) -> Kind:
    if isinstance(expr, Literal):
        return _kind_of_value(expr.value)
    if isinstance(expr, Ident):
        return scope.resolve(expr.name)
    if isinstance(expr, Unary):
        kind = _infer(expr.operand, scope)
        if expr.op == "not":
            if kind is not Kind.BOOLEAN:
                raise CheckError(f"{scope.where}: 'not' requires a boolean operand")
            return Kind.BOOLEAN
        if kind is not Kind.NUMBER:
            raise CheckError(f"{scope.where}: unary '-' requires a numeric operand")
        return Kind.NUMBER
    if isinstance(expr, Binary):
        op = expr.op
        left = _infer(expr.left, scope)
        right = _infer(expr.right, scope)
        if op in ("and", "or"):
            if left is not Kind.BOOLEAN or right is not Kind.BOOLEAN:
                raise CheckError(f"{scope.where}: '{op}' requires boolean operands")
            return Kind.BOOLEAN
        if op in ("+", "-", "*", "/"):
            if left is not Kind.NUMBER or right is not Kind.NUMBER:
                raise CheckError(f"{scope.where}: '{op}' requires numeric operands")
            return Kind.NUMBER
        if op in ("<", "<=", ">", ">="):
            if left is not Kind.NUMBER or right is not Kind.NUMBER:
                raise CheckError(
                    f"{scope.where}: ordering '{op}' is not defined on "
                    f"{left.value} and {right.value}"
                )
            return Kind.BOOLEAN
        # == / != on numbers or booleans only; point2 equality stays out to
        # avoid floating-point equality traps on compound values.
        if left is Kind.POINT2 or right is Kind.POINT2:
            raise CheckError(
                f"{scope.where}: '{op}' is not defined on point2 values; "
                "compare coordinates explicitly"
            )
        if left is not right:
            raise CheckError(
                f"{scope.where}: '{op}' requires operands of one kind, got "
                f"{left.value} and {right.value}"
            )
        return Kind.BOOLEAN
    if isinstance(expr, Call):
        return _check_call(expr, scope)
    raise TypeError(f"not an expression node: {expr!r}")


def _infer_top(expr: Expr, scope: _Scope) -> Kind:
    """_infer for a whole expression. A tree built without the parser is
    held to the parser's nesting limit too, which the generated code needs."""
    if nests_deeper(expr, MAX_NESTING):
        raise CheckError(f"{scope.where}: expression nests deeper than {MAX_NESTING} levels")
    return _infer(expr, scope)


def _collect_timers(
    od: OracleDefinition,
    fields: Mapping[str, Kind],
    constants: Mapping[str, Kind],
) -> dict[str, set[str]]:
    function_names = set(od.function_names())
    owner: dict[tuple[str, str], str] = {}
    available: dict[str, set[str]] = {name: set() for name in function_names}
    for fn in od.functions:
        for notif in fn.notifications:
            if notif.target not in function_names:
                raise CheckError(
                    f"function '{fn.name}': notification target "
                    f"'{notif.target}' is not a scoring function"
                )
            for timer, _ in notif.bindings:
                if timer in fields:
                    raise CheckError(
                        f"function '{fn.name}': timer '{timer}' collides with "
                        "a trace field"
                    )
                if timer in constants:
                    raise CheckError(
                        f"function '{fn.name}': timer '{timer}' collides with "
                        "a constant"
                    )
                key = (notif.target, timer)
                if key in owner:
                    raise CheckError(
                        f"timer '{timer}' of '{notif.target}' is set by both "
                        f"'{owner[key]}' and '{fn.name}'; each timer takes "
                        "exactly one notifier"
                    )
                owner[key] = fn.name
                available[notif.target].add(timer)
    return available


def check_od(od: OracleDefinition, schema: TraceSchema) -> CheckedOracle:
    """Resolve and kind-check an oracle definition against a trace schema."""
    if not od.functions:
        raise CheckError("oracle definition declares no scoring functions")
    fields: dict[str, Kind] = {"t": Kind.NUMBER}
    fields.update(schema.as_dict())
    constants: dict[str, Kind] = {}
    for name, value in od.constants:
        if name in fields:
            raise CheckError(f"constant '{name}' collides with trace field '{name}'")
        constants[name] = _kind_of_value(value)
    function_names = frozenset(od.function_names())

    available = _collect_timers(od, fields, constants)

    for fn in od.functions:
        own = frozenset(available[fn.name])
        referenced: set[str] = set()

        def scope(where: str, *, timers: bool, seq_time: bool) -> _Scope:
            return _Scope(
                where=f"{where} of '{fn.name}'",
                fields=fields,
                constants=constants,
                function_names=function_names,
                own_timers=own,
                timers_readable=timers,
                seq_time_allowed=seq_time,
                referenced_timers=referenced,
                fn_name=fn.name,
            )

        if _infer_top(fn.event, scope("event", timers=True, seq_time=False)) is not Kind.BOOLEAN:
            raise CheckError(f"event of '{fn.name}' must be boolean")
        if fn.condition is not None:
            if _infer_top(fn.condition, scope("condition", timers=True, seq_time=True)) is not Kind.BOOLEAN:
                raise CheckError(f"condition of '{fn.name}' must be boolean")
        if fn.action is not None:
            if _infer_top(fn.action, scope("action", timers=False, seq_time=False)) is not Kind.NUMBER:
                raise CheckError(f"action of '{fn.name}' must be numeric")
        for notif in fn.notifications:
            for timer, value in notif.bindings:
                value_scope = scope(
                    f"notification value for '{notif.target}.{timer}'",
                    timers=False,
                    seq_time=False,
                )
                if _infer_top(value, value_scope) is not Kind.NUMBER:
                    raise CheckError(
                        f"notification value for '{notif.target}.{timer}' in "
                        f"'{fn.name}' must be numeric"
                    )
        unread = own - referenced
        if unread:
            timer = sorted(unread)[0]
            raise CheckError(
                f"timer '{timer}' is targeted at '{fn.name}' but never read "
                "in its event or condition"
            )

    if od.summary is not None:
        summary_scope = _Scope(
            where="summary",
            fields={},
            constants=constants,
            function_names=function_names,
            scores_readable=True,
        )
        if _infer_top(od.summary, summary_scope) is not Kind.NUMBER:
            raise CheckError("summary must be numeric")

    timers = {name: frozenset(timers) for name, timers in available.items()}
    return CheckedOracle(od=od, schema=schema, timers=timers)
