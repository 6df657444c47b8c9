"""Expression evaluation: two evaluators of one semantics.

`eval_expr` walks the expression tree over an `Env`. The batch reference
evaluates with it, and so does the once-per-trace summary. `compile_expr`
turns a checked expression into nested closures once, at check time; the
streaming engine runs only those. The differential suite compares the two.

Evaluation is pure and deterministic. `and`/`or` short-circuit, so a guard
can protect a partial expression: `false and (1 / 0 > 0)` is false, not an
error. Numeric comparison is exact double comparison; tolerance belongs to
the oracle author (write `abs(a - b) < eps`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Mapping, NamedTuple, Union

from .errors import EvalError
from .syntax import Binary, Call, Expr, Ident, Literal, Unary, format_expr
from .trace import Point2, Value


@dataclass
class Env:
    """Bindings visible to one expression evaluation.

    `fields` holds the current message's values (including "t"); `timers`
    the evaluating function's timers; `seq_time` is bound only while a
    condition is evaluated; `scores` only while the summary is evaluated.
    """

    fields: Mapping[str, Value] = field(default_factory=dict)
    constants: Mapping[str, Value] = field(default_factory=dict)
    timers: Mapping[str, float] = field(default_factory=dict)
    seq_time: float | None = None
    scores: Mapping[str, float] = field(default_factory=dict)


def non_finite(what: str, value: float) -> EvalError:
    """The error for a score-bound value that overflowed to inf or NaN.

    Literals and trace values are finite at ingest, so only arithmetic
    overflow gets here. A non-finite score would corrupt sums and rankings
    silently, and JSON cannot represent it (RFC 8259 §6)."""
    return EvalError(f"{what} is non-finite ({value!r})")


def eval_expr(expr: Expr, env: Env) -> Value:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ident):
        name = expr.name
        if name == "seq_time":
            if env.seq_time is None:
                raise EvalError("seq_time is not bound outside a condition")
            return env.seq_time
        for namespace in (env.fields, env.constants, env.timers, env.scores):
            if name in namespace:
                return namespace[name]
        raise EvalError(f"unbound identifier '{name}'")
    if isinstance(expr, Unary):
        if expr.op == "not":
            return not eval_expr(expr.operand, env)
        return -eval_expr(expr.operand, env)
    if isinstance(expr, Binary):
        op = expr.op
        if op == "and":
            return bool(eval_expr(expr.left, env)) and bool(eval_expr(expr.right, env))
        if op == "or":
            return bool(eval_expr(expr.left, env)) or bool(eval_expr(expr.right, env))
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvalError(f"division by zero in '{format_expr(expr)}'")
            return left / right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        raise EvalError(f"unknown operator '{op}'")
    if isinstance(expr, Call):
        args = [eval_expr(arg, env) for arg in expr.args]
        if expr.name == "distance":
            a, b = args
            assert isinstance(a, Point2) and isinstance(b, Point2)
            return math.hypot(a.x - b.x, a.y - b.y)
        if expr.name == "abs":
            return abs(args[0])
        if expr.name == "min":
            return min(args)
        if expr.name == "max":
            return max(args)
        raise EvalError(f"unknown function '{expr.name}'")
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Closure compilation (Feeley & Lapalme, "Using Closures for Code Generation",
# Computer Languages 12(1), 1987).

# f(values, t, timers, seq_time): the message's field values, its timestamp,
# the evaluating function's timers, and seq_time (None outside a condition).
Closure = Callable[[Mapping[str, Value], float, Mapping[str, float], "float | None"], Value]

_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


class _Const(NamedTuple):
    """A folded constant subexpression."""

    value: Value


class _Read(NamedTuple):
    """A direct read of a closure argument: a message field, `t`, an own
    timer, or `seq_time`."""

    source: str  # "field" | "t" | "timer" | "seq_time"
    name: str = ""


_Node = Union[_Const, _Read, Closure]


def compile_expr(
    expr: Expr,
    fields: Collection[str],
    constants: Mapping[str, Value],
    timers: Collection[str] = (),
) -> Closure:
    """Compile a checked expression into a closure f(values, t, timers,
    seq_time) that returns what `eval_expr` returns in the matching `Env`.

    Identifiers resolve here, once: a field, `t`, an own timer or `seq_time`
    becomes a direct read of an argument, and a constant becomes its value.
    Subexpressions over constants only are evaluated here too, unless that
    raises, so an error such as division by zero still happens only when
    evaluation reaches it.
    """

    def resolve(name: str) -> _Node:
        if name in ("t", "seq_time"):
            return _Read(name)
        if name in fields:
            return _Read("field", name)
        if name in constants:
            return _Const(constants[name])
        if name in timers:
            return _Read("timer", name)
        raise EvalError(f"unbound identifier '{name}'")

    return _closure(_compile(expr, resolve))


def _compile(expr: Expr, resolve: Callable[[str], _Node]) -> _Node:
    if isinstance(expr, Literal):
        return _Const(expr.value)
    if isinstance(expr, Ident):
        return resolve(expr.name)
    if isinstance(expr, Unary):
        children = [_compile(expr.operand, resolve)]
    elif isinstance(expr, Binary):
        children = [_compile(expr.left, resolve), _compile(expr.right, resolve)]
    elif isinstance(expr, Call):
        children = [_compile(arg, resolve) for arg in expr.args]
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    closure = _combine(expr, children)
    if all(isinstance(child, _Const) for child in children):
        try:
            return _Const(closure({}, 0.0, {}, None))
        except EvalError:
            pass
    return closure


def _closure(node: _Node) -> Closure:
    if isinstance(node, _Const):
        value = node.value
        return lambda v, t, m, s: value
    if isinstance(node, _Read):
        name = node.name
        if node.source == "field":
            return lambda v, t, m, s: v[name]
        if node.source == "timer":
            return lambda v, t, m, s: m[name]
        if node.source == "t":
            return lambda v, t, m, s: t
        return lambda v, t, m, s: s
    return node


def _combine(expr: Unary | Binary | Call, children: list[_Node]) -> Closure:
    """The closure for one operator node over its compiled operands. Reads
    and constants as operands are inlined where that saves a call."""
    if isinstance(expr, Unary):
        a = _closure(children[0])
        if expr.op == "not":
            return lambda v, t, m, s: not a(v, t, m, s)
        return lambda v, t, m, s: -a(v, t, m, s)
    if isinstance(expr, Call):
        return _call(expr.name, children)
    left, right = children
    op = expr.op
    if op in ("and", "or"):
        a, b = _closure(left), _closure(right)
        if op == "and":
            return lambda v, t, m, s: a(v, t, m, s) and b(v, t, m, s)
        return lambda v, t, m, s: a(v, t, m, s) or b(v, t, m, s)
    if op == "/":
        a, b = _closure(left), _closure(right)

        def divide(v, t, m, s):
            dividend = a(v, t, m, s)
            divisor = b(v, t, m, s)
            if divisor == 0:
                raise EvalError(f"division by zero in '{format_expr(expr)}'")
            return dividend / divisor

        return divide
    fn = _OPERATORS[op]
    if isinstance(right, _Const):
        c = right.value
        if isinstance(left, _Read):
            name = left.name
            if left.source == "field":
                return lambda v, t, m, s: fn(v[name], c)
            if left.source == "timer":
                return lambda v, t, m, s: fn(m[name], c)
            if left.source == "t":
                return lambda v, t, m, s: fn(t, c)
            return lambda v, t, m, s: fn(s, c)
        a = _closure(left)
        return lambda v, t, m, s: fn(a(v, t, m, s), c)
    if isinstance(left, _Const):
        c = left.value
        b = _closure(right)
        return lambda v, t, m, s: fn(c, b(v, t, m, s))
    a, b = _closure(left), _closure(right)
    return lambda v, t, m, s: fn(a(v, t, m, s), b(v, t, m, s))


def _call(name: str, children: list[_Node]) -> Closure:
    if name == "distance":
        p, q = children
        if isinstance(p, _Read) and p.source == "field" and isinstance(q, _Const):
            field_name, qx, qy = p.name, q.value.x, q.value.y

            def distance_to(v, t, m, s):
                point = v[field_name]
                return math.hypot(point.x - qx, point.y - qy)

            return distance_to
        a, b = _closure(p), _closure(q)

        def distance(v, t, m, s):
            pa, pb = a(v, t, m, s), b(v, t, m, s)
            return math.hypot(pa.x - pb.x, pa.y - pb.y)

        return distance
    args = [_closure(child) for child in children]
    if name == "abs":
        (a,) = args
        return lambda v, t, m, s: abs(a(v, t, m, s))
    pick = min if name == "min" else max
    if len(args) == 2:
        a, b = args
        return lambda v, t, m, s: pick(a(v, t, m, s), b(v, t, m, s))
    return lambda v, t, m, s: pick([f(v, t, m, s) for f in args])
