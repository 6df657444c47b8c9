"""Expression evaluation: two evaluators of one semantics.

`eval_expr` walks the expression tree over an `Env`, dispatching on each
node's exact type and taking arithmetic and comparison from one table of
`operator` functions; the batch reference evaluates with it alone.
`emit_expr` writes a checked expression as Python source; the streaming
engine runs only such code, spliced into the one scoring function generated
per oracle at check time (`engine.generate_program`). The differential
suite compares the two.

Evaluation is pure and deterministic. `and`/`or` short-circuit, so a guard
can protect a partial expression: `false and (1 / 0 > 0)` is false, not an
error. Numeric comparison is exact double comparison; tolerance belongs to
the oracle author (write `abs(a - b) < eps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .errors import EvalError
from .syntax import BINARY, BUILTINS, UNARY, Binary, Call, Expr, Ident, Literal, Unary, format_expr
from .trace import Point2, Value


@dataclass
class Env:
    """Bindings visible to one expression evaluation.

    `fields` holds the current message's values (including "t"); `timers`
    the evaluating function's timers; `seq_time` is bound only while a
    condition is evaluated; `scores` only while the summary is evaluated.
    The reference keeps one Env per trace and replaces `fields` per message.
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


# The operators that evaluate both operands and apply one function; "/"
# (its zero check), "and" and "or" (short-circuit) are handled apart.
_OPERATORS = {op: apply for op, (_, _, _, apply) in BINARY.items() if apply is not None}


def eval_expr(expr: Expr, env: Env) -> Value:
    """Evaluate `expr` over `env` by walking the tree.

    Nodes are dispatched on their exact type, most frequent first. The name
    `seq_time` reads `env.seq_time`; any other name resolves to the first of
    a field, a constant, a timer and a score that has it."""
    kind = type(expr)
    if kind is Binary:
        op = expr.op
        apply = _OPERATORS.get(op)
        if apply is not None:
            return apply(eval_expr(expr.left, env), eval_expr(expr.right, env))
        if op == "and":
            return bool(eval_expr(expr.left, env)) and bool(eval_expr(expr.right, env))
        if op == "or":
            return bool(eval_expr(expr.left, env)) or bool(eval_expr(expr.right, env))
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if op == "/":
            if right == 0:
                raise EvalError(f"division by zero in '{format_expr(expr)}'")
            return left / right
        raise EvalError(f"unknown operator '{op}'")
    if kind is Ident:
        name = expr.name
        if name == "seq_time":
            if env.seq_time is None:
                raise EvalError("seq_time is not bound outside a condition")
            return env.seq_time
        if name in env.fields:
            return env.fields[name]
        if name in env.constants:
            return env.constants[name]
        if name in env.timers:
            return env.timers[name]
        if name in env.scores:
            return env.scores[name]
        raise EvalError(f"unbound identifier '{name}'")
    if kind is Literal:
        return expr.value
    if kind is Call:
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
    if kind is Unary:
        value = eval_expr(expr.operand, env)
        if expr.op == "not":
            return not value
        if expr.op == "-":
            return -value
        raise EvalError(f"unknown operator '{expr.op}'")
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Code generation: expressions as Python source, for `engine.generate_program`.
#
# Only variable names of the generator's choosing, indices, repr() of finite
# floats and the keys of syntax.BINARY, UNARY and BUILTINS are spliced into
# the source. Any other value (booleans, points, names and error texts) is
# bound in the exec namespace, so no name an oracle declares can change the
# generated program.


def _divide(dividend: float, divisor: float, error: str) -> float:
    if divisor == 0:
        raise EvalError(error)
    return dividend / divisor


def runtime() -> dict[str, Any]:
    """A fresh exec namespace with the helpers generated code calls."""
    return {"_divide": _divide, "_dist": math.dist}


def binder(namespace: dict[str, Any]) -> Callable[[Any], str]:
    """bind(value) stores value in namespace under a fresh name and returns
    that name, for use in generated source."""

    def bind(value: Any) -> str:
        name = f"_v{len(namespace)}"
        namespace[name] = value
        return name

    return bind


def emit_value(value: Value, bind: Callable[[Any], str]) -> str:
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return bind(value)


def emit_expr(expr: Expr, resolve: Callable[[str], str], bind: Callable[[Any], str]) -> str:
    """Python source that evaluates a checked expression as `eval_expr`
    does: same value and type, operands left to right, `and`/`or`
    short-circuit, the same division-by-zero error. `resolve(name)` gives
    the source that reads an identifier.

    Every operator is parenthesised, because Python chains `a < b < c`;
    the parser's nesting limit keeps the result under CPython's limit on
    nested parentheses. `distance` is math.dist, which computes what
    eval_expr's math.hypot of the coordinate differences does, bit for bit.
    """

    def emit(e: Expr) -> str:
        if isinstance(e, Literal):
            return emit_value(e.value, bind)
        if isinstance(e, Ident):
            return resolve(e.name)
        if isinstance(e, Unary) and e.op in UNARY:
            return f"({'not ' if e.op == 'not' else e.op}{emit(e.operand)})"
        if isinstance(e, Binary) and e.op in BINARY:
            left, right = emit(e.left), emit(e.right)
            if e.op == "/":
                error = bind(f"division by zero in '{format_expr(e)}'")
                return f"_divide({left}, {right}, {error})"
            return f"({left} {e.op} {right})"
        if isinstance(e, Call) and e.name in BUILTINS:
            name = "_dist" if e.name == "distance" else e.name
            return f"{name}({', '.join(emit(arg) for arg in e.args)})"
        raise TypeError(f"not a checked expression node: {e!r}")

    return emit(expr)
