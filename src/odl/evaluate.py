"""Expression evaluation: two evaluators of one semantics.

`evaluator` builds, once per expression, one closure per node, which
evaluates over an `Env`; arithmetic and comparison are the `operator`
functions of `syntax.BINARY`. The batch reference builds its closures once
per call and evaluates with them alone; `eval_expr(expr, env)` is
`evaluator(expr)(env)`. `emit_expr` writes a checked expression as Python
source; the streaming engine runs only such code, spliced into the one
scoring function generated per oracle (`engine.generate_program`). The
differential suite compares the two. Both read only trees check_expr takes:
`eval_expr` runs it first, and `generate_program` and the reference read
the trees of a `CheckedOracle`, which check_od's checks took.

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
from .syntax import BINARY, Binary, Call, Expr, Ident, Literal, Unary, check_expr, format_expr
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


def evaluator(expr: Expr) -> Callable[[Env], Value]:
    """`expr`, a tree check_expr takes, as a function of an `Env`, built
    from one closure per node.

    A name fault is raised by the closure that meets it, when it is called:
    an unbound identifier, seq_time outside a condition, an unknown function
    (after its arguments, left to right) and division by zero (after both
    operands).
    The name `seq_time` reads `env.seq_time`; any other name resolves, at
    each call, to the first of a field, a constant, a timer and a score
    that has it."""
    kind = type(expr)
    if kind is Binary:
        op, left, right = expr.op, evaluator(expr.left), evaluator(expr.right)
        apply = BINARY[op][3]
        if apply is not None:
            return lambda env: apply(left(env), right(env))
        if op == "and":
            return lambda env: bool(left(env)) and bool(right(env))
        if op == "or":
            return lambda env: bool(left(env)) or bool(right(env))

        def divide(env: Env) -> Value:
            dividend, divisor = left(env), right(env)
            if divisor == 0:
                raise EvalError(f"division by zero in '{format_expr(expr)}'")
            return dividend / divisor

        return divide
    if kind is Ident:
        name = expr.name
        if name == "seq_time":

            def seq_time(env: Env) -> Value:
                if env.seq_time is None:
                    raise EvalError("seq_time is not bound outside a condition")
                return env.seq_time

            return seq_time

        def ident(env: Env) -> Value:
            if name in env.fields:
                return env.fields[name]
            if name in env.constants:
                return env.constants[name]
            if name in env.timers:
                return env.timers[name]
            if name in env.scores:
                return env.scores[name]
            raise EvalError(f"unbound identifier '{name}'")

        return ident
    if kind is Literal:
        value = expr.value
        return lambda env: value
    if kind is Call:
        name = expr.name
        args = [evaluator(arg) for arg in expr.args]

        def call(env: Env) -> Value:
            values = [arg(env) for arg in args]
            if name == "distance":
                a, b = values
                assert isinstance(a, Point2) and isinstance(b, Point2)
                return math.hypot(a.x - b.x, a.y - b.y)
            if name == "abs":
                return abs(values[0])
            if name == "min":
                return min(values)
            if name == "max":
                return max(values)
            raise EvalError(f"unknown function '{name}'")

        return call
    operand = evaluator(expr.operand)  # a Unary: "not" or "-"
    if expr.op == "not":
        return lambda env: not operand(env)
    return lambda env: -operand(env)


def eval_expr(expr: Expr, env: Env) -> Value:
    """Evaluate `expr` over `env`: `evaluator(expr)(env)`, after check_expr
    has refused a malformed tree with check_od's text, unlocated."""
    check_expr(expr)
    return evaluator(expr)(env)


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
    """Python source that evaluates a checked expression as `evaluator`'s
    closure does: same value and type, operands left to right, `and`/`or`
    short-circuit, the same division-by-zero error. `resolve(name)` gives
    the source that reads an identifier. `expr` must be a tree check_od
    takes, so each call names a built-in.

    Every operator is parenthesised, because Python chains `a < b < c`;
    check_expr's nesting limit keeps the result under CPython's limit on
    nested parentheses. `distance` is math.dist, which computes what
    the closure's math.hypot of the coordinate differences does, bit for bit.
    """

    def emit(e: Expr) -> str:
        if isinstance(e, Literal):
            return emit_value(e.value, bind)
        if isinstance(e, Ident):
            return resolve(e.name)
        if isinstance(e, Unary):
            return f"({'not ' if e.op == 'not' else e.op}{emit(e.operand)})"
        if isinstance(e, Binary):
            left, right = emit(e.left), emit(e.right)
            if e.op == "/":
                error = bind(f"division by zero in '{format_expr(e)}'")
                return f"_divide({left}, {right}, {error})"
            return f"({left} {e.op} {right})"
        name = "_dist" if e.name == "distance" else e.name  # a Call of a built-in
        return f"{name}({', '.join(emit(arg) for arg in e.args)})"

    return emit(expr)
