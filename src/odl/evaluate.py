"""Expression evaluation: two evaluators of one semantics.

`evaluator(expr, env)` builds, once per expression, one closure per node,
each a function of no argument that reads the tables of `env`; arithmetic
and comparison are the `operator` functions of `syntax.BINARY`. It resolves
each name when it builds and folds each node whose operands are all values
into its value, computed once, then, by the closure that would compute it
at each call. The batch reference builds its closures once per call and
evaluates with them alone; `eval_expr(expr, env)` is
`evaluator(expr, env)()`. `emit_expr` writes a checked expression as Python
source; the streaming engine runs only such code, spliced into the two
programs generated per oracle (`engine.generate_program` over messages,
`engine.generate_line_program` over trace lines). The differential suite
compares the two evaluators. Both read only trees check_expr takes:
`eval_expr` runs it first, and `generate_program` and the reference read
the trees of a `CheckedOracle`, which check_od's checks took.

Evaluation is pure and deterministic. `and`/`or` short-circuit, so a guard
can protect a partial expression: `false and (1 / 0 > 0)` is false, not an
error. Numeric comparison is exact double comparison; tolerance belongs to
the oracle author (write `abs(a - b) < eps`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from .errors import EvalError
from .syntax import BINARY, Binary, Call, Expr, Ident, Literal, Struct, Unary, check_expr, format_expr
from .trace import Point2, Value


class Env(Struct):
    """Bindings visible to one expression evaluation.

    `fields` holds the current message's values (including "t"); `timers`
    the evaluating function's timers; `seq_time` is bound only while a
    condition is evaluated; `scores` only while the summary is evaluated.
    `evaluator` resolves each name when it builds, by the keys of the
    tables and a constant's value; its closures read the tables, updated
    in place, and `seq_time` as it stands when they are called.

    Unlike the other Structs, an Env's fields may be assigned, and it does
    not hash. Each table not given is a fresh dict.
    """

    __slots__ = _fields = ("fields", "constants", "timers", "seq_time", "scores")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, fields: Mapping[str, Value] | None = None, constants: Mapping[str, Value] | None = None,
        timers: Mapping[str, float] | None = None, seq_time: float | None = None,
        scores: Mapping[str, float] | None = None,
    ) -> None:
        self.fields = {} if fields is None else fields
        self.constants = {} if constants is None else constants
        self.timers = {} if timers is None else timers
        self.seq_time = seq_time
        self.scores = {} if scores is None else scores


Node = Callable[[], Value]


def non_finite(what: str, value: float) -> EvalError:
    """The error for a score-bound value that overflowed to inf or NaN.

    Literals and trace values are finite at ingest, so only arithmetic
    overflow gets here. A non-finite score would corrupt sums and rankings
    silently, and JSON cannot represent it (RFC 8259 §6)."""
    return EvalError(f"{what} is non-finite ({value!r})")


def evaluator(expr: Expr, env: Env) -> Node:
    """`expr`, a tree check_expr takes, as a function of no argument, built
    from one closure per node over `env`.

    The name `seq_time` reads `env.seq_time`. Any other name is resolved
    now, to the first of a field, a constant, a timer and a score of `env`
    that has it; its closure reads that one table, and a constant becomes
    its value. A literal is a value. A node whose operands are all values
    is folded: evaluated once, now, into a value. A node whose evaluation
    raises (an EvalError, as `1 / 0` or an unknown function does) stays a
    closure, and each fault is raised by the closure that meets it, when
    it is called: an unbound identifier, seq_time outside a condition, an
    unknown function (after its arguments, left to right) and division by
    zero (after both operands)."""
    return _node(*_build(expr, env))


def _distance(values: list[Point2]) -> float:
    # By index: a point is a Point2, or the two-float list the record gate binds.
    a, b = values
    return math.hypot(a[0] - b[0], a[1] - b[1])


_FUNCTIONS: dict[str, Callable[[list[Any]], Value]] = {
    "distance": _distance, "abs": lambda values: abs(values[0]), "min": min, "max": max,
}


def _build(expr: Expr, env: Env) -> tuple[Node | None, Value]:
    """(closure, None) for `expr` resolved against `env`, or (None, value)
    for a node folded into its value."""
    kind = type(expr)
    if kind is Literal:
        return None, expr.value
    if kind is Ident:
        return _resolve(expr.name, env)
    if kind is Binary:
        (left, lvalue), (right, rvalue) = _build(expr.left, env), _build(expr.right, env)
        apply = BINARY[expr.op][3]
        values = left is None and right is None
        if apply is not None and left is not None and right is None:
            # An operand against a value, as in `speed > MAX_SPEED`: one
            # closure, not two, and a field read in it, not in a third.
            if type(expr.left) is Ident and expr.left.name != "seq_time" and expr.left.name in env.fields:
                name, fields = expr.left.name, env.fields
                return (lambda: apply(fields[name], rvalue)), None
            return (lambda: apply(left(), rvalue)), None
        left, right = _node(left, lvalue), _node(right, rvalue)
        if apply is not None:
            return _fold(lambda: apply(left(), right()), values)
        if expr.op == "and":
            return _fold(lambda: bool(left()) and bool(right()), values)
        if expr.op == "or":
            return _fold(lambda: bool(left()) or bool(right()), values)
        error = f"division by zero in '{format_expr(expr)}'"

        def divide() -> Value:
            dividend, divisor = left(), right()
            if divisor == 0:
                raise EvalError(error)
            return dividend / divisor

        return _fold(divide, values)
    if kind is Call:
        name = expr.name
        built = [_build(arg, env) for arg in expr.args]
        args = [_node(*arg) for arg in built]
        function = _FUNCTIONS.get(name)
        if function is not None and len(args) == 2:  # distance, or min or max of two: no comprehension
            first, second = args

            def call() -> Value:
                return function([first(), second()])

        else:

            def call() -> Value:
                values = [arg() for arg in args]
                if function is None:
                    raise EvalError(f"unknown function '{name}'")
                return function(values)

        return _fold(call, all(node is None for node, _ in built))
    node, value = _build(expr.operand, env)  # a Unary: "not" or "-"
    operand = _node(node, value)
    if expr.op == "not":
        return _fold(lambda: not operand(), node is None)
    return _fold(lambda: -operand(), node is None)


def _resolve(name: str, env: Env) -> tuple[Node | None, Value]:
    if name == "seq_time":

        def seq_time() -> Value:
            if env.seq_time is None:
                raise EvalError("seq_time is not bound outside a condition")
            return env.seq_time

        return seq_time, None
    fields, timers, scores = env.fields, env.timers, env.scores
    if name in fields:
        return (lambda: fields[name]), None
    if name in env.constants:
        return None, env.constants[name]
    if name in timers:
        return (lambda: timers[name]), None
    if name in scores:
        return (lambda: scores[name]), None

    def unbound() -> Value:
        raise EvalError(f"unbound identifier '{name}'")

    return unbound, None


def _node(node: Node | None, value: Value) -> Node:
    return (lambda: value) if node is None else node


def _fold(node: Node, values: bool) -> tuple[Node | None, Value]:
    """(None, node's value) if its operands are all `values` and it
    evaluates; (node, None) otherwise, so that what it raises is raised
    only when it is called, as it is at each call without folding."""
    if values:
        try:
            return None, node()
        except Exception:  # an EvalError, or in a tree of unchecked kinds a TypeError
            pass
    return node, None


def eval_expr(expr: Expr, env: Env) -> Value:
    """Evaluate `expr` over `env`: `evaluator(expr, env)()`, after
    check_expr has refused a malformed tree with check_od's text,
    unlocated."""
    check_expr(expr)
    return evaluator(expr, env)()


# ---------------------------------------------------------------------------
# Code generation: expressions as Python source, for engine._emit's three programs.
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
    """bind(value) returns a name under which namespace holds value, for use
    in generated source: the name it gave a value of equal type and repr,
    else a fresh one. So each value is bound once, and equal expressions
    are equal text."""
    names: dict[tuple[type, str], str] = {}

    def bind(value: Any) -> str:
        name = names.setdefault((type(value), repr(value)), f"_v{len(namespace)}")
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
