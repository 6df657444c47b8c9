"""Abstract syntax for oracle definitions plus the canonical pretty-printer.

The printer is precedence-aware and emits the minimal parentheses needed so
that re-parsing its output reproduces the tree structurally. The rules the
parser, checker and printer share live here too: the operators, built-ins,
grammar words and reserved names, and the values and declared names a
definition may hold.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from enum import Enum
from math import inf, isfinite
from typing import Optional, Union

from .errors import CheckError
from .trace import NAME_RE, Kind, Point2, Value, first_repeat


class Frequency(Enum):
    """How often a scoring function's action is applied.

    FIRST fires at most once per trace; ACTION_SUM once per firing unit
    (every event-true message, or once per maximal sequence when a condition
    is present); ALL_SUM at every message where event and condition hold.
    """

    FIRST = "first"
    ACTION_SUM = "action_sum"
    ALL_SUM = "all_sum"


@dataclass(frozen=True)
class Literal:
    value: Value


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # a key of UNARY
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of BINARY
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Literal, Ident, Unary, Binary, Call]


@dataclass(frozen=True)
class Notification:
    """On firing, set the named timers of the target scoring function."""

    target: str
    bindings: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class ScoringFunction:
    name: str
    event: Expr
    frequency: Frequency
    condition: Optional[Expr] = None
    action: Optional[Expr] = None  # absent action contributes delta 0
    notifications: tuple[Notification, ...] = ()
    initial: float = 0.0


@dataclass(frozen=True)
class OracleDefinition:
    constants: tuple[tuple[str, Value], ...] = ()
    functions: tuple[ScoringFunction, ...] = ()
    summary: Optional[Expr] = None  # None means: sum of all function scores

    def constant_map(self) -> dict[str, Value]:
        return dict(self.constants)

    def function_names(self) -> tuple[str, ...]:
        return tuple(fn.name for fn in self.functions)


# Every operator, loosest binding first. A binary one has its binding
# strength, the kind both operands must have (None: numbers or booleans of
# one kind), the kind of its value, and the function the reference applies
# (None: "/", "and" and "or", which evaluate.evaluator handles apart). A
# unary one has its strength and the kind of its operand and its value.
BINARY = {
    "or": (1, Kind.BOOLEAN, Kind.BOOLEAN, None),
    "and": (2, Kind.BOOLEAN, Kind.BOOLEAN, None),
    "<": (4, Kind.NUMBER, Kind.BOOLEAN, operator.lt),
    "<=": (4, Kind.NUMBER, Kind.BOOLEAN, operator.le),
    ">": (4, Kind.NUMBER, Kind.BOOLEAN, operator.gt),
    ">=": (4, Kind.NUMBER, Kind.BOOLEAN, operator.ge),
    "==": (4, None, Kind.BOOLEAN, operator.eq),
    "!=": (4, None, Kind.BOOLEAN, operator.ne),
    "+": (5, Kind.NUMBER, Kind.NUMBER, operator.add),
    "-": (5, Kind.NUMBER, Kind.NUMBER, operator.sub),
    "*": (6, Kind.NUMBER, Kind.NUMBER, operator.mul),
    "/": (6, Kind.NUMBER, Kind.NUMBER, None),
}
UNARY = {"not": (3, Kind.BOOLEAN), "-": (7, Kind.NUMBER)}
_ATOM_PREC = 8

# The built-in functions, each with the kind of every argument, the fewest
# and the most arguments, and the checker's words for that rule. Each
# returns a number.
BUILTINS = {
    "distance": (Kind.POINT2, 2, 2, "takes exactly two point2 arguments"),
    "abs": (Kind.NUMBER, 1, 1, "takes exactly one number"),
    "min": (Kind.NUMBER, 2, inf, "takes two or more numbers"),
    "max": (Kind.NUMBER, 2, inf, "takes two or more numbers"),
}

# The words with one place in the grammar. With the boolean literals, the
# frequency modes, the parameters of scoring_function (ScoringFunction's
# fields but its name) and the word operators they make up KEYWORDS.
CONST, SUMMARY, SCORING_FUNCTION, SUM, POINT = "const", "summary", "scoring_function", "sum", "point"
BOOLEANS = {"true": True, "false": False}
KEYWORDS = frozenset(
    {CONST, SUMMARY, SCORING_FUNCTION, SUM, POINT, *BOOLEANS, *(mode.value for mode in Frequency),
     *(f.name for f in fields(ScoringFunction) if f.name != "name"), *filter(str.isalpha, [*BINARY, *UNARY])}
)
# Names that may appear in expressions but can never be declared.
RESERVED_NAMES = KEYWORDS | {"t", "seq_time"} | set(BUILTINS)

# Expressions nest at most this deep, counted in operators and calls along
# any path of the tree and, separately, in open parentheses. It bounds the
# recursion of the parser, checker and evaluators, and keeps the Python the
# engine generates (one parenthesis pair per operator) far below CPython's
# limit of 200 nested parentheses.
MAX_NESTING = 64


def operator_of(expr: Union[Binary, Unary]) -> Optional[tuple]:
    """The BINARY or UNARY entry of `expr`'s operator, or None for one
    outside the tables, an unhashable one included."""
    table = BINARY if isinstance(expr, Binary) else UNARY
    return table.get(expr.op) if isinstance(expr.op, str) else None


def _prec(expr: Expr) -> int:
    """The binding strength of `expr`'s operator; an operand without one
    binds tightest. An operator outside the tables is a CheckError."""
    if not isinstance(expr, (Binary, Unary)):
        return _ATOM_PREC
    entry = operator_of(expr)
    if entry is None:
        raise CheckError(f"unknown operator '{expr.op}'")
    return entry[0]


def _finite(value: object) -> bool:
    """Whether `value` is a number parse_od can build: a finite float."""
    return type(value) is float and isfinite(value)


def kind_of_value(value: object, what: str) -> Kind:
    """The kind of a value parse_od can build; any other value is a
    CheckError that calls it `what`."""
    if isinstance(value, bool):
        return Kind.BOOLEAN
    if _finite(value):
        return Kind.NUMBER
    if isinstance(value, Point2) and _finite(value.x) and _finite(value.y):
        return Kind.POINT2
    raise CheckError(f"{what} {value!r} is not a finite number, a boolean or a point of two finite numbers")


def check_settings(fn: ScoringFunction) -> None:
    """Refuse a frequency that is not a Frequency and an initial score that
    is not a finite float."""
    if not isinstance(fn.frequency, Frequency):
        raise CheckError(f"frequency of '{fn.name}': {fn.frequency!r} is not a frequency mode")
    if not _finite(fn.initial):
        raise CheckError(f"initial of '{fn.name}': {fn.initial!r} is not a finite number")


def check_declared_names(od: OracleDefinition) -> None:
    """Refuse, in the parser's words, the declared names parse_od would not
    read back: a constant, scoring function or timer name that is not a
    str matching NAME_RE or that is reserved, and a constant or scoring
    function name declared twice."""
    declared = [(name, "constant") for name, _ in od.constants]
    for fn in od.functions:
        declared.append((fn.name, "scoring function"))
        declared += [(timer, "timer") for notif in fn.notifications for timer, _ in notif.bindings]
    for name, what in declared:
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            raise CheckError(f"invalid {what} name {name!r}")
        if name in RESERVED_NAMES:
            raise CheckError(f"'{name}' is reserved and cannot name a {what}")
    repeated = first_repeat([name for name, what in declared if what != "timer"])
    if repeated is not None:
        raise CheckError(f"duplicate name '{repeated}'")


def _is_identifier(name: object) -> bool:
    """Whether parse_od reads `name` back as an identifier."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None and name not in KEYWORDS


def format_number(value: float) -> str:
    return repr(float(value))


def format_literal(value: Value, what: str = "literal") -> str:
    """The source text of a value; one parse_od cannot build is a CheckError
    that calls it `what`."""
    kind = kind_of_value(value, what)
    if kind is Kind.BOOLEAN:
        return "true" if value else "false"
    if kind is Kind.POINT2:
        return f"point({format_number(value.x)}, {format_number(value.y)})"
    return format_number(value)


def nests_deeper(expr: Expr, levels: int) -> bool:
    """Whether some path from `expr` down to a leaf passes more than
    `levels` operators and calls. Recurses at most `levels` + 1 deep, so a
    tree of any depth is safe to test."""
    if isinstance(expr, Binary):
        children: tuple[Expr, ...] = (expr.left, expr.right)
    elif isinstance(expr, Unary):
        children = (expr.operand,)
    elif isinstance(expr, Call):
        children = expr.args
    else:
        return False
    return levels == 0 or any(nests_deeper(child, levels - 1) for child in children)


def format_expr(expr: Expr) -> str:
    """Canonical source text of an expression. A tree nested deeper than
    MAX_NESTING, which the parser and the checker refuse too, is a
    CheckError, not a RecursionError of _format_expr, which recurses once
    per level."""
    if nests_deeper(expr, MAX_NESTING):
        raise CheckError(f"expression nests deeper than {MAX_NESTING} levels")
    return _format_expr(expr)


def _format_expr(expr: Expr) -> str:
    if isinstance(expr, Literal):
        return format_literal(expr.value)
    if isinstance(expr, Ident):
        if not _is_identifier(expr.name):
            raise CheckError(f"unresolved identifier '{expr.name}'")
        return expr.name
    if isinstance(expr, Unary):
        prec = _prec(expr)
        inner = _format_expr(expr.operand)
        # A bare numeric literal would fuse with a minus sign into a
        # (different) negative literal, so it keeps its parentheses.
        fuses = expr.op == "-" and isinstance(expr.operand, Literal) and not isinstance(
            expr.operand.value, (bool, Point2)
        )
        if fuses or _prec(expr.operand) < prec:
            inner = f"({inner})"
        return f"{expr.op} {inner}" if expr.op.isalpha() else f"{expr.op}{inner}"
    if isinstance(expr, Binary):
        prec = _prec(expr)
        left = _format_expr(expr.left)
        if _prec(expr.left) < prec:
            left = f"({left})"
        right = _format_expr(expr.right)
        # All binary operators parse left-associatively.
        if _prec(expr.right) <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Call):
        args = ", ".join(_format_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise CheckError(f"not an expression node: {expr!r}")


def _format_at(expr: Expr, where: str) -> str:
    """format_expr, its CheckError located as check_od locates it."""
    try:
        return format_expr(expr)
    except CheckError as exc:
        raise CheckError(f"{where}: {exc}") from None


def _format_notification(fn: ScoringFunction, notif: Notification) -> str:
    # Declared names obey the rule, so a target that breaks it names none.
    if not _is_identifier(notif.target) or notif.target in RESERVED_NAMES:
        raise CheckError(f"function '{fn.name}': notification target '{notif.target}' is not a scoring function")
    bindings = []
    for timer, value in notif.bindings:
        where = f"notification value for '{notif.target}.{timer}' of '{fn.name}'"
        bindings.append(f"({timer}, {_format_at(value, where)})")
    return f"({notif.target}, [{', '.join(bindings)}])"


def _format_function(fn: ScoringFunction) -> str:
    check_settings(fn)
    of = f" of '{fn.name}'"
    params = [f"event = {_format_at(fn.event, 'event' + of)}"]
    if fn.condition is not None:
        params.append(f"condition = {_format_at(fn.condition, 'condition' + of)}")
    if fn.action is not None:
        params.append(f"action = {_format_at(fn.action, 'action' + of)}")
    params.append(f"frequency = {fn.frequency.value}")
    if fn.initial != 0.0:
        params.append(f"initial = {format_number(fn.initial)}")
    if fn.notifications:
        notifs = ", ".join(_format_notification(fn, n) for n in fn.notifications)
        params.append(f"notifications = [{notifs}]")
    body = ",\n    ".join(params)
    return f"{fn.name} = scoring_function(\n    {body});"


def format_od(od: OracleDefinition) -> str:
    """Canonical source text; parse_od(format_od(od)) equals od structurally.

    Constants come first, then scoring functions in declaration order, then
    an explicit summary clause (the implicit default is spelled out as
    `summary = sum`). A hand-built definition whose text parse_od would
    refuse or read differently, such as one with a reserved name, a
    string literal or an infinite initial score, is a CheckError with the
    text check_od gives it. An identifier parse_od cannot read back is an
    `unresolved identifier`, check_od's text for it in an action.
    """
    check_declared_names(od)
    blocks: list[str] = []
    if od.constants:
        blocks.append(
            "\n".join(
                f"const {name} = {format_literal(value, f'constant {name!r}: value')};"
                for name, value in od.constants
            )
        )
    for fn in od.functions:
        blocks.append(_format_function(fn))
    if od.summary is None:
        blocks.append("summary = sum;")
    else:
        blocks.append(f"summary = {_format_at(od.summary, 'summary')};")
    return "\n\n".join(blocks) + "\n"
