"""Abstract syntax for oracle definitions plus the canonical pretty-printer.

The printer is precedence-aware and emits the minimal parentheses needed so
that re-parsing its output reproduces the tree structurally. The rules the
parser, checker and printer share live here too: the operators, built-ins,
grammar words and reserved names, the values a definition may hold, and
check_shape, the one statement of what a definition built without the
parser must hold, operators and values included, before the checker, the
printer or an evaluator reads it.
"""

from __future__ import annotations

import operator
from enum import Enum
from math import inf, isfinite
from typing import Optional, Union

from .errors import CheckError
from .trace import NAME_RE, Kind, Point2, Value


class Frequency(Enum):
    """How often a scoring function's action is applied.

    FIRST fires at most once per trace; ACTION_SUM once per firing unit
    (every event-true message, or once per maximal sequence when a condition
    is present); ALL_SUM at every message where event and condition hold.
    """

    FIRST = "first"
    ACTION_SUM = "action_sum"
    ALL_SUM = "all_sum"


# Sets a field of a Struct, whose own __setattr__ refuses to.
_set = object.__setattr__


class Struct:
    """The base of the oracle language's tree, of `checker.CheckedOracle`
    and of `evaluate.Env`: a class with one slot per name of `_fields`,
    which its own __init__ sets, so that making the class generates no
    code. As a frozen dataclass does, a value compares equal only to a
    value of its own type with equal fields, hashes as the tuple of its
    fields, shows as `Name(field=value, ...)` and refuses assignment and
    deletion with AttributeError. `_replace`, pickling and copying build a
    value anew through the constructor, which checks it where it checks."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes: object) -> Struct:
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Literal(Struct):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Value) -> None:
        _set(self, "value", value)


class Ident(Struct):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Unary(Struct):
    __slots__ = _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:  # op: a key of UNARY
        _set(self, "op", op)
        _set(self, "operand", operand)


class Binary(Struct):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:  # op: a key of BINARY
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(Struct):
    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...]) -> None:
        _set(self, "name", name)
        _set(self, "args", args)


Expr = Union[Literal, Ident, Unary, Binary, Call]


class Notification(Struct):
    """On firing, set the named timers of the target scoring function."""

    __slots__ = _fields = ("target", "bindings")

    def __init__(self, target: str, bindings: tuple[tuple[str, Expr], ...]) -> None:
        _set(self, "target", target)
        _set(self, "bindings", bindings)


class ScoringFunction(Struct):
    __slots__ = _fields = ("name", "event", "frequency", "condition", "action", "notifications", "initial")

    def __init__(
        self, name: str, event: Expr, frequency: Frequency, condition: Optional[Expr] = None,
        action: Optional[Expr] = None,  # an absent action contributes delta 0
        notifications: tuple[Notification, ...] = (), initial: float = 0.0,
    ) -> None:
        _set(self, "name", name)
        _set(self, "event", event)
        _set(self, "frequency", frequency)
        _set(self, "condition", condition)
        _set(self, "action", action)
        _set(self, "notifications", notifications)
        _set(self, "initial", initial)


class OracleDefinition(Struct):
    __slots__ = _fields = ("constants", "functions", "summary")

    def __init__(
        self, constants: tuple[tuple[str, Value], ...] = (), functions: tuple[ScoringFunction, ...] = (),
        summary: Optional[Expr] = None,  # None means: sum of all function scores
    ) -> None:
        _set(self, "constants", constants)
        _set(self, "functions", functions)
        _set(self, "summary", summary)

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
     *ScoringFunction._fields[1:], *filter(str.isalpha, [*BINARY, *UNARY])}
)
# Names that may appear in expressions but can never be declared.
RESERVED_NAMES = KEYWORDS | {"t", "seq_time"} | set(BUILTINS)

# Expressions nest at most this deep, counted in operators and calls along
# any path of the tree and, separately, in open parentheses. It bounds the
# recursion of the parser, checker and evaluators, and keeps the Python the
# engine generates (one parenthesis pair per operator) far below CPython's
# limit of 200 nested parentheses.
MAX_NESTING = 64


def _prec(expr: Expr) -> int:
    """The binding strength of `expr`'s operator; an operand without one
    binds tightest."""
    if isinstance(expr, Binary):
        return BINARY[expr.op][0]
    return UNARY[expr.op][0] if isinstance(expr, Unary) else _ATOM_PREC


def _finite(value: object) -> bool:
    """Whether `value` is a number parse_od can build: a finite float."""
    return type(value) is float and isfinite(value)


def kind_of_value(value: object) -> Optional[Kind]:
    """The kind of a value parse_od can build, or None for any other."""
    if isinstance(value, bool):
        return Kind.BOOLEAN
    if _finite(value):
        return Kind.NUMBER
    if isinstance(value, Point2) and _finite(value.x) and _finite(value.y):
        return Kind.POINT2
    return None


# The rest of check_shape's text for a value kind_of_value gives no kind.
_NOT_A_VALUE = "is not a finite number, a boolean or a point of two finite numbers"


def _is_identifier(name: object) -> bool:
    """Whether parse_od reads `name` back as an identifier."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None and name not in KEYWORDS


def unknown_function(name: object) -> str:
    return f"unknown function '{name}' (built-ins: {', '.join(BUILTINS)})"


def _tuple(items: object, where: str) -> tuple:
    if not isinstance(items, tuple):
        raise CheckError(f"{where}: {items!r} is not a tuple")
    return items


def _pair(item: object, where: str, what: str) -> tuple:
    if not (isinstance(item, tuple) and len(item) == 2):
        raise CheckError(f"{where}: {item!r} is not a ({what}, value) pair")
    return item


def check_name(name: object, what: str, declared: Optional[set] = None) -> None:
    """Refuse a name parse_od does not read as the name of a `what`, and
    one already in `declared`, which it then joins."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise CheckError(f"invalid {what} name {name!r}")
    if name in RESERVED_NAMES:
        raise CheckError(f"'{name}' is reserved and cannot name a {what}")
    if declared is not None:
        if name in declared:
            raise CheckError(f"duplicate name '{name}'")
        declared.add(name)


def check_expr(expr: object, at: str = "", levels: int = MAX_NESTING) -> None:
    """Refuse, in pre-order, a value that is not one of the five nodes, a
    literal value kind_of_value gives no kind, an operator outside BINARY
    and UNARY, an identifier or call name parse_od would not read back, call
    arguments that are not a tuple, and more than `levels` operators and calls
    on one path, each error text begun with `at`. Recurses at most `levels`
    + 1 deep, so a tree of any depth is safe."""
    node = type(expr)
    if node is Literal:
        if kind_of_value(expr.value) is None:
            raise CheckError(f"{at}literal {expr.value!r} {_NOT_A_VALUE}")
        return
    if node is Ident:
        if not _is_identifier(expr.name):
            raise CheckError(f"{at}unresolved identifier '{expr.name}'")
        return
    if node is Call:
        if not _is_identifier(expr.name):
            raise CheckError(at + unknown_function(expr.name))
        children = _tuple(expr.args, f"{at}arguments of '{expr.name}'")
    elif node is Binary or node is Unary:
        table = BINARY if node is Binary else UNARY
        if not isinstance(expr.op, str) or expr.op not in table:
            raise CheckError(f"{at}unknown operator '{expr.op}'")
        children = (expr.left, expr.right) if node is Binary else (expr.operand,)
    else:
        raise CheckError(f"{at}not an expression node: {expr!r}")
    if levels == 0:
        raise CheckError(f"{at}expression nests deeper than {MAX_NESTING} levels")
    for child in children:
        check_expr(child, at, levels - 1)


def check_shape(od: OracleDefinition) -> None:
    """Refuse, with the CheckError check_od gives it, a definition parse_od
    could not build, whatever the schema: a container that is not a tuple
    of its declared elements, a declared name parse_od would not read or
    would read twice, a constant's value kind_of_value gives no kind, a
    frequency or an initial score of another type, or an expression
    check_expr refuses. check_od and format_od call it first, so each
    reports such a fault before any other, and with the same text;
    format_expr and eval_expr call its expression part, check_expr."""
    if type(od) is not OracleDefinition:
        raise CheckError(f"{od!r} is not an oracle definition")
    declared: set[str] = set()
    for pair in _tuple(od.constants, "constants"):
        name, value = _pair(pair, "constants", "name")
        check_name(name, "constant", declared)
        if kind_of_value(value) is None:
            raise CheckError(f"constant '{name}': value {value!r} {_NOT_A_VALUE}")
    for fn in _tuple(od.functions, "functions"):
        if type(fn) is not ScoringFunction:
            raise CheckError(f"functions: {fn!r} is not a scoring function")
        check_name(fn.name, "scoring function", declared)
        of = f" of '{fn.name}'"
        if not isinstance(fn.frequency, Frequency):
            raise CheckError(f"frequency{of}: {fn.frequency!r} is not a frequency mode")
        if not _finite(fn.initial):
            raise CheckError(f"initial{of}: {fn.initial!r} is not a finite number")
        check_expr(fn.event, f"event{of}: ")
        if fn.condition is not None:
            check_expr(fn.condition, f"condition{of}: ")
        if fn.action is not None:
            check_expr(fn.action, f"action{of}: ")
        for notif in _tuple(fn.notifications, f"notifications{of}"):
            if type(notif) is not Notification:
                raise CheckError(f"notifications{of}: {notif!r} is not a notification")
            if not _is_identifier(notif.target) or notif.target in RESERVED_NAMES:
                raise CheckError(f"function '{fn.name}': notification target '{notif.target}' is not a scoring function")
            where = f"notification for '{notif.target}'{of}"
            if not _tuple(notif.bindings, where):
                raise CheckError(f"{where}: sets no timer")
            for pair in notif.bindings:
                timer, value = _pair(pair, where, "timer")
                check_name(timer, "timer")
                check_expr(value, f"notification value for '{notif.target}.{timer}'{of}: ")
    if od.summary is not None:
        check_expr(od.summary, "summary: ")


def format_number(value: float) -> str:
    return repr(float(value))


def format_literal(value: Value) -> str:
    """The source text of a value kind_of_value gives a kind."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Point2):
        return f"point({format_number(value.x)}, {format_number(value.y)})"
    return format_number(value)


def format_expr(expr: Expr) -> str:
    """Canonical source text of an expression. A tree check_expr refuses is
    a CheckError with check_od's text, unlocated."""
    check_expr(expr)
    return _format_expr(expr)


def _format_expr(expr: Expr) -> str:
    """The text of a tree check_expr took."""
    if isinstance(expr, Literal):
        return format_literal(expr.value)
    if isinstance(expr, Ident):
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
    args = ", ".join(_format_expr(a) for a in expr.args)
    return f"{expr.name}({args})"


def _format_notification(notif: Notification) -> str:
    bindings = ", ".join(f"({timer}, {_format_expr(value)})" for timer, value in notif.bindings)
    return f"({notif.target}, [{bindings}])"


def _format_function(fn: ScoringFunction) -> str:
    slots = (("event", fn.event), ("condition", fn.condition), ("action", fn.action))
    params = [f"{slot} = {_format_expr(expr)}" for slot, expr in slots if expr is not None]
    params.append(f"frequency = {fn.frequency.value}")
    if format_number(fn.initial) != "0.0":  # -0.0 too, which scores as itself
        params.append(f"initial = {format_number(fn.initial)}")
    if fn.notifications:
        notifs = ", ".join(_format_notification(n) for n in fn.notifications)
        params.append(f"notifications = [{notifs}]")
    body = ",\n    ".join(params)
    return f"{fn.name} = scoring_function(\n    {body});"


def format_od(od: OracleDefinition) -> str:
    """Canonical source text; parse_od(format_od(od)) equals od structurally.

    Constants come first, then scoring functions in declaration order, then
    an explicit summary clause (the implicit default is spelled out as
    `summary = sum`). A definition check_shape refuses is a CheckError with
    check_od's text, never text parse_od would refuse or read as another
    definition; any other is printed.
    """
    check_shape(od)
    blocks: list[str] = []
    if od.constants:
        blocks.append("\n".join(f"const {name} = {format_literal(value)};" for name, value in od.constants))
    for fn in od.functions:
        blocks.append(_format_function(fn))
    if od.summary is None:
        blocks.append("summary = sum;")
    else:
        blocks.append(f"summary = {_format_expr(od.summary)};")
    return "\n\n".join(blocks) + "\n"
