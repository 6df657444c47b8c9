"""Seeded random generators for schemas, traces, and oracle definitions.

Two OD generators exist on purpose: `gen_checkable_od` produces definitions
that pass the static checker (used for differential and semantics testing,
with division only by nonzero literals so evaluation never faults), while
`gen_wild_od` produces grammatically valid but not necessarily well-typed
definitions to stress the formatter/parser round trip. `mutate_od` replaces
one slot of a definition, at any depth, with a value the parser may never
build, to hold hand-built definitions to the shape contract.
"""

from __future__ import annotations

import math
import random

from odl import (
    Binary,
    Call,
    Expr,
    Frequency,
    Ident,
    Kind,
    Literal,
    Notification,
    OracleDefinition,
    Point2,
    ScoringFunction,
    Trace,
    TraceMessage,
    TraceSchema,
    Unary,
    check_od,
)
from odl.syntax import Struct

_FIELD_POOL = (
    ("n0", Kind.NUMBER),
    ("n1", Kind.NUMBER),
    ("b0", Kind.BOOLEAN),
    ("b1", Kind.BOOLEAN),
    ("p0", Kind.POINT2),
    ("n2", Kind.NUMBER),
)

_FREQS = (Frequency.FIRST, Frequency.ACTION_SUM, Frequency.ALL_SUM)


def gen_schema(rng: random.Random, max_fields: int = 5) -> TraceSchema:
    count = rng.randint(1, max_fields)
    picked = sorted(rng.sample(range(len(_FIELD_POOL)), count))
    return TraceSchema(tuple(_FIELD_POOL[i] for i in picked))


def gen_trace(
    rng: random.Random,
    schema: TraceSchema,
    max_messages: int = 200,
    n_messages: int | None = None,
    t_start: float = 0.0,
) -> Trace:
    n = rng.randint(0, max_messages) if n_messages is None else n_messages
    t = t_start
    messages = []
    for _ in range(n):
        t += rng.choice((0.0, 0.25, 0.5, 0.5, 0.5, 1.0, 2.0))
        values = {}
        for name, kind in schema.fields:
            if kind is Kind.NUMBER:
                values[name] = rng.uniform(-10.0, 10.0)
            elif kind is Kind.BOOLEAN:
                values[name] = rng.random() < 0.4
            else:
                values[name] = Point2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        messages.append(TraceMessage(t=t, values=values))
    return Trace(schema=schema, messages=tuple(messages))


class _Vocab:
    """Names visible to generated expressions for one scoring function."""

    def __init__(self, schema: TraceSchema, constants: dict[str, Kind], timer: str | None):
        self.numbers = ["t"] + [n for n, k in schema.fields if k is Kind.NUMBER]
        self.numbers += [n for n, k in constants.items() if k is Kind.NUMBER]
        self.booleans = [n for n, k in schema.fields if k is Kind.BOOLEAN]
        self.booleans += [n for n, k in constants.items() if k is Kind.BOOLEAN]
        self.points = [n for n, k in schema.fields if k is Kind.POINT2]
        self.points += [n for n, k in constants.items() if k is Kind.POINT2]
        self.timer = timer


def _num_expr(rng: random.Random, vocab: _Vocab, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.4:
        if vocab.numbers and rng.random() < 0.6:
            return Ident(rng.choice(vocab.numbers))
        return Literal(round(rng.uniform(-10.0, 10.0), 2))
    choice = rng.random()
    if choice < 0.15:
        return Unary("-", _num_expr(rng, vocab, depth - 1))
    if choice < 0.30:
        return Call("abs", (_num_expr(rng, vocab, depth - 1),))
    if choice < 0.40:
        name = rng.choice(("min", "max"))
        return Call(name, (_num_expr(rng, vocab, depth - 1), _num_expr(rng, vocab, depth - 1)))
    if choice < 0.50 and vocab.points:
        return Call(
            "distance",
            (
                Ident(rng.choice(vocab.points)),
                Literal(Point2(round(rng.uniform(-10, 10), 1), round(rng.uniform(-10, 10), 1))),
            ),
        )
    op = rng.choice(("+", "-", "*", "/"))
    left = _num_expr(rng, vocab, depth - 1)
    if op == "/":
        # Keep evaluation total: only nonzero literal divisors.
        return Binary(op, left, Literal(rng.choice((2.0, 4.0, -3.0, 0.5))))
    return Binary(op, left, _num_expr(rng, vocab, depth - 1))


def _bool_expr(
    rng: random.Random, vocab: _Vocab, depth: int, *, seq_time: bool = False
) -> Expr:
    if depth <= 0 or rng.random() < 0.35:
        if seq_time and rng.random() < 0.5:
            return Binary(
                rng.choice((">", ">=")),
                Ident("seq_time"),
                Literal(rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 3.0))),
            )
        if vocab.booleans and rng.random() < 0.45:
            return Ident(rng.choice(vocab.booleans))
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return Binary(op, _num_expr(rng, vocab, 1), _num_expr(rng, vocab, 1))
    choice = rng.random()
    if choice < 0.2:
        return Unary("not", _bool_expr(rng, vocab, depth - 1, seq_time=seq_time))
    op = rng.choice(("and", "or"))
    return Binary(
        op,
        _bool_expr(rng, vocab, depth - 1, seq_time=seq_time),
        _bool_expr(rng, vocab, depth - 1, seq_time=seq_time),
    )


def gen_expr(
    rng: random.Random,
    schema: TraceSchema,
    constants: dict[str, Kind],
    numbers: tuple[str, ...] = (),
    depth: int = 3,
) -> Expr:
    """A well-kinded boolean or numeric expression over the schema fields,
    `t` and the constants, plus the extra numeric names in `numbers` (such as
    timers or seq_time)."""
    vocab = _Vocab(schema, constants, None)
    vocab.numbers += list(numbers)
    if rng.random() < 0.5:
        return _bool_expr(rng, vocab, depth)
    return _num_expr(rng, vocab, depth)


def gen_checkable_od(
    rng: random.Random,
    schema: TraceSchema,
    max_functions: int = 5,
    *,
    integer_actions: bool = False,
    force_false_events: bool = False,
    allow_conditions: bool = True,
    allow_notifications: bool = True,
) -> OracleDefinition:
    constants: list[tuple[str, object]] = []
    const_kinds: dict[str, Kind] = {}
    for i in range(rng.randint(0, 3)):
        name = f"c{i}"
        value = round(rng.uniform(-10.0, 10.0), 1)
        constants.append((name, value))
        const_kinds[name] = Kind.NUMBER

    n_functions = rng.randint(1, max_functions)
    names = [f"sf{i}" for i in range(n_functions)]
    has_timer = [
        allow_notifications and rng.random() < 0.4 for _ in range(n_functions)
    ]
    # Each timer gets exactly one notifier (possibly the target itself).
    notifier_of = {
        i: rng.randrange(n_functions) for i in range(n_functions) if has_timer[i]
    }

    functions = []
    for i, name in enumerate(names):
        timer = f"tm{i}" if has_timer[i] else None
        vocab = _Vocab(schema, const_kinds, timer)
        if force_false_events:
            event: Expr = Binary(">", _num_expr(rng, vocab, 1), Literal(1e6))
        else:
            event = _bool_expr(rng, vocab, rng.randint(1, 3))
        condition = None
        if allow_conditions and rng.random() < 0.5:
            condition = _bool_expr(rng, vocab, rng.randint(1, 2), seq_time=True)
        if timer is not None:
            # The checker requires targeted timers to be read in the event or
            # condition; weave the read into whichever exists.
            read = Binary(">", Ident(timer), Literal(0.0))
            if condition is not None and rng.random() < 0.4:
                condition = Binary(rng.choice(("and", "or")), condition, read)
            else:
                event = Binary(rng.choice(("and", "or")), event, read)
        action = None
        if rng.random() < 0.7:
            if integer_actions:
                action = Literal(float(rng.randint(-3, 3)))
            else:
                action = _num_expr(rng, vocab, rng.randint(0, 2))
        initial = float(rng.randint(-5, 5)) if rng.random() < 0.3 else 0.0
        functions.append(
            ScoringFunction(
                name=name,
                event=event,
                frequency=rng.choice(_FREQS),
                condition=condition,
                action=action,
                initial=initial,
            )
        )

    # Attach notifications to their notifiers.
    for target_idx, notifier_idx in notifier_of.items():
        vocab = _Vocab(schema, const_kinds, None)
        if rng.random() < 0.7:
            value: Expr = Literal(rng.choice((0.5, 1.0, 2.0)))
        else:
            value = Call("abs", (_num_expr(rng, vocab, 1),))
        fn = functions[notifier_idx]
        functions[notifier_idx] = ScoringFunction(
            name=fn.name,
            event=fn.event,
            frequency=fn.frequency,
            condition=fn.condition,
            action=fn.action,
            notifications=fn.notifications
            + (Notification(target=names[target_idx], bindings=((f"tm{target_idx}", value),)),),
            initial=fn.initial,
        )

    summary = None
    if rng.random() < 0.3:
        terms: Expr = Ident(rng.choice(names))
        for _ in range(rng.randint(0, 2)):
            pick = rng.random()
            term: Expr = Ident(rng.choice(names))
            if pick < 0.3:
                term = Binary("*", Literal(round(rng.uniform(-2, 2), 1)), term)
            terms = Binary("+", terms, term)
        summary = terms

    od = OracleDefinition(
        constants=tuple(constants), functions=tuple(functions), summary=summary
    )
    check_od(od, schema)  # generator bugs surface here, not downstream
    return od


# ---------------------------------------------------------------------------
# Wild generator: grammatically valid, not necessarily checkable.

_DECL_POOL = (
    "alpha", "beta", "gamma", "delta", "omega", "foo", "bar", "baz",
    "speedy", "road", "limit", "budget", "timer_a", "timer_b",
)
_EXPR_IDENTS = _DECL_POOL + ("t", "seq_time")
_BINARY_OPS = ("or", "and", "<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/")


def _wild_literal(rng: random.Random) -> Literal:
    pick = rng.random()
    if pick < 0.5:
        return Literal(rng.choice((0.0, 1.0, -1.0, 2.5, 0.125, 22.35, 1e16, 2.5e-07))
                       + rng.choice((0.0, 0.0, round(rng.uniform(-5, 5), 3))))
    if pick < 0.7:
        return Literal(rng.random() < 0.5)
    return Literal(Point2(round(rng.uniform(-100, 100), 3), round(rng.uniform(-100, 100), 3)))


def gen_wild_expr(rng: random.Random, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return _wild_literal(rng)
        return Ident(rng.choice(_EXPR_IDENTS))
    pick = rng.random()
    if pick < 0.15:
        return Unary(rng.choice(("-", "not")), gen_wild_expr(rng, depth - 1))
    if pick < 0.30:
        name = rng.choice(("distance", "abs", "min", "max"))
        args = tuple(gen_wild_expr(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        return Call(name, args)
    return Binary(
        rng.choice(_BINARY_OPS),
        gen_wild_expr(rng, depth - 1),
        gen_wild_expr(rng, depth - 1),
    )


def gen_wild_od(rng: random.Random) -> OracleDefinition:
    names = rng.sample(_DECL_POOL, rng.randint(1, 8))
    n_consts = rng.randint(0, min(3, len(names) - 1)) if len(names) > 1 else 0
    constants = tuple((name, _wild_literal(rng).value) for name in names[:n_consts])
    fn_names = names[n_consts:]
    functions = []
    for name in fn_names:
        notifications = []
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 2)):
                bindings = tuple(
                    (rng.choice(_DECL_POOL), gen_wild_expr(rng, 1))
                    for _ in range(rng.randint(1, 2))
                )
                notifications.append(
                    Notification(target=rng.choice(_DECL_POOL), bindings=bindings)
                )
        functions.append(
            ScoringFunction(
                name=name,
                event=gen_wild_expr(rng, rng.randint(1, 4)),
                frequency=rng.choice(_FREQS),
                condition=gen_wild_expr(rng, 2) if rng.random() < 0.4 else None,
                action=gen_wild_expr(rng, 2) if rng.random() < 0.6 else None,
                notifications=tuple(notifications),
                initial=rng.choice((0.0, 1.5, -2.0, 100.0)) if rng.random() < 0.4 else 0.0,
            )
        )
    summary = gen_wild_expr(rng, 3) if rng.random() < 0.4 else None
    return OracleDefinition(
        constants=constants, functions=tuple(functions), summary=summary
    )


def _nested_calls(n: int) -> str:
    text = "x"
    for i in range(n):
        text = f"abs({text})" if i % 2 else f"min({text}, x)"
    return text


# The shapes that nest deepest per character: (expression n levels deep
# over a number x or a boolean b, the token that goes past a nesting limit
# of n - 1, and whether that is the token's last occurrence or its first).
NESTED_SHAPES = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, "(", True),
    "left_chain": (lambda n: " + ".join(["x"] * (n + 1)), "+", True),
    "division_chain": (lambda n: " / ".join(["x"] * (n + 1)), "/", True),
    "not": (lambda n: "not " * n + "b", "not", False),
    "negation": (lambda n: "-(" * n + "x" + ")" * n, "(", True),
    "calls": (_nested_calls, "(", True),
}


def nested_od(shape: str, n: int) -> tuple[str, int]:
    """An oracle whose event or action nests `n` levels deep in `shape`, and
    the 1-based column, on its only line, of the token past a limit of n - 1."""
    build, token, last = NESTED_SHAPES[shape]
    text = build(n)
    if shape == "not":
        prefix = "f = scoring_function(frequency = all_sum, event = "
    else:
        prefix = "f = scoring_function(event = b, frequency = all_sum, action = "
    index = text.rindex(token) if last else text.index(token)
    return prefix + text + ");", len(prefix) + index + 1


# ---------------------------------------------------------------------------
# Mutations: one slot of a definition replaced, as a caller building
# definitions in Python might get it wrong.


def _chain(levels: int) -> Expr:
    expr: Expr = Ident("speed")
    for _ in range(levels):
        expr = Unary("-", expr)
    return expr


# Values put into a slot, whatever the slot holds: leaves of each type a
# slot may hold or must not hold, names parse_od would read differently or
# refuse, nodes of each shape, and containers of the wrong shape.
_SLOT_VALUES = (
    None, 3, ["x"], "", "x y", "not", "sum", "t", "seq_time", "speed", "collision", "expiration", "g",
    -0.0, 2.5, 1, math.nan, math.inf, True, Frequency.FIRST, Frequency.ALL_SUM, Point2(1000.0, 0.0), Point2(1, 2),
    Literal(True), Literal(1.0), Literal("1"), Literal(Point2(0.0, 0.0)), Literal(None),
    Ident("speed"), Ident("collision"), Ident("expiration"), Ident("seq_time"), Ident("not"), Ident("x y"),
    Ident(3), Ident(["speed"]),
    Call("not", (Ident("speed"),)), Call("x y", ()), Call(None, ()), Call("abs", 5), Call("abs", [Ident("speed")]),
    Call("abs", (Ident("speed"),)), Call("min", (Ident("speed"), Literal(1.0))), Call("hypot", (Ident("speed"),)),
    Call(["abs"], (Ident("speed"),)), Call("t", ()),
    Binary("+", Ident("speed"), Literal(1.0)), Binary(">", Ident("speed"), Literal(1.0)), Binary("/", Literal(1.0), Literal(0.0)),
    Binary("and", Ident("collision"), Literal(True)), Binary(["+"], Ident("speed"), Literal(1.0)),
    Binary("%", Ident("speed"), Literal(3.0)), Unary("!", Ident("collision")), Unary("not", Ident("collision")),
    Unary("-", Literal(1.0)), Unary("-", Literal(-1.0)), _chain(70),
    (), ("x",), ("K", 1.0), ("tm", Literal(1.0)), (("tm", Literal(1.0)),), ("tm", Literal(1.0), 3),
    Notification("speeding", (("tm", Literal(1.0)),)), Notification("f", ()), Notification(["g"], ()),
    Notification("g", Literal(1.0)), ScoringFunction("g", Ident("collision"), Frequency.FIRST),
    OracleDefinition(),
)


def _slots(value: object, path: tuple = ()):
    """The path of every slot under `value`: the names of a tree node's
    `_fields` and tuple indices. A Point2 is a leaf."""
    yield path
    if isinstance(value, Struct):
        for name in value._fields:
            yield from _slots(getattr(value, name), (*path, name))
    elif type(value) is tuple:
        for index, item in enumerate(value):
            yield from _slots(item, (*path, index))


def _get(value: object, path: tuple) -> object:
    for key in path:
        value = getattr(value, key) if isinstance(key, str) else value[key]
    return value


def _put(value: object, path: tuple, new: object) -> object:
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(key, str):
        return value._replace(**{key: _put(getattr(value, key), rest, new)})
    items = list(value)
    items[key] = _put(items[key], rest, new)
    return tuple(items)


def mutate_od(od: OracleDefinition, rng: random.Random) -> OracleDefinition:
    """`od` with one slot, at any depth, replaced. A slot that holds a tuple
    is, half the time, swapped for another container of its items: a
    list, an empty tuple, or the tuple with an item repeated, dropped,
    moved or added; any other slot takes one of _SLOT_VALUES."""
    path = rng.choice(list(_slots(od)))
    old = _get(od, path)
    if type(old) is tuple and rng.random() < 0.5:
        extra = rng.choice(_SLOT_VALUES)
        new = rng.choice((
            list(old), (), old + old[:1], old[1:], old[::-1], old + (extra,), (extra,) + old,
        ))
    else:
        new = rng.choice(_SLOT_VALUES)
    return _put(od, path, new)
