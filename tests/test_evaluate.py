"""Expression evaluation semantics, for `evaluator`'s closures and the
generated code (one expression at a time through `compile_expr` below,
which wraps the emitter the scoring program is built from)."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import gen_checkable_od, gen_expr, gen_schema, gen_trace
from odl import (
    Binary,
    Call,
    CheckedOracle,
    CheckError,
    Env,
    EvalError,
    Frequency,
    Ident,
    Kind,
    Literal,
    OracleDefinition,
    Point2,
    ScoringFunction,
    TraceSchema,
    Unary,
    check_od,
    eval_expr,
    format_expr,
    parse_od,
)
from odl.evaluate import binder, emit_expr, emit_value, evaluator
from odl.syntax import MAX_NESTING


def compile_expr(expr, fields, constants, timers=()):
    """One checked expression as a function f(values, t, timers, seq_time)
    that returns what `eval_expr` returns in the matching `Env`. It is
    built by `emit_expr`, as the scoring program is, so the emitter can be
    compared with `evaluator`'s closures one expression at a time."""
    namespace = {}
    bind = binder(namespace)

    def resolve(name):
        if name in ("t", "seq_time"):
            return name
        if name in fields:
            return f"values[{bind(name)}]"
        if name in constants:
            return emit_value(constants[name], bind)
        if name in timers:
            return f"timers[{bind(name)}]"
        raise EvalError(f"unbound identifier '{name}'")

    source = f"def expression(values, t, timers, seq_time):\n    return {emit_expr(expr, resolve, bind)}\n"
    exec(compile(source, "<odl expression>", "exec"), namespace)
    return namespace["expression"]

ENV = Env(
    fields={"speed": 25.0, "road_normal": 3.8, "position": Point2(0.0, 0.0), "t": 1.0},
    constants={"MAX_SPEED": 20.0, "LW": 3.7, "TH": 0.3},
)


def expr(source: str):
    od = parse_od(f"f = scoring_function(event = true, action = {source}, frequency = first);")
    return od.functions[0].action


def bool_expr(source: str):
    od = parse_od(f"f = scoring_function(event = {source}, frequency = first);")
    return od.functions[0].event


def test_distance_345():
    assert eval_expr(expr("distance(point(0, 0), point(3, 4))"), Env()) == 5.0


def test_numeric_comparison_against_constant():
    assert eval_expr(bool_expr("speed > MAX_SPEED"), ENV) is True


def test_lane_band_arithmetic():
    # 3.4 < 3.8 < 4.0 with LW = 3.7, TH = 0.3
    source = "road_normal > LW - TH and road_normal < LW + TH"
    assert eval_expr(bool_expr(source), ENV) is True


def test_short_circuit_protects_partial_expressions():
    assert eval_expr(bool_expr("false and (1 / 0 > 0)"), Env()) is False
    assert eval_expr(bool_expr("true or (1 / 0 > 0)"), Env()) is True


def test_division_by_zero_identifies_expression():
    with pytest.raises(EvalError, match=r"division by zero in '1.0 / 0.0'"):
        eval_expr(expr("1 / 0"), Env())


def test_purity():
    e = expr("speed * 2 - MAX_SPEED / 4")
    assert eval_expr(e, ENV) == eval_expr(e, ENV)


def test_builtins():
    assert eval_expr(expr("abs(-3)"), Env()) == 3.0
    assert eval_expr(expr("min(3, 1, 2)"), Env()) == 1.0
    assert eval_expr(expr("max(3, 1, 2)"), Env()) == 3.0


def test_not_and_negation():
    assert eval_expr(bool_expr("not (1 > 2)"), Env()) is True
    assert eval_expr(expr("-(2 + 3)"), Env()) == -5.0


def test_equality_on_numbers_and_booleans():
    assert eval_expr(bool_expr("1 == 1.0"), Env()) is True
    assert eval_expr(bool_expr("true != false"), Env()) is True
    assert eval_expr(bool_expr("0.1 + 0.2 == 0.3"), Env()) is False  # exact doubles


def test_seq_time_bound_only_in_condition():
    env = Env(seq_time=2.5)
    od = parse_od("f = scoring_function(event = true, condition = seq_time > 2, frequency = first);")
    assert eval_expr(od.functions[0].condition, env) is True
    with pytest.raises(EvalError, match="seq_time"):
        eval_expr(od.functions[0].condition, Env())


def test_unbound_identifier():
    with pytest.raises(EvalError, match="unbound identifier 'ghost'"):
        eval_expr(bool_expr("ghost > 1"), Env())


def test_timer_lookup():
    env = Env(timers={"expiration": 0.25})
    assert eval_expr(bool_expr("expiration > 0"), env) is True


# Hand-built trees: nodes the parser and checker never produce, and operand
# values of a kind the checker would refuse.


def test_every_binary_operator_on_hand_built_trees():
    pairs = [(2.0, 3.0), (3.0, 2.0), (2.0, 2.0), (-0.5, 4.0)]
    expected = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }
    for op, apply in expected.items():
        for a, b in pairs:
            got = eval_expr(Binary(op, Literal(a), Literal(b)), Env())
            assert got == apply(a, b) and type(got) is type(apply(a, b)), (op, a, b)


def test_unknown_operator_and_function():
    with pytest.raises(CheckError, match=r"^unknown operator '%'$"):
        eval_expr(Binary("%", Literal(1.0), Literal(2.0)), Env())
    # The operator is refused before either operand is evaluated.
    with pytest.raises(CheckError, match=r"^unknown operator '%'$"):
        eval_expr(Binary("%", Literal(1.0), Binary("/", Literal(1.0), Literal(0.0))), Env())
    with pytest.raises(EvalError, match=r"^unknown function 'hypot'$"):
        eval_expr(Call("hypot", (Literal(3.0), Literal(4.0))), Env())
    with pytest.raises(EvalError, match=r"^unbound identifier 'ghost'$"):
        eval_expr(Call("hypot", (Ident("ghost"),)), Env())
    # An unhashable operator is unknown too, before its operands.
    with pytest.raises(CheckError, match=r"^unknown operator '\['\+'\]'$"):
        eval_expr(Binary(["+"], Literal(1.0), Literal(2.0)), Env())
    with pytest.raises(CheckError, match=r"^unknown operator '\['-'\]'$"):
        eval_expr(Unary(["-"], Literal(1.0)), Env())
    with pytest.raises(CheckError, match=r"^unknown operator '\['\+'\]'$"):
        eval_expr(Binary(["+"], Literal(1.0), Ident("ghost")), Env())


# A hand-built operator that is Python source, which the generated program
# would run if it spliced the operator in.
_INJECTED = "+ 1 if print('INJECTED') is None else"


def test_an_operator_outside_the_tables_is_refused_by_every_layer(capsys):
    """check_od, format_expr, eval_expr and the CheckedOracle constructor
    each refuse an operator that is not a key of syntax.BINARY or
    syntax.UNARY, with one text, so no program of it is generated and none
    of the operator runs."""
    schema = TraceSchema((("x", Kind.NUMBER),))
    for tree in (Binary(_INJECTED, Ident("x"), Literal(1.0)), Unary("!", Ident("x"))):
        od = OracleDefinition(functions=(ScoringFunction("f", tree, Frequency.ALL_SUM),))
        text = re.escape(f"unknown operator '{tree.op}'")
        with pytest.raises(CheckError, match=f"^event of 'f': {text}$"):
            check_od(od, schema)
        with pytest.raises(CheckError, match=f"^{text}$"):
            format_expr(tree)
        with pytest.raises(CheckError, match=f"^{text}$"):
            eval_expr(tree, Env(fields={"x": 5.0}))
        with pytest.raises(CheckError, match=f"^event of 'f': {text}$"):
            CheckedOracle(od, schema)
    assert capsys.readouterr() == ("", "")


def test_a_malformed_tree_is_refused_before_evaluation():
    """eval_expr refuses what check_expr refuses, with its text, before any
    node is evaluated: a value that is not a node, a tree nested past the
    limit (which no evaluator recursion reaches), a literal of no kind and
    call arguments that are not a tuple."""
    deep = Literal(1.0)
    for _ in range(3000):
        deep = Unary("-", deep)
    for tree, text in [
        ("speed", "not an expression node: 'speed'"),
        (None, "not an expression node: None"),
        (Binary("+", Literal(1.0), 2.0), "not an expression node: 2.0"),
        (Unary("-", "x"), "not an expression node: 'x'"),
        (deep, f"expression nests deeper than {MAX_NESTING} levels"),
        (Literal(math.inf), "literal inf is not a finite number, a boolean or a point of two finite numbers"),
        (Call("abs", 5), "arguments of 'abs': 5 is not a tuple"),
    ]:
        with pytest.raises(CheckError, match=f"^{re.escape(text)}$"):
            eval_expr(tree, Env())


def test_each_error_is_raised_only_when_its_node_is_evaluated():
    # A name fault in a node that is never reached raises nothing.
    assert eval_expr(Binary("and", Literal(False), Ident("ghost")), Env()) is False
    assert eval_expr(Binary("or", Literal(True), Call("hypot", ())), Env()) is True
    with pytest.raises(EvalError, match=r"^division by zero in '1.0 / 0.0'$"):
        eval_expr(Binary("+", Binary("/", Literal(1.0), Literal(0.0)), Ident("ghost")), Env())
    # An unknown function's arguments are evaluated first, left to right.
    with pytest.raises(EvalError, match=r"^unbound identifier 'ghost'$"):
        eval_expr(Call("hypot", (Ident("ghost"), Ident("seq_time"))), Env())
    # Shape faults are refused first, wherever they are.
    with pytest.raises(CheckError, match=r"^not an expression node: None$"):
        eval_expr(Binary("and", Literal(False), None), Env())
    with pytest.raises(CheckError, match=r"^arguments of 'abs': 5 is not a tuple$"):
        eval_expr(Binary("or", Literal(True), Call("abs", 5)), Env())


def test_names_resolve_to_field_then_constant_then_timer_then_score():
    env = Env(
        fields={"a": 1.0},
        constants={"a": 2.0, "b": 20.0},
        timers={"a": 3.0, "b": 30.0, "c": 300.0},
        scores={"a": 4.0, "b": 40.0, "c": 400.0, "d": 4000.0},
        seq_time=0.5,
    )
    assert [eval_expr(Ident(name), env) for name in "abcd"] == [1.0, 20.0, 300.0, 4000.0]
    assert eval_expr(Ident("seq_time"), env) == 0.5
    with pytest.raises(EvalError, match=r"^unbound identifier 'e'$"):
        eval_expr(Ident("e"), env)
    # evaluator resolves in that order when it builds: the field `a` is read
    # from the Env's fields when the closure is called, the constant `b`
    # folded in.
    closure = evaluator(expr("a * b"), env)
    assert closure() == 20.0
    env.fields["a"] = 3.0
    assert closure() == 60.0


def test_and_or_return_booleans_for_numeric_operands():
    cases = [
        ("and", 2.0, 3.0, True),
        ("and", 2.0, 0.0, False),
        ("and", 0.0, 3.0, False),
        ("or", 0.0, 0.0, False),
        ("or", 0.0, -1.0, True),
        ("or", 2.0, 0.0, True),
    ]
    for op, a, b, expected in cases:
        got = eval_expr(Binary(op, Literal(a), Literal(b)), Env())
        assert got is expected, (op, a, b)
    failing = Binary("/", Literal(1.0), Literal(0.0))
    assert eval_expr(Binary("and", Literal(0.0), failing), Env()) is False
    assert eval_expr(Binary("or", Literal(5.0), failing), Env()) is True
    assert eval_expr(Unary("not", Literal(2.0)), Env()) is False


_coords = st.floats(min_value=-1e8, max_value=1e8)


@settings(max_examples=100, deadline=None)
@given(_coords, _coords, _coords, _coords)
def test_distance_symmetry_and_nonnegativity(ax, ay, bx, by):
    env = Env(fields={"p": Point2(ax, ay), "q": Point2(bx, by)})
    d_pq = eval_expr(expr("distance(p, q)"), env)
    d_qp = eval_expr(expr("distance(q, p)"), env)
    assert d_pq == d_qp
    assert d_pq >= 0.0


@settings(max_examples=50, deadline=None)
@given(_coords, _coords)
def test_distance_identity(x, y):
    env = Env(fields={"p": Point2(x, y)})
    assert eval_expr(expr("distance(p, p)"), env) == 0.0


def test_generated_code_equals_tree_walk():
    """Generated code and eval_expr are two evaluators of one semantics: on
    every expression of generated checkable definitions, and on generated
    expressions that also read timers and seq_time, they agree exactly, in
    value and in type."""
    timer_values = [-1.5, -0.25, 0.0, 0.5, 2.0]
    for i in range(200):
        rng = random.Random(30_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, n_messages=6)
        constants = od.constant_map()
        timers = {f"tm{j}": rng.choice(timer_values) for j in range(5)}
        expressions = []
        for fn in od.functions:
            expressions += [e for e in (fn.event, fn.condition, fn.action) if e is not None]
            expressions += [value for n in fn.notifications for _, value in n.bindings]
        kinds = {name: Kind.NUMBER for name in constants}
        expressions += [
            gen_expr(rng, schema, kinds, numbers=("tm0", "tm3", "seq_time")) for _ in range(5)
        ]
        for e in expressions:
            compiled = compile_expr(e, schema.names(), constants, timers)
            for message in trace.messages:
                seq_time = rng.choice((0.0, 0.5, 1.5, 3.0))
                env = Env(
                    fields={**message.values, "t": message.t},
                    constants=constants,
                    timers=timers,
                    seq_time=seq_time,
                )
                walked = eval_expr(e, env)
                got = compiled(message.values, message.t, timers, seq_time)
                assert got == walked and type(got) is type(walked), (i, format_expr(e))


def test_compiled_errors_stay_lazy_and_match_tree_walk():
    # 1 / 0 is over constants only, yet it may fail only when evaluated.
    division = compile_expr(expr("1 / 0"), (), {})
    with pytest.raises(EvalError) as walked:
        eval_expr(expr("1 / 0"), Env())
    with pytest.raises(EvalError) as compiled:
        division({}, 0.0, {}, None)
    assert str(compiled.value) == str(walked.value) == "division by zero in '1.0 / 0.0'"
    # evaluator folds a node over values when it is built, but one whose
    # evaluation fails stays a closure, which raises when it is called.
    built = evaluator(expr("1 / 0"), Env())
    with pytest.raises(EvalError, match=r"^division by zero in '1\.0 / 0\.0'$"):
        built()
    # So is a node over values of the wrong kinds, which eval_expr, running
    # only check_expr, may be given.
    assert eval_expr(bool_expr("false and (point(0, 0) < 1)"), Env()) is False
    guarded = compile_expr(bool_expr("false and (1 / 0 > 0)"), (), {})
    assert guarded({}, 0.0, {}, None) is False
    assert compile_expr(bool_expr("true or (1 / 0 > 0)"), (), {})({}, 0.0, {}, None) is True


def test_compiled_builtins_over_fields():
    fields = {"a": 3.0, "b": -1.0, "c": 2.0, "p": Point2(3.0, 4.0), "t": 0.5}
    for source in ("min(a, c, b)", "max(b, c, t, a)", "distance(point(0, 0), p)", "distance(p, p)"):
        e = expr(source)
        compiled = compile_expr(e, ("a", "b", "c", "p"), {})
        assert compiled(fields, 0.5, {}, None) == eval_expr(e, Env(fields=fields)), source
