"""Static checker: name resolution, kinds, timer rules."""

import math
import random
import re
from dataclasses import replace

import pytest

from _drive import NEAR, drive
from _generators import gen_checkable_od, gen_schema, gen_trace, mutate_od
from odl import (
    BUILTIN_NAMES,
    Binary,
    Call,
    CheckError,
    EvalError,
    Frequency,
    GEN_SCHEMA,
    Ident,
    Kind,
    Literal,
    Notification,
    OdlError,
    OracleDefinition,
    Point2,
    ScoringFunction,
    TraceSchema,
    Unary,
    check_od,
    format_od,
    load_builtin,
    parse_od,
    reference_score,
    score_trace,
)
from odl.parser import MAX_NESTING

SCHEMA = TraceSchema(
    (
        ("speed", Kind.NUMBER),
        ("acceleration", Kind.NUMBER),
        ("position", Kind.POINT2),
        ("road_normal", Kind.NUMBER),
        ("collision", Kind.BOOLEAN),
    )
)


def check_source(source: str, schema: TraceSchema = SCHEMA):
    return check_od(parse_od(source), schema)


SEQ_TIME_FIELD = TraceSchema((("seq_time", Kind.NUMBER), ("speed", Kind.NUMBER)))


def _fn(name, event, **params):
    return ScoringFunction(name, event, Frequency.ALL_SUM, **params)


def _nested(levels):
    expr = Ident("speed")
    for _ in range(levels):
        expr = Binary("+", expr, Ident("speed"))
    return expr


# A timer named seq_time, targeted at f by g: a hand-built tree, refused as
# parse_od refuses the name.
_SEQ_TIME_TIMER = (Notification("f", (("seq_time", Literal(1.0)),)),)
_F_SOURCE = "f = scoring_function(event = collision, frequency = first);\n"
# A timer of a, with the action and the notification value to format in.
_TIMER_SOURCE = "a = scoring_function(event = tm > 0, {}frequency = all_sum, notifications = [(a, [(tm, {})])]);"

# A value check_od refuses is not one of these, which parse_od builds.
_VALUES = "a finite number, a boolean or a point of two finite numbers"


class _Name(Ident):
    """A node type parse_od never builds, which the evaluators refuse."""

# Every CheckError text check_od raises, whole: (oracle, schema, text). An
# oracle is source text or a hand-built tree.
CHECK_ERRORS = [
    pytest.param("const A = 1;", SCHEMA, "oracle definition declares no scoring functions", id="no_functions"),
    pytest.param(
        _F_SOURCE, TraceSchema((("x", Kind.NUMBER), ("collision", Kind.BOOLEAN), ("x", Kind.BOOLEAN))),
        "duplicate schema field 'x'", id="schema_field_twice",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision")), _fn("f", Ident("collision"), action=Literal(5.0)))),
        SCHEMA, "duplicate name 'f'", id="function_twice",
    ),
    pytest.param(
        OracleDefinition(constants=(("K", 1.0), ("K", True)), functions=(_fn("f", Ident("collision")),)),
        SCHEMA, "duplicate name 'K'", id="constant_twice",
    ),
    pytest.param(
        OracleDefinition(constants=(("f", 1.0),), functions=(_fn("f", Ident("collision")),)),
        SCHEMA, "duplicate name 'f'", id="constant_and_function",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("x y", Ident("collision")),)), SCHEMA,
        "invalid scoring function name 'x y'", id="function_name_not_a_name",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn(3, Ident("collision")),)), SCHEMA,
        "invalid scoring function name 3", id="function_name_not_a_str",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("not", Ident("collision")),)), SCHEMA,
        "'not' is reserved and cannot name a scoring function", id="function_named_not",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("sum", Ident("collision")),)), SCHEMA,
        "'sum' is reserved and cannot name a scoring function", id="function_named_sum",
    ),
    pytest.param(
        OracleDefinition(constants=(("t", 1.0),), functions=(_fn("f", Ident("collision")),)), SCHEMA,
        "'t' is reserved and cannot name a constant", id="constant_named_t",
    ),
    pytest.param(
        OracleDefinition(constants=(("1x", 1.0),), functions=(_fn("f", Ident("collision")),)), SCHEMA,
        "invalid constant name '1x'", id="constant_name_not_a_name",
    ),
    pytest.param(
        OracleDefinition(functions=(
            _fn("f", Binary(">", Ident("max"), Literal(0.0))),
            _fn("g", Ident("collision"), notifications=(Notification("f", (("max", Literal(1.0)),)),)),
        )),
        SCHEMA, "'max' is reserved and cannot name a timer", id="timer_named_max",
    ),
    pytest.param(
        OracleDefinition(functions=(
            _fn("f", Ident("collision"), notifications=(Notification("f", (("a-b", Literal(1.0)),)),)),
        )),
        SCHEMA, "invalid timer name 'a-b'", id="timer_name_not_a_name",
    ),
    pytest.param(
        "const speed = 1;\n" + _F_SOURCE, SCHEMA,
        "constant 'speed' collides with trace field 'speed'", id="constant_is_field",
    ),
    pytest.param(
        "f = scoring_function(event = collision, frequency = all_sum, notifications = [(ghost, [(x, 1)])]);",
        SCHEMA, "function 'f': notification target 'ghost' is not a scoring function", id="notification_target",
    ),
    pytest.param(
        "a = scoring_function(event = speed > 0, frequency = all_sum, notifications = [(a, [(speed, 1)])]);",
        SCHEMA, "function 'a': timer 'speed' collides with a trace field", id="timer_is_field",
    ),
    pytest.param(
        "const K = 1;\na = scoring_function(event = K > 0, frequency = all_sum, notifications = [(a, [(K, 1)])]);",
        SCHEMA, "function 'a': timer 'K' collides with a constant", id="timer_is_constant",
    ),
    pytest.param(
        "a = scoring_function(event = tm > 0, frequency = all_sum);\n"
        "b = scoring_function(event = collision, frequency = all_sum, notifications = [(a, [(tm, 1)])]);\n"
        "c = scoring_function(event = collision, frequency = all_sum, notifications = [(a, [(tm, 2)])]);",
        SCHEMA, "timer 'tm' of 'a' is set by both 'b' and 'c'; each timer takes exactly one notifier",
        id="two_notifiers",
    ),
    pytest.param(
        "a = scoring_function(event = tm > 0, frequency = all_sum);\n"
        "b = scoring_function(event = collision, frequency = all_sum, notifications = [(a, [(tm, 1), (tm, 2)])]);",
        SCHEMA, "timer 'tm' of 'a' is set by both 'b' and 'b'; each timer takes exactly one notifier",
        id="one_notifier_twice",
    ),
    pytest.param(
        "f = scoring_function(event = speed > 0, condition = seq_time > 0.5, frequency = all_sum);",
        SEQ_TIME_FIELD,
        "condition of 'f': 'seq_time' names both the sequence time and a trace field; rename the field",
        id="seq_time_field_in_condition",
    ),
    pytest.param(
        "f = scoring_function(event = speed > 0, frequency = first);\nsummary = seq_time;", SEQ_TIME_FIELD,
        "summary: seq_time may only appear in a condition", id="seq_time_field_in_summary",
    ),
    pytest.param(
        "f = scoring_function(event = seq_time > 1, frequency = first);", SCHEMA,
        "event of 'f': seq_time may only appear in a condition", id="seq_time_in_event",
    ),
    pytest.param(
        "f = scoring_function(event = collision, action = seq_time, frequency = first);", SCHEMA,
        "action of 'f': seq_time may only appear in a condition", id="seq_time_in_action",
    ),
    pytest.param(
        "f = scoring_function(event = collision, frequency = first, notifications = [(f, [(tm, seq_time)])]);",
        SCHEMA, "notification value for 'f.tm' of 'f': seq_time may only appear in a condition",
        id="seq_time_in_notification",
    ),
    pytest.param(
        _F_SOURCE + "summary = seq_time;", SCHEMA,
        "summary: seq_time may only appear in a condition", id="seq_time_in_summary",
    ),
    pytest.param(
        OracleDefinition(functions=(
            _fn("f", Binary(">", Ident("seq_time"), Literal(0.0))),
            _fn("g", Ident("collision"), notifications=_SEQ_TIME_TIMER),
        )),
        SCHEMA, "'seq_time' is reserved and cannot name a timer", id="seq_time_timer_in_event",
    ),
    pytest.param(
        OracleDefinition(functions=(
            _fn("f", Ident("collision"), condition=Binary(">", Ident("seq_time"), Literal(0.0))),
            _fn("g", Ident("collision"), notifications=_SEQ_TIME_TIMER),
        )),
        SCHEMA, "'seq_time' is reserved and cannot name a timer", id="seq_time_timer_in_condition",
    ),
    pytest.param(
        _TIMER_SOURCE.format("action = tm, ", "1"), SCHEMA,
        "action of 'a': timer 'tm' may only be read in the event or condition", id="timer_in_action",
    ),
    pytest.param(
        _TIMER_SOURCE.format("", "tm"), SCHEMA,
        "notification value for 'a.tm' of 'a': timer 'tm' may only be read in the event or condition",
        id="timer_in_notification",
    ),
    pytest.param(
        "a = scoring_function(event = b > 0, action = b, frequency = all_sum, notifications = [(a, [(b, 1)])]);\n"
        "b = scoring_function(event = collision, frequency = first);",
        SCHEMA, "action of 'a': timer 'b' may only be read in the event or condition",
        id="function_named_like_a_timer_in_action",
    ),
    pytest.param(
        "a = scoring_function(event = collision, frequency = all_sum);\n"
        "b = scoring_function(event = collision, frequency = all_sum, notifications = [(a, [(tm, 1)])]);",
        SCHEMA, "timer 'tm' is targeted at 'a' but never read in its event or condition", id="timer_never_read",
    ),
    pytest.param(
        _F_SOURCE + "summary = f + g;", SCHEMA, "summary references unknown name 'g'", id="summary_unknown",
    ),
    pytest.param(
        _F_SOURCE + "summary = t;", SCHEMA, "summary references unknown name 't'", id="summary_t",
    ),
    pytest.param(
        _F_SOURCE + "summary = speed;", SCHEMA,
        "summary references unknown name 'speed'", id="summary_field",
    ),
    pytest.param(
        "collision = scoring_function(event = collision + 1 > 0, frequency = first);", SCHEMA,
        "event of 'collision': '+' requires numeric operands", id="function_named_like_a_field_in_event",
    ),
    pytest.param(
        "collision = scoring_function(event = collision, frequency = first);\nsummary = not collision;", SCHEMA,
        "summary: 'not' requires a boolean operand", id="function_named_like_a_field_in_summary",
    ),
    pytest.param(
        _F_SOURCE + "g = scoring_function(event = f > 1, frequency = first);", SCHEMA,
        "event of 'g': scoring function 'f' may only be referenced in the summary", id="score_in_event",
    ),
    pytest.param(
        _F_SOURCE + "g = scoring_function(event = collision, condition = f > 1, frequency = first);",
        SCHEMA, "condition of 'g': scoring function 'f' may only be referenced in the summary",
        id="score_in_condition",
    ),
    pytest.param(
        _F_SOURCE + "g = scoring_function(event = collision, action = f, frequency = first);", SCHEMA,
        "action of 'g': scoring function 'f' may only be referenced in the summary", id="score_in_action",
    ),
    pytest.param(
        _F_SOURCE.replace("first", "first, notifications = [(f, [(tm, f)])]"), SCHEMA,
        "notification value for 'f.tm' of 'f': scoring function 'f' may only be referenced in the summary",
        id="score_in_notification",
    ),
    pytest.param(
        "f = scoring_function(event = wheels > 1, frequency = first);", SCHEMA,
        "event of 'f': timer 'wheels' has no notification targeting 'f' (and 'wheels' is not a trace field "
        "or constant)", id="unknown_in_event",
    ),
    pytest.param(
        "f = scoring_function(event = collision, condition = wheels > 1, frequency = first);", SCHEMA,
        "condition of 'f': timer 'wheels' has no notification targeting 'f' (and 'wheels' is not a trace "
        "field or constant)", id="unknown_in_condition",
    ),
    pytest.param(
        "f = scoring_function(event = collision, action = wheels, frequency = first);", SCHEMA,
        "action of 'f': unresolved identifier 'wheels'", id="unknown_in_action",
    ),
    pytest.param(
        "f = scoring_function(event = collision, frequency = first, notifications = [(f, [(tm, wheels)])]);",
        SCHEMA, "notification value for 'f.tm' of 'f': unresolved identifier 'wheels'",
        id="unknown_in_notification",
    ),
    pytest.param(
        "f = scoring_function(event = distance(position) > 1, frequency = first);", SCHEMA,
        "event of 'f': distance takes exactly two point2 arguments", id="distance_arity",
    ),
    pytest.param(
        "f = scoring_function(event = distance(position, speed) > 1, frequency = first);", SCHEMA,
        "event of 'f': distance takes exactly two point2 arguments", id="distance_kind",
    ),
    pytest.param(
        "f = scoring_function(event = abs(speed, speed) > 1, frequency = first);", SCHEMA,
        "event of 'f': abs takes exactly one number", id="abs_arity",
    ),
    pytest.param(
        "f = scoring_function(event = abs(collision) > 1, frequency = first);", SCHEMA,
        "event of 'f': abs takes exactly one number", id="abs_kind",
    ),
    pytest.param(
        "f = scoring_function(event = min(speed) > 1, frequency = first);", SCHEMA,
        "event of 'f': min takes two or more numbers", id="min_arity",
    ),
    pytest.param(
        _F_SOURCE + "summary = max(f, true, f);", SCHEMA,
        "summary: max takes two or more numbers", id="max_kind",
    ),
    pytest.param(
        "f = scoring_function(event = hypotenuse(speed) > 1, frequency = first);", SCHEMA,
        "event of 'f': unknown function 'hypotenuse' (built-ins: distance, abs, min, max)", id="unknown_function",
    ),
    pytest.param(
        "f = scoring_function(event = hypotenuse(wheels) > 1, frequency = first);", SCHEMA,
        "event of 'f': timer 'wheels' has no notification targeting 'f' (and 'wheels' is not a trace field "
        "or constant)", id="arguments_before_function",
    ),
    pytest.param(
        "f = scoring_function(event = not speed, frequency = first);", SCHEMA,
        "event of 'f': 'not' requires a boolean operand", id="not_on_number",
    ),
    pytest.param(
        "f = scoring_function(event = collision, action = -collision, frequency = first);", SCHEMA,
        "action of 'f': unary '-' requires a numeric operand", id="negate_boolean",
    ),
    pytest.param(
        "f = scoring_function(event = collision or speed, frequency = first);", SCHEMA,
        "event of 'f': 'or' requires boolean operands", id="or_on_number",
    ),
    pytest.param(
        "f = scoring_function(event = collision, action = speed / collision, frequency = first);", SCHEMA,
        "action of 'f': '/' requires numeric operands", id="divide_boolean",
    ),
    pytest.param(
        "f = scoring_function(event = speed >= collision, frequency = first);", SCHEMA,
        "event of 'f': ordering '>=' is not defined on number and boolean", id="ordering_mixed",
    ),
    pytest.param(
        "f = scoring_function(event = position < position, frequency = first);", SCHEMA,
        "event of 'f': ordering '<' is not defined on point2 and point2", id="ordering_points",
    ),
    pytest.param(
        "const P = point(1, 2);\nf = scoring_function(event = position == P, frequency = first);", SCHEMA,
        "event of 'f': '==' is not defined on point2 values; compare coordinates explicitly", id="point_equality",
    ),
    pytest.param(
        "f = scoring_function(event = speed != collision, frequency = first);", SCHEMA,
        "event of 'f': '!=' requires operands of one kind, got number and boolean", id="mixed_equality",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Binary("%", Ident("speed"), Literal(3.0))),)), SCHEMA,
        "event of 'f': unknown operator '%'", id="unknown_binary_operator",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=Unary("!", Ident("speed"))),)), SCHEMA,
        "action of 'f': unknown operator '!'", id="unknown_unary_operator",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", None),)), SCHEMA,
        "event of 'f': not an expression node: None", id="event_not_a_node",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=Binary(["+"], Ident("speed"), Literal(1.0))),)),
        SCHEMA, "action of 'f': unknown operator '['+']'", id="unhashable_binary_operator",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Unary(["not"], Ident("collision"))),)), SCHEMA,
        "event of 'f': unknown operator '['not']'", id="unhashable_unary_operator",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=Call(["abs"], (Ident("speed"),))),)),
        SCHEMA, "action of 'f': unknown function '['abs']' (built-ins: distance, abs, min, max)",
        id="unhashable_function_name",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=Ident(["speed"])),)), SCHEMA,
        "action of 'f': unresolved identifier '['speed']'", id="unhashable_identifier",
    ),
    *(
        pytest.param(
            OracleDefinition(functions=(_fn("f", Ident("collision"), action=Ident(name)),)), SCHEMA,
            f"action of 'f': unresolved identifier '{name}'", id=f"identifier_{row}",
        )
        for name, row in [("not", "not"), ("x y", "not_a_name"), (3, "not_a_str"), ("true", "true"),
                          ("sum", "sum"), ("first", "first")]
    ),
    *(
        pytest.param(
            OracleDefinition(functions=(
                _fn("f", Ident("collision"), notifications=(Notification(target, (("tm", Literal(1.0)),)),)),
            )),
            SCHEMA, f"function 'f': notification target '{target}' is not a scoring function", id=f"target_{row}",
        )
        for target, row in [("x y", "not_a_name"), (3, "not_a_str"), ("sum", "sum"), ("t", "t")]
    ),
    # A shape fault comes before any scope or kind fault, wherever it is:
    # the operator before its operands' names, a value before a collision.
    pytest.param(
        OracleDefinition(functions=(_fn("f", Binary("%", Ident("wheels"), Literal(3.0))),)), SCHEMA,
        "event of 'f': unknown operator '%'", id="operands_before_operator",
    ),
    pytest.param(
        replace(parse_od(load_builtin("listing1")), summary=Binary("%", Ident("speed"), Literal(3.0))), SCHEMA,
        "summary: unknown operator '%'", id="operator_before_summary_scope",
    ),
    pytest.param(
        OracleDefinition(constants=(("K", 1),), functions=(_fn("f", Ident("collision")),)),
        TraceSchema((("K", Kind.NUMBER), ("collision", Kind.BOOLEAN))),
        f"constant 'K': value 1 is not {_VALUES}", id="constant_value_before_field_collision",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=Literal("1")),)), SCHEMA,
        f"action of 'f': literal '1' is not {_VALUES}", id="string_literal",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Binary(">", Ident("speed"), Literal(1))),)), SCHEMA,
        f"event of 'f': literal 1 is not {_VALUES}", id="integer_literal",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision")),), summary=Literal(math.nan)), SCHEMA,
        f"summary: literal nan is not {_VALUES}", id="nan_literal",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Binary("<", Call("distance", (
            Ident("position"), Literal(Point2(1.0, math.inf)))), Literal(2.0))),)), SCHEMA,
        f"event of 'f': literal Point2(x=1.0, y=inf) is not {_VALUES}", id="infinite_point_literal",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), notifications=(
            Notification("f", (("tm", Literal((1.0, 2.0))),)),)),)), SCHEMA,
        f"notification value for 'f.tm' of 'f': literal (1.0, 2.0) is not {_VALUES}", id="tuple_literal",
    ),
    pytest.param(
        OracleDefinition(constants=(("K", "fast"),), functions=(_fn("f", Ident("collision")),)), SCHEMA,
        f"constant 'K': value 'fast' is not {_VALUES}", id="string_constant",
    ),
    pytest.param(
        OracleDefinition(constants=(("P", Point2(1, 2)),), functions=(_fn("f", Ident("collision")),)), SCHEMA,
        f"constant 'P': value Point2(x=1, y=2) is not {_VALUES}", id="integer_point_constant",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), initial=math.inf),)), SCHEMA,
        "initial of 'f': inf is not a finite number", id="infinite_initial",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), initial=1),)), SCHEMA,
        "initial of 'f': 1 is not a finite number", id="integer_initial",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), initial=True),)), SCHEMA,
        "initial of 'f': True is not a finite number", id="boolean_initial",
    ),
    pytest.param(
        OracleDefinition(functions=(ScoringFunction("f", Ident("collision"), "first"),)), SCHEMA,
        "frequency of 'f': 'first' is not a frequency mode", id="string_frequency",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=_nested(MAX_NESTING + 1)),)), SCHEMA,
        f"action of 'f': expression nests deeper than {MAX_NESTING} levels", id="nesting_in_action",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision")),), summary=_nested(MAX_NESTING + 1)), SCHEMA,
        f"summary: expression nests deeper than {MAX_NESTING} levels", id="nesting_in_summary",
    ),
    pytest.param(
        "f = scoring_function(event = speed + 1, frequency = first);", SCHEMA,
        "event of 'f' must be boolean", id="event_kind",
    ),
    pytest.param(
        "f = scoring_function(event = collision, condition = speed, frequency = first);", SCHEMA,
        "condition of 'f' must be boolean", id="condition_kind",
    ),
    pytest.param(
        "f = scoring_function(event = collision, action = collision, frequency = first);", SCHEMA,
        "action of 'f' must be numeric", id="action_kind",
    ),
    pytest.param(
        "f = scoring_function(event = collision, frequency = first, notifications = [(f, [(tm, collision)])]);",
        SCHEMA, "notification value for 'f.tm' in 'f' must be numeric", id="notification_kind",
    ),
    pytest.param(
        _F_SOURCE + "summary = f > 1;", SCHEMA, "summary must be numeric", id="summary_kind",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), action=Call("abs", 5)),)), SCHEMA,
        "action of 'f': arguments of 'abs': 5 is not a tuple", id="call_arguments_not_a_tuple",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), notifications=(Notification("g", Literal(1.0)),)),)),
        SCHEMA, "notification for 'g' of 'f': Literal(value=1.0) is not a tuple", id="bindings_not_a_tuple",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), notifications=(Notification(["g"], ()),)),)), SCHEMA,
        "function 'f': notification target '['g']' is not a scoring function", id="target_unhashable",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision"), notifications=(Notification("f", ()),)),)), SCHEMA,
        "notification for 'f' of 'f': sets no timer", id="notification_sets_no_timer",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("collision")), 3)), SCHEMA,
        "functions: 3 is not a scoring function", id="function_not_a_scoring_function",
    ),
    pytest.param(
        OracleDefinition(constants=(("a",),), functions=(_fn("f", Ident("collision")),)), SCHEMA,
        "constants: ('a',) is not a (name, value) pair", id="constant_not_a_pair",
    ),
    pytest.param(
        OracleDefinition(constants=[("K", 1.0)], functions=(_fn("f", Ident("collision")),)), SCHEMA,
        "constants: [('K', 1.0)] is not a tuple", id="constants_list",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", _Name("collision")),)), SCHEMA,
        "event of 'f': not an expression node: _Name(name='collision')", id="node_subclass",
    ),
    pytest.param(
        OracleDefinition(functions=(_fn("f", Ident("sum")),)), TraceSchema((("sum", Kind.BOOLEAN),)),
        "event of 'f': unresolved identifier 'sum'", id="identifier_is_a_field_named_sum",
    ),
    pytest.param(
        _F_SOURCE, TraceSchema((("t", Kind.BOOLEAN), ("collision", Kind.BOOLEAN))),
        "'t' is implicit and cannot be redeclared", id="schema_field_t",
    ),
    pytest.param(
        _F_SOURCE, TraceSchema((("collision", "boolean"),)),
        "field 'collision' has unknown kind 'boolean' (expected number, boolean, or point2)", id="schema_kind_a_string",
    ),
    pytest.param(
        _F_SOURCE, TraceSchema((("x y", Kind.NUMBER), ("collision", Kind.BOOLEAN))),
        "invalid field name 'x y'", id="schema_field_not_a_name",
    ),
    pytest.param(
        _F_SOURCE, TraceSchema((("x",),)),
        "schema fields: ('x',) is not a (name, kind) pair", id="schema_field_not_a_pair",
    ),
    pytest.param(
        _F_SOURCE, TraceSchema(None), "schema fields: None is not a tuple", id="schema_fields_not_a_tuple",
    ),
]


@pytest.mark.parametrize("oracle, schema, text", CHECK_ERRORS)
def test_every_check_error_text(oracle, schema, text):
    od = parse_od(oracle) if isinstance(oracle, str) else oracle
    with pytest.raises(CheckError, match=f"^{re.escape(text)}$"):
        check_od(od, schema)


# Rows whose hand-built definition format_od refuses too, with the same
# text: printed, it would not parse, or would parse as another definition.
UNPRINTABLE = {
    "function_twice", "constant_twice", "constant_and_function", "function_name_not_a_name",
    "function_name_not_a_str", "function_named_not", "function_named_sum", "constant_named_t",
    "constant_name_not_a_name", "timer_named_max", "timer_name_not_a_name", "seq_time_timer_in_event",
    "unknown_binary_operator", "unknown_unary_operator", "event_not_a_node", "unhashable_binary_operator",
    "unhashable_unary_operator", "string_literal", "integer_literal", "nan_literal", "infinite_point_literal",
    "tuple_literal", "string_constant", "integer_point_constant", "infinite_initial", "integer_initial",
    "boolean_initial", "string_frequency", "nesting_in_action", "nesting_in_summary", "unhashable_identifier",
    "identifier_not", "identifier_not_a_name", "identifier_not_a_str", "identifier_true", "identifier_sum",
    "identifier_first", "target_not_a_name", "target_not_a_str", "target_sum", "target_t",
    "unhashable_function_name", "call_arguments_not_a_tuple", "bindings_not_a_tuple", "target_unhashable",
    "notification_sets_no_timer", "function_not_a_scoring_function", "constant_not_a_pair", "constants_list",
    "node_subclass", "identifier_is_a_field_named_sum", "operands_before_operator", "operator_before_summary_scope",
    "constant_value_before_field_collision",
}


@pytest.mark.parametrize("oracle, schema, text", [row for row in CHECK_ERRORS if row.id in UNPRINTABLE])
def test_format_od_refuses_with_the_check_error_text(oracle, schema, text):
    with pytest.raises(CheckError, match=f"^{re.escape(text)}$"):
        format_od(oracle)


def test_format_od_refuses_an_identifier_parse_od_cannot_read_wherever_it_is():
    for od, where, name in [
        (OracleDefinition(functions=(_fn("f", Ident("not")),)), "event of 'f'", "not"),
        (OracleDefinition(functions=(_fn("f", Ident("collision"), condition=Ident("x y")),)), "condition of 'f'", "x y"),
        (OracleDefinition(functions=(_fn("f", Ident("collision")),), summary=Ident("true")), "summary", "true"),
    ]:
        with pytest.raises(CheckError, match=f"^{re.escape(where)}: unresolved identifier '{name}'$"):
            format_od(od)
    # The names an expression reads that no definition may declare.
    readable = Binary("+", Binary("+", Ident("t"), Ident("seq_time")), Ident("abs"))
    od = OracleDefinition(functions=(_fn("f", Ident("collision"), condition=readable),))
    assert parse_od(format_od(od)) == od


def test_listing2_checks_against_point_schema():
    checked = check_source(load_builtin("listing2"))
    assert checked.timers == {"arrival_test": frozenset()}


def test_ordering_undefined_on_points():
    with pytest.raises(CheckError, match="ordering"):
        check_source("f = scoring_function(event = position > 3, frequency = first);")


def test_equality_undefined_on_points():
    with pytest.raises(CheckError, match="coordinates explicitly"):
        check_source("const P = point(1, 2);\nf = scoring_function(event = position == P, frequency = first);")


def test_deleted_notifier_reports_timer_without_notification():
    # listing4 with the deceleration function removed: the collisions timer
    # has nothing targeting it.
    source = (
        "collisions = scoring_function(event = collision and expiration > 0, "
        "action = 1.0, frequency = all_sum);"
    )
    with pytest.raises(CheckError) as err:
        check_source(source)
    message = str(err.value)
    assert "timer 'expiration'" in message
    assert "collisions" in message
    assert "no notification targeting" in message


def test_listing4_checks_and_exposes_timer():
    checked = check_source(load_builtin("listing4"))
    assert checked.timers["collisions"] == frozenset({"expiration"})
    assert checked.timers["deceleration"] == frozenset()


def test_seq_time_only_in_condition():
    with pytest.raises(CheckError, match="seq_time"):
        check_source("f = scoring_function(event = seq_time > 1, frequency = first);")
    with pytest.raises(CheckError, match="seq_time"):
        check_source(
            "f = scoring_function(event = collision, action = seq_time, frequency = first);"
        )


def test_seq_time_beside_a_field_of_that_name_is_refused():
    """The sequence time would shadow the field: reading the field, the
    condition below fires at both messages of a two-message trace with
    seq_time 5.0; reading the sequence time, only at the second."""
    sources = {
        "condition": "f = scoring_function(event = speed > 0, condition = seq_time > 0.5, frequency = all_sum);",
        "event": "f = scoring_function(event = seq_time > 0, frequency = first);",
        "action": "f = scoring_function(event = speed > 0, action = seq_time, frequency = all_sum);",
        "notification value for 'g.tm'": (
            "f = scoring_function(event = speed > 0, frequency = first,"
            " notifications = [(g, [(tm, seq_time)])]);\n"
            "g = scoring_function(event = tm > 0, frequency = first);"
        ),
    }
    for where, source in sources.items():
        message = (
            f"^{where} of 'f': 'seq_time' names both the sequence time and a trace field; "
            "rename the field$"
        )
        with pytest.raises(CheckError, match=message):
            check_source(source, SEQ_TIME_FIELD)


def test_a_field_named_seq_time_is_allowed_while_no_expression_names_it():
    checked = check_source(
        "f = scoring_function(event = speed > 0, condition = t >= 0, frequency = all_sum);",
        SEQ_TIME_FIELD,
    )
    assert checked.schema == SEQ_TIME_FIELD
    with pytest.raises(CheckError, match="seq_time may only appear in a condition"):
        check_source(
            "f = scoring_function(event = speed > 0, frequency = first);\nsummary = seq_time;",
            SEQ_TIME_FIELD,
        )


def test_notification_target_undefined():
    with pytest.raises(CheckError, match="not a scoring function"):
        check_source(
            "f = scoring_function(event = collision, frequency = all_sum, "
            "notifications = [(ghost, [(x, 1)])]);"
        )


def test_summary_unknown_name():
    with pytest.raises(CheckError, match="summary references unknown name 'g'"):
        check_source(
            "f = scoring_function(event = collision, frequency = first);\nsummary = f + g;"
        )


def test_summary_must_be_numeric():
    with pytest.raises(CheckError, match="summary must be numeric"):
        check_source(
            "f = scoring_function(event = collision, frequency = first);\nsummary = f > 1;"
        )


def test_summary_may_use_builtins_and_constants():
    checked = check_source(
        "const W = 0.5;\n"
        "f = scoring_function(event = collision, frequency = first);\n"
        "g = scoring_function(event = collision, frequency = first);\n"
        "summary = max(f, W * g);"
    )
    assert checked.od.summary is not None


def test_timer_targeted_but_never_read():
    source = (
        "a = scoring_function(event = collision, frequency = all_sum);\n"
        "b = scoring_function(event = collision, frequency = all_sum, "
        "notifications = [(a, [(tm, 1)])]);"
    )
    with pytest.raises(CheckError, match="never read"):
        check_source(source)


def test_timer_not_readable_in_action():
    source = (
        "a = scoring_function(event = tm > 0, action = tm, frequency = all_sum, "
        "notifications = [(a, [(tm, 1)])]);"
    )
    with pytest.raises(CheckError, match="only be read in the event or condition"):
        check_source(source)


def test_duplicate_notifier_rejected():
    source = (
        "a = scoring_function(event = tm > 0, frequency = all_sum);\n"
        "b = scoring_function(event = collision, frequency = all_sum, "
        "notifications = [(a, [(tm, 1)])]);\n"
        "c = scoring_function(event = collision, frequency = all_sum, "
        "notifications = [(a, [(tm, 2)])]);"
    )
    with pytest.raises(CheckError, match="exactly one notifier"):
        check_source(source)


def test_self_notification_allowed():
    source = (
        "a = scoring_function(event = collision or tm > 0, frequency = all_sum, "
        "notifications = [(a, [(tm, 1)])]);"
    )
    checked = check_source(source)
    assert checked.timers["a"] == frozenset({"tm"})


def test_timer_colliding_with_field_or_constant():
    with pytest.raises(CheckError, match="collides with a trace field"):
        check_source(
            "a = scoring_function(event = speed > 0, frequency = all_sum, "
            "notifications = [(a, [(speed, 1)])]);"
        )
    with pytest.raises(CheckError, match="collides with a constant"):
        check_source(
            "const K = 1;\n"
            "a = scoring_function(event = K > 0, frequency = all_sum, "
            "notifications = [(a, [(K, 1)])]);"
        )


def test_constant_field_collision():
    with pytest.raises(CheckError, match="collides with trace field"):
        check_source("const speed = 1;\nf = scoring_function(event = collision, frequency = first);")


def test_empty_od_rejected():
    with pytest.raises(CheckError, match="no scoring functions"):
        check_source("const A = 1;")


def test_event_must_be_boolean():
    with pytest.raises(CheckError, match="must be boolean"):
        check_source("f = scoring_function(event = speed + 1, frequency = first);")


def test_action_must_be_numeric():
    with pytest.raises(CheckError, match="must be numeric"):
        check_source("f = scoring_function(event = collision, action = collision, frequency = first);")


def test_unknown_function_call():
    with pytest.raises(CheckError, match="unknown function 'hypotenuse'"):
        check_source("f = scoring_function(event = hypotenuse(speed) > 1, frequency = first);")


def test_builtin_arities():
    with pytest.raises(CheckError, match="distance takes exactly two point2"):
        check_source("f = scoring_function(event = distance(position) > 1, frequency = first);")
    with pytest.raises(CheckError, match="abs takes exactly one number"):
        check_source("f = scoring_function(event = abs(speed, speed) > 1, frequency = first);")
    with pytest.raises(CheckError, match="min takes two or more"):
        check_source("f = scoring_function(event = min(speed) > 1, frequency = first);")


def test_function_score_not_usable_in_event():
    source = (
        "a = scoring_function(event = collision, frequency = first);\n"
        "b = scoring_function(event = a > 1, frequency = first);"
    )
    with pytest.raises(CheckError, match="referenced in the summary"):
        check_source(source)


def test_unresolved_identifier_in_event():
    with pytest.raises(CheckError, match="timer 'wheels'"):
        check_source("f = scoring_function(event = wheels > 1, frequency = first);")


def test_t_resolves_as_number():
    checked = check_source("f = scoring_function(event = t > 3, frequency = first);")
    assert checked.od.functions[0].name == "f"


def test_checked_ods_evaluate_cleanly():
    """Checker soundness: accepted definitions never hit unbound identifiers
    or kind errors when evaluated over schema-conforming traces."""
    for i in range(60):
        rng = random.Random(7000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, max_messages=40)
        score_trace(check_od(od, schema), trace)  # must not raise


def test_trees_built_without_the_parser_keep_its_nesting_limit():
    """A hand-built tree deeper than the parser admits is a CheckError, not
    a SyntaxError from compiling the generated code."""

    def oracle(levels):
        action = Ident("speed")
        for _ in range(levels):
            action = Binary("+", action, Ident("speed"))
        fn = ScoringFunction("f", Ident("collision"), Frequency.ALL_SUM, action=action)
        return OracleDefinition(functions=(fn,))

    check_od(oracle(MAX_NESTING), SCHEMA)
    for levels in (MAX_NESTING + 1, 300, 5000):
        with pytest.raises(CheckError, match=f"^action of 'f': expression nests deeper than {MAX_NESTING} levels$"):
            check_od(oracle(levels), SCHEMA)


# A drive on which every bundled oracle fires: speeding, a lane line ridden
# for 4 s, braking for 2.5 s, a collision 0.2 s after it, then arrival.
_DRIVE = drive([
    {"t": 0.0}, {"t": 0.5, "speed": 30.0}, {"t": 1.0, "speed": 30.0, "road_normal": 3.7},
    {"t": 2.5, "road_normal": 3.7, "acceleration": -2.0}, {"t": 4.0, "road_normal": 3.7, "acceleration": -2.0},
    {"t": 5.0, "road_normal": 3.8, "acceleration": -2.0}, {"t": 5.2, "collision": True, "acceleration": -2.0},
    {"t": 6.0, "collision": True}, {"t": 7.0, "position": NEAR}, {"t": 8.0, "position": NEAR, "speed": 0.0},
])


def _outcome(score, checked):
    try:
        return score(checked, _DRIVE)
    except EvalError as exc:
        return str(exc)


def test_any_hand_built_definition_is_refused_or_reproduced():
    """The shape contract over seeded one-slot mutations of the bundled
    oracles: check_od and format_od raise only OdlError; format_od prints
    every definition check_od accepts, and its text reads back as an equal
    tree, the round-trip property of Claessen and Hughes, "QuickCheck"
    (ICFP 2000); and where check_od accepts, the engine and the reference
    agree on a short drive."""
    ods = [parse_od(load_builtin(name)) for name in BUILTIN_NAMES]
    rng = random.Random(16)
    printed = accepted = 0
    for i in range(3000):
        od = mutate_od(ods[i % len(ods)], rng)
        try:
            text = format_od(od)
        except OdlError:
            text = None
        else:
            assert parse_od(text) == od, text
            printed += 1
        try:
            checked = check_od(od, _DRIVE.schema)
        except OdlError:
            continue
        assert text is not None, od
        accepted += 1
        assert _outcome(score_trace, checked) == _outcome(reference_score, checked), text
    # The mutations reach every branch: refused, printed, and accepted.
    assert accepted > 100 and printed > 300


def test_format_od_refuses_with_check_ods_text_or_prints():
    """The two entry points agree on seeded double mutations of the bundled
    oracles: check_shape runs first in both, so a definition format_od
    refuses is refused by check_od with the same text, and one check_od
    accepts is printed."""
    ods = [parse_od(load_builtin(name)) for name in BUILTIN_NAMES]
    rng = random.Random(18)
    for i in range(3000):
        od = mutate_od(mutate_od(ods[i % len(ods)], rng), rng)
        try:
            format_od(od)
        except CheckError as exc:
            refusal = str(exc)
        else:
            refusal = None
        try:
            check_od(od, GEN_SCHEMA)
        except CheckError as exc:
            assert refusal in (None, str(exc)), od
        else:
            assert refusal is None, od
