"""Static checker: name resolution, kinds, timer rules."""

import random

import pytest

from _generators import gen_checkable_od, gen_schema, gen_trace
from odl import (
    Binary,
    CheckError,
    Frequency,
    Ident,
    Kind,
    OracleDefinition,
    ScoringFunction,
    TraceSchema,
    check_od,
    load_builtin,
    parse_od,
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


SEQ_TIME_FIELD = TraceSchema((("seq_time", Kind.NUMBER), ("speed", Kind.NUMBER)))


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
