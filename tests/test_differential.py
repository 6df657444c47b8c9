"""Differential testing: streaming engine vs the batch reference evaluator,
plus the engine invariants that ride on the same corpus."""

import math
import random
import re
import sys
from dataclasses import replace
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import gen_checkable_od, gen_schema, gen_trace
from _traces import ERROR_TRACE, concat_traces, line_report, scorer_outcomes, time_shift_changes, trace_faults
from odl import (
    BUILTIN_NAMES,
    Binary,
    Call,
    CheckError,
    EngineError,
    Env,
    EvalError,
    Firing,
    Frequency,
    Ident,
    Kind,
    Literal,
    OdlError,
    OracleDefinition,
    Point2,
    ScoreReport,
    ScoringFunction,
    Trace,
    TraceError,
    TraceMessage,
    TraceSchema,
    Unary,
    check_od,
    dump_trace,
    eval_expr,
    format_expr,
    generate_trace,
    load_builtin,
    load_example_scenario,
    load_scenario,
    parse_od,
    parse_trace,
    reference_score,
    report_to_json,
    report_to_text,
    score_trace,
)
import odl.reference
from odl.syntax import BINARY, BUILTINS, UNARY
from odl.trace import message_checker, read_values_type


def test_reference_matches_worked_example():
    trace = parse_trace(
        '{"collision": "boolean"}\n{"t": 1, "collision": true}\n{"t": 2, "collision": true}\n'
    )
    checked = check_od(
        parse_od("hits = scoring_function(event = collision, action = 5, frequency = action_sum);"),
        trace.schema,
    )
    assert reference_score(checked, trace).summary == 10.0
    assert reference_score(checked, trace) == score_trace(checked, trace)


BUILTIN_SCHEMA = TraceSchema(
    (("p", Kind.POINT2), ("q", Kind.POINT2), ("x", Kind.NUMBER), ("y", Kind.NUMBER), ("z", Kind.NUMBER))
)


def _calling(name, args):
    fn = ScoringFunction("f", Binary(">=", Ident("t"), Literal(0.0)), Frequency.ALL_SUM, action=Call(name, args))
    return OracleDefinition(functions=(fn,))


@pytest.mark.parametrize("name", BUILTINS)
def test_every_builtin_checks_and_both_evaluators_agree(name):
    """Each built-in, called with the fewest arguments its table entry
    admits and, where it admits more, one more: the checker accepts the
    call, and the engine and the reference score it alike."""
    kind, fewest, most, _ = BUILTINS[name]
    fields = [field for field, field_kind in BUILTIN_SCHEMA.fields if field_kind is kind]
    trace = gen_trace(random.Random(5), BUILTIN_SCHEMA, n_messages=12)
    for count in sorted({fewest, min(most, fewest + 1)}):
        args = tuple(Ident(fields[k % len(fields)]) for k in range(count))
        checked = check_od(_calling(name, args), BUILTIN_SCHEMA)
        report = score_trace(checked, trace)
        assert report == reference_score(checked, trace), (name, count)
        assert len(report.firings) == 12


OPERATOR_SCHEMA = TraceSchema(
    (("x", Kind.NUMBER), ("y", Kind.NUMBER), ("b", Kind.BOOLEAN), ("c", Kind.BOOLEAN), ("p", Kind.POINT2))
)
# Operands of each kind, by field name.
_OPERANDS = {Kind.NUMBER: ("x", "y"), Kind.BOOLEAN: ("b", "c")}
# Each operator, with operands of a kind it does not take and the checker's
# text for them, in the event of 'f'.
OPERATORS = {
    ("or", 2): [(("x", "c"), "'or' requires boolean operands")],
    ("and", 2): [(("b", "y"), "'and' requires boolean operands")],
    ("<", 2): [(("b", "y"), "ordering '<' is not defined on boolean and number")],
    ("<=", 2): [(("p", "p"), "ordering '<=' is not defined on point2 and point2")],
    (">", 2): [(("x", "c"), "ordering '>' is not defined on number and boolean")],
    (">=", 2): [(("b", "c"), "ordering '>=' is not defined on boolean and boolean")],
    ("==", 2): [
        (("p", "p"), "'==' is not defined on point2 values; compare coordinates explicitly"),
        (("x", "b"), "'==' requires operands of one kind, got number and boolean"),
    ],
    ("!=", 2): [
        (("b", "p"), "'!=' is not defined on point2 values; compare coordinates explicitly"),
        (("b", "x"), "'!=' requires operands of one kind, got boolean and number"),
    ],
    ("+", 2): [(("x", "b"), "'+' requires numeric operands")],
    ("-", 2): [(("p", "y"), "'-' requires numeric operands")],
    ("*", 2): [(("b", "c"), "'*' requires numeric operands")],
    ("/", 2): [(("y", "b"), "'/' requires numeric operands")],
    ("not", 1): [(("x",), "'not' requires a boolean operand")],
    ("-", 1): [(("b",), "unary '-' requires a numeric operand")],
}


def _applying(op, names):
    operands = tuple(Ident(name) for name in names)
    return Binary(op, *operands) if len(operands) == 2 else Unary(op, *operands)


def _scoring(event, action=None):
    return OracleDefinition(functions=(ScoringFunction("f", event, Frequency.ALL_SUM, action=action),))


def _outcome(score, checked, trace):
    try:
        return score(checked, trace)
    except EvalError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "op, arity",
    [*((op, 2) for op in BINARY), *((op, 1) for op in UNARY)],
    ids=[*(f"binary_{op}" for op in BINARY), *(f"unary_{op}" for op in UNARY)],
)
def test_every_operator_parses_checks_and_both_evaluators_agree(op, arity):
    """Each entry of syntax.BINARY and syntax.UNARY, over operands of each
    kind it takes: the printed tree parses back to itself, check_od gives
    it the table's kind, the engine and the reference score it alike, and
    operands of a kind it does not take get the checker's text."""
    if arity == 2:
        _, operands, kind, _ = BINARY[op]
    else:
        _, kind = UNARY[op]
        operands = kind
    trace = gen_trace(random.Random(5), OPERATOR_SCHEMA, n_messages=12)
    always = Binary(">=", Ident("t"), Literal(0.0))
    for operand in [operands] if operands else _OPERANDS:
        tree = _applying(op, _OPERANDS[operand][:arity])
        source = f"f = scoring_function(event = {format_expr(tree)}, frequency = first);"
        assert parse_od(source).functions[0].event == tree
        in_event, in_action = _scoring(tree), _scoring(always, tree)
        fits, misfits, refusal = (
            (in_event, in_action, "action of 'f' must be numeric") if kind is Kind.BOOLEAN
            else (in_action, in_event, "event of 'f' must be boolean")
        )
        checked = check_od(fits, OPERATOR_SCHEMA)
        assert _outcome(score_trace, checked, trace) == _outcome(reference_score, checked, trace)
        with pytest.raises(CheckError, match=f"^{re.escape(refusal)}$"):
            check_od(misfits, OPERATOR_SCHEMA)
    for names, text in OPERATORS[op, arity]:
        with pytest.raises(CheckError, match=f"^event of 'f': {re.escape(text)}$"):
            check_od(_scoring(_applying(op, names)), OPERATOR_SCHEMA)


def test_a_function_outside_the_builtins_is_refused_by_the_checker_and_the_evaluator():
    call = ("hypot", (Ident("x"), Ident("y")))
    with pytest.raises(CheckError, match=r"^action of 'f': unknown function 'hypot' \(built-ins: "):
        check_od(_calling(*call), BUILTIN_SCHEMA)
    with pytest.raises(EvalError, match=r"^unknown function 'hypot'$"):
        eval_expr(Call(*call), Env(fields={"x": 1.0, "y": 2.0}))


def test_streaming_equals_reference():
    # From seed 300 on, every tenth trace may run to 200 messages.
    for i in range(900):
        rng = random.Random(20_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        size = 200 if i >= 300 and i % 10 == 0 else 60
        trace = gen_trace(rng, schema, max_messages=size)
        checked = check_od(od, schema)
        report = score_trace(checked, trace)
        reference = reference_score(checked, trace)
        assert report == reference, i
        assert line_report(checked, trace) == reference._replace(firings=()), i
        assert line_report(checked, trace, log=True) == reference, i
        if od.summary is None:
            # the default summary is the plain left-fold sum, exactly
            acc = 0.0
            for _, score in report.scores:
                acc += score
            assert report.summary == acc


def _three_programs_and_reference(checked, trace):
    """The outcomes of score_trace (the message program), of the logged line
    program, of reference_score and of the line program on one trace: a
    report, or the class and text of the OdlError raised."""
    outcomes = []
    for score in (score_trace, lambda c, t: line_report(c, t, log=True), reference_score, line_report):
        try:
            outcomes.append(score(checked, trace))
        except OdlError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def _shares(checked):
    """How many events the line program assigns to a local for later functions."""
    return sum(bool(re.fullmatch(r"e\d+", name)) for name in checked.line_program.__code__.co_varnames)


def test_a_repeated_event_scores_as_the_reference():
    """Later functions copy earlier functions' timer-free events, which the
    programs evaluate once per record: each oracle still scores as the
    reference, whose closures evaluate every copy."""
    sharing = 0
    for i in range(300):
        rng = random.Random(27_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        functions = list(od.functions)
        for fn in od.functions:
            if rng.random() < 0.7 and not re.search(r"\btm\d", format_expr(fn.event)):
                # The copy is no timer's target, so it keeps a condition only if that reads none.
                reads_timer = fn.condition is not None and re.search(r"\btm\d", format_expr(fn.condition))
                copy = fn._replace(
                    name=f"{fn.name}_again", frequency=rng.choice(list(Frequency)), notifications=(),
                    condition=None if reads_timer else fn.condition,
                )
                functions.insert(rng.randint(functions.index(fn) + 1, len(functions)), copy)
        checked = check_od(od._replace(functions=tuple(functions)), schema)
        message, logged, reference, lines = _three_programs_and_reference(checked, gen_trace(rng, schema))
        assert message == logged == reference, i
        if isinstance(reference, ScoreReport):
            reference = reference._replace(firings=())  # the line program keeps no log
        assert lines == reference, i
        sharing += _shares(checked) > 1
    assert sharing >= 100  # oracles in which two different events are shared


def test_a_shared_event_that_divides_by_zero_raises_in_its_first_function():
    trace = parse_trace(ERROR_TRACE)
    checked = check_od(parse_od(
        "f = scoring_function(event = not b0, action = 1, frequency = all_sum);"
        "g = scoring_function(event = 1 / n0 > 0.5, action = 1, frequency = all_sum);"
        "h = scoring_function(event = not b0, frequency = first);"
        "k = scoring_function(event = 1 / n0 > 0.5, action = 2, frequency = first);"
    ), trace.schema)
    assert _shares(checked) == 2
    error = "EvalError: message 1 (t=1.0), function 'g': division by zero in '1.0 / n0'"
    assert _three_programs_and_reference(checked, trace) == [error] * 4


def test_empty_trace_equals_initial_state():
    for i in range(40):
        rng = random.Random(21_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, n_messages=0)
        checked = check_od(od, schema)
        report = score_trace(checked, trace)
        assert report == reference_score(checked, trace)
        assert report.score_map() == {fn.name: fn.initial for fn in od.functions}
        assert report.firings == ()


def test_declaration_order_permutation_changes_no_score():
    for i in range(150):
        rng = random.Random(22_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, max_messages=50)
        checked = check_od(od, schema)
        baseline = score_trace(checked, trace).score_map()
        functions = list(od.functions)
        rng.shuffle(functions)
        permuted = OracleDefinition(
            constants=od.constants, functions=tuple(functions), summary=od.summary
        )
        checked_permuted = check_od(permuted, schema)
        shuffled_report = score_trace(checked_permuted, trace)
        shuffled = shuffled_report.score_map()
        assert shuffled == baseline, i
        # The reference keeps its state by declaration position.
        shuffled_reference = reference_score(checked_permuted, trace)
        assert shuffled_reference.score_map() == reference_score(checked, trace).score_map(), i
        assert shuffled_reference == shuffled_report, i


def test_vacuity_scores_stay_at_initial():
    for i in range(100):
        rng = random.Random(23_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema, force_false_events=True)
        trace = gen_trace(rng, schema, max_messages=40)
        report = score_trace(check_od(od, schema), trace)
        assert report.score_map() == {fn.name: fn.initial for fn in od.functions}
        assert report.firings == ()


def test_first_mode_cardinality():
    for i in range(100):
        rng = random.Random(24_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, max_messages=50)
        report = score_trace(check_od(od, schema), trace)
        per_function = {fn.name: 0 for fn in od.functions}
        for firing in report.firings:
            per_function[firing.function] += 1
        for fn in od.functions:
            if fn.frequency is Frequency.FIRST:
                assert per_function[fn.name] <= 1


def test_additivity_for_plain_action_sum():
    """For condition-free, notification-free action_sum definitions with
    integer actions, scoring a concatenation equals the sum of the parts
    minus the double-counted initial (exactly, by integer float arithmetic).
    """
    for i in range(150):
        rng = random.Random(25_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(
            rng,
            schema,
            integer_actions=True,
            allow_conditions=False,
            allow_notifications=False,
        )
        od = OracleDefinition(
            constants=od.constants,
            functions=tuple(
                fn.__class__(
                    name=fn.name,
                    event=fn.event,
                    frequency=Frequency.ACTION_SUM,
                    action=fn.action,
                    initial=fn.initial,
                )
                for fn in od.functions
            ),
            summary=None,
        )
        checked = check_od(od, schema)
        first = gen_trace(rng, schema, max_messages=30)
        start = first.messages[-1].t if first.messages else 0.0
        second = gen_trace(rng, schema, max_messages=30, t_start=start)
        joined = concat_traces(first, second)
        s1 = score_trace(checked, first).score_map()
        s2 = score_trace(checked, second).score_map()
        s12 = score_trace(checked, joined).score_map()
        for fn in od.functions:
            assert s12[fn.name] == s1[fn.name] + s2[fn.name] - fn.initial, i


def test_firing_log_consistency():
    for i in range(100):
        rng = random.Random(26_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, max_messages=50)
        report = score_trace(check_od(od, schema), trace)
        totals = {fn.name: fn.initial for fn in od.functions}
        for firing in report.firings:
            totals[firing.function] += firing.delta
        assert totals == report.score_map()


def test_long_eventful_trace_all_bundled_oracles():
    scenario = load_scenario(load_example_scenario("eventful"))
    trace = generate_trace(replace(scenario, tick=0.01), seed=3)
    assert len(trace.messages) >= 3000
    for name in BUILTIN_NAMES:
        checked = check_od(parse_od(load_builtin(name)), trace.schema)
        report = score_trace(checked, trace)
        assert report.firings, name
        assert report == reference_score(checked, trace), name


@pytest.mark.parametrize("tick", [0.2, 0.1])
@pytest.mark.parametrize("name", ["eventful", "nominal"])
def test_a_time_shift_changes_no_score(name, tick):
    """A metamorphic relation (Chen, Cheung and Yiu, HKUST-CS98-01, 1998):
    adding one constant, up to 10^15 s, to every t changes no bundled
    oracle's report, firing log included, under score_trace,
    reference_score and the logged line program over the shifted trace's
    text."""
    trace = generate_trace(replace(load_scenario(load_example_scenario(name)), tick=tick), seed=7)
    shifts = [1.0, 1e3, 1e6, 1e9, 1e12, 1e13, 1e14, 1e15]
    unchanged = {"score_trace": [], "reference_score": [], "line program": []}
    assert time_shift_changes(trace, shifts) == dict.fromkeys(shifts, unchanged)


# The bundled oracles whose report on `eventful` a time shift changes, by
# shift: none at 10^15 s, where adjacent doubles are 0.125 s apart; the two
# with a 0.5 s timer (expiration) at 10^16 s, 2 s apart; and the three with
# a condition seq_time > 3 too at 10^17 s, 16 s apart.
TIME_SHIFT_BREAKS = {
    1e15: [],
    1e16: ["listing4", "od3_framework"],
    1e17: ["listing3", "listing4", "od1_rubric", "od2_competition", "od3_framework"],
}


@pytest.mark.parametrize("tick", [0.2, 0.1])
def test_float_rounding_breaks_a_time_shift_from_1e16_seconds(tick):
    """Where float rounding first breaks the time shift: once the doubles
    near the shifted t are further apart than a timer's span or a seq_time
    threshold, that oracle's report changes, alike under all three
    scorers."""
    assert [math.ulp(shift) for shift in TIME_SHIFT_BREAKS] == [0.125, 2.0, 16.0]
    trace = generate_trace(replace(load_scenario(load_example_scenario("eventful")), tick=tick), seed=7)
    changes = time_shift_changes(trace, list(TIME_SHIFT_BREAKS))
    assert changes == {
        shift: dict.fromkeys(["score_trace", "reference_score", "line program"], oracles)
        for shift, oracles in TIME_SHIFT_BREAKS.items()
    }


_ERROR_CASES = [
    (
        "f = scoring_function(event = b0, action = 1 / n0, frequency = all_sum);",
        r"^message 1 \(t=1.0\), function 'f': division by zero in '1.0 / n0'$",
    ),
    (
        "f = scoring_function(event = b0, condition = 2 / (t - 1) > 0, frequency = first);",
        r"^message 1 \(t=1.0\), function 'f': division by zero in '2.0 / \(t - 1.0\)'$",
    ),
    (
        "const x = 1e308;\n"
        "f = scoring_function(event = b0, action = x * 10, frequency = first);",
        r"^message 0 \(t=0.0\), function 'f': action 'x \* 10.0' is non-finite \(inf\)$",
    ),
    (
        "const x = 1e308;\n"
        "f = scoring_function(event = b0, action = x, frequency = all_sum);",
        r"^message 1 \(t=1.0\), function 'f': score is non-finite \(inf\)$",
    ),
    (
        "const x = 1e308;\n"
        "f = scoring_function(event = b0, frequency = first,"
        " notifications = [(g, [(tm, -x * n0 * 10)])]);\n"
        "g = scoring_function(event = tm > 0, frequency = first);",
        r"^message 0 \(t=0.0\), function 'f': notification value for 'g.tm' is non-finite \(-inf\)$",
    ),
    (
        "f = scoring_function(event = b0, action = 1e308, frequency = all_sum);",
        r"^message 1 \(t=1.0\), function 'f': score is non-finite \(inf\)$",
    ),
    (
        "const x = 1e308;\n"
        "f = scoring_function(event = b0, action = x, frequency = first);\n"
        "g = scoring_function(event = b0, action = x, frequency = first);",
        r"^summary is non-finite \(inf\)$",
    ),
    (
        "const x = 1e308;\n"
        "f = scoring_function(event = b0, action = x, frequency = first);\n"
        "summary = f * 2 - f / 0.5;",
        r"^summary is non-finite \(nan\)$",
    ),
    (
        "f = scoring_function(event = b0, action = 1, frequency = first);\nsummary = f / (f - f);",
        r"^summary: division by zero in 'f / \(f - f\)'$",
    ),
]


def test_evaluation_errors_identical_in_engine_and_reference():
    trace = parse_trace(ERROR_TRACE)
    for source, message in _ERROR_CASES:
        checked = check_od(parse_od(source), trace.schema)
        with pytest.raises(EvalError, match=message) as streaming:
            score_trace(checked, trace)
        with pytest.raises(EvalError) as batch:
            reference_score(checked, trace)
        with pytest.raises(EvalError) as lines:
            line_report(checked, trace)
        with pytest.raises(EvalError) as logged:
            line_report(checked, trace, log=True)
        assert str(streaming.value) == str(batch.value) == str(lines.value) == str(logged.value), source


def test_trace_errors_identical_in_engine_and_reference():
    """score_messages, score_trace and reference_score raise the first fault
    of each hand-built trace of trace_faults, in one class and one text."""
    for checked, bad, error, text in trace_faults():
        outcomes = scorer_outcomes(checked, bad)
        assert outcomes == [f"{error.__name__}: {text}"] * len(outcomes), text
        assert len(outcomes) == (2 if bad.schema != checked.schema else 3), text
    # The line program reads the text dump_trace writes, whose decreasing t
    # it refuses as the reader does, in the reader's words.
    trace = parse_trace(ERROR_TRACE)
    checked = check_od(parse_od("f = scoring_function(event = b0, frequency = first);"), trace.schema)
    backwards = trace._replace(messages=trace.messages[::-1])
    text = "line 3: record 2: decreasing timestamp 1.0 after 2.0"
    with pytest.raises(TraceError, match=f"^{re.escape(text)}$"):
        parse_trace(dump_trace(backwards))
    with pytest.raises(TraceError, match=f"^{re.escape(text)}$"):
        line_report(checked, backwards)
    with pytest.raises(TraceError, match=f"^{re.escape(text)}$"):
        line_report(checked, backwards, log=True)


def test_dump_trace_refuses_each_message_fault_in_the_scorers_words():
    """dump_trace refuses, with a ValueError of the scorers' text, each
    hand-built trace of trace_faults whose first fault lies in a message's
    fields or values."""
    rows = 0
    for checked, bad, error, text in trace_faults():
        if error is EngineError and bad.schema == checked.schema and "decreases" not in text:
            with pytest.raises(ValueError) as raised:
                dump_trace(bad)
            assert str(raised.value) == text
            rows += 1
    assert rows == 21


def plain(trace):
    """The trace with each message's values copied into a plain dict, as if built by hand."""
    return trace._replace(messages=tuple(message._replace(values=dict(message.values)) for message in trace.messages))


def test_values_read_under_another_schema_are_held_to_the_oracles():
    """Values read under {"x": "boolean"} have that schema's read type, not
    {"x": "number"}'s: all three scorers refuse them in the reader's words."""
    number = TraceSchema((("x", Kind.NUMBER),))
    checked = check_od(parse_od("f = scoring_function(event = x > 0, action = x, frequency = all_sum);"), number)
    read = parse_trace('{"x": "boolean"}\n{"t": 0, "x": true}\n{"t": 1, "x": false}\n')
    assert type(read.messages[0].values) is read_values_type(read.schema) is not read_values_type(number)
    trace = read._replace(schema=number)
    refused = "EngineError: message 0: field 'x' must be a number"
    assert scorer_outcomes(checked, trace) == scorer_outcomes(checked, plain(trace)) == [refused] * 3


def test_a_read_message_with_its_t_replaced_scores_as_one_built_by_hand():
    trace = parse_trace(ERROR_TRACE)
    od = parse_od("f = scoring_function(event = b0, action = n0 + t, frequency = all_sum);")
    checked = check_od(od, trace.schema)
    for t, outcome in (
        (math.nan, "EngineError: message 1: field 't' must be finite"),
        ("1", "EngineError: message 1: field 't' must be a number"),
        (1, None),
    ):
        first, second, third = trace.messages
        replaced = trace._replace(messages=(first, second._replace(t=t), third))
        assert type(replaced.messages[1].values) is read_values_type(trace.schema)
        outcomes = scorer_outcomes(checked, replaced)
        assert outcomes == scorer_outcomes(checked, plain(replaced)), t
        assert outcomes == [outcome or report_to_json(score_trace(checked, trace), include_firings=True)] * 3, t


def test_a_trace_whose_reader_was_evicted_still_scores_as_the_reference():
    """Reading 16 other schemas evicts the trace's reader from its cache:
    the type its values have is no longer read_values_type's, so every
    scorer built after that tests them in full, and scores them the same."""
    trace = parse_trace(ERROR_TRACE)
    source = "f = scoring_function(event = b0, action = n0, frequency = all_sum);"
    before = check_od(parse_od(source), trace.schema)
    report = score_trace(before, trace)
    assert report == reference_score(before, trace) and report.summary == 1.0
    read = read_values_type(trace.schema)
    for k in range(16):
        parse_trace(f'{{"n{k}": "number"}}\n{{"t": 0, "n{k}": 1}}\n')
    assert read_values_type(trace.schema) is not read
    after = check_od(parse_od(source), trace.schema)
    assert score_trace(before, trace) == score_trace(after, trace) == reference_score(after, trace) == report
    assert score_trace(after, parse_trace(ERROR_TRACE)) == report


def _count_checker_calls(monkeypatch, module):
    """The list into which message_checker's functions, made through
    `module`'s name for it from now on, append the index of each message
    they are called for."""
    calls = []

    def counting(schema, error):
        check = message_checker(schema, error)

        def counted(*args):
            calls.append(args[0])
            return check(*args)

        return counted

    monkeypatch.setattr(module, "message_checker", counting)
    return calls


def test_reference_tests_no_read_message_again(monkeypatch):
    """reference_score calls message_checker's function for each message
    built by hand and for none read from a trace."""
    calls = _count_checker_calls(monkeypatch, odl.reference)
    trace = parse_trace(ERROR_TRACE)
    checked = check_od(parse_od("f = scoring_function(event = b0, action = n0, frequency = all_sum);"), trace.schema)
    assert reference_score(checked, trace) == reference_score(checked, plain(trace))
    assert calls == [0, 1, 2]


def test_message_program_tests_no_read_message_again(monkeypatch):
    """The message program, as reference_score, calls message_checker's
    function once for each message built by hand and for none read from a
    trace of its schema: it has no test of its own."""
    calls = _count_checker_calls(monkeypatch, odl.trace)
    trace = parse_trace(ERROR_TRACE)
    checked = check_od(parse_od("f = scoring_function(event = b0, action = n0, frequency = all_sum);"), trace.schema)
    assert score_trace(checked, trace) == score_trace(checked, plain(trace)) == reference_score(checked, trace)
    assert calls == [0, 1, 2]


_POINT_SCHEMA = TraceSchema((("n", Kind.NUMBER), ("b", Kind.BOOLEAN), ("p", Kind.POINT2)))
_READS_ALL = check_od(parse_od(
    "f = scoring_function(event = b and n > 1, action = 1, frequency = all_sum);"
    "g = scoring_function(event = distance(p, point(0, 0)) > 1, action = 1, frequency = all_sum);"
), _POINT_SCHEMA)
# Values of every sort a message built in Python may hold: floats with NaN
# and infinities, ints (one too large for a double), bools, strings, and
# tuples, lists and Point2s of such numbers.
_NUMBERS = st.one_of(st.floats(), st.integers(), st.just(10**400), st.booleans())
_VALUES = st.one_of(
    _NUMBERS, st.text(max_size=2), st.tuples(_NUMBERS, _NUMBERS), st.lists(_NUMBERS, max_size=3),
    st.builds(Point2, _NUMBERS, _NUMBERS),
)
# Values the reader takes, as a float or an int, for t and each field.
_TAKEN = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**60), 2**60))
_FIELDS = {
    "n": _TAKEN,
    "b": st.booleans(),
    "p": st.one_of(st.builds(Point2, _TAKEN, _TAKEN), st.lists(_TAKEN, min_size=2, max_size=2)),
}


@st.composite
def _hand_built_traces(draw):
    # Each value is one the reader takes three times in four, so that many
    # traces hold only such values. t increases whenever the reader takes
    # it: message k's is k, as a float or an int, or a value it refuses.
    def value(taken, other=_VALUES):
        return draw(taken if draw(st.integers(0, 3)) else other)

    odd_t = st.sampled_from([math.nan, math.inf, -math.inf, "0", True, None, 10**400, (0.0, 0.0)])
    messages = [
        TraceMessage(
            value(st.sampled_from([float(k), k]), odd_t), {name: value(taken) for name, taken in _FIELDS.items()}
        )
        for k in range(draw(st.integers(1, 3)))
    ]
    return Trace(_POINT_SCHEMA, tuple(messages))


@settings(max_examples=300, deadline=None)
@given(_hand_built_traces())
def test_no_score_that_a_trace_file_cannot_give(trace):
    """Either dump_trace and the three scorers refuse a hand-built trace with
    one text, or each scorer gives on it what it gives on what parse_trace
    reads of dump_trace's text."""
    try:
        text = dump_trace(trace)
    except ValueError as exc:
        assert scorer_outcomes(_READS_ALL, trace) == [f"EngineError: {exc}"] * 3
    else:
        assert scorer_outcomes(_READS_ALL, trace) == scorer_outcomes(_READS_ALL, parse_trace(text))


class _Subclass(dict):
    pass


class _ZeroDefault(dict):
    def __missing__(self, name):
        return 0.0


_READS_T = check_od(parse_od("f = scoring_function(event = t > 0, action = 1, frequency = all_sum);"), _POINT_SCHEMA)
# What a message's values may be held in, besides a plain dict: dict
# subclasses (one answering a missing name), a read-only mapping, values
# read under a schema whose p is a number, and things that are no mapping.
_CONTAINERS = st.sampled_from([
    dict, _Subclass, _ZeroDefault, MappingProxyType, lambda values: list(values.items()), lambda values: None,
    lambda values: "nbp",
    lambda values: parse_trace('{"n": "number", "b": "boolean", "p": "number"}\n{"t": 0, "n": 1, "b": true, "p": 2}\n')
    .messages[0].values,
])


@st.composite
def _hand_built_mappings(draw):
    """A trace of _hand_built_traces whose messages' values may lack a field,
    hold a foreign one, or be held in one of _CONTAINERS, each one time in
    six."""
    messages = []
    for t, values in draw(_hand_built_traces()).messages:
        if not draw(st.integers(0, 5)):
            del values[draw(st.sampled_from(sorted(values)))]
        if not draw(st.integers(0, 5)):
            values[draw(st.sampled_from(["z", "t", 1]))] = 1.0
        messages.append(TraceMessage(t, draw(_CONTAINERS)(values) if not draw(st.integers(0, 5)) else values))
    return Trace(_POINT_SCHEMA, tuple(messages))


@settings(max_examples=300, deadline=None)
@given(_hand_built_mappings())
def test_the_writer_refuses_a_hand_built_message_as_the_scorers_do(trace):
    """The writer's generated test, the only one a message meets outside the
    reader, refuses a hand-built trace exactly when the scorers' coercers
    do, in the same words, whether or not the oracle reads the fields."""
    try:
        text = dump_trace(trace)
    except ValueError as exc:
        for checked in (_READS_ALL, _READS_T):
            assert scorer_outcomes(checked, trace) == [f"EngineError: {exc}"] * 3
    else:
        for checked in (_READS_ALL, _READS_T):
            assert scorer_outcomes(checked, trace) == scorer_outcomes(checked, parse_trace(text))


def test_unreached_errors_raise_in_neither():
    trace = parse_trace(ERROR_TRACE)
    for source in (
        "f = scoring_function(event = b0 or (false and 1 / 0 > 0), action = 1, frequency = all_sum);",
        "f = scoring_function(event = n0 > 0, action = 1 / n0, frequency = all_sum);",
        "const x = 1e308;\n"
        "f = scoring_function(event = n0 > 5, action = x * 10, frequency = all_sum);",
        # Over constants only, so the reference folds them when it builds its
        # closures; the event never holds, so neither is ever evaluated.
        "f = scoring_function(event = n0 > 5, action = 1 / 0, frequency = all_sum);",
        "f = scoring_function(event = n0 > 5, frequency = all_sum, notifications = [(g, [(tm, 1 / 0)])]);\n"
        "g = scoring_function(event = tm > 0, action = 1, frequency = all_sum);",
    ):
        checked = check_od(parse_od(source), trace.schema)
        report = score_trace(checked, trace)
        assert report == reference_score(checked, trace), source
        assert line_report(checked, trace) == report._replace(firings=()), source


_NEAR_OVERFLOW_OD = """
const x = 1;
const y = 1;
f = scoring_function(event = b0, action = x * n0 + y, frequency = all_sum,
    notifications = [(g, [(tm, y * (n0 + 1) - x)])]);
g = scoring_function(event = tm > x, action = y * 2, frequency = action_sum);
summary = f * 2 - g;
"""

_huge = st.floats(min_value=1e300, max_value=sys.float_info.max)
_magnitudes = _huge | _huge.map(lambda v: -v) | st.floats(min_value=-10.0, max_value=10.0)


@settings(max_examples=100, deadline=None)
@given(_magnitudes, _magnitudes)
def test_near_overflow_engine_equals_reference(x, y):
    """Magnitudes near the largest double overflow in actions, scores,
    notification values or the summary; engine and reference fail alike."""
    trace = parse_trace(ERROR_TRACE)
    od = parse_od(_NEAR_OVERFLOW_OD)._replace(constants=(("x", x), ("y", y)))
    checked = check_od(od, trace.schema)
    try:
        streaming = score_trace(checked, trace)
    except EvalError as exc:
        with pytest.raises(EvalError) as batch:
            reference_score(checked, trace)
        assert str(batch.value) == str(exc)
    else:
        assert streaming == reference_score(checked, trace)


_MAX = sys.float_info.max
# Point pairs at the extremes: subnormals, +/-1e308, the largest double, and
# coordinates whose difference, or whose distance, overflows.
_EXTREME_POINTS = [
    ((5e-324, 0.0), (0.0, 5e-324)),
    ((2.2e-308, -2.2e-308), (-1e-310, 1e-310)),
    ((1e-320, 3e-321), (-4e-322, 0.0)),
    ((1e308, -1e308), (1e308, -1e308)),
    ((1e308, 1e308), (0.0, 0.0)),
    ((-1e308, 1e308), (1e307, -1e307)),
    ((_MAX, 0.0), (0.0, 0.0)),
    ((1e308, 5e-324), (0.0, -5e-324)),
    ((_MAX, 0.0), (-_MAX, 0.0)),
    ((1e308, 1e308), (-1e308, -1e308)),
    ((1.5e308, 1.5e308), (0.0, 0.0)),
    ((-_MAX, _MAX), (_MAX, -_MAX)),
    ([3.0, 4.0], [0.0, -0.0]),
    ([_MAX, 0.0], [-_MAX, 0.0]),
]

_DISTANCE_OD = """
f = scoring_function(event = t == 0, action = distance(p, q), frequency = all_sum);
g = scoring_function(event = t > 0, condition = distance(q, p) >= 0, action = distance(q, p),
    frequency = action_sum);
summary = f - g;
"""


@pytest.mark.parametrize("p, q", _EXTREME_POINTS)
def test_distance_at_the_extremes_equals_reference(p, q):
    """`distance` in the engine is math.dist, in the reference math.hypot of
    the differences: the same value, or the same EvalError once it overflows."""
    schema = TraceSchema((("p", Kind.POINT2), ("q", Kind.POINT2)))
    # A tuple row is a Point2; a list row is the two-float list the record gate binds.
    values = {name: Point2(*v) if type(v) is tuple else v for name, v in (("p", p), ("q", q))}
    trace = Trace(schema, (TraceMessage(0.0, values), TraceMessage(1.0, values)))
    checked = check_od(parse_od(_DISTANCE_OD), schema)
    try:
        streaming = score_trace(checked, trace)
    except EvalError as exc:
        assert "non-finite (inf)" in str(exc)
        with pytest.raises(EvalError) as batch:
            reference_score(checked, trace)
        assert str(batch.value) == str(exc)
    else:
        assert streaming == reference_score(checked, trace)
        assert [f.delta for f in streaming.firings] == [math.hypot(p[0] - q[0], p[1] - q[1])] * 2


# Names that are Python keywords or builtins, or that the generated program
# itself uses (its locals, helpers and bound names), for every kind of
# declaration: trace fields, constants, scoring functions and timers.
_PYTHON_NAMES_TRACE = (
    '{"None": "number", "lambda": "boolean", "message": "point2", "_divide": "number"}\n'
    '{"t": 0, "None": 3, "lambda": true, "message": [0, 0], "_divide": 2}\n'
    '{"t": 0.5, "None": 1, "lambda": false, "message": [3, 4], "_divide": 4}\n'
    '{"t": 1, "None": 5, "lambda": true, "message": [4, 5], "_divide": 0.5}\n'
    '{"t": 3, "None": 4, "lambda": true, "message": [6, 8], "_divide": 0}\n'
)

_PYTHON_NAMES_OD = """
const isfinite = 2;
const x0 = point(1, 1);
const _v5 = true;
None = scoring_function(event = lambda and None > isfinite, action = None / _divide,
    frequency = all_sum, notifications = [(class, [(float, None), (_fields, 1)])]);
class = scoring_function(event = float > 0 or _fields > 0 and _v5, condition = seq_time > 0,
    action = distance(message, x0), frequency = action_sum);
s0 = scoring_function(event = not lambda, action = -isfinite, frequency = first, initial = 1);
firings = scoring_function(event = index >= 0 or lambda, action = t, frequency = all_sum,
    notifications = [(firings, [(index, t)])]);
summary = None * 2 + class - s0 / isfinite + firings;
"""


def test_python_names_change_nothing():
    trace = parse_trace(_PYTHON_NAMES_TRACE)
    checked = check_od(parse_od(_PYTHON_NAMES_OD), trace.schema)
    message = r"^message 3 \(t=3.0\), function 'None': division by zero in 'None / _divide'$"
    with pytest.raises(EvalError, match=message) as streaming:
        score_trace(checked, trace)
    with pytest.raises(EvalError) as batch:
        reference_score(checked, trace)
    assert str(streaming.value) == str(batch.value)
    head = Trace(trace.schema, trace.messages[:3])
    report = score_trace(checked, head)
    assert report == reference_score(checked, head)
    assert report.score_map() == {"None": 1.5 + 10.0, "class": 5.0, "s0": -1.0, "firings": 1.0}
    assert [(f.message_index, f.function) for f in report.firings] == [
        (0, "None"), (0, "firings"), (1, "s0"), (2, "None"), (2, "class"), (2, "firings"),
    ]


def test_signed_zero_and_extreme_literals():
    """-0.0, 1e308 and point constants reach the generated code exactly."""
    trace = parse_trace(ERROR_TRACE)
    od = parse_od(
        "const z = -0.0;\n"
        "const big = 1e308;\n"
        "const far = point(-0.0, 1e308);\n"
        "f = scoring_function(event = b0, action = -0.0 * n0 + big / 1e308, frequency = all_sum,"
        " initial = -0);\n"
        "g = scoring_function(event = distance(point(0, 0), far) >= big, action = z,"
        " frequency = first, initial = -0.0);\n"
        "h = scoring_function(event = n0 > big, frequency = first, initial = -0.0);\n"
        "summary = z * f + g - big / 1e308 * h;"
    )
    checked = check_od(od, trace.schema)
    report = score_trace(checked, trace)
    assert report == reference_score(checked, trace)
    scores = report.score_map()
    assert scores["f"] == 2.0
    assert math.copysign(1.0, scores["g"]) == -1.0 and math.copysign(1.0, scores["h"]) == -1.0
    assert report.firings[1] == Firing(0, "g", -0.0)
    assert math.copysign(1.0, report.firings[1].delta) == -1.0
    assert report_to_text(report) == "f: 2.0\ng: -0.0\nh: -0.0\nsummary: 0.0\n"


_FIRST_T_OD = """
a = scoring_function(event = x > 0, frequency = first, notifications = [(b, [(clock, 1.0)])]);
b = scoring_function(event = clock == 0.0, action = 1, frequency = all_sum);
"""


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_timers_start_at_zero_whatever_the_first_timestamp(t):
    """No time elapses before the first message, so no timer runs down there,
    even at the finite t nearest `t`, where a run-down from -inf would take
    an infinity: the timer is 0 at both messages. A t that is not finite,
    which only a Trace built without parse_trace can hold, the scorers
    refuse in the reader's words."""
    schema = TraceSchema((("x", Kind.NUMBER),))
    checked = check_od(parse_od(_FIRST_T_OD), schema)
    nearest = math.copysign(sys.float_info.max, t) if math.isinf(t) else 0.0
    trace = Trace(schema, (TraceMessage(nearest, {"x": 0.0}), TraceMessage(nearest, {"x": 0.0})))
    report = score_trace(checked, trace)
    assert report == reference_score(checked, trace)
    assert report.score_map()["b"] == 2.0
    bad = trace._replace(messages=tuple(message._replace(t=t) for message in trace.messages))
    assert scorer_outcomes(checked, bad) == ["EngineError: message 0: field 't' must be finite"] * 3
