"""Differential testing: streaming engine vs the batch reference evaluator,
plus the engine invariants that ride on the same corpus."""

import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import gen_checkable_od, gen_schema, gen_trace
from odl import (
    BUILTIN_NAMES,
    EvalError,
    Frequency,
    OracleDefinition,
    check_od,
    concat_traces,
    generate_trace,
    load_builtin,
    load_example_scenario,
    load_scenario,
    parse_od,
    parse_trace,
    reference_score,
    score_trace,
)


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


def test_streaming_equals_reference():
    for i in range(300):
        rng = random.Random(20_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, max_messages=60)
        checked = check_od(od, schema)
        report = score_trace(checked, trace)
        assert report == reference_score(checked, trace), i
        if od.summary is None:
            # the default summary is the plain left-fold sum, exactly
            acc = 0.0
            for _, score in report.scores:
                acc += score
            assert report.summary == acc


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
        baseline = score_trace(check_od(od, schema), trace).score_map()
        functions = list(od.functions)
        rng.shuffle(functions)
        permuted = OracleDefinition(
            constants=od.constants, functions=tuple(functions), summary=od.summary
        )
        shuffled = score_trace(check_od(permuted, schema), trace).score_map()
        assert shuffled == baseline, i


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


_ERROR_TRACE = (
    '{"n0": "number", "b0": "boolean"}\n'
    '{"t": 0, "n0": 1, "b0": true}\n'
    '{"t": 1, "n0": 0, "b0": true}\n'
    '{"t": 2, "n0": 0, "b0": false}\n'
)

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
]


def test_evaluation_errors_identical_in_engine_and_reference():
    trace = parse_trace(_ERROR_TRACE)
    for source, message in _ERROR_CASES:
        checked = check_od(parse_od(source), trace.schema)
        with pytest.raises(EvalError, match=message) as streaming:
            score_trace(checked, trace)
        with pytest.raises(EvalError) as batch:
            reference_score(checked, trace)
        assert str(streaming.value) == str(batch.value), source


def test_unreached_errors_raise_in_neither():
    trace = parse_trace(_ERROR_TRACE)
    for source in (
        "f = scoring_function(event = b0 or (false and 1 / 0 > 0), action = 1, frequency = all_sum);",
        "f = scoring_function(event = n0 > 0, action = 1 / n0, frequency = all_sum);",
        "const x = 1e308;\n"
        "f = scoring_function(event = n0 > 5, action = x * 10, frequency = all_sum);",
    ):
        checked = check_od(parse_od(source), trace.schema)
        report = score_trace(checked, trace)
        assert report == reference_score(checked, trace), source


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
    trace = parse_trace(_ERROR_TRACE)
    od = replace(parse_od(_NEAR_OVERFLOW_OD), constants=(("x", x), ("y", y)))
    checked = check_od(od, trace.schema)
    try:
        streaming = score_trace(checked, trace)
    except EvalError as exc:
        with pytest.raises(EvalError) as batch:
            reference_score(checked, trace)
        assert str(batch.value) == str(exc)
    else:
        assert streaming == reference_score(checked, trace)
