"""Streaming engine semantics: sequences, conditions, timers, summaries."""

import builtins
import hashlib
import json
import math
import re
from dataclasses import replace

import pytest

import odl.checker
import odl.trace
from _drive import drive, listing_suite
from _traces import firing_unit, line_report, merged_builtins
from odl import (
    BUILTIN_NAMES,
    EngineError,
    EvalError,
    GEN_SCHEMA,
    Kind,
    Point2,
    ScoreReport,
    Trace,
    TraceError,
    TraceMessage,
    TraceSchema,
    check_od,
    generate_trace,
    load_builtin,
    load_example_scenario,
    load_scenario,
    parse_od,
    parse_trace,
    reference_score,
    report_to_json,
    report_to_text,
    score_messages,
    score_trace,
)
from odl.engine import generate_line_program

BOOL_SCHEMA = TraceSchema((("collision", Kind.BOOLEAN),))


def scored(source: str, trace: Trace):
    return score_trace(check_od(parse_od(source), trace.schema), trace)


def bool_trace(times_and_flags):
    return Trace(
        schema=BOOL_SCHEMA,
        messages=tuple(
            TraceMessage(t=float(t), values={"collision": flag})
            for t, flag in times_and_flags
        ),
    )


def test_collision_times_five_worked_example():
    trace = parse_trace(
        '{"collision": "boolean"}\n{"t": 1, "collision": true}\n{"t": 2, "collision": true}\n'
    )
    report = scored(
        "hits = scoring_function(event = collision, action = 5, frequency = action_sum);",
        trace,
    )
    assert report.summary == 10.0


def test_speeding_counts_per_message():
    source = (
        "const MAX_SPEED = 20;\n"
        "speeding = scoring_function(event = speed > MAX_SPEED, action = -1, "
        "frequency = action_sum);"
    )
    schema = TraceSchema((("speed", Kind.NUMBER),))
    trace = Trace(
        schema=schema,
        messages=tuple(
            TraceMessage(t=float(i), values={"speed": s})
            for i, s in enumerate((10.0, 25.0, 30.0))
        ),
    )
    report = score_trace(check_od(parse_od(source), schema), trace)
    assert report.score_map() == {"speeding": -2.0}
    assert [f.message_index for f in report.firings] == [1, 2]


def test_listing_suite_hand_scores():
    suite = listing_suite()
    assert len(suite) >= 12
    oracles = {
        name: parse_od(load_builtin(name))
        for name in ("listing1", "listing2", "listing3", "listing4")
    }
    for case_name, trace, expected in suite:
        for od_name, od in oracles.items():
            report = score_trace(check_od(od, trace.schema), trace)
            assert report.summary == pytest.approx(expected[od_name], abs=1e-9), (
                case_name,
                od_name,
                report.score_map(),
            )


def test_initial_scores():
    trace = bool_trace([])
    report = scored(
        "f = scoring_function(event = collision, frequency = first, initial = 100);",
        trace,
    )
    assert report.score_map() == {"f": 100.0}
    assert report.summary == 100.0


def test_timer_starts_at_zero_so_event_false_before_notification():
    # listing4-style: a collision on the very first message finds the timer
    # at 0, and `expiration > 0` is false.
    trace = drive([{"t": 0.0, "collision": True}])
    report = score_trace(
        check_od(parse_od(load_builtin("listing4")), GEN_SCHEMA), trace
    )
    assert report.score_map() == {"collisions": 0.0, "deceleration": 0.0}


def test_summary_expressions():
    source = (
        "speeding = scoring_function(event = collision, action = -1, frequency = action_sum);\n"
        "arrival = scoring_function(event = collision, action = 0.5, frequency = action_sum);\n"
        "summary = 0.5 * speeding + 4 * arrival;"
    )
    trace = bool_trace([(0, True), (1, True)])
    report = scored(source, trace)
    assert report.score_map() == {"speeding": -2.0, "arrival": 1.0}
    assert report.summary == 0.5 * -2.0 + 4 * 1.0
    # report order follows declaration order
    assert tuple(name for name, _ in report.scores) == ("speeding", "arrival")


def test_zero_message_trace_summarizes_initials():
    source = (
        "a = scoring_function(event = collision, frequency = first, initial = 3);\n"
        "b = scoring_function(event = collision, frequency = first, initial = -1);"
    )
    report = scored(source, bool_trace([]))
    assert report.summary == 2.0
    assert report.firings == ()


def test_first_mode_fires_at_most_once():
    trace = bool_trace([(0, True), (1, False), (2, True), (3, True)])
    report = scored(
        "f = scoring_function(event = collision, action = 1, frequency = first);", trace
    )
    assert report.score_map() == {"f": 1.0}
    assert len(report.firings) == 1


def test_action_sum_with_condition_fires_once_per_sequence():
    # two event-true sequences, each longer than 1 s
    trace = bool_trace([(0, True), (1, True), (2, True), (3, False), (4, True), (5, True), (6, True)])
    report = scored(
        "f = scoring_function(event = collision, condition = seq_time > 1, "
        "action = -1, frequency = action_sum);",
        trace,
    )
    assert report.score_map() == {"f": -2.0}
    assert [f.message_index for f in report.firings] == [2, 6]


def test_all_sum_fires_at_every_qualifying_message():
    trace = bool_trace([(0, True), (1, True), (2, True)])
    report = scored(
        "f = scoring_function(event = collision, condition = seq_time > 1, "
        "action = 1, frequency = all_sum);",
        trace,
    )
    assert report.score_map() == {"f": 1.0}  # only t=2 has seq_time 2 > 1


def test_equal_timestamps_have_zero_dt():
    # the repeated timestamp keeps seq_time at 0, so the condition never holds
    trace = bool_trace([(1, True), (1, True), (1, True)])
    report = scored(
        "f = scoring_function(event = collision, condition = seq_time > 0, "
        "action = 1, frequency = all_sum);",
        trace,
    )
    assert report.score_map() == {"f": 0.0}


def test_missing_action_counts_as_firing_with_zero_delta():
    trace = bool_trace([(0, True)])
    report = scored("f = scoring_function(event = collision, frequency = all_sum);", trace)
    assert report.score_map() == {"f": 0.0}
    assert len(report.firings) == 1
    assert report.firings[0].delta == 0.0


def test_self_notification_chain():
    # Once fired, the function keeps itself armed via its own timer.
    source = (
        "f = scoring_function(event = collision or tm > 0, action = 1, "
        "frequency = all_sum, notifications = [(f, [(tm, 10)])]);"
    )
    trace = bool_trace([(0, True), (1, False), (2, False)])
    report = scored(source, trace)
    assert report.score_map() == {"f": 3.0}


def test_notification_overwrites_timer():
    # second arming overwrites the first (no max/accumulate semantics)
    source = (
        "watch = scoring_function(event = collision and tm > 0, action = 1, frequency = all_sum);\n"
        "arm = scoring_function(event = not collision, action = 0, frequency = all_sum, "
        "notifications = [(watch, [(tm, 0.5)])]);"
    )
    # armed at t=0 and t=1 (overwrite to 0.5 each); collision at t=1.4:
    # dt=0.4, timer 0.5-0.4=0.1>0 -> fires.
    trace = bool_trace([(0, False), (1, False), (1.4, True)])
    report = scored(source, trace)
    assert report.score_map()["watch"] == 1.0
    # but a 0.6 s gap drains it
    trace2 = bool_trace([(0, False), (1, False), (1.6, True)])
    report2 = scored(source, trace2)
    assert report2.score_map()["watch"] == 0.0


def test_notifications_recorded_in_firing_log():
    trace = drive(
        [{"t": t, "acceleration": -2.0} for t in (0.0, 1.0, 2.0, 2.5)]
    )
    report = score_trace(
        check_od(parse_od(load_builtin("listing4")), GEN_SCHEMA), trace
    )
    notifying = [f for f in report.firings if f.notifications]
    assert notifying
    assert notifying[0].notifications == (("collisions", "expiration", 0.5),)


def test_timestamp_regression_rejected():
    trace = bool_trace([(2, False), (1, False)])
    with pytest.raises(EngineError, match=r"^message 1: timestamp 1\.0 decreases below 2\.0$"):
        scored("f = scoring_function(event = collision, frequency = first);", trace)


def test_schema_mismatch_rejected():
    checked = check_od(
        parse_od("f = scoring_function(event = collision, frequency = first);"),
        BOOL_SCHEMA,
    )
    other = Trace(schema=TraceSchema((("speed", Kind.NUMBER),)), messages=())
    with pytest.raises(EngineError, match="schema"):
        score_trace(checked, other)


def test_evaluation_error_carries_message_context():
    source = "f = scoring_function(event = collision, action = 1 / (t - 1), frequency = all_sum);"
    trace = bool_trace([(0, True), (1, True)])
    with pytest.raises(EvalError, match=r"message 1 \(t=1.0\), function 'f'"):
        scored(source, trace)


def test_report_to_json_refuses_non_finite_values():
    report = ScoreReport(scores=(("f", math.inf),), summary=math.nan)
    with pytest.raises(ValueError):
        report_to_json(report)


def test_determinism_bit_identical():
    trace = drive([{"t": float(i) * 0.5, "speed": 25.0} for i in range(20)])
    checked = check_od(parse_od(load_builtin("listing1")), GEN_SCHEMA)
    assert score_trace(checked, trace) == score_trace(checked, trace)


def test_firing_log_sums_to_score_delta():
    trace = bool_trace([(0, True), (1, True), (2, False), (3, True)])
    report = scored(
        "f = scoring_function(event = collision, action = 2.5, frequency = action_sum, initial = 4);",
        trace,
    )
    acc = 4.0
    for firing in report.firings:
        acc += firing.delta
    assert acc == report.score_map()["f"]


def test_report_serialization():
    trace = bool_trace([(0, True)])
    report = scored(
        "f = scoring_function(event = collision, action = 5, frequency = action_sum);", trace
    )
    obj = json.loads(report_to_json(report))
    assert obj == {"scores": {"f": 5.0}, "summary": 5.0}
    obj = json.loads(report_to_json(report, include_firings=True))
    assert obj["firings"] == [
        {"message_index": 0, "function": "f", "delta": 5.0, "notifications": []}
    ]
    text = report_to_text(report, include_firings=True)
    assert "f: 5.0" in text
    assert "summary: 5.0" in text
    assert "[0] f delta=5.0" in text


def test_score_messages_pulls_each_message_once_from_an_iterator():
    trace = drive([{"t": 0.4 * i, "acceleration": -2.0, "collision": i == 7} for i in range(10)])
    checked = check_od(parse_od(load_builtin("listing4")), GEN_SCHEMA)
    pulled = []
    bad_record = TraceError("line 6: malformed record")

    def one_shot(fail_at=None):
        for i, message in enumerate(trace.messages):
            if i == fail_at:
                raise bad_record
            pulled.append(i)
            yield message

    assert score_messages(checked, one_shot()) == score_trace(checked, trace)
    assert pulled == list(range(10))
    pulled.clear()
    with pytest.raises(TraceError) as raised:
        score_messages(checked, one_shot(fail_at=4))
    assert raised.value is bad_record
    assert pulled == [0, 1, 2, 3]


def test_literal_actions_and_notification_values_are_folded(monkeypatch):
    # A finite literal needs no float() and no finiteness check; anything
    # else keeps both. (The message program names float in its test of t.)
    folded = (
        "f = scoring_function(event = collision, action = -2.5, frequency = all_sum,"
        " notifications = [(g, [(tm, 0.5)])]);\n"
        "g = scoring_function(event = tm > 0, action = 1, frequency = first);"
    )
    kept = "const X = 2;\nf = scoring_function(event = collision, action = X * 1, frequency = all_sum);"
    sources = []

    def capture(source, filename, *args):
        if filename == "<odl program>":  # not the record reader of the schema
            sources.append(source)
        return builtins.compile(source, filename, *args)

    monkeypatch.setattr(odl.trace, "compile", capture, raising=False)
    for source in (folded, kept):
        check_od(parse_od(source), BOOL_SCHEMA).program
    assert ["float(" in source for source in sources] == [False, True]
    report = scored(folded, bool_trace([(0, True), (0.2, True), (0.4, False)]))
    assert report.scores == (("f", -5.0), ("g", 1.0))
    assert [(f.function, f.delta, f.notifications) for f in report.firings] == [
        ("f", -2.5, (("g", "tm", 0.5),)),
        ("f", -2.5, (("g", "tm", 0.5),)),
        ("g", 1.0, ()),
    ]


def test_line_program_passes_a_read_point_to_distance_as_the_gates_list():
    # distance (math.dist) reads the gate's two-float list as it reads a
    # Point2, so the line program builds no Point2.
    line_code = check_od(parse_od(load_builtin("listing2")), GEN_SCHEMA).line_program.__code__
    assert "_dist" in line_code.co_names
    assert "_Point2" not in line_code.co_names


def test_the_merged_bundled_oracle_tests_each_repeated_event_once(monkeypatch):
    """The 17 bundled functions in one oracle test 7 distinct events, 4 of
    them `distance(position, DESTINATION) < 12`: the line program calls
    distance once per record, binds DESTINATION once, and every program
    scores as the reference."""
    sources = []

    def capture(source, filename, *args):
        sources.append(source)
        return builtins.compile(source, filename, *args)

    monkeypatch.setattr(odl.trace, "compile", capture, raising=False)
    checked = check_od(merged_builtins(), GEN_SCHEMA)
    program = checked.line_program
    [source] = sources
    assert source.count("_dist(") == 1
    [destination] = [name for name, value in program.__globals__.items() if value == Point2(1000.0, 0.0)]
    assert len(re.findall(rf"\b{destination}\b", source)) == 1
    trace = generate_trace(replace(load_scenario(load_example_scenario("eventful")), tick=0.02), 7)
    reference = reference_score(checked, trace)
    assert score_trace(checked, trace) == reference
    assert line_report(checked, trace, log=True) == reference
    assert line_report(checked, trace) == reference._replace(firings=())


def test_each_value_is_bound_once_and_read():
    """The message program, the line program and the logged line program of
    each bundled oracle and of the merged one bind each value once, and
    only a value they read: the `_v` names of a program's namespace hold
    values of pairwise distinct type and repr, and the program's code reads
    each of them. Every generated pass holds only what its code reads: each
    global of these programs, and of the record reader and writer of
    GEN_SCHEMA and of schemas of one number, one boolean and no field, but
    `__builtins__` and the pass's own name, is one of its code's names."""
    programs = []
    for od in [*(parse_od(load_builtin(name)) for name in BUILTIN_NAMES), merged_builtins()]:
        checked = check_od(od, GEN_SCHEMA)
        for program in (checked.program, checked.line_program, generate_line_program(checked, log=True)):
            bound = [(type(value), repr(value)) for name, value in program.__globals__.items() if name.startswith("_v")]
            assert bound and len(set(bound)) == len(bound), (od.functions[0].name, bound)
            unread = [name for name in program.__globals__ if name.startswith("_v") and name not in program.__code__.co_names]
            assert unread == [], (od.functions[0].name, unread)
            programs.append((od.functions[0].name, program))
    for schema in (GEN_SCHEMA, TraceSchema((("n", Kind.NUMBER),)), BOOL_SCHEMA, TraceSchema(())):
        programs += [(schema, odl.trace._record_reader.__wrapped__(schema)[0]),
                     (schema, odl.trace._record_writer.__wrapped__(schema))]
    for what, program in programs:
        held = set(program.__globals__) - {"__builtins__", program.__name__}
        assert sorted(held - set(program.__code__.co_names)) == [], (what, program.__name__)


def test_each_function_name_is_bound_once_in_the_tuple_of_names():
    """The message program, the line program and the logged line program of
    each bundled oracle and of the merged one bind the function names once:
    one `_v` value holds names, and it is the tuple of all of them, which the
    report, the firing log and the error handler index."""
    for od in [*(parse_od(load_builtin(name)) for name in BUILTIN_NAMES), merged_builtins()]:
        checked = check_od(od, GEN_SCHEMA)
        names = tuple(fn.name for fn in od.functions)
        for program in (checked.program, checked.line_program, generate_line_program(checked, log=True)):
            bound = [value for name, value in program.__globals__.items() if name.startswith("_v")]
            holding = [
                value for value in bound
                if (type(value) is str and value in names)
                or (type(value) is tuple and any(name in value for name in names))
            ]
            assert holding == [names], (names[0], bound)


def test_each_program_has_one_error_handler_per_record(monkeypatch):
    """The message program, the line program and the logged line program of
    each bundled oracle and of the merged one run all the functions of a
    record under one `except _EvalError`, which names the function from the
    local `fn`, and the summary, when there is one, under one more."""
    sources = []

    def capture(source, filename, *args):
        if filename == "<odl program>":  # not the record reader of the schema
            sources.append(source)
        return builtins.compile(source, filename, *args)

    monkeypatch.setattr(odl.trace, "compile", capture, raising=False)
    for od in [*(parse_od(load_builtin(name)) for name in BUILTIN_NAMES), merged_builtins()]:
        checked = check_od(od, GEN_SCHEMA)
        programs = (checked.program, checked.line_program, generate_line_program(checked, log=True))
        assert len(sources) == len(programs)
        for source in sources:
            # The loop's body is indented by 8 spaces, the code after it by 4.
            handlers = [len(line) - len(line.lstrip()) for line in source.splitlines() if "except _EvalError" in line]
            assert handlers == [8, *([4] if od.summary is not None else [])], (od.functions[0].name, source)
        sources.clear()


def test_firing_unit_of_each_bundled_function():
    units = {}
    for fn in merged_builtins().functions:
        units.setdefault(firing_unit(fn), []).append(fn.name)
    assert units == {
        "per message": [
            "speeding", "collisions", "deceleration", "speed_compliance", "collision_free", "driving_budget",
            "collision_count", "mitigated_collisions", "braking",
        ],
        "per trace": ["arrival_test", "reaches_goal", "route_completion", "ever_speeding", "goal_reached"],
        "per sequence": ["lane_keep", "lane_discipline", "lane_infraction"],
    }


def counting_generate_program(monkeypatch, name="generate_program"):
    """Count calls of engine.generate_program, or of the engine generator
    `name`, made through the checker."""
    calls = []
    real = getattr(odl.checker, name)

    def counting(checked):
        calls.append(checked.od)
        return real(checked)

    monkeypatch.setattr(odl.checker, name, counting)
    return calls


def test_program_is_generated_on_first_scoring_and_kept(monkeypatch):
    calls = counting_generate_program(monkeypatch)
    checked = check_od(parse_od(load_builtin("listing1")), GEN_SCHEMA)
    assert calls == []
    trace = drive([{"t": 0.0}, {"t": 0.5, "speed": 30.0}])
    first = score_trace(checked, trace)
    second = score_messages(checked, iter(trace.messages))
    assert len(calls) == 1
    assert first == second
    assert first.summary == -1.0
    # The program is no part of the checked oracle's value.
    assert checked == check_od(parse_od(load_builtin("listing1")), GEN_SCHEMA)
    assert "program" not in repr(checked)


# The sha256 of the Python source generate_program compiles for each bundled
# oracle checked against GEN_SCHEMA. A change to how the engine emits code
# that should not change what it emits keeps every digest.
GENERATED_SOURCE_SHA256 = {
    "listing1": "7ea72914870542bea92376a8d94eb91246779deea757bf820fe7698bbbaa2276",
    "listing2": "b7934b092d1016737f47e014d12a6fd1b6c07abf6ffb633b76deed116e38a53e",
    "listing3": "2598fcd101000fe495d7c41162f711f6a4889a350154a163df026adcd66ffaa9",
    "listing4": "628e457d794eaa8e47aa9f5777a24fa647e441c5ba5c69e69fab8ed7f8c3a634",
    "od1_rubric": "ce973c1dba7f2f6d19758e9235d5cde0474ed5ffef9dd598e95dcdd007c3d192",
    "od2_competition": "8a780fb237c37653f5220f2da2713a12e7d3f0ec8aec0b81e70cf43b004b062d",
    "od3_framework": "5898bbfac430e14057299d05a26fb098050b9fda1c389e1ce64749e4b7d59726",
}


# The same for the line program (generate_line_program), which the CLI runs.
LINE_SOURCE_SHA256 = {
    "listing1": "b9112200d59ed1d55aabbf08a1126b26df0e43cfc6d28d91ab6f371b6dbd1dcd",
    "listing2": "3ac0a0acf4419da6bd7d2892a26d33fa6c8253bf1431f349c4b10780dcef934b",
    "listing3": "66b3d4f8c8be266addaec590ecb7bf302f77d5aedfd5779390587f51f7a2507c",
    "listing4": "d83de6eb22e0ad455f319fe54211be331821c4ca42466dab882e3730e92f8951",
    "od1_rubric": "c5f9d1519d07faf990c8109218f1666f06f24c30d4fe15be9265af9b18467c05",
    "od2_competition": "5293269724818f2683864adba0d1e48bee7a478eaeb6bd0b064e17d8daacb5a9",
    "od3_framework": "e8b682f3701c527d0c3511ac33345c8b8fa8b7e5ce784f6cf8f05da3cd00c6d0",
}


# The sha256 of the Python source of the record reader and the record writer
# of GEN_SCHEMA, which trace.record_loop writes as it writes both programs.
READER_SOURCE_SHA256 = "533249e61fbc11d80cb75254dc631056dff92f6c1f0e99c9ab767c2992db5316"
WRITER_SOURCE_SHA256 = "28f2becd5a24bd400a1c943ac119981840357f6c73aebbbc5ab1dc7c126c8c5f"


def record_source_digests(monkeypatch):
    """The sha256 of the source of GEN_SCHEMA's record reader and record
    writer, each generated afresh, past its cache."""
    sources = []

    def capture(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(odl.trace, "compile", capture, raising=False)
    odl.trace._record_reader.__wrapped__(GEN_SCHEMA)
    odl.trace._record_writer.__wrapped__(GEN_SCHEMA)
    return [hashlib.sha256(source.encode()).hexdigest() for source in sources]


def test_record_reader_and_writer_sources_are_pinned(monkeypatch):
    assert record_source_digests(monkeypatch) == [READER_SOURCE_SHA256, WRITER_SOURCE_SHA256]


def generated_source_digests(monkeypatch, program):
    """The sha256 of the source the engine compiles for the attribute
    `program` of each bundled oracle checked against GEN_SCHEMA."""
    sources = []

    def capture(source, filename, *args):
        if filename == "<odl program>":  # not the record reader of the schema
            sources.append(source)
        return builtins.compile(source, filename, *args)

    monkeypatch.setattr(odl.trace, "compile", capture, raising=False)
    digests = {}
    for name in BUILTIN_NAMES:
        getattr(check_od(parse_od(load_builtin(name)), GEN_SCHEMA), program)
        digests[name] = hashlib.sha256(sources.pop().encode()).hexdigest()
    assert sources == []
    return digests


def test_generated_source_of_each_bundled_oracle_is_pinned(monkeypatch):
    assert generated_source_digests(monkeypatch, "program") == GENERATED_SOURCE_SHA256


def test_line_program_source_of_each_bundled_oracle_is_pinned(monkeypatch):
    assert generated_source_digests(monkeypatch, "line_program") == LINE_SOURCE_SHA256
