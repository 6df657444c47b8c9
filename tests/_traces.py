"""Trace helpers that only the tests use."""

from __future__ import annotations

import io
import json
import math

from odl import (
    BUILTIN_NAMES, CheckedOracle, EngineError, EvalError, Frequency, Kind, OdlError, OracleDefinition, Point2,
    ScoreReport, ScoringFunction, Trace, TraceError, TraceMessage, TraceSchema, check_od, dump_trace, format_od,
    load_builtin, parse_od, parse_trace, reference_score, report_to_json, score_messages, score_trace,
)
from odl.engine import score_lines
from odl.trace import LINE_BATCH_BYTES, read_trace_lines


def duration(trace: Trace) -> float:
    """Elapsed seconds between the first and last message (0 if fewer than 2)."""
    if len(trace.messages) < 2:
        return 0.0
    return trace.messages[-1].t - trace.messages[0].t


def concat_traces(first: Trace, second: Trace) -> Trace:
    """Join two traces over the same schema; time must stay non-decreasing."""
    if first.schema.as_dict() != second.schema.as_dict():
        raise TraceError("cannot concatenate traces with different schemas")
    if first.messages and second.messages and second.messages[0].t < first.messages[-1].t:
        raise TraceError("concatenation would make timestamps decrease")
    return Trace(schema=first.schema, messages=first.messages + second.messages)


def encoder_dump(trace: Trace) -> str:
    """dump_trace as json.JSONEncoder writes it, record by record: the
    reference for the generated record writer."""
    lines = [json.dumps({name: kind.value for name, kind in trace.schema.fields})]
    for message in trace.messages:
        obj = {"t": message.t}
        for name, _ in trace.schema.fields:
            value = message.values[name]
            obj[name] = [value.x, value.y] if isinstance(value, Point2) else value
        lines.append(json.dumps(obj, allow_nan=False))
    return "\n".join(lines) + "\n"


def line_report(checked: CheckedOracle, trace: Trace, log: bool = False) -> ScoreReport:
    """The line program's report on the text of dump_trace(trace), read as
    `odl score` reads a trace file: read_trace_lines, then score_lines,
    with the firing log if `log` is set (`odl score --log-firings`)."""
    schema, lines = read_trace_lines(io.BytesIO(dump_trace(trace).encode()))
    assert schema == checked.schema
    return score_lines(checked, lines, log=log)


# The three scorers of a trace: the message program, the reference, and the
# logged line program over the trace's text.
SCORERS = {
    "score_trace": score_trace, "reference_score": reference_score,
    "line program": lambda checked, trace: line_report(checked, trace, log=True),
}


def merged_builtins() -> OracleDefinition:
    """Every bundled scoring function in one definition, summary = sum, in
    the order of BUILTIN_NAMES: the oracle the benchmark's `long_score`
    scores with. The bundled oracles share constant names only where they
    agree on the value, and no two declare the same function."""
    constants: dict[str, object] = {}
    functions: list[ScoringFunction] = []
    for name in BUILTIN_NAMES:
        od = parse_od(load_builtin(name))
        for key, value in od.constants:
            assert constants.setdefault(key, value) == value, key
        functions.extend(od.functions)
    assert len({fn.name for fn in functions}) == len(functions)
    return parse_od(format_od(OracleDefinition(constants=tuple(constants.items()), functions=tuple(functions))))


# An oracle over wide_trace's last number, last point and boolean.
WIDE_OD = "f = scoring_function(event = b, action = x3499 + distance(p499, point(0, 0)), frequency = all_sum);"


def wide_trace() -> Trace:
    """Three messages of 3,500 number fields (x<k>), 500 point fields (p<k>)
    and a boolean b: 4,501 floats a record with t, past the width at which
    one sum of them no longer compiles on CPython 3.10 to 3.12."""
    schema = TraceSchema(tuple(
        [(f"x{k}", Kind.NUMBER) for k in range(3500)] + [(f"p{k}", Kind.POINT2) for k in range(500)]
        + [("b", Kind.BOOLEAN)]
    ))
    messages = []
    for t in range(3):
        values = {f"x{k}": k * 0.5 + t for k in range(3500)}
        values.update({f"p{k}": Point2(float(k + t), -k / 4) for k in range(500)})
        messages.append(TraceMessage(float(t), {**values, "b": t != 1}))
    return Trace(schema, tuple(messages))


def firing_unit(fn: ScoringFunction) -> str:
    """How often `fn` can fire, from its frequency and condition alone:
    "per trace" (first), "per sequence" (action_sum with a condition) or
    "per message" (action_sum without one, and all_sum)."""
    if fn.frequency is Frequency.FIRST:
        return "per trace"
    if fn.frequency is Frequency.ACTION_SUM and fn.condition is not None:
        return "per sequence"
    return "per message"


def time_shift_changes(trace: Trace, shifts: list[float]) -> dict[float, dict[str, list[str]]]:
    """For each shift, the bundled oracles whose report, firing log included,
    on `trace` with the shift added to every t differs from score_trace's
    report on `trace`, under each of score_trace, reference_score and the
    logged line program over the shifted trace's text (SCORERS)."""
    changes = {shift: {scorer: [] for scorer in SCORERS} for shift in shifts}
    for oracle in BUILTIN_NAMES:
        checked = check_od(parse_od(load_builtin(oracle)), trace.schema)
        expected = score_trace(checked, trace)
        for shift in shifts:
            shifted = trace._replace(messages=tuple(TraceMessage(t + shift, values) for t, values in trace.messages))
            for scorer, score in SCORERS.items():
                if score(checked, shifted) != expected:
                    changes[shift][scorer].append(oracle)
    return changes


# A trace of three messages whose evaluation can fail: n0 is 0 from message 1
# on, and b0 is false at message 2.
ERROR_TRACE = (
    '{"n0": "number", "b0": "boolean"}\n'
    '{"t": 0, "n0": 1, "b0": true}\n'
    '{"t": 1, "n0": 0, "b0": true}\n'
    '{"t": 2, "n0": 0, "b0": false}\n'
)


class NotAMapping:
    """Values that index, count and iterate as a mapping does, but are not a
    collections.abc.Mapping."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, name):
        return self.values[name]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class ZeroDefault(dict):
    """A dict in which a missing name reads as 0.0."""

    def __missing__(self, name):
        return 0.0


def trace_faults() -> list[tuple[CheckedOracle, Trace, type[OdlError], str]]:
    """Traces built by hand from ERROR_TRACE and from one message of a
    number, a boolean and a point, each with the oracle that scores it and
    the class and text of its first fault in message order: another schema,
    a decreasing t, and what only a Trace built without parse_trace can
    hold, messages whose fields are not the schema's (a field the oracle
    does not read counts too) or whose values parse_trace would refuse,
    alone or after an earlier fault, or values that are not a mapping.
    Within a message, its field names come first, then t, then each field
    in schema order, then t's order."""
    trace = parse_trace(ERROR_TRACE)
    first, second, third = trace.messages
    reads_b0 = check_od(parse_od("f = scoring_function(event = b0, frequency = first);"), trace.schema)
    divides = check_od(
        parse_od("f = scoring_function(event = b0, action = 1 / (n0 - 1), frequency = all_sum);"), trace.schema
    )
    no_n0 = third._replace(values={"b0": False})
    point = parse_trace('{"n": "number", "b": "boolean", "p": "point2"}\n{"t": 0, "n": 2, "b": true, "p": [0, 0]}\n')
    reads_all = check_od(parse_od(
        "f = scoring_function(event = b and n > 1, action = 1, frequency = all_sum);"
        "g = scoring_function(event = distance(p, point(0, 0)) > 1, action = 1, frequency = all_sum);"
    ), point.schema)

    number = parse_trace('{"n": "number"}\n{"t": 0, "n": 1}\n')
    reads_n = check_od(parse_od("f = scoring_function(event = n > 0, action = n, frequency = all_sum);"), number.schema)

    def holding(values):
        return number._replace(messages=(TraceMessage(0.0, values),))

    def built(*messages):
        return trace._replace(messages=messages)

    def valued(**values):
        message = point.messages[0]
        return point._replace(messages=(message._replace(values={**message.values, **values}),))

    return [
        (reads_all, valued(n=math.nan), EngineError, "message 0: field 'n' must be finite"),
        (reads_all, valued(n=True, b="yes", p=(3, 0)), EngineError, "message 0: field 'n' must be a number"),
        (reads_all, valued(n=2, b=2), EngineError, "message 0: field 'b' must be true or false"),
        (reads_all, valued(p=Point2(math.inf, 0.0)), EngineError, "message 0: field 'p'[0] must be finite"),
        (reads_all, valued(p="ab"), EngineError, "message 0: field 'p' must be a two-element [x, y] array"),
        (reads_b0, built(first._replace(t="0"), second, third), EngineError, "message 0: field 't' must be a number"),
        (reads_b0, built(first, second._replace(values={"n0": "x", "b0": True}), third), EngineError,
         "message 1: field 'n0' must be a number"),
        # The names before t, t before the fields, and the fields before t's order.
        (reads_b0, built(first._replace(t="0", values={"n0": 1.0}), second), EngineError,
         "message 0: missing field 'b0'"),
        (reads_b0, built(first._replace(t=math.nan, values={"n0": "x", "b0": True}), second), EngineError,
         "message 0: field 't' must be finite"),
        (reads_b0, built(second, first._replace(values={"n0": 1.0, "b0": 1})), EngineError,
         "message 1: field 'b0' must be true or false"),
        (reads_b0, parse_trace('{"n0": "number"}\n{"t": 0, "n0": 1}\n'), EngineError,
         "trace schema does not match the one the oracle was checked against"),
        (reads_b0, built(third, second, first), EngineError, "message 1: timestamp 1.0 decreases below 2.0"),
        (reads_b0, built(first._replace(values={"n0": 1.0}), second, third), EngineError,
         "message 0: missing field 'b0'"),
        (reads_b0, built(first, second._replace(values={**second.values, "y": 1.0}), third), EngineError,
         "message 1: field 'y' is not in the schema"),
        (reads_b0, built(first, second, no_n0), EngineError, "message 2: missing field 'n0'"),
        # As many fields as the schema has, one of them foreign.
        (reads_b0, built(first, second._replace(values={"z": 0.0, "b0": True}), third), EngineError,
         "message 1: field 'z' is not in the schema"),
        (reads_b0, built(second, first, no_n0), EngineError, "message 1: timestamp 0.0 decreases below 1.0"),
        # Values that are not a mapping, before t.
        (reads_all, point._replace(messages=(TraceMessage(0.0, None),)), EngineError,
         "message 0: values must be a mapping, not NoneType"),
        (reads_all, point._replace(messages=(TraceMessage(0.0, [("n", 1.0)]),)), EngineError,
         "message 0: values must be a mapping, not list"),
        (reads_all, point._replace(messages=(TraceMessage(0.0, "n"),)), EngineError,
         "message 0: values must be a mapping, not str"),
        (reads_b0, built(first, second._replace(t="1", values=None), third), EngineError,
         "message 1: values must be a mapping, not NoneType"),
        # Values that read as a mapping but are not one, good or bad, and a
        # dict subclass whose missing field reads as 0.0: each goes to the
        # reader's coercers, which refuse it.
        (reads_n, holding(NotAMapping({"n": 1.0})), EngineError,
         "message 0: values must be a mapping, not NotAMapping"),
        (reads_n, holding(NotAMapping({"n": math.nan})), EngineError,
         "message 0: values must be a mapping, not NotAMapping"),
        (reads_n, holding(ZeroDefault(z=1.0)), EngineError, "message 0: field 'z' is not in the schema"),
        (divides, built(first, second._replace(values={"b0": True}), third), EvalError,
         "message 0 (t=0.0), function 'f': division by zero in '1.0 / (n0 - 1.0)'"),
    ]


def scorer_outcomes(checked: CheckedOracle, trace: Trace) -> list[str]:
    """What score_messages (over an iterator of the messages, when the trace
    has the oracle's schema: it is given no schema), score_trace and
    reference_score give for one trace: the report as report_to_json writes
    it with its firings, or the class and text of the OdlError raised."""
    scorers = [score_trace, reference_score]
    if trace.schema == checked.schema:
        scorers.insert(0, lambda checked, trace: score_messages(checked, iter(trace.messages)))
    outcomes = []
    for score in scorers:
        try:
            outcomes.append(report_to_json(score(checked, trace), include_firings=True))
        except OdlError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


# Trace files whose lines are long, broken by every line break, blank, or
# hold a bad byte: read_trace_lines must read each as its lines decoded one
# at a time, and every source of its bytes must read as one.
_SCHEMA = b'{"x": "number", "b": "boolean", "p": "point2"}\n'
_RECORD = b'{"t": 0.5, "x": 1.0, "b": true, "p": [0.0, 0.0]}\n'
_BATCH = LINE_BATCH_BYTES
BATCHED_FILES = {
    "a record longer than several batches": _SCHEMA + b'{"t": 0.0, "x": 1.' + b"5" * (5 * _BATCH) + b"}\n" + _RECORD,
    "a last line with no newline": _SCHEMA + _RECORD * 3 + _RECORD.rstrip(),
    "every line break of splitlines": _SCHEMA
    + "".join(_RECORD.decode().replace("\n", brk) for brk in ("\r\n", "\r", "\f", "\u2028", "\x1c", "\x85", "\v"))
    .encode() * (_BATCH // 300) + b"\r",
    "blank lines": b"\n \n" + _SCHEMA + (b"\n\t\n" + _RECORD) * (_BATCH // 40) + b"\n\n",
    "a bad byte in the first batch": _SCHEMA + _RECORD * 2 + b"\xff" + _RECORD * (3 * _BATCH // len(_RECORD)),
    "a bad byte in a middle batch": _SCHEMA + _RECORD * (2 * _BATCH // len(_RECORD)) + b'{"t": 1.0, "x\xe2\x82"'
    + _RECORD * (2 * _BATCH // len(_RECORD)),
    "a bad byte in the last batch": _SCHEMA + _RECORD * (3 * _BATCH // len(_RECORD)) + _RECORD[:-1] + b"\xc3",
    "a bad byte on the schema line": b"\n" + _SCHEMA.replace(b"x", b"\x80") + _RECORD,
    # A lone CR ends no line of a binary file, so the bad byte follows line 1.
    "a bad byte after a lone CR on the line after the schema": b'{"x": "number"}\n{"t": 0, "x": 1}\r\xff\n',
}
