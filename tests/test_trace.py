"""Trace model, JSONL parsing, canonical serialization."""

import copy
import dataclasses
import io
import json
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _traces import BATCHED_FILES, concat_traces, duration, encoder_dump
from odl import (
    Binary,
    Call,
    Frequency,
    Ident,
    Kind,
    Literal,
    OracleDefinition,
    Point2,
    ScoringFunction,
    Trace,
    TraceError,
    TraceMessage,
    TraceSchema,
    check_od,
    dump_trace,
    generate_trace,
    load_example_scenario,
    load_scenario,
    parse_od,
    parse_trace,
    read_trace,
    reference_score,
    score_trace,
    write_trace,
)
from odl.cli import main
import odl.trace
from odl.engine import score_lines
from odl.trace import (
    _decoded_batches,
    _numbered_lines,
    _record_checker,
    _record_reader,
    _strict_json_object,
    message_checker,
    read_trace_lines,
    read_values_type,
    schema_fault,
)

TWO_COLLISIONS = (
    '{"collision": "boolean"}\n'
    '{"t": 1, "collision": true}\n'
    '{"t": 2, "collision": true}\n'
)


def test_parse_two_collision_trace():
    trace = parse_trace(TWO_COLLISIONS)
    assert trace.schema.fields == (("collision", Kind.BOOLEAN),)
    assert len(trace.messages) == 2
    assert [m.t for m in trace.messages] == [1.0, 2.0]
    assert all(m.values["collision"] is True for m in trace.messages)


def test_parse_header_only():
    trace = parse_trace('{"speed": "number"}\n')
    assert trace.messages == ()


def test_parse_accepts_bytes_and_streams(tmp_path):
    from io import BytesIO, StringIO

    assert parse_trace(TWO_COLLISIONS.encode()) == parse_trace(TWO_COLLISIONS)
    assert parse_trace(StringIO(TWO_COLLISIONS)) == parse_trace(TWO_COLLISIONS)
    assert parse_trace(BytesIO(TWO_COLLISIONS.encode())) == parse_trace(TWO_COLLISIONS)


def test_decreasing_timestamp_names_offending_record():
    text = '{"x": "number"}\n{"t": 2, "x": 0}\n{"t": 1, "x": 0}\n'
    with pytest.raises(TraceError) as err:
        parse_trace(text)
    assert "record 2" in str(err.value)
    assert "line 3" in str(err.value)


def test_equal_timestamps_allowed():
    trace = parse_trace('{"x": "number"}\n{"t": 1, "x": 0}\n{"t": 1, "x": 1}\n')
    assert len(trace.messages) == 2


def test_duplicate_schema_field_rejected():
    with pytest.raises(TraceError, match="duplicate"):
        parse_trace('{"x": "number", "x": "boolean"}\n')


def test_t_not_redeclarable():
    with pytest.raises(TraceError, match="implicit"):
        parse_trace('{"t": "number"}\n')


def test_invalid_field_name_rejected():
    with pytest.raises(TraceError, match="^line 1: invalid field name 'x-y'$"):
        parse_trace('{"x-y": "number"}\n')


def test_unknown_kind_rejected():
    with pytest.raises(TraceError, match="unknown kind"):
        parse_trace('{"x": "string"}\n')


def test_missing_field_rejected():
    with pytest.raises(TraceError, match="missing field 'x'"):
        parse_trace('{"x": "number"}\n{"t": 0}\n')


def test_extra_field_rejected():
    with pytest.raises(TraceError, match="unexpected field 'y'"):
        parse_trace('{"x": "number"}\n{"t": 0, "x": 1, "y": 2}\n')


def test_wrong_kind_rejected():
    with pytest.raises(TraceError, match="must be a number"):
        parse_trace('{"x": "number"}\n{"t": 0, "x": true}\n')
    with pytest.raises(TraceError, match="must be true or false"):
        parse_trace('{"x": "boolean"}\n{"t": 0, "x": 1}\n')
    with pytest.raises(TraceError, match=r"\[x, y\]"):
        parse_trace('{"x": "point2"}\n{"t": 0, "x": [1]}\n')


def test_nonfinite_numbers_rejected():
    with pytest.raises(TraceError, match="finite"):
        parse_trace('{"x": "number"}\n{"t": 0, "x": 1e999}\n')
    with pytest.raises(TraceError, match="non-finite"):
        parse_trace('{"x": "number"}\n{"t": 0, "x": Infinity}\n')
    with pytest.raises(TraceError, match="non-finite"):
        parse_trace('{"x": "number"}\n{"t": 0, "x": NaN}\n')


def test_malformed_record_names_line():
    with pytest.raises(TraceError, match="line 2"):
        parse_trace('{"x": "number"}\n{"t": 0, "x": \n')


def test_empty_file_rejected():
    with pytest.raises(TraceError, match="missing schema"):
        parse_trace("")


def test_blank_lines_skipped():
    trace = parse_trace('{"x": "number"}\n\n{"t": 0, "x": 1}\n\n')
    assert len(trace.messages) == 1


def test_point2_values():
    trace = parse_trace('{"p": "point2"}\n{"t": 0, "p": [3, 4.5]}\n')
    assert trace.messages[0].values["p"] == Point2(3.0, 4.5)


SCHEMA = '{"x": "number", "b": "boolean", "p": "point2"}\n'
GOOD = '{"t": 0, "x": 1, "b": true, "p": [0, 0]}'
BIG = "1" + "0" * 400  # an integer literal beyond the float range

# Every record diagnostic: (case, trace text, full TraceError text). Run through
# parse_trace and through `odl score`, which streams the file.
DIAGNOSTICS = [
    ("malformed", SCHEMA + '{"t": 0, "x": \n', "line 2: malformed record: Expecting value"),
    ("extra_data", SCHEMA + GOOD + " x\n", "line 2: malformed record: Extra data"),
    ("non_object", SCHEMA + "[1, 2]\n", "line 2: record must be a JSON object"),
    ("duplicate", SCHEMA + '{"t": 0, "x": 1, "x": 2, "b": true, "p": [0, 0]}\n',
     "line 2: duplicate record field 'x'"),
    ("duplicate_shadows_bad_value", SCHEMA + '{"t": 0, "x": "s", "b": true, "p": [0, 0], "x": 1}\n',
     "line 2: duplicate record field 'x'"),
    ("duplicate_escaped", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": [0, 0], "\\u0078": 1}\n',
     "line 2: duplicate record field 'x'"),
    ("duplicate_nested", SCHEMA + '{"t": 0, "x": {"a": 1, "a": 2}, "b": true, "p": [0, 0]}\n',
     "line 2: duplicate record field 'a'"),
    ("nan", SCHEMA + '{"t": 0, "x": NaN, "b": true, "p": [0, 0]}\n',
     "line 2: non-finite number NaN is not admitted"),
    ("infinity", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": [-Infinity, 0]}\n',
     "line 2: non-finite number -Infinity is not admitted"),
    ("float_overflow", SCHEMA + '{"t": 0, "x": 1e400, "b": true, "p": [0, 0]}\n', "line 2: field 'x' must be finite"),
    ("point_overflow", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": [0, -1e400]}\n', "line 2: field 'p'[1] must be finite"),
    ("missing_t", SCHEMA + '{"x": 1, "b": true, "p": [0, 0]}\n', "line 2: record 1: missing field 't'"),
    ("string_t", SCHEMA + '{"t": "0", "x": 1, "b": true, "p": [0, 0]}\n', "line 2: field 't' must be a number"),
    ("bool_t", SCHEMA + '{"t": true, "x": 1, "b": true, "p": [0, 0]}\n', "line 2: field 't' must be a number"),
    ("unexpected_field", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": [0, 0], "y": 1}\n',
     "line 2: record 1: unexpected field 'y'"),
    ("missing_field", SCHEMA + '{"t": 0, "x": 1, "p": [0, 0]}\n', "line 2: record 1: missing field 'b'"),
    ("bool_as_number", SCHEMA + '{"t": 0, "x": true, "b": true, "p": [0, 0]}\n', "line 2: field 'x' must be a number"),
    ("null_as_number", SCHEMA + '{"t": 0, "x": null, "b": true, "p": [0, 0]}\n', "line 2: field 'x' must be a number"),
    ("number_as_bool", SCHEMA + '{"t": 0, "x": 1, "b": 1, "p": [0, 0]}\n', "line 2: field 'b' must be true or false"),
    ("short_point", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": [0]}\n',
     "line 2: field 'p' must be a two-element [x, y] array"),
    ("bool_in_point", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": [0, false]}\n', "line 2: field 'p'[1] must be a number"),
    ("object_as_number", SCHEMA + '{"t": 0, "x": {"a": 1}, "b": true, "p": [0, 0]}\n', "line 2: field 'x' must be a number"),
    ("object_as_point", SCHEMA + '{"t": 0, "x": 1, "b": true, "p": {"x": 0, "y": 0}}\n',
     "line 2: field 'p' must be a two-element [x, y] array"),
    ("decreasing_t", SCHEMA + '{"t": 2, "x": 1, "b": true, "p": [0, 0]}\n' + GOOD + "\n",
     "line 3: record 2: decreasing timestamp 0.0 after 2.0"),
    ("blank_lines", SCHEMA + "\n  \n" + GOOD + "\n\n" + '{"t": 0}\n', "line 6: record 2: missing field 'x'"),
    ("crlf", SCHEMA.replace("\n", "\r\n") + GOOD + "\r\n" + '{"t": 0}\r\n', "line 3: record 2: missing field 'x'"),
    ("cr", SCHEMA + GOOD + "\r" + '{"t": 0}\n', "line 3: record 2: missing field 'x'"),
    # A form feed, U+2028 and \x1c are line breaks to str.splitlines().
    ("form_feed", SCHEMA + GOOD + "\f" + '{"t": 0}\n', "line 3: record 2: missing field 'x'"),
    ("line_separator", SCHEMA + GOOD + "\u2028" + '{"t": 0}\n', "line 3: record 2: missing field 'x'"),
    ("file_separator", SCHEMA + GOOD + " \x1c" + '{"t": 0}\n', "line 4: record 2: missing field 'x'"),
    # Tracebacks once: OverflowError on float() and ValueError/RecursionError from json.
    ("huge_int_t", SCHEMA + f'{{"t": {BIG}, "x": 1, "b": true, "p": [0, 0]}}\n', "line 2: field 't' must be finite"),
    ("huge_int_number", SCHEMA + f'{{"t": 0, "x": -{BIG}, "b": true, "p": [0, 0]}}\n', "line 2: field 'x' must be finite"),
    ("huge_int_point", SCHEMA + f'{{"t": 0, "x": 1, "b": true, "p": [{BIG}, 0]}}\n', "line 2: field 'p'[0] must be finite"),
    ("int_too_many_digits", SCHEMA + '{"t": 0, "x": 1' + "0" * 5000 + ', "b": true, "p": [0, 0]}\n',
     "line 2: malformed record: integer literal exceeds 4300 digits"),
    ("nested_too_deep", SCHEMA + '{"t": 0, "x": ' + "[" * 100000 + "\n", "line 2: malformed record: values nested too deeply"),
]


def _diagnostics():
    return pytest.mark.parametrize(
        "text, message", [case[1:] for case in DIAGNOSTICS], ids=[case[0] for case in DIAGNOSTICS]
    )


@_diagnostics()
def test_record_diagnostics(text, message):
    with pytest.raises(TraceError) as err:
        parse_trace(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].removeprefix("line "))


@_diagnostics()
def test_record_diagnostics_when_streaming(text, message, tmp_path, capsys):
    od = tmp_path / "any.odl"
    od.write_text("f = scoring_function(event = t >= 0, action = 1, frequency = all_sum);")
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(text.encode())
    assert main(["score", "--od", str(od), "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_fast_and_strict_paths_accept_the_same_records():
    # Whitespace, integers and key order leave the fast path; the values do not change.
    plain = parse_trace(SCHEMA + '{"t": 0.0, "x": 1.0, "b": true, "p": [0.0, 0.0]}\n')
    for record in (GOOD, "  " + GOOD + " ", '{ "p" : [0, 0.0], "b": true, "x": 1, "t": 0 }'):
        assert parse_trace(SCHEMA + record + "\n") == plain


N, B, P = Kind.NUMBER, Kind.BOOLEAN, Kind.POINT2
# Schemas for the generated reader, with field names that are also names
# in its source or in Python.
READER_SCHEMAS = [
    TraceSchema(()),
    TraceSchema((("a", B), ("b", B))),
    TraceSchema((("p", P), ("q", P))),
    TraceSchema((("None", N), ("lambda", B), ("obj", P), ("line", N))),
    TraceSchema((
        ("x0", P), ("prev_t", N), ("record_no", N), ("TraceMessage", B), ("index", N), ("record", P),
        ("values", B), ("taken", N), ("line", B), ("lineno", P),
    )),
    TraceSchema((("k0", N), ("end", B), ("values", N), ("_get", P), ("numbered", N))),
    TraceSchema((("speed", N), ("acceleration", N), ("position", P), ("road_normal", N), ("collision", B))),
]


def _strict_read(schema, records):
    """The reference reader: each line through _strict_json_object and the
    record check, with its own numbering, blank lines and time order."""
    check = _record_checker(schema)
    messages, record_no, prev_t = [], 0, -math.inf
    for lineno, line in enumerate(records, start=2):
        if line.strip() == "":
            continue
        try:
            t, values = check(_strict_json_object(line, lineno, "record"), lineno, record_no + 1)
        except TraceError as err:
            return messages, (str(err), err.line)
        record_no += 1
        if t < prev_t:
            return messages, (f"line {lineno}: record {record_no}: decreasing timestamp {t!r} after {prev_t!r}", lineno)
        prev_t = t
        messages.append(TraceMessage(t, values))
    return messages, None


def _read(lines):
    messages = []
    try:
        for message in read_trace(lines)[1]:
            messages.append(message)
    except TraceError as err:
        return messages, (str(err), err.line)
    return messages, None


def _random_record(rng, schema, t):
    """One record line: mostly what dump_trace writes, sometimes with one fault or variation."""

    def number():
        # Two of the large ones add up past the largest float.
        return repr(rng.choice((rng.uniform(-100, 100), 0.0, -0.0, 1e-320, rng.uniform(1e307, 1.7e308))))

    value = {N: number, B: lambda: rng.choice(("true", "false")), P: lambda: f"[{number()}, {number()}]"}
    pairs = [(json.dumps("t"), repr(t))] + [(json.dumps(name), value[kind]()) for name, kind in schema.fields]
    sep, colon, left, right = ", ", ": ", "{", "}"
    fault = "none" if rng.random() < 0.9 else rng.choice((
        "int", "huge_int", "long_int", "bool", "null", "string", "nan", "inf", "1e400", "nested", "short_point",
        "duplicate", "duplicate_string", "escaped", "missing", "extra", "order", "whitespace", "int_point",
    ))
    k = rng.randrange(len(pairs))
    if fault in ("int", "huge_int", "long_int", "bool", "null", "string", "nan", "inf", "1e400", "nested"):
        pairs[k] = (pairs[k][0], {
            "int": str(rng.randint(-3, 3)), "huge_int": "9" * 400, "long_int": "1" * 5000, "bool": "true",
            "null": "null", "string": '"1.0"', "nan": "NaN", "inf": rng.choice(("Infinity", "-Infinity")),
            "1e400": "-1e400", "nested": '{"a": 1.0}',
        }[fault])
    elif fault in ("short_point", "int_point"):
        pairs[k] = (pairs[k][0], "[1.0]" if fault == "short_point" else "[1, 2.5]")
    elif fault == "duplicate":
        pairs.append(rng.choice(pairs))
    elif fault == "duplicate_string":
        pairs.insert(k, (pairs[k][0], '"x"'))
    elif fault == "escaped":
        name = json.loads(pairs[k][0])
        pairs[k] = ('"' + "".join(f"\\u{ord(c):04x}" for c in name) + '"', pairs[k][1])
    elif fault == "missing":
        del pairs[k]
    elif fault == "extra":
        pairs.insert(k, (json.dumps(rng.choice(("extra", "T", "tt"))), "1.0"))
    elif fault == "order":
        rng.shuffle(pairs)
    elif fault == "whitespace":
        sep, colon, left, right = rng.choice(((",", ":", "{", "}"), (" ,", " : ", " {", "}"), (", ", ": ", "{ ", "}\t")))
    return left + sep.join(f"{key}{colon}{text}" for key, text in pairs) + right


def _reading_oracle(schema):
    """A checked oracle that reads every field of the schema and t, and
    whose scores never overflow on _random_record's values."""
    terms = {N: lambda x: (Literal(True), Binary("*", x, Literal(1e-10))), B: lambda x: (x, Literal(1.0)),
             P: lambda x: (Binary(">", Call("distance", (x, Literal(Point2(0.5, 0.5)))), Literal(10.0)), Literal(1.0))}
    functions = [ScoringFunction("score_t", Literal(True), Frequency.ALL_SUM, action=Ident("t"))]
    for k, (name, kind) in enumerate(schema.fields):
        event, action = terms[kind](Ident(name))
        functions.append(ScoringFunction(f"score_{k}", event, Frequency.ALL_SUM, action=action))
    return check_od(OracleDefinition(constants=(), functions=tuple(functions)), schema)


def _score_lines(checked, lines):
    """The line program's scores and summary on the text of these lines,
    read as `odl score` reads a file, or its TraceError text and line."""
    text = "".join(line + "\n" for line in lines)
    try:
        schema, numbered = read_trace_lines(io.BytesIO(text.encode()))
        report = score_lines(checked, numbered)
    except TraceError as err:
        return str(err), err.line
    assert schema == checked.schema
    return report.scores, report.summary


def test_generated_reader_agrees_with_the_strict_path():
    """read_trace against _strict_read on seeded random traces: the same
    messages, then the same TraceError text and line, or none. The line
    program takes the same records, scoring what reference_score scores
    on them, and refuses the same line with the same text."""
    rng = random.Random(4242)
    outcomes = {"clean": 0, "error": 0}
    oracles = {schema: _reading_oracle(schema) for schema in READER_SCHEMAS}
    for _ in range(1200):
        schema = rng.choice(READER_SCHEMAS)
        records, t = [], 0.0
        for _ in range(rng.randint(0, 20)):
            if rng.random() < 0.05:
                records.append(rng.choice(("", "  ", "\t")))
                continue
            t = rng.choice((t, t + rng.uniform(0, 2), t + rng.uniform(0, 2), t - 1.0 if rng.random() < 0.1 else t))
            records.append(_random_record(rng, schema, t))
        schema_line = json.dumps({name: kind.value for name, kind in schema.fields})
        expected = _strict_read(schema, records)
        got = _read([line + "\n" for line in (schema_line, *records)])
        assert repr(got) == repr(expected)
        for message in got[0]:  # built by the gate or by the strict path
            assert type(message) is TraceMessage
            for name, kind in schema.fields:
                assert type(message.values[name]) is {N: float, B: bool, P: Point2}[kind]
        reference = reference_score(oracles[schema], Trace(schema, tuple(expected[0])))
        scored = expected[1] or (reference.scores, reference.summary)
        assert repr(_score_lines(oracles[schema], [schema_line, *records])) == repr(scored)
        outcomes["error" if expected[1] else "clean"] += 1
    assert min(outcomes.values()) > 300


def test_read_trace_reads_records_lazily():
    read = []

    def lines():
        for line in (SCHEMA, GOOD + "\n", "not json\n"):
            read.append(line)
            yield line

    schema, messages = read_trace(lines())
    assert schema.names() == ("x", "b", "p") and len(read) == 1
    assert next(messages).values["p"] == Point2(0.0, 0.0) and len(read) == 2
    with pytest.raises(TraceError, match="line 3: malformed record"):
        next(messages)


def test_read_trace_reports_bytes_that_are_not_utf8(tmp_path):
    with pytest.raises(TraceError, match="trace file is not valid UTF-8"):
        parse_trace(SCHEMA.encode() + b'{"t": 0, "x\xff": 1}\n')
    # A text file's bad byte is a TraceError too, from parse_trace as from read_trace.
    path = tmp_path / "bad.jsonl"
    path.write_bytes(SCHEMA.encode() + b'{"t": 0, "x\xff": 1}\n')
    for read in (parse_trace, read_trace):
        with open(path, encoding="utf-8") as file, pytest.raises(TraceError) as exc:
            read(file)
        assert str(exc.value) == "trace file is not valid UTF-8: invalid start byte b'\\xff'"
    # Far past the first block the file decodes: the error comes mid-iteration.
    data = (SCHEMA + (GOOD + "\n") * 1000).encode() + b"\xff\n"
    schema, messages = read_trace(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    with pytest.raises(TraceError, match=r"trace file is not valid UTF-8 after line \d+: invalid start byte"):
        list(messages)
    # A batch that does not decode is decoded a line at a time, so the line before the bad byte is named.
    for lines, bad in [(3, 3), (2001, 1501)]:
        text = [SCHEMA.strip().encode(), *[GOOD.encode()] * (lines - 1)]
        text[bad - 1] = b"\xff" + text[bad - 1]
        with pytest.raises(TraceError) as exc:
            parse_trace(b"\n".join(text) + b"\n")
        assert str(exc.value) == f"trace file is not valid UTF-8 after line {bad - 1}: invalid start byte b'\\xff'"


def _numbered_outcome(numbered):
    """The (line number, line) pairs of an iterator, then its TraceError text or None."""
    pairs = []
    try:
        for pair in numbered:
            pairs.append(pair)
    except TraceError as err:
        return pairs, str(err)
    return pairs, None


def _trace_outcome(read, source):
    """The Trace that `read` (parse_trace or read_trace) gives, or its TraceError text."""
    try:
        if read is parse_trace:
            return parse_trace(source)
        schema, messages = read_trace(source)
        return Trace(schema, tuple(messages))
    except TraceError as err:
        return str(err)


@pytest.mark.parametrize("case", sorted(BATCHED_FILES))
def test_batched_lines_are_the_lines_decoded_one_at_a_time(case, tmp_path):
    """read_trace_lines reads whole lines in batches, but yields the lines,
    numbers and decoding errors of the file's lines decoded one at a time.
    parse_trace and read_trace give one Trace or TraceError text for every
    source of the same bytes, which names the line before a bad byte as
    the lines decoded one at a time do; a text file, which decodes ahead,
    names the bad byte too."""
    data = BATCHED_FILES[case]
    one_at_a_time = _numbered_outcome(_numbered_lines(map(bytes.decode, io.BytesIO(data))))
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    for read in (parse_trace, read_trace):
        outcome = _trace_outcome(read, data)
        with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
            assert _trace_outcome(read, io.BytesIO(data)) == _trace_outcome(read, binary) == outcome
            assert _trace_outcome(read, bytearray(data)) == _trace_outcome(read, memoryview(data)) == outcome
            if "bad byte" in case:
                assert outcome == one_at_a_time[1]
                assert _trace_outcome(read, text).startswith("trace file is not valid UTF-8")
            else:
                assert _trace_outcome(read, text) == _trace_outcome(read, data.decode()) == outcome
    assert _numbered_outcome(_numbered_lines(_decoded_batches(io.BytesIO(data)))) == one_at_a_time
    assert len(one_at_a_time[0]) > 1 or "schema" in case
    assert ("bad byte" in case) == (one_at_a_time[1] is not None)
    # The schema is read as read_trace reads it, and the rest are its lines.
    try:
        schema, numbered = read_trace_lines(io.BytesIO(data))
    except TraceError as err:
        assert str(err) == one_at_a_time[1]
        return
    assert schema == read_trace(map(bytes.decode, io.BytesIO(data)))[0]
    pairs, error = _numbered_outcome(numbered)
    lines, expected = one_at_a_time
    after_schema = next(k for k, (_, line) in enumerate(lines) if line.strip()) + 1
    assert (pairs, error) == (lines[after_schema:], expected)


# Every line break of str.splitlines(), and the lines of a trace of SCHEMA's
# fields: good records, a decreasing t, blank lines and malformed ones.
_SPLITLINES_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_CUT_LINES = [GOOD, '{"t": 1.5, "x": -2.5, "b": false, "p": [0.5, 1]}', "", " \t", '{"t": 0, "x": ', "not json"]


@st.composite
def _cut_trace_texts(draw):
    """A trace text, its lines ended by any line break (the last by none,
    maybe), and the pieces of one cut of it, some of them empty."""
    lines = [SCHEMA.rstrip("\n"), *draw(st.lists(st.sampled_from(_CUT_LINES), max_size=6))]
    breaks = st.sampled_from(_SPLITLINES_BREAKS)
    text = "".join(line + draw(breaks) for line in lines[:-1]) + lines[-1] + draw(st.one_of(breaks, st.just("")))
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=8)))
    return text, [text[start:end] for start, end in zip([0, *cuts], [*cuts, len(text)])]


@settings(max_examples=300, deadline=None)
@given(_cut_trace_texts())
def test_any_cut_of_a_trace_text_reads_as_the_whole_text(cut):
    """read_trace_lines over an iterable of text reads the lines of the whole
    text's splitlines(), wherever it was cut: a line that runs across pieces,
    a "\r\n" split between two, and an empty piece change nothing."""
    text, pieces = cut
    assert list(_numbered_lines(pieces)) == list(enumerate(text.splitlines(), 1))
    assert _trace_outcome(parse_trace, pieces) == _trace_outcome(parse_trace, text)


@pytest.mark.parametrize("batch", [1, 2, 3, 7])
def test_a_text_split_in_slices_reads_as_its_bytes(batch, monkeypatch):
    r"""A str is split LINE_BATCH_BYTES characters at a time, as the module
    holds it when read_trace_lines is called. Slices that end inside a line
    longer than a slice, between the "\r" and "\n" of a "\r\n", or after a
    "\u2028" or a "\x85" give the lines of the whole text's splitlines(),
    and parse_trace gives what it gives of the text's bytes."""
    monkeypatch.setattr(odl.trace, "LINE_BATCH_BYTES", batch)
    decoded = {case: data.decode() for case, data in BATCHED_FILES.items() if "bad byte" not in case}
    assert len(decoded) == 4
    assert any(len(line) > batch for text in decoded.values() for line in text.splitlines())
    assert all(any(brk in text for text in decoded.values()) for brk in ("\r\n", "\u2028", "\x85"))
    for case, text in decoded.items():
        lines = list(enumerate(text.splitlines(), 1))
        after_schema = next(k for k, (_, line) in enumerate(lines) if line.strip()) + 1
        _, numbered = read_trace_lines(text)
        assert list(numbered) == lines[after_schema:], case
        assert _trace_outcome(parse_trace, text) == _trace_outcome(parse_trace, BATCHED_FILES[case]), case


@pytest.mark.parametrize("duration, records", [(60.0, 3001), (240.0, 12001)])
def test_parse_trace_of_a_text_holds_one_slice_of_lines(duration, records):
    """parse_trace(text) holds the text, one slice's lines and the messages:
    what it allocates beyond the Trace it returns stays under 128 KiB
    whatever the trace's length, where a list of every line of the text
    took ~690 KB at 3,001 records and ~2.7 MB at 12,001."""
    scenario = dataclasses.replace(load_scenario(load_example_scenario("eventful")), duration=duration, tick=0.02)
    text = dump_trace(generate_trace(scenario, seed=7))
    parse_trace(text)  # compiles the schema's record reader
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        parsed = parse_trace(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(parsed.messages) == records
    assert peak - held < 128 * 1024


def test_duration_examples():
    def at(times):
        return Trace(
            schema=TraceSchema(()),
            messages=tuple(TraceMessage(t=t, values={}) for t in times),
        )

    assert duration(at([1.0, 2.0])) == 1.0
    assert duration(at([5.0])) == 0.0
    assert duration(at([])) == 0.0
    assert duration(at([0.0, 0.5, 4.0])) == 4.0


def test_canonical_dump_round_trip():
    trace = parse_trace(TWO_COLLISIONS)
    text = dump_trace(trace)
    assert parse_trace(text) == trace
    assert dump_trace(parse_trace(text)) == text


KINDS_TRACE = (
    '{"n": "number", "b": "boolean", "p": "point2"}\n'
    '{"t": 0, "n": 2, "b": true, "p": [3, 4]}\n'
    '{"t": 1.5, "n": -1.5, "b": false, "p": [0.5, 0]}\n'
    '{"t": 2, "n": 7.25, "b": true, "p": [0, -1]}\n'
)
KINDS_OD = "f = scoring_function(event = b and n > 1, action = distance(p, point(0, 0)), frequency = all_sum);"


def _ior(values):
    values |= {"n": 0.0}


# Every way to change a dict in place, and to make one of the read type.
MUTATIONS = {
    "__setitem__": lambda values: values.__setitem__("n", 0.0),
    "__delitem__": lambda values: values.__delitem__("n"),
    "|=": _ior,
    "clear": lambda values: values.clear(),
    "pop": lambda values: values.pop("n"),
    "popitem": lambda values: values.popitem(),
    "setdefault": lambda values: values.setdefault("x", 0.0),
    "update": lambda values: values.update(n=0.0),
    "__init__": lambda values: values.__init__({"n": 0.0}),
    "the type": lambda values: type(values)({"n": "x", "b": True, "p": [0.0, 0.0]}),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_read_values_refuse_every_change(mutation):
    parsed = parse_trace(KINDS_TRACE).messages
    schema, streamed = read_trace(io.StringIO(KINDS_TRACE))
    for message in (*parsed, *streamed):
        values = message.values
        assert type(values) is read_values_type(schema)
        before = dict(values)
        with pytest.raises(TypeError, match="^the values of a message read from a trace are immutable"):
            MUTATIONS[mutation](values)
        assert values == before
        assert list(values) == ["n", "b", "p"]


# Plain copies of read values: each must be a dict that scores as they do.
COPIES = {
    "copy.copy": copy.copy,
    "copy.deepcopy": copy.deepcopy,
    "pickle": lambda values: pickle.loads(pickle.dumps(values)),
    "dict(values)": dict,
    "values.copy()": lambda values: values.copy(),
}


@pytest.mark.parametrize("copies", sorted(COPIES))
def test_copies_of_read_values_are_plain_dicts_that_score_the_same(copies):
    trace = parse_trace(KINDS_TRACE)
    checked = check_od(parse_od(KINDS_OD), trace.schema)
    report = score_trace(checked, trace)
    assert report == reference_score(checked, trace)
    assert report.summary == 5.0 + math.hypot(0.0, -1.0)
    copied = trace._replace(
        messages=tuple(message._replace(values=COPIES[copies](message.values)) for message in trace.messages)
    )
    assert [type(message.values) for message in copied.messages] == [dict] * 3
    assert copied == trace
    assert score_trace(checked, copied) == reference_score(checked, copied) == report
    assert dump_trace(copied) == dump_trace(trace)
    assert parse_trace(dump_trace(copied)) == parse_trace(dump_trace(trace)) == trace
    assert pickle.loads(pickle.dumps(trace)) == trace


def test_dump_trace_compiles_no_record_reader():
    # The writer tests every message in full, read or not, so it needs no
    # read values type and leaves the reader's cache as it was.
    schema = TraceSchema((("written_only", Kind.NUMBER),))
    before = _record_reader.cache_info()
    assert dump_trace(Trace(schema, (TraceMessage(0.0, {"written_only": 1.0}),))) == (
        '{"written_only": "number"}\n{"t": 0.0, "written_only": 1.0}\n'
    )
    assert _record_reader.cache_info() == before


def test_dump_trace_tests_read_values_changed_through_dict_itself():
    # dict.__setitem__ changes read values past their type's refusals. The
    # writer tests read values in full, so it refuses what that wrote, and
    # a field swapped for another of the same count of fields.
    trace = parse_trace('{"n": "number"}\n{"t": 0, "n": 1}\n')
    dict.__setitem__(trace.messages[0].values, "n", "x")
    with pytest.raises(ValueError, match="^message 0: field 'n' must be a number$"):
        dump_trace(trace)
    dict.__delitem__(trace.messages[0].values, "n")
    dict.__setitem__(trace.messages[0].values, "m", 1.0)
    with pytest.raises(ValueError, match="^message 0: field 'm' is not in the schema$"):
        dump_trace(trace)


def test_dump_trace_writes_read_values_without_the_coercers(monkeypatch):
    """Read values, as plain dicts do, take the writer's inline test, so an
    unchanged read trace calls no coercer of message_checker and is written
    back as the text it was read from."""
    calls = []

    def counting(schema, error):
        check = message_checker(schema, error)

        def counted(*args):
            calls.append(args[0])
            return check(*args)

        return counted

    monkeypatch.setattr(odl.trace, "message_checker", counting)
    # A schema of its own, so that the writer is made with the counting checker.
    text = (
        '{"dumped_n": "number", "dumped_b": "boolean", "dumped_p": "point2"}\n'
        '{"t": 0.0, "dumped_n": 2.0, "dumped_b": true, "dumped_p": [3.0, 4.0]}\n'
        '{"t": 1.5, "dumped_n": -1.5, "dumped_b": false, "dumped_p": [0.5, -0.0]}\n'
    )
    trace = parse_trace(text)
    assert dump_trace(trace) == text
    assert calls == []
    # Values the test refuses, ints here, go to the counting checker, to be converted.
    ints = TraceMessage(0, {"dumped_n": 2, "dumped_b": True, "dumped_p": [3, 4]})
    assert dump_trace(trace._replace(messages=(ints, trace.messages[1]))) == text
    assert calls == [0]


def test_dump_orders_fields_canonically():
    text = '{"a": "number", "b": "boolean"}\n{"b": true, "a": 1, "t": 0}\n'
    dumped = dump_trace(parse_trace(text))
    assert dumped.splitlines()[1] == '{"t": 0.0, "a": 1.0, "b": true}'


def test_concat_traces_guards():
    a = parse_trace('{"x": "number"}\n{"t": 5, "x": 0}\n')
    b = parse_trace('{"x": "number"}\n{"t": 1, "x": 0}\n')
    with pytest.raises(TraceError, match="decrease"):
        concat_traces(a, b)
    joined = concat_traces(b, a)
    assert [m.t for m in joined.messages] == [1.0, 5.0]


_names = st.from_regex(r"[a-su-z][a-z0-9_]{0,6}", fullmatch=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    fields = draw(
        st.dictionaries(_names, st.sampled_from(list(Kind)), min_size=0, max_size=4)
    )
    schema = TraceSchema(tuple(fields.items()))
    increments = draw(st.lists(st.floats(min_value=0, max_value=1e6), max_size=12))
    t = draw(st.floats(min_value=-1e6, max_value=1e6))
    messages = []
    for inc in increments:
        t = t + inc
        values = {}
        for name, kind in schema.fields:
            if kind is Kind.NUMBER:
                values[name] = draw(_finite)
            elif kind is Kind.BOOLEAN:
                values[name] = draw(st.booleans())
            else:
                values[name] = Point2(draw(_finite), draw(_finite))
        messages.append(TraceMessage(t=t, values=values))
    return Trace(schema=schema, messages=tuple(messages))


ODD_SCHEMA = TraceSchema((("n", Kind.NUMBER), ("b", Kind.BOOLEAN), ("p", Kind.POINT2)))


def odd(t=1.0, n=2.5, b=True, p=Point2(0.5, -0.5)):
    return TraceMessage(t, {"n": n, "b": b, "p": p})


class Meters(float):
    def __repr__(self):
        return "Meters()"


# Hand-built messages and what the writer makes of each: its record line,
# or the reader's refusal after "message <index>: ". It writes extreme and
# signed floats, sums of floats that overflow and a point as a list as they
# are, and an int as the float the reader reads. It refuses a bool or a
# float subclass as a number, an int or a float as a boolean, a tuple as a
# point and an int too large for a double.
ODD_MESSAGES = (
    (odd(), '{"t": 1.0, "n": 2.5, "b": true, "p": [0.5, -0.5]}'),
    (odd(t=-0.0, n=-0.0, b=False, p=Point2(-0.0, 0.0)), '{"t": -0.0, "n": -0.0, "b": false, "p": [-0.0, 0.0]}'),
    (odd(t=5e-324, n=-5e-324, p=Point2(5e-324, 2.2250738585072014e-308)),
     '{"t": 5e-324, "n": -5e-324, "b": true, "p": [5e-324, 2.2250738585072014e-308]}'),
    (odd(t=1e308, n=1e308, p=Point2(1e308, 1.7976931348623157e308)),
     '{"t": 1e+308, "n": 1e+308, "b": true, "p": [1e+308, 1.7976931348623157e+308]}'),
    (odd(n=-1e308, p=Point2(-1e308, -1.7976931348623157e308)),
     '{"t": 1.0, "n": -1e+308, "b": true, "p": [-1e+308, -1.7976931348623157e+308]}'),
    (odd(t=1e16, n=1e-7, p=Point2(123456789012345680.0, 0.1)),
     '{"t": 1e+16, "n": 1e-07, "b": true, "p": [1.2345678901234568e+17, 0.1]}'),
    (odd(t=3, n=7), '{"t": 3.0, "n": 7.0, "b": true, "p": [0.5, -0.5]}'),
    (odd(n=-3, p=Point2(1, 2)), '{"t": 1.0, "n": -3.0, "b": true, "p": [1.0, 2.0]}'),
    (odd(p=[1.0, 2.0]), '{"t": 1.0, "n": 2.5, "b": true, "p": [1.0, 2.0]}'),
    (odd(p=[1, 2 ** 53 + 1]), '{"t": 1.0, "n": 2.5, "b": true, "p": [1.0, 9007199254740992.0]}'),
    (odd(n=10**400), "field 'n' must be finite"),
    (odd(t=True, n=False), "field 't' must be a number"),
    (odd(n=True, p=Point2(True, 0.0)), "field 'n' must be a number"),
    (odd(p=Point2(True, 0.0)), "field 'p'[0] must be a number"),
    (odd(b=1), "field 'b' must be true or false"),
    (odd(b=0.0), "field 'b' must be true or false"),
    (odd(p=(3.0, 4)), "field 'p' must be a two-element [x, y] array"),
    (odd(p=[1.0, 2.0, 3.0]), "field 'p' must be a two-element [x, y] array"),
    (odd(t=Meters(0.25), n=Meters(1e300), p=Point2(Meters(-2.5), 1.0)), "field 't' must be a number"),
    (odd(n=Meters(1e300), p=Point2(Meters(-2.5), 1.0)), "field 'n' must be a number"),
    (odd(p=Point2(1.0, Meters(-2.5))), "field 'p'[1] must be a number"),
)


def test_dump_trace_writes_records_as_the_encoder_does():
    """Each message the reader's rule takes is written as json.JSONEncoder
    writes the values parse_trace reads back; each it refuses raises the
    reader's text, naming the message."""
    taken = [message for message, outcome in ODD_MESSAGES if outcome.startswith("{")]
    lines = [outcome for _, outcome in ODD_MESSAGES if outcome.startswith("{")]
    # Records are written in the order given, whatever their t.
    assert dump_trace(Trace(ODD_SCHEMA, tuple(taken))).splitlines()[1:] == lines
    for message, outcome in ODD_MESSAGES:
        if outcome in lines:
            text = dump_trace(Trace(ODD_SCHEMA, (message,)))
            assert text == encoder_dump(parse_trace(text)) == dump_trace(parse_trace(text))
            continue
        with pytest.raises(ValueError) as raised:
            dump_trace(Trace(ODD_SCHEMA, (*taken, message, *taken)))
        assert str(raised.value) == f"message {len(taken)}: {outcome}"
    empty = Trace(TraceSchema(()), (TraceMessage(0.5, {}), TraceMessage(2, {})))
    assert dump_trace(empty) == encoder_dump(parse_trace(dump_trace(empty))) == '{}\n{"t": 0.5}\n{"t": 2.0}\n'


# Schemas the writers refuse: (schema, schema_fault's text). A row of
# (str, Kind) pairs is one a schema line can state, and parse_trace refuses
# that line with the same text.
ODD_NAME = 'a{b}\'"\\\u00e9\n'
WRITER_REFUSALS = {
    "field_t": (TraceSchema((("t", Kind.BOOLEAN),)), "'t' is implicit and cannot be redeclared"),
    "name_with_a_space": (TraceSchema((("x y", Kind.NUMBER),)), "invalid field name 'x y'"),
    "odd_name": (
        TraceSchema(((ODD_NAME, Kind.NUMBER), ("c", Kind.BOOLEAN))), f"invalid field name '{ODD_NAME}'",
    ),
    "string_kind": (
        TraceSchema((("x", "number"),)), "field 'x' has unknown kind 'number' (expected number, boolean, or point2)",
    ),
    "field_not_a_pair": (TraceSchema((("x",),)), "schema fields: ('x',) is not a (name, kind) pair"),
    "fields_none": (TraceSchema(None), "schema fields: None is not a tuple"),
    "fields_a_list": (
        TraceSchema([("x", Kind.NUMBER)]), "schema fields: [('x', <Kind.NUMBER: 'number'>)] is not a tuple",
    ),
    "repeated_field": (
        TraceSchema((("x", Kind.NUMBER), ("y", Kind.NUMBER), ("x", Kind.BOOLEAN))), "duplicate schema field 'x'",
    ),
}


@pytest.mark.parametrize("case", sorted(WRITER_REFUSALS))
def test_writers_refuse_every_schema_the_reader_refuses(case):
    schema, text = WRITER_REFUSALS[case]
    assert schema_fault(schema.fields) == text
    for messages in ((), (TraceMessage(0.0, {"x": 1.0}),)):
        with pytest.raises(ValueError) as raised:
            dump_trace(Trace(schema, messages))
        assert str(raised.value) == text
        written = []
        with pytest.raises(ValueError) as raised:
            write_trace(schema, messages, written.append)
        assert str(raised.value) == text
        assert written == []
    fields = schema.fields
    if isinstance(fields, tuple) and all(
        len(field) == 2 and isinstance(field[0], str) and isinstance(field[1], Kind) for field in fields
    ):
        line = ", ".join(f"{json.dumps(name)}: {json.dumps(kind.value)}" for name, kind in fields)
        with pytest.raises(TraceError) as raised:
            parse_trace("{" + line + "}\n")
        assert str(raised.value) == f"line 1: {text}"


# A non-finite value in each field: the message and the reader's refusal.
NON_FINITE_AT = {
    "t": (lambda bad: odd(t=bad), "field 't' must be finite"),
    "n": (lambda bad: odd(n=bad), "field 'n' must be finite"),
    "b": (lambda bad: odd(b=bad), "field 'b' must be true or false"),
    "p.x": (lambda bad: odd(p=Point2(bad, 0.0)), "field 'p'[0] must be finite"),
    "p.y": (lambda bad: odd(p=Point2(0.0, bad)), "field 'p'[1] must be finite"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_AT))
def test_dump_trace_refuses_non_finite_values_in_every_field(field, bad):
    message, text = NON_FINITE_AT[field]
    with pytest.raises(ValueError) as raised:
        dump_trace(Trace(ODD_SCHEMA, (odd(), message(bad))))
    assert str(raised.value) == f"message 1: {text}"


@settings(max_examples=60, deadline=None)
@given(traces())
def test_dump_parse_round_trip_property(trace):
    text = dump_trace(trace)
    assert text == encoder_dump(trace)
    assert parse_trace(text) == trace
    schema, messages = read_trace(io.StringIO(text))
    assert schema == trace.schema
    assert tuple(messages) == trace.messages


@settings(max_examples=60, deadline=None)
@given(traces())
def test_duration_nonnegative(trace):
    assert duration(trace) >= 0.0


# Messages whose fields are not their schema's: (schema, values, error).
FIELD_MISMATCHES = {
    "missing": (ODD_SCHEMA, {"n": 2.5, "p": Point2(0.5, -0.5)}, "message 1: missing field 'b'"),
    "extra": (
        ODD_SCHEMA, {"n": 2.5, "b": True, "p": Point2(0.5, -0.5), "q": 1.0},
        "message 1: field 'q' is not in the schema",
    ),
    "renamed": (
        ODD_SCHEMA, {"n": 2.5, "B": True, "p": Point2(0.5, -0.5)},
        "message 1: field 'B' is not in the schema",
    ),
    "none": (ODD_SCHEMA, {}, "message 1: missing field 'n'"),
    "empty_schema": (TraceSchema(()), {"x": 1.0}, "message 1: field 'x' is not in the schema"),
    "not_a_mapping": (ODD_SCHEMA, None, "message 1: values must be a mapping, not NoneType"),
    "not_a_mapping_empty_schema": (TraceSchema(()), "", "message 1: values must be a mapping, not str"),
}


@pytest.mark.parametrize("case", sorted(FIELD_MISMATCHES))
def test_dump_trace_refuses_fields_that_differ_from_the_schema(case):
    schema, values, message = FIELD_MISMATCHES[case]
    good = {name: odd().values[name] for name in schema.names()}
    trace = Trace(schema, (TraceMessage(1.0, good), TraceMessage(2.0, values), TraceMessage(3.0, good)))
    with pytest.raises(ValueError) as raised:
        dump_trace(trace)
    assert str(raised.value) == message


def test_dump_trace_refuses_a_schema_that_repeats_a_field():
    schema = TraceSchema((("x", Kind.NUMBER), ("y", Kind.NUMBER), ("x", Kind.BOOLEAN)))
    for messages in ((), (TraceMessage(0.0, {"x": 1.0, "y": 2.0}),)):
        with pytest.raises(ValueError, match=r"^duplicate schema field 'x'$"):
            dump_trace(Trace(schema, messages))
