"""Trace model, JSONL parsing, canonical serialization."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odl import (
    Kind,
    Point2,
    Trace,
    TraceError,
    TraceMessage,
    TraceSchema,
    concat_traces,
    dump_trace,
    duration,
    parse_trace,
    read_trace,
)
from odl.cli import main

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


def test_read_trace_reads_records_lazily():
    read = []

    def lines():
        for line in (SCHEMA, GOOD, "not json"):
            read.append(line)
            yield line

    schema, messages = read_trace(lines())
    assert schema.names() == ("x", "b", "p") and len(read) == 1
    assert next(messages).values["p"] == Point2(0.0, 0.0) and len(read) == 2
    with pytest.raises(TraceError, match="line 3: malformed record"):
        next(messages)


def test_read_trace_reports_bytes_that_are_not_utf8():
    with pytest.raises(TraceError, match="trace file is not valid UTF-8"):
        parse_trace(SCHEMA.encode() + b'{"t": 0, "x\xff": 1}\n')
    # Far past the first block the file decodes: the error comes mid-iteration.
    data = (SCHEMA + (GOOD + "\n") * 1000).encode() + b"\xff\n"
    schema, messages = read_trace(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    with pytest.raises(TraceError, match=r"trace file is not valid UTF-8 after line \d+: invalid start byte"):
        list(messages)


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


@settings(max_examples=60, deadline=None)
@given(traces())
def test_dump_parse_round_trip_property(trace):
    text = dump_trace(trace)
    assert parse_trace(text) == trace
    schema, messages = read_trace(io.StringIO(text))
    assert schema == trace.schema
    assert tuple(messages) == trace.messages


@settings(max_examples=60, deadline=None)
@given(traces())
def test_duration_nonnegative(trace):
    assert duration(trace) >= 0.0
