"""Trace helpers that only the tests use."""

from __future__ import annotations

import io
import json

from odl import CheckedOracle, Point2, ScoreReport, Trace, TraceError, dump_trace
from odl.engine import score_lines
from odl.trace import read_trace_lines


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


def line_report(checked: CheckedOracle, trace: Trace) -> ScoreReport:
    """The line program's report on the text of dump_trace(trace), read as
    `odl score` reads a trace file: read_trace_lines, then score_lines."""
    schema, lines = read_trace_lines(io.BytesIO(dump_trace(trace).encode()))
    assert schema == checked.schema
    return score_lines(checked, lines)
