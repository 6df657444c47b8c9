"""Timed execution traces: data model, JSON-lines ingestion, canonical output.

A trace file is UTF-8 text. Line 1 is a schema object mapping field names to
one of "number" | "boolean" | "point2". Every following line is one record
object carrying "t" (seconds) plus exactly the schema fields, in time order.
Point values are two-element [x, y] arrays. All numbers must be finite.

`read_trace` is the one reader and the only record check: it returns the
schema and a lazy iterator of checked messages, so a trace can be scored
without being held. `parse_trace` collects that iterator into a `Trace`.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite
from typing import IO, Callable, Iterable, Iterator, Mapping, Union

from .errors import TraceError


class Kind(Enum):
    """Value kinds carried by trace fields and inferred for expressions."""

    NUMBER = "number"
    BOOLEAN = "boolean"
    POINT2 = "point2"


@dataclass(frozen=True)
class Point2:
    """A Cartesian map coordinate in meters."""

    x: float
    y: float


Value = Union[float, bool, Point2]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class TraceSchema:
    """Ordered field-name/kind declarations; the time field t is implicit."""

    fields: tuple[tuple[str, Kind], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def as_dict(self) -> dict[str, Kind]:
        return dict(self.fields)


@dataclass(frozen=True)
class TraceMessage:
    t: float
    values: Mapping[str, Value]


@dataclass(frozen=True)
class Trace:
    schema: TraceSchema
    messages: tuple[TraceMessage, ...]


def _strict_json_object(line: str, lineno: int, what: str) -> dict:
    """json.loads restricted to objects, rejecting duplicate keys and NaN/Infinity."""

    def no_duplicates(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise TraceError(f"duplicate {what} field '{key}'", line=lineno)
            obj[key] = value
        return obj

    def reject_constant(text):
        raise TraceError(f"non-finite number {text} is not admitted", line=lineno)

    try:
        obj = json.loads(line, object_pairs_hook=no_duplicates, parse_constant=reject_constant)
    except TraceError:
        raise
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed {what}: {exc.msg}", line=lineno) from exc
    except ValueError:
        # The only other ValueError json raises: an integer literal longer
        # than sys.get_int_max_str_digits() (Python 3.11, 3.10.7 and later).
        raise TraceError(
            f"malformed {what}: integer literal exceeds {sys.get_int_max_str_digits()} digits",
            line=lineno,
        ) from None
    except RecursionError:
        raise TraceError(f"malformed {what}: values nested too deeply", line=lineno) from None
    if not isinstance(obj, dict):
        raise TraceError(f"{what} must be a JSON object", line=lineno)
    return obj


def _as_finite_number(value: object, where: str, lineno: int) -> float:
    # Decoded JSON holds exact types; bool is not int here, so it is refused.
    if type(value) is not float:
        if type(value) is not int:
            raise TraceError(f"{where} must be a number", line=lineno)
        try:
            value = float(value)
        except OverflowError:
            raise TraceError(f"{where} must be finite", line=lineno) from None
    if not isfinite(value):
        raise TraceError(f"{where} must be finite", line=lineno)
    return value


def _as_boolean(value: object, where: str, lineno: int) -> bool:
    if type(value) is not bool:
        raise TraceError(f"{where} must be true or false", line=lineno)
    return value


def _as_point(value: object, where: str, lineno: int) -> Point2:
    if type(value) is not list or len(value) != 2:
        raise TraceError(f"{where} must be a two-element [x, y] array", line=lineno)
    x = _as_finite_number(value[0], f"{where}[0]", lineno)
    y = _as_finite_number(value[1], f"{where}[1]", lineno)
    return Point2(x, y)


_COERCE = {Kind.NUMBER: _as_finite_number, Kind.BOOLEAN: _as_boolean, Kind.POINT2: _as_point}


def _parse_schema(line: str, lineno: int) -> TraceSchema:
    obj = _strict_json_object(line, lineno, "schema")
    fields: list[tuple[str, Kind]] = []
    for name, kind_text in obj.items():
        if name == "t":
            raise TraceError("'t' is implicit and cannot be redeclared", line=lineno)
        if not _NAME_RE.match(name):
            raise TraceError(f"invalid field name '{name}'", line=lineno)
        try:
            kind = Kind(kind_text)
        except ValueError:
            raise TraceError(
                f"field '{name}' has unknown kind {kind_text!r} "
                "(expected number, boolean, or point2)",
                line=lineno,
            ) from None
        fields.append((name, kind))
    return TraceSchema(tuple(fields))


def _record_checker(schema: TraceSchema) -> Callable[[dict, int, int], tuple[float, dict[str, Value]]]:
    """The record check for one schema: (decoded object, line, record number)
    -> (t, values), or TraceError. The key set and one coercer per field are
    computed here once, not once per record."""
    keys = frozenset(("t", *schema.names()))
    fields = tuple((name, _COERCE[kind], f"field '{name}'") for name, kind in schema.fields)

    def check(obj: dict, lineno: int, record_no: int) -> tuple[float, dict[str, Value]]:
        if "t" not in obj:
            raise TraceError(f"record {record_no}: missing field 't'", line=lineno)
        t = _as_finite_number(obj["t"], "field 't'", lineno)
        if obj.keys() != keys:
            for name in obj:
                if name not in keys:
                    raise TraceError(f"record {record_no}: unexpected field '{name}'", line=lineno)
        try:
            # Fields in schema order: the first missing or ill-kinded one raises.
            values = {name: coerce(obj[name], where, lineno) for name, coerce, where in fields}
        except KeyError as exc:
            raise TraceError(f"record {record_no}: missing field '{exc.args[0]}'", line=lineno) from None
        return t, values

    return check


# The C scanner behind json.loads, called directly: it skips no whitespace
# and takes no hooks, so a line it does not take whole goes to the strict path.
_scan = json.JSONDecoder().scan_once


def _numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) with lines split exactly as str.splitlines()
    splits the whole text. Files split on fewer characters (a form feed, for
    one, is a line break to splitlines), so each piece is split again."""
    lineno = 0
    try:
        for chunk in lines:
            for line in chunk.splitlines() or ("",):
                lineno += 1
                yield lineno, line
    except UnicodeDecodeError as exc:
        # A file decodes ahead in blocks, so the offset in exc is not the
        # file's; the bad bytes lie somewhere after the last line read.
        after = f" after line {lineno}" if lineno else ""
        bad = exc.object[exc.start : exc.end]
        raise TraceError(f"trace file is not valid UTF-8{after}: {exc.reason} {bad!r}") from None


def _messages(schema: TraceSchema, numbered: Iterator[tuple[int, str]]) -> Iterator[TraceMessage]:
    check = _record_checker(schema)
    record_no = 0
    prev_t = -inf
    for lineno, line in numbered:
        # Fast path: plain decode and a quote count stand in for the strict
        # decode. A record that passes check() has no string values, so its
        # only quote characters are two per key plus any in values that a
        # repeated key overwrote: the count is 2 * len(obj) exactly when no
        # key repeats. Any refusal is decided again by the strict path, which
        # raises the diagnostic.
        record = None
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            pass
        else:
            if end == len(line) and type(obj) is dict and line.count('"') == 2 * len(obj):
                try:
                    record = check(obj, lineno, record_no + 1)
                except TraceError:
                    pass
        if record is None:
            if not line.strip():
                continue
            record = check(_strict_json_object(line, lineno, "record"), lineno, record_no + 1)
        record_no += 1
        t, values = record
        if t < prev_t:
            raise TraceError(
                f"record {record_no}: decreasing timestamp {t!r} after {prev_t!r}",
                line=lineno,
            )
        prev_t = t
        yield TraceMessage(t, values)


def read_trace(lines: Iterable[str]) -> tuple[TraceSchema, Iterator[TraceMessage]]:
    """Read a trace from its lines: the schema at once, the records lazily.

    `lines` is any iterable of text such as an open text file or
    `text.splitlines()`; each item is split again at line breaks, so line
    numbers are those of `text.splitlines()`. Records are checked as they
    are yielded, so memory does not grow with the trace, and an error in a
    record is raised when the iteration reaches it. Diagnostics name the
    offending (1-based) file line.
    """
    numbered = _numbered_lines(lines)
    for lineno, line in numbered:
        if line.strip():
            schema = _parse_schema(line, lineno)
            return schema, _messages(schema, numbered)
    raise TraceError("empty trace file: missing schema line")


def parse_trace(source: Union[str, bytes, IO[str], IO[bytes]]) -> Trace:
    """Parse a whole trace file, enforcing schema conformance and time
    monotonicity: read_trace over its lines, collected into a Trace.

    Diagnostics name the offending (1-based) file line.
    """
    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceError(f"trace file is not valid UTF-8: {exc}") from exc
    schema, messages = read_trace(source.splitlines())
    return Trace(schema=schema, messages=tuple(messages))


def _json_value(value: Value) -> object:
    if isinstance(value, Point2):
        return [value.x, value.y]
    return value


def dump_trace(trace: Trace) -> str:
    """Canonical serialization: schema line, then records with 't' first and
    fields in schema declaration order. parse_trace(dump_trace(tr)) == tr."""
    lines = [json.dumps({name: kind.value for name, kind in trace.schema.fields})]
    for msg in trace.messages:
        obj: dict[str, object] = {"t": msg.t}
        for name, _ in trace.schema.fields:
            obj[name] = _json_value(msg.values[name])
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


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
