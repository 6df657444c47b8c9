"""Timed execution traces: data model, JSON-lines ingestion, canonical output.

A trace file is UTF-8 text. Line 1 is a schema object mapping field names to
one of "number" | "boolean" | "point2". Every following line is one record
object carrying "t" (seconds) plus exactly the schema fields, in time order.
Point values are two-element [x, y] arrays. All numbers must be finite.

`read_trace_lines` is the one way into a trace: it takes the text, its
bytes, a binary file or any iterable of text, and gives the schema and
the numbered lines after it, splitting one slice of the text or one batch
of the bytes at a time, so that it never holds every line of a trace.
`read_trace` adds the schema's record reader,
a lazy iterator of checked messages, and `parse_trace` collects that into
a `Trace`. The value rule is stated once, per kind (`_TAKEN`). The record
gate (`record_gate`) takes a canonical line; any other takes the strict
path, which raises every diagnostic. The reader of one schema
(`_record_reader`) and the engine's line program run it; the CLI runs
only the line program, so the reader serves only the library.
`write_trace` writes a trace line by line as its messages are taken, once
`schema_fault`, the reader's schema rule, passes; `dump_trace` joins them.
One loop head (`record_loop`) writes and compiles every generated pass over
records: the reader, the writer and the engine's two programs. A message
built in memory is held to the reader's coercers (`message_checker`),
which raise the reader's diagnostics or convert its values.

The reader gives each message's values as an immutable dict of a type that
its schema's reader alone makes (`read_values_type`). The rule took them
when they were read, and no method of theirs changes them, so the engine's
message program and `reference_score` take such values with a finite float
t as they stand and send any other message to the coercers. The message
program's binding (`message_fields`) states that rule whole: it binds the
message, takes or converts it, and refuses a decreasing t, as the record
gate does for a line. The writer, whose traffic is mostly messages built
in memory (`odl gen`'s), holds a plain dict or read values to the rule's
generated test (`_TAKEN`) and sends any other values, and what it refuses,
to the coercers.

`Point2`, `TraceSchema`, `TraceMessage` and `Trace` are named tuples: they
iterate, compare equal to a plain tuple of the same fields, and are derived
with `_replace`, not `dataclasses.replace`.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections.abc import Mapping
from enum import Enum
from functools import lru_cache
from math import inf, isfinite
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Union

from .errors import EngineError, TraceError


class Kind(Enum):
    """Value kinds carried by trace fields and inferred for expressions."""

    NUMBER = "number"
    BOOLEAN = "boolean"
    POINT2 = "point2"


class Point2(NamedTuple):
    """A Cartesian map coordinate in meters."""

    x: float
    y: float


Value = Union[float, bool, Point2]

# A name of the oracle language: a field must be one to be read by name.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TraceSchema(NamedTuple):
    """Ordered field-name/kind declarations; the time field t is implicit."""

    fields: tuple[tuple[str, Kind], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def as_dict(self) -> dict[str, Kind]:
        return dict(self.fields)


def schema_fault(fields: object) -> str | None:
    """Why read_trace would refuse a schema of these fields, in its words,
    or None: fields that are not a tuple of (name, kind) pairs, which no
    schema line gives, a field named t, a name that is not a name of the
    language, a kind that is not a Kind, or a name given twice."""
    if not isinstance(fields, tuple):
        return f"schema fields: {fields!r} is not a tuple"
    seen = set()
    for field in fields:
        if not (isinstance(field, tuple) and len(field) == 2):
            return f"schema fields: {field!r} is not a (name, kind) pair"
        name, kind = field
        if name == "t":
            return "'t' is implicit and cannot be redeclared"
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            return f"invalid field name '{name}'"
        if not isinstance(kind, Kind):
            return f"field '{name}' has unknown kind {kind!r} (expected number, boolean, or point2)"
        if name in seen:
            return f"duplicate schema field '{name}'"
        seen.add(name)
    return None


class TraceMessage(NamedTuple):
    t: float
    values: Mapping[str, Value]


class Trace(NamedTuple):
    schema: TraceSchema
    messages: tuple[TraceMessage, ...]


def json_object(text: str, what: str, error: Callable[[str], Exception], **hooks) -> dict:
    """json.loads(text, **hooks) restricted to objects. Each way the decoder
    fails, a key repeated in any object, and a value that is not an object
    raise error(message) with a message that names `what`."""

    def distinct(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"duplicate {what} field '{key}'")
            obj[key] = value
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=distinct, **hooks)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: {exc.msg}") from exc
    except ValueError:
        # The only other ValueError json raises: an integer literal longer
        # than sys.get_int_max_str_digits() (Python 3.11, 3.10.7 and later).
        raise error(
            f"malformed {what}: integer literal exceeds {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise error(f"malformed {what}: values nested too deeply") from None
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    return obj


def _strict_json_object(line: str, lineno: int, what: str) -> dict:
    """json_object for one trace line, rejecting NaN/Infinity."""

    def reject_constant(text):
        raise TraceError(f"non-finite number {text} is not admitted", line=lineno)

    return json_object(
        line, what, lambda message: TraceError(message, line=lineno), parse_constant=reject_constant,
    )


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
    # JSON decodes a point to a list; a message built in memory may hold a Point2.
    if type(value) is not list and type(value) is not Point2 or len(value) != 2:
        raise TraceError(f"{where} must be a two-element [x, y] array", line=lineno)
    x = _as_finite_number(value[0], f"{where}[0]", lineno)
    y = _as_finite_number(value[1], f"{where}[1]", lineno)
    return Point2(x, y)


_COERCE = {Kind.NUMBER: _as_finite_number, Kind.BOOLEAN: _as_boolean, Kind.POINT2: _as_point}

# The reader's value rule as source, per kind: the test that a local `{v}`
# holds a value taken as it stands, and its floats, whose sums (_taken's)
# must be finite (t is a number); `{array}` tests a point's container. A
# value refused goes to its kind's coercer in _COERCE, to be converted or
# refused.
_TAKEN = {
    Kind.NUMBER: ("type({v}) is float", ("{v}",)),
    Kind.BOOLEAN: ("({v} is True or {v} is False)", ()),
    Kind.POINT2: ("{array} and len({v}) == 2 and type({v}[0]) is type({v}[1]) is float", ("{v}[0]", "{v}[1]")),
}


def _taken(fields: Iterable[tuple[str, Kind]], array: str) -> list[str]:
    """_TAKEN's tests of t and each (local, kind) of `fields`, then `_isfinite`
    of their floats' sum, one test per 64 floats: the compiler recurses once
    per `+` of a sum, so one sum of thousands would raise RecursionError."""
    tests, floats = [], []
    for var, kind in (("t", Kind.NUMBER), *fields):
        test, summands = _TAKEN[kind]
        tests.append(test.format(v=var, array=array.format(v=var)))
        floats += [summand.format(v=var) for summand in summands]
    return [*tests, *(f"_isfinite({' + '.join(floats[k:k + 64])})" for k in range(0, len(floats), 64))]


_KINDS = {kind.value: kind for kind in Kind}


def _parse_schema(line: str, lineno: int) -> TraceSchema:
    obj = _strict_json_object(line, lineno, "schema")
    # A kind that is not a Kind's name stays as it is, for schema_fault to refuse.
    fields = tuple((name, _KINDS.get(text, text) if isinstance(text, str) else text) for name, text in obj.items())
    fault = schema_fault(fields)
    if fault is not None:
        raise TraceError(fault, line=lineno)
    return TraceSchema(fields)


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


# What str.splitlines() splits at.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _numbered_lines(pieces: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) with lines split exactly as str.splitlines()
    splits the whole text that the pieces join to. Files split on fewer
    characters (a form feed, for one, is a line break to splitlines), and a
    slice of a text ends anywhere, so each piece is split again. A piece's
    last line, unless a break other than "\r" ends it, is held for the next,
    which may go on with the line or with the "\n" of a "\r\n"; an empty
    piece adds nothing. The parts of a held line are joined once, when it
    ends, so a line cut across many pieces costs its length, not its length
    times theirs."""
    lineno, held, cr = 0, [], False
    try:
        for piece in pieces:
            if not piece:
                continue
            # A "\r" that ended the held line is put back, so that a "\n" after
            # it is no line of its own; either way the first line is "".
            lines = ("\r" + piece if cr else piece).splitlines()
            end = piece[-1]
            cr = end == "\r"
            last = lines.pop() if cr or end not in _LINE_BREAKS else None
            if lines:
                if held:
                    held.append(lines[0])
                    lines[0] = "".join(held)
                    held = []
                yield from enumerate(lines, lineno + 1)
                lineno += len(lines)
            if last is not None:
                held.append(last)
        if held:
            yield lineno + 1, "".join(held)
    except UnicodeDecodeError as exc:
        # A batch of _decoded_batches that does not decode is decoded a line
        # at a time, which puts the bad bytes on the line after the last one
        # read. A text file decodes ahead in blocks, so they lie somewhere
        # after it.
        after = f" after line {lineno}" if lineno else ""
        bad = exc.object[exc.start : exc.end]
        raise TraceError(f"trace file is not valid UTF-8{after}: {exc.reason} {bad!r}") from None


def _refused(
    check: Callable[[dict, int, int], tuple[float, dict[str, Value]]],
    line: str, lineno: int, record_no: int, prev_t: float,
) -> tuple[float, dict[str, Value]] | None:
    """(t, values) of a line the generated gate refused, None for a blank
    line, or TraceError: the strict path, which raises every diagnostic."""
    if not line.strip():
        return None
    record = check(_strict_json_object(line, lineno, "record"), lineno, record_no)
    if record[0] < prev_t:
        raise TraceError(f"record {record_no}: decreasing timestamp {record[0]!r} after {prev_t!r}",
                         line=lineno)
    return record


def record_gate(schema: TraceSchema, fields: Mapping[str, str]) -> tuple[str, str, dict[str, object], list[str]]:
    """The record rule of one schema as a record binding: the loop it reads
    (`numbered`, of items `lineno, line`), its namespace, and the lines of
    that loop's body that bind t and each field's local in `fields`, or
    `continue` for a blank line, with `index` and `prev_t` of record_loop.

    One gate takes a line that _scan reads whole as an object of t and the
    schema's fields whose floats (t, numbers, coordinates) have finite
    sums, 64 at a time, whose booleans are True or False and whose t does
    not decrease. It binds t and each field in schema order to its local
    (u<k> if it has none): a float, a bool, or a point as a two-float list.
    Such a record has no string values, so its only quote characters are
    two per key plus any in values that a repeated key overwrote: the quote
    count is 2 * len(obj) exactly when no key repeats. Every other line
    goes to _refused, the strict path, which gives (t, values) with points
    as Point2s, bound through `_fields`, or raises every diagnostic. Field
    names are bound in the namespace; the source holds indices and counts."""
    namespace: dict[str, object] = {
        "_scan": _scan, "_get": itemgetter("t", *schema.names()), "_isfinite": isfinite, "_refused": _refused,
        "_check": _record_checker(schema),
    }
    strict = []
    if fields:
        namespace["_fields"] = itemgetter(*fields)
        # itemgetter returns a tuple only for two or more names.
        strict = ["    " + ", ".join(fields.values()) + ("," if len(fields) > 1 else "") + " = _fields(values)"]
    names = [fields.get(name, f"u{k}") for k, name in enumerate(schema.names())]
    kinds = [kind for _, kind in schema.fields]
    test = " and ".join([*_taken(zip(names, kinds), "type({v}) is list"), "t >= prev_t"])
    lines = [
        "try:",
        "    obj, end = _scan(line, 0)",
        "except (StopIteration, ValueError, RecursionError):",
        "    obj = end = None",
        "taken = False",
        f"if type(obj) is dict and end == len(line) and len(obj) == {len(names) + 1}"
        f" and line.count('\"') == {2 * len(names) + 2}:",
        "    try:",
        f"        {', '.join(['t', *names])} = _get(obj)",  # of one key: a value, not a tuple
        "    except KeyError:",
        "        pass",
        "    else:",
        f"        taken = {test}",
        "if not taken:",
        "    record = _refused(_check, line, lineno, index + 1, prev_t)",
        "    if record is None:",
        "        continue",
        "    t, values = record",
        *strict,
    ]
    return "numbered", "lineno, line", namespace, lines


class _ReadValues(dict):
    """The base of each schema's type of read values: a dict that no call
    through its own methods makes or changes. Its copies (copy, deepcopy,
    pickle, dict(values)) are plain dicts."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the values of a message read from a trace are immutable; dict(values) is a plain copy")

    __new__ = __init__ = __setitem__ = __delitem__ = __ior__ = _refuse  # type: ignore[assignment]
    clear = pop = popitem = setdefault = update = _refuse  # type: ignore[assignment]

    def __reduce__(self):
        return dict, (dict(self),)


def record_loop(
    namespace: dict[str, object], signature: str, item: str, items: str,
    init: list[str], bind: list[str], body: list[str], after: Iterable[str] = (),
) -> Callable:
    """The one loop head of every generated pass over records: write, compile
    in `namespace` and return `def <signature>:`, which runs `init`, then
    for each `item` of `items` runs `bind` (which binds t), `prev_t = t`,
    `body` and `index += 1`, and after the loop runs `after`. So every
    pass keeps `index`, the records before this one, and `prev_t`, the last
    record's t (-_inf at first), the same way. The code's file name is
    `<odl NAME>`, NAME the function's."""
    name = signature.partition("(")[0]
    loop = [*bind, "prev_t = t", *body, "index += 1"]
    source = "\n".join([
        f"def {signature}:", *("    " + line for line in [*init, "index, prev_t = 0, -_inf"]),
        f"    for {item} in {items}:", *("        " + line for line in loop),
        *("    " + line for line in after), "",
    ])
    namespace["_inf"] = inf
    exec(compile(source, f"<odl {name}>", "exec"), namespace)
    return namespace[name]  # type: ignore[return-value]


# Cached so that reading many traces of one schema compiles one reader.
@lru_cache(maxsize=16)
def _record_reader(schema: TraceSchema) -> tuple[Callable[[Iterator[tuple[int, str]]], Iterator[TraceMessage]], type]:
    """Generate, compile and return the record reader of one schema, a
    generator of the messages of (line number, line) pairs through
    record_gate in record_loop, and the type of their values
    (read_values_type). Messages and points are built by tuple.__new__,
    which skips the named tuples' own __new__: the gate has checked each
    point's length and types."""
    names = schema.names()
    fields = {name: f"x{k}" for k, name in enumerate(names)}
    values = [
        f"k{k}: {f'_new(_Point2, x{k})' if kind is Kind.POINT2 else f'x{k}'}"
        for k, (_, kind) in enumerate(schema.fields)
    ]
    items, item, namespace, gate = record_gate(schema, fields)
    read = type("ReadValues", (_ReadValues,), {"__slots__": ()})
    namespace.update(
        _names=names, _new=tuple.__new__, _Message=TraceMessage, _Values=read, _empty=dict.__new__, _fill=dict.update,
    )
    if Kind.POINT2 in schema.as_dict().values():
        namespace["_Point2"] = Point2  # read where a point's value is made
    init = [f"[{', '.join(f'k{k}' for k in range(len(names)))}] = _names"]
    body = ["values = _empty(_Values)", f"_fill(values, {{{', '.join(values)}}})", "yield _new(_Message, (t, values))"]
    return record_loop(namespace, f"read_records({items})", item, items, init, gate, body), read


def read_values_type(schema: TraceSchema) -> type:
    """The type of the values of each message read_trace reads under
    `schema`, made and cached with its record reader. Only that reader makes
    one, of values its rule took, and no method of theirs changes them, so
    such values with a finite float t need no second test: message_fields
    and reference_score take them as they stand. A reader made again after
    the cache evicted this one makes another type, whose values both send
    to message_checker."""
    return _record_reader(schema)[1]


def _read_schema(numbered: Iterator[tuple[int, str]]) -> TraceSchema:
    """The schema of numbered trace lines, read from the first that is not
    blank; the iterator is left at the line after it."""
    for lineno, line in numbered:
        if line.strip():
            return _parse_schema(line, lineno)
    raise TraceError("empty trace file: missing schema line")


# Bytes of whole lines that read_trace_lines reads and decodes at a time
# from bytes or a binary file, and characters of a text that it splits at a time.
LINE_BATCH_BYTES = 16 * 1024


def _decoded_batches(file: IO[bytes]) -> Iterator[str]:
    """The text of a binary file in batches of whole lines, each decoded as
    one. A batch that does not decode is decoded a line at a time instead,
    so that the error comes after the lines before the bad byte."""
    while batch := file.readlines(LINE_BATCH_BYTES):
        try:
            text = b"".join(batch).decode()
        except UnicodeDecodeError:
            yield from map(bytes.decode, batch)
        else:
            yield text


TraceSource = Union[str, bytes, bytearray, memoryview, IO[bytes], Iterable[str]]


def read_trace_lines(source: TraceSource) -> tuple[TraceSchema, Iterator[tuple[int, str]]]:
    """The schema of a trace and the (line number, line) pairs of the lines
    after it, for a program that runs record_gate. `source` is the text,
    split in slices of LINE_BATCH_BYTES characters; its bytes, as bytes, a
    bytearray or a memoryview, or a file whose reads return bytes, read and
    decoded in batches of whole lines; or any other iterable of text, such
    as a text file, taken as it is. Each piece is split again at line
    breaks, and a line that runs across pieces is joined, so the lines are
    those of the whole text's splitlines(), wherever it was cut, and only
    one piece's lines are held at a time. io.BytesIO shares a bytes source
    but copies a bytearray or a memoryview once. A bad byte raises
    TraceError naming the line before it; a text file decodes ahead in
    blocks, so there the bad byte lies somewhere after the line named."""
    if isinstance(source, str):
        text, size = source, LINE_BATCH_BYTES
        source = (text[start : start + size] for start in range(0, len(text), size))
    elif isinstance(source, (bytes, bytearray, memoryview)):
        source = _decoded_batches(io.BytesIO(source))
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = _decoded_batches(source)
    numbered = _numbered_lines(source)
    return _read_schema(numbered), numbered


def read_trace(source: TraceSource) -> tuple[TraceSchema, Iterator[TraceMessage]]:
    """Read a trace from `source`, as read_trace_lines takes it: the schema
    at once, the records lazily. Records are checked as they are yielded,
    so memory does not grow with the trace, and an error in a record is
    raised when the iteration reaches it. Diagnostics name the offending
    (1-based) line."""
    schema, numbered = read_trace_lines(source)
    return schema, _record_reader(schema)[0](numbered)


def parse_trace(source: TraceSource) -> Trace:
    """Parse a whole trace, enforcing schema conformance and time
    monotonicity: read_trace, collected into a Trace."""
    schema, messages = read_trace(source)
    return Trace(schema=schema, messages=tuple(messages))


def message_checker(schema: TraceSchema, error: Callable[[str], Exception]) -> Callable[..., tuple[float, dict]]:
    """The reader's rule for a message, from its coercers: a function of
    (index, t, values, into) that raises error(f"message {index}: ...") at
    the first fault (values that are not a mapping, a foreign field, a
    missing one, t, each field in schema order) in the reader's words, or
    writes the fields into `into`, each as the reader converts it, and
    returns (t, into), t converted. reference_score and the lines of
    message_fields call it for each message they do not take untested, the
    writer for each its generated test refuses."""
    keys = dict.fromkeys(schema.names()).keys()
    fields = tuple((name, _COERCE[kind], f"field '{name}'") for name, kind in schema.fields)

    def check(index: int, t: object, values: Mapping[str, object], into: dict) -> tuple[float, dict]:
        if not isinstance(values, Mapping):
            raise error(f"message {index}: values must be a mapping, not {type(values).__name__}")
        if values.keys() != keys:
            foreign = [name for name in values if name not in keys]
            if foreign:
                raise error(f"message {index}: field '{foreign[0]}' is not in the schema")
            missing = [name for name in keys if name not in values]
            if missing:
                raise error(f"message {index}: missing field '{missing[0]}'")
            # Else the names match, though keys() gave them as no set (a list, say).
        try:
            t = _as_finite_number(t, "field 't'", None)
            for name, coerce, where in fields:
                into[name] = coerce(values[name], where, None)
        except TraceError as exc:
            raise error(f"message {index}: {exc}") from None
        return t, into

    return check


def message_fields(schema: TraceSchema, fields: Mapping[str, str]) -> tuple[str, str, dict[str, object], list[str]]:
    """The reader's rule for a message as a record binding: the loop it
    reads (`messages`, of items `message`), its namespace, and the lines of
    that loop's body that bind t, `values` and each field named in `fields`
    to its local, then raise EngineError if t decreases below record_loop's
    `prev_t`. Values of read_values_type(schema) with a finite float t are
    taken as they stand: the reader's rule took them, and no method of
    theirs changes them. Others go to message_checker, which raises
    EngineError or rebinds t and `values`, converted, as in reference_score."""
    namespace = {"_convert": message_checker(schema, EngineError), "_error": EngineError, "_isfinite": isfinite,
                 "_Read": read_values_type(schema)}
    lines = [
        "t, values = message",
        "if type(values) is not _Read or type(t) is not float or not _isfinite(t):",
        "    t, values = _convert(index, t, values, {})",
    ]
    if fields:
        namespace["_fields"] = itemgetter(*fields)
        # Of one name, itemgetter gives a value, not a tuple.
        lines.append(f"{', '.join(fields.values())} = _fields(values)")
    lines.append('if t < prev_t: raise _error(f"message {index}: timestamp {t!r} decreases below {prev_t!r}")')
    return "messages", "message", namespace, lines


# Cached so that dumping many traces of one schema compiles one writer.
@lru_cache(maxsize=16)
def _record_writer(schema: TraceSchema) -> Callable[[Iterable[TraceMessage], Callable[[str], object]], None]:
    """Generate, compile and return the record writer of one schema: a
    function of any iterable of messages and a `write` callable, which it
    calls with each message's line, followed by a line break, as the
    message is taken. Values that are a plain dict or read values (of any
    schema's read_values_type, which answer no missing name) take _TAKEN's
    tests, read ones too, so the writer needs no record reader; any other
    values (a dict subclass may answer a missing name through __missing__),
    and what those tests refuse, go to message_checker. A fault is a
    ValueError, and a line is one f-string of the exact floats, bools and
    two-float points it binds: what json.JSONEncoder writes of them."""
    names = schema.names()
    fields = [f"x{k}" for k in range(len(names))]
    namespace = {"_convert": message_checker(schema, ValueError), "_isfinite": isfinite, "_ReadValues": _ReadValues}
    test = " and ".join([
        f"(type(values) is dict or type(values).__base__ is _ReadValues) and len(values) == {len(names)}",
        *_taken(zip(fields, (kind for _, kind in schema.fields)), "(type({v}) is _Point2 or type({v}) is list)"),
    ])
    check, convert = [f"taken = {test}"], ["t, values = _convert(index, t, values, {})"]
    if names:
        namespace["_fields"] = itemgetter(*names)
        bind = f"{', '.join(fields)} = _fields(values)"
        check = ["try:", f"    {bind}", "except (KeyError, TypeError):", "    taken = False", "else:", f"    taken = {test}"]
        convert.append(bind)
    # write_trace has refused every name that is not a name of the language,
    # so none needs an escape, in JSON or in the f-string.
    body = ""
    for (name, kind), var in zip(schema.fields, fields):
        body += f', "{name}": '
        if kind is Kind.NUMBER:
            body += f"{{{var}!r}}"
        elif kind is Kind.BOOLEAN:
            namespace["_bool"] = ("false", "true")
            body += f"{{_bool[{var}]}}"
        else:
            namespace["_Point2"] = Point2  # read by _TAKEN's test of a point
            body += f"[{{{var}[0]!r}}, {{{var}[1]!r}}]"
    line = "f" + repr('{{"t": {t!r}' + body + "}}\n")
    bind = ["t, values = message", *check, "if not taken:", *("    " + step for step in convert)]
    return record_loop(namespace, "write_records(messages, write)", "message", "messages", [], bind, [f"write({line})"])


def write_trace(schema: TraceSchema, messages: Iterable[TraceMessage], write: Callable[[str], object]) -> None:
    """Pass `write` the text of dump_trace one line at a time, each with its
    line break: the schema line, then the line of each message as it is
    taken from `messages`, so that a trace can be written without being held.
    A schema parse_trace would refuse raises ValueError(schema_fault) first."""
    fault = schema_fault(schema.fields)
    if fault is not None:
        raise ValueError(fault)
    write(json.dumps({name: kind.value for name, kind in schema.fields}) + "\n")
    _record_writer(schema)(messages, write)


def dump_trace(trace: Trace) -> str:
    """Canonical serialization: schema line, then records with 't' first and
    fields in schema declaration order: what write_trace writes, joined.

    A schema or a message parse_trace would refuse raises ValueError in its
    words, naming the message (0-based). An int is written as its float, and
    records in the order given, so parse_trace(dump_trace(tr)) == tr when
    every value has its kind's type and t does not decrease."""
    lines: list[str] = []
    write_trace(trace.schema, trace.messages, lines.append)
    return "".join(lines)
