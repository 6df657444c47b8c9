"""Streaming scoring engine: folds a trace through an oracle definition.

Each message is processed in three phases:

1. Timers. Every timer of every function decreases by the time elapsed
   since the previous message (0 for the first message); timers may go
   negative.
2. Evaluation, in declaration order. Each function's event is evaluated
   over the message fields, constants, and its own timers; none of these
   changes before phase 3, so an event that several functions repeat is
   evaluated once, by the first of them, and raises there. While the event
   holds, consecutive messages form a maximal sequence; `seq_time` is the
   time elapsed since the sequence opened. The condition (if any) gates
   firing. Firing cadence by frequency mode:
     - first: at most once per trace, at the first message where the event
       and condition hold.
     - action_sum without condition: at every event-true message.
     - action_sum with condition: once per maximal sequence, at the first
       message of the sequence where the condition holds.
     - all_sum: at every message where event and condition hold.
   Firing adds the action's value (0 when absent) to the score and queues
   the function's notifications with values evaluated right there. A
   non-finite action, notification value or score raises EvalError.
3. Notification. Queued notifications set the targeted timers; the effect
   is visible from the next message onward, which makes the result
   independent of declaration order.

One builder (`_build`) writes and compiles the Python source that does all
of this for one checked oracle, with its expressions inlined and a
record's functions under one error handler, which names the one that
raised by the index it set last. The function names are bound once, as
one tuple: the handler and the firing log index it, and the report zips
it with the scores. A program binds once each value it reads, and no
other. Its loop is the one every generated pass over records shares
(`trace.record_loop`), and a record binding from trace names the loop's
records and states how each binds t and the fields, whole: what it takes,
what it refuses, and a decreasing t. Two programs are made so, each at its
first use, and kept on the `CheckedOracle`:

- `generate_program` binds a message as `reference_score` does
  (`trace.message_fields`): read values with a finite float t as they
  stand, any other through the reader's coercers, which raise or convert
  them. It keeps the firing log. `score_messages` (and so `score_trace`)
  is its only caller; no CLI command runs it.
- `generate_line_program` binds a numbered line of a trace file through
  the reader's record gate (`trace.record_gate`), so it builds no message
  and keeps no firing log: its memory does not grow with the trace.
  `score_lines`, which every CLI scoring runs, is its only caller; with
  `log` it compiles one that keeps the log, for that call.

`reference.reference_score` implements the same semantics independently.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .errors import EvalError
from .evaluate import binder, emit_expr, emit_value, non_finite
from .evaluate import eval_expr  # noqa: F401  (unused: bench/probe.py counts calls through this name)
from .syntax import Expr, Frequency, Literal, format_expr
from .trace import Trace, TraceMessage, TraceSchema, message_fields, record_gate, record_loop

if TYPE_CHECKING:
    from .checker import CheckedOracle


class Firing(NamedTuple):
    """One score update: which function fired at which message, the score
    delta, and the (target, timer, value) notifications it dispatched."""

    message_index: int
    function: str
    delta: float
    notifications: tuple[tuple[str, str, float], ...] = ()


class ScoreReport(NamedTuple):
    """Final per-function scores (declaration order), the summary score, and
    the firing log."""

    scores: tuple[tuple[str, float], ...]
    summary: float
    firings: tuple[Firing, ...] = ()

    def score_map(self) -> dict[str, float]:
        return dict(self.scores)


Program = Callable[[Iterable[TraceMessage]], ScoreReport]
LineProgram = Callable[[Iterable[tuple[int, str]]], ScoreReport]


def _build(checked: CheckedOracle, log: bool,
           binding: Callable[[TraceSchema, dict[str, str]], tuple[str, str, dict[str, object], list[str]]]) -> Callable:
    """Generate and compile `program(items)`, one checked oracle's scoring
    over each `item` of `items`, with a firing log appended to `firings`
    when `log` is set. The record binding `binding(schema, fields)` gives
    `items`, `item`, a namespace and lines that bind t and each field read
    to its local in `fields`, refusing what the record rule refuses, a
    decreasing t too; trace.record_loop writes the loop around them.
    Scores, sequence flags and timers live in locals, and each function's
    firing rule is specialised to its frequency mode. A notification waits
    in locals of its notifier and is written into the target's timer after
    the record.

    A repeated test is evaluated once per record: `binder` binds each value
    once, so equal tests are equal text, and when a function's event text
    repeats an earlier function's, the earlier one assigns it to the local
    `eK` (K its index) in its `if` and the later ones test `eK`. Each
    function's block begins `fn = K`, and one `except _EvalError` after
    them all names the function at `fn` in the tuple of the names. That
    tuple is the one binding of the names: a firing or a notification
    names a function by its index in it, and the report zips it with the
    scores. A value only the firing log reads, a notified timer's name, is
    bound only with the log."""
    od, timers = checked.od, checked.timers
    namespace = {"_EvalError": EvalError, "_isfinite": isfinite, "_non_finite": non_finite, "_ScoreReport": ScoreReport}
    bind = binder(namespace)
    constants = od.constant_map()
    fields: dict[str, str] = {}  # field name -> local variable
    timer_vars = {
        fn.name: {timer: f"m{k}_{j}" for j, timer in enumerate(sorted(timers[fn.name]))}
        for k, fn in enumerate(od.functions)
    }

    def emit(expr: Expr, own: Mapping[str, str], read: set[str] | None = None) -> str:
        def resolve(name: str) -> str:
            if read is not None:
                read.add(name)
            if name in own:
                return own[name]
            if name in constants:
                return emit_value(constants[name], bind)
            return fields.setdefault(name, f"x{len(fields)}")

        return emit_expr(expr, resolve, bind)

    def assign_finite(var: str, expr: Expr, own: Mapping[str, str], what: str) -> list[str]:
        # A finite float literal is its own value: no conversion, no check.
        if isinstance(expr, Literal) and type(expr.value) is float and isfinite(expr.value):
            return [f"{var} = {expr.value!r}"]
        return [
            f"{var} = float({emit(expr, own)})",
            f"if not _isfinite({var}): raise _non_finite({bind(what)}, {var})",
        ]

    scores = {fn.name: f"s{k}" for k, fn in enumerate(od.functions)}
    names = bind(tuple(scores))  # the one binding of the function names
    init: list[str] = ["firings = []"] if log else []
    body: list[str] = []
    apply: list[str] = []
    # An event's text -> the local its first function assigns it to and the
    # index of that function's `if` line in body.
    shared: dict[str, tuple[str, int]] = {}
    for k, fn in enumerate(od.functions):
        own = {"t": "t", "seq_time": f"(t - st{k})", **timer_vars[fn.name]}
        event = test = emit(fn.event, own)
        if event in shared:
            test, at = shared[event]
            body[at] = f"if ({test} := {event}):"
        elif not event.isidentifier():  # a local or a bound value: nothing to save
            shared[event] = (f"e{k}", len(body) + 1)
        read: set[str] = set()
        condition = None if fn.condition is None else emit(fn.condition, own, read)
        per_sequence = fn.frequency is Frequency.ACTION_SUM and condition is not None
        once = per_sequence or fn.frequency is Frequency.FIRST
        sequence = per_sequence or "seq_time" in read
        init.append(f"s{k} = {emit_value(fn.initial, bind)}")
        init += [f"{var} = 0.0" for var in timer_vars[fn.name].values()]

        fire = [f"f{k} = True"] if once else []
        if fn.action is None:
            fire += ["d = 0.0", f"s{k} += d"]
        else:
            fire += [
                *assign_finite("d", fn.action, own, f"action '{format_expr(fn.action)}'"),
                f"s{k} += d",
                f"if not _isfinite(s{k}): raise _non_finite('score', s{k})",
            ]
        dispatched, writes = [], []
        for notification in fn.notifications:
            for timer, value in notification.bindings:
                var = f"n{k}_{len(writes)}"
                fire += assign_finite(
                    var, value, own, f"notification value for '{notification.target}.{timer}'"
                )
                writes.append(f"    {timer_vars[notification.target][timer]} = {var}")
                if log:
                    dispatched.append(f"({names}[{list(scores).index(notification.target)}], {bind(timer)}, {var}), ")
        if writes:
            fire.append(f"w{k} = True")
            init.append(f"w{k} = False")
            apply += [f"if w{k}:", f"    w{k} = False", *writes]
        if log:
            fire.append(f"firings.append({bind(Firing, '_Firing')}(index, {names}[{k}], d, ({''.join(dispatched)})))")

        tests = [] if condition is None else [condition]
        if once:
            tests.append(f"not f{k}")
            init.append(f"f{k} = False")
        if tests:
            fire = [f"if {' and '.join(tests)}:", *_indent(fire)]
        if sequence:
            init.append(f"q{k} = False")
            opened = [f"q{k} = True", f"st{k} = t", *([f"f{k} = False"] if per_sequence else [])]
            fire = [f"if not q{k}:", *_indent(opened), *fire]
        body += [f"fn = {k}", f"if {test}:", *_indent(fire), *(["else:", f"    q{k} = False"] if sequence else [])]
    body = [
        "try:",
        *_indent(body),
        "except _EvalError as exc:",
        f"    raise _EvalError(f\"message {{index}} (t={{t!r}}), function '{{{names}[fn]}}': {{exc}}\") from exc",
        *apply,
    ]

    if od.summary is None:
        summary = ["total = 0.0", *(f"total += s{k}" for k in range(len(od.functions)))]
    else:
        summary = [
            "try:",
            f"    total = float({emit(od.summary, scores)})",
            "except _EvalError as exc:",
            "    raise _EvalError(f'summary: {exc}') from exc",
        ]
    summary += [
        "if not _isfinite(total): raise _non_finite('summary', total)",
        f"return _ScoreReport(tuple(zip({names}, ({', '.join(scores.values())},))), total{', tuple(firings)' if log else ''})",
    ]
    items, item, bound, bound_lines = binding(checked.schema, fields)
    namespace.update(bound)
    # Timers run from 0.0 at the first record, where no time has elapsed.
    rundown = [f"    {var} -= dt" for group in timer_vars.values() for var in group.values()]
    if rundown:
        bound_lines = [*bound_lines, "if index:", "    dt = t - prev_t", *rundown]
    return record_loop(namespace, f"program({items})", item, items, init, bound_lines, body, summary)


def generate_program(checked: CheckedOracle) -> Program:
    """Generate, compile and return the scoring program of a checked oracle:
    a function of an iterable of messages, pulled one at a time so errors
    come in their order, that keeps the firing log. It binds each message
    through trace.message_fields, which takes read values as they stand,
    sends any other to the reader's coercers, which raise EngineError for
    fields or values the reader refuses, and refuses a decreasing t."""
    return _build(checked, True, message_fields)


def generate_line_program(checked: CheckedOracle, log: bool = False) -> LineProgram:
    """Generate, compile and return the line program of a checked oracle:
    generate_program's scoring, with the firing log if `log` is set, over
    the (line number, line) pairs of the records of a trace of its schema.

    Each line goes through trace.record_gate, which checks every field,
    refuses a decreasing t and binds the fields the oracle reads (a point
    as the gate's two-float list, which `distance` reads as it reads a
    Point2). So no message is built, memory grows with the trace only by
    the firing log, and a line the gate refuses raises the reader's
    diagnostic at its place.
    """
    return _build(checked, log, record_gate)


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def score_messages(checked: CheckedOracle, messages: Iterable[TraceMessage]) -> ScoreReport:
    """Score messages of the schema `checked` was checked against, in time
    order, by running the oracle's program (compiled at the first call) over
    them. It pulls one message at a time and only the firing log grows with
    their number, so a `read_trace` iterator is scored without holding it."""
    return checked.program(messages)


def score_lines(checked: CheckedOracle, numbered: Iterable[tuple[int, str]], log: bool = False) -> ScoreReport:
    """Score the (line number, line) pairs of the records of a trace of the
    schema `checked` was checked against, such as read_trace_lines returns,
    by running its line program (compiled at the first call). Memory does
    not grow with the trace: the report has no firing log, unless `log`
    compiles a program that keeps it, for this call alone."""
    return (generate_line_program(checked, log=True) if log else checked.line_program)(numbered)


def score_trace(checked: CheckedOracle, trace: Trace) -> ScoreReport:
    """Score one trace: check that its schema is the one `checked` was
    checked against, then score_messages over its messages."""
    return score_messages(checked, checked._messages_of(trace))


def report_to_json(report: ScoreReport, include_firings: bool = False) -> str:
    """Machine-readable report; floats render via shortest round-trip repr.

    Scoring raises EvalError before a score turns non-finite, so a report
    from score_trace always renders. As a backstop for reports built by
    hand, NaN and infinities raise ValueError instead of being written as
    `NaN`/`Infinity`, which are not JSON (RFC 8259 §6)."""
    obj: dict[str, object] = {
        "scores": {name: value for name, value in report.scores},
        "summary": report.summary,
    }
    if include_firings:
        obj["firings"] = [
            {
                "message_index": f.message_index,
                "function": f.function,
                "delta": f.delta,
                "notifications": [
                    {"target": target, "timer": timer, "value": value}
                    for target, timer, value in f.notifications
                ],
            }
            for f in report.firings
        ]
    return json.dumps(obj, allow_nan=False)


def report_to_text(report: ScoreReport, include_firings: bool = False) -> str:
    lines = [f"{name}: {value!r}" for name, value in report.scores]
    lines.append(f"summary: {report.summary!r}")
    if include_firings:
        lines.append(f"firings ({len(report.firings)}):")
        for f in report.firings:
            note = ""
            if f.notifications:
                parts = ", ".join(
                    f"{target}.{timer}={value!r}"
                    for target, timer, value in f.notifications
                )
                note = f" notify {parts}"
            lines.append(f"  [{f.message_index}] {f.function} delta={f.delta!r}{note}")
    return "\n".join(lines) + "\n"
