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

`_emit` writes the Python source that does all of this for one checked
oracle, with its expressions inlined and a record's functions under one
error handler, which names the one that raised by the index it set last,
and `_program` puts it in a function that loops over its input and returns
the report, through the loop head that every generated pass over records
shares (`trace.record_loop`).
Two programs are made so, each at its first use, and kept on the
`CheckedOracle`; they differ only in how a record binds t and the fields:

- `generate_program` binds them from a message as `reference_score` does
  (`trace.message_fields`): read values with a finite float t as they
  stand, any other through the reader's coercers, which raise or convert
  them. It keeps the firing log. `score_messages` (and so `score_trace`)
  is its only caller; no CLI command runs it.
- `generate_line_program` binds them from a numbered line of a trace file
  through the reader's record gate (`trace.record_gate`), so it builds no
  message and keeps no firing log: its memory does not grow with the trace.
  `score_lines`, which every CLI scoring runs, is its only caller; with
  `log` it compiles one that keeps the log, for that call.

`reference.reference_score` implements the same semantics independently.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .errors import EngineError, EvalError
from .evaluate import binder, emit_expr, emit_value, non_finite, runtime
from .evaluate import eval_expr  # noqa: F401  (unused: bench/probe.py counts calls through this name)
from .syntax import Expr, Frequency, Literal, format_expr
from .trace import Trace, TraceMessage, message_fields, record_gate, record_loop

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


def _regress(index: int, t: float, prev: float) -> EngineError:
    return EngineError(f"message {index}: timestamp {t!r} decreases below {prev!r}")


class _Parts(NamedTuple):
    """What _emit generates for one oracle, for _program to assemble."""

    namespace: dict[str, object]  # the names the lines read
    init: list[str]  # before the loop
    body: list[str]  # per record, after t and the fields are bound
    apply: list[str]  # per record, after every function ran
    summary: list[str]  # after the loop; returns the ScoreReport
    fields: dict[str, str]  # each field the oracle reads -> its local
    timers: list[str]  # every timer's local


def _emit(checked: CheckedOracle, log: bool) -> _Parts:
    """The lines of one checked oracle's scoring, which read t, `index` (the
    record's) and each field's local as the head binds them, with a firing
    log appended to `firings` when `log` is set. Scores, sequence flags and
    timers live in locals, and each function's firing rule is specialised
    to its frequency mode. A notification waits in locals of its notifier
    and is written into the target's timer after the record.

    A repeated test is evaluated once per record: `binder` binds each value
    once, so equal tests are equal text, and when a function's event text
    repeats an earlier function's, the earlier one assigns it to the local
    `eK` (K its index) in its `if` and the later ones test `eK`. Each
    function's block begins `fn = K`, and one `except _EvalError` after
    them all names the function at `fn` in a bound tuple of the names."""
    od, timers = checked.od, checked.timers
    namespace = runtime()
    namespace.update(
        _EvalError=EvalError, _Firing=Firing, _isfinite=isfinite,
        _non_finite=non_finite, _regress=_regress,
        _ScoreReport=ScoreReport,
    )
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
                var = f"n{k}_{len(dispatched)}"
                fire += assign_finite(
                    var, value, own, f"notification value for '{notification.target}.{timer}'"
                )
                dispatched.append(f"({bind(notification.target)}, {bind(timer)}, {var}), ")
                writes.append(f"    {timer_vars[notification.target][timer]} = {var}")
        if dispatched:
            fire.append(f"w{k} = True")
            init.append(f"w{k} = False")
            apply += [f"if w{k}:", f"    w{k} = False", *writes]
        if log:
            fire.append(f"firings.append(_Firing(index, {bind(fn.name)}, d, ({''.join(dispatched)})))")

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
    names = bind(tuple(fn.name for fn in od.functions))
    body = [
        "try:",
        *_indent(body),
        "except _EvalError as exc:",
        f"    raise _EvalError(f\"message {{index}} (t={{t!r}}), function '{{{names}[fn]}}': {{exc}}\") from exc",
    ]

    if od.summary is None:
        summary = ["total = 0.0", *(f"total += s{k}" for k in range(len(od.functions)))]
    else:
        scores = {fn.name: f"s{k}" for k, fn in enumerate(od.functions)}
        summary = [
            "try:",
            f"    total = float({emit(od.summary, scores)})",
            "except _EvalError as exc:",
            "    raise _EvalError(f'summary: {exc}') from exc",
        ]
    pairs = "".join(f"({bind(fn.name)}, s{k}), " for k, fn in enumerate(od.functions))
    summary += [
        "if not _isfinite(total): raise _non_finite('summary', total)",
        f"return _ScoreReport(({pairs}), total{', tuple(firings)' if log else ''})",
    ]
    timer_list = [var for group in timer_vars.values() for var in group.values()]
    return _Parts(namespace, init, body, apply, summary, fields, timer_list)


def _program(parts: _Parts, items: str, item: str, bind: list[str]) -> Callable:
    """`program(items)` through trace.record_loop: parts.init, then for each
    `item` of `items` `bind` (which binds t and each read field's local),
    the timer run-down, parts.body and parts.apply, and after the loop what
    parts.summary returns."""
    # Timers run from 0.0 at the first record, where no time has elapsed.
    rundown = ["if index:", "    dt = t - prev_t", *(f"    {var} -= dt" for var in parts.timers)]
    bind = [*bind, *(rundown if parts.timers else [])]
    return record_loop(parts.namespace, f"program({items})", item, items, parts.init, bind,
                       [*parts.body, *parts.apply], parts.summary)


def generate_program(checked: CheckedOracle) -> Program:
    """Generate, compile and return the scoring program of a checked oracle:
    a function of an iterable of messages, pulled one at a time so errors
    come in their order, that keeps the firing log. It binds each message
    through trace.message_fields, which takes read values as they stand and
    sends any other to the reader's coercers, which raise EngineError for
    fields or values the reader refuses; then it refuses a decreasing t."""
    parts = _emit(checked, log=True)
    namespace, fields = message_fields(checked.schema, parts.fields, EngineError)
    parts.namespace.update(namespace)
    bind = ["t, values = message", *fields, "if t < prev_t: raise _regress(index, t, prev_t)"]
    return _program(parts, "messages", "message", bind)


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
    parts = _emit(checked, log)
    namespace, gate = record_gate(checked.schema, parts.fields)
    parts.namespace.update(namespace)
    return _program(parts, "numbered", "lineno, line", gate)


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
