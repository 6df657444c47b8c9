"""Streaming scoring engine: folds a trace through an oracle definition.

Each message is processed in three phases:

1. Timers. Every timer of every function decreases by the time elapsed
   since the previous message (0 for the first message); timers may go
   negative.
2. Evaluation, in declaration order. Each function's event is evaluated
   over the message fields, constants, and its own timers. While the event
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

Expressions run as the closures `check_od` compiled (`compile_expr`); only
the summary, evaluated once per trace, walks the tree with `eval_expr`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Iterable

from .checker import CheckedOracle, CompiledFunction
from .errors import EngineError, EvalError
from .evaluate import Env, eval_expr, non_finite
from .syntax import Frequency, format_expr
from .trace import Trace, TraceMessage


@dataclass(frozen=True)
class Firing:
    """One score update: which function fired at which message, the score
    delta, and the (target, timer, value) notifications it dispatched."""

    message_index: int
    function: str
    delta: float
    notifications: tuple[tuple[str, str, float], ...] = ()


@dataclass(frozen=True)
class ScoreReport:
    """Final per-function scores (declaration order), the summary score, and
    the firing log."""

    scores: tuple[tuple[str, float], ...]
    summary: float
    firings: tuple[Firing, ...] = ()

    def score_map(self) -> dict[str, float]:
        return dict(self.scores)


class _FunctionState:
    __slots__ = (
        "compiled", "score", "fired_first", "in_sequence", "sequence_start",
        "fired_this_sequence", "timers",
    )

    def __init__(self, compiled: CompiledFunction, timer_names: frozenset[str]):
        self.compiled = compiled
        self.score = compiled.fn.initial
        self.fired_first = False
        self.in_sequence = False
        self.sequence_start = 0.0
        self.fired_this_sequence = False
        self.timers = {name: 0.0 for name in sorted(timer_names)}


def summarize(checked: CheckedOracle, scores: tuple[tuple[str, float], ...]) -> float:
    """Evaluate the summary over final scores; the default is their sum,
    accumulated in declaration order. Once per trace, so it walks the tree."""
    od = checked.od
    if od.summary is None:
        total = 0.0
        for _, score in scores:
            total += score
    else:
        env = Env(constants=od.constant_map(), scores=dict(scores))
        try:
            total = float(eval_expr(od.summary, env))
        except EvalError as exc:
            raise EvalError(f"summary: {exc}") from exc
    if not isfinite(total):
        raise non_finite("summary", total)
    return total


class ScoringEngine:
    """Feed messages in time order via step(), then finalize().

    One engine scores one trace; construct a fresh engine per trace. The
    checked oracle itself is immutable and shareable. The engine runs the
    closures `check_od` compiled; it never walks an expression tree.
    """

    def __init__(self, checked: CheckedOracle):
        self._checked = checked
        self._states = [
            _FunctionState(compiled, checked.timers[compiled.fn.name])
            for compiled in checked.compiled
        ]
        self._prev_t: float | None = None
        self._index = 0
        self._firings: list[Firing] = []

    def step(self, message: TraceMessage) -> None:
        t = message.t
        if self._prev_t is not None and t < self._prev_t:
            raise EngineError(
                f"message {self._index}: timestamp {t!r} decreases below {self._prev_t!r}"
            )
        # Phase 1: timers.
        dt = 0.0 if self._prev_t is None else t - self._prev_t
        for state in self._states:
            for name in state.timers:
                state.timers[name] -= dt

        # Phase 2: evaluate in declaration order, deferring notifications.
        values = message.values
        queued: list[tuple[str, str, float]] = []
        for state in self._states:
            compiled = state.compiled
            fn = compiled.fn
            timers = state.timers
            try:
                if compiled.event(values, t, timers, None):
                    if not state.in_sequence:
                        state.in_sequence = True
                        state.sequence_start = t
                        state.fired_this_sequence = False
                    cond_ok = True
                    if compiled.condition is not None:
                        cond_ok = compiled.condition(values, t, timers, t - state.sequence_start)
                    if fn.frequency is Frequency.FIRST:
                        fire = cond_ok and not state.fired_first
                    elif fn.frequency is Frequency.ACTION_SUM:
                        if fn.condition is None:
                            fire = True
                        else:
                            fire = cond_ok and not state.fired_this_sequence
                    else:
                        fire = cond_ok
                    if fire:
                        if fn.frequency is Frequency.FIRST:
                            state.fired_first = True
                        elif fn.frequency is Frequency.ACTION_SUM and fn.condition is not None:
                            state.fired_this_sequence = True
                        delta = 0.0
                        if compiled.action is not None:
                            delta = float(compiled.action(values, t, timers, None))
                            if not isfinite(delta):
                                raise non_finite(f"action '{format_expr(fn.action)}'", delta)
                        state.score += delta
                        if not isfinite(state.score):
                            raise non_finite("score", state.score)
                        dispatched: list[tuple[str, str, float]] = []
                        for target, timer, value_closure in compiled.notifications:
                            value = float(value_closure(values, t, timers, None))
                            if not isfinite(value):
                                raise non_finite(f"notification value for '{target}.{timer}'", value)
                            dispatched.append((target, timer, value))
                        queued.extend(dispatched)
                        self._firings.append(
                            Firing(self._index, fn.name, delta, tuple(dispatched))
                        )
                else:
                    state.in_sequence = False
            except EvalError as exc:
                raise EvalError(
                    f"message {self._index} (t={t!r}), function '{fn.name}': {exc}"
                ) from exc

        # Phase 3: apply notifications (overwrite semantics).
        if queued:
            by_name = {state.compiled.fn.name: state for state in self._states}
            for target, timer, value in queued:
                by_name[target].timers[timer] = value

        self._prev_t = t
        self._index += 1

    def finalize(self) -> ScoreReport:
        scores = tuple((state.compiled.fn.name, state.score) for state in self._states)
        return ScoreReport(
            scores=scores,
            summary=summarize(self._checked, scores),
            firings=tuple(self._firings),
        )


def _require_matching_schema(checked: CheckedOracle, trace: Trace) -> None:
    if checked.schema.as_dict() != trace.schema.as_dict():
        raise EngineError("trace schema does not match the one the oracle was checked against")


def score_messages(checked: CheckedOracle, messages: Iterable[TraceMessage]) -> ScoreReport:
    """Score messages of the schema `checked` was checked against, in time
    order: init, fold step over them as they come, finalize. Only the firing
    log grows with their number, so a `read_trace` iterator is scored
    without holding the trace."""
    engine = ScoringEngine(checked)
    for message in messages:
        engine.step(message)
    return engine.finalize()


def score_trace(checked: CheckedOracle, trace: Trace) -> ScoreReport:
    """Score one trace: score_messages over its messages."""
    _require_matching_schema(checked, trace)
    return score_messages(checked, trace.messages)


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
