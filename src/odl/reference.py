"""Batch re-implementation of the scoring semantics, used as a differential
oracle for the streaming engine.

Instead of incremental per-function flags and generated code, this walks
the trace by index, evaluates every expression with the closure that
`evaluate.evaluator` builds for it once per call, materializes per-function
tables (event truth, sequence start, first-fired index per trace and per
sequence start), and decides each firing declaratively from those tables:

  - first:                fire at i iff condition holds and no index fired yet.
  - action_sum, no cond:  fire at every event-true index.
  - action_sum with cond: fire at i iff condition holds and no index of the
                          maximal sequence starting at seq_start[i] fired yet.
  - all_sum:              fire wherever event and condition hold.

Timer replay and notification dispatch still advance with the index walk
(event truth at i may depend on notifications fired at indices < i, so a
fully separate pass cannot exist), but the firing log is only assembled
afterwards from the materialized firing rows. The summary is a closure
too, so the engine and the reference share no evaluation code. Like the
engine, it reads only a `CheckedOracle`, which check_od's checks took.

Per-function state and closures live in lists indexed by declaration
position; only a notification's target is looked up by name, in one
name -> timer-table map. One `Env` serves the whole trace, its `fields`
replaced for each message.
"""

from __future__ import annotations

from math import isfinite

from .checker import CheckedOracle
from .engine import Firing, ScoreReport
from .errors import EngineError, EvalError
from .evaluate import Env, evaluator, non_finite
from .evaluate import eval_expr  # noqa: F401  (unused: bench/probe.py counts calls through this name)
from .syntax import Frequency, format_expr
from .trace import Trace

# Read once: an enum member is slow to read as a class attribute.
_FIRST, _ACTION_SUM = Frequency.FIRST, Frequency.ACTION_SUM


def reference_score(checked: CheckedOracle, trace: Trace) -> ScoreReport:
    """Score a trace by table materialization; equals score_trace exactly."""
    messages = checked._messages_of(trace)
    od = checked.od
    functions = od.functions
    n = len(messages)
    names = [fn.name for fn in functions]
    constants = od.constant_map()

    event_true = [[False] * n for _ in functions]
    seq_start = [[0] * n for _ in functions]
    # First-fired index per function (n: none yet), and per function and
    # sequence start index (absent: none yet).
    first_fired = [n] * len(functions)
    first_fired_in_seq: list[dict[int, int]] = [{} for _ in functions]
    # (index, fn position, delta, notifications) in dispatch order.
    firing_rows: list[tuple[int, int, float, tuple[tuple[str, str, float], ...]]] = []
    totals = [fn.initial for fn in functions]
    timers = [{timer: 0.0 for timer in sorted(checked.timers[name])} for name in names]
    timers_of = dict(zip(names, timers))
    # Each expression as a closure, built once; None for an absent one.
    events = [evaluator(fn.event) for fn in functions]
    conditions = [None if fn.condition is None else evaluator(fn.condition) for fn in functions]
    actions = [None if fn.action is None else evaluator(fn.action) for fn in functions]
    bindings = [
        [(notif.target, timer, evaluator(value)) for notif in fn.notifications for timer, value in notif.bindings]
        for fn in functions
    ]

    env = Env(constants=constants)
    previous_t = 0.0
    for i, message in enumerate(messages):
        t = message.t
        if i > 0 and t < previous_t:
            raise EngineError(f"message {i}: timestamp {t!r} decreases below {previous_t!r}")
        dt = 0.0 if i == 0 else t - previous_t
        previous_t = t
        for table in timers:
            for timer in table:
                table[timer] -= dt

        env.fields = dict(message.values, t=t)
        queued: list[tuple[str, str, float]] = []
        for pos, fn in enumerate(functions):
            env.timers = timers[pos]
            try:
                ev = bool(events[pos](env))
                event_true[pos][i] = ev
                if not ev:
                    continue
                start = i if i == 0 or not event_true[pos][i - 1] else seq_start[pos][i - 1]
                seq_start[pos][i] = start
                cond_ok = True
                condition = conditions[pos]
                if condition is not None:
                    env.seq_time = t - messages[start].t
                    cond_ok = bool(condition(env))
                    env.seq_time = None
                in_seq = first_fired_in_seq[pos]
                if fn.frequency is _FIRST:
                    fire = cond_ok and first_fired[pos] > i
                elif fn.frequency is _ACTION_SUM:
                    if condition is None:
                        fire = True
                    else:
                        fire = cond_ok and in_seq.get(start, n) > i
                else:
                    fire = cond_ok
                if not fire:
                    continue
                first_fired[pos] = min(first_fired[pos], i)
                in_seq.setdefault(start, i)
                delta = 0.0
                if actions[pos] is not None:
                    delta = float(actions[pos](env))
                    if not isfinite(delta):
                        raise non_finite(f"action '{format_expr(fn.action)}'", delta)
                totals[pos] += delta
                if not isfinite(totals[pos]):
                    raise non_finite("score", totals[pos])
                dispatched: list[tuple[str, str, float]] = []
                for target, timer, binding in bindings[pos]:
                    value = float(binding(env))
                    if not isfinite(value):
                        raise non_finite(f"notification value for '{target}.{timer}'", value)
                    dispatched.append((target, timer, value))
                queued.extend(dispatched)
                firing_rows.append((i, pos, delta, tuple(dispatched)))
            except EvalError as exc:
                raise EvalError(
                    f"message {i} (t={t!r}), function '{fn.name}': {exc}"
                ) from exc
        for target, timer, value in queued:
            timers_of[target][timer] = value

    scores = tuple(zip(names, totals))
    if od.summary is None:
        summary = 0.0
        for score in totals:
            summary += score
    else:
        try:
            summary = float(evaluator(od.summary)(Env(constants=constants, scores=dict(scores))))
        except EvalError as exc:
            raise EvalError(f"summary: {exc}") from exc
    if not isfinite(summary):
        raise non_finite("summary", summary)
    return ScoreReport(
        scores=scores,
        summary=summary,
        firings=tuple(
            Firing(index, names[pos], delta, dispatched)
            for index, pos, delta, dispatched in firing_rows
        ),
    )
