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

Each function has one row of state, made before the walk: its position,
its `Env` (the schema's field names with `t`, the constants and its timer
table), its closures, built over that `Env`, so each name is resolved and
each node over constants folded once per call, and its tables. The walk
admits each message as the engine's message program does. One read from a
trace of the oracle's schema, whose values are of `trace.read_values_type`
and whose t is a finite float, is written into the dict all Envs share
untested: the reader took those values, and no method of theirs changes
them. Any other is held to the reader's rule (a mapping, its names, t,
each value) by `trace.message_checker`, the reader's coercers, which write
the fields, converted, into that dict. Then it checks t's order: the first
fault in message order is raised, as the engine raises it. Only a
notification's target is looked up by name, in one name -> timer-table
map. Only the timer tables that exist run down, and a message at which
nothing fired queues its notifications in no new object.
"""

from __future__ import annotations

from math import inf, isfinite

from .checker import CheckedOracle
from .engine import Firing, ScoreReport
from .errors import EngineError, EvalError
from .evaluate import Env, evaluator, non_finite
from .evaluate import eval_expr  # noqa: F401  (unused: bench/probe.py counts calls through this name)
from .syntax import Frequency, format_expr
from .trace import Trace, message_checker, read_values_type

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
    check, read = message_checker(checked.schema, EngineError), read_values_type(checked.schema)
    fields = dict.fromkeys((*checked.schema.names(), "t"))  # every Env's, updated in place at each message

    # First-fired index per function (n: none yet).
    first_fired = [n] * len(functions)
    # (index, fn position, delta, notifications) in dispatch order.
    firing_rows: list[tuple[int, int, float, tuple[tuple[str, str, float], ...]]] = []
    totals = [fn.initial for fn in functions]
    timers = [{timer: 0.0 for timer in sorted(checked.timers[name])} for name in names]
    timers_of = dict(zip(names, timers))
    running = [table for table in timers if table]
    # One row per function: its position, the Env of its closures, its
    # closures (None for an absent one), and its event-truth, sequence-start
    # and first-fired-per-sequence-start tables (absent: none fired yet).
    rows = []
    for pos, fn in enumerate(functions):
        env = Env(fields=fields, constants=constants, timers=timers[pos])
        event, condition, action = (
            None if expr is None else evaluator(expr, env) for expr in (fn.event, fn.condition, fn.action)
        )
        bindings = [
            (notif.target, timer, evaluator(value, env))
            for notif in fn.notifications
            for timer, value in notif.bindings
        ]
        rows.append((pos, fn, env, event, condition, action, bindings, [False] * n, [0] * n, {}))

    previous_t = -inf
    try:
        for i, (t, values) in enumerate(messages):
            if type(values) is read and type(t) is float and isfinite(t):
                fields.update(values)  # read_values_type: the reader's rule took them
            else:
                t = check(i, t, values, fields)[0]
            if t < previous_t:
                raise EngineError(f"message {i}: timestamp {t!r} decreases below {previous_t!r}")
            if i:
                dt = t - previous_t
                for table in running:
                    for timer in table:
                        table[timer] -= dt
            previous_t = t
            fields["t"] = t
            queued: tuple[tuple[str, str, float], ...] = ()
            for pos, fn, env, event, condition, action, bindings, event_true, seq_start, in_seq in rows:
                if not event():
                    continue
                event_true[i] = True
                start = seq_start[i - 1] if i and event_true[i - 1] else i
                seq_start[i] = start
                if condition is not None:
                    env.seq_time = t - messages[start].t
                    cond_ok = bool(condition())
                    env.seq_time = None
                    if not cond_ok:
                        continue
                if fn.frequency is _FIRST:
                    fire = first_fired[pos] > i
                elif fn.frequency is _ACTION_SUM and condition is not None:
                    fire = in_seq.get(start, n) > i
                else:
                    fire = True
                if not fire:
                    continue
                first_fired[pos] = min(first_fired[pos], i)
                in_seq.setdefault(start, i)
                delta = 0.0
                if action is not None:
                    delta = float(action())
                    if not isfinite(delta):
                        raise non_finite(f"action '{format_expr(fn.action)}'", delta)
                totals[pos] += delta
                if not isfinite(totals[pos]):
                    raise non_finite("score", totals[pos])
                dispatched = []
                for target, timer, binding in bindings:
                    value = float(binding())
                    if not isfinite(value):
                        raise non_finite(f"notification value for '{target}.{timer}'", value)
                    dispatched.append((target, timer, value))
                notifications = tuple(dispatched)
                queued += notifications
                firing_rows.append((i, pos, delta, notifications))
            for target, timer, value in queued:
                timers_of[target][timer] = value
    except EvalError as exc:
        raise EvalError(f"message {i} (t={t!r}), function '{fn.name}': {exc}") from exc

    scores = tuple(zip(names, totals))
    if od.summary is None:
        summary = 0.0
        for score in totals:
            summary += score
    else:
        scope = Env(constants=constants, scores=dict(scores))
        try:
            summary = float(evaluator(od.summary, scope)())
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
