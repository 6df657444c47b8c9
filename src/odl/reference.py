"""Batch re-implementation of the scoring semantics, used as a differential
oracle for the streaming engine.

Instead of incremental per-function flags and generated code, this walks
the trace once, by index, and evaluates every expression with the closure
that `evaluate.evaluator` builds for it once per call. Each function keeps
a few facts, and no table indexed by message:

  - opened:   the index of the message that opened its current sequence
              (None when the event did not hold at the previous message),
              and that message's t, from which seq_time is measured;
  - fired_in: the opening index of the sequence in which it last fired
              (None if it has never fired).

Where its event and condition hold, a function fires by its mode:

  - first:                iff fired_in is None.
  - action_sum with cond: iff fired_in != opened: once per sequence.
  - otherwise:            always.

The engine resets a flag when a sequence opens; the reference names the
sequence by its opening index, so the two share no firing code, and no
rule compares two indices by order. Each firing joins the log when it
happens. Its notifications set their timers after the message (event
truth at i may depend on notifications fired at indices < i, so a fully
separate pass cannot exist). The summary is a closure too, so the engine
and the reference share no evaluation code. Like the engine, it reads only
a `CheckedOracle`, which check_od's checks took.

Each function has one row of state, made before the walk: its position,
its `Env` (the schema's field names with `t`, the constants and its timer
table), and its closures, built over that `Env`, so each name is resolved
and each node over constants folded once per call. The walk pulls each
message once, so the messages may be any iterable, a one-shot iterator
too, and memory grows with the trace only by the firing log. It admits
each message as the engine's message program does. One read from a
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
    """Score a trace in one walk over a few facts per function; equals score_trace exactly."""
    messages = checked._messages_of(trace)
    od = checked.od
    functions = od.functions
    names = [fn.name for fn in functions]
    constants = od.constant_map()
    check, read = message_checker(checked.schema, EngineError), read_values_type(checked.schema)
    fields = dict.fromkeys((*checked.schema.names(), "t"))  # every Env's, updated in place at each message

    # Each function's facts, by position: the index (None while the event
    # does not hold) and t of the message that opened its current sequence,
    # and the opening index of the sequence in which it last fired (None if
    # it never fired).
    opened: list[int | None] = [None] * len(functions)
    opened_t = [0.0] * len(functions)
    fired_in: list[int | None] = [None] * len(functions)
    firings: list[Firing] = []
    totals = [fn.initial for fn in functions]
    timers = [{timer: 0.0 for timer in sorted(checked.timers[name])} for name in names]
    timers_of = dict(zip(names, timers))
    running = [table for table in timers if table]
    # One row per function: its position, the Env of its closures, and its
    # closures (None for an absent one).
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
        rows.append((pos, fn, env, event, condition, action, bindings))

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
            for pos, fn, env, event, condition, action, bindings in rows:
                if not event():
                    opened[pos] = None
                    continue
                if opened[pos] is None:
                    opened[pos], opened_t[pos] = i, t
                if condition is not None:
                    env.seq_time = t - opened_t[pos]
                    cond_ok = bool(condition())
                    env.seq_time = None
                    if not cond_ok:
                        continue
                if fn.frequency is _FIRST:
                    fire = fired_in[pos] is None
                elif fn.frequency is _ACTION_SUM and condition is not None:
                    fire = fired_in[pos] != opened[pos]
                else:
                    fire = True
                if not fire:
                    continue
                fired_in[pos] = opened[pos]
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
                firings.append(Firing(i, fn.name, delta, notifications))
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
    return ScoreReport(scores=scores, summary=summary, firings=tuple(firings))
