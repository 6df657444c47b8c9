"""Batch re-implementation of the scoring semantics, used as a differential
oracle for the streaming engine.

Instead of incremental per-function flags and compiled closures, this walks
the trace by index, evaluates every expression with the tree-walking
`eval_expr`, materializes per-function tables (event truth, sequence start,
first-fired index per trace and per sequence start), and decides each firing
declaratively from those tables:

  - first:                fire at i iff condition holds and no index fired yet.
  - action_sum, no cond:  fire at every event-true index.
  - action_sum with cond: fire at i iff condition holds and no index of the
                          maximal sequence starting at seq_start[i] fired yet.
  - all_sum:              fire wherever event and condition hold.

Timer replay and notification dispatch still advance with the index walk
(event truth at i may depend on notifications fired at indices < i, so a
fully separate pass cannot exist), but the firing log is only assembled
afterwards from the materialized firing rows.
"""

from __future__ import annotations

from math import isfinite

from .checker import CheckedOracle
from .engine import Firing, ScoreReport, _require_matching_schema, summarize
from .errors import EngineError, EvalError
from .evaluate import Env, eval_expr, non_finite
from .syntax import Frequency, format_expr
from .trace import Trace


def reference_score(checked: CheckedOracle, trace: Trace) -> ScoreReport:
    """Score a trace by table materialization; equals score_trace exactly."""
    _require_matching_schema(checked, trace)
    od = checked.od
    messages = trace.messages
    n = len(messages)
    names = [fn.name for fn in od.functions]
    constants = od.constant_map()

    event_true = {name: [False] * n for name in names}
    seq_start = {name: [0] * n for name in names}
    # First-fired index per function (n: none yet), and per function and
    # sequence start index (absent: none yet).
    first_fired = {name: n for name in names}
    first_fired_in_seq: dict[str, dict[int, int]] = {name: {} for name in names}
    # (index, fn position, delta, notifications) in dispatch order.
    firing_rows: list[tuple[int, int, float, tuple[tuple[str, str, float], ...]]] = []
    totals = {fn.name: fn.initial for fn in od.functions}

    timers = {
        fn.name: {timer: 0.0 for timer in sorted(checked.timers[fn.name])}
        for fn in od.functions
    }

    for i, message in enumerate(messages):
        t = message.t
        if i > 0 and t < messages[i - 1].t:
            raise EngineError(
                f"message {i}: timestamp {t!r} decreases below {messages[i - 1].t!r}"
            )
        dt = 0.0 if i == 0 else t - messages[i - 1].t
        for table in timers.values():
            for timer in table:
                table[timer] -= dt

        env = Env(fields={**message.values, "t": t}, constants=constants)
        queued: list[tuple[str, str, float]] = []
        for pos, fn in enumerate(od.functions):
            env.timers = timers[fn.name]
            env.seq_time = None
            try:
                ev = bool(eval_expr(fn.event, env))
                event_true[fn.name][i] = ev
                if not ev:
                    continue
                start = (
                    i
                    if i == 0 or not event_true[fn.name][i - 1]
                    else seq_start[fn.name][i - 1]
                )
                seq_start[fn.name][i] = start
                cond_ok = True
                if fn.condition is not None:
                    env.seq_time = t - messages[start].t
                    cond_ok = bool(eval_expr(fn.condition, env))
                    env.seq_time = None
                in_seq = first_fired_in_seq[fn.name]
                if fn.frequency is Frequency.FIRST:
                    fire = cond_ok and first_fired[fn.name] > i
                elif fn.frequency is Frequency.ACTION_SUM:
                    if fn.condition is None:
                        fire = True
                    else:
                        fire = cond_ok and in_seq.get(start, n) > i
                else:
                    fire = cond_ok
                if not fire:
                    continue
                first_fired[fn.name] = min(first_fired[fn.name], i)
                in_seq.setdefault(start, i)
                delta = 0.0
                if fn.action is not None:
                    delta = float(eval_expr(fn.action, env))
                    if not isfinite(delta):
                        raise non_finite(f"action '{format_expr(fn.action)}'", delta)
                totals[fn.name] += delta
                if not isfinite(totals[fn.name]):
                    raise non_finite("score", totals[fn.name])
                dispatched: list[tuple[str, str, float]] = []
                for notif in fn.notifications:
                    for timer, value_expr in notif.bindings:
                        value = float(eval_expr(value_expr, env))
                        if not isfinite(value):
                            raise non_finite(
                                f"notification value for '{notif.target}.{timer}'", value
                            )
                        dispatched.append((notif.target, timer, value))
                queued.extend(dispatched)
                firing_rows.append((i, pos, delta, tuple(dispatched)))
            except EvalError as exc:
                raise EvalError(
                    f"message {i} (t={t!r}), function '{fn.name}': {exc}"
                ) from exc
        for target, timer, value in queued:
            timers[target][timer] = value

    scores = tuple((name, totals[name]) for name in names)
    return ScoreReport(
        scores=scores,
        summary=summarize(checked, scores),
        firings=tuple(
            Firing(index, names[pos], delta, dispatched)
            for index, pos, delta, dispatched in firing_rows
        ),
    )
