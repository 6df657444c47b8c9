"""Expression evaluation semantics, for the tree walker and the compiled
closures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import gen_checkable_od, gen_expr, gen_schema, gen_trace
from odl import Env, EvalError, Kind, Point2, eval_expr, format_expr, parse_od
from odl.evaluate import compile_expr

ENV = Env(
    fields={"speed": 25.0, "road_normal": 3.8, "position": Point2(0.0, 0.0), "t": 1.0},
    constants={"MAX_SPEED": 20.0, "LW": 3.7, "TH": 0.3},
)


def expr(source: str):
    od = parse_od(f"f = scoring_function(event = true, action = {source}, frequency = first);")
    return od.functions[0].action


def bool_expr(source: str):
    od = parse_od(f"f = scoring_function(event = {source}, frequency = first);")
    return od.functions[0].event


def test_distance_345():
    assert eval_expr(expr("distance(point(0, 0), point(3, 4))"), Env()) == 5.0


def test_numeric_comparison_against_constant():
    assert eval_expr(bool_expr("speed > MAX_SPEED"), ENV) is True


def test_lane_band_arithmetic():
    # 3.4 < 3.8 < 4.0 with LW = 3.7, TH = 0.3
    source = "road_normal > LW - TH and road_normal < LW + TH"
    assert eval_expr(bool_expr(source), ENV) is True


def test_short_circuit_protects_partial_expressions():
    assert eval_expr(bool_expr("false and (1 / 0 > 0)"), Env()) is False
    assert eval_expr(bool_expr("true or (1 / 0 > 0)"), Env()) is True


def test_division_by_zero_identifies_expression():
    with pytest.raises(EvalError, match=r"division by zero in '1.0 / 0.0'"):
        eval_expr(expr("1 / 0"), Env())


def test_purity():
    e = expr("speed * 2 - MAX_SPEED / 4")
    assert eval_expr(e, ENV) == eval_expr(e, ENV)


def test_builtins():
    assert eval_expr(expr("abs(-3)"), Env()) == 3.0
    assert eval_expr(expr("min(3, 1, 2)"), Env()) == 1.0
    assert eval_expr(expr("max(3, 1, 2)"), Env()) == 3.0


def test_not_and_negation():
    assert eval_expr(bool_expr("not (1 > 2)"), Env()) is True
    assert eval_expr(expr("-(2 + 3)"), Env()) == -5.0


def test_equality_on_numbers_and_booleans():
    assert eval_expr(bool_expr("1 == 1.0"), Env()) is True
    assert eval_expr(bool_expr("true != false"), Env()) is True
    assert eval_expr(bool_expr("0.1 + 0.2 == 0.3"), Env()) is False  # exact doubles


def test_seq_time_bound_only_in_condition():
    env = Env(seq_time=2.5)
    od = parse_od("f = scoring_function(event = true, condition = seq_time > 2, frequency = first);")
    assert eval_expr(od.functions[0].condition, env) is True
    with pytest.raises(EvalError, match="seq_time"):
        eval_expr(od.functions[0].condition, Env())


def test_unbound_identifier():
    with pytest.raises(EvalError, match="unbound identifier 'ghost'"):
        eval_expr(bool_expr("ghost > 1"), Env())


def test_timer_lookup():
    env = Env(timers={"expiration": 0.25})
    assert eval_expr(bool_expr("expiration > 0"), env) is True


_coords = st.floats(min_value=-1e8, max_value=1e8)


@settings(max_examples=100, deadline=None)
@given(_coords, _coords, _coords, _coords)
def test_distance_symmetry_and_nonnegativity(ax, ay, bx, by):
    env = Env(fields={"p": Point2(ax, ay), "q": Point2(bx, by)})
    d_pq = eval_expr(expr("distance(p, q)"), env)
    d_qp = eval_expr(expr("distance(q, p)"), env)
    assert d_pq == d_qp
    assert d_pq >= 0.0


@settings(max_examples=50, deadline=None)
@given(_coords, _coords)
def test_distance_identity(x, y):
    env = Env(fields={"p": Point2(x, y)})
    assert eval_expr(expr("distance(p, p)"), env) == 0.0


def test_compiled_closures_equal_tree_walk():
    """compile_expr and eval_expr are two evaluators of one semantics: on
    every expression of generated checkable definitions, and on generated
    expressions that also read timers and seq_time, they agree exactly, in
    value and in type."""
    timer_values = [-1.5, -0.25, 0.0, 0.5, 2.0]
    for i in range(200):
        rng = random.Random(30_000 + i)
        schema = gen_schema(rng)
        od = gen_checkable_od(rng, schema)
        trace = gen_trace(rng, schema, n_messages=6)
        constants = od.constant_map()
        timers = {f"tm{j}": rng.choice(timer_values) for j in range(5)}
        expressions = []
        for fn in od.functions:
            expressions += [e for e in (fn.event, fn.condition, fn.action) if e is not None]
            expressions += [value for n in fn.notifications for _, value in n.bindings]
        kinds = {name: Kind.NUMBER for name in constants}
        expressions += [
            gen_expr(rng, schema, kinds, numbers=("tm0", "tm3", "seq_time")) for _ in range(5)
        ]
        for e in expressions:
            compiled = compile_expr(e, schema.names(), constants, timers)
            for message in trace.messages:
                seq_time = rng.choice((0.0, 0.5, 1.5, 3.0))
                env = Env(
                    fields={**message.values, "t": message.t},
                    constants=constants,
                    timers=timers,
                    seq_time=seq_time,
                )
                walked = eval_expr(e, env)
                got = compiled(message.values, message.t, timers, seq_time)
                assert got == walked and type(got) is type(walked), (i, format_expr(e))


def test_compiled_errors_stay_lazy_and_match_tree_walk():
    # 1 / 0 is over constants only, but folding it would raise at compile time.
    division = compile_expr(expr("1 / 0"), (), {})
    with pytest.raises(EvalError) as walked:
        eval_expr(expr("1 / 0"), Env())
    with pytest.raises(EvalError) as compiled:
        division({}, 0.0, {}, None)
    assert str(compiled.value) == str(walked.value) == "division by zero in '1.0 / 0.0'"
    guarded = compile_expr(bool_expr("false and (1 / 0 > 0)"), (), {})
    assert guarded({}, 0.0, {}, None) is False
    assert compile_expr(bool_expr("true or (1 / 0 > 0)"), (), {})({}, 0.0, {}, None) is True


def test_compiled_builtins_over_fields():
    fields = {"a": 3.0, "b": -1.0, "c": 2.0, "p": Point2(3.0, 4.0), "t": 0.5}
    for source in ("min(a, c, b)", "max(b, c, t, a)", "distance(point(0, 0), p)", "distance(p, p)"):
        e = expr(source)
        compiled = compile_expr(e, ("a", "b", "c", "p"), {})
        assert compiled(fields, 0.5, {}, None) == eval_expr(e, Env(fields=fields)), source
