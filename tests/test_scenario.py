"""Scenario-driven trace generation: determinism, episode soundness, validation."""

import json
import math

import pytest

from odl import (
    Episode,
    GEN_SCHEMA,
    Scenario,
    ScenarioError,
    Trace,
    TraceMessage,
    check_od,
    dump_trace,
    duration,
    generate_trace,
    load_builtin,
    load_example_scenario,
    load_scenario,
    parse_od,
    parse_trace,
    score_trace,
)
from odl.cli import main

LISTINGS = ("listing1", "listing2", "listing3", "listing4")


def scenario_with(episodes=(), duration_s=20.0, tick=0.5) -> Scenario:
    return Scenario(duration=duration_s, tick=tick, episodes=tuple(episodes))


def test_collision_episode_lands_on_exactly_one_tick():
    scenario = scenario_with([Episode("collision", 5.0, 5.0)])
    trace = generate_trace(scenario, 7)
    hits = [m.t for m in trace.messages if m.values["collision"]]
    assert hits == [5.0]


def test_collision_between_ticks_lands_on_nearest():
    scenario = scenario_with([Episode("collision", 5.2, 5.2)], tick=0.5)
    trace = generate_trace(scenario, 7)
    hits = [m.t for m in trace.messages if m.values["collision"]]
    assert hits == [5.0]


def test_same_inputs_give_byte_identical_files():
    scenario = load_scenario(load_example_scenario("eventful"))
    assert dump_trace(generate_trace(scenario, 3)) == dump_trace(generate_trace(scenario, 3))
    assert dump_trace(generate_trace(scenario, 3)) != dump_trace(generate_trace(scenario, 4))


def test_nominal_trace_scores_zero_on_all_listings():
    scenario = load_scenario(load_example_scenario("nominal"))
    trace = generate_trace(scenario, 11)
    for name in LISTINGS:
        checked = check_od(parse_od(load_builtin(name)), trace.schema)
        assert score_trace(checked, trace).summary == 0.0, name


def test_generated_traces_satisfy_trace_invariants():
    scenario = load_scenario(load_example_scenario("eventful"))
    trace = generate_trace(scenario, 5)
    assert parse_trace(dump_trace(trace)) == trace  # monotone, finite, schema-true
    assert trace.schema == GEN_SCHEMA


def test_duration_matches_spec_within_one_tick():
    for tick, dur in ((0.5, 20.0), (0.3, 10.0), (1.0, 7.5)):
        trace = generate_trace(scenario_with([], duration_s=dur, tick=tick), 1)
        assert abs(duration(trace) - dur) <= tick + 1e-9


def test_speeding_episode_soundness():
    limit = 22.35
    for seed in range(10):
        with_ep = generate_trace(
            scenario_with([Episode("speeding", 4.0, 6.0)]), seed
        )
        above = [m.t for m in with_ep.messages if m.values["speed"] > limit]
        assert above
        assert all(4.0 - 1e-9 <= t <= 6.0 + 1e-9 for t in above)
        without = generate_trace(scenario_with([]), seed)
        assert all(m.values["speed"] <= limit for m in without.messages)


def test_lane_departure_sets_road_normal_into_band():
    trace = generate_trace(
        scenario_with([Episode("lane_departure", 2.0, 8.0)]), 9
    )
    for m in trace.messages:
        if 2.0 <= m.t <= 8.0:
            assert 3.4 < m.values["road_normal"] < 4.0
        else:
            assert abs(m.values["road_normal"]) < 0.3


def test_deceleration_episode_keeps_acceleration_negative():
    trace = generate_trace(
        scenario_with([Episode("deceleration", 1.0, 4.0, {"rate": -1.5})]), 2
    )
    for m in trace.messages:
        if 1.0 <= m.t <= 4.0:
            assert m.values["acceleration"] < 0.0
        else:
            assert m.values["acceleration"] >= 0.0


def test_arrival_iff_episode():
    import math

    def min_distance(trace):
        return min(
            math.hypot(m.values["position"].x - 1000.0, m.values["position"].y)
            for m in trace.messages
        )

    without = generate_trace(scenario_with([]), 3)
    assert min_distance(without) > 12.0
    with_ep = generate_trace(
        scenario_with([Episode("arrival", 15.0, 20.0)]), 3
    )
    assert min_distance(with_ep) < 12.0
    # in-radius exactly from the episode start onward
    inside = [m.t for m in with_ep.messages
              if math.hypot(m.values["position"].x - 1000.0, m.values["position"].y) < 12.0]
    assert inside and inside[-1] == 20.0


@pytest.mark.parametrize(
    "episodes, message",
    [
        ([Episode("warp", 1.0, 2.0)], "unknown episode kind"),
        ([Episode("speeding", -1.0, 2.0)], "must lie within"),
        ([Episode("speeding", 3.0, 2.0)], "must lie within"),
        ([Episode("collision", 1.0, 2.0)], "instantaneous"),
        (
            [Episode("speeding", 1.0, 4.0), Episode("speeding", 3.0, 6.0)],
            "overlap",
        ),
        ([Episode("speeding", 1.1, 1.2)], "no sample tick"),
        ([Episode("speeding", 1.0, 4.0, {"peak_speed": 10.0})], "must exceed"),
        ([Episode("deceleration", 1.0, 4.0, {"rate": 1.0})], "must be negative"),
        ([Episode("lane_departure", 1.0, 4.0, {"offset": 1.0})], "lane "),
        ([Episode("speeding", 1.0, 4.0, {"bogus": 1.0})], "unknown params"),
    ],
)
def test_validation_rejects_bad_episodes(episodes, message):
    with pytest.raises(ScenarioError, match=message):
        generate_trace(scenario_with(episodes), 0)


def test_validation_rejects_bad_scenario_shapes():
    with pytest.raises(ScenarioError, match="tick"):
        generate_trace(Scenario(duration=10.0, tick=0.0), 0)
    with pytest.raises(ScenarioError, match="route start"):
        generate_trace(
            Scenario(duration=10.0, tick=0.5, route_start=Scenario(0, 1).destination), 0
        )
    with pytest.raises(ScenarioError, match="route end"):
        generate_trace(
            Scenario(
                duration=10.0,
                tick=0.5,
                route_end=Scenario(0, 1).route_start,
                episodes=(Episode("arrival", 5.0, 10.0),),
            ),
            0,
        )


def test_load_scenario_parses_and_validates():
    scenario = load_scenario(load_example_scenario("eventful"))
    assert scenario.tick == 0.2
    assert scenario.episodes[0].kind == "speeding"
    with pytest.raises(ScenarioError, match="malformed"):
        load_scenario("{")
    with pytest.raises(ScenarioError, match="missing 'tick'"):
        load_scenario(json.dumps({"duration": 10}))
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        load_scenario(json.dumps({"duration": 10, "tick": 1, "mood": "calm"}))
    with pytest.raises(ScenarioError, match="unknown constants"):
        load_scenario(json.dumps({"duration": 10, "tick": 1, "constants": {"gravity": 9.8}}))


def test_load_scenario_applies_defaults():
    scenario = load_scenario(json.dumps({"duration": 5, "tick": 0.5}))
    assert scenario.speed_limit == 22.35
    assert scenario.lane_width == 3.7
    trace = generate_trace(scenario, 0)
    assert len(trace.messages) == 11


HOSTILE_SCENARIOS = {
    "huge_integer": (
        '{"duration": 1' + "0" * 400 + ', "tick": 1}',
        "duration must be finite",
    ),
    "too_many_digits": (
        '{"duration": ' + "1" * 5000 + ', "tick": 1}',
        "malformed scenario file: integer literal exceeds 4300 digits",
    ),
    "deep_nesting": (
        '{"duration": 1, "tick": 1, "episodes": ' + "[" * 100000,
        "malformed scenario file: values nested too deeply",
    ),
    "sample_count_overflows": (
        '{"duration": 1e308, "tick": 1e-10}',
        "duration / tick overflows: too many samples",
    ),
    "infinite_point": (
        '{"duration": 1, "tick": 1, "constants": {"destination": [1e999, 0]}}',
        "destination must be finite",
    ),
    "nan_point": (
        '{"duration": 1, "tick": 1, "constants": {"route_start": [NaN, 0]}}',
        "route_start must be finite",
    ),
    "route_span_overflows": (
        '{"duration": 1, "tick": 1, "constants": {"route_start": [-1e308, 0], "route_end": [1e308, 0]}}',
        "route_end - route_start must be finite",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_SCENARIOS))
def test_hostile_scenario_files_are_scenario_errors(case, tmp_path, capsys):
    text, message = HOSTILE_SCENARIOS[case]
    with pytest.raises(ScenarioError) as raised:
        load_scenario(text)
    assert str(raised.value) == message
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "trace.jsonl"
    assert main(["gen", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_dump_trace_refuses_non_finite_values():
    trace = generate_trace(scenario_with(), 0)
    first = trace.messages[0]
    bad = Trace(trace.schema, (TraceMessage(first.t, {**first.values, "speed": math.nan}),))
    with pytest.raises(ValueError):
        dump_trace(bad)
