"""Scenario-driven trace generation: determinism, episode soundness, validation."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import odl
from _traces import duration, encoder_dump
from odl import (
    Episode,
    GEN_SCHEMA,
    Point2,
    Scenario,
    ScenarioError,
    Trace,
    TraceMessage,
    check_od,
    dump_trace,
    generate_messages,
    generate_trace,
    load_builtin,
    load_example_scenario,
    load_scenario,
    parse_od,
    parse_trace,
    score_trace,
    validate_scenario,
)
from odl.cli import main
from odl.scenario import MAX_SAMPLES, _active_runs, _by_tick, _collision_tick, _standoff_progress, _tick_range

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
    for name in ("eventful", "nominal"):
        scenario = load_scenario(load_example_scenario(name))
        for seed in (0, 5):
            trace = generate_trace(scenario, seed)
            text = dump_trace(trace)
            assert parse_trace(text) == trace  # monotone, finite, schema-true
            assert text == encoder_dump(trace)
            assert trace.schema == GEN_SCHEMA


def linear_active(episodes, t):
    """The first episode whose interval holds t, by a scan in declaration
    order: the reference for the runs walked tick by tick."""
    for ep in episodes:
        if ep.start - 1e-9 <= t <= ep.end + 1e-9:
            return ep
    return None


def random_scenario(rng):
    """A valid scenario whose interval episodes have ends on or near ticks
    (at, within and beyond the 1e-9 tolerance), some touching, each kind
    declared in shuffled order."""
    tick = rng.choice((0.02, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, rng.uniform(0.01, 1.0)))
    duration_s = rng.randint(5, 120) * tick + rng.choice((0.0, tick / 2))
    nudges = (0.0, 0.0, 1e-9, -1e-9, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6)
    episodes = []
    for kind in ("speeding", "lane_departure", "deceleration"):
        points = sorted(
            min(duration_s, max(0.0, rng.randint(0, int(duration_s / tick) + 1) * tick + rng.choice(nudges)))
            for _ in range(rng.randint(0, 12))
        )
        spans, j = [], 0
        while j + 1 < len(points):
            spans.append(Episode(kind, points[j], points[j + 1]))
            j += 1 if rng.random() < 0.4 else 2  # the next episode touches this one, or not
        rng.shuffle(spans)
        episodes += spans
    return Scenario(duration=duration_s, tick=tick, episodes=tuple(episodes))


def assert_table_equals_scan(episodes, tick, n):
    table = list(_by_tick(_active_runs([(*_tick_range(ep, tick, n), ep) for ep in episodes]), n))
    assert len(table) == n
    assert all(got is linear_active(episodes, i * tick) for i, got in enumerate(table))


def test_per_tick_table_equals_linear_scan():
    checked = touching = 0
    for seed in range(300):
        scenario = random_scenario(random.Random(seed))
        try:
            validate_scenario(scenario)
        except ScenarioError:
            continue
        n = int(math.floor(scenario.duration / scenario.tick + 1e-9)) + 1
        for kind in ("speeding", "lane_departure", "deceleration"):
            episodes = [ep for ep in scenario.episodes if ep.kind == kind]
            assert_table_equals_scan(episodes, scenario.tick, n)
            ends = {ep.end for ep in episodes}
            touching += sum(ep.start in ends for ep in episodes)
        checked += 1
    assert checked > 150 and touching > 100


def test_runs_of_overlapping_episodes_equal_linear_scan():
    # Episodes no scenario admits, which overlap, nest and repeat: the
    # first declared holds every tick it covers.
    for seed in range(200):
        rng = random.Random(seed)
        tick = rng.choice((0.1, 0.25, 1 / 3, 1.0))
        n = rng.randint(1, 60)

        def end():
            return rng.choice((rng.randint(-1, n + 1) * tick, rng.uniform(-1.0, (n + 1) * tick)))

        episodes = [Episode("speeding", *sorted((end(), end()))) for _ in range(rng.randint(0, 8))]
        assert_table_equals_scan(episodes, tick, n)


@pytest.mark.parametrize(
    "tick, start, end",
    [
        (0.424, 62.328000001, 70.0),  # ceil((start - 1e-9) / tick) is one tick early
        (0.536, 1900.0, 1942.999999999),  # floor((end + 1e-9) / tick) is one tick late
    ],
)
def test_per_tick_table_where_division_misplaces_a_boundary(tick, start, end):
    assert_table_equals_scan([Episode("speeding", start, end)], tick, int(end / tick) + 3)


def with_collisions(rng, scenario):
    """The scenario plus 0-3 collisions on or near ticks, half a tick off
    included, often two near one tick."""
    n = int(math.floor(scenario.duration / scenario.tick + 1e-9)) + 1
    collisions, j = [], rng.randint(0, n - 1)
    for _ in range(rng.randint(0, 3)):
        j = rng.choice((j, j + 1, rng.randint(0, n - 1)))
        at = (j + rng.choice((0.0, 0.3, -0.3, 0.49, -0.49, 0.5, -0.5))) * scenario.tick
        at = min(scenario.duration, max(0.0, at))
        collisions.append(Episode("collision", at, at))
    return replace(scenario, episodes=scenario.episodes + tuple(collisions)), n


def shadowed(scenario):
    """The interval episodes that own no run of _active_runs: every tick
    they hold goes to an episode of their kind declared before them."""
    n = int(math.floor(scenario.duration / scenario.tick + 1e-9)) + 1
    lost = []
    for kind in ("speeding", "lane_departure", "deceleration"):
        episodes = [ep for ep in scenario.episodes if ep.kind == kind]
        owners = {id(ep) for _, _, ep in _active_runs([(*_tick_range(ep, scenario.tick, n), ep) for ep in episodes])}
        lost += [ep for ep in episodes if id(ep) not in owners]
    return lost


def test_validation_accepts_exactly_what_reaches_its_samples():
    # Accepted exactly when every interval episode holds a tick and keeps
    # one that no earlier episode of its kind holds, and no two collisions
    # share one; then each collision is a collision sample.
    accepted, no_tick, lost, shared = 0, 0, 0, 0
    for seed in range(300):
        rng = random.Random(seed)
        scenario, n = with_collisions(rng, random_scenario(rng))
        collisions = [ep for ep in scenario.episodes if ep.kind == "collision"]
        ticks = {_collision_tick(ep, scenario.tick, n) for ep in collisions}
        reached = all(
            lo <= hi
            for lo, hi in (_tick_range(ep, scenario.tick, n) for ep in scenario.episodes if ep.kind != "collision")
        )
        kept = not shadowed(scenario)
        try:
            validate_scenario(scenario)
        except ScenarioError:
            assert not (reached and kept and len(ticks) == len(collisions)), seed
            no_tick += not reached
            lost += reached and not kept
            shared += len(ticks) < len(collisions)
            continue
        assert reached and kept and len(ticks) == len(collisions), seed
        trace = generate_trace(scenario, seed)
        assert sum(m.values["collision"] for m in trace.messages) == len(collisions), seed
        accepted += 1
    assert accepted > 100 and no_tick > 20 and lost > 50 and shared > 20, (accepted, no_tick, lost, shared)


def standoff_by_points(scenario):
    """_standoff_progress as a scan that builds each Point2: the reference."""
    a, b, dest = scenario.route_start, scenario.route_end, scenario.destination
    best = 0.0
    for k in range(2049):
        frac = k / 2048
        p = Point2(a.x + (b.x - a.x) * frac, a.y + (b.y - a.y) * frac)
        if math.hypot(p.x - dest.x, p.y - dest.y) < 16.0:
            break
        best = frac
    return best


def test_standoff_progress_equals_point_scan():
    results = set()
    for seed in range(300):
        rng = random.Random(seed)
        start = Point2(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        end = Point2(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        u = rng.random()
        # A destination near the route, so that the scan stops part way.
        dest = Point2(
            start.x + (end.x - start.x) * u + rng.uniform(-20, 20),
            start.y + (end.y - start.y) * u + rng.uniform(-20, 20),
        )
        scenario = Scenario(duration=1.0, tick=1.0, route_start=start, route_end=end, destination=dest)
        got = _standoff_progress(scenario)
        assert got == standoff_by_points(scenario), seed
        results.add(got)
    assert len(results) > 100


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
    with pytest.raises(ScenarioError, match="tick"):  # at the call, before any message is asked for
        generate_messages(Scenario(duration=10.0, tick=0.0), 0)
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


def test_episode_parameters_default_per_kind():
    # peak_speed = speed_limit + 3, rate = -2, offset = lane_width, plus
    # each channel's bounded jitter.
    scenario = load_scenario(json.dumps({
        "duration": 10, "tick": 0.5, "constants": {"speed_limit": 15, "lane_width": 3.0},
        "episodes": [
            {"kind": "speeding", "start": 1, "end": 3},
            {"kind": "deceleration", "start": 4, "end": 6},
            {"kind": "lane_departure", "start": 7, "end": 9},
        ],
    }))
    trace = generate_trace(scenario, 3)

    def during(start, end):
        return [m.values for m in trace.messages if start <= m.t <= end]

    assert all(18.0 <= v["speed"] <= 18.15 for v in during(1, 3))
    assert all(-2.02 <= v["acceleration"] <= -2.0 for v in during(4, 6))
    assert all(2.95 <= v["road_normal"] <= 3.05 for v in during(7, 9))


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
    "too_many_samples": (
        '{"duration": 1e300, "tick": 1}',
        f"duration / tick gives more than {MAX_SAMPLES} samples",
    ),
    "one_sample_over_the_limit": (
        f'{{"duration": {MAX_SAMPLES}, "tick": 1}}',
        f"duration / tick gives more than {MAX_SAMPLES} samples",
    ),
    "nan_param": (
        '{"duration": 4, "tick": 1, "episodes": [{"kind": "speeding", "start": 1, "end": 2,'
        ' "params": {"peak_speed": NaN}}]}',
        "episode 0 param 'peak_speed' must be finite",
    ),
    "negative_duration": ('{"duration": -1, "tick": 1}', "duration must be a non-negative number of seconds"),
    "slow_speed_limit": (
        '{"duration": 1, "tick": 1, "constants": {"speed_limit": 0.5}}', "speed_limit must be at least 1 m/s",
    ),
    "episodes_not_an_array": ('{"duration": 1, "tick": 1, "episodes": {}}', "episodes must be an array"),
    "episode_not_an_object": ('{"duration": 1, "tick": 1, "episodes": [3]}', "episode 0 must be an object"),
    "episode_without_start": (
        '{"duration": 1, "tick": 1, "episodes": [{"kind": "collision"}]}', "episode 0 needs 'kind' and 'start'",
    ),
    "params_not_an_object": (
        '{"duration": 4, "tick": 1, "episodes": [{"kind": "speeding", "start": 1, "end": 2, "params": []}]}',
        "episode 0 params must be an object",
    ),
    # A key repeated at each level: a plain JSON decode keeps the last value,
    # so the first file would give a trace with no collision.
    "repeated_key_at_the_top_level": (
        '{"duration": 40, "tick": 0.2, "episodes": [{"kind": "collision", "start": 5}], "episodes": []}',
        "duplicate scenario file field 'episodes'",
    ),
    "repeated_key_in_constants": (
        '{"duration": 4, "tick": 1, "constants": {"speed_limit": 20, "speed_limit": 30}}',
        "duplicate scenario file field 'speed_limit'",
    ),
    "repeated_key_in_an_episode": (
        '{"duration": 4, "tick": 1, "episodes": [{"kind": "collision", "start": 1, "start": 3}]}',
        "duplicate scenario file field 'start'",
    ),
    "repeated_key_in_params": (
        '{"duration": 4, "tick": 1, "episodes": [{"kind": "speeding", "start": 1, "end": 2,'
        ' "params": {"peak_speed": 26, "peak_speed": 30}}]}',
        "duplicate scenario file field 'peak_speed'",
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


def test_sample_count_limit():
    # MAX_SAMPLES - 1 and MAX_SAMPLES samples pass; one more is refused.
    for samples in (MAX_SAMPLES - 1, MAX_SAMPLES):
        validate_scenario(Scenario(duration=float(samples - 1), tick=1.0))
        assert load_scenario(json.dumps({"duration": samples - 1, "tick": 1})).duration == samples - 1
    for duration_s in (float(MAX_SAMPLES), 1e300):
        with pytest.raises(ScenarioError, match=f"^duration / tick gives more than {MAX_SAMPLES} samples$"):
            validate_scenario(Scenario(duration=duration_s, tick=1.0))


def test_gen_honours_the_sample_limit(monkeypatch, tmp_path, capsys):
    # With a small limit, `odl gen` runs at the limit and refuses one over it.
    monkeypatch.setattr("odl.scenario.MAX_SAMPLES", 21)
    path, out = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    path.write_text('{"duration": 20, "tick": 1}')
    assert main(["gen", "--scenario", str(path), "--out", str(out)]) == 0
    assert len(parse_trace(out.read_text()).messages) == 21
    out.unlink()
    path.write_text('{"duration": 21, "tick": 1}')
    assert main(["gen", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: duration / tick gives more than 21 samples\n"
    assert not out.exists()


def gen_peak_kb(tmp_path, samples):
    """The peak resident set (VmHWM, kB) of a fresh interpreter that runs
    `odl gen` on a scenario of `samples` samples, as bench/probe.py reads it."""
    path, out = tmp_path / f"scenario{samples}.json", tmp_path / f"trace{samples}.jsonl"
    path.write_text(json.dumps({
        "duration": samples - 1, "tick": 1, "episodes": [{"kind": "speeding", "start": 1, "end": 2}],
    }))
    code = (
        "import sys\nfrom odl.cli import main\nstatus = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(status)"
    )
    src = str(Path(odl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run(
        [sys.executable, "-c", code, "gen", "--scenario", str(path), "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.read_text().count("\n") == samples + 1
    return int(child.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status (Linux)")
def test_gen_memory_does_not_grow_with_the_samples(tmp_path):
    # Holding the trace would cost ~1 kB a sample, ~90 MiB between the two.
    small, large = gen_peak_kb(tmp_path, 10_000), gen_peak_kb(tmp_path, 100_000)
    assert abs(large - small) < 4 * 1024, (small, large)


NON_FINITE_SCENARIOS = {
    "duration": Scenario(duration=math.inf, tick=1.0),
    "tick": Scenario(duration=1.0, tick=math.nan),
    "speed_limit": Scenario(duration=1.0, tick=1.0, speed_limit=math.nan),
    "lane_width": Scenario(duration=1.0, tick=1.0, lane_width=-math.inf),
    "destination": Scenario(duration=1.0, tick=1.0, destination=Point2(1000.0, math.nan)),
    "route_start": Scenario(duration=1.0, tick=1.0, route_start=Point2(math.inf, 0.0)),
    "route_end": Scenario(duration=1.0, tick=1.0, route_end=Point2(0.0, -math.inf)),
    "episode 0 start": Scenario(duration=1.0, tick=1.0, episodes=(Episode("collision", math.nan, 0.0),)),
    "episode 1 end": Scenario(
        duration=4.0, tick=1.0,
        episodes=(Episode("collision", 1.0, 1.0), Episode("speeding", 1.0, math.inf)),
    ),
    "episode 0 param 'rate'": Scenario(
        duration=4.0, tick=1.0, episodes=(Episode("deceleration", 1.0, 2.0, {"rate": -math.inf}),)
    ),
}


@pytest.mark.parametrize("what", sorted(NON_FINITE_SCENARIOS))
def test_validation_refuses_non_finite_numbers(what):
    with pytest.raises(ScenarioError) as raised:
        generate_trace(NON_FINITE_SCENARIOS[what], 0)
    assert str(raised.value) == f"{what} must be finite"


def _scenario(constants=None, episodes=None, **top):
    obj = {"duration": 4, "tick": 1, **top}
    if constants is not None:
        obj["constants"] = constants
    if episodes is not None:
        obj["episodes"] = episodes
    return json.dumps(obj)


# Scenario files with two or more faults: the first one found is reported,
# in the order load_scenario and validate_scenario look.
MULTI_FAULT_SCENARIOS = {
    "speed_limit_and_destination": (
        _scenario({"speed_limit": "fast", "destination": "home"}),
        "speed_limit must be a number",
    ),
    "destination_and_lane_width": (
        _scenario({"lane_width": "wide", "destination": [1, 2, 3]}),
        "destination must be a two-element [x, y] array",
    ),
    "route_end_and_lane_width": (
        _scenario({"lane_width": None, "route_end": [0, "y"]}),
        "route_end must be a two-element [x, y] array",
    ),
    "unknown_constant_and_malformed_episode": (
        _scenario({"gravity": 9.8}, [{"kind": "speeding"}]),
        "unknown constants ['gravity']",
    ),
    "nan_param_and_bad_tick": (
        '{"duration": 4, "tick": 0, "episodes": [{"kind": "speeding", "start": 1, "end": 2,'
        ' "params": {"peak_speed": NaN}}]}',
        "episode 0 param 'peak_speed' must be finite",
    ),
    "nan_param_and_tick_not_a_number": (
        '{"duration": 4, "tick": "1", "episodes": [{"kind": "speeding", "start": 1, "end": 2,'
        ' "params": {"peak_speed": NaN}}]}',
        "tick must be a number",
    ),
    "episode_start_and_duration": (
        _scenario(episodes=[{"kind": "collision", "start": "1"}], duration="4"),
        "episode 0 start must be a number",
    ),
    "duration_and_speed_limit": (
        _scenario({"speed_limit": "fast"}, duration="4"),
        "duration must be a number",
    ),
    "non_finite_speed_limit_and_destination": (
        '{"duration": 4, "tick": 1, "constants": {"destination": [NaN, 0], "speed_limit": Infinity}}',
        "speed_limit must be finite",
    ),
    "non_finite_lane_width_and_route_start": (
        '{"duration": 4, "tick": 1, "constants": {"lane_width": NaN, "route_start": [0, -Infinity]}}',
        "route_start must be finite",
    ),
    "unknown_key_and_missing_tick": (
        '{"duration": 4, "mood": "calm"}',
        "unknown scenario keys ['mood']",
    ),
    "missing_tick_and_unknown_constant": (
        '{"duration": 4, "constants": {"gravity": 9.8}}',
        "scenario is missing 'tick'",
    ),
    "constants_not_an_object_and_bad_episodes": (
        _scenario([1], {"kind": "speeding"}),
        "constants must be an object",
    ),
    "bad_param_then_bad_start": (
        _scenario(episodes=[
            {"kind": "speeding", "start": 1, "end": 2, "params": {"peak_speed": "x"}},
            {"kind": "collision", "start": "y"},
        ]),
        "episode 0 param 'peak_speed' must be a number",
    ),
    "unknown_kind_and_unknown_param": (
        _scenario(episodes=[{"kind": "warp", "start": 1, "end": 2, "params": {"bogus": 1}}]),
        "unknown episode kind 'warp'",
    ),
    "unknown_param_and_no_sample_tick": (
        _scenario(episodes=[{"kind": "speeding", "start": 1.1, "end": 1.2, "params": {"bogus": 1}}]),
        "speeding episode has unknown params ['bogus']",
    ),
    "default_peak_speed_passes_then_low_peak_and_overlap": (
        _scenario({"speed_limit": 1}, [
            {"kind": "speeding", "start": 1, "end": 3},
            {"kind": "speeding", "start": 2, "end": 4, "params": {"peak_speed": 0.5}},
        ]),
        "speeding episode peak_speed must exceed the speed limit",
    ),
    "default_offset_and_rate_pass_then_positive_rate": (
        _scenario({"lane_width": 3.0}, [
            {"kind": "lane_departure", "start": 1, "end": 2},
            {"kind": "deceleration", "start": 0, "end": 1},
            {"kind": "deceleration", "start": 2, "end": 3, "params": {"rate": 1}},
        ]),
        "deceleration episode rate must be negative",
    ),
    "not_an_object": ("[1, 2]", "scenario file must be a JSON object"),
    "malformed_and_unknown_key": (
        '{"mood": "calm", "duration": 4,}',
        "malformed scenario file: Expecting property name enclosed in double quotes",
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT_SCENARIOS))
def test_multi_fault_scenario_files_report_the_first_fault(case, tmp_path, capsys):
    text, message = MULTI_FAULT_SCENARIOS[case]
    with pytest.raises(ScenarioError) as raised:
        load_scenario(text)
    assert str(raised.value) == message
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["gen", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# Touching same-kind episodes with parameters, a same-tick pair declared
# latest first, two collisions and no arrival, on a route off the x axis.
TOUCHING_SCENARIO = Scenario(
    duration=30.0,
    tick=0.1,
    route_end=Point2(300.0, 40.0),
    destination=Point2(290.0, 40.0),
    episodes=(
        Episode("speeding", 2.0, 4.0, {"peak_speed": 25.0}),
        Episode("speeding", 4.0, 6.5),
        Episode("lane_departure", 5.0, 7.0, {"offset": 7.4}),
        Episode("lane_departure", 3.0, 5.0),
        Episode("deceleration", 10.0, 12.3, {"rate": -3.0}),
        Episode("deceleration", 12.3, 14.0, {"rate": -1.0}),
        Episode("collision", 11.0, 11.0),
        Episode("collision", 20.04, 20.04),
    ),
)

# sha256 of each generated trace file, recorded before generation streamed.
GOLDEN_DIGESTS = {
    ("nominal", 0): "df3cd560c907f075c851128aeb1f795537d47922a5e150e5e75f53f27e353bd1",
    ("nominal", 7): "120ecea5a0fb17a72f2a19df7a4b3cd48f68e96b2c6316ee0f3f782beccccd2d",
    ("eventful", 0): "10b1b0175e53740f2f89c3f947b53e63a00c822d3315224411875c3f9f4af4df",
    ("eventful", 7): "01f53826a9f507699517cc0a38dd02123cfd6742d47fb75b72cb3e7ad5bc78ff",
    ("touching", 0): "4b34e64eba1b33ff93e476d1ff1d618e02e0c758d5075e1e61b3fb4e8393fd57",
    ("touching", 7): "5c2e92888edd971be090407bcf513a0e2985b6e3eb1ea27b0258fd11df88daf4",
    ("random 1", 1): "c7da072df5791d718492e90b221f0b843b3397fcd75a642000a759f6f2e9dc82",
    ("random 3", 3): "d63f55b3a2d15f0a99ecaa35fc755d3b50eeede02bcc70d69d637f05bc10e523",
    ("random 21", 21): "df817b948dfbc2541d082bf0afa63ff091286329dc157d3df9215858edae2ec4",
    ("random 34", 34): "00b7763fab238c09453b38a00b15287ef0e9f9ae338109f68fd22ca0fbacd521",
}


def golden_scenario(name):
    if name == "touching":
        return TOUCHING_SCENARIO
    if name.startswith("random "):
        # Without the episodes that never reach the trace, which validation
        # refuses: dropping them leaves every recorded digest as it was.
        scenario = random_scenario(random.Random(int(name.split()[1])))
        lost = shadowed(scenario)
        return replace(scenario, episodes=tuple(ep for ep in scenario.episodes if all(ep is not x for x in lost)))
    return load_scenario(load_example_scenario(name))


def scenario_file(scenario):
    """A scenario file that load_scenario reads as `scenario`: JSON writes
    each float by its repr, which reads back exactly."""
    return json.dumps({
        "duration": scenario.duration,
        "tick": scenario.tick,
        "constants": {
            "speed_limit": scenario.speed_limit,
            "destination": list(scenario.destination),
            "route_start": list(scenario.route_start),
            "route_end": list(scenario.route_end),
            "lane_width": scenario.lane_width,
        },
        "episodes": [
            {"kind": ep.kind, "start": ep.start, "end": ep.end, "params": dict(ep.params)}
            for ep in scenario.episodes
        ],
    })


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_DIGESTS))
def test_generated_bytes_match_the_recorded_digests(name, seed, tmp_path, capsys):
    scenario = golden_scenario(name)
    expected = GOLDEN_DIGESTS[name, seed]
    assert sha256(dump_trace(generate_trace(scenario, seed))) == expected
    path, out = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    path.write_text(scenario_file(scenario))
    assert load_scenario(path.read_text()) == scenario
    assert main(["gen", "--scenario", str(path), "--seed", str(seed), "--out", str(out)]) == 0
    assert sha256(out.read_text(encoding="utf-8")) == expected
    capsys.readouterr()
    assert main(["gen", "--scenario", str(path), "--seed", str(seed)]) == 0
    assert sha256(capsys.readouterr().out) == expected


# Scenarios whose validation once disagreed with the generator: (scenario,
# its ScenarioError text, or the tick indices of its speeding samples).
VANISHING_SCENARIOS = {
    "speeding_between_ticks": (  # was accepted, then held no sample
        Scenario(duration=450.0, tick=0.1, episodes=(Episode("speeding", 445.50000000100005, 445.50000000100016),)),
        "speeding episode [445.50000000100005, 445.50000000100016] contains no sample tick (tick = 0.1)",
    ),
    "speeding_on_a_tick": (  # was refused, though it holds tick 122
        Scenario(duration=40.0, tick=0.3, episodes=(Episode("speeding", 36.600000001, 36.600000001),)),
        [122],
    ),
    "speeding_shadowed_by_an_earlier_one": (  # was accepted, then held no sample of its own
        Scenario(10.0, 0.5, episodes=(Episode("speeding", 1.0, 2.0), Episode("speeding", 2.0, 2.0, {"peak_speed": 40.0}))),
        "speeding episode [2.0, 2.0] never reaches the trace: the earlier-declared [1.0, 2.0] holds each of its ticks"
        " (tick = 0.5)",
    ),
    "two_collisions_one_sample": (  # was accepted, then gave one collision sample
        Scenario(duration=10.0, tick=0.2, episodes=(Episode("collision", 5.0, 5.0), Episode("collision", 5.05, 5.05))),
        "collisions at 5.0 and 5.05 share a sample (tick = 0.2)",
    ),
}


@pytest.mark.parametrize("case", sorted(VANISHING_SCENARIOS))
def test_validation_refuses_what_generation_would_lose(case, tmp_path, capsys):
    scenario, expected = VANISHING_SCENARIOS[case]
    path, out = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    path.write_text(scenario_file(scenario))
    status = main(["gen", "--scenario", str(path), "--out", str(out)])
    if isinstance(expected, str):
        for validate in (validate_scenario, lambda s: load_scenario(scenario_file(s))):
            with pytest.raises(ScenarioError) as raised:
                validate(scenario)
            assert str(raised.value) == expected
        assert status == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()
        return
    validate_scenario(scenario)
    assert load_scenario(scenario_file(scenario)) == scenario
    assert status == 0
    messages = parse_trace(out.read_text()).messages
    assert [i for i, m in enumerate(messages) if m.values["speed"] > scenario.speed_limit] == expected
