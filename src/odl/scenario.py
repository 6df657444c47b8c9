"""Deterministic episode-driven trace generation.

A scenario stands in for a driving simulator: it declares a duration, a
sampling tick, route constants, and a list of property episodes (speeding,
lane_departure, collision, deceleration, arrival). The generated trace
carries fields {speed, acceleration, position, road_normal, collision}.
Seeded jitter is bounded so it can never cross an oracle threshold on its
own; scores are therefore predictable from the scenario alone, and identical
(scenario, seed) pairs yield byte-identical trace files.

validate_scenario runs the rules that place episodes on samples (_place):
an interval episode must hold a tick by _tick_range's exact test, and each
collision lands on its nearest tick (_collision_tick), no two on one. The
first declared episode of a kind holds a tick it shares with a later one
(_active_runs), and an episode left with no tick of its own is refused.
generate_messages places each episode once, by the same pass.

This is a property-episode generator, not a vehicle model: the channels are
deliberately independent (braking episodes do not move the speed channel).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ScenarioError
from .trace import Kind, Point2, Trace, TraceMessage, TraceSchema, json_object

# Most samples a scenario may ask for: floor(duration / tick + 1e-9) + 1.
# `odl gen` streams, so its memory does not grow with the samples; this
# bounds its run time and its file (~180 B a sample), and the memory of a
# Trace that generate_trace holds (~0.5 kB a sample).
MAX_SAMPLES = 10_000_000

# Schema of every generated trace; unit conventions: m/s, m/s^2, meters.
GEN_SCHEMA = TraceSchema(
    (
        ("speed", Kind.NUMBER),
        ("acceleration", Kind.NUMBER),
        ("position", Kind.POINT2),
        ("road_normal", Kind.NUMBER),
        ("collision", Kind.BOOLEAN),
    )
)

# Geometry margins: the arrival radius used by the bundled oracles is 12 m;
# keeping the standoff at 16 m and the arrival approach at 8 m leaves the
# threshold uncrossable by accident.
_ARRIVAL_CLEARANCE = 8.0
_STANDOFF = 16.0


@dataclass(frozen=True)
class Episode:
    kind: str
    start: float
    end: float
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    duration: float
    tick: float
    speed_limit: float = 22.35
    destination: Point2 = Point2(1000.0, 0.0)
    route_start: Point2 = Point2(0.0, 0.0)
    route_end: Point2 = Point2(1000.0, 0.0)
    lane_width: float = 3.7
    episodes: tuple[Episode, ...] = ()


# Each episode kind's parameters, each with its default for a scenario.
_EPISODE_PARAMS: dict[str, dict[str, Callable[[Scenario], float]]] = {
    "speeding": {"peak_speed": lambda scenario: scenario.speed_limit + 3.0},
    "lane_departure": {"offset": lambda scenario: scenario.lane_width},
    "collision": {},
    "deceleration": {"rate": lambda scenario: -2.0},
    "arrival": {},
}
EPISODE_KINDS = tuple(_EPISODE_PARAMS)
# The kinds whose episodes set a field over a run of ticks (_active_runs).
_INTERVAL_KINDS = ("speeding", "lane_departure", "deceleration")


def _params(scenario: Scenario, ep: Episode) -> dict[str, float]:
    """Each parameter of the episode's kind: its value, or its default."""
    defaults = _EPISODE_PARAMS[ep.kind]
    return {name: ep.params.get(name, default(scenario)) for name, default in defaults.items()}


def _dist(a: Point2, b: Point2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _episodes_of(scenario: Scenario, kind: str) -> list[Episode]:
    return [ep for ep in scenario.episodes if ep.kind == kind]


def _refuse_unknown(keys: Iterable[str], known: Iterable[str], what: str) -> None:
    unknown = set(keys) - set(known)
    if unknown:
        raise ScenarioError(f"{what} {sorted(unknown)}")


def _numbers(scenario: Scenario) -> Iterator[tuple[str, float]]:
    """(name, value) for every number of a scenario, in the order
    load_scenario reads them from a file."""
    for idx, ep in enumerate(scenario.episodes):
        yield f"episode {idx} start", ep.start
        yield f"episode {idx} end", ep.end
        for key, value in ep.params.items():
            yield f"episode {idx} param '{key}'", value
    yield "duration", scenario.duration
    yield "tick", scenario.tick
    for name in _CONSTANTS:
        value = getattr(scenario, name)
        for number in (value.x, value.y) if isinstance(value, Point2) else (value,):
            yield name, number


# (lo, hi, episode) tick spans by episode kind: _tick_range's, or _active_runs'.
_Runs = dict[str, list[tuple[int, int, Episode]]]


def validate_scenario(scenario: Scenario) -> None:
    """Raise ScenarioError unless every number is finite, the trace has at
    most MAX_SAMPLES samples, and the constants and episodes are
    consistent (see the README's scenario section)."""
    _place(scenario)


def _place(scenario: Scenario) -> tuple[int, _Runs, dict[int, float]]:
    """validate_scenario's checks, in their order, and what they place: the
    sample count, each interval kind's runs, and each collision's tick
    (mapped to the collision's start)."""
    for what, value in _numbers(scenario):
        if not math.isfinite(value):
            raise ScenarioError(f"{what} must be finite")
    if not scenario.tick > 0:
        raise ScenarioError("tick must be a positive number of seconds")
    if not scenario.duration >= 0:
        raise ScenarioError("duration must be a non-negative number of seconds")
    if not math.isfinite(scenario.duration / scenario.tick):
        raise ScenarioError("duration / tick overflows: too many samples")
    if (n := int(math.floor(scenario.duration / scenario.tick + 1e-9)) + 1) > MAX_SAMPLES:
        raise ScenarioError(f"duration / tick gives more than {MAX_SAMPLES} samples")
    start, end = scenario.route_start, scenario.route_end
    if not (math.isfinite(end.x - start.x) and math.isfinite(end.y - start.y)):
        raise ScenarioError("route_end - route_start must be finite")
    if scenario.speed_limit < 1.0:
        raise ScenarioError("speed_limit must be at least 1 m/s")
    if _dist(scenario.route_start, scenario.destination) < _STANDOFF:
        raise ScenarioError(f"route start must lie at least {_STANDOFF} m from the destination")
    landed: dict[int, float] = {}
    ranges: _Runs = {kind: [] for kind in EPISODE_KINDS}
    for ep in scenario.episodes:
        if ep.kind not in EPISODE_KINDS:
            raise ScenarioError(f"unknown episode kind '{ep.kind}'")
        if not (0.0 <= ep.start <= ep.end <= scenario.duration):
            raise ScenarioError(f"{ep.kind} episode [{ep.start}, {ep.end}] must lie within "
                                f"[0, {scenario.duration}] with start <= end")
        _refuse_unknown(ep.params, _EPISODE_PARAMS[ep.kind], f"{ep.kind} episode has unknown params")
        # Each episode must reach a sample by the rule that places it there.
        if ep.kind == "collision":
            if ep.end != ep.start:
                raise ScenarioError("collision episodes are instantaneous (end = start)")
            i = _collision_tick(ep, scenario.tick, n)
            if i in landed:
                raise ScenarioError(f"collisions at {landed[i]} and {ep.start} share a sample (tick = {scenario.tick})")
            landed[i] = ep.start
        else:
            lo, hi = _tick_range(ep, scenario.tick, n)
            if lo > hi:
                raise ScenarioError(f"{ep.kind} episode [{ep.start}, {ep.end}] contains no sample tick "
                                    f"(tick = {scenario.tick})")
            ranges[ep.kind].append((lo, hi, ep))
        params = _params(scenario, ep)
        if ep.kind == "speeding" and params["peak_speed"] <= scenario.speed_limit:
            raise ScenarioError("speeding episode peak_speed must exceed the speed limit")
        if ep.kind == "deceleration" and params["rate"] >= 0.0:
            raise ScenarioError("deceleration episode rate must be negative")
        if ep.kind == "lane_departure" and min(abs(params["offset"] - k * scenario.lane_width) for k in (1, 2)) > 0.25:
            raise ScenarioError("lane_departure offset must sit within 0.25 m of the lane line "
                                "(lane_width or 2*lane_width)")
    for kind in EPISODE_KINDS:
        spans = sorted(_episodes_of(scenario, kind), key=lambda ep: (ep.start, ep.end))
        for prev, cur in zip(spans, spans[1:]):
            if cur.start < prev.end:
                raise ScenarioError(f"{kind} episodes [{prev.start}, {prev.end}] and [{cur.start}, {cur.end}] overlap")
    # An interval episode must keep a tick under the generator's placement.
    runs: _Runs = {}
    for kind in _INTERVAL_KINDS:
        runs[kind] = _active_runs(ranges[kind])
        owners = {id(ep) for _, _, ep in runs[kind]}
        for lo, hi, ep in ranges[kind]:
            if id(ep) not in owners:
                held = list(dict.fromkeys(
                    f"[{h.start}, {h.end}]" for h_lo, h_hi, h in runs[kind] if h_lo <= hi and lo <= h_hi
                ))
                raise ScenarioError(
                    f"{kind} episode [{ep.start}, {ep.end}] never reaches the trace: the earlier-declared "
                    f"{' and '.join(held)} {'holds' if len(held) == 1 else 'hold'} each of its ticks "
                    f"(tick = {scenario.tick})"
                )
    if _episodes_of(scenario, "arrival") and _dist(scenario.route_end, scenario.destination) > _ARRIVAL_CLEARANCE:
        raise ScenarioError(f"arrival episodes require the route end within {_ARRIVAL_CLEARANCE} m of the destination")
    return n, runs, landed


def _tick_range(ep: Episode, tick: float, n: int) -> tuple[int, int]:
    """(lo, hi): the tick indices i < n with start - 1e-9 <= i * tick <=
    end + 1e-9, lo > hi when there are none. i * tick never decreases as i
    grows, so they form one run, whose ends bisection finds by that
    predicate itself."""
    def key(i: int) -> float:
        return i * tick

    return bisect_left(range(n), ep.start - 1e-9, key=key), bisect_right(range(n), ep.end + 1e-9, key=key) - 1


def _collision_tick(ep: Episode, tick: float, n: int) -> int:
    """The tick index i < n nearest to the collision's start: its sample."""
    return min(n - 1, max(0, int(math.floor(ep.start / tick + 0.5))))


def _active_runs(spans: Iterable[tuple[int, int, Episode]]) -> list[tuple[int, int, Episode]]:
    """Disjoint (lo, hi, episode) runs, ordered by lo: tick index i lies in
    a run of the first of the (lo, hi, episode) `spans` (declaration order,
    each episode's _tick_range) whose span holds i, and in none if there is
    no such span. An episode keeps the part of its ticks that no episode
    declared before it holds, so the first-declared wins a shared tick."""
    runs: list[tuple[int, int, Episode]] = []
    for lo, hi, ep in spans:
        # From the first run that ends at or after lo: each run that starts
        # at or before hi holds ticks this episode loses.
        k = bisect_left(runs, lo, key=itemgetter(1))
        while lo <= hi:
            if k == len(runs) or hi < runs[k][0]:
                runs.insert(k, (lo, hi, ep))
                break
            held_lo, held_hi, _ = runs[k]
            if lo < held_lo:
                runs.insert(k, (lo, held_lo - 1, ep))
                k += 1
            lo, k = held_hi + 1, k + 1
    return runs


def _by_tick(runs: Iterable[tuple[int, int, object]], n: int) -> Iterator[object]:
    """For each tick index i < n, the value of the run that holds i, or None:
    a walk over the runs that holds nothing per tick."""
    walk = []
    done = 0
    for lo, hi, value in runs:
        walk += [repeat(None, lo - done), repeat(value, hi + 1 - lo)]
        done = hi + 1
    walk.append(repeat(None, n - done))
    return chain.from_iterable(walk)


# Cached so that the traces of one route scan it once.
@lru_cache(maxsize=16)
def _standoff(route_start: Point2, route_end: Point2, destination: Point2) -> float:
    """_standoff_progress of one route. Each step does the float operations
    by which _messages places the vehicle, then those of _dist to the
    destination, in their order, without building the Point2s."""
    steps = 2048
    ax, ay = route_start.x, route_start.y
    spanx, spany = route_end.x - ax, route_end.y - ay
    destx, desty = destination.x, destination.y
    best = 0.0
    for k in range(steps + 1):
        frac = k / steps
        if math.hypot(ax + spanx * frac - destx, ay + spany * frac - desty) < _STANDOFF:
            break
        best = frac
    return best


def _standoff_progress(scenario: Scenario) -> float:
    """Largest route fraction that keeps the vehicle >= 16 m from the
    destination all the way; used when no arrival episode exists."""
    return _standoff(scenario.route_start, scenario.route_end, scenario.destination)


def generate_messages(scenario: Scenario, seed: int) -> Iterator[TraceMessage]:
    """The messages of generate_trace(scenario, seed), one at a time, so
    that a trace can be written without being held: memory does not grow
    with the sample count. The scenario is validated now, and
    ScenarioError raised for one validate_scenario refuses, before any
    message is asked for."""
    return _messages(scenario, seed, *_place(scenario))


def _messages(
    scenario: Scenario, seed: int, n: int, runs: _Runs, collision_ticks: Mapping[int, float]
) -> Iterator[TraceMessage]:
    tick, duration = scenario.tick, scenario.duration
    speeding, lane, decel = (
        _by_tick([(lo, hi, _params(scenario, ep)[param]) for lo, hi, ep in runs[kind]], n)
        for kind, param in zip(_INTERVAL_KINDS, ("peak_speed", "offset", "rate"))
    )
    arrivals = _episodes_of(scenario, "arrival")
    arrival_start = min(ep.start for ep in arrivals) if arrivals else None
    cap = None if arrivals else _standoff_progress(scenario)
    cruise = 0.6 * scenario.speed_limit
    ax, ay = scenario.route_start
    spanx, spany = scenario.route_end.x - ax, scenario.route_end.y - ay
    # Each jitter is a + (b - a) * random(), what Random.uniform(a, b)
    # computes; for uniform(0.0, 0.02) that is 0.02 * random() exactly.
    random = Random(seed).random
    new = tuple.__new__

    for i, peak_speed, offset, rate in zip(range(n), speeding, lane, decel):
        t = i * tick
        jitter_speed = -0.15 + (0.15 - -0.15) * random()
        jitter_acc = 0.02 * random()
        jitter_road = -0.05 + (0.05 - -0.05) * random()
        if arrival_start is not None:
            # min(t / arrival_start, 1.0) without the call: the quotient is
            # at most 1.0 when t < arrival_start, and at least 1.0 otherwise.
            frac = t / arrival_start if t < arrival_start else 1.0
        else:
            frac = (t / duration if duration > 0 else 0.0) * cap
        yield new(TraceMessage, (t, {
            "speed": cruise + jitter_speed if peak_speed is None else peak_speed + abs(jitter_speed),
            "acceleration": jitter_acc if rate is None else rate - jitter_acc,
            "position": new(Point2, (ax + spanx * frac, ay + spany * frac)),
            "road_normal": jitter_road if offset is None else offset + jitter_road,
            "collision": i in collision_ticks,
        }))


def generate_trace(scenario: Scenario, seed: int) -> Trace:
    """Sample the scenario at its tick; injects each episode exactly on its
    interval. Pure in (scenario, seed): generate_messages collected into a
    Trace, which holds every sample.

    Raises ScenarioError for a scenario validate_scenario refuses. Each
    sample costs O(1): the active episode of each kind, its parameter
    resolved once per run of ticks, comes from a walk over those runs."""
    return Trace(schema=GEN_SCHEMA, messages=tuple(generate_messages(scenario, seed)))


def _point_from_json(raw: object, what: str) -> Point2:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
    ):
        raise ScenarioError(f"{what} must be a two-element [x, y] array")
    return Point2(_number_from_json(raw[0], what), _number_from_json(raw[1], what))


def _number_from_json(raw: object, what: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{what} must be a number")
    try:
        return float(raw)
    except OverflowError:  # an integer beyond the doubles; validate_scenario refuses it
        return math.inf


# The optional scenario constants, in the order load_scenario reads them,
# each with its reader; a constant a file omits keeps its Scenario default.
_CONSTANTS: dict[str, Callable[[object, str], object]] = {
    "speed_limit": _number_from_json,
    "destination": _point_from_json,
    "route_start": _point_from_json,
    "route_end": _point_from_json,
    "lane_width": _number_from_json,
}


def load_scenario(text: str) -> Scenario:
    """Parse a scenario file: a JSON object with duration, tick, optional
    constants (those of _CONSTANTS), and episodes [{kind, start, end?,
    params?}]."""
    obj = json_object(text, "scenario file", ScenarioError)
    _refuse_unknown(obj, ("duration", "tick", "constants", "episodes"), "unknown scenario keys")
    for required in ("duration", "tick"):
        if required not in obj:
            raise ScenarioError(f"scenario is missing '{required}'")

    constants = obj.get("constants", {})
    if not isinstance(constants, dict):
        raise ScenarioError("constants must be an object")
    _refuse_unknown(constants, _CONSTANTS, "unknown constants")

    episodes = []
    raw_episodes = obj.get("episodes", [])
    if not isinstance(raw_episodes, list):
        raise ScenarioError("episodes must be an array")
    for idx, raw in enumerate(raw_episodes):
        if not isinstance(raw, dict):
            raise ScenarioError(f"episode {idx} must be an object")
        _refuse_unknown(raw, ("kind", "start", "end", "params"), f"episode {idx} has unknown keys")
        if "kind" not in raw or "start" not in raw:
            raise ScenarioError(f"episode {idx} needs 'kind' and 'start'")
        start = _number_from_json(raw["start"], f"episode {idx} start")
        end = _number_from_json(raw.get("end", start), f"episode {idx} end")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ScenarioError(f"episode {idx} params must be an object")
        episodes.append(
            Episode(
                kind=str(raw["kind"]),
                start=start,
                end=end,
                params={
                    key: _number_from_json(value, f"episode {idx} param '{key}'")
                    for key, value in params.items()
                },
            )
        )

    scenario = Scenario(
        duration=_number_from_json(obj["duration"], "duration"),
        tick=_number_from_json(obj["tick"], "tick"),
        episodes=tuple(episodes),
        **{
            name: read(constants[name], name)
            for name, read in _CONSTANTS.items()
            if name in constants
        },
    )
    validate_scenario(scenario)
    return scenario
