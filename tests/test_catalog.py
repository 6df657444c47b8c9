"""Bundled oracle assets: parse, check, round-trip, and frozen hand scores."""

import pytest

from _drive import NEAR, drive
from odl import (
    BUILTIN_NAMES,
    CatalogError,
    GEN_SCHEMA,
    check_od,
    format_od,
    generate_trace,
    load_builtin,
    load_example_scenario,
    load_scenario,
    parse_od,
    score_trace,
)


def test_catalog_names_stable():
    assert BUILTIN_NAMES == (
        "listing1",
        "listing2",
        "listing3",
        "listing4",
        "od1_rubric",
        "od2_competition",
        "od3_framework",
    )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_entry_parses_checks_and_round_trips(name):
    source = load_builtin(name)
    od = parse_od(source)
    check_od(od, GEN_SCHEMA)
    assert parse_od(format_od(od)) == od


def test_unknown_name_rejected():
    with pytest.raises(CatalogError, match="unknown builtin oracle 'listing9'"):
        load_builtin("listing9")
    with pytest.raises(CatalogError, match="^unknown example scenario 'stormy'$"):
        load_example_scenario("stormy")


def test_listing1_binds_its_constant():
    od = parse_od(load_builtin("listing1"))
    assert od.constants == (("MAX_SPEED", 22.35),)
    assert od.function_names() == ("speeding",)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("scenario_name", ["nominal", "eventful"])
def test_every_entry_scores_generated_traces(name, scenario_name):
    scenario = load_scenario(load_example_scenario(scenario_name))
    trace = generate_trace(scenario, 13)
    checked = check_od(parse_od(load_builtin(name)), trace.schema)
    score_trace(checked, trace)  # must not raise


def _rubric_trace():
    """One collision at t=3, a 4 s lane-line run over t=5..9, arrival at t=9."""
    rows = []
    for t in range(10):
        row = {"t": float(t)}
        if t == 3:
            row["collision"] = True
        if t >= 5:
            row["road_normal"] = 3.7
        if t == 9:
            row["position"] = NEAR
        rows.append(row)
    return drive(rows)


def test_od2_competition_hand_score():
    # budget 100 - 25 (collision) = 75; completion bonus 30; one lane
    # sequence longer than 3 s costs 8 -> 75 + 30 - 8 = 97
    trace = _rubric_trace()
    report = score_trace(check_od(parse_od(load_builtin("od2_competition")), GEN_SCHEMA), trace)
    assert report.score_map() == {
        "driving_budget": 75.0,
        "route_completion": 30.0,
        "lane_infraction": -8.0,
    }
    assert report.summary == 97.0


def test_od1_rubric_hand_score():
    # -1 lane sequence, -1 collision, +5 goal -> 3
    trace = _rubric_trace()
    report = score_trace(check_od(parse_od(load_builtin("od1_rubric")), GEN_SCHEMA), trace)
    assert report.summary == 3.0


def test_od3_framework_hand_score():
    # no speeding (0), one unmitigated collision (-50), goal bonus (+5) -> -45
    trace = _rubric_trace()
    report = score_trace(check_od(parse_od(load_builtin("od3_framework")), GEN_SCHEMA), trace)
    assert report.score_map()["mitigated_collisions"] == 0.0
    assert report.summary == -45.0


def test_property_classes_covered():
    """Safety (listing1), liveness (listing2), timeliness (listing3), and
    temporal (listing4) are each represented by a dedicated catalog entry."""
    l3 = parse_od(load_builtin("listing3"))
    assert l3.functions[0].condition is not None  # timeliness gates on time
    l4 = parse_od(load_builtin("listing4"))
    assert any(fn.notifications for fn in l4.functions)  # temporal uses timers
