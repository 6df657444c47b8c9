"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every expected value here is either trivially forced, computed by
hand (with the computation spelled out where it lives), or checked against
an independent oracle (the batch reference evaluator, the closed-form
Spearman formula).
"""

import json
import random
import time
from contextlib import contextmanager

from _drive import listing_suite
from _generators import gen_checkable_od, gen_schema, gen_trace, gen_wild_od
from _spearman import spearman_closed_form
from _traces import concat_traces, line_report
from odl import (
    BUILTIN_NAMES,
    Frequency,
    OracleDefinition,
    check_od,
    correlation_matrix,
    format_od,
    generate_trace,
    load_builtin,
    load_scenario,
    mean_scores,
    parse_od,
    parse_trace,
    rank_solutions,
    read_scores_csv,
    reference_score,
    score_trace,
    spearman,
)
from odl.cli import main
from odl.scenario import GEN_SCHEMA


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_collision_worked_example():
    """A collision-count-times-five oracle over the two-collision trace
    yields summary exactly 10."""
    with criterion(1, "collision worked example", 1.0):
        trace = parse_trace(
            '{"collision": "boolean"}\n'
            '{"t": 1, "collision": true}\n'
            '{"t": 2, "collision": true}\n'
        )
        od = parse_od(
            "hits = scoring_function(event = collision, action = 5, frequency = action_sum);"
        )
        report = score_trace(check_od(od, trace.schema), trace)
        assert report.summary == 10.0


def test_criterion_2_listing_semantics_suite():
    """The four bundled single-property oracles match hand-computed scores on
    hand-built traces covering the boundary cases."""
    with criterion(2, "listing semantics suite", 5.0):
        suite = listing_suite()
        assert len(suite) >= 12
        oracles = {
            name: parse_od(load_builtin(name))
            for name in ("listing1", "listing2", "listing3", "listing4")
        }
        checks = 0
        for case_name, trace, expected in suite:
            for od_name, od in oracles.items():
                report = score_trace(check_od(od, trace.schema), trace)
                assert abs(report.summary - expected[od_name]) <= 1e-9, (
                    case_name,
                    od_name,
                    report.score_map(),
                )
                checks += 1
        assert checks >= 48


def test_criterion_3_and_4_differential_with_permutations():
    """score_trace equals reference_score exactly on 1000 generated pairs,
    and permuting declaration order never changes any final score."""
    with criterion(3, "differential oracle, 1000 pairs (+ criterion 4)", 60.0):
        permutation_checks = 0
        for i in range(1000):
            rng = random.Random(100_000 + i)
            schema = gen_schema(rng)
            od = gen_checkable_od(rng, schema)
            size = 200 if i % 10 == 0 else 60
            trace = gen_trace(rng, schema, max_messages=size)
            checked = check_od(od, schema)
            streaming = score_trace(checked, trace)
            batch = reference_score(checked, trace)
            assert streaming == batch, i
            assert line_report(checked, trace) == batch._replace(firings=()), i
            assert line_report(checked, trace, log=True) == batch, i

            # criterion 4: declaration-order permutation
            functions = list(od.functions)
            rng.shuffle(functions)
            permuted = OracleDefinition(
                constants=od.constants,
                functions=tuple(functions),
                summary=od.summary,
            )
            shuffled = score_trace(check_od(permuted, schema), trace)
            assert shuffled.score_map() == streaming.score_map(), i
            permutation_checks += 1
        assert permutation_checks == 1000
        print("criterion 4 (notification-order invariance): PASS (inside criterion 3)")


def test_criterion_5_round_trip():
    """parse_od(format_od(od)) is structurally od for 500 generated
    definitions, and all 7 bundled assets parse, check, and round-trip."""
    with criterion(5, "format/parse round trip", 10.0):
        for i in range(250):
            od = gen_wild_od(random.Random(200_000 + i))
            assert parse_od(format_od(od)) == od, i
        for i in range(250):
            rng = random.Random(300_000 + i)
            od = gen_checkable_od(rng, gen_schema(rng))
            assert parse_od(format_od(od)) == od, i
        for name in BUILTIN_NAMES:
            od = parse_od(load_builtin(name))
            check_od(od, GEN_SCHEMA)
            assert parse_od(format_od(od)) == od, name


def test_criterion_6_spearman_correctness():
    """Exact +/-1 cases, the 0.8 worked example, and Pearson-on-ranks equal
    to the correctly rounded closed form on 100 random tie-free vectors."""
    with criterion(6, "spearman correctness", 5.0):
        a = {"A": 0.0, "B": 1.0, "C": 2.0}
        assert spearman(a, dict(a)) == 1.0
        assert spearman(a, {"A": 2.0, "B": 1.0, "C": 0.0}) == -1.0
        x = {f"s{i}": float(r) for i, r in enumerate((0, 1, 2, 3))}
        y = {f"s{i}": float(r) for i, r in enumerate((0, 2, 1, 3))}
        assert spearman(x, y) == 0.8
        for i in range(100):
            rng = random.Random(400_000 + i)
            n = rng.randint(2, 50)
            xs = list(range(n))
            ys = list(range(n))
            rng.shuffle(xs)
            rng.shuffle(ys)
            va = {f"s{j}": float(xs[j]) for j in range(n)}
            vb = {f"s{j}": float(ys[j]) for j in range(n)}
            assert spearman(va, vb) == spearman_closed_form(va, vb), i


def _solution_scenario(index: int) -> dict:
    """Deterministic episode mixes: collisions, speeding length, lane-run
    length, arrival, and braking-before-collision all vary by solution."""
    code = (index * 37) % 108
    n_collisions, code = code % 3, code // 3
    speed_level, code = code % 3, code // 3
    lane_level, code = code % 3, code // 3
    arrival, code = code % 2, code // 2
    braked = code % 2
    episodes = []
    speed_len = (0.0, 3.0, 8.0)[speed_level]
    if speed_len:
        episodes.append(
            {"kind": "speeding", "start": 5.0, "end": 5.0 + speed_len, "params": {"peak_speed": 26.0}}
        )
    lane_len = (0.0, 2.4, 6.0)[lane_level]
    if lane_len:
        episodes.append({"kind": "lane_departure", "start": 14.0, "end": 14.0 + lane_len})
    if braked:
        episodes.append(
            {"kind": "deceleration", "start": 24.5, "end": 27.9, "params": {"rate": -2.5}}
        )
    for c in range(n_collisions):
        episodes.append({"kind": "collision", "start": 28.0 + 4.0 * c})
    if arrival:
        episodes.append({"kind": "arrival", "start": 38.0, "end": 40.0})
    return {"duration": 40.0, "tick": 0.2, "episodes": episodes}


def _run_cli(*args: str) -> None:
    code = main(list(args))
    assert code == 0, args


_REPLICATION_ODS = ("od1_rubric", "od2_competition", "od3_framework")


def _replicate(base_dir) -> tuple[str, list[str]]:
    """Run the full pipeline via the CLI: gen 30x5 traces, batch-score with
    the three composite oracles, rank, and emit the correlation matrix.
    Returns (matrix CSV text, scores CSV texts)."""
    traces_dir = base_dir / "traces"
    traces_dir.mkdir()
    for i in range(30):
        scenario_path = base_dir / f"scenario{i:02d}.json"
        scenario_path.write_text(json.dumps(_solution_scenario(i)))
        for j in range(5):
            _run_cli(
                "gen",
                "--scenario", str(scenario_path),
                "--seed", str(1000 + i * 10 + j),
                "--out", str(traces_dir / f"sol{i:02d}__t{j}.jsonl"),
            )
    ranks_paths = []
    scores_texts = []
    for name in _REPLICATION_ODS:
        od_path = base_dir / f"{name}.odl"
        od_path.write_text(load_builtin(name))
        scores_path = base_dir / f"scores_{name}.csv"
        _run_cli(
            "batch",
            "--od", str(od_path),
            "--traces", str(traces_dir / "*.jsonl"),
            "--out", str(scores_path),
        )
        ranks_path = base_dir / f"{name}.csv"
        _run_cli("rank", "--scores", str(scores_path), "--out", str(ranks_path))
        ranks_paths.append(ranks_path)
        scores_texts.append(scores_path.read_text())
    matrix_path = base_dir / "matrix.csv"
    _run_cli("compare", *[str(p) for p in ranks_paths], "--out", str(matrix_path))
    return matrix_path.read_text(), scores_texts


def test_criterion_7_scaled_ranking_replication(tmp_path):
    """30 synthetic solutions x 5 traces, scored by the three composite
    oracles through the CLI alone: symmetric unit-diagonal 3x3 matrix, at
    least one off-diagonal pair below 0.95, fully deterministic."""
    with criterion(7, "scaled ranking replication via CLI", 60.0):
        run_a = tmp_path / "run_a"
        run_a.mkdir()
        matrix_text, scores_texts = _replicate(run_a)

        lines = matrix_text.splitlines()
        assert lines[0] == "od," + ",".join(_REPLICATION_ODS)
        values = [[float(cell) for cell in line.split(",")[1:]] for line in lines[1:]]
        assert len(values) == 3
        for i in range(3):
            assert values[i][i] == 1.0
            for j in range(3):
                assert values[i][j] == values[j][i]
                assert -1.0 <= values[i][j] <= 1.0
        off_diagonal = [values[i][j] for i in range(3) for j in range(3) if i != j]
        assert min(off_diagonal) < 0.95, off_diagonal

        # the library-level matrix agrees with the CLI-assembled one
        tables = [read_scores_csv(text) for text in scores_texts]
        library_matrix = correlation_matrix(tables)
        for i in range(3):
            for j in range(3):
                assert values[i][j] == library_matrix[i][j]

        # full determinism under the fixed seeds
        run_b = tmp_path / "run_b"
        run_b.mkdir()
        matrix_again, scores_again = _replicate(run_b)
        assert matrix_again == matrix_text
        assert scores_again == scores_texts


# Tick assignments for criterion 7's solutions, each a function of a
# solution's index: mixed ticks stand for simulators that sample at
# different rates.
TICK_MIXES = {
    "all 0.2": lambda i: 0.2,
    "all 0.1": lambda i: 0.1,
    "even solutions 0.2, odd 0.1": lambda i: 0.1 if i % 2 else 0.2,
    "even 0.2, odd 0.05": lambda i: 0.05 if i % 2 else 0.2,
    "solutions 0-14 at 0.1, the rest 0.2": lambda i: 0.1 if i < 15 else 0.2,
}


def _ranked_corpus(ticks) -> list[dict[str, float]]:
    """The ranks of criterion 7's 30 solutions by each composite oracle, with
    solution i sampled at ticks(i), through library calls alone."""
    checked = [check_od(parse_od(load_builtin(name)), GEN_SCHEMA) for name in _REPLICATION_ODS]
    tables = [{} for _ in checked]
    for i in range(30):
        scenario = load_scenario(json.dumps({**_solution_scenario(i), "tick": ticks(i)}))
        for j in range(5):
            trace = generate_trace(scenario, seed=1000 + i * 10 + j)
            for table, oracle in zip(tables, checked):
                table.setdefault(f"sol{i:02d}", []).append(score_trace(oracle, trace).summary)
    return [rank_solutions(mean_scores(table)) for table in tables]


def test_criterion_9_mixed_ticks():
    """Criterion 7's corpus scored in process under each of TICK_MIXES. With
    one tick for every solution, the rank correlations are criterion 7's.
    With mixed ticks, od2's and od3's rankings stay those at 0.2, and od1's
    moves: od1_rubric's speed_compliance charges a point per speeding
    message, so a solution sampled more often is charged more."""
    with criterion(9, "mixed ticks", 30.0):
        ranked = {label: _ranked_corpus(ticks) for label, ticks in TICK_MIXES.items()}
        at_02 = ranked["all 0.2"]
        print("ticks | rho(od1, od2) rho(od1, od3) rho(od2, od3) | od1 od2 od3 vs. their ranking at 0.2")
        table = {}
        for label, ranks in ranked.items():
            pairs = [spearman(ranks[a], ranks[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
            own = [spearman(now, then) for now, then in zip(ranks, at_02)]
            table[label] = [round(rho, 3) for rho in (*pairs, *own)]
            print(f"{label} | {' '.join(f'{rho:.3f}' for rho in pairs)} | {' '.join(f'{rho:.3f}' for rho in own)}")
            assert ranks[1:] == at_02[1:], label
        assert table == {
            "all 0.2": [0.178, 0.178, 0.576, 1.0, 1.0, 1.0],
            "all 0.1": [0.178, 0.178, 0.576, 1.0, 1.0, 1.0],
            "even solutions 0.2, odd 0.1": [0.127, 0.197, 0.576, 0.973, 1.0, 1.0],
            "even 0.2, odd 0.05": [0.127, 0.197, 0.576, 0.872, 1.0, 1.0],
            "solutions 0-14 at 0.1, the rest 0.2": [0.077, 0.198, 0.576, 0.969, 1.0, 1.0],
        }


def test_criterion_8_property_invariants():
    """first fires at most once; never-true events leave scores at their
    initial; condition-free notification-free action_sum is additive under
    concatenation; every score equals initial plus its firing deltas."""
    with criterion(8, "property invariants suite", 30.0):
        for i in range(150):
            rng = random.Random(500_000 + i)
            schema = gen_schema(rng)
            od = gen_checkable_od(rng, schema)
            trace = gen_trace(rng, schema, max_messages=60)
            report = score_trace(check_od(od, schema), trace)

            fired = {fn.name: 0 for fn in od.functions}
            for firing in report.firings:
                fired[firing.function] += 1
            for fn in od.functions:
                if fn.frequency is Frequency.FIRST:
                    assert fired[fn.name] <= 1, i

            totals = {fn.name: fn.initial for fn in od.functions}
            for firing in report.firings:
                totals[firing.function] += firing.delta
            assert totals == report.score_map(), i

        for i in range(150):
            rng = random.Random(600_000 + i)
            schema = gen_schema(rng)
            od = gen_checkable_od(rng, schema, force_false_events=True)
            trace = gen_trace(rng, schema, max_messages=60)
            report = score_trace(check_od(od, schema), trace)
            assert report.score_map() == {fn.name: fn.initial for fn in od.functions}
            assert report.firings == ()

        for i in range(150):
            rng = random.Random(700_000 + i)
            schema = gen_schema(rng)
            od = gen_checkable_od(
                rng,
                schema,
                integer_actions=True,
                allow_conditions=False,
                allow_notifications=False,
            )
            od = OracleDefinition(
                constants=od.constants,
                functions=tuple(
                    fn.__class__(
                        name=fn.name,
                        event=fn.event,
                        frequency=Frequency.ACTION_SUM,
                        action=fn.action,
                        initial=fn.initial,
                    )
                    for fn in od.functions
                ),
                summary=None,
            )
            checked = check_od(od, schema)
            first = gen_trace(rng, schema, max_messages=40)
            start = first.messages[-1].t if first.messages else 0.0
            second = gen_trace(rng, schema, max_messages=40, t_start=start)
            joined = concat_traces(first, second)
            s1 = score_trace(checked, first).score_map()
            s2 = score_trace(checked, second).score_map()
            s12 = score_trace(checked, joined).score_map()
            for fn in od.functions:
                assert s12[fn.name] == s1[fn.name] + s2[fn.name] - fn.initial, i
