"""CLI behavior: commands, exit statuses, output determinism."""

import json

import pytest

from odl import check_od, dump_trace, load_builtin, load_example_scenario
from odl import cli
from odl.cli import main
from _drive import drive, listing_suite


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "listing1.odl").write_text(load_builtin("listing1"))
    (tmp_path / "listing3.odl").write_text(load_builtin("listing3"))
    (tmp_path / "scenario.json").write_text(load_example_scenario("eventful"))
    return tmp_path


def test_check_ok_with_trace(workspace, capsys):
    trace_path = workspace / "nominal.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0}])))
    code = main(["check", str(workspace / "listing1.odl"), "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr()
    assert out.out.startswith("ok: 1 scoring function")
    assert out.err == ""


def test_check_without_trace_warns(workspace, capsys):
    assert main(["check", str(workspace / "listing1.odl")]) == 0
    captured = capsys.readouterr()
    assert "not verified" in captured.err


def test_check_syntax_error_exits_1(workspace, capsys):
    bad = workspace / "broken.odl"
    bad.write_text("speeding = scoring_function(event = );")
    assert main(["check", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_check_error_exits_1(workspace, capsys):
    bad = workspace / "bad_types.odl"
    bad.write_text("f = scoring_function(event = position > 1, frequency = first);")
    trace_path = workspace / "nominal.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0}])))
    assert main(["check", str(bad), "--trace", str(trace_path)]) == 1
    assert "ordering" in capsys.readouterr().err


def test_missing_file_exits_2(workspace, capsys):
    assert main(["check", str(workspace / "nope.odl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_score_text_and_machine(workspace, capsys):
    trace_path = workspace / "speedy.jsonl"
    trace_path.write_text(
        dump_trace(drive([{"t": float(i), "speed": 30.0} for i in range(3)]))
    )
    assert main(["score", "--od", str(workspace / "listing1.odl"), "--trace", str(trace_path)]) == 0
    text = capsys.readouterr().out
    assert "speeding: -3.0" in text
    assert "summary: -3.0" in text

    assert (
        main(
            [
                "score",
                "--od", str(workspace / "listing1.odl"),
                "--trace", str(trace_path),
                "--report", "machine",
                "--log-firings",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["scores"] == {"speeding": -3.0}
    assert payload["summary"] == -3.0
    assert [f["message_index"] for f in payload["firings"]] == [0, 1, 2]


def test_score_log_firings_lists_single_lane_firing(workspace, capsys):
    # one 4 s lane run and one 2 s lane run: exactly one firing
    suite = dict((name, trace) for name, trace, _ in listing_suite())
    trace_path = workspace / "lane.jsonl"
    trace_path.write_text(dump_trace(suite["lane_two_runs"]))
    assert (
        main(
            [
                "score",
                "--od", str(workspace / "listing3.odl"),
                "--trace", str(trace_path),
                "--log-firings",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "firings (1):" in out


def test_evaluation_error_exits_1(workspace, capsys):
    od = workspace / "divzero.odl"
    od.write_text("f = scoring_function(event = collision, action = 1 / (t - t), frequency = all_sum);")
    trace_path = workspace / "crash.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0, "collision": True}])))
    assert main(["score", "--od", str(od), "--trace", str(trace_path)]) == 1
    assert "division by zero" in capsys.readouterr().err


def test_batch_rows_and_single_equivalence(workspace, capsys):
    traces = {
        "alice__run1": drive([{"t": 0.0, "speed": 30.0}]),
        "alice__run2": drive([{"t": 0.0}]),
        "bob__run1": drive([{"t": 0.0, "speed": 30.0}, {"t": 1.0, "speed": 25.0}]),
        "bob__run2": drive([{"t": 0.0}]),
        "carol__run1": drive([{"t": 0.0}]),
        "carol__run2": drive([{"t": 0.0}]),
    }
    for stem, trace in traces.items():
        (workspace / f"{stem}.jsonl").write_text(dump_trace(trace))
    out_path = workspace / "scores.csv"
    code = main(
        [
            "batch",
            "--od", str(workspace / "listing1.odl"),
            "--traces", str(workspace / "*__*.jsonl"),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "solution,trace,score"
    assert len(lines) == 7
    assert lines[1] == "alice,run1,-1.0"
    assert lines[3] == "bob,run1,-2.0"

    # batch rows equal individually run scores
    for stem, trace in traces.items():
        assert (
            main(
                [
                    "score",
                    "--od", str(workspace / "listing1.odl"),
                    "--trace", str(workspace / f"{stem}.jsonl"),
                    "--report", "machine",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        solution, run = stem.split("__")
        assert f"{solution},{run},{payload['summary']!r}" in lines


def test_overflow_exits_1(workspace, capsys):
    od = workspace / "overflow.odl"
    od.write_text(
        "const x = 1e308;\n"
        "f = scoring_function(event = collision, action = x * 10, frequency = all_sum);"
    )
    trace_path = workspace / "crash.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0, "collision": True}])))
    for report in ("text", "machine"):
        assert main(["score", "--od", str(od), "--trace", str(trace_path), "--report", report]) == 1
        captured = capsys.readouterr()
        assert "is non-finite (inf)" in captured.err
        assert captured.out == ""


def test_batch_checks_the_oracle_once_per_schema(workspace, monkeypatch):
    calls = []

    def counting_check_od(od, schema):
        calls.append(schema)
        return check_od(od, schema)

    monkeypatch.setattr(cli, "check_od", counting_check_od)
    for i in range(3):
        (workspace / f"s{i}__r0.jsonl").write_text(dump_trace(drive([{"t": 0.0}])))
    args = ["batch", "--od", str(workspace / "listing1.odl"), "--traces", str(workspace / "*__*.jsonl")]
    assert main(args) == 0
    assert len(calls) == 1


def test_batch_without_matches_exits_1(workspace, capsys):
    code = main(
        ["batch", "--od", str(workspace / "listing1.odl"), "--traces", str(workspace / "zz*.jsonl")]
    )
    assert code == 1
    assert "no trace files match" in capsys.readouterr().err


def test_rank_and_compare_pipeline(workspace, capsys):
    scores = workspace / "scores.csv"
    scores.write_text(
        "solution,trace,score\n"
        "alice,r1,10.0\nalice,r2,12.0\n"
        "bob,r1,5.0\nbob,r2,7.0\n"
        "carol,r1,8.0\ncarol,r2,8.0\n"
    )
    ranks = workspace / "ranks.csv"
    assert main(["rank", "--scores", str(scores), "--out", str(ranks)]) == 0
    assert ranks.read_text() == "solution,rank\nalice,0.0\ncarol,1.0\nbob,2.0\n"

    assert main(["compare", str(ranks), str(ranks)]) == 0
    assert capsys.readouterr().out.strip() == "1.0"

    reversed_ranks = workspace / "reversed.csv"
    reversed_ranks.write_text("solution,rank\nalice,2.0\ncarol,1.0\nbob,0.0\n")
    assert main(["compare", str(ranks), str(reversed_ranks)]) == 0
    assert capsys.readouterr().out.strip() == "-1.0"


def test_compare_matrix_output(workspace, capsys):
    a = workspace / "od_a.csv"
    b = workspace / "od_b.csv"
    a.write_text("solution,rank\nx,0.0\ny,1.0\nz,2.0\n")
    b.write_text("solution,rank\nx,2.0\ny,1.0\nz,0.0\n")
    assert main(["compare", str(a), str(b), str(a)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "od,od_a,od_b,od_a"
    assert lines[1] == "od_a,1.0,-1.0,1.0"


def test_compare_requires_two_files(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(workspace / "only.csv")])
    assert exc.value.code == 2


def test_compare_zero_variance_exits_1(workspace, capsys):
    flat = workspace / "flat.csv"
    flat.write_text("solution,rank\na,1.0\nb,1.0\n")
    assert main(["compare", str(flat), str(flat)]) == 1
    assert "zero variance" in capsys.readouterr().err


def test_gen_deterministic_and_scoreable(workspace, capsys):
    out1 = workspace / "gen1.jsonl"
    out2 = workspace / "gen2.jsonl"
    base = ["gen", "--scenario", str(workspace / "scenario.json"), "--seed", "7"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert main(["score", "--od", str(workspace / "listing1.odl"), "--trace", str(out1)]) == 0
    assert "speeding: -21.0" in capsys.readouterr().out


def test_gen_bad_scenario_exits_1(workspace, capsys):
    bad = workspace / "bad.json"
    bad.write_text(json.dumps({"duration": 10, "tick": 1, "episodes": [{"kind": "warp", "start": 1}]}))
    assert main(["gen", "--scenario", str(bad)]) == 1
    assert "unknown episode kind" in capsys.readouterr().err


def test_gen_stdout(workspace, capsys):
    assert main(["gen", "--scenario", str(workspace / "scenario.json"), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith('{"speed": "number"')


def test_check_reads_only_the_schema_line(workspace, capsys):
    trace_path = workspace / "bad_records.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0}])) + "not a record\n")
    assert main(["check", str(workspace / "listing1.odl"), "--trace", str(trace_path)]) == 0
    assert capsys.readouterr().out.startswith("ok: 1 scoring function")


def test_streaming_reports_errors_in_file_order(workspace, capsys):
    # The evaluation error at message 0 comes before the bad record on line 3.
    od = workspace / "divzero.odl"
    od.write_text("f = scoring_function(event = collision, action = 1 / (t - t), frequency = all_sum);")
    trace_path = workspace / "crash.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0, "collision": True}])) + "not a record\n")
    assert main(["score", "--od", str(od), "--trace", str(trace_path)]) == 1
    assert "message 0 (t=0.0), function 'f': division by zero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, bad, expected",
    [
        (["check", "{bad}"], "listing1.odl", "{bad}: file is not valid UTF-8"),
        (["check", "{od}", "--trace", "{bad}"], "t.jsonl", "trace file is not valid UTF-8"),
        (["score", "--od", "{bad}", "--trace", "{trace}"], "listing1.odl", "{bad}: file is not valid UTF-8"),
        (["score", "--od", "{od}", "--trace", "{bad}"], "t.jsonl", "trace file is not valid UTF-8"),
        (["batch", "--od", "{bad}", "--traces", "{trace}"], "listing1.odl", "{bad}: file is not valid UTF-8"),
        (["batch", "--od", "{od}", "--traces", "{bad}"], "t.jsonl", "trace file is not valid UTF-8"),
        (["rank", "--scores", "{bad}"], "scores.csv", "{bad}: file is not valid UTF-8"),
        (["compare", "{bad}", "{bad}"], "ranks.csv", "{bad}: file is not valid UTF-8"),
        (["gen", "--scenario", "{bad}"], "scenario.json", "{bad}: file is not valid UTF-8"),
    ],
    ids=["check_od", "check_trace", "score_od", "score_trace", "batch_od", "batch_trace", "rank", "compare", "gen"],
)
def test_input_that_is_not_utf8_exits_1(workspace, capsys, command, bad, expected):
    trace = workspace / "good.jsonl"
    trace.write_text(dump_trace(drive([{"t": 0.0}])))
    bad_path = workspace / "bad" / bad
    bad_path.parent.mkdir()
    # A valid first line, so the bad byte is met after reading has begun.
    bad_path.write_bytes(b'{"speed": "number"}\n' + b"\xff\xfe\n")
    names = {"bad": str(bad_path), "od": str(workspace / "listing1.odl"), "trace": str(trace)}
    assert main([arg.format(**names) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + expected.format(**names))
    assert "Traceback" not in err
