"""CLI behavior: commands, exit statuses, output determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import odl.engine
import odl.trace
from odl import (
    GEN_SCHEMA, Point2, TraceError, check_od, dump_trace, load_builtin, load_example_scenario, parse_od, parse_trace,
    reference_score,
)
from odl import cli
from odl.cli import main
from _drive import drive, listing_suite
from _generators import NESTED_SHAPES, nested_od
from _traces import WIDE_OD, wide_trace
from test_engine import counting_generate_program
from odl.parser import MAX_NESTING
from odl.trace import record_gate


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


def test_check_without_trace_says_what_it_did_not_check(workspace, capsys):
    # An event that reads seq_time parses, and only the checker refuses it.
    od = workspace / "seq_time_in_event.odl"
    od.write_text("f = scoring_function(event = seq_time > 1, frequency = first);")
    assert main(["check", str(od)]) == 0
    assert capsys.readouterr() == (
        "ok: 1 scoring function(s), 0 constant(s)\n",
        "warning: no trace given, so the definition was only parsed; its names, kinds, timers and "
        "seq_time and summary rules were not verified (--trace checks them)\n",
    )
    trace_path = workspace / "nominal.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0}])))
    assert main(["check", str(od), "--trace", str(trace_path)]) == 1
    assert capsys.readouterr().err == "error: event of 'f': seq_time may only appear in a condition\n"


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


def test_check_refuses_seq_time_beside_a_field_of_that_name(workspace, capsys):
    od = workspace / "seq_time.odl"
    od.write_text("f = scoring_function(event = speed > 0, condition = seq_time > 0.5, frequency = all_sum);")
    trace_path = workspace / "seq_time.jsonl"
    trace_path.write_text(
        '{"seq_time": "number", "speed": "number"}\n'
        '{"t": 0, "seq_time": 5.0, "speed": 1}\n{"t": 1, "seq_time": 5.0, "speed": 1}\n'
    )
    assert main(["check", str(od), "--trace", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: condition of 'f': 'seq_time' names both the sequence time and a trace field; "
        "rename the field\n"
    )
    assert main(["score", "--od", str(od), "--trace", str(trace_path)]) == 1
    assert "'seq_time' names both" in capsys.readouterr().err


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


def test_score_log_firings_lists_notifications(workspace, capsys):
    od = workspace / "notify.odl"
    od.write_text(
        "f = scoring_function(event = collision, action = 1, frequency = first,"
        " notifications = [(g, [(tm, 2.5)])]);\n"
        "g = scoring_function(event = tm > 0, frequency = all_sum);"
    )
    trace_path = workspace / "hit.jsonl"
    trace_path.write_text(dump_trace(drive([{"t": 0.0, "collision": True}, {"t": 1.0}])))
    args = ["score", "--od", str(od), "--trace", str(trace_path), "--log-firings"]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "f: 1.0\ng: 0.0\nsummary: 1.0\nfirings (2):\n  [0] f delta=1.0 notify g.tm=2.5\n  [1] g delta=0.0\n"
    )
    assert main([*args, "--report", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["firings"] == [
        {"message_index": 0, "function": "f", "delta": 1.0,
         "notifications": [{"target": "g", "timer": "tm", "value": 2.5}]},
        {"message_index": 1, "function": "g", "delta": 0.0, "notifications": []},
    ]


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


def test_batch_compiles_the_oracle_once_per_schema(workspace, monkeypatch):
    # Batch scores lines, so it compiles only the line program.
    calls = counting_generate_program(monkeypatch)
    line_calls = counting_generate_program(monkeypatch, "generate_line_program")
    for i in range(3):
        (workspace / f"s{i}__r0.jsonl").write_text(dump_trace(drive([{"t": 0.0}])))
    args = ["batch", "--od", str(workspace / "listing1.odl"), "--traces", str(workspace / "*__*.jsonl")]
    assert main(args) == 0
    assert (len(calls), len(line_calls)) == (0, 1)
    # `odl check` compiles nothing.
    assert main(["check", str(workspace / "listing1.odl"), "--trace", str(workspace / "s0__r0.jsonl")]) == 0
    assert (len(calls), len(line_calls)) == (0, 1)


def test_batch_generates_one_record_reader_per_schema(workspace, monkeypatch):
    # The reader batch runs is the record gate inside the line program.
    gates = []

    def counting(schema, *args):
        gates.append(schema)
        return record_gate(schema, *args)

    monkeypatch.setattr(odl.engine, "record_gate", counting)
    odl.trace._record_reader.cache_clear()
    for i in range(3):
        (workspace / f"s{i}__r0.jsonl").write_text(dump_trace(drive([{"t": 0.0}, {"t": 0.5}])))
    args = ["batch", "--od", str(workspace / "listing1.odl"), "--traces", str(workspace / "*__*.jsonl")]
    assert main(args) == 0
    assert gates == [GEN_SCHEMA]
    info = odl.trace._record_reader.cache_info()
    assert (info.misses, info.hits) == (0, 0)


def test_score_log_firings_builds_no_message(workspace, monkeypatch, capsys):
    # --log-firings runs the line program compiled with the firing log: no
    # message program and no record reader. A firing names its record's
    # index, which blank lines do not advance.
    calls = counting_generate_program(monkeypatch)
    trace_path = workspace / "speedy.jsonl"
    trace = dump_trace(drive([{"t": 0.0}, {"t": 0.5, "speed": 30.0}, {"t": 1.0, "speed": 30.0}]))
    trace_path.write_bytes(trace.replace("\n", "\r\n\r\n").encode())
    odl.trace._record_reader.cache_clear()
    args = ["score", "--od", str(workspace / "listing1.odl"), "--trace", str(trace_path), "--log-firings"]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "speeding: -2.0\nsummary: -2.0\nfirings (2):\n  [1] speeding delta=-1.0\n  [2] speeding delta=-1.0\n"
    )
    assert calls == []
    info = odl.trace._record_reader.cache_info()
    assert (info.misses, info.hits) == (0, 0)


def test_batch_names_a_file_without_the_separator_by_its_stem(workspace, capsys):
    # <solution>__<trace>.jsonl; a stem without "__" is both.
    (workspace / "solo.jsonl").write_text(dump_trace(drive([{"t": 0.0, "speed": 30.0}])))
    args = ["batch", "--od", str(workspace / "listing1.odl"), "--traces", str(workspace / "solo.jsonl")]
    assert main(args) == 0
    assert capsys.readouterr().out == "solution,trace,score\nsolo,solo,-1.0\n"


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


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_readme_pipeline_runs_as_written(tmp_path):
    """README's pipeline block, run verbatim by `bash -eu` with `odl` this
    tree's CLI, over a nominal trace, an eventful one and an eventful one
    without its collision, under the three bundled composites. They score
    0/100/0, -18/97/-30 and -17/122/-5 under od1/od2/od3, so no ranking has
    zero variance and the matrix is the pipeline's own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A full comparison pipeline:\n\n```sh\n", 1)[1].split("```", 1)[0]
    eventful = json.loads(load_example_scenario("eventful"))
    calm = {**eventful, "episodes": [e for e in eventful["episodes"] if e["kind"] != "collision"]}
    for i, scenario in enumerate([load_example_scenario("nominal"), json.dumps(eventful), json.dumps(calm)]):
        (tmp_path / f"scenario{i}.json").write_text(scenario)
    for i, name in enumerate(["od1_rubric", "od2_competition", "od3_framework"], 1):
        (tmp_path / f"od{i}.odl").write_text(load_builtin(name))
    src = str(Path(odl.engine.__file__).parents[1])
    env = {**os.environ, "PYTHON": sys.executable,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(["bash", "-eu", "-c", 'odl() { "$PYTHON" -m odl "$@"; }\n' + block],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "od,od1,od2,od3\n"
        "od1,1.0,0.4999999999999999,1.0\n"
        "od2,0.4999999999999999,1.0,0.4999999999999999\n"
        "od3,1.0,0.4999999999999999,1.0\n"
    )


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


def test_compare_rank_overflow_exits_1(workspace, capsys):
    big, small = workspace / "big.csv", workspace / "small.csv"
    big.write_text("solution,rank\na,1e200\nb,0.0\nc,1.0\n")
    small.write_text("solution,rank\na,0.0\nb,1.0\nc,2.0\n")
    assert main(["compare", str(big), str(small)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ranks too large to correlate: their mean, variance or covariance overflows\n"


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
        # check decodes only a trace's schema line, so its bad byte lies there.
        (["check", "{od}", "--trace", "{bad_schema}"], "t.jsonl",
         "trace file is not valid UTF-8: invalid start byte b'\\xff'\n"),
        (["score", "--od", "{bad}", "--trace", "{trace}"], "listing1.odl", "{bad}: file is not valid UTF-8"),
        (["score", "--od", "{od}", "--trace", "{bad}"], "t.jsonl", "trace file is not valid UTF-8"),
        # The line before the bad byte is named, with or without the firing log.
        *(
            (["score", "--od", "{od}", "--trace", trace, *log], "t.jsonl", f"trace file is not valid UTF-8{after}: "
             "invalid start byte b'\\xff'\n")
            for log in ([], ["--log-firings"])
            for trace, after in [("{bad}", " after line 2"), ("{bad_schema}", ""), ("{bad_2001}", " after line 2002"),
                                 ("{bad_cr}", " after line 1")]
        ),
        (["batch", "--od", "{bad}", "--traces", "{trace}"], "listing1.odl", "{bad}: file is not valid UTF-8"),
        (["batch", "--od", "{od}", "--traces", "{bad}"], "t.jsonl", "{bad}: trace file is not valid UTF-8"),
        (["rank", "--scores", "{bad}"], "scores.csv", "{bad}: file is not valid UTF-8"),
        (["compare", "{bad}", "{bad}"], "ranks.csv", "{bad}: file is not valid UTF-8"),
        (["gen", "--scenario", "{bad}"], "scenario.json", "{bad}: file is not valid UTF-8"),
    ],
    ids=["check_od", "check_trace", "score_od", "score_trace",
         *(f"score{log}_trace_{place}" for log in ("", "_log_firings") for place in ("line", "schema", "2001", "cr")),
         "batch_od", "batch_trace", "rank", "compare", "gen"],
)
def test_input_that_is_not_utf8_exits_1(workspace, capsys, command, bad, expected):
    trace = workspace / "good.jsonl"
    trace.write_text(dump_trace(drive([{"t": 0.0}])))
    bad_path = workspace / "bad" / bad
    bad_path.parent.mkdir()
    # Two valid lines, so the bad byte is met after reading has begun.
    bad_path.write_bytes(b'{"speed": "number"}\n{"t": 0.0, "speed": 1.0}\n' + b"\xff\xfe\n")
    bad_schema = bad_path.with_name("schema_" + bad)
    bad_schema.write_bytes(b'\xff{"speed": "number"}\n')
    # A bad byte after 2,001 records, and one after a lone CR, which ends no line of a binary file.
    bad_2001 = bad_path.with_name("2001_" + bad)
    bad_2001.write_bytes(b'{"speed": "number"}\n' + b'{"t": 0.0, "speed": 1.0}\n' * 2001 + b"\xff\xfe\n")
    bad_cr = bad_path.with_name("cr_" + bad)
    bad_cr.write_bytes(b'{"speed": "number"}\n{"t": 0.0, "speed": 1.0}\r\xff\n')
    names = {"bad": str(bad_path), "bad_schema": str(bad_schema), "bad_2001": str(bad_2001), "bad_cr": str(bad_cr),
             "od": str(workspace / "listing1.odl"), "trace": str(trace)}
    assert main([arg.format(**names) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + expected.format(**names))
    assert "Traceback" not in err


@pytest.mark.parametrize("records", [1, 2001], ids=["line_3", "after_2001_records"])
def test_check_decodes_only_the_schema_line_of_a_trace(workspace, capsys, records):
    """`odl check --trace` reads a trace's schema line and decodes nothing
    after it, so a bad byte in a record is never met, wherever it lies."""
    trace = workspace / "t.jsonl"
    record = b'{"t": 0.0, "speed": 1.0}\n'
    trace.write_bytes(b'{"speed": "number"}\n' + record * records + b"\xff\xfe\n")
    assert main(["check", str(workspace / "listing1.odl"), "--trace", str(trace)]) == 0
    assert capsys.readouterr() == ("ok: 1 scoring function(s), 1 constant(s)\n", "")


def test_batch_names_the_trace_in_record_and_evaluation_errors(workspace, capsys):
    good = dump_trace(drive([{"t": 0.0}, {"t": 1.0}]))
    (workspace / "a__r0.jsonl").write_text(good)
    bad_record = workspace / "b__r0.jsonl"
    bad_record.write_text(good + "{not json\n")
    traces = str(workspace / "*__r0.jsonl")
    assert main(["batch", "--od", str(workspace / "listing1.odl"), "--traces", traces]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad_record}: line 4: malformed record: Expecting property name enclosed in double quotes\n"

    bad_record.write_text(good)
    od = workspace / "divzero.odl"
    od.write_text("f = scoring_function(event = true, action = 1 / (t - 1), frequency = all_sum);")
    assert main(["batch", "--od", str(od), "--traces", traces]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {workspace / 'a__r0.jsonl'}: message 1 (t=1.0), function 'f': "
        "division by zero in '1.0 / (t - 1.0)'\n"
    )

    no_speed = workspace / "c__r0.jsonl"
    no_speed.write_text('{"collision": "boolean"}\n{"t": 0, "collision": false}\n')
    assert main(["batch", "--od", str(workspace / "listing1.odl"), "--traces", traces]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {no_speed}: event of 'speeding': timer 'speed' has no notification targeting "
        "'speeding' (and 'speed' is not a trace field or constant)\n"
    )


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_check_rejects_nesting_past_the_limit(workspace, capsys, shape):
    od = workspace / "nested.odl"
    trace = workspace / "xb.jsonl"
    trace.write_text('{"x": "number", "b": "boolean"}\n')
    od.write_text(nested_od(shape, MAX_NESTING)[0])
    assert main(["check", str(od), "--trace", str(trace)]) == 0
    source, column = nested_od(shape, MAX_NESTING + 1)
    od.write_text(source)
    assert main(["check", str(od), "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: 1:{column}: expression nests deeper than {MAX_NESTING} levels\n"


def score_peak_kb(tmp_path, command, messages):
    """The peak resident set (VmHWM, kB) of a fresh interpreter that runs
    `odl score` or `odl batch` of an oracle that fires at every message on
    a trace of `messages` records, as bench/probe.py reads it."""
    od, trace, out = tmp_path / "every.odl", tmp_path / f"s__r{messages}.jsonl", tmp_path / f"{command}{messages}.out"
    od.write_text("f = scoring_function(event = true, action = 1, frequency = action_sum);")
    trace.write_text('{"x": "number"}\n' + "".join(f'{{"t": {i}.0, "x": 1.0}}\n' for i in range(messages)))
    args = ["score", "--trace"] if command == "score" else ["batch", "--traces"]
    code = (
        "import sys\nfrom odl.cli import main\nstatus = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(status)"
    )
    src = str(Path(odl.engine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run(
        [sys.executable, "-c", code, *args, str(trace), "--od", str(od), "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert str(float(messages)) in out.read_text()
    return int(child.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status (Linux)")
@pytest.mark.parametrize("command", ["score", "batch"])
def test_scoring_memory_does_not_grow_with_the_trace(tmp_path, command):
    # A firing log would cost ~130 B a firing, ~11 MiB between the two.
    small, large = score_peak_kb(tmp_path, command, 10_000), score_peak_kb(tmp_path, command, 100_000)
    assert large - small < 2 * 1024, (small, large)


def test_a_wide_schema_is_read_written_and_scored(tmp_path, capsys):
    """A record of 4,501 floats round-trips and scores: one sum of them
    would recurse past the compiler's limit. A non-finite float after the
    first 64 is refused on the way in and on the way out."""
    trace = wide_trace()
    text = dump_trace(trace)
    assert parse_trace(text) == trace
    with pytest.raises(TraceError, match="^line 2: non-finite number Infinity is not admitted$"):
        parse_trace(text.replace('"p499": [499.0, ', '"p499": [Infinity, ', 1))
    first = trace.messages[0]
    hand_built = trace._replace(messages=(first._replace(values={**first.values, "p499": Point2(float("inf"), 0.0)}),))
    with pytest.raises(ValueError, match=r"^message 0: field 'p499'\[0\] must be finite$"):
        dump_trace(hand_built)
    summary = reference_score(check_od(parse_od(WIDE_OD), trace.schema), trace).summary
    od, path = tmp_path / "wide.odl", tmp_path / "wide__run.jsonl"
    od.write_text(WIDE_OD)
    path.write_text(text)
    assert main(["score", "--od", str(od), "--trace", str(path), "--report", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == summary
    assert main(["batch", "--od", str(od), "--traces", str(tmp_path / "*__*.jsonl")]) == 0
    assert capsys.readouterr().out == f"solution,trace,score\nwide,run,{summary!r}\n"
