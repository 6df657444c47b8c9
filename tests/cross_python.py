"""Check that several Python interpreters produce the same bytes.

    python tests/cross_python.py PYTHON [PYTHON ...]

runs this script again in each interpreter named (a path to its
executable). Each run prints the sha256 digests of:

- the source the engine generates for each bundled oracle, message program
  and line program, and the source of the generator schema's record reader
  and record writer (what `GENERATED_SOURCE_SHA256`, `LINE_SOURCE_SHA256`,
  `READER_SOURCE_SHA256` and `WRITER_SOURCE_SHA256` in test_engine.py pin);
- the source of each bundled oracle's line program with the firing log,
  which `odl score --log-firings` compiles;
- the line program's source of the 17 bundled functions merged into one
  oracle (`merged_builtins` in _traces.py), which tests each repeated event
  once per record, and its report, with the firing log, on `eventful`
  (seed 7, tick 0.02);
- the reprs of the bundled oracles' trees, and the CheckError text of a
  definition whose event is not an expression node, which embeds its repr;
- the trace of every `GOLDEN_DIGESTS` row of test_scenario.py;
- the 450 reports of the replication corpus (30 solutions x 5 traces x the
  3 composite oracles of test_acceptance.py), as `report_to_json` writes
  them, through `score_trace` with the firing log, through `score_lines`
  without it and with it, and through `reference_score`, which folds
  constant arithmetic when it builds its closures;
- the reports, with firing logs, of `score_trace` and of `reference_score`
  of each bundled oracle on a hand-built copy of an eventful trace, whose
  integral times are ints and whose points are lists, so that the reader's
  coercers convert every message;
- the text `dump_trace` writes of `wide_trace` in _traces.py (4,501
  floats a record), whether `parse_trace` reads it back equal, and the
  reports of `score_messages`, `score_trace`, `reference_score` and the
  logged line program on it: on CPython 3.10 to 3.12 one sum of a record's
  floats in the generated finiteness test would not compile;
- the outcome (report or error text) of `score_messages`, `score_trace`
  and `reference_score` on each hand-built trace of `trace_faults` in
  _traces.py, and of `dump_trace` (its text, or its ValueError text);
- the scores files and correlation matrix that criterion 7 builds through
  the CLI;
- `mean_scores` and `spearman` of the seeded hard vectors of _spearman.py
  (ties, subnormals, magnitudes near the float limit), which are computed
  on integers and rounded once;
- the bundled oracles whose reports on `eventful` at ticks 0.2 and 0.1 a
  shift of every t by 10^13 to 10^17 s changes, under each of the three
  scorers of `time_shift_changes` in _traces.py, so that the shift at
  which float rounding first changes a report is the same everywhere;
- the outcome (schema and message count, or TraceError text) of
  `parse_trace` of each `BATCHED_FILES` row of _traces.py as bytes, a
  bytearray, a memoryview, a BytesIO, a binary file, a text file and,
  where it decodes, a str.

It prints every digest on which two interpreters differ and exits 1 if
there is one, else 0. It needs only the standard library: it imports the
test modules it reads under a stand-in for pytest, so the interpreters need
no packages installed. Its name does not match test_*.py, so pytest does
not collect it.
"""

from __future__ import annotations

import builtins
import io
import json
import subprocess
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _stub_pytest() -> None:
    """A pytest module that is enough to import the test modules: each
    `pytest.mark.<name>(...)` decorator leaves its function as it is."""

    class Mark:
        def __getattr__(self, name):
            return lambda *args, **kwargs: (lambda function: function)

    stub = types.ModuleType("pytest")
    stub.mark = Mark()
    sys.modules["pytest"] = stub


class _MonkeyPatch:
    """The part of pytest's monkeypatch fixture that test_engine's
    generated_source_digests and record_source_digests use."""

    def setattr(self, target, name, value, raising=True):
        setattr(target, name, value)


def _digests() -> dict[str, str]:
    """Every digest this interpreter computes, by name."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(TESTS)]
    _stub_pytest()
    import odl.trace
    from odl.engine import generate_line_program
    import test_acceptance
    import test_engine
    import test_scenario
    from _spearman import HUGE_RANKS, SUBNORMAL_RANKS, hard_pairs, hard_tables
    from _traces import (
        BATCHED_FILES, WIDE_OD, line_report, merged_builtins, scorer_outcomes, time_shift_changes, trace_faults,
        wide_trace,
    )
    from odl import (
        BUILTIN_NAMES, GEN_SCHEMA, CheckError, Frequency, Literal, Notification, OracleDefinition, ScoringFunction,
        Point2, TraceError, TraceMessage, check_od, dump_trace, generate_trace, load_builtin, load_example_scenario,
        load_scenario, mean_scores, parse_od, parse_trace, reference_score, report_to_json, score_trace, spearman,
    )

    digests = {}
    for attribute in ("program", "line_program"):
        for name, digest in test_engine.generated_source_digests(_MonkeyPatch(), attribute).items():
            digests[f"source {attribute} {name}"] = digest
    for name, digest in zip(("reader", "writer"), test_engine.record_source_digests(_MonkeyPatch())):
        digests[f"source record {name}"] = digest
    sources = []
    odl.trace.compile = lambda source, *args: sources.append(source) or builtins.compile(source, *args)
    for name in BUILTIN_NAMES:
        generate_line_program(check_od(parse_od(load_builtin(name)), GEN_SCHEMA), log=True)
        digests[f"source logged line_program {name}"] = test_scenario.sha256(sources.pop())
    merged = check_od(merged_builtins(), GEN_SCHEMA)
    merged.line_program
    digests["source line_program merged bundled oracle"] = test_scenario.sha256(sources.pop())
    del odl.trace.compile
    trace = generate_trace(replace(load_scenario(load_example_scenario("eventful")), tick=0.02), 7)
    report = report_to_json(line_report(merged, trace, log=True), include_firings=True)
    digests["merged bundled oracle, logged line program on eventful 0.02"] = test_scenario.sha256(report)
    reprs = [repr(parse_od(load_builtin(name))) for name in BUILTIN_NAMES]
    digests["node reprs"] = test_scenario.sha256("\n".join(reprs))
    event = Notification("g", (("tm", Literal(1.0)),))
    try:
        check_od(OracleDefinition(functions=(ScoringFunction("f", event, Frequency.FIRST),)), GEN_SCHEMA)
    except CheckError as err:
        digests["CheckError text with a node repr"] = test_scenario.sha256(str(err))
    for name, seed in sorted(test_scenario.GOLDEN_DIGESTS):
        trace = generate_trace(test_scenario.golden_scenario(name), seed)
        digests[f"golden {name} {seed}"] = test_scenario.sha256(dump_trace(trace))

    traces = [
        generate_trace(load_scenario(json.dumps(test_acceptance._solution_scenario(i))), 1000 + i * 10 + j)
        for i in range(30) for j in range(5)
    ]
    for name in test_acceptance._REPLICATION_ODS:
        checked = check_od(parse_od(load_builtin(name)), traces[0].schema)
        messages = [report_to_json(score_trace(checked, trace), include_firings=True) for trace in traces]
        lines = [report_to_json(line_report(checked, trace)) for trace in traces]
        digests[f"replication score_trace {name}"] = test_scenario.sha256("\n".join(messages))
        digests[f"replication score_lines {name}"] = test_scenario.sha256("\n".join(lines))
        logged = [report_to_json(line_report(checked, trace, log=True), include_firings=True) for trace in traces]
        digests[f"replication score_lines log {name}"] = test_scenario.sha256("\n".join(logged))
        references = [report_to_json(reference_score(checked, trace), include_firings=True) for trace in traces]
        digests[f"replication reference_score {name}"] = test_scenario.sha256("\n".join(references))
    eventful = generate_trace(load_scenario(load_example_scenario("eventful")), 7)
    hand_built = eventful._replace(messages=tuple(
        TraceMessage(
            int(t) if t.is_integer() else t,
            {name: list(value) if type(value) is Point2 else value for name, value in values.items()},
        )
        for t, values in eventful.messages
    ))
    for score in (score_trace, reference_score):
        reports = [
            report_to_json(score(check_od(parse_od(load_builtin(name)), GEN_SCHEMA), hand_built), include_firings=True)
            for name in BUILTIN_NAMES
        ]
        digests[f"hand-built eventful trace, {score.__name__}"] = test_scenario.sha256("\n".join(reports))
    wide = wide_trace()
    checked, text = check_od(parse_od(WIDE_OD), wide.schema), dump_trace(wide)
    outcomes = [text, parse_trace(text) == wide, *scorer_outcomes(checked, wide),
                report_to_json(line_report(checked, wide, log=True), include_firings=True)]
    digests["wide trace, dump_trace, parse_trace and four scorers"] = test_scenario.sha256(json.dumps(outcomes))
    outcomes = [scorer_outcomes(checked, trace) for checked, trace, _, _ in trace_faults()]
    digests["hand-built faults, three scorers"] = test_scenario.sha256(json.dumps(outcomes))
    outcomes = []
    for _, trace, _, _ in trace_faults():
        try:
            outcomes.append(dump_trace(trace))
        except ValueError as err:
            outcomes.append(f"ValueError: {err}")
    digests["hand-built faults, dump_trace"] = test_scenario.sha256(json.dumps(outcomes))
    for tick in (0.2, 0.1):
        trace = generate_trace(replace(load_scenario(load_example_scenario("eventful")), tick=tick), 7)
        changes = time_shift_changes(trace, [1e13, 1e14, 1e15, 1e16, 1e17])
        digests[f"time shift changes eventful {tick}"] = test_scenario.sha256(json.dumps(changes))

    with tempfile.TemporaryDirectory() as work:
        matrix, scores = test_acceptance._replicate(Path(work))
    digests["criterion 7 matrix"] = test_scenario.sha256(matrix)
    for name, text in zip(test_acceptance._REPLICATION_ODS, scores):
        digests[f"criterion 7 scores {name}"] = test_scenario.sha256(text)
    means = [mean_scores({"A": scores})["A"].hex() for scores in hard_tables(1, 1000)]
    digests["means of hard scores"] = test_scenario.sha256(" ".join(means))
    good = {"a": 0.0, "b": 1.0, "c": 2.0}
    pairs = [*hard_pairs(2, 600), *((big, good) for big in [*HUGE_RANKS, SUBNORMAL_RANKS])]
    digests["spearman of hard vectors"] = test_scenario.sha256(" ".join(spearman(a, b).hex() for a, b in pairs))

    outcomes = []
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "trace.jsonl"
        for case, data in sorted(BATCHED_FILES.items()):
            path.write_bytes(data)
            with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
                sources = [data, bytearray(data), memoryview(data), io.BytesIO(data), binary, text,
                           *([] if "bad byte" in case else [data.decode()])]
                for source in sources:
                    try:
                        trace = parse_trace(source)
                        outcome = [[[name, kind.value] for name, kind in trace.schema.fields], len(trace.messages)]
                    except TraceError as err:
                        outcome = str(err)
                    outcomes.append([case, type(source).__name__, outcome])
    digests["parse_trace sources"] = test_scenario.sha256(json.dumps(outcomes))
    return digests


def main(interpreters: list[str]) -> int:
    if not interpreters:
        print("usage: python tests/cross_python.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    runs = {}
    for python in interpreters:
        done = subprocess.run(
            [python, "-B", __file__, "--digests"], capture_output=True, text=True, check=False
        )
        if done.returncode != 0:
            print(f"{python}: exit status {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        version, digests = json.loads(done.stdout)
        runs[f"{python} ({version})"] = digests
        print(f"{python} ({version}): {len(digests)} digests")
    names = sorted(set().union(*runs.values()))
    differing = [name for name in names if len({run.get(name) for run in runs.values()}) > 1]
    for name in differing:
        print(f"differs: {name}")
        for run, digests in runs.items():
            print(f"    {run}: {digests.get(name)}")
    print(f"{len(names) - len(differing)} of {len(names)} digests agree across {len(runs)} interpreters")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps([sys.version.split()[0], _digests()]))
    else:
        sys.exit(main(sys.argv[1:]))
