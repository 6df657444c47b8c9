"""Check that two trees of odl give the same command-line output, byte for byte.

    python tests/parity.py PARENT_DIR [--python EXE] [--expect NAME ...]

runs each command of one table twice as `EXE -B -m odl ...` (EXE is the
running interpreter by default): once with PYTHONPATH=PARENT_DIR/src and
once with the src directory of the tree this script sits in, each run in a
fresh empty directory. The two runs agree when their stdout, stderr, exit
status and every file they wrote are equal byte for byte, after each run's
directory is replaced by `<cwd>` and each tree by `<tree>`.

The inputs are made once and both sides read the same files. This script
writes the oracle definitions and the scenario files. The parent's `odl
gen` writes the traces, from which this script cuts, reorders and
re-encodes the faulty ones; the parent's `odl batch` and `odl rank` write
the tables that the later steps of the README pipeline read. The commands:

- `gen` to a file and to stdout for every GOLDEN_DIGESTS row of
  test_scenario.py; `gen` of the traces below, of the README corpus (4
  solutions x 3 traces), and of a scenario file that repeats a key;
- `check` of each oracle, with and without `--trace`;
- `score` as text and as machine output, with and without
  `--log-firings`, of each oracle over each of 6 traces: `eventful` (seed
  7, tick 0.02), `nominal` (seed 3), and `eventful` (seed 7) cut in the
  middle of a record, with a record of smaller t appended, with a byte that
  is not UTF-8, and with CRLF breaks and blank lines;
- `score --out`, and a missing oracle file and a missing trace file;
- the README pipeline: `batch` and `rank` of 4 oracles and `compare` of 4
  and of 2 ranks files, to stdout and with `--out`.

The oracles are the 7 bundled ones, the 17 bundled functions merged into
one (`merged_builtins` in _traces.py), and the 4 of FAILING_ORACLES.

It prints `same` or `differs` for each command, and then the totals. It
exits 1 if a command differs that no `--expect NAME` names (a change that
means to change an output names those commands), else 0. It needs only
the standard library, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TREE = TESTS.parent

# Oracles over the generator's schema whose evaluation fails: at message 0
# in an event that two functions share, at t > 30 in a later function, in a
# score that overflows, and in the summary.
FAILING_ORACLES = {
    "fails_in_a_shared_event": """
        moving = scoring_function(event = speed > 0, action = 1, frequency = all_sum);
        ratio = scoring_function(event = 1 / (t - t) > 0, action = 1, frequency = all_sum);
        again = scoring_function(event = 1 / (t - t) > 0, frequency = first);
    """,
    "fails_in_a_later_function": """
        fast = scoring_function(event = speed > 20, action = -1, frequency = all_sum);
        late = scoring_function(event = t > 30 and 1 / (speed - speed) > 0, action = 1, frequency = first);
    """,
    "overflows_a_score": """
        fast = scoring_function(event = speed > 0, action = 1e308, frequency = all_sum);
    """,
    "divides_in_the_summary": """
        hits = scoring_function(event = collision, action = 1, frequency = all_sum);
        none = scoring_function(event = speed < 0, action = 1, frequency = all_sum);
        summary = hits / none;
    """,
}

TRACES = ("eventful", "nominal", "cut", "decreasing", "bad_byte", "crlf_blank")
PIPELINE = ("od1_rubric", "od2_competition", "od3_framework", "merged")
CORPUS = [(i, j) for i in range(4) for j in range(3)]
REPEATED_KEY = '{"duration": 40, "tick": 0.2, "episodes": [{"kind": "collision", "start": 5}], "episodes": []}'


def write_sources(inputs: Path) -> None:
    """Write every oracle definition and scenario file into `inputs`."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(TREE / "src"), str(TESTS)]
    from cross_python import _stub_pytest

    _stub_pytest()
    import test_acceptance
    import test_scenario
    from _traces import merged_builtins
    from odl import BUILTIN_NAMES, format_od, load_builtin

    for name in BUILTIN_NAMES:
        (inputs / f"{name}.odl").write_text(load_builtin(name))
    (inputs / "merged.odl").write_text(format_od(merged_builtins()))
    for name, source in FAILING_ORACLES.items():
        (inputs / f"{name}.odl").write_text(source)
    for name, _ in test_scenario.GOLDEN_DIGESTS:
        (inputs / f"{_slug(name)}.json").write_text(test_scenario.scenario_file(test_scenario.golden_scenario(name)))
    eventful = replace(test_scenario.golden_scenario("eventful"), tick=0.02)
    (inputs / "eventful_0.02.json").write_text(test_scenario.scenario_file(eventful))
    for i in sorted({i for i, _ in CORPUS}):
        (inputs / f"solution{i}.json").write_text(json.dumps(test_acceptance._solution_scenario(i)))
    (inputs / "repeated_key.json").write_text(REPEATED_KEY)


def _slug(name: str) -> str:
    return name.replace(" ", "_")


def gen_commands(inputs: Path) -> list[tuple[str, list[str]]]:
    import test_scenario

    commands = []
    for name, seed in sorted(test_scenario.GOLDEN_DIGESTS):
        gen = ["gen", "--scenario", str(inputs / f"{_slug(name)}.json"), "--seed", str(seed)]
        commands.append((f"gen {name} {seed} --out", [*gen, "--out", f"{_slug(name)}_{seed}.jsonl"]))
        commands.append((f"gen {name} {seed} stdout", gen))
    commands.append(("gen eventful 7 tick 0.02", [
        "gen", "--scenario", str(inputs / "eventful_0.02.json"), "--seed", "7", "--out", "eventful.jsonl",
    ]))
    commands.append(("gen nominal 3", [
        "gen", "--scenario", str(inputs / "nominal.json"), "--seed", "3", "--out", "nominal.jsonl",
    ]))
    for i, j in CORPUS:
        commands.append((f"gen corpus sol{i}__t{j}", [
            "gen", "--scenario", str(inputs / f"solution{i}.json"), "--seed", str(1000 + i * 10 + j),
            "--out", f"sol{i}__t{j}.jsonl",
        ]))
    commands.append(("gen repeated key", [
        "gen", "--scenario", str(inputs / "repeated_key.json"), "--out", "repeated_key.jsonl",
    ]))
    return commands


def derive_traces(inputs: Path) -> None:
    """The faulty traces, from the parent's eventful trace (seed 7, tick 0.2)."""
    data = (inputs / "eventful_7.jsonl").read_bytes()
    lines = data.splitlines(keepends=True)
    (inputs / "cut.jsonl").write_bytes(b"".join(lines[:101]) + lines[101][: len(lines[101]) // 2])
    (inputs / "decreasing.jsonl").write_bytes(data + lines[51])
    middle = len(data) // 2
    (inputs / "bad_byte.jsonl").write_bytes(data[:middle] + b"\xff" + data[middle:])
    spaced = [line.rstrip(b"\n") + b"\r\n" + (b"\r\n  \r\n" if k % 50 == 25 else b"") for k, line in enumerate(lines)]
    (inputs / "crlf_blank.jsonl").write_bytes(b"".join(spaced))


def scoring_commands(inputs: Path) -> list[tuple[str, list[str]]]:
    """Derive the faulty traces, then check, score and batch."""
    from odl import BUILTIN_NAMES

    derive_traces(inputs)
    oracles = [*BUILTIN_NAMES, "merged", *FAILING_ORACLES]
    commands = []
    for od in oracles:
        path = str(inputs / f"{od}.odl")
        commands.append((f"check {od}", ["check", path]))
        commands.append((f"check {od} --trace", ["check", path, "--trace", str(inputs / "eventful.jsonl")]))
        for trace in TRACES:
            score = ["score", "--od", path, "--trace", str(inputs / f"{trace}.jsonl")]
            for report in ("text", "machine"):
                commands.append((f"score {od} {trace} {report}", [*score, "--report", report]))
                commands.append((f"score {od} {trace} {report} --log-firings", [
                    *score, "--report", report, "--log-firings",
                ]))
    eventful = ["--trace", str(inputs / "eventful.jsonl")]
    commands += [
        ("score listing4 eventful text --out", [
            "score", "--od", str(inputs / "listing4.odl"), *eventful, "--out", "report.txt",
        ]),
        ("score od3_framework eventful machine --log-firings --out", [
            "score", "--od", str(inputs / "od3_framework.odl"), *eventful, "--report", "machine", "--log-firings",
            "--out", "report.json",
        ]),
        ("score missing oracle file", ["score", "--od", str(inputs / "missing.odl"), *eventful]),
        ("score missing trace file", [
            "score", "--od", str(inputs / "listing1.odl"), "--trace", str(inputs / "missing.jsonl"),
        ]),
    ]
    for od in PIPELINE:
        batch = ["batch", "--od", str(inputs / f"{od}.odl"), "--traces", str(inputs / "sol*__t*.jsonl")]
        commands.append((f"batch {od}", batch))
        commands.append((f"batch {od} --out", [*batch, "--out", f"scores_{od}.csv"]))
    return commands


def rank_commands(inputs: Path) -> list[tuple[str, list[str]]]:
    commands = []
    for od in PIPELINE:
        rank = ["rank", "--scores", str(inputs / f"scores_{od}.csv")]
        commands.append((f"rank {od}", rank))
        commands.append((f"rank {od} --out", [*rank, "--out", f"ranks_{od}.csv"]))
    return commands


def compare_commands(inputs: Path) -> list[tuple[str, list[str]]]:
    ranks = [str(inputs / f"ranks_{od}.csv") for od in PIPELINE]
    return [
        ("compare 4", ["compare", *ranks]),
        ("compare 2", ["compare", *ranks[:2]]),
        ("compare 4 --out", ["compare", *ranks, "--out", "matrix.csv"]),
    ]


def run_both(python: str, sides: dict[str, Path], argv: list[str], work: Path) -> dict[str, tuple]:
    """Run `odl argv` on each side at once, each in a fresh directory under
    `work`, and return each side's outcome with its directory and tree
    replaced by tokens: (exit status, stdout, stderr, {file: bytes})."""
    running = {}
    for side, tree in sides.items():
        cwd = work / side
        cwd.mkdir(parents=True)
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        running[side] = (cwd, tree, subprocess.Popen(
            [python, "-B", "-m", "odl", *argv], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outcomes = {}
    for side, (cwd, tree, process) in running.items():
        stdout, stderr = process.communicate()

        def clean(data: bytes) -> bytes:
            return data.replace(str(cwd).encode(), b"<cwd>").replace(str(tree).encode(), b"<tree>")

        files = {str(path.relative_to(cwd)): clean(path.read_bytes()) for path in sorted(cwd.rglob("*")) if path.is_file()}
        outcomes[side] = (process.returncode, clean(stdout), clean(stderr), files)
    return outcomes


def differences(parent: tuple, change: tuple) -> list[str]:
    parts = [what for what, a, b in zip(("exit status", "stdout", "stderr"), parent, change) if a != b]
    files = sorted(set(parent[3]) | set(change[3]))
    return parts + [f"file {name}" for name in files if parent[3].get(name) != change[3].get(name)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI output of two trees of odl byte for byte.")
    parser.add_argument("parent_dir", type=Path, help="the tree to compare against (its src/ holds odl)")
    parser.add_argument("--python", default=sys.executable, help="interpreter for both sides")
    parser.add_argument("--expect", nargs="+", default=[], metavar="NAME", help="commands that may differ")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent_dir.resolve(), "change": TREE}
    if not (sides["parent"] / "src" / "odl").is_dir():
        parser.error(f"{args.parent_dir} has no src/odl")

    with tempfile.TemporaryDirectory(prefix="odl-parity-") as scratch:
        work, inputs = Path(scratch) / "runs", Path(scratch) / "inputs"
        inputs.mkdir()
        write_sources(inputs)
        names, differing = [], []
        for stage in (gen_commands, scoring_commands, rank_commands, compare_commands):
            for name, command in stage(inputs):
                names.append(name)
                outcomes = run_both(args.python, sides, command, work)
                found = differences(outcomes["parent"], outcomes["change"])
                print(f"{'differs' if found else 'same'}: {name}" + (f" ({', '.join(found)})" if found else ""))
                if found:
                    differing.append(name)
                # The parent's files are the inputs of the later commands.
                for file, data in outcomes["parent"][3].items():
                    assert not (inputs / file).exists(), f"{name} writes {file} twice"
                    (inputs / file).write_bytes(data)
                shutil.rmtree(work)

    unknown = sorted(set(args.expect) - set(names))
    if unknown:
        parser.error(f"--expect names no command: {', '.join(unknown)}")
    unexpected = [name for name in differing if name not in args.expect]
    print(f"{len(names)} commands, {len(differing)} differ, {len(unexpected)} of them not expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
