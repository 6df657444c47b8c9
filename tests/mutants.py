"""Check that the tests kill each mutant of one table.

    python tests/mutants.py [--only NAME ...]

Each row of MUTANTS names a mutant: one exact edit of one file under
src/odl (its old text and the text that replaces it) and the test files
that must kill it. For each row this script copies the tree this script
sits in (src/, tests/, bench/, README.md and the rest, without .git and
caches) to a fresh temporary directory, makes the edit there, and runs
`python -B -m pytest -x` on the row's test files in one child process,
with PYTHONPATH naming only the copy's src. The mutant is killed when
pytest reports a failure or an error, and survives when every test passes.
A row whose old text does not occur exactly once in its file, or that
names a test file that does not exist, is stale and is not run.

First it runs the test files of every selected row on an unmutated copy,
and stops if they do not pass there, since every row would then count as
killed. Rows run one at a time, in table order.

It prints `killed`, `survived` or `stale` for each row with the seconds
it took, then the totals, and exits 1 if any row survived or is stale,
else 0. It needs the standard library and pytest (with hypothesis, which
the tests use), and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent
TREE = TESTS.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/odl
    old: str  # must occur exactly once in the file
    new: str
    killers: tuple[str, ...]  # test files under tests/


MUTANTS = [
    # The engine's builder.
    Mutant("notification_locals_share_one_name", "engine.py",
           'var = f"n{k}_{len(writes)}"', 'var = f"n{k}_0"',
           ("test_differential.py",)),
    Mutant("unlogged_program_drops_notification_writes", "engine.py",
           'apply += [f"if w{k}:", f"    w{k} = False", *writes]',
           'apply += [f"if w{k}:", f"    w{k} = False", *(writes if log else [])]',
           ("test_differential.py",)),
    Mutant("timers_run_down_at_the_first_record", "engine.py",
           '"if index:"', '"if True:"',
           ("test_differential.py",)),
    Mutant("firing_log_names_the_first_function", "engine.py",
           "(index, {names}[{k}], d, (", "(index, {names}[0], d, (",
           ("test_differential.py",)),
    Mutant("fn_set_after_the_if", "engine.py",
           'body += [f"fn = {k}", f"if {test}:", *_indent(fire), *(["else:", f"    q{k} = False"] if sequence else [])]',
           'body += [f"if {test}:", *_indent(fire), *(["else:", f"    q{k} = False"] if sequence else []), f"fn = {k}"]',
           ("test_differential.py",)),
    Mutant("every_block_sets_fn_0", "engine.py",
           'body += [f"fn = {k}", f"if {test}:"', 'body += ["fn = 0", f"if {test}:"',
           ("test_differential.py",)),
    Mutant("every_shared_event_gets_one_local", "engine.py",
           'shared[event] = (f"e{k}", len(body) + 1)', 'shared[event] = ("e0", len(body) + 1)',
           ("test_differential.py",)),
    Mutant("first_fires_again", "engine.py",
           'fire = [f"f{k} = True"] if once else []', "fire = []",
           ("test_differential.py",)),
    Mutant("sequences_never_close", "engine.py",
           '*(["else:", f"    q{k} = False"] if sequence else [])', "",
           ("test_differential.py",)),
    Mutant("seq_time_reversed", "engine.py",
           '"seq_time": f"(t - st{k})"', '"seq_time": f"(st{k} - t)"',
           ("test_differential.py",)),
    Mutant("firing_writes_the_timer_in_its_own_block", "engine.py",
           'fire.append(f"w{k} = True")', 'fire += [f"w{k} = True", *(write.strip() for write in writes)]',
           ("test_differential.py",)),
    # Each record binding and the loop head that every pass shares.
    Mutant("record_loop_keeps_no_prev_t", "trace.py",
           'loop = [*bind, "prev_t = t", *body, "index += 1"]', 'loop = [*bind, *body, "index += 1"]',
           ("test_trace.py", "test_engine.py")),
    Mutant("index_counted_from_1", "trace.py",
           '"index, prev_t = 0, -_inf"', '"index, prev_t = 1, -_inf"',
           ("test_trace.py", "test_engine.py")),
    Mutant("message_binding_takes_a_decreasing_t", "trace.py",
           """    lines.append('if t < prev_t: raise _error(f"message {index}: timestamp {t!r} decreases below {prev_t!r}")')\n""",
           "",
           ("test_engine.py",)),
    Mutant("record_gate_names_its_loop_line_lineno", "trace.py",
           'return "numbered", "lineno, line", namespace, lines', 'return "numbered", "line, lineno", namespace, lines',
           ("test_engine.py", "test_trace.py")),
    Mutant("message_binding_raises_value_error", "trace.py",
           '"_error": EngineError,', '"_error": ValueError,',
           ("test_engine.py", "test_trace.py")),
    Mutant("writer_takes_any_dict", "trace.py",
           "(type(values) is dict or type(values).__base__ is _ReadValues)", "isinstance(values, dict)",
           ("test_differential.py",)),
    Mutant("finiteness_tested_in_one_sum", "trace.py",
           "' + '.join(floats[k:k + 64])})\" for k in range(0, len(floats), 64)",
           "' + '.join(floats)})\" for k in range(1)",
           ("test_cli.py",)),
    Mutant("finiteness_tested_in_the_first_64_floats_only", "trace.py",
           "for k in range(0, len(floats), 64)", "for k in range(0, 64, 64)",
           ("test_cli.py",)),
    # The oracle-language lexer and the location of a ParseError.
    Mutant("parse_error_column_off_by_one", "parser.py",
           'start - source.rfind("\\n", 0, start)', 'start + 1 - source.rfind("\\n", 0, start)',
           ("test_parser.py",)),
    Mutant("parse_error_lines_counted_from_0", "parser.py",
           'source.count("\\n", 0, start) + 1', 'source.count("\\n", 0, start)',
           ("test_parser.py",)),
    Mutant("comment_ending_the_input_is_skipped", "parser.py",
           "\\#[^\\n]*\\n )+", "\\#[^\\n]*\\n? )+",
           ("test_parser.py",)),
    Mutant("number_out_of_range_is_read", "parser.py",
           'if kind == "NUMBER" and not math.isfinite(float(text)):', "if False:",
           ("test_parser.py",)),
    Mutant("fused_minus_dropped", "parser.py",
           "Literal(-float(p.advance().text))", "Literal(float(p.advance().text))",
           ("test_parser.py",)),
    # The reference, which the differential suite holds the engine to.
    Mutant("reference_first_never_counts_as_fired", "reference.py",
           "fire = fired_in[pos] is None", "fire = True",
           ("test_differential.py",)),
    Mutant("reference_sequence_comparison_always_false", "reference.py",
           "fire = fired_in[pos] != opened[pos]", "fire = False",
           ("test_differential.py",)),
    Mutant("reference_sequences_never_close", "reference.py",
           "opened[pos] = None", "pass",
           ("test_differential.py",)),
    Mutant("reference_sequence_reopens_at_every_message", "reference.py",
           "if opened[pos] is None:", "if True:",
           ("test_differential.py",)),
    Mutant("reference_seq_time_fixed_at_0", "reference.py",
           "env.seq_time = t - opened_t[pos]", "env.seq_time = 0.0",
           ("test_differential.py",)),
    Mutant("reference_applies_a_notification_at_once", "reference.py",
           "dispatched.append((target, timer, value))",
           "dispatched.append((target, timer, value)); timers_of[target][timer] = value",
           ("test_differential.py",)),
    Mutant("reference_refuses_an_equal_t", "reference.py",
           "if t < previous_t:", "if t <= previous_t:",
           ("test_differential.py",)),
    # Exact means and coefficients, rounded once.
    Mutant("rho_drops_the_sticky_bit", "rank.py",
           "rho = (2 * q + sticky) / (2 << shift)", "rho = 2 * q / (2 << shift)",
           ("test_rank.py",)),
    Mutant("rho_keeps_two_guard_bits", "rank.py",
           "shift = 56 + (", "shift = 2 + (",
           ("test_acceptance.py",)),
    Mutant("rho_drops_its_sign", "rank.py",
           "return -rho if cov < 0 else rho", "return rho",
           ("test_acceptance.py",)),
    Mutant("mean_divided_by_the_scale_alone", "rank.py",
           "sum(numerators) / (scale * len(scores))", "sum(numerators) / scale",
           ("test_rank.py",)),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work")


def stale(mutant: Mutant) -> str | None:
    """Why a row cannot run on this tree, or None."""
    count = (TREE / "src" / "odl" / mutant.file).read_text().count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in {mutant.file}"
    missing = [name for name in mutant.killers if not (TESTS / name).is_file()]
    return f"no test file {', '.join(missing)}" if missing else None


def run_tests(killers: list[str], mutant: Mutant | None) -> int:
    """Run pytest on the test files `killers` in a fresh copy of the tree,
    with `mutant`'s edit made there if one is given; return its exit status."""
    with tempfile.TemporaryDirectory(prefix="odl-mutant-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(TREE, copy, ignore=IGNORED)
        if mutant is not None:
            path = copy / "src" / "odl" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *(f"tests/{name}" for name in killers)]
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check that the tests kill each mutant of one table.")
    parser.add_argument("--only", nargs="+", default=[], metavar="NAME", help="run only these rows")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.only) - {mutant.name for mutant in MUTANTS})
    if unknown:
        parser.error(f"--only names no row: {', '.join(unknown)}")
    rows = [mutant for mutant in MUTANTS if not args.only or mutant.name in args.only]

    started = time.monotonic()
    reasons = [stale(mutant) for mutant in rows]
    killers = sorted({name for mutant, reason in zip(rows, reasons) if reason is None for name in mutant.killers})
    if killers:
        status = run_tests(killers, None)
        if status != 0:
            print(f"the unmutated tree fails {' '.join(killers)} (pytest exit status {status}); no row is run")
            return 1
        print(f"unmutated: {' '.join(killers)} pass ({time.monotonic() - started:.1f} s)")

    outcomes = []
    for mutant, reason in zip(rows, reasons):
        begun = time.monotonic()
        if reason is not None:
            outcome = "stale"
        else:
            # 0: every test passed; 5: none collected, which kills nothing.
            outcome = "survived" if run_tests(list(mutant.killers), mutant) in (0, 5) else "killed"
        outcomes.append(outcome)
        print(f"{outcome}: {mutant.name} ({time.monotonic() - begun:.1f} s)" + (f" ({reason})" if reason else ""))

    counts = {outcome: outcomes.count(outcome) for outcome in ("killed", "survived", "stale")}
    print(f"{len(rows)} rows: {counts['killed']} killed, {counts['survived']} survived, {counts['stale']} stale "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
