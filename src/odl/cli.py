"""Command-line interface: check, score, batch, rank, compare, gen.

Every command is a thin composition of library operations; no scoring logic
lives here. Exit statuses: 0 success, 1 domain error (parse/check/evaluation/
correlation), 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import glob
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import IO, ContextManager

from .checker import CheckedOracle, check_od
from .engine import report_to_json, report_to_text, score_lines
from .errors import AnalysisError, CheckError, EvalError, OdlError, TraceError
from .parser import parse_od
from .rank import (
    mean_scores,
    rank_solutions,
    read_ranks_csv,
    read_scores_csv,
    spearman,
    spearman_matrix,
    write_matrix_csv,
    write_ranks_csv,
    write_scores_csv,
)
from .trace import TraceSchema, read_trace_lines, write_trace


def _read_input(path: str) -> str:
    """The text of an input file, read as UTF-8. Bytes that are not UTF-8
    raise an OdlError naming the file, not a traceback. Trace files are
    opened in binary instead and passed as they are to the trace reader
    (`read_trace_lines`), which decodes them in batches of whole lines and
    names the line before a bad byte."""
    with open(path, encoding="utf-8") as file:
        try:
            return file.read()
        except UnicodeDecodeError as exc:
            raise OdlError(f"{path}: file is not valid UTF-8: {exc}") from None


def _output(out: str | None) -> ContextManager[IO[str]]:
    """The file named `out`, opened for writing as UTF-8 text, or stdout."""
    return open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)


def _emit(text: str, out: str | None) -> None:
    with _output(out) as file:
        file.write(text)


def _split_solution_trace(stem: str) -> tuple[str, str]:
    # Batch grouping rule: <solution>__<trace>.jsonl (split on the last __).
    if "__" in stem:
        solution, trace_id = stem.rsplit("__", 1)
        return solution, trace_id
    return stem, stem


def _cmd_check(args: argparse.Namespace) -> int:
    od = parse_od(_read_input(args.od_path))
    if args.trace:
        # Only the lines up to the schema line are taken: a bad byte after them raises nothing.
        with open(args.trace, "rb") as file:
            schema, _ = read_trace_lines(file)
        check_od(od, schema)
    else:
        print(
            "warning: no trace given, so the definition was only parsed; its names, kinds, timers and "
            "seq_time and summary rules were not verified (--trace checks them)",
            file=sys.stderr,
        )
    print(f"ok: {len(od.functions)} scoring function(s), {len(od.constants)} constant(s)")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    od = parse_od(_read_input(args.od))
    with open(args.trace, "rb") as file:
        schema, lines = read_trace_lines(file)
        report = score_lines(check_od(od, schema), lines, log=args.log_firings)
    if args.report == "machine":
        text = report_to_json(report, include_firings=args.log_firings) + "\n"
    else:
        text = report_to_text(report, include_firings=args.log_firings)
    _emit(text, args.out)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    od = parse_od(_read_input(args.od))
    paths = sorted(glob.glob(args.traces))
    if not paths:
        raise AnalysisError(f"no trace files match {args.traces!r}")
    checked: dict[TraceSchema, CheckedOracle] = {}
    rows = []
    for path in paths:
        with open(path, "rb") as file:
            try:
                schema, lines = read_trace_lines(file)
                if schema not in checked:
                    checked[schema] = check_od(od, schema)
                report = score_lines(checked[schema], lines)
            except (TraceError, CheckError, EvalError) as exc:
                # One of many traces failed: say which.
                raise OdlError(f"{path}: {exc}") from exc
        solution, trace_id = _split_solution_trace(Path(path).stem)
        rows.append((solution, trace_id, report.summary))
    rows.sort(key=lambda row: (row[0], row[1]))
    _emit(write_scores_csv(rows), args.out)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    table = read_scores_csv(_read_input(args.scores))
    ranks = rank_solutions(mean_scores(table))
    _emit(write_ranks_csv(ranks), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    vectors = []
    for path in args.ranks_paths:
        try:
            vectors.append(read_ranks_csv(_read_input(path)))
        except AnalysisError as exc:  # one of several files: say which (a UTF-8 error names it already)
            raise AnalysisError(f"{path}: {exc}") from exc
    if len(vectors) == 2:
        _emit(f"{spearman(vectors[0], vectors[1])!r}\n", args.out)
        return 0
    names = [Path(path).stem for path in args.ranks_paths]
    _emit(write_matrix_csv(names, spearman_matrix(vectors)), args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .scenario import GEN_SCHEMA, generate_messages, load_scenario  # only this command needs it

    # Validated before the output is opened; written as it is generated.
    messages = generate_messages(load_scenario(_read_input(args.scenario)), args.seed)
    with _output(args.out) as file:
        write_trace(GEN_SCHEMA, messages, file.write)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odl",
        description="Score timed execution traces against oracle definitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Parse an oracle definition and check it against a trace schema")
    p.add_argument("od_path", help="Oracle-definition file (.odl)")
    p.add_argument("--trace", help="Trace file providing the schema to check against")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("score", help="Score one trace with one oracle definition")
    p.add_argument("--od", required=True, help="Oracle-definition file")
    p.add_argument("--trace", required=True, help="Trace file")
    p.add_argument("--report", choices=["text", "machine"], default="text")
    p.add_argument("--log-firings", action="store_true", help="Include the firing log")
    p.add_argument("--out", help="Write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("batch", help="Score every trace matching a glob into a scores table")
    p.add_argument("--od", required=True, help="Oracle-definition file")
    p.add_argument("--traces", required=True, help="Glob of trace files, named <solution>__<trace>.jsonl")
    p.add_argument("--out", help="Write scores CSV to a file instead of stdout")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("rank", help="Average a scores table per solution and rank (0 best)")
    p.add_argument("--scores", required=True, help="Scores CSV from `odl batch`")
    p.add_argument("--out", help="Write ranks CSV to a file instead of stdout")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "compare",
        help="Spearman correlation of rankings; two files print one coefficient, more print a matrix",
    )
    p.add_argument("ranks_paths", nargs="+", metavar="RANKS_CSV")
    p.add_argument("--out", help="Write the result to a file instead of stdout")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", help="Generate a deterministic trace from a scenario file")
    p.add_argument("--scenario", required=True, help="Scenario JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="Write the trace to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is _cmd_compare and len(args.ranks_paths) < 2:
        parser.error("compare needs at least two ranks files")
    try:
        return args.func(args)
    except OdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
