"""Command-line interface: check, score, batch, rank, compare, gen.

Every command is a thin composition of library operations; no scoring logic
lives here. Exit statuses: 0 success, 1 domain error (parse/check/evaluation/
correlation), 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import glob
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .checker import CheckedOracle, check_od
from .engine import report_to_json, report_to_text, score_messages
from .errors import AnalysisError, OdlError
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
from .scenario import generate_trace, load_scenario
from .trace import TraceSchema, dump_trace, read_trace


@contextmanager
def _open_input(path: str) -> Iterator[IO[str]]:
    """Open an input file as UTF-8 text. Bytes that are not UTF-8 raise an
    OdlError naming the file, not a traceback. The trace reader reports
    them itself, because it decodes as it goes."""
    with open(path, encoding="utf-8") as file:
        try:
            yield file
        except UnicodeDecodeError as exc:
            raise OdlError(f"{path}: file is not valid UTF-8: {exc}") from None


def _read_input(path: str) -> str:
    with _open_input(path) as file:
        return file.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _split_solution_trace(stem: str) -> tuple[str, str]:
    # Batch grouping rule: <solution>__<trace>.jsonl (split on the last __).
    if "__" in stem:
        solution, trace_id = stem.rsplit("__", 1)
        return solution, trace_id
    return stem, stem


def _cmd_check(args: argparse.Namespace) -> int:
    od = parse_od(_read_input(args.od_path))
    if args.trace:
        # Only the schema line is read; records are not checked.
        with _open_input(args.trace) as lines:
            schema, _ = read_trace(lines)
        check_od(od, schema)
    else:
        print(
            "warning: no trace given; trace-field kinds were not verified",
            file=sys.stderr,
        )
    print(f"ok: {len(od.functions)} scoring function(s), {len(od.constants)} constant(s)")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    od = parse_od(_read_input(args.od))
    with _open_input(args.trace) as lines:
        schema, messages = read_trace(lines)
        report = score_messages(check_od(od, schema), messages)
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
        with _open_input(path) as lines:
            schema, messages = read_trace(lines)
            if schema not in checked:
                checked[schema] = check_od(od, schema)
            report = score_messages(checked[schema], messages)
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
    vectors = [read_ranks_csv(_read_input(path)) for path in args.ranks_paths]
    if len(vectors) == 2:
        _emit(f"{spearman(vectors[0], vectors[1])!r}\n", args.out)
        return 0
    names = [Path(path).stem for path in args.ranks_paths]
    _emit(write_matrix_csv(names, spearman_matrix(vectors)), args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    scenario = load_scenario(_read_input(args.scenario))
    trace = generate_trace(scenario, args.seed)
    _emit(dump_trace(trace), args.out)
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
