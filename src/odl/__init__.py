"""Scoring oracles for timed execution traces.

Oracle definitions are written in a small external language: a set of
scoring functions (event / condition / action / frequency / notifications)
plus one summarizing expression. This package parses and checks that
language, evaluates definitions deterministically over timed traces, ranks
trace corpora, and compares oracles by Spearman rank correlation.
"""

from .catalog import BUILTIN_NAMES, load_builtin, load_example_scenario
from .checker import CheckedOracle, check_od
from .engine import (
    Firing,
    ScoreReport,
    ScoringEngine,
    report_to_json,
    report_to_text,
    score_messages,
    score_trace,
)
from .errors import (
    AnalysisError,
    CatalogError,
    CheckError,
    EngineError,
    EvalError,
    OdlError,
    ParseError,
    ScenarioError,
    TraceError,
)
from .evaluate import Env, eval_expr
from .parser import parse_od
from .rank import (
    correlation_matrix,
    mean_scores,
    rank_solutions,
    read_ranks_csv,
    read_scores_csv,
    spearman,
    spearman_closed_form,
    write_matrix_csv,
    write_ranks_csv,
    write_scores_csv,
)
from .reference import reference_score
from .scenario import (
    EPISODE_KINDS,
    GEN_SCHEMA,
    Episode,
    Scenario,
    generate_trace,
    load_scenario,
    validate_scenario,
)
from .syntax import (
    Binary,
    Call,
    Expr,
    Frequency,
    Ident,
    Literal,
    Notification,
    OracleDefinition,
    ScoringFunction,
    Unary,
    format_expr,
    format_od,
)
from .trace import (
    Kind,
    Point2,
    Trace,
    TraceMessage,
    TraceSchema,
    concat_traces,
    dump_trace,
    duration,
    parse_trace,
    read_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BUILTIN_NAMES",
    "Binary",
    "Call",
    "CatalogError",
    "CheckError",
    "CheckedOracle",
    "EPISODE_KINDS",
    "EngineError",
    "Env",
    "Episode",
    "EvalError",
    "Expr",
    "Firing",
    "Frequency",
    "GEN_SCHEMA",
    "Ident",
    "Kind",
    "Literal",
    "Notification",
    "OdlError",
    "OracleDefinition",
    "ParseError",
    "Point2",
    "Scenario",
    "ScenarioError",
    "ScoreReport",
    "ScoringEngine",
    "ScoringFunction",
    "Trace",
    "TraceError",
    "TraceMessage",
    "TraceSchema",
    "Unary",
    "check_od",
    "concat_traces",
    "correlation_matrix",
    "dump_trace",
    "duration",
    "eval_expr",
    "format_expr",
    "format_od",
    "generate_trace",
    "load_builtin",
    "load_example_scenario",
    "load_scenario",
    "mean_scores",
    "parse_od",
    "parse_trace",
    "rank_solutions",
    "read_trace",
    "read_ranks_csv",
    "read_scores_csv",
    "reference_score",
    "report_to_json",
    "report_to_text",
    "score_messages",
    "score_trace",
    "spearman",
    "spearman_closed_form",
    "validate_scenario",
    "write_matrix_csv",
    "write_ranks_csv",
    "write_scores_csv",
]
