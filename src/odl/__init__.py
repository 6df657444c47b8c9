"""Scoring oracles for timed execution traces.

Oracle definitions are written in a small external language: a set of
scoring functions (event / condition / action / frequency / notifications)
plus one summarizing expression. This package parses and checks that
language, evaluates definitions deterministically over timed traces, ranks
trace corpora, and compares oracles by Spearman rank correlation.

Trace values and reports (`Point2`, `TraceSchema`, `TraceMessage`, `Trace`,
`Firing`, `ScoreReport`) are named tuples: they iterate, compare equal to a
plain tuple of the same fields, and are derived with `_replace`, not
`dataclasses.replace`. The oracle-language tree, `CheckedOracle` and `Env`
are slotted classes (`syntax.Struct`) that compare equal only within their
type and are derived with `_replace` too. The scenario and catalog names (`generate_trace`,
`load_builtin`, ...) are bound on first use, so a process that neither
generates traces nor reads the bundled assets does not import them.
"""

import importlib
import types

from .checker import CheckedOracle, check_od
from .engine import (
    Firing,
    ScoreReport,
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
    write_matrix_csv,
    write_ranks_csv,
    write_scores_csv,
)
from .reference import reference_score
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
    dump_trace,
    parse_trace,
    read_trace,
    write_trace,
)

# Module of each name bound on first use, by __getattr__.
_LAZY = {
    **dict.fromkeys(("BUILTIN_NAMES", "load_builtin", "load_example_scenario"), "catalog"),
    **dict.fromkeys(
        ("EPISODE_KINDS", "GEN_SCHEMA", "Episode", "Scenario", "generate_messages", "generate_trace",
         "load_scenario", "validate_scenario"),
        "scenario",
    ),
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

# Every public name the package binds, and those it binds on first use.
__all__ = sorted({
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, types.ModuleType))
} | set(_LAZY))
