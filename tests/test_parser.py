"""Lexing, parsing, and formatter round trips."""

import random
import re
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import NESTED_SHAPES, gen_wild_od, nested_od
import odl.parser
from odl import (
    Binary,
    Call,
    CheckError,
    Frequency,
    Ident,
    Literal,
    Notification,
    OracleDefinition,
    ParseError,
    Point2,
    ScoringFunction,
    Unary,
    check_od,
    format_expr,
    format_od,
    parse_od,
    parse_trace,
    reference_score,
    report_to_text,
    score_trace,
)
from odl.cli import main
from odl.parser import MAX_NESTING

LISTING1 = """
speeding = scoring_function(event = speed > MAX_SPEED,
    action = -1, frequency = action_sum);
"""

LISTING4 = """
collisions = scoring_function(
    event = collision and expiration > 0,
    action = 1.0, frequency = all_sum);
deceleration = scoring_function(
    event = acceleration < 0 and not collision,
    condition = seq_time > 2, frequency = all_sum,
    notifications = [(collisions, [(expiration, 0.5)])]);
"""


def test_parse_listing1_shape():
    od = parse_od(LISTING1)
    assert od.constants == ()
    (fn,) = od.functions
    assert fn.name == "speeding"
    assert fn.event == Binary(">", Ident("speed"), Ident("MAX_SPEED"))
    assert fn.action == Literal(-1.0)
    assert fn.frequency is Frequency.ACTION_SUM
    assert fn.condition is None
    assert fn.notifications == ()
    assert od.summary is None


def test_parse_listing4_notifications():
    od = parse_od(LISTING4)
    assert od.function_names() == ("collisions", "deceleration")
    deceleration = od.functions[1]
    assert deceleration.action is None
    assert deceleration.notifications == (
        Notification(target="collisions", bindings=(("expiration", Literal(0.5)),)),
    )
    assert deceleration.condition == Binary(">", Ident("seq_time"), Literal(2.0))


def test_missing_expression_is_syntax_error():
    with pytest.raises(ParseError, match="expected expression"):
        parse_od("speeding = scoring_function(event = );")


def test_error_positions():
    try:
        parse_od("x = scoring_function(\n  event = speed > ,\n  frequency = first);")
    except ParseError as err:
        assert err.line == 2
        assert err.column > 0
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("1 + 2 * 3", Binary("+", Literal(1.0), Binary("*", Literal(2.0), Literal(3.0)))),
        ("not a and b", Binary("and", Unary("not", Ident("a")), Ident("b"))),
        ("not a < b", Unary("not", Binary("<", Ident("a"), Ident("b")))),
        ("a or b and c", Binary("or", Ident("a"), Binary("and", Ident("b"), Ident("c")))),
        ("-x * y", Binary("*", Unary("-", Ident("x")), Ident("y"))),
        ("2 - -3", Binary("-", Literal(2.0), Literal(-3.0))),
        ("a - b - c", Binary("-", Binary("-", Ident("a"), Ident("b")), Ident("c"))),
        ("point(1, -2)", Literal(Point2(1.0, -2.0))),
        ("min(a, b, 3)", Call("min", (Ident("a"), Ident("b"), Literal(3.0)))),
        ("1e+16 < 2.5e-07", Binary("<", Literal(1e16), Literal(2.5e-07))),
    ],
)
def test_expression_parsing(source, expected):
    od = parse_od(f"f = scoring_function(event = {source}, frequency = first);")
    assert od.functions[0].event == expected


def test_unary_minus_on_number_folds_to_literal():
    od = parse_od("f = scoring_function(event = b, action = -1, frequency = first);")
    assert od.functions[0].action == Literal(-1.0)


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError, match="duplicate parameter 'action'"):
        parse_od("f = scoring_function(event = b, action = 1, action = 2, frequency = first);")


def test_unknown_parameter_rejected():
    with pytest.raises(ParseError, match="unknown parameter 'weight'"):
        parse_od("f = scoring_function(event = b, weight = 2, frequency = first);")


def test_unknown_frequency_rejected():
    with pytest.raises(ParseError, match="unknown frequency 'sometimes'"):
        parse_od("f = scoring_function(event = b, frequency = sometimes);")


@pytest.mark.parametrize("missing", ["event", "frequency"])
def test_required_parameters(missing):
    params = {"event": "event = b", "frequency": "frequency = first"}
    del params[missing]
    source = f"f = scoring_function({', '.join(params.values())});"
    with pytest.raises(ParseError, match=f"missing required parameter '{missing}'"):
        parse_od(source)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate name 'x'"):
        parse_od("const x = 1;\nx = scoring_function(event = b, frequency = first);")


@pytest.mark.parametrize("name", ["t", "seq_time", "sum", "distance", "event", "first", "and", "or", "not"])
def test_reserved_names_not_declarable(name):
    with pytest.raises(ParseError, match="reserved"):
        parse_od(f"const {name} = 1;")


def test_reserved_word_in_expression_position():
    with pytest.raises(ParseError, match="reserved word"):
        parse_od("f = scoring_function(event = frequency > 1, frequency = first);")
    # A prefix operator follows only one that binds no more tightly.
    for event, column in [("- not b", 32), ("not - not b", 36), ("x < not b", 34)]:
        with pytest.raises(ParseError) as err:
            parse_od(f"f = scoring_function(event = {event}, frequency = first);")
        assert str(err.value) == f"1:{column}: 'not' is a reserved word"


def test_t_and_seq_time_usable_in_expressions():
    od = parse_od(
        "f = scoring_function(event = t > 1, condition = seq_time > 2, frequency = first);"
    )
    assert od.functions[0].event == Binary(">", Ident("t"), Literal(1.0))


def test_const_literals():
    od = parse_od(
        "const A = 2.5;\nconst B = -3;\nconst C = true;\nconst D = point(-1, 2);\n"
        "f = scoring_function(event = b, frequency = first);"
    )
    assert od.constants == (("A", 2.5), ("B", -3.0), ("C", True), ("D", Point2(-1.0, 2.0)))


def test_summary_sum_and_expression():
    base = "f = scoring_function(event = b, frequency = first);"
    assert parse_od(base + "summary = sum;").summary is None
    od = parse_od(base + "summary = 0.5 * f;")
    assert od.summary == Binary("*", Literal(0.5), Ident("f"))


def test_summary_must_be_last():
    with pytest.raises(ParseError, match="last declaration"):
        parse_od(
            "summary = sum;\nf = scoring_function(event = b, frequency = first);"
        )


def test_initial_signed():
    od = parse_od("f = scoring_function(event = b, frequency = first, initial = -2.5);")
    assert od.functions[0].initial == -2.5


def test_comments_ignored():
    od = parse_od("# leading comment\nconst A = 1; # trailing\nf = scoring_function(event = b, frequency = first);")
    assert od.constants == (("A", 1.0),)


def test_unclosed_constructs():
    with pytest.raises(ParseError):
        parse_od("f = scoring_function(event = (a and b, frequency = first);")
    with pytest.raises(ParseError, match="';'"):
        parse_od("const A = 1")


@pytest.mark.parametrize(
    "source, message, column",
    [
        ("const A = x;", "expected literal (number, true, false, or point(x, y))", 11),
        ("; const A = 1;", "expected declaration, found ';'", 1),
        ("f = function(event = b, frequency = first);", "expected 'scoring_function', found 'function'", 5),
    ],
)
def test_declaration_errors(source, message, column):
    with pytest.raises(ParseError) as err:
        parse_od(source)
    assert (str(err.value), err.value.line, err.value.column) == (f"1:{column}: {message}", 1, column)


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_od("const A = 1 @;")


@pytest.mark.parametrize(
    "source, message",
    [
        ("const A = 1\u00b2;", "1:12: unexpected character '\u00b2'"),  # superscript two
        ("const A = \u0663;", "1:11: unexpected character '\u0663'"),  # Arabic-Indic three
        ("const caf\u00e9 = 1;", "1:10: unexpected character '\u00e9'"),
    ],
)
def test_identifiers_and_numbers_are_ascii(source, message, tmp_path, capsys):
    with pytest.raises(ParseError) as raised:
        parse_od(source)
    assert str(raised.value) == message
    od = tmp_path / "unicode.odl"
    od.write_text(source, encoding="utf-8")
    assert main(["check", str(od)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_number_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_od("const A = 1e999;")


def _const_a(value):
    return OracleDefinition(constants=(("A", value),))


def _event_f(event):
    return OracleDefinition(functions=(ScoringFunction("f", event, Frequency.FIRST),))


# Token edge cases: a number needs a digit after '.' and after 'e[+-]' to
# take them in; tab and '\r' are one column each; a comment runs to the end
# of its line, and at the end of input the EOF token sits at its '#'. A
# number out of range is refused as the source is read, like an unexpected
# character, so before a syntax error that comes earlier in the source.
LEXER_EDGES = [
    ("const A = 1.;", "1:12: unexpected character '.'"),
    ("const A = 1.x;", "1:12: unexpected character '.'"),
    ("const A = .5;", "1:11: unexpected character '.'"),
    ("const A = 1e;", "1:12: expected ';' ending the declaration, found 'e'"),
    ("const A = 1e+;", "1:12: expected ';' ending the declaration, found 'e'"),
    ("const A = 1E-3;", _const_a(0.001)),
    ("const A = 1.5e3x;", "1:16: expected ';' ending the declaration, found 'x'"),
    ("const A = 007;", _const_a(7.0)),
    ("const A = 1e999;", "1:11: number literal 1e999 is out of range"),
    ("const A = 1 ! 2;", "1:13: unexpected character '!'"),
    ("const A = 1\f;", "1:12: unexpected character '\\x0c'"),
    ("const\tA\r= 1 @;", "1:13: unexpected character '@'"),
    ("const A = 1; # note\n@", "2:1: unexpected character '@'"),
    ("const A = 1 # note\n;", _const_a(1.0)),
    ("const A = 1 # note", "1:13: expected ';' ending the declaration, found 'end of input'"),
    ("const A = 1\n\n", "3:1: expected ';' ending the declaration, found 'end of input'"),
    ("f = scoring_function(event = a != b, frequency = first);", _event_f(Binary("!=", Ident("a"), Ident("b")))),
    ("f = scoring_function(event = a<=b, frequency = first);", _event_f(Binary("<=", Ident("a"), Ident("b")))),
    ("f = scoring_function(event = a>=-1, frequency = first);", _event_f(Binary(">=", Ident("a"), Literal(-1.0)))),
    ("f = scoring_function(event = a_1==_b9, frequency = first);", _event_f(Binary("==", Ident("a_1"), Ident("_b9")))),
    ("f = scoring_function(event = a =< b, frequency = first);", "1:32: expected ')' closing scoring_function, found '='"),
    ("const A = x;\nf = scoring_function(event = t > -1e999, frequency = first);",
     "2:35: number literal 1e999 is out of range"),
    ("const A = 1 @ 1e999;", "1:13: unexpected character '@'"),
]


@pytest.mark.parametrize("source, expected", LEXER_EDGES)
def test_lexer_edge_cases(source, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as raised:
            parse_od(source)
        assert str(raised.value) == expected
    else:
        assert parse_od(source) == expected


def test_readme_grammar_is_the_parser_grammar():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme_grammar = readme.split("### Grammar\n\n```\n", 1)[1].split("```", 1)[0]
    parser_grammar = odl.parser.__doc__.split(":\n\n", 1)[1].split("\n\n", 1)[0]
    assert readme_grammar == textwrap.dedent(parser_grammar) + "\n"


def test_format_listing1_round_trip_and_default_summary():
    od = parse_od(LISTING1)
    text = format_od(od)
    assert "summary = sum;" in text
    assert parse_od(text) == od


def test_format_empty_od_is_allowed():
    # The formatter prints constants-only definitions; rejecting empty
    # definitions is the checker's job.
    text = format_od(OracleDefinition(constants=(("A", 1.0),)))
    assert "const A = 1.0;" in text
    assert parse_od(text) == OracleDefinition(constants=(("A", 1.0),))


def test_format_minimal_parentheses():
    od = parse_od(
        "f = scoring_function(event = (a or b) and not (c or d), "
        "action = (1 + 2) * -(3 + x), frequency = first);"
    )
    text = format_od(od)
    assert "(a or b) and not (c or d)" in text
    assert parse_od(text) == od


def test_format_negated_literal_keeps_structure():
    fn = ScoringFunction(
        name="f",
        event=Ident("b"),
        frequency=Frequency.FIRST,
        action=Unary("-", Literal(5.0)),
    )
    od = OracleDefinition(functions=(fn,))
    assert parse_od(format_od(od)) == od


def test_format_keeps_a_negative_zero_initial_score():
    # -0.0 == 0.0, so the definitions compare equal either way: the round
    # trip must also report what the original reports.
    od = parse_od("f = scoring_function(event = speed > 100, frequency = first, initial = -0.0);")
    round_tripped = parse_od(format_od(od))
    assert round_tripped == od
    trace = parse_trace('{"speed": "number"}\n{"t": 0, "speed": 2}\n')
    for score in (score_trace, reference_score):
        reports = [report_to_text(score(check_od(each, trace.schema), trace)) for each in (od, round_tripped)]
        assert reports == ["f: -0.0\nsummary: 0.0\n"] * 2


def test_formatter_keeps_the_nesting_limit_on_hand_built_trees():
    """A hand-built tree deeper than the parser admits is a CheckError from
    format_expr and format_od, not a RecursionError; format_od locates it
    as check_od does."""

    def chain(levels):
        expr = Ident("speed")
        for _ in range(levels):
            expr = Unary("-", expr)
        return expr

    def oracle(action):
        return OracleDefinition(functions=(ScoringFunction("f", Ident("b"), Frequency.ALL_SUM, action=action),))

    assert format_expr(chain(MAX_NESTING)) == "-" * MAX_NESTING + "speed"
    assert parse_od(format_od(oracle(chain(MAX_NESTING)))) == oracle(chain(MAX_NESTING))
    for levels in (MAX_NESTING + 1, 5000):
        for format_tree, where in ((format_expr, ""), (lambda expr: format_od(oracle(expr)), "action of 'f': ")):
            with pytest.raises(CheckError, match=f"^{where}expression nests deeper than {MAX_NESTING} levels$"):
                format_tree(chain(levels))


def _acting(action=None, notifications=()):
    return OracleDefinition(functions=(
        ScoringFunction("f", Ident("b"), Frequency.ALL_SUM, action=action, notifications=notifications),
    ))


_BUILTINS = "(built-ins: distance, abs, min, max)"

# Hand-built definitions whose text parse_od would refuse or read as another
# tree: format_od refuses each with check_od's text.
FORMAT_ERRORS = [
    pytest.param(
        _acting(Call("not", (Ident("speed"),))), f"action of 'f': unknown function 'not' {_BUILTINS}", id="call_named_not",
    ),
    pytest.param(_acting(Call("x y", ())), f"action of 'f': unknown function 'x y' {_BUILTINS}", id="call_not_a_name"),
    pytest.param(_acting(Call(None, ())), f"action of 'f': unknown function 'None' {_BUILTINS}", id="call_named_none"),
    pytest.param(_acting(notifications=""), "notifications of 'f': '' is not a tuple", id="notifications_empty_str"),
    pytest.param(
        _acting(notifications=(Notification("f", ""),)), "notification for 'f' of 'f': '' is not a tuple",
        id="bindings_empty_str",
    ),
]


@pytest.mark.parametrize("od, text", FORMAT_ERRORS)
def test_format_od_refuses_what_parse_od_would_not_read_back(od, text):
    with pytest.raises(CheckError, match=f"^{re.escape(text)}$"):
        format_od(od)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_property(seed):
    od = gen_wild_od(random.Random(seed))
    assert parse_od(format_od(od)) == od


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_nesting_limit(shape):
    """Nesting up to MAX_NESTING parses, checks and scores like the
    reference; one level more is a ParseError at the token that goes past
    the limit, and so is any depth, never a RecursionError."""
    source, _ = nested_od(shape, MAX_NESTING)
    trace = parse_trace('{"x": "number", "b": "boolean"}\n{"t": 0, "x": 2, "b": true}\n')
    checked = check_od(parse_od(source), trace.schema)
    assert score_trace(checked, trace) == reference_score(checked, trace)
    source, column = nested_od(shape, MAX_NESTING + 1)
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_NESTING} levels") as err:
        parse_od(source)
    assert (err.value.line, err.value.column) == (1, column)
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_NESTING} levels"):
        parse_od(nested_od(shape, 5000)[0])
