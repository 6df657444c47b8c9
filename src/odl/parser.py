"""Lexer and parser for oracle-definition source text: one regular expression
for the tokens, recursive descent for declarations, precedence climbing for
expressions.

Grammar (`;` terminates declarations; spaces, tabs, carriage returns,
newlines and comments separate tokens, and each token is as long as it can be):

    od          := { const_decl | sf_decl } [ summary_decl ]
    const_decl  := "const" IDENT "=" literal ";"
    sf_decl     := IDENT "=" "scoring_function" "(" param { "," param } ")" ";"
    param       := "event" "=" expr | "condition" "=" expr | "action" "=" expr
                 | "frequency" "=" ("first" | "action_sum" | "all_sum")
                 | "initial" "=" number | "notifications" "=" notif_list
    notif_list  := "[" notif { "," notif } "]"
    notif       := "(" IDENT "," "[" binding { "," binding } "]" ")"
    binding     := "(" IDENT "," expr ")"
    summary_decl:= "summary" "=" ("sum" | expr) ";"
    literal     := ["-"] number | "true" | "false"
                 | "point" "(" ["-"] number "," ["-"] number ")"
    IDENT       := letter { letter | digit }
    number      := digit { digit } [ "." digit { digit } ]
                   [ ("e" | "E") ["+" | "-"] digit { digit } ]
    letter      := "A" .. "Z" | "a" .. "z" | "_"
    digit       := "0" .. "9"
    punctuation := "(" | ")" | "[" | "]" | "," | ";" | "=" | "+" | "-" | "*" | "/"
                 | "<" | "<=" | ">" | ">=" | "==" | "!="
    comment     := "#" { any character but newline }

Expression operators bind as syntax.BINARY and syntax.UNARY say, loosest to tightest:
or < and < not < comparison < additive < multiplicative < unary minus < call/primary.
Expressions nest at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import math
import re
from typing import Any, NamedTuple, NoReturn

from .errors import CheckError, ParseError
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
)
from .syntax import (
    BINARY,
    BOOLEANS,
    CONST,
    KEYWORDS,
    MAX_NESTING,
    POINT,
    SCORING_FUNCTION,
    SUM,
    SUMMARY,
    UNARY,
    check_name,
)
from .trace import NAME_RE, Point2, Value

_FREQUENCIES = {f.value: f for f in Frequency}


class Token(NamedTuple):
    kind: str  # "IDENT", "NUMBER", "EOF", or the punctuation itself
    text: str
    start: int  # the offset of its first character in the source


# The grammar is ASCII: \d, \w or IGNORECASE would also accept 'é', '²' or '٣'.
_TOKEN_RE = re.compile(
    rf"""
      (?P<skip> (?: [ \t\r\n] | \#[^\n]*\n )+ )
    | (?: \#[^\n]* )? (?P<EOF> \Z )  # a comment that ends the input puts EOF at its '#'
    | (?P<IDENT> {NAME_RE.pattern} )
    | (?P<NUMBER> [0-9]+ (?: \.[0-9]+ )? (?: [eE][+-]?[0-9]+ )? )
    | (?P<punctuation> [<>=!]= | [()\[\],;=+\-*/<>] )
    """,
    re.VERBOSE,
)


def _located(source: str, message: str, start: int) -> ParseError:
    """A ParseError of `message` at offset `start` of `source`, by line and column."""
    return ParseError(message, source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start))


def _lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos, kind = 0, ""
    while kind != "EOF":
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise _located(source, f"unexpected character {source[pos]!r}", pos)
        kind, text = m.lastgroup, m.group(m.lastgroup)
        if kind == "NUMBER" and not math.isfinite(float(text)):
            raise _located(source, f"number literal {text} is out of range", pos)
        if kind != "skip":
            tokens.append(Token(text if kind == "punctuation" else kind, text, pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self._source = source
        self._tokens = _lex(source)
        self._pos = 0
        self._open = 0  # parentheses open in the current expression
        # Operators and calls on the longest path of each such node, by id;
        # the nodes live as long as the parser, so no id is reused.
        self.depth: dict[int, int] = {}

    def open(self, tok: Token) -> None:
        self._open += 1
        if self._open > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)

    def close(self, what: str) -> None:
        self.expect(")", what)
        self._open -= 1

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def match(self, text: str) -> bool:
        if self.peek().text == text:
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            self.fail(f"expected {what}, found {found!r}", tok)
        return self.advance()

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        raise _located(self._source, message, (tok or self.peek()).start)


def _node(p: _Parser, expr: Expr, tok: Token, *children: Expr) -> Expr:
    """`expr`, an operator or call over `children`, refused at `tok` with
    check_expr's text if it nests deeper than MAX_NESTING: O(1) per child."""
    depth = 1 + max((p.depth.get(id(child), 0) for child in children), default=0)
    if depth > MAX_NESTING:
        p.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
    p.depth[id(expr)] = depth
    return expr


def _parse_expr(p: _Parser, min_prec: int = 1) -> Expr:
    """An expression whose binary operators bind at least as tightly as
    `min_prec`, by precedence climbing over the strengths in syntax.BINARY
    and syntax.UNARY. A prefix operator applies to the operators that bind
    more tightly than it, and may follow one of no greater strength. Prefix
    operators are collected in a loop, not by recursion, so recursion grows
    only with parentheses, which MAX_NESTING bounds."""
    prefixes: list[Token] = []
    floor = min_prec
    while UNARY.get(p.peek().text, (0,))[0] >= floor:
        prefixes.append(p.advance())
        floor = UNARY[prefixes[-1].text][0]
    # A minus fused directly onto a number is a negative literal.
    if prefixes and prefixes[-1].kind == "-" and p.peek().kind == "NUMBER":
        prefixes.pop()
        expr: Expr = Literal(-float(p.advance().text))
    else:
        expr = _parse_primary(p)
    for tok in reversed(prefixes):
        operand = _parse_binary(p, expr, UNARY[tok.text][0] + 1)
        expr = _node(p, Unary(tok.text, operand), tok, operand)
    return _parse_binary(p, expr, min_prec)


def _parse_binary(p: _Parser, left: Expr, min_prec: int) -> Expr:
    """Extend `left` by left-associative binary operators of at least `min_prec`."""
    while BINARY.get(p.peek().text, (0,))[0] >= min_prec:
        tok = p.advance()
        right = _parse_expr(p, BINARY[tok.text][0] + 1)
        left = _node(p, Binary(tok.text, left, right), tok, left, right)
    return left


def _parse_primary(p: _Parser) -> Expr:
    tok = p.peek()
    if tok.kind == "NUMBER" or tok.text in BOOLEANS or tok.text == POINT:
        return Literal(_parse_literal(p))
    if tok.kind == "(":
        p.open(p.advance())
        expr = _parse_expr(p)
        p.close("')'")
        return expr
    if tok.kind == "IDENT":
        if tok.text in KEYWORDS:
            p.fail(f"'{tok.text}' is a reserved word", tok)
        p.advance()
        if p.peek().kind == "(":
            p.open(p.advance())
            args: list[Expr] = []
            if p.peek().kind != ")":
                args.append(_parse_expr(p))
                while p.match(","):
                    args.append(_parse_expr(p))
            p.close("')' after call arguments")
            return _node(p, Call(tok.text, tuple(args)), tok, *args)
        return Ident(tok.text)
    found = tok.text or "end of input"
    p.fail(f"expected expression, found {found!r}", tok)


def _parse_signed_number(p: _Parser) -> float:
    negative = p.match("-")
    value = float(p.expect("NUMBER", "number").text)
    return -value if negative else value


def _parse_literal(p: _Parser) -> Value:
    tok = p.peek()
    if tok.kind in ("-", "NUMBER"):
        return _parse_signed_number(p)
    if tok.text in BOOLEANS:
        return BOOLEANS[p.advance().text]
    if p.match(POINT):
        p.expect("(", "'(' after point")
        x = _parse_signed_number(p)
        p.expect(",", "',' between point coordinates")
        y = _parse_signed_number(p)
        p.expect(")", "')' after point coordinates")
        return Point2(x, y)
    p.fail("expected literal (number, true, false, or point(x, y))", tok)


def _declared_name(p: _Parser, what: str, declared: set[str] | None = None) -> Token:
    """The name of a `what`, refused at its token with check_name's text."""
    tok = p.expect("IDENT", f"{what} name")
    try:
        check_name(tok.text, what, declared)
    except CheckError as exc:
        p.fail(str(exc), tok)
    return tok


def _parse_notifications(p: _Parser) -> tuple[Notification, ...]:
    p.expect("[", "'[' starting the notification list")
    notifs: list[Notification] = []
    while True:
        p.expect("(", "'(' starting a notification")
        target = p.expect("IDENT", "notification target").text
        p.expect(",", "',' after notification target")
        p.expect("[", "'[' starting timer bindings")
        bindings: list[tuple[str, Expr]] = []
        while True:
            p.expect("(", "'(' starting a timer binding")
            timer = _declared_name(p, "timer")
            p.expect(",", "',' after timer name")
            value = _parse_expr(p)
            p.expect(")", "')' closing the timer binding")
            bindings.append((timer.text, value))
            if not p.match(","):
                break
        p.expect("]", "']' closing timer bindings")
        p.expect(")", "')' closing the notification")
        notifs.append(Notification(target=target, bindings=tuple(bindings)))
        if not p.match(","):
            break
    p.expect("]", "']' closing the notification list")
    return tuple(notifs)


def _parse_frequency(p: _Parser) -> Frequency:
    tok = p.expect("IDENT", "frequency mode")
    if tok.text not in _FREQUENCIES:
        p.fail(f"unknown frequency '{tok.text}'", tok)
    return _FREQUENCIES[tok.text]


# The parameters of scoring_function, each with the parser of its value.
# They are ScoringFunction's fields; those without a default are required.
_PARAMS = {
    "event": _parse_expr,
    "condition": _parse_expr,
    "action": _parse_expr,
    "frequency": _parse_frequency,
    "initial": _parse_signed_number,
    "notifications": _parse_notifications,
}
_REQUIRED = [name for name in ScoringFunction._fields[: -len(ScoringFunction.__init__.__defaults__)] if name in _PARAMS]


def _parse_scoring_function(p: _Parser, name_tok: Token) -> ScoringFunction:
    p.expect("(", "'(' after scoring_function")
    params: dict[str, Any] = {}
    while True:
        key_tok = p.expect("IDENT", "parameter name")
        key = key_tok.text
        if key not in _PARAMS:
            p.fail(f"unknown parameter '{key}'", key_tok)
        if key in params:
            p.fail(f"duplicate parameter '{key}'", key_tok)
        p.expect("=", f"'=' after {key}")
        params[key] = _PARAMS[key](p)
        if not p.match(","):
            break
    p.expect(")", "')' closing scoring_function")
    p.expect(";", "';' ending the declaration")
    for required in _REQUIRED:
        if required not in params:
            p.fail(
                f"scoring function '{name_tok.text}' is missing required "
                f"parameter '{required}'",
                name_tok,
            )
    return ScoringFunction(name=name_tok.text, **params)


def parse_od(source: str) -> OracleDefinition:
    """Parse oracle-definition source into its AST.

    Declaration order is preserved; constants and scoring functions share one
    namespace and duplicates are rejected here.
    """
    p = _Parser(source)
    constants: list[tuple[str, Value]] = []
    functions: list[ScoringFunction] = []
    summary: Expr | None = None
    saw_summary = False
    names: set[str] = set()
    while p.peek().kind != "EOF":
        tok = p.peek()
        if tok.kind != "IDENT":
            p.fail(f"expected declaration, found {tok.text!r}", tok)
        if saw_summary:
            p.fail("summary must be the last declaration", tok)
        if p.match(SUMMARY):
            p.expect("=", "'=' after summary")
            summary = None if p.match(SUM) else _parse_expr(p)
            p.expect(";", "';' ending the declaration")
            saw_summary = True
            continue
        what = "constant" if p.match(CONST) else "scoring function"
        name_tok = _declared_name(p, what, names)
        p.expect("=", f"'=' after {what} name")
        if what == "constant":
            value = _parse_literal(p)
            p.expect(";", "';' ending the declaration")
            constants.append((name_tok.text, value))
        else:
            kw = p.expect("IDENT", f"'{SCORING_FUNCTION}'")
            if kw.text != SCORING_FUNCTION:
                p.fail(f"expected '{SCORING_FUNCTION}', found '{kw.text}'", kw)
            functions.append(_parse_scoring_function(p, name_tok))
    return OracleDefinition(
        constants=tuple(constants), functions=tuple(functions), summary=summary
    )
