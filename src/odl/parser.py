"""Lexer and parser for oracle-definition source text: recursive descent for
declarations, precedence climbing for expressions.

Grammar (`;` terminates declarations, `#` starts a line comment):

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

Expression precedence, loosest to tightest:
or < and < not < comparison < additive < multiplicative < unary minus < call/primary.
Expressions nest at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError
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
from .syntax import BINARY_PREC, NOT_PREC
from .trace import Point2, Value

KEYWORDS = frozenset(
    {
        "const", "summary", "scoring_function",
        "event", "condition", "action", "frequency", "initial", "notifications",
        "first", "action_sum", "all_sum",
        "true", "false", "point", "sum",
        "not", "and", "or",
    }
)
BUILTIN_FUNCTIONS = ("distance", "abs", "min", "max")
# Names that may appear in expressions but can never be declared.
RESERVED_NAMES = KEYWORDS | {"t", "seq_time"} | set(BUILTIN_FUNCTIONS)

# Expressions nest at most this deep, counted in operators and calls along
# any path of the tree and, separately, in open parentheses. It bounds the
# recursion of the parser, checker and evaluators, and keeps the Python the
# engine generates (one parenthesis pair per operator) far below CPython's
# limit of 200 nested parentheses.
MAX_NESTING = 64

_PARAM_KEYS = ("event", "condition", "action", "frequency", "initial", "notifications")
_FREQUENCIES = {f.value: f for f in Frequency}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int
    value: float = 0.0  # set for NUMBER tokens


_TWO_CHAR_OPS = {"<=": "LE", ">=": "GE", "==": "EQEQ", "!=": "NE"}
_ONE_CHAR_OPS = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    ",": "COMMA", ";": "SEMI", "=": "EQ",
    "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
    "<": "LT", ">": "GT",
}
# The grammar is ASCII: str.isalpha/isdigit would also accept 'é', '²' or '٣'.
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_IDENT_CHARS = _IDENT_START | _DIGITS


def _lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and source[i] in _IDENT_CHARS:
                i += 1
            text = source[start:i]
            tokens.append(Token("IDENT", text, line, col))
            col += i - start
            continue
        if ch in _DIGITS:
            start = i
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1] in _DIGITS:
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    i = j
                    while i < n and source[i] in _DIGITS:
                        i += 1
            text = source[start:i]
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text} is out of range", line, col)
            tokens.append(Token("NUMBER", text, line, col, value=value))
            col += i - start
            continue
        pair = source[i : i + 2]
        if pair in _TWO_CHAR_OPS:
            tokens.append(Token(_TWO_CHAR_OPS[pair], pair, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(_ONE_CHAR_OPS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._open = 0  # parentheses open in the current expression

    def open(self, tok: Token) -> None:
        self._open += 1
        if self._open > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)

    def close(self, what: str) -> None:
        self.expect("RPAREN", what)
        self._open -= 1

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def match(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            self.fail(f"expected {what}, found {found!r}", tok)
        return self.advance()

    def fail(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)


def expression_height(expr: Expr) -> int:
    """Operators and calls on the longest path from `expr` down to a leaf."""
    if isinstance(expr, Binary):
        return 1 + max(expression_height(expr.left), expression_height(expr.right))
    if isinstance(expr, Unary):
        return 1 + expression_height(expr.operand)
    if isinstance(expr, Call):
        return 1 + max(map(expression_height, expr.args), default=0)
    return 0


def _node(p: _Parser, expr: Expr, tok: Token) -> Expr:
    if expression_height(expr) > MAX_NESTING:
        p.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
    return expr


def _parse_expr(p: _Parser, min_prec: int = 1) -> Expr:
    """An expression whose binary operators bind at least as tightly as
    `min_prec` (syntax.BINARY_PREC), by precedence climbing. Prefix
    operators are collected in loops, not by recursion, so recursion grows
    only with parentheses, which MAX_NESTING bounds."""
    nots = []
    while min_prec <= NOT_PREC and p.peek().kind == "IDENT" and p.peek().text == "not":
        nots.append(p.advance())
    minuses = []
    while p.peek().kind == "MINUS":
        minuses.append(p.advance())
    # A minus fused directly onto a number is a negative literal.
    if minuses and p.peek().kind == "NUMBER":
        minuses.pop()
        expr: Expr = Literal(-p.advance().value)
    else:
        expr = _parse_primary(p)
    for tok in reversed(minuses):
        expr = _node(p, Unary("-", expr), tok)
    if nots:
        expr = _parse_binary(p, expr, NOT_PREC + 1)
        for tok in reversed(nots):
            expr = _node(p, Unary("not", expr), tok)
    return _parse_binary(p, expr, min_prec)


def _parse_binary(p: _Parser, left: Expr, min_prec: int) -> Expr:
    """Extend `left` by left-associative binary operators of at least `min_prec`."""
    while BINARY_PREC.get(p.peek().text, 0) >= min_prec:
        tok = p.advance()
        right = _parse_expr(p, BINARY_PREC[tok.text] + 1)
        left = _node(p, Binary(tok.text, left, right), tok)
    return left


def _parse_point_literal(p: _Parser) -> Point2:
    p.expect("LPAREN", "'(' after point")
    x = _parse_signed_number(p)
    p.expect("COMMA", "',' between point coordinates")
    y = _parse_signed_number(p)
    p.expect("RPAREN", "')' after point coordinates")
    return Point2(x, y)


def _parse_primary(p: _Parser) -> Expr:
    tok = p.peek()
    if tok.kind == "NUMBER":
        return Literal(p.advance().value)
    if tok.kind == "LPAREN":
        p.open(p.advance())
        expr = _parse_expr(p)
        p.close("')'")
        return expr
    if tok.kind == "IDENT":
        if tok.text in ("true", "false"):
            p.advance()
            return Literal(tok.text == "true")
        if tok.text == "point":
            p.advance()
            return Literal(_parse_point_literal(p))
        if tok.text in KEYWORDS:
            p.fail(f"'{tok.text}' is a reserved word", tok)
        p.advance()
        if p.peek().kind == "LPAREN":
            p.open(p.advance())
            args: list[Expr] = []
            if p.peek().kind != "RPAREN":
                args.append(_parse_expr(p))
                while p.match("COMMA"):
                    args.append(_parse_expr(p))
            p.close("')' after call arguments")
            return _node(p, Call(tok.text, tuple(args)), tok)
        return Ident(tok.text)
    found = tok.text or "end of input"
    p.fail(f"expected expression, found {found!r}", tok)
    raise AssertionError("unreachable")


def _parse_signed_number(p: _Parser) -> float:
    negative = p.match("MINUS")
    tok = p.expect("NUMBER", "number")
    return -tok.value if negative else tok.value


def _parse_literal(p: _Parser) -> Value:
    tok = p.peek()
    if tok.kind in ("MINUS", "NUMBER"):
        return _parse_signed_number(p)
    if tok.kind == "IDENT" and tok.text in ("true", "false"):
        p.advance()
        return tok.text == "true"
    if tok.kind == "IDENT" and tok.text == "point":
        p.advance()
        return _parse_point_literal(p)
    p.fail("expected literal (number, true, false, or point(x, y))", tok)
    raise AssertionError("unreachable")


def _declared_name(p: _Parser, what: str) -> Token:
    tok = p.expect("IDENT", f"{what} name")
    if tok.text in RESERVED_NAMES:
        p.fail(f"'{tok.text}' is reserved and cannot name a {what}", tok)
    return tok


def _parse_notifications(p: _Parser) -> tuple[Notification, ...]:
    p.expect("LBRACKET", "'[' starting the notification list")
    notifs: list[Notification] = []
    while True:
        p.expect("LPAREN", "'(' starting a notification")
        target = p.expect("IDENT", "notification target").text
        p.expect("COMMA", "',' after notification target")
        p.expect("LBRACKET", "'[' starting timer bindings")
        bindings: list[tuple[str, Expr]] = []
        while True:
            p.expect("LPAREN", "'(' starting a timer binding")
            timer = _declared_name(p, "timer")
            p.expect("COMMA", "',' after timer name")
            value = _parse_expr(p)
            p.expect("RPAREN", "')' closing the timer binding")
            bindings.append((timer.text, value))
            if not p.match("COMMA"):
                break
        p.expect("RBRACKET", "']' closing timer bindings")
        p.expect("RPAREN", "')' closing the notification")
        notifs.append(Notification(target=target, bindings=tuple(bindings)))
        if not p.match("COMMA"):
            break
    p.expect("RBRACKET", "']' closing the notification list")
    return tuple(notifs)


def _parse_scoring_function(p: _Parser, name_tok: Token) -> ScoringFunction:
    p.expect("LPAREN", "'(' after scoring_function")
    params: dict[str, object] = {}
    while True:
        key_tok = p.expect("IDENT", "parameter name")
        key = key_tok.text
        if key not in _PARAM_KEYS:
            p.fail(f"unknown parameter '{key}'", key_tok)
        if key in params:
            p.fail(f"duplicate parameter '{key}'", key_tok)
        p.expect("EQ", f"'=' after {key}")
        if key in ("event", "condition", "action"):
            params[key] = _parse_expr(p)
        elif key == "frequency":
            mode_tok = p.expect("IDENT", "frequency mode")
            if mode_tok.text not in _FREQUENCIES:
                p.fail(f"unknown frequency '{mode_tok.text}'", mode_tok)
            params[key] = _FREQUENCIES[mode_tok.text]
        elif key == "initial":
            params[key] = _parse_signed_number(p)
        else:
            params[key] = _parse_notifications(p)
        if not p.match("COMMA"):
            break
    p.expect("RPAREN", "')' closing scoring_function")
    p.expect("SEMI", "';' ending the declaration")
    for required in ("event", "frequency"):
        if required not in params:
            p.fail(
                f"scoring function '{name_tok.text}' is missing required "
                f"parameter '{required}'",
                name_tok,
            )
    return ScoringFunction(
        name=name_tok.text,
        event=params["event"],  # type: ignore[arg-type]
        frequency=params["frequency"],  # type: ignore[arg-type]
        condition=params.get("condition"),  # type: ignore[arg-type]
        action=params.get("action"),  # type: ignore[arg-type]
        notifications=params.get("notifications", ()),  # type: ignore[arg-type]
        initial=params.get("initial", 0.0),  # type: ignore[arg-type]
    )


def parse_od(source: str) -> OracleDefinition:
    """Parse oracle-definition source into its AST.

    Declaration order is preserved; constants and scoring functions share one
    namespace and duplicates are rejected here.
    """
    p = _Parser(_lex(source))
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
        if tok.text == "const":
            p.advance()
            name_tok = _declared_name(p, "constant")
            if name_tok.text in names:
                p.fail(f"duplicate name '{name_tok.text}'", name_tok)
            p.expect("EQ", "'=' after constant name")
            value = _parse_literal(p)
            p.expect("SEMI", "';' ending the declaration")
            names.add(name_tok.text)
            constants.append((name_tok.text, value))
        elif tok.text == "summary":
            p.advance()
            p.expect("EQ", "'=' after summary")
            if p.peek().kind == "IDENT" and p.peek().text == "sum":
                p.advance()
                summary = None
            else:
                summary = _parse_expr(p)
            p.expect("SEMI", "';' ending the declaration")
            saw_summary = True
        else:
            name_tok = _declared_name(p, "scoring function")
            if name_tok.text in names:
                p.fail(f"duplicate name '{name_tok.text}'", name_tok)
            p.expect("EQ", "'=' after scoring function name")
            kw = p.expect("IDENT", "'scoring_function'")
            if kw.text != "scoring_function":
                p.fail(f"expected 'scoring_function', found '{kw.text}'", kw)
            names.add(name_tok.text)
            functions.append(_parse_scoring_function(p, name_tok))
    return OracleDefinition(
        constants=tuple(constants), functions=tuple(functions), summary=summary
    )
