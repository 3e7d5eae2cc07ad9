"""Parser for the textual objective language.

Objectives are written as a sense keyword followed by an expression
over sum-comprehensions, for example::

    maximize sum(i in I, j in J, k in K) x[i,j,k]
    minimize sum(j in J, k in K if k > 0) u[j,k]

Index variables bind to the supply areas (I), demand areas (J) or the
0-based charge levels (K). Atoms cover the decision variables
(x, u_hat and the derived per-order revenue u), instance parameters
(S, z, dist, w, demand_avg, inventory_avg), bound index variables used
as values, and numeric literals. Operators are +, -, * and abs().

The parser also rejects what the text alone decides, with a line and
column: an identifier that is neither a bound index variable nor an
atom, an atom with the wrong number of indices, and a bound variable
in a position of another set. What the instance decides is checked
when the objective is expanded on it (:mod:`.analysis`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class DslError(ValueError):
    """Syntax or binding error with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})" if line else message)
        self.message = message
        self.line = line
        self.col = col


# atom name -> (category, expected index sets)
ATOMS: dict[str, tuple[str, tuple[str, ...]]] = {
    "x": ("decision", ("I", "J", "K")),
    "u_hat": ("decision", ("J", "K")),
    "u": ("decision", ("J", "K")),
    "S": ("param", ("I", "K")),
    "z": ("param", ("J", "K")),
    "dist": ("param", ("I", "J")),
    "w": ("param", ("I", "J")),
    "demand_avg": ("param", ("J",)),
    "inventory_avg": ("param", ()),
}

SET_NAMES = ("I", "J", "K")
KEYWORDS = {"maximize", "minimize", "sum", "in", "if", "abs", "and"}


# --- AST nodes ---


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class IndexVar:
    name: str
    set_name: str


@dataclass(frozen=True)
class Atom:
    name: str
    indices: tuple  # IndexVar | int per position


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Abs:
    operand: object


@dataclass(frozen=True)
class Compare:
    op: str  # "==", "!=", "<", "<=", ">", ">="
    left: object  # index expression: IndexVar | int | BinOp over these
    right: object


@dataclass(frozen=True)
class And:
    left: Compare
    right: object


@dataclass(frozen=True)
class Sum:
    bindings: tuple[IndexVar, ...]
    filter: object  # Compare | And | None
    body: object


@dataclass(frozen=True)
class ObjectiveAst:
    sense: str  # "max" | "min"
    body: object
    source: str = ""


@dataclass
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


_ATOM_RE = re.compile(
    r"(?P<num>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|<=|>=|[()\[\],+\-*<>])"
)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        match = _ATOM_RE.match(source, pos)
        if not match:
            raise DslError(f"unexpected character {ch!r}", line, pos - line_start + 1)
        text = match.group(0)
        kind = "num" if match.group("num") else "ident" if match.group("ident") else "op"
        tokens.append(_Token(kind, text, line, pos - line_start + 1))
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.scopes: list[dict[str, str]] = [{}]  # var name -> set name

    # --- token helpers ---

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise DslError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                           tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise DslError(message, tok.line, tok.col)

    def lookup(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # --- grammar ---

    def parse(self) -> ObjectiveAst:
        tok = self.peek()
        if tok.text not in ("maximize", "minimize"):
            self.fail("objective must start with 'maximize' or 'minimize'")
        self.next()
        sense = "max" if tok.text == "maximize" else "min"
        body = self.expr()
        tail = self.peek()
        if tail.kind != "eof":
            raise DslError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col)
        return ObjectiveAst(sense=sense, body=body, source=self.source)

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().text == "*":
            self.next()
            node = BinOp("*", node, self.unary())
        return node

    def unary(self):
        if self.peek().text == "-":
            self.next()
            return Neg(self.unary())
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(float(tok.text))
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.text == "abs":
            self.next()
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return Abs(node)
        if tok.text == "sum":
            return self.comprehension()
        if tok.kind == "ident":
            return self.atom_or_index()
        self.fail(f"unexpected token {tok.text!r}")

    def comprehension(self):
        self.expect("sum")
        self.expect("(")
        bindings = []
        scope: dict[str, str] = {}
        self.scopes.append(scope)
        while True:
            name_tok = self.next()
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                raise DslError("expected an index variable name", name_tok.line, name_tok.col)
            self.expect("in")
            set_tok = self.next()
            if set_tok.text not in SET_NAMES:
                raise DslError(
                    f"expected one of {'/'.join(SET_NAMES)}, found {set_tok.text!r}",
                    set_tok.line, set_tok.col,
                )
            if name_tok.text in scope:
                raise DslError(f"duplicate index variable {name_tok.text!r}",
                               name_tok.line, name_tok.col)
            scope[name_tok.text] = set_tok.text
            bindings.append(IndexVar(name_tok.text, set_tok.text))
            if self.peek().text == ",":
                self.next()
                continue
            break
        cond = None
        if self.peek().text == "if":
            self.next()
            cond = self.condition()
        self.expect(")")
        body = self.unary()
        self.scopes.pop()
        return Sum(tuple(bindings), cond, body)

    def condition(self):
        left = self.index_expr()
        op_tok = self.next()
        if op_tok.text not in ("==", "!=", "<", "<=", ">", ">="):
            raise DslError(f"expected a comparison operator, found {op_tok.text!r}",
                           op_tok.line, op_tok.col)
        right = self.index_expr()
        node = Compare(op_tok.text, left, right)
        if self.peek().text == "and":
            self.next()
            return And(node, self.condition())
        return node

    def index_expr(self):
        node = self.index_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.index_term())
        return node

    def index_term(self):
        tok = self.next()
        if tok.kind == "num":
            if "." in tok.text:
                raise DslError("index expressions must be integers", tok.line, tok.col)
            return int(tok.text)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            set_name = self.lookup(tok.text)
            if set_name is None:
                raise DslError(f"unbound index variable {tok.text!r}", tok.line, tok.col)
            return IndexVar(tok.text, set_name)
        raise DslError(f"expected an index term, found {tok.text!r}", tok.line, tok.col)

    def atom_or_index(self):
        tok = self.next()
        name = tok.text
        indices = []  # (index expression, its first token)
        if self.peek().text == "[":
            self.next()
            indices.append((self.peek(), self.index_expr()))
            while self.peek().text == ",":
                self.next()
                indices.append((self.peek(), self.index_expr()))
            self.expect("]")
        elif (set_name := self.lookup(name)) is not None:
            return IndexVar(name, set_name)
        if name not in ATOMS:
            raise DslError(f"unknown identifier {name!r}", tok.line, tok.col)
        expected = ATOMS[name][1]
        if len(indices) != len(expected):
            raise DslError(
                f"{name} requires {len(expected)} "
                f"{'index' if len(expected) == 1 else 'indices'}, got {len(indices)}",
                tok.line, tok.col,
            )
        # the membership of an integer literal or of index arithmetic
        # (k - 1) is checked at expansion
        for pos, ((idx_tok, idx), set_name) in enumerate(zip(indices, expected)):
            if isinstance(idx, IndexVar) and idx.set_name != set_name:
                raise DslError(
                    f"{name} index {pos + 1} ranges over {set_name}, "
                    f"got a variable bound to {idx.set_name}",
                    idx_tok.line, idx_tok.col,
                )
        return Atom(name, tuple(idx for _, idx in indices))


def parse(source: str) -> ObjectiveAst:
    """Parse a DSL objective; raises :class:`DslError` with position."""
    if not source or not source.strip():
        raise DslError("empty objective source")
    return _Parser(source).parse()
