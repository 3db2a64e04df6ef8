"""SQL AST, parser, renderer, and canonical form for the convertible subset.

The parser accepts a single SELECT statement (optionally a set-operation
chain) in SQLite, MySQL, or PostgreSQL surface syntax. Constructs outside the
convertible subset (window functions, CTEs, correlated subqueries) are parse
errors or are rejected later by the converter, never silently mangled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, TypeVar, Union

from .actions import MAX_DEPTH, Arithmetic, Cast, Func, Scalar, Star, map_expr
from .errors import SqlStepsError, SqlSyntaxError, SqlTooDeepError

if TYPE_CHECKING:
    from .schema import DatabaseInput

DIALECTS = ("sqlite", "mysql", "postgresql")

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "offset", "as", "on", "join", "inner", "left", "right", "full",
    "outer", "cross", "union", "all", "intersect", "except", "and", "or",
    "not", "between", "in", "like", "is", "null", "asc", "desc", "cast",
}

AGG_FUNCS = {"count", "sum", "avg", "min", "max"}

_Node = TypeVar("_Node")


# --- expression nodes --------------------------------------------------------

@dataclass(frozen=True)
class Column:
    table: str | None
    column: str

    def render(self) -> str:
        if self.table is None:
            return _ident(self.column)
        return f"{_ident(self.table)}.{_ident(self.column)}"


@dataclass(frozen=True)
class Subquery:
    core: "SelectCore"


# Scalar, Star, Cast and Arithmetic are the trajectory's own nodes; Func is
# defined next to them, so that `actions.expr_children` / `map_expr` walk both
# trees.
SqlExpr = Union[Column, Scalar, Star, Func, Cast, Arithmetic, Subquery]


# --- predicate nodes ----------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    op: str  # = != < <= > >=
    left: SqlExpr
    right: SqlExpr


@dataclass(frozen=True)
class Between:
    expr: SqlExpr
    lo: SqlExpr
    hi: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class InList:
    expr: SqlExpr
    items: tuple[SqlExpr, ...]
    negated: bool = False


@dataclass(frozen=True)
class LikePred:
    expr: SqlExpr
    pattern: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    expr: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class And:
    items: tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Predicate", ...]


@dataclass(frozen=True)
class Not:
    item: "Predicate"


Predicate = Union[Comparison, Between, InList, LikePred, IsNull, And, Or, Not]


def pred_exprs(pred: Predicate) -> list[SqlExpr]:
    if isinstance(pred, Comparison):
        return [pred.left, pred.right]
    if isinstance(pred, Between):
        return [pred.expr, pred.lo, pred.hi]
    if isinstance(pred, InList):
        return [pred.expr, *pred.items]
    if isinstance(pred, LikePred):
        return [pred.expr, pred.pattern]
    if isinstance(pred, IsNull):
        return [pred.expr]
    if isinstance(pred, (And, Or)):
        out: list[SqlExpr] = []
        for item in pred.items:
            out.extend(pred_exprs(item))
        return out
    if isinstance(pred, Not):
        return pred_exprs(pred.item)
    raise TypeError(f"not a predicate: {pred!r}")


# --- statement nodes ----------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    expr: SqlExpr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None


@dataclass(frozen=True)
class Join:
    table: TableRef
    on: Predicate
    kind: str = "inner"  # inner | left | right | full | cross


@dataclass(frozen=True)
class OrderItem:
    expr: SqlExpr
    direction: str = "asc"


@dataclass(frozen=True)
class SelectCore:
    items: tuple[SelectItem, ...]
    distinct: bool = False
    tables: tuple[TableRef, ...] = ()
    joins: tuple[Join, ...] = ()
    where: Predicate | None = None
    group_by: tuple[SqlExpr, ...] = ()
    having: Predicate | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int = 0


@dataclass(frozen=True)
class SetOp:
    op: str  # union | union all | intersect | except
    left: "SelectNode"
    right: SelectCore


SelectNode = Union[SelectCore, SetOp]


@dataclass
class SqlQuery:
    """Raw SQL text plus, when the text parses in the subset, its AST."""

    text: str
    ast: SelectNode | None
    dialect: str = "sqlite"
    parse_error: str | None = None
    _syntax_error: SqlSyntaxError | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def raw(text: str, dialect: str = "sqlite") -> "SqlQuery":
        """Wrap text without requiring it to parse (for execution-only paths)."""
        try:
            return parse_sql(text, dialect)
        except SqlSyntaxError as exc:
            return SqlQuery(text=text, ast=None, dialect=dialect, parse_error=str(exc),
                            _syntax_error=exc)

    @property
    def has_order_by(self) -> bool:
        if self.ast is not None:
            node = self.ast
            while isinstance(node, SetOp):
                node = node.right
            return bool(node.order_by)
        return re.search(r"\border\s+by\b", self.text, re.IGNORECASE) is not None


# --- tokenizer -----------------------------------------------------------------

@dataclass
class _Tok:
    kind: str  # IDENT QIDENT KW NUMBER STRING OP PUNCT END
    text: str
    pos: int


# Whitespace, then one alternative per token class, tried in order. A word
# starts with no decimal digit, so that no number is read as one. A string
# closes at a quote that is not doubled, so an unterminated one falls through
# to BAD at its opening quote. BAD and END always match, so whitespace is
# never scanned twice.
_SQL_TOKEN_RE = re.compile(r"""
    \s*
    (?: (?P<WORD>[^\W\d]\w*)
      | (?P<NUMBER>\d*\.?\d+(?:[eE][+-]?\d+)?)
      | (?P<COMMENT>--[^\n]*)
      | (?P<PUNCT>[(),.*+\-/;])
      | (?P<OP><>|<=|>=|!=|=|<|>|\|\|)
      | (?P<STRING>'[^']*(?:''[^']*)*'(?!'))
      | (?P<QIDENT>"[^"]*"|`[^`]*`|\[[^\]]*\])
      | (?P<BAD>.)
      | (?P<END>\Z))
""", re.VERBOSE | re.DOTALL)


def _sql_tokens(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for m in _SQL_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, pos = m[kind], m.start(kind)
        # a word may still start with a digit that is no decimal digit (e.g.
        # `²`), an unexpected character
        if kind == "WORD" and (tok[0].isalpha() or tok[0] == "_"):
            kind = "KW" if tok.lower() in KEYWORDS else "IDENT"
        elif kind == "COMMENT":
            continue
        elif kind == "END":
            break
        elif kind == "OP" and tok == "<>":
            tok = "!="
        elif kind == "STRING":
            tok = tok[1:-1].replace("''", "'")
        elif kind == "QIDENT":
            tok = tok[1:-1]
        elif kind in ("WORD", "BAD"):
            if tok == "'":
                raise SqlSyntaxError("unterminated string literal", pos)
            if tok in "\"`[":
                raise SqlSyntaxError("unterminated quoted identifier", pos)
            raise SqlSyntaxError(f"unexpected character {tok[0]!r}", pos)
        toks.append(_Tok(kind, tok, pos))
    toks.append(_Tok("END", "", len(text)))
    return toks


# --- parser ---------------------------------------------------------------------

class BoundedParser:
    """Holds a recursive-descent parse to MAX_DEPTH levels, counted twice.

    `nesting` bounds the parser's own recursion: every parenthesis or call it
    is inside. `peak` bounds the height of the tree it builds, and so the
    recursion of every later walk of that tree: a call, NOT, unary minus or
    subquery opens one tree level below its context, each operator of a chain
    one level below the deepest its left side reached, and an AND/OR list one
    level above its deepest item. A bare parenthesis builds no node, so text
    rendered from a tree takes as many levels as the text it was parsed from.

    A subclass supplies `take_op(ops)`, which consumes and returns the next
    token's operator if it is one of `ops`, and `too_deep()`, its syntax error
    at the last token read.
    """

    depth = 0  # tree level of the node being parsed
    peak = 0  # deepest tree level the current construct reached
    nesting = 0

    def check_depth(self) -> None:
        if self.peak > MAX_DEPTH or self.nesting > MAX_DEPTH:
            raise self.too_deep()

    def nested(self, parse: Callable[[], _Node], levels: int = 1,
               nesting: int = 1) -> _Node:
        """`parse()` a construct inside `nesting` more parentheses or calls,
        whose nodes start `levels` below the current one (a bare parenthesis
        builds none). `peak` is measured from that level, and afterwards it is
        the deepest level reached in or before the construct; `depth` and
        `nesting` are restored even when `parse` raises."""
        depth, outer_peak, outer_nesting = self.depth, self.peak, self.nesting
        self.depth = self.peak = depth + levels
        self.nesting += nesting
        self.check_depth()
        try:
            return parse()
        finally:
            self.depth, self.nesting = depth, outer_nesting
            if outer_peak > self.peak:
                self.peak = outer_peak

    def chain(self, operand: Callable[[], _Node], ops: tuple[str, ...],
              build: Callable[[str, _Node, _Node], _Node]) -> _Node:
        """`operand (op operand)*` for an op in `ops`, built left-deep."""
        def operands() -> _Node:
            node = operand()
            while (op := self.take_op(ops)) is not None:
                self.depth = self.peak = self.peak + 1
                self.check_depth()
                node = build(op, node, operand())
            return node
        return self.nested(operands, levels=0, nesting=0)

    def flat(self, item: Callable[[], _Node], ops: tuple[str, ...],
             build: Callable[[tuple[_Node, ...]], _Node]) -> _Node:
        """`item (op item)*` for an op in `ops`, as one node over all the
        items."""
        def items() -> _Node:
            found = [item()]
            while self.take_op(ops) is not None:
                found.append(item())
            if len(found) == 1:
                return found[0]
            self.peak += 1
            self.check_depth()
            return build(tuple(found))
        return self.nested(items, levels=0, nesting=0)


class _SqlParser(BoundedParser):
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def too_deep(self) -> SqlTooDeepError:
        return SqlTooDeepError(f"nesting deeper than {MAX_DEPTH} levels",
                               self.toks[self.pos - 1].pos)

    def take_op(self, ops: tuple[str, ...]) -> str | None:
        tok = self.toks[self.pos]
        op = tok.text.lower()
        if tok.kind not in ("PUNCT", "KW") or op not in ops:
            return None
        self.pos += 1
        return "union all" if op == "union" and self.eat_kw("all") else op

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "KW" and tok.text.lower() in words

    def eat_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.pos += 1
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.eat_kw(word):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {word.upper()}, got {tok.text!r}", tok.pos)

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == ch

    def eat_punct(self, ch: str) -> bool:
        if self.at_punct(ch):
            self.pos += 1
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.eat_punct(ch):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {ch!r}, got {tok.text!r}", tok.pos)

    def ident(self) -> str:
        tok = self.next()
        if tok.kind in ("IDENT", "QIDENT"):
            return tok.text
        raise SqlSyntaxError(f"expected identifier, got {tok.text!r}", tok.pos)

    # -- statements ---------------------------------------------------------

    def parse_query(self) -> SelectNode:
        return self.chain(self.parse_core, ("union", "intersect", "except"),
                          SetOp)  # type: ignore[arg-type]

    def parse_core(self) -> SelectCore:
        self.expect_kw("select")
        distinct = bool(self.eat_kw("distinct"))
        self.eat_kw("all")
        items = [self.select_item()]
        while self.eat_punct(","):
            items.append(self.select_item())
        tables: list[TableRef] = []
        joins: list[Join] = []
        if self.eat_kw("from"):
            tables.append(self.table_ref())
            while True:
                if self.eat_punct(","):
                    tables.append(self.table_ref())
                    continue
                kind = self.join_kind()
                if kind is None:
                    break
                table = self.table_ref()
                self.expect_kw("on")
                joins.append(Join(table, self.predicate(), kind))
        where = self.predicate() if self.eat_kw("where") else None
        group_by: list[SqlExpr] = []
        if self.eat_kw("group"):
            self.expect_kw("by")
            group_by.append(self.expr())
            while self.eat_punct(","):
                group_by.append(self.expr())
        having = self.predicate() if self.eat_kw("having") else None
        order_by: list[OrderItem] = []
        if self.eat_kw("order"):
            self.expect_kw("by")
            order_by.append(self.order_item())
            while self.eat_punct(","):
                order_by.append(self.order_item())
        limit, offset = self.limit_clause()
        return SelectCore(tuple(items), distinct, tuple(tables), tuple(joins), where,
                          tuple(group_by), having, tuple(order_by), limit, offset)

    def join_kind(self) -> str | None:
        if self.eat_kw("join"):
            return "inner"
        if self.eat_kw("inner"):
            self.expect_kw("join")
            return "inner"
        for kind in ("left", "right", "full"):
            if self.eat_kw(kind):
                self.eat_kw("outer")
                self.expect_kw("join")
                return kind
        if self.eat_kw("cross"):
            self.expect_kw("join")
            return "cross"
        return None

    def select_item(self) -> SelectItem:
        expr = Star() if self.eat_punct("*") else self.expr()
        alias = None
        if self.eat_kw("as"):
            alias = self.ident()
        elif self.peek().kind in ("IDENT", "QIDENT"):
            alias = self.ident()
        return SelectItem(expr, alias)

    def table_ref(self) -> TableRef:
        name = self.ident()
        alias = None
        if self.eat_kw("as"):
            alias = self.ident()
        elif self.peek().kind in ("IDENT", "QIDENT"):
            alias = self.ident()
        return TableRef(name, alias)

    def order_item(self) -> OrderItem:
        expr = self.expr()
        direction = "asc"
        if self.eat_kw("desc"):
            direction = "desc"
        else:
            self.eat_kw("asc")
        return OrderItem(expr, direction)

    def limit_clause(self) -> tuple[int | None, int]:
        if not self.eat_kw("limit"):
            return None, 0
        first = self.int_literal()
        if self.eat_punct(","):  # MySQL LIMIT offset, count
            return self.int_literal(), first
        if self.eat_kw("offset"):
            return first, self.int_literal()
        return first, 0

    def int_literal(self) -> int:
        tok = self.next()
        value = self.number(tok) if tok.kind == "NUMBER" else None
        if value is None or value.kind != "int":
            raise SqlSyntaxError(f"expected integer, got {tok.text!r}", tok.pos)
        return value.value  # type: ignore[return-value]

    def number(self, tok: _Tok) -> Scalar:
        try:
            return Scalar.number(tok.text)
        except ValueError as exc:  # a number no value holds, e.g. 1e999
            raise SqlSyntaxError(str(exc), tok.pos) from None

    # -- predicates -----------------------------------------------------------

    def predicate(self) -> Predicate:
        return self.or_pred()

    def or_pred(self) -> Predicate:
        return self.flat(self.and_pred, ("or",), Or)

    def and_pred(self) -> Predicate:
        return self.flat(self.not_pred, ("and",), And)

    def not_pred(self) -> Predicate:
        if self.eat_kw("not"):
            return Not(self.nested(self.not_pred))
        return self.pred_atom()

    def pred_atom(self) -> Predicate:
        if self.at_punct("("):
            mark = self.pos, self.peak
            self.eat_punct("(")
            if self.at_kw("select"):
                self.pos = mark[0]  # scalar subquery comparison: re-parse as expression
            else:
                try:
                    inner = self.nested(self.predicate, levels=0)
                    self.expect_punct(")")
                    return inner
                except SqlTooDeepError:
                    raise
                except SqlSyntaxError:  # a parenthesized expression, not a predicate
                    self.pos, self.peak = mark
        left = self.expr()
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Comparison(tok.text, left, self.expr())
        negated = self.eat_kw("not")
        if self.eat_kw("between"):
            lo = self.expr()
            self.expect_kw("and")
            hi = self.expr()
            return Between(left, lo, hi, negated)
        if self.eat_kw("in"):
            self.expect_punct("(")
            items = self.nested(self.in_items)
            self.expect_punct(")")
            return InList(left, items, negated)
        if self.eat_kw("like"):
            return LikePred(left, self.expr(), negated)
        if negated:
            raise SqlSyntaxError("dangling NOT", tok.pos)
        if self.eat_kw("is"):
            neg = self.eat_kw("not")
            self.expect_kw("null")
            return IsNull(left, neg)
        raise SqlSyntaxError(f"expected a comparison, got {self.peek().text!r}",
                             self.peek().pos)

    def in_items(self) -> tuple[SqlExpr, ...]:
        if self.at_kw("select"):
            return (self.nested(lambda: Subquery(self.parse_core())),)
        items = [self.expr()]
        while self.eat_punct(","):
            items.append(self.expr())
        return tuple(items)

    # -- expressions -----------------------------------------------------------

    def expr(self) -> SqlExpr:
        return self.chain(self.multiplicative, ("+", "-"), Arithmetic)

    def multiplicative(self) -> SqlExpr:
        return self.chain(self.atom, ("*", "/"), Arithmetic)

    def atom(self) -> SqlExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            return self.number(tok)
        if tok.kind == "STRING":
            self.next()
            return Scalar.of(tok.text)
        if tok.kind == "PUNCT" and tok.text == "-":
            self.next()
            inner = self.nested(self.atom)
            if isinstance(inner, Scalar) and inner.kind in ("int", "real"):
                return Scalar(-inner.value, inner.kind)  # type: ignore[operator]
            return Arithmetic("-", Scalar(0, "int"), inner)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.next()
            if self.at_kw("select"):
                inner: SqlExpr = self.nested(lambda: Subquery(self.parse_core()))
            else:
                inner = self.nested(self.expr, levels=0)
            self.expect_punct(")")
            return inner
        if tok.kind == "KW" and tok.text.lower() == "cast":
            self.next()
            self.expect_punct("(")
            arg = self.nested(self.expr)
            self.expect_kw("as")
            target = self.type_name()
            self.expect_punct(")")
            return Cast(arg, target)
        if tok.kind == "KW" and tok.text.lower() == "null":
            raise SqlSyntaxError("bare NULL literal outside IS NULL is unsupported", tok.pos)
        if tok.kind in ("IDENT", "QIDENT"):
            name = self.ident()
            if self.at_punct("("):
                return self.nested(lambda: self.func_call(name, tok.pos))
            if self.eat_punct("."):
                return Column(name, self.ident())
            return Column(None, name)
        raise SqlSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def type_name(self) -> str:
        name = self.ident()
        if self.eat_punct("("):  # e.g. VARCHAR(20)
            size = [str(self.int_literal())]
            while self.eat_punct(","):
                size.append(str(self.int_literal()))
            self.expect_punct(")")
            name += f"({','.join(size)})"
        return name

    def func_call(self, name: str, pos: int) -> SqlExpr:
        self.expect_punct("(")
        lowered = name.lower()
        distinct = bool(self.eat_kw("distinct"))
        if self.at_punct(")"):
            raise SqlSyntaxError(f"function {name} requires arguments", pos)
        args = [Star() if lowered == "count" and self.eat_punct("*") else self.expr()]
        while self.eat_punct(","):
            args.append(self.expr())
        self.expect_punct(")")
        after = self.peek()
        if after.kind == "IDENT" and after.text.lower() == "over":
            raise SqlSyntaxError("window functions are unsupported", pos)
        return Func(lowered, tuple(args), distinct)


def parse_sql(text: str, dialect: str = "sqlite") -> SqlQuery:
    """Parse one SELECT statement; raises SqlSyntaxError otherwise."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    if not text.strip():
        raise SqlSyntaxError("empty SQL text")
    parser = _SqlParser(_sql_tokens(text))
    if not parser.at_kw("select"):
        raise SqlSyntaxError("only SELECT statements are supported", parser.peek().pos)
    ast = parser.parse_query()
    parser.eat_punct(";")
    tok = parser.peek()
    if tok.kind != "END":
        raise SqlSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return SqlQuery(text=text, ast=ast, dialect=dialect)


def parse_predicate(text: str) -> Predicate:
    """Parse a standalone boolean predicate (used for compound filter texts)."""
    parser = _SqlParser(_sql_tokens(text))
    pred = parser.predicate()
    tok = parser.peek()
    if tok.kind != "END":
        raise SqlSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return pred


def canonical_predicate(pred: Predicate, d: "DatabaseInput | None" = None) -> str:
    """Canonical text of one predicate (parenthesized if not already atomic)."""
    text = _canon_pred(pred, d)
    return text if text.startswith("(") else f"({text})"


def _ident(name: str) -> str:
    return f'"{name}"' if " " in name else name


# --- rendering --------------------------------------------------------------------

def render_sql(node: SelectNode, dialect: str = "sqlite") -> str:
    """Render an AST back to SQL under a dialect (identifier quoting differs)."""
    quote = "`" if dialect == "mysql" else '"'
    return _render_node(node, quote)


def _render_node(node: SelectNode, quote: str) -> str:
    if isinstance(node, SetOp):
        return (f"{_render_node(node.left, quote)} {node.op.upper()} "
                f"{_render_core(node.right, quote)}")
    return _render_core(node, quote)


def _render_core(core: SelectCore, quote: str) -> str:
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_item(i, quote) for i in core.items))
    if core.tables:
        refs = [_render_table(t, quote) for t in core.tables]
        parts.append("FROM " + ", ".join(refs))
        for join in core.joins:
            kw = {"inner": "INNER JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN",
                  "full": "FULL JOIN", "cross": "CROSS JOIN"}[join.kind]
            parts.append(f"{kw} {_render_table(join.table, quote)} ON "
                         f"{render_predicate(join.on, quote)}")
    if core.where is not None:
        parts.append("WHERE " + render_predicate(core.where, quote))
    if core.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(e, quote) for e in core.group_by))
    if core.having is not None:
        parts.append("HAVING " + render_predicate(core.having, quote))
    if core.order_by:
        rendered = [f"{render_expr(o.expr, quote)} {o.direction.upper()}"
                    for o in core.order_by]
        parts.append("ORDER BY " + ", ".join(rendered))
    if core.limit is not None:
        parts.append(f"LIMIT {core.limit}")
        if core.offset:
            parts.append(f"OFFSET {core.offset}")
    return " ".join(parts)


def _render_item(item: SelectItem, quote: str) -> str:
    text = render_expr(item.expr, quote)
    if item.alias:
        return f"{text} AS {_q(item.alias, quote)}"
    return text


def _render_table(ref: TableRef, quote: str) -> str:
    text = _q(ref.name, quote)
    if ref.alias:
        text += f" AS {_q(ref.alias, quote)}"
    return text


_BARE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _q(name: str, quote: str) -> str:
    if name and " " not in name and _BARE_IDENT_RE.match(name) \
            and name.lower() not in KEYWORDS:
        return name
    return f"{quote}{name}{quote}"


def render_expr(expr: SqlExpr, quote: str = '"') -> str:
    if isinstance(expr, Column):
        if expr.table is None:
            return _q(expr.column, quote)
        return f"{_q(expr.table, quote)}.{_q(expr.column, quote)}"
    if isinstance(expr, Scalar):
        if expr.kind in ("int", "real"):
            return repr(expr.value)
        return "'" + str(expr.value).replace("'", "''") + "'"
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, Func):
        inner = ", ".join(render_expr(a, quote) for a in expr.args)
        if expr.distinct:
            inner = "DISTINCT " + inner
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, Cast):
        return f"CAST({render_expr(expr.arg, quote)} AS {expr.target_type.upper()})"
    if isinstance(expr, Arithmetic):
        return f"({render_expr(expr.left, quote)} {expr.op} {render_expr(expr.right, quote)})"
    if isinstance(expr, Subquery):
        return f"({_render_core(expr.core, quote)})"
    raise TypeError(f"not a SQL expression: {expr!r}")


def render_predicate(pred: Predicate, quote: str = '"') -> str:
    if isinstance(pred, Comparison):
        return f"{render_expr(pred.left, quote)} {pred.op} {render_expr(pred.right, quote)}"
    if isinstance(pred, Between):
        kw = "NOT BETWEEN" if pred.negated else "BETWEEN"
        return (f"{render_expr(pred.expr, quote)} {kw} {render_expr(pred.lo, quote)} "
                f"AND {render_expr(pred.hi, quote)}")
    if isinstance(pred, InList):
        kw = "NOT IN" if pred.negated else "IN"
        items = ", ".join(render_expr(i, quote) for i in pred.items)
        return f"{render_expr(pred.expr, quote)} {kw} ({items})"
    if isinstance(pred, LikePred):
        kw = "NOT LIKE" if pred.negated else "LIKE"
        return f"{render_expr(pred.expr, quote)} {kw} {render_expr(pred.pattern, quote)}"
    if isinstance(pred, IsNull):
        kw = "IS NOT NULL" if pred.negated else "IS NULL"
        return f"{render_expr(pred.expr, quote)} {kw}"
    if isinstance(pred, And):
        return " AND ".join(_wrap(p, quote) for p in pred.items)
    if isinstance(pred, Or):
        return "(" + " OR ".join(_wrap(p, quote) for p in pred.items) + ")"
    if isinstance(pred, Not):
        return f"NOT {_wrap(pred.item, quote)}"
    raise TypeError(f"not a predicate: {pred!r}")


def _wrap(pred: Predicate, quote: str) -> str:
    text = render_predicate(pred, quote)
    if isinstance(pred, (And,)):
        return f"({text})"
    return text


# --- canonical form ------------------------------------------------------------

def canonicalize(query: SqlQuery, d: "DatabaseInput | None" = None) -> str:
    """Dialect-independent canonical text used as the round-trip equivalence.

    Uppercased keywords, aliases resolved away, columns qualified where
    resolvable, AND/OR operands sorted, inner-join ON conditions folded into
    the WHERE conjunct set, COUNT(*) rewritten to its deterministic column
    form when schema information permits.
    """
    return _canon_node(_require_ast(query), d)


def _require_ast(query: SqlQuery) -> SelectNode:
    """The query's AST; for text that did not parse, its own parse error."""
    if query.ast is None:
        error = query._syntax_error or SqlSyntaxError(query.parse_error or "query has no AST")
        raise error.with_traceback(None)
    return query.ast


def _canon_node(node: SelectNode, d: "DatabaseInput | None") -> str:
    if isinstance(node, SetOp):
        return f"{_canon_node(node.left, d)} {node.op.upper()} {_canon_core(node.right, d)}"
    return _canon_core(node, d)


def _canon_core(core: SelectCore, d: "DatabaseInput | None") -> str:
    core = expand_select_star(normalize_core(core, d, _lenient_column(d)), d)
    conjuncts = list(flatten_and(core.where)) if core.where is not None else []
    outer_joins = []
    for join in core.joins:
        if join.kind == "inner":
            conjuncts.extend(flatten_and(join.on))
        else:
            outer_joins.append(join)
    tables = sorted(t.name for t in core.tables) + sorted(
        j.table.name for j in core.joins if j.kind == "inner")
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_canon_expr(i.expr, d) for i in core.items))
    if tables or outer_joins:
        parts.append("FROM " + ", ".join(sorted(set(tables))))
        for join in outer_joins:
            parts.append(f"{join.kind.upper()} JOIN {join.table.name} ON "
                         f"{_canon_pred(join.on, d)}")
    if conjuncts:
        rendered = sorted(_canon_pred(p, d) for p in conjuncts)
        parts.append("WHERE " + " AND ".join(rendered))
    if core.group_by:
        parts.append("GROUP BY " + ", ".join(_canon_expr(e, d) for e in core.group_by))
    if core.having is not None:
        havings = sorted(_canon_pred(p, d) for p in flatten_and(core.having))
        parts.append("HAVING " + " AND ".join(havings))
    if core.order_by:
        rendered = [f"{_canon_expr(o.expr, d)} {o.direction.upper()}" for o in core.order_by]
        parts.append("ORDER BY " + ", ".join(rendered))
    if core.limit is not None:
        parts.append(f"LIMIT {core.limit}")
        if core.offset:
            parts.append(f"OFFSET {core.offset}")
    return " ".join(parts)


def _canon_expr(expr: SqlExpr, d: "DatabaseInput | None") -> str:
    if isinstance(expr, Subquery):
        return f"({_canon_core(expr.core, d)})"
    if isinstance(expr, Func):
        inner = ", ".join(_canon_expr(a, d) for a in expr.args)
        if expr.distinct:
            inner = "DISTINCT " + inner
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, Cast):
        return f"CAST({_canon_expr(expr.arg, d)} AS {expr.target_type.upper()})"
    if isinstance(expr, Arithmetic):
        return f"({_canon_expr(expr.left, d)} {expr.op} {_canon_expr(expr.right, d)})"
    return render_expr(expr, '"')


def _canon_pred(pred: Predicate, d: "DatabaseInput | None") -> str:
    pred = _normalize_comparison(pred)
    if isinstance(pred, Comparison):
        left, right = pred.left, pred.right
        if pred.op in ("=", "!=") and isinstance(left, Column) and isinstance(right, Column) \
                and left.render() > right.render():
            left, right = right, left
        return f"{_canon_expr(left, d)} {pred.op} {_canon_expr(right, d)}"
    if isinstance(pred, Between):
        kw = "NOT BETWEEN" if pred.negated else "BETWEEN"
        return (f"{_canon_expr(pred.expr, d)} {kw} {_canon_expr(pred.lo, d)} AND "
                f"{_canon_expr(pred.hi, d)}")
    if isinstance(pred, InList):
        kw = "NOT IN" if pred.negated else "IN"
        subquery = len(pred.items) == 1 and isinstance(pred.items[0], Subquery)
        items = (_canon_expr(pred.items[0], d) if subquery
                 else ", ".join(sorted(_canon_expr(i, d) for i in pred.items)))
        wrapped = items if subquery else f"({items})"
        return f"{_canon_expr(pred.expr, d)} {kw} {wrapped}"
    if isinstance(pred, LikePred):
        kw = "NOT LIKE" if pred.negated else "LIKE"
        return f"{_canon_expr(pred.expr, d)} {kw} {_canon_expr(pred.pattern, d)}"
    if isinstance(pred, IsNull):
        kw = "IS NOT NULL" if pred.negated else "IS NULL"
        return f"{_canon_expr(pred.expr, d)} {kw}"
    if isinstance(pred, And):
        return "(" + " AND ".join(sorted(_canon_pred(p, d) for p in pred.items)) + ")"
    if isinstance(pred, Or):
        return "(" + " OR ".join(sorted(_canon_pred(p, d) for p in pred.items)) + ")"
    if isinstance(pred, Not):
        return f"NOT ({_canon_pred(pred.item, d)})"
    raise TypeError(f"not a predicate: {pred!r}")


_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _normalize_comparison(pred: Predicate) -> Predicate:
    if isinstance(pred, Comparison) and isinstance(pred.left, Scalar) \
            and not isinstance(pred.right, Scalar):
        return Comparison(_MIRROR[pred.op], pred.right, pred.left)
    return pred


def flatten_and(pred: Predicate) -> list[Predicate]:
    if isinstance(pred, And):
        out: list[Predicate] = []
        for item in pred.items:
            out.extend(flatten_and(item))
        return out
    return [pred]


# --- structural rewrites (shared with the converter) -----------------------------

# Qualifies one column, its table alias already resolved, against the names
# of its core's FROM and JOIN tables; rejects one with a SqlStepsError.
ColumnResolver = Callable[[Column, list[str]], Column]


def normalize_core(core: SelectCore, d: "DatabaseInput | None" = None,
                   column: ColumnResolver | None = None,
                   raise_at_count: bool = False) -> SelectCore:
    """The core rebuilt once, clause by clause, with its aliases resolved.

    Table aliases become table names, and in GROUP BY, HAVING and ORDER BY a
    bare column that names a select item's alias becomes that item's
    expression. Given a `column` resolver, every column then goes through it,
    and COUNT(*) becomes COUNT(target): the first column of the resolved GROUP
    BY, else the primary key of the only table; it stays COUNT(*) when
    neither exists. Clauses are rebuilt in order (items, joins, where, group
    by, having, order by), so a resolver's error is raised at the first
    column it rejects. A rejected target leaves COUNT(*) as it is and GROUP BY
    raises the error in its turn, or with `raise_at_count` the first COUNT(*)
    raises it. A subquery's core is never entered.
    """
    tables = [t.name for t in core.tables] + [j.table.name for j in core.joins]
    table_alias = {t.alias: t.name for t in core.tables if t.alias}
    table_alias.update({j.table.alias: j.table.name for j in core.joins if j.table.alias})
    item_alias = {i.alias: i.expr for i in core.items if i.alias}
    target: list[Column | None] = []  # found at the first COUNT(*)

    def qualify(col: Column) -> Column:
        if col.table is not None and col.table in table_alias:
            col = Column(table_alias[col.table], col.column)
        return col if column is None else column(col, tables)

    def count_target() -> Column | None:
        for expr in core.group_by:
            if isinstance(expr, Column) and expr.table is None and expr.column in item_alias:
                expr = item_alias[expr.column]
            if isinstance(expr, Column):
                try:
                    return qualify(expr)
                except SqlStepsError:
                    if raise_at_count:
                        raise
                    return None
        if d is not None and len(set(tables)) == 1:
            pk = d.primary_key(tables[0])
            if pk is not None:
                return Column(tables[0], pk)
        return None

    def plain(node: SqlExpr) -> SqlExpr | None:
        if isinstance(node, Column):
            return qualify(node)
        if isinstance(node, Func) and column is not None and node.name == "count" \
                and not node.distinct and len(node.args) == 1 and isinstance(node.args[0], Star):
            if not target:
                target.append(count_target())
            return node if target[0] is None else Func("count", (target[0],), False)
        return None

    def aliased(node: SqlExpr) -> SqlExpr | None:
        if isinstance(node, Column) and node.table is None and node.column in item_alias:
            return map_expr(item_alias[node.column], plain)
        return plain(node)

    def fix_pred(pred: Predicate, fn: Callable[[SqlExpr], SqlExpr | None]) -> Predicate:
        return _map_pred(pred, lambda e: map_expr(e, fn))

    return SelectCore(
        items=tuple(SelectItem(map_expr(i.expr, plain)) for i in core.items),
        distinct=core.distinct,
        tables=tuple(TableRef(t.name) for t in core.tables),
        joins=tuple(Join(TableRef(j.table.name), fix_pred(j.on, plain), j.kind)
                    for j in core.joins),
        where=fix_pred(core.where, plain) if core.where is not None else None,
        group_by=tuple(map_expr(e, aliased) for e in core.group_by),
        having=fix_pred(core.having, aliased) if core.having is not None else None,
        order_by=tuple(OrderItem(map_expr(o.expr, aliased), o.direction) for o in core.order_by),
        limit=core.limit,
        offset=core.offset,
    )


def _lenient_column(d: "DatabaseInput | None") -> ColumnResolver:
    """The resolver of the canonical form: a bare column gets the only table,
    else the one table of `d` that has it; otherwise it stays bare."""
    def column(col: Column, tables: list[str]) -> Column:
        if col.table is not None:
            return col
        if len(tables) == 1:
            return Column(tables[0], col.column)
        if d is not None:
            owners = [t for t in tables if d.has_column(t, col.column)]
            if len(owners) == 1:
                return Column(owners[0], col.column)
        return col
    return column


def expand_select_star(core: SelectCore, d: "DatabaseInput | None") -> SelectCore:
    """Expand a bare `SELECT *` item to the source tables' declared columns.

    Requires schema information; without it (or for unknown tables) the star
    is kept verbatim.
    """
    if d is None or not any(isinstance(i.expr, Star) for i in core.items):
        return core
    tables = [t.name for t in core.tables] + [j.table.name for j in core.joins]
    if not tables or any(not d.has_table(t) for t in tables):
        return core
    items: list[SelectItem] = []
    for item in core.items:
        if isinstance(item.expr, Star):
            for table in tables:
                tbl = d.table(table)
                assert tbl is not None
                items.extend(SelectItem(Column(table, c.name)) for c in tbl.columns)
        else:
            items.append(item)
    return replace(core, items=tuple(items))


def _map_pred(pred: Predicate, fix) -> Predicate:
    if isinstance(pred, Comparison):
        return Comparison(pred.op, fix(pred.left), fix(pred.right))
    if isinstance(pred, Between):
        return Between(fix(pred.expr), fix(pred.lo), fix(pred.hi), pred.negated)
    if isinstance(pred, InList):
        return InList(fix(pred.expr), tuple(fix(i) for i in pred.items), pred.negated)
    if isinstance(pred, LikePred):
        return LikePred(fix(pred.expr), fix(pred.pattern), pred.negated)
    if isinstance(pred, IsNull):
        return IsNull(fix(pred.expr), pred.negated)
    if isinstance(pred, And):
        return And(tuple(_map_pred(p, fix) for p in pred.items))
    if isinstance(pred, Or):
        return Or(tuple(_map_pred(p, fix) for p in pred.items))
    if isinstance(pred, Not):
        return Not(_map_pred(pred.item, fix))
    raise TypeError(f"not a predicate: {pred!r}")
