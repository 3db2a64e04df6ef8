"""SQL AST, parser, renderer, and canonical form for the convertible subset.

The parser accepts a single SELECT statement (optionally a set-operation
chain) in SQLite, MySQL, or PostgreSQL surface syntax. Constructs outside the
convertible subset (window functions, CTEs, correlated subqueries) are parse
errors or are rejected later by the converter, never silently mangled.
"""

from __future__ import annotations

import re
from dataclasses import field, replace
from operator import is_
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar, Union

from .actions import (MAX_DEPTH, SQL_AGGREGATES, Aggregate, And, Arithmetic, Between, Cast,
                      Comparison, Expr, Func, InList, IsNull, LikePred, Not, Or, Predicate,
                      QualifiedColumn, Scalar, Star, Subquery, Substr, expr_children, frozen,
                      map_expr, map_tuple, pred_exprs, record)
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

_Node = TypeVar("_Node")


# --- expression nodes --------------------------------------------------------

@frozen
class Column:
    table: str | None
    column: str

    def render(self) -> str:
        return _column_text(self)


# Scalar, Star, Cast, Arithmetic, Func and Subquery are defined next to the
# trajectory's nodes, so that `actions.expr_children` / `map_expr` walk both
# trees, and so are the predicate nodes, which a compound filter condition
# holds too.
SqlExpr = Union[Column, Scalar, Star, Func, Cast, Arithmetic, Subquery]


# --- statement nodes ----------------------------------------------------------

@frozen
class SelectItem:
    expr: SqlExpr
    alias: str | None = None


@frozen
class TableRef:
    name: str
    alias: str | None = None


@frozen
class Join:
    table: TableRef
    on: Predicate
    kind: str = "inner"  # inner | left | right | full | cross


@frozen
class OrderItem:
    expr: SqlExpr
    direction: str = "asc"


@frozen
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


@frozen
class SetOp:
    op: str  # union | union all | intersect | except
    left: "SelectNode"
    right: SelectCore


SelectNode = Union[SelectCore, SetOp]


@record()
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

# One token of the SQL or the trajectory grammar, a plain tuple (the cheapest
# value to build) read by these indexes. `key` is what the parser's cursor tests:
# a keyword lower-cased, a symbol as written, and None for any other token.
Token = tuple[str, str, int, Union[str, None]]
KIND, TEXT, POS, KEY = range(4)


# Whitespace, then one alternative per token class, tried in order. A word
# starts with no decimal digit, so that no number is read as one; a number is
# of ASCII digits, as SQLite reads one, so any other decimal digit (`١`)
# starts no token and is an unexpected character. A string or
# a quoted identifier closes at a quote that is not doubled, so an
# unterminated one falls through to BAD at its opening quote. BAD and END
# always match, so whitespace is never scanned twice.
_SQL_TOKEN_RE = re.compile(r"""
    \s*
    (?: (?P<WORD>[^\W\d]\w*)
      | (?P<NUMBER>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)
      | (?P<COMMENT>--[^\n]*)
      | (?P<PUNCT>[(),.*+\-/;])
      | (?P<OP><>|<=|>=|!=|=|<|>|\|\|)
      | (?P<STRING>'[^']*(?:''[^']*)*'(?!'))
      | (?P<QIDENT>"[^"]*(?:""[^"]*)*"(?!")|`[^`]*(?:``[^`]*)*`(?!`)|\[[^\]]*\])
      | (?P<BAD>.)
      | (?P<END>\Z))
""", re.VERBOSE | re.DOTALL)


def _sql_tokens(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _SQL_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, pos = m[kind], m.start(kind)
        key = None
        # a word may still start with a digit that is no decimal digit (e.g.
        # `²`), an unexpected character
        if kind == "WORD" and (tok[0].isalpha() or tok[0] == "_"):
            lowered = tok.lower()
            kind, key = ("KW", lowered) if lowered in KEYWORDS else ("IDENT", None)
        elif kind == "PUNCT" or kind == "OP":
            key = tok = "!=" if tok == "<>" else tok
        elif kind == "COMMENT":
            continue
        elif kind == "END":
            break
        elif kind == "STRING":
            tok = tok[1:-1].replace("''", "'")
        elif kind == "QIDENT":
            quote = tok[0]
            tok = tok[1:-1] if quote == "[" else tok[1:-1].replace(quote + quote, quote)
        elif kind == "WORD" or kind == "BAD":
            if tok == "'":
                raise SqlSyntaxError("unterminated string literal", pos)
            if tok in "\"`[":
                raise SqlSyntaxError("unterminated quoted identifier", pos)
            raise SqlSyntaxError(f"unexpected character {tok[0]!r}", pos)
        toks.append((kind, tok, pos, key))
    toks.append(("END", "", len(text), None))
    return toks


# --- parser ---------------------------------------------------------------------

# A binary level: its operators, the node it builds, whether it is a list (one node
# over all items, as AND / OR) or a left-deep chain (`build(op, left, right)` at each
# operator), and its and every tighter level's operators. Loosest level first.
Level = tuple[tuple[str, ...], Callable[..., Any], bool, frozenset[str]]


def binary_levels(*levels: tuple[tuple[str, ...], Callable[..., Any], bool]) -> tuple[Level, ...]:
    """A grammar's levels, loosest first, each given its and the tighter levels' operators."""
    return tuple((ops, build, is_list, frozenset(op for tighter in levels[i:] for op in tighter[0]))
                 for i, (ops, build, is_list) in enumerate(levels))


ARITHMETIC_LEVELS = binary_levels((("+", "-"), Arithmetic, False), (("*", "/"), Arithmetic, False))
_NAMES = ("IDENT", "QIDENT")
_SET_OP_LEVELS = binary_levels((("union", "intersect", "except"), SetOp, False))
_PREDICATE_LEVELS = binary_levels((("or",), Or, True), (("and",), And, True))


class BoundedParser:
    """A token cursor, and a recursive-descent parse held to MAX_DEPTH levels,
    counted twice; the SQL and the trajectory parser share both.

    The cursor reads `toks`, which ends in an END token, from `pos`: `peek`
    looks at the next token, `at(key)` / `eat(key)` test and consume it by its
    `key`, and `take_op(ops)` consumes it and returns its key if that is one
    of `ops`. None of them moves past END.

    `nesting` bounds the parser's own recursion: every parenthesis or call it
    is inside. `peak` bounds the height of the tree it builds, and so the
    recursion of every later walk of that tree. A call, NOT, unary minus or
    subquery opens one tree level below its context; an operator node sits
    one level above the higher of its two sides, and an AND/OR list one level
    above its highest item. A bare parenthesis builds no node, so text
    rendered from a tree takes as many levels as the text it was parsed from.

    The counters are plain integers. `nested` and `binary` keep the outer
    values in locals and restore them when the construct returns, not when
    it raises: a parser that recovers from a syntax error restores `pos`,
    `depth`, `peak` and `nesting` itself. A subclass supplies `too_deep()`,
    its syntax error at the last token read.
    """

    depth = 0  # tree level of the node being parsed
    peak = 0  # deepest tree level the current construct reached
    nesting = 0

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, key: str) -> bool:
        return self.toks[self.pos][KEY] == key

    def eat(self, key: str) -> bool:
        if self.toks[self.pos][KEY] == key:
            self.pos += 1
            return True
        return False

    def take_op(self, ops: tuple[str, ...]) -> str | None:
        key = self.toks[self.pos][KEY]
        if key in ops:
            self.pos += 1
            return key
        return None

    def listed(self, parse: Callable[[], _Node]) -> list[_Node]:
        """`parse()` items separated by commas."""
        items = [parse()]
        while self.eat(","):
            items.append(parse())
        return items

    def check_depth(self) -> None:
        if self.peak > MAX_DEPTH or self.nesting > MAX_DEPTH:
            raise self.too_deep()

    def nested(self, parse: Callable[..., _Node], *args: object, levels: int = 1,
               nesting: int = 1) -> _Node:
        """`parse(*args)` a construct inside `nesting` more parentheses or
        calls, whose nodes start `levels` below the current one (a bare
        parenthesis builds none). `peak` is measured from that level, and
        afterwards it is the deepest level reached in or before the
        construct."""
        depth, peak, outer_nesting = self.depth, self.peak, self.nesting
        self.depth = self.peak = depth + levels
        self.nesting = outer_nesting + nesting
        self.check_depth()
        node = parse(*args)
        self.depth, self.nesting = depth, outer_nesting
        if peak > self.peak:
            self.peak = peak
        return node

    def binary(self, levels: tuple[Level, ...], operand: Callable[[], _Node],
               first: int = 0) -> _Node:
        """The binary levels `levels[first:]`: an operand and any operators after it."""
        depth, peak = self.depth, self.peak
        self.peak = depth
        node = operand()
        if self.toks[self.pos][KEY] in levels[first][3]:
            node = self._operators(levels, operand, first, node)
        if peak > self.peak:
            self.peak = peak
        return node

    def _operators(self, levels: tuple[Level, ...], operand: Callable[[], _Node], level: int,
                   node: _Node) -> _Node:
        """The operators of `levels[level]` after its first operand `node`, once the
        tighter levels took theirs. An operator node sits one level above the higher of
        its sides: at each operator the left side moves one level down, where the bound
        is checked. A list level builds one node over all its items."""
        ops, build, is_list, _ = levels[level]
        tighter = level + 1 < len(levels)
        if tighter and self.toks[self.pos][KEY] in levels[level + 1][3]:
            node = self._operators(levels, operand, level + 1, node)
        depth = self.depth
        items = None  # a list's items, once it has an operator
        while (op := self.take_op(ops)) is not None:
            if items is None:  # a new node over the left side
                self.peak += 1
                self.check_depth()
                self.depth = depth + 1
            right = self.binary(levels, operand, level + 1) if tighter else operand()
            if not is_list:
                node = build(op, node, right)
            elif items is None:
                items = [node, right]
            else:
                items.append(right)
        if items is not None:
            node = build(tuple(items))
        self.depth = depth
        return node


# The parser's leaves whose fields are all strings or None: one node per
# exact field values, shared by every parse, so that a name written many
# times is kept once, and its strings with it. A literal is never shared:
# `Scalar(-0.0)` and `Scalar(0.0)` are equal but render differently. A table
# that outgrows LEAF_BOUND entries is emptied, so once no parse is running,
# each holds at most that many.
LEAF_BOUND = 2048
_COLUMNS: dict[tuple[str | None, str], Column] = {}
_TABLE_REFS: dict[tuple[str, str | None], TableRef] = {}
_Leaf = TypeVar("_Leaf", Column, TableRef)


def _leaf(leaves: dict[tuple[Any, Any], _Leaf], build: Callable[[Any, Any], _Leaf],
          first: str | None, second: str | None) -> _Leaf:
    """The shared node `build(first, second)`."""
    key = (first, second)
    node = leaves.get(key)
    if node is None:
        node = leaves.setdefault(key, build(first, second))
        if len(leaves) > LEAF_BOUND:
            leaves.clear()
    return node


def column(table: str | None, name: str) -> Column:
    """The shared `Column(table, name)`, the node the parser builds for it."""
    return _leaf(_COLUMNS, Column, table, name)


class _SqlParser(BoundedParser):
    def too_deep(self) -> SqlTooDeepError:
        return SqlTooDeepError(f"nesting deeper than {MAX_DEPTH} levels",
                               self.toks[self.pos - 1][POS])

    def take_op(self, ops: tuple[str, ...]) -> str | None:
        op = super().take_op(ops)
        return "union all" if op == "union" and self.eat("all") else op

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok[KIND] != "END":
            self.pos += 1
        return tok

    def expect(self, key: str) -> None:
        if not self.eat(key):
            tok = self.peek()
            want = key.upper() if key.isalpha() else repr(key)
            raise SqlSyntaxError(f"expected {want}, got {tok[TEXT]!r}", tok[POS])

    def ident(self) -> str:
        tok = self.toks[self.pos]
        if tok[KIND] in _NAMES:
            self.pos += 1
            return tok[TEXT]
        raise SqlSyntaxError(f"expected identifier, got {tok[TEXT]!r}", tok[POS])

    # -- statements ---------------------------------------------------------

    def parse_query(self) -> SelectNode:
        return self.binary(_SET_OP_LEVELS, self.parse_core)

    def parse_core(self) -> SelectCore:
        self.expect("select")
        distinct = self.eat("distinct")
        self.eat("all")
        items = self.listed(self.select_item)
        tables: list[TableRef] = []
        joins: list[Join] = []
        if self.eat("from"):
            tables.append(self.table_ref())
            while True:
                if self.eat(","):
                    tables.append(self.table_ref())
                    continue
                kind = self.join_kind()
                if kind is None:
                    break
                table = self.table_ref()
                self.expect("on")
                joins.append(Join(table, self.predicate(), kind))
        where = self.predicate() if self.eat("where") else None
        group_by: list[SqlExpr] = []
        if self.eat("group"):
            self.expect("by")
            group_by = self.listed(self.expr)
        having = self.predicate() if self.eat("having") else None
        order_by: list[OrderItem] = []
        if self.eat("order"):
            self.expect("by")
            order_by = self.listed(self.order_item)
        limit, offset = self.limit_clause()
        return SelectCore(tuple(items), distinct, tuple(tables), tuple(joins), where,
                          tuple(group_by), having, tuple(order_by), limit, offset)

    def join_kind(self) -> str | None:
        kind = self.toks[self.pos][KEY]
        if kind not in ("join", "inner", "left", "right", "full", "cross"):
            return None
        self.pos += 1
        if kind == "join":
            return "inner"
        if kind in ("left", "right", "full"):
            self.eat("outer")
        self.expect("join")
        return kind

    def select_item(self) -> SelectItem:
        expr = Star() if self.eat("*") else self.expr()
        return SelectItem(expr, self.alias())

    def table_ref(self) -> TableRef:
        return _leaf(_TABLE_REFS, TableRef, self.ident(), self.alias())

    def alias(self) -> str | None:
        if self.eat("as") or self.toks[self.pos][KIND] in _NAMES:
            return self.ident()
        return None

    def order_item(self) -> OrderItem:
        expr = self.expr()
        if self.eat("desc"):
            return OrderItem(expr, "desc")
        self.eat("asc")
        return OrderItem(expr)

    def limit_clause(self) -> tuple[int | None, int]:
        if not self.eat("limit"):
            return None, 0
        first = self.int_literal()
        if self.eat(","):  # MySQL LIMIT offset, count
            return self.int_literal(), first
        if self.eat("offset"):
            return first, self.int_literal()
        return first, 0

    def int_literal(self) -> int:
        tok = self.next()
        value = self.number(tok) if tok[KIND] == "NUMBER" else None
        if value is None or value.kind != "int":
            raise SqlSyntaxError(f"expected integer, got {tok[TEXT]!r}", tok[POS])
        return value.value  # type: ignore[return-value]

    def number(self, tok: Token) -> Scalar:
        try:
            return Scalar.number(tok[TEXT])
        except ValueError as exc:  # a number no value holds, e.g. 1e999
            raise SqlSyntaxError(str(exc), tok[POS]) from None

    # -- predicates -----------------------------------------------------------

    def predicate(self) -> Predicate:
        return self.binary(_PREDICATE_LEVELS, self.not_pred)

    def not_pred(self) -> Predicate:
        if self.eat("not"):
            return Not(self.nested(self.not_pred))
        return self.pred_atom()

    def pred_atom(self) -> Predicate:
        if self.at("("):
            mark = self.pos, self.depth, self.peak, self.nesting
            self.pos += 1
            # `(SELECT` starts a scalar subquery comparison: re-parse as expression
            if not self.at("select"):
                try:
                    inner = self.nested(self.predicate, levels=0)
                    self.expect(")")
                    return inner
                except SqlTooDeepError:
                    raise
                except SqlSyntaxError:  # a parenthesized expression, not a predicate
                    pass
            self.pos, self.depth, self.peak, self.nesting = mark
        left = self.expr()
        tok = self.peek()
        if tok[KEY] in ("=", "!=", "<", "<=", ">", ">="):
            self.pos += 1
            return Comparison(tok[KEY], left, self.expr())
        negated = self.eat("not")
        if self.eat("between"):
            lo = self.expr()
            self.expect("and")
            hi = self.expr()
            return Between(left, lo, hi, negated)
        if self.eat("in"):
            self.expect("(")
            items = self.nested(self.in_items)
            self.expect(")")
            return InList(left, items, negated)
        if self.eat("like"):
            return LikePred(left, self.expr(), negated)
        if negated:
            raise SqlSyntaxError("dangling NOT", tok[POS])
        if self.eat("is"):
            neg = self.eat("not")
            self.expect("null")
            return IsNull(left, neg)
        raise SqlSyntaxError(f"expected a comparison, got {self.peek()[TEXT]!r}",
                             self.peek()[POS])

    def in_items(self) -> tuple[SqlExpr, ...]:
        if self.at("select"):
            return (Subquery(self.nested(self.parse_core)),)
        return tuple(self.listed(self.expr))

    # -- expressions -----------------------------------------------------------

    def expr(self) -> SqlExpr:
        return self.binary(ARITHMETIC_LEVELS, self.atom)

    def atom(self) -> SqlExpr:
        tok = self.toks[self.pos]
        if tok[KIND] in _NAMES:
            self.pos += 1
            key = self.toks[self.pos][KEY]
            if key == "(":
                return self.nested(self.func_call, tok[TEXT], tok[POS])
            if key == ".":
                self.pos += 1
                return column(tok[TEXT], self.ident())
            return column(None, tok[TEXT])
        if tok[KIND] == "NUMBER":
            self.next()
            return self.number(tok)
        if tok[KIND] == "STRING":
            self.next()
            return Scalar.of(tok[TEXT])
        if tok[KEY] == "-":
            self.next()
            inner = self.nested(self.atom)
            if isinstance(inner, Scalar) and inner.kind in ("int", "real"):
                return Scalar(-inner.value, inner.kind)  # type: ignore[operator]
            return Arithmetic("-", Scalar(0, "int"), inner)
        if tok[KEY] == "(":
            self.next()
            if self.at("select"):
                inner: SqlExpr = Subquery(self.nested(self.parse_core))
            else:
                inner = self.nested(self.expr, levels=0)
            self.expect(")")
            return inner
        if tok[KEY] == "cast":
            self.next()
            self.expect("(")
            arg = self.nested(self.expr)
            self.expect("as")
            target = self.type_name()
            self.expect(")")
            return Cast(arg, target)
        if tok[KEY] == "null":
            raise SqlSyntaxError("bare NULL literal outside IS NULL is unsupported", tok[POS])
        raise SqlSyntaxError(f"unexpected token {tok[TEXT]!r}", tok[POS])

    def type_name(self) -> str:
        """A bare word, with integer sizes if any, e.g. VARCHAR(20)."""
        tok = self.next()
        if tok[KIND] != "IDENT":
            raise SqlSyntaxError(f"expected a type name, got {tok[TEXT]!r}", tok[POS])
        if not self.eat("("):
            return tok[TEXT]
        sizes = self.listed(self.int_literal)
        self.expect(")")
        return f"{tok[TEXT]}({','.join(map(str, sizes))})"

    def func_call(self, name: str, pos: int) -> SqlExpr:
        self.expect("(")
        lowered = name.lower()
        distinct = self.eat("distinct")
        if self.at(")"):
            raise SqlSyntaxError(f"function {name} requires arguments", pos)
        if lowered == "count" and self.eat("*"):
            args = [Star(), *(self.listed(self.expr) if self.eat(",") else ())]
        else:
            args = self.listed(self.expr)
        self.expect(")")
        after = self.peek()
        if after[KIND] == "IDENT" and after[TEXT].lower() == "over":
            raise SqlSyntaxError("window functions are unsupported", pos)
        return Func(lowered, tuple(args), distinct)


def parse_sql(text: str, dialect: str = "sqlite") -> SqlQuery:
    """Parse one SELECT statement; raises SqlSyntaxError otherwise."""
    if dialect not in DIALECTS:
        raise SqlStepsError(f"unknown dialect {dialect!r}")
    if not text.strip():
        raise SqlSyntaxError("empty SQL text")
    parser = _SqlParser(_sql_tokens(text))
    if not parser.at("select"):
        raise SqlSyntaxError("only SELECT statements are supported", parser.peek()[POS])
    ast = parser.parse_query()
    parser.eat(";")
    tok = parser.peek()
    if tok[KIND] != "END":
        raise SqlSyntaxError(f"trailing input {tok[TEXT]!r}", tok[POS])
    return SqlQuery(text=text, ast=ast, dialect=dialect)


def parse_predicate(text: str) -> Predicate:
    """Parse the text of a compound filter condition, one predicate. The
    parenthesis it opens with, which marks it as a compound and which
    `trajectory.render_filter` adds where the SQL has none, is no level."""
    parser = _SqlParser(_sql_tokens(text))
    parser.nesting = -1
    pred = parser.predicate()
    tok = parser.peek()
    if tok[KIND] != "END":
        raise SqlSyntaxError(f"trailing input {tok[TEXT]!r}", tok[POS])
    return pred


def _ident(name: str) -> str:
    return f'"{name}"' if " " in name else name


def _column_text(col: Column | QualifiedColumn) -> str:
    if col.table is None:
        return _ident(col.column)
    return f"{_ident(col.table)}.{_ident(col.column)}"


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
    parts.append(", ".join([_render_item(i, quote) for i in core.items]))
    if core.tables:
        refs = [_render_table(t, quote) for t in core.tables]
        parts.append("FROM " + ", ".join(refs))
        for join in core.joins:
            parts.append(f"{join.kind.upper()} JOIN {_render_table(join.table, quote)} ON "
                         f"{_wrap(join.on, quote)}")
    if core.where is not None:
        parts.append("WHERE " + render_predicate(core.where, quote))
    if core.group_by:
        parts.append("GROUP BY " + ", ".join([render_expr(e, quote) for e in core.group_by]))
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


def _q(name: str, quote: str) -> str:
    # for ASCII text, `isidentifier` accepts exactly `[A-Za-z_][A-Za-z0-9_]*`
    if name.isascii() and name.isidentifier() and name.lower() not in KEYWORDS:
        return name
    return quote + name.replace(quote, quote + quote) + quote


def render_expr(expr: SqlExpr | Expr, quote: str = '"') -> str:
    """SQL text of an expression of a SQL tree or of a compound condition,
    whose columns, aggregates and substrs are trajectory nodes."""
    if isinstance(expr, (Column, QualifiedColumn)):
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
        inner = ", ".join([render_expr(a, quote) for a in expr.args])
        if expr.distinct:
            inner = "DISTINCT " + inner
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, Cast):
        return f"CAST({render_expr(expr.arg, quote)} AS {expr.target_type.upper()})"
    if isinstance(expr, Arithmetic):
        return f"({render_expr(expr.left, quote)} {expr.op} {render_expr(expr.right, quote)})"
    if isinstance(expr, Subquery):
        return f"({_render_core(expr.core, quote)})"
    if isinstance(expr, Aggregate):
        return f"{SQL_AGGREGATES[expr.kind].upper()}({render_expr(expr.arg, quote)})"
    if isinstance(expr, Substr):
        bounds = (expr.start,) if expr.length is None else (expr.start, expr.length)
        return f"SUBSTR({', '.join([render_expr(expr.arg, quote), *map(repr, bounds)])})"
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
        items = ", ".join([render_expr(i, quote) for i in pred.items])
        if len(pred.items) != 1 or not isinstance(pred.items[0], Subquery):
            items = f"({items})"  # a lone subquery renders its own parentheses
        return f"{render_expr(pred.expr, quote)} {kw} {items}"
    if isinstance(pred, LikePred):
        kw = "NOT LIKE" if pred.negated else "LIKE"
        return f"{render_expr(pred.expr, quote)} {kw} {render_expr(pred.pattern, quote)}"
    if isinstance(pred, IsNull):
        kw = "IS NOT NULL" if pred.negated else "IS NULL"
        return f"{render_expr(pred.expr, quote)} {kw}"
    if isinstance(pred, And):
        return " AND ".join([_wrap(p, quote) for p in pred.items])
    if isinstance(pred, Or):
        return "(" + " OR ".join([_wrap(p, quote) for p in pred.items]) + ")"
    if isinstance(pred, Not):
        return f"NOT ({_wrap(pred.item, quote)})"
    raise TypeError(f"not a predicate: {pred!r}")


def _wrap(pred: Predicate, quote: str = '"') -> str:
    text = render_predicate(pred, quote)
    if isinstance(pred, (And,)):
        return f"({text})"
    return text


# --- canonical form ------------------------------------------------------------

def canonicalize(query: SqlQuery, d: "DatabaseInput | None" = None) -> str:
    """Dialect-independent canonical text used as the round-trip equivalence:
    the canonical tree of the query, rendered as SQL. Each core, subquery
    cores included, is normalized (`normalize_core`, then `SELECT *`
    expanded), its inner joins folded into the WHERE conjuncts, its tables
    sorted and kept once, and its conjuncts made canonical
    (`canonical_predicate`) and sorted by their text."""
    return _render_node(_canonical_node(_require_ast(query), d), '"')


def _require_ast(query: SqlQuery) -> SelectNode:
    """The query's AST; for text that did not parse, its own parse error."""
    if query.ast is None:
        error = query._syntax_error or SqlSyntaxError(query.parse_error or "query has no AST")
        raise error.with_traceback(None)
    return query.ast


def _canonical_node(node: SelectNode, d: "DatabaseInput | None") -> SelectNode:
    if isinstance(node, SetOp):
        return SetOp(node.op, _canonical_node(node.left, d), _canonical_core(node.right, d))
    return _canonical_core(node, d)


def _canonical_core(core: SelectCore, d: "DatabaseInput | None") -> SelectCore:
    core = expand_select_star(normalize_core(core, d, _lenient_column(d)), d)
    tables = {t.name: t for t in core.tables}
    conjuncts = flatten_and(core.where) if core.where is not None else []
    outer_joins = []
    for join in core.joins:
        if join.kind == "inner":
            tables.setdefault(join.table.name, join.table)
            conjuncts.extend(flatten_and(join.on))
        else:
            outer_joins.append(Join(join.table, canonical_predicate(join.on, d), join.kind))
    operand = _canonical_operand(d)
    return SelectCore(map_tuple(core.items, _map_item, operand), core.distinct,
                      tuple([tables[name] for name in sorted(tables)]), tuple(outer_joins),
                      _conjunction(conjuncts, d), map_tuple(core.group_by, map_expr, operand),
                      core.having and _conjunction(flatten_and(core.having), d),
                      map_tuple(core.order_by, _map_order, operand), core.limit, core.offset)


def _canonical_operand(d: "DatabaseInput | None") -> Callable[[SqlExpr], SqlExpr | None]:
    """The `map_expr` function of canonical operands: each subquery's core is
    canonical, each cast's type upper-cased, as the renderer writes it, and
    `SUBSTRING` named `substr`, as `decompose` and `revert` name it."""
    def operand(expr: SqlExpr) -> SqlExpr | None:
        kind = type(expr)
        if kind is Column or kind is Scalar:  # a leaf, kept
            return expr
        if kind is Subquery:
            return Subquery(_canonical_core(expr.core, d))
        if kind is Func and expr.name == "substring":
            return Func("substr", map_tuple(expr.args, map_expr, operand), expr.distinct)
        if kind is Cast and not expr.target_type.isupper():
            return Cast(map_expr(expr.arg, operand), expr.target_type.upper())
        return None
    return operand


def _conjunction(preds: list[Predicate], d: "DatabaseInput | None") -> Predicate | None:
    """The canonical AND of `preds`."""
    if len(preds) < 2:
        return canonical_predicate(preds[0], d) if preds else None
    return canonical_predicate(And(tuple(preds)), d)


def canonical_predicate(pred: Predicate, d: "DatabaseInput | None" = None) -> Predicate:
    """The canonical tree of one predicate: AND/OR operands and IN items
    sorted by their text, a comparison with a literal on the left mirrored,
    the two columns of an equality or inequality in the order of their text,
    and its operands canonical (`_canonical_operand`). A compound filter
    condition holds the canonical tree of its predicate."""
    operand = _canonical_operand(d)

    def canonical(pred: Predicate) -> Predicate:
        if isinstance(pred, (And, Or)):
            return type(pred)(tuple(sorted(map(canonical, pred.items), key=_wrap)))
        if isinstance(pred, Not):
            return Not(canonical(pred.item))
        pred = _normalize_comparison(map_expr(pred, operand))
        if isinstance(pred, Comparison):
            left, right = pred.left, pred.right
            if pred.op in ("=", "!=") and isinstance(left, (Column, QualifiedColumn)) \
                    and isinstance(right, (Column, QualifiedColumn)) \
                    and _column_text(left) > _column_text(right):
                return Comparison(pred.op, right, left)
        elif isinstance(pred, InList):
            return InList(pred.expr, tuple(sorted(pred.items, key=render_expr)), pred.negated)
        return pred
    return canonical(pred)


_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _normalize_comparison(pred: Predicate) -> Predicate:
    if isinstance(pred, Comparison) and isinstance(pred.left, Scalar) \
            and not isinstance(pred.right, Scalar):
        return Comparison(_MIRROR[pred.op], pred.right, pred.left)
    return pred


def flatten_and(pred: Predicate) -> list[Predicate]:
    if isinstance(pred, And):
        return [conjunct for item in pred.items for conjunct in flatten_and(item)]
    return [pred]


# --- structural rewrites (shared with the converter) -----------------------------

# Qualifies one column, its table alias already resolved, against the names
# of its core's FROM and JOIN tables; rejects one with a SqlStepsError.
ColumnResolver = Callable[[Column, list[str]], Column]


def normalize_core(core: SelectCore, d: "DatabaseInput | None" = None,
                   column: ColumnResolver | None = None) -> SelectCore:
    """The core with its aliases resolved, copy-on-write: what nothing
    changes is returned itself.

    Table aliases become table names, and in GROUP BY, HAVING and ORDER BY a
    bare column that names a select item's alias becomes that item's
    expression. Given a `column` resolver, every column then goes through it,
    and COUNT(*) becomes COUNT(target): the first column of the resolved GROUP
    BY, else the primary key of the only table; it stays COUNT(*) when
    neither exists. Clauses are visited in order (items, joins, where, group
    by, having, order by), so a resolver's error is raised at the first
    column it rejects. A rejected target leaves COUNT(*) as it is and GROUP BY
    raises the error in its turn. A subquery's core is never entered.

    A core with no alias is first checked without a rebuild: with no
    resolver, or when the resolver returns each of its columns itself and it
    has no COUNT(*), it is returned as it is.
    """
    if not _has_alias(core) and (column is None or _resolves_to_itself(core, column)):
        return core
    return _rebuild_core(core, d, column)


def _has_alias(core: SelectCore) -> bool:
    for item in core.items:
        if item.alias is not None:
            return True
    for ref in core.tables:
        if ref.alias is not None:
            return True
    for join in core.joins:
        if join.table.alias is not None:
            return True
    return False


def _is_count_star(func: Func) -> bool:
    """COUNT(*), which `normalize_core` rewrites to its target column."""
    return func.name == "count" and not func.distinct and len(func.args) == 1 \
        and isinstance(func.args[0], Star)


def _resolves_to_itself(core: SelectCore, column: ColumnResolver) -> bool:
    """Whether an alias-free core has no COUNT(*) and `column` returns each of
    its columns itself: a read-only walk that asks the resolver for the same
    columns in the same order as `_rebuild_core` (clauses in order, pre-order
    within an expression, no subquery core), so a resolver's error is raised
    at the same column. It stops at the first column that changes or the
    first COUNT(*)."""
    tables = [t.name for t in core.tables] + [j.table.name for j in core.joins]
    for expr in _clause_exprs(core):
        if not _kept(expr, column, tables):
            return False
    return True


def _clause_exprs(core: SelectCore) -> Iterator[SqlExpr]:
    for item in core.items:
        yield item.expr
    for join in core.joins:
        yield from pred_exprs(join.on)
    if core.where is not None:
        yield from pred_exprs(core.where)
    yield from core.group_by
    if core.having is not None:
        yield from pred_exprs(core.having)
    for order in core.order_by:
        yield order.expr


def _kept(expr: SqlExpr, column: ColumnResolver, tables: list[str]) -> bool:
    if isinstance(expr, Column):
        return column(expr, tables) is expr
    if isinstance(expr, Func) and _is_count_star(expr):
        return False
    for child in expr_children(expr):
        if not _kept(child, column, tables):
            return False
    return True


def _rebuild_core(core: SelectCore, d: "DatabaseInput | None",
                  column: ColumnResolver | None) -> SelectCore:
    """`normalize_core` by one rebuild of each clause, copy-on-write."""
    refs = [*core.tables, *[j.table for j in core.joins]]
    tables = [t.name for t in refs]
    table_alias = {t.alias: t.name for t in refs if t.alias}
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
                    return None
        if d is not None and len(set(tables)) == 1:
            pk = d.primary_key(tables[0])
            if pk is not None:
                return Column(tables[0], pk)
        return None

    def plain(node: SqlExpr) -> SqlExpr | None:
        if isinstance(node, Column):
            return qualify(node)
        if isinstance(node, Func) and column is not None and _is_count_star(node):
            if not target:
                target.append(count_target())
            return node if target[0] is None else Func("count", (target[0],), False)
        return None

    def aliased(node: SqlExpr) -> SqlExpr | None:
        if isinstance(node, Column) and node.table is None and node.column in item_alias:
            return map_expr(item_alias[node.column], plain)
        return plain(node)

    old = (core.items, core.tables, core.joins, core.where, core.group_by, core.having,
           core.order_by)
    # in clause order, so that a resolver's error is raised at its first column;
    # an empty clause is kept as it is
    new = (map_tuple(core.items, _map_item, plain),
           core.tables and map_tuple(core.tables, _unaliased),
           core.joins and map_tuple(core.joins, _map_join, plain),
           core.where and map_expr(core.where, plain),
           core.group_by and map_tuple(core.group_by, map_expr, aliased),
           core.having and map_expr(core.having, aliased),
           core.order_by and map_tuple(core.order_by, _map_order, aliased))
    if all(map(is_, new, old)):
        return core
    items, table_refs, joins, where, group_by, having, order_by = new
    return SelectCore(items, core.distinct, table_refs, joins, where, group_by, having, order_by,
                      core.limit, core.offset)


def _map_item(item: SelectItem, fn: Callable[[SqlExpr], SqlExpr | None]) -> SelectItem:
    expr = map_expr(item.expr, fn)
    return item if expr is item.expr and item.alias is None else SelectItem(expr)


def _unaliased(ref: TableRef) -> TableRef:
    return ref if ref.alias is None else TableRef(ref.name)


def _map_join(join: Join, fn: Callable[[SqlExpr], SqlExpr | None]) -> Join:
    on = map_expr(join.on, fn)
    if on is join.on and join.table.alias is None:
        return join
    return Join(_unaliased(join.table), on, join.kind)


def _map_order(order: OrderItem, fn: Callable[[SqlExpr], SqlExpr | None]) -> OrderItem:
    expr = map_expr(order.expr, fn)
    return order if expr is order.expr else OrderItem(expr, order.direction)


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


def has_star(items: tuple[SelectItem, ...]) -> bool:
    """Whether a select list has a bare `*` item."""
    for item in items:
        if isinstance(item.expr, Star):
            return True
    return False


def expand_select_star(core: SelectCore, d: "DatabaseInput | None") -> SelectCore:
    """Expand a bare `SELECT *` item to the source tables' declared columns.

    Requires schema information; without it (or for unknown tables) the star
    is kept verbatim.
    """
    if d is None or not has_star(core.items):
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
