"""Parsing, canonical rendering, and validation of action trajectories.

Grammar, one step per line::

    step   := binding "=" receiver ("." call)+
    call   := name "(" args? ")"
    args   := arg ("," arg)*
    arg    := [key "="] value

Action names are case-insensitive on parse and lowercase in canonical form;
identifiers keep their case. Canonical text uses named keys exactly where the
vocabulary defines them (where/having take `element`/`filter`, orderby takes
`by`), positional elements elsewhere, single spaces around `=`, and LF line
endings.
"""

from __future__ import annotations

import re
from typing import Callable, Union

from .actions import (
    ACTION_SPACE,
    AGGREGATE_KINDS,
    BINDING_RE,
    COMPOUND,
    SQL_AGGREGATES,
    Action,
    AggStep,
    Aggregate,
    Arithmetic,
    BindingRef,
    Cast,
    Combine,
    Distinct,
    Expr,
    FilterCondition,
    Func,
    GroupBy,
    Having,
    Limit,
    OrderBy,
    Predicate,
    QualifiedColumn,
    Scalar,
    Select,
    Star,
    Subquery,
    Substr,
    Trajectory,
    TrajectoryStep,
    Where,
    _part,
    map_expr,
)
from .errors import (SchemaMismatchError, SqlStepsError, TrajectorySyntaxError,
                     UnknownActionError, UnsupportedSqlError)
from .schema import DatabaseInput
from .sqlast import (ARITHMETIC_LEVELS, KEY, KEYWORDS, KIND, MAX_DEPTH, POS, TEXT,
                     BoundedParser, Column, SqlExpr, Token, canonical_predicate,
                     parse_predicate, render_predicate)

_DF_REF_RE = re.compile(r"df[0-9]+|res")
_NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_DATE_TOKEN_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_WORD_RE = re.compile(r"\w+")
_CALLS = (*AGGREGATE_KINDS, "cast", "substr")  # actions that are also expressions


# --- tokenizer ---------------------------------------------------------------

# Whitespace, then one alternative per token class, tried in order. A word
# starts with no decimal digit, so that no number is read as one; a number is
# of ASCII digits, as SQLite reads one, so any other decimal digit (`١`)
# starts no token and is an unexpected character. A string
# closes at a quote that is not doubled, so an unterminated one falls through
# to BAD at its opening quote. BAD and END always match, so whitespace is
# never scanned twice. A number's sign is a `-` SYM that `_tokenize_line`
# merges into the NUMBER after it.
_TOKEN_RE = re.compile(r"""
    \s*
    (?: (?P<SYM>[=.,()*+\-/])
      | (?P<WORD>[^\W\d]\w*)
      | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<STRING>'[^']*(?:''[^']*)*'(?!'))
      | (?P<BACKTICK>`[^`]*`)
      | (?P<BAD>.)
      | (?P<END>\Z))
""", re.VERBOSE | re.DOTALL)

# A `-` first on its line or after one of these symbols starts a number: an
# operand is expected there.
_SIGN_AFTER = ("=", ",", "(", "+", "-", "*", "/")


def _tokenize_line(line: str, lineno: int) -> list[Token]:
    """The tokens of one line (IDENT NUMBER STRING SYM, each `pos` a 1-based
    column), closed by an END token at the column of the last one."""
    tokens: list[Token] = []
    sign_end = -1  # end of a `-` that may start a number
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        text, start = m[kind], m.start(kind)
        key = None
        if kind == "SYM":
            key = text
            if text == "-" and (not tokens or tokens[-1][KEY] in _SIGN_AFTER):
                sign_end = start + 1
        # a word may still start with a digit that is no decimal digit (e.g.
        # `²`), an unexpected character
        elif kind == "WORD" and (text[0].isalpha() or text[0] == "_"):
            kind = "IDENT"
        elif kind == "NUMBER":
            if start == sign_end:
                text, start = "-" + text, start - 1
                tokens.pop()
        elif kind == "STRING":
            text = text[1:-1].replace("''", "'")
        elif kind == "BACKTICK":
            kind, text = "IDENT", text[1:-1]
        elif kind == "END":
            break
        elif text == "'":
            raise TrajectorySyntaxError("unterminated string literal", lineno, start + 1)
        elif text == "`":
            raise TrajectorySyntaxError("unterminated backtick identifier", lineno, start + 1)
        else:
            raise TrajectorySyntaxError(f"unexpected character {text[0]!r}", lineno, start + 1)
        tokens.append((kind, text, start + 1, key))
    tokens.append(("END", "", tokens[-1][POS] if tokens else 1, None))
    return tokens


# --- parser ------------------------------------------------------------------

class _LineParser(BoundedParser):
    def __init__(self, toks: list[Token], lineno: int):
        super().__init__(toks)
        self.lineno = lineno

    def too_deep(self) -> TrajectorySyntaxError:
        return TrajectorySyntaxError(f"nesting deeper than {MAX_DEPTH} levels", self.lineno,
                                     self.column())

    def column(self) -> int:
        """Column of the last token read, where a rejected value was found."""
        return self.toks[self.pos - 1][POS] if self.pos else 1

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok[KIND] == "END":
            raise TrajectorySyntaxError("unexpected end of line", self.lineno, tok[POS])
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok[KIND] != kind or (text is not None and tok[TEXT] != text):
            want = text if text is not None else kind
            raise TrajectorySyntaxError(f"unexpected token {tok[TEXT]!r}", self.lineno,
                                        tok[POS], expected=str(want))
        return tok

    # -- step ---------------------------------------------------------------

    def parse_step(self) -> TrajectoryStep:
        binding = self.expect("IDENT")
        if not BINDING_RE.fullmatch(binding[TEXT]) or binding[TEXT] == "df":
            raise TrajectorySyntaxError(f"invalid binding {binding[TEXT]!r}", self.lineno,
                                        binding[POS], expected="df<N> or res")
        self.expect("SYM", "=")
        receiver = self.expect("IDENT")
        if not BINDING_RE.fullmatch(receiver[TEXT]) or receiver[TEXT] == "res":
            raise TrajectorySyntaxError(f"invalid receiver {receiver[TEXT]!r}", self.lineno,
                                        receiver[POS], expected="df or df<N>")
        chain: list[Action] = []
        while self.eat("."):
            chain.append(self.parse_call())
        tok = self.peek()
        if not chain:
            raise TrajectorySyntaxError("step has no actions", self.lineno, tok[POS],
                                        expected=".action(...)")
        if tok[KIND] != "END":
            raise TrajectorySyntaxError(f"trailing input {tok[TEXT]!r}", self.lineno, tok[POS])
        return TrajectoryStep(binding[TEXT], receiver[TEXT], tuple(chain))

    # -- calls ---------------------------------------------------------------

    def parse_call(self) -> Action:
        name_tok = self.expect("IDENT")
        name = ACTION_SPACE.resolve(name_tok[TEXT])
        if name is None:
            raise UnknownActionError(name_tok[TEXT], self.lineno)
        if name in ("cast", "substr"):  # an expression, with no SQL clause of its own
            raise TrajectorySyntaxError(f"{name}(...) cannot stand alone in a step",
                                        self.lineno, name_tok[POS])
        self.expect("SYM", "(")
        action = self._dispatch(name)
        self.expect("SYM", ")")
        return action

    def _dispatch(self, name: str) -> Action:
        if name in ("select", "groupby"):
            return (Select if name == "select" else GroupBy)(tuple(self.listed(self._element)))
        if name in ("where", "having"):
            return (Where if name == "where" else Having)(*self._element_and_filter())
        if name == "orderby":
            return self._orderby()
        if name == "limit":
            return self._limit()
        if name == "distinct":
            self._skip_key({"element"})
            return Distinct(self.parse_expr())
        if name in ("union", "intersect", "except"):
            tok = self.expect("IDENT")
            if not _DF_REF_RE.fullmatch(tok[TEXT]):
                raise TrajectorySyntaxError(f"set operand must be a binding, got {tok[TEXT]!r}",
                                            self.lineno, tok[POS])
            return Combine(name, BindingRef(tok[TEXT]))
        self._skip_key({"element"})  # an aggregate step
        return AggStep(self.nested(self._call_body, name))

    def _skip_key(self, allowed: set[str]) -> None:
        """Consume an optional `key =` prefix (named-argument form)."""
        tok = self.peek()
        if (tok[KIND] == "IDENT" and tok[TEXT].lower() in allowed
                and self.toks[self.pos + 1][KEY] == "="):
            self.pos += 2

    def _element(self) -> Expr:
        self._skip_key({"element", "elements"})
        return self.parse_expr()

    def _element_and_filter(self) -> tuple[Expr, FilterCondition]:
        self._skip_key({"element"})
        element = self.parse_expr()
        self.expect("SYM", ",")
        self._skip_key({"filter"})
        cond = self._filter_value()
        return element, cond

    def _orderby(self) -> OrderBy:
        self._skip_key({"by", "element"})
        by = self.parse_expr()
        order = "asc"
        if self.eat(","):
            self._skip_key({"order"})
            tok = self.expect("IDENT")
            if tok[TEXT].lower() not in ("asc", "desc"):
                raise TrajectorySyntaxError(f"bad sort order {tok[TEXT]!r}", self.lineno,
                                            tok[POS], expected="asc or desc")
            order = tok[TEXT].lower()
        return OrderBy(by, order)

    def _limit(self) -> Limit:
        first = self._int_arg()
        if self.eat(","):
            second = self._int_arg()
            return Limit(count=second, offset=first)
        return Limit(count=first)

    def _int_arg(self) -> int:
        _, text, pos, _ = self.expect("NUMBER")
        value = Scalar.number(text)
        if value.kind != "int":
            raise TrajectorySyntaxError(f"expected integer, got {text!r}", self.lineno, pos)
        return value.value  # type: ignore[return-value]

    # -- filter mini-grammar ---------------------------------------------------

    def _filter_value(self) -> FilterCondition:
        tok = self.next()
        if tok[KIND] == "NUMBER":
            return FilterCondition("=", (Scalar.number(tok[TEXT]),))
        if tok[KIND] == "IDENT" and _DF_REF_RE.fullmatch(tok[TEXT]):
            return FilterCondition("=", (BindingRef(tok[TEXT]),))
        if tok[KIND] == "STRING":
            return parse_filter_text(tok[TEXT], self.lineno, tok[POS])
        raise TrajectorySyntaxError(f"bad filter value {tok[TEXT]!r}", self.lineno, tok[POS],
                                    expected="number, binding, or quoted condition")

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.binary(ARITHMETIC_LEVELS, self._atom)

    def _atom(self) -> Expr:
        tok = self.next()
        if tok[KIND] == "NUMBER":
            return Scalar.number(tok[TEXT])
        if tok[KIND] == "STRING":
            return Scalar.of(tok[TEXT])
        if tok[KEY] == "*":
            return Star()
        if tok[KEY] == "(":
            inner = self.nested(self.parse_expr, levels=0)
            self.expect("SYM", ")")
            return inner
        if tok[KEY] == "-":
            num = self.expect("NUMBER")
            return Scalar.number("-" + num[TEXT])
        if tok[KIND] == "IDENT":
            return self._ident_expr(tok)
        raise TrajectorySyntaxError(f"unexpected token {tok[TEXT]!r}", self.lineno, tok[POS],
                                    expected="expression")

    def _ident_expr(self, tok: Token) -> Expr:
        lowered = tok[TEXT].lower()
        lowered = ACTION_SPACE.aliases.get(lowered, lowered)
        if self.at("("):
            if lowered not in _CALLS:
                raise UnknownActionError(tok[TEXT], self.lineno)
            self.expect("SYM", "(")
            call = self.nested(self._call_body, lowered)
            self.expect("SYM", ")")
            return call
        if self.eat("."):
            col = self.expect("IDENT")
            return QualifiedColumn(tok[TEXT], col[TEXT])
        raise TrajectorySyntaxError(f"unqualified reference {tok[TEXT]!r}", self.lineno,
                                    tok[POS], expected="table.column")

    def _call_body(self, name: str) -> Aggregate | Cast | Substr:
        """The arguments of an aggregate, `cast` or `substr` call, without its
        parentheses."""
        arg = self.parse_expr()
        if name in AGGREGATE_KINDS:
            return Aggregate(name, arg)
        self.expect("SYM", ",")
        if name == "cast":
            self._skip_key({"type"})
            return Cast(arg, self._type_name())
        start = self._int_arg()
        return Substr(arg, start, self._int_arg() if self.eat(",") else None)

    def _type_name(self) -> str:
        """A type name as the SQL grammar reads one: a bare word that is no
        SQL keyword, with integer sizes if any, e.g. VARCHAR(20)."""
        _, word, pos, _ = self.expect("IDENT")
        # a word as both scanners read one; a backtick name may hold anything
        if not (_WORD_RE.fullmatch(word) and (word[0].isalpha() or word[0] == "_")) \
                or word.lower() in KEYWORDS:
            raise TrajectorySyntaxError(f"bad type name {word!r}", self.lineno, pos,
                                        expected="a bare word such as INTEGER or VARCHAR(20)")
        if not self.eat("("):
            return word
        sizes = self.listed(self._int_arg)
        if min(sizes) < 0:
            raise TrajectorySyntaxError("negative type size", self.lineno, pos)
        self.expect("SYM", ")")
        return f"{word}({','.join(map(str, sizes))})"


# --- filter text (the quoted condition mini-grammar) -------------------------

# The comparator a filter text starts with, as a whole word; matched against the
# lowercased text, earlier alternatives first.
_FILTER_PREFIX_RE = re.compile(
    r"(is not null|is null|not in|between|like|in|>=|<=|!=|>|<|=)(?!\w)")
# `between X and Y`: X is a whole quoted literal, which may hold ` and `, or
# else runs to the first ` and `.
_BETWEEN_RE = re.compile(r"('[^']*(?:''[^']*)*'(?!')|.+?)\s+and\s+(.+)",
                         re.IGNORECASE | re.DOTALL)
# What `_split_commas` looks at: a quoted run (an unterminated one runs to the
# end of the text) or a parenthesis or comma outside one.
_LIST_SCAN_RE = re.compile(r"'[^']*(?:''[^']*)*(?:'(?!')|\Z)|[(),]")


def parse_filter_text(text: str, lineno: int = 0, col: int = 0) -> FilterCondition:
    """Parse the content of a quoted filter argument.

    Text that starts with no comparator keyword is an equality literal taken
    verbatim; text starting with `(` is a compound predicate in SQL, whose
    columns are qualified, and which the condition holds in canonical form.
    """
    stripped = text.strip()
    if stripped.startswith("("):
        try:
            predicate = _ToTrajectory(None).predicate(parse_predicate(stripped))
            return FilterCondition(COMPOUND, (), canonical_predicate(predicate))
        except (SqlStepsError, ValueError) as exc:  # e.g. a bare column, a subquery
            raise TrajectorySyntaxError(f"compound filter: {exc}", lineno, col) from exc
    m = _FILTER_PREFIX_RE.match(stripped.lower())
    if m is None:
        return FilterCondition("=", (Scalar.of(text),))
    try:
        return _structured_filter(m.group(), stripped[m.end():].strip(), lineno, col)
    except ValueError as exc:  # a condition the type rejects, e.g. mixed between bounds
        raise TrajectorySyntaxError(str(exc), lineno, col) from exc


def _structured_filter(comparator: str, rest: str, lineno: int, col: int) -> FilterCondition:
    if comparator in ("is null", "is not null"):
        if rest:
            raise TrajectorySyntaxError(f"trailing text after {comparator!r}", lineno, col)
        return FilterCondition(comparator)
    if comparator == "between":
        m = _BETWEEN_RE.fullmatch(rest)
        if m is None:
            raise TrajectorySyntaxError("between requires `between X and Y`", lineno, col)
        lo = _filter_operand(m.group(1).strip(), lineno, col)
        hi = _filter_operand(m.group(2).strip(), lineno, col)
        return FilterCondition("between", (lo, hi))
    if comparator == "like":
        if not rest:
            raise TrajectorySyntaxError("like requires a pattern", lineno, col)
        pattern = _unquote(rest, lineno, col) if rest.startswith("'") else rest
        return FilterCondition("like", (Scalar(pattern, "string"),))
    if comparator in ("in", "not in"):
        if not (rest.startswith("(") and rest.endswith(")")):
            raise TrajectorySyntaxError(f"{comparator} requires a parenthesized list",
                                        lineno, col)
        items = _split_commas(rest[1:-1])
        if not items:
            raise TrajectorySyntaxError(f"{comparator} list is empty", lineno, col)
        ops = tuple(_filter_operand(item.strip(), lineno, col) for item in items)
        return FilterCondition(comparator, ops)
    # single-operand comparison
    if not rest:
        raise TrajectorySyntaxError(f"{comparator} requires an operand", lineno, col)
    return FilterCondition(comparator, (_filter_operand(rest, lineno, col),))


def _filter_operand(token: str, lineno: int, col: int) -> Scalar | BindingRef:
    if token.startswith("'"):
        return Scalar(_unquote(token, lineno, col), "string")
    if _DF_REF_RE.fullmatch(token):
        return BindingRef(token)
    if _DATE_TOKEN_RE.fullmatch(token):
        return Scalar(token, "date")
    if _NUMBER_RE.fullmatch(token):
        return Scalar.number(token)
    if " " in token:
        raise TrajectorySyntaxError(f"bad filter operand {token!r}", lineno, col,
                                    expected="a single scalar (quote strings with spaces)")
    return Scalar(token, "string")


def _unquote(token: str, lineno: int, col: int) -> str:
    if not (len(token) >= 2 and token.startswith("'") and token.endswith("'")):
        raise TrajectorySyntaxError(f"unterminated quoted operand {token!r}", lineno, col)
    return token[1:-1].replace("''", "'")


def _split_commas(text: str) -> list[str]:
    """Split at commas outside parentheses and quotes; items are stripped and
    empty ones dropped."""
    items: list[str] = []
    depth = start = 0
    for m in _LIST_SCAN_RE.finditer(text):
        if m.group() == "(":
            depth += 1
        elif m.group() == ")":
            depth -= 1
        elif m.group() == "," and depth == 0:
            items.append(text[start:m.start()])
            start = m.end()
    items.append(text[start:])
    return [item for item in (s.strip() for s in items) if item]


# --- SQL expressions in trajectory form ----------------------------------------

_AGG_NAME_TO_KIND = {name: kind for kind, name in SQL_AGGREGATES.items()}


def _check_literal(scalar: Scalar) -> Scalar:
    # trajectory text is one step per line, and a line ends at every break
    # `str.splitlines` knows, `\x0b`, `\x85` and `\u2028` among them
    if isinstance(scalar.value, str) and len(f".{scalar.value}.".splitlines()) > 1:
        raise UnsupportedSqlError("string literals with line breaks cannot be rendered")
    return scalar


class _Converter:
    """Converts one core's expressions between SQL and trajectory form, each
    in one walk, and keeps the table of every column it converts. A column
    becomes the node `d` keeps for it, if `d` is given."""

    __slots__ = ("d", "tables")

    def __init__(self, d: DatabaseInput | None) -> None:
        self.d = d
        self.tables: set[str] = set()

    def __call__(self, expr: SqlExpr | Expr) -> SqlExpr | Expr:
        return map_expr(expr, self.node)


class _ToTrajectory(_Converter):
    """SQL to trajectory form, for `bridge.decompose` and for the text of a
    compound filter condition."""

    __slots__ = ()

    def node(self, expr: SqlExpr) -> Expr | None:
        """The trajectory form of a SQL node with none of its own; None for a
        shared node (Star, Cast, Arithmetic), whose operands are converted."""
        if isinstance(expr, Column):
            if expr.table is None:
                raise SchemaMismatchError(f"column {expr.column!r} could not be qualified")
            self.tables.add(expr.table)
            build = QualifiedColumn if self.d is None else self.d.qualified_column
            return build(expr.table, expr.column)
        if isinstance(expr, Scalar):
            return _check_literal(expr)
        if isinstance(expr, Func):
            if expr.name in _AGG_NAME_TO_KIND:
                if expr.distinct:
                    raise UnsupportedSqlError("DISTINCT aggregates are unsupported")
                if len(expr.args) != 1:
                    raise UnsupportedSqlError(f"{expr.name} takes one argument")
                return Aggregate(_AGG_NAME_TO_KIND[expr.name], self(expr.args[0]))
            if expr.name in ("substr", "substring"):
                if len(expr.args) not in (2, 3):
                    raise UnsupportedSqlError("substr takes 2 or 3 arguments")
                for bound, name in zip(expr.args[1:], ("start", "length")):
                    if not isinstance(bound, Scalar) or bound.kind != "int":
                        raise UnsupportedSqlError(f"substr {name} must be an integer literal")
                return Substr(self(expr.args[0]), *[int(b.value) for b in expr.args[1:]])
            raise UnsupportedSqlError(f"function {expr.name!r} is outside the action space")
        if isinstance(expr, Subquery):
            raise UnsupportedSqlError("subqueries are only supported in WHERE comparisons")
        return None

    def predicate(self, pred: Predicate) -> Predicate:
        """A compound condition's predicate with its operands converted, left
        to right; a subquery is kept, for the condition's type to reject."""
        return map_expr(pred, lambda expr: expr if isinstance(expr, Subquery) else self.node(expr))


# --- public parse/render ------------------------------------------------------

def parse_trajectory(text: str) -> Trajectory:
    """Parse trajectory source text into a validated Trajectory."""
    if not text.strip():
        raise TrajectorySyntaxError("empty trajectory text", 1, 1)
    steps: list[TrajectoryStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        parser = _LineParser(_tokenize_line(line, lineno), lineno)
        try:
            steps.append(parser.parse_step())
        except ValueError as exc:  # a value an action or a step rejects, e.g. limit(0)
            raise TrajectorySyntaxError(str(exc), lineno, parser.column()) from exc
    return Trajectory(tuple(steps))


Emit = Callable[[Union[str, QualifiedColumn]], None]  # appends one fragment


def render_trajectory(t: Trajectory) -> str:
    """Canonical text: deterministic, one step per line, trailing newline."""
    return _join(trajectory_fragments(t))


def trajectory_fragments(t: Trajectory) -> list[str | QualifiedColumn]:
    """The canonical text of `t` in render order: text fragments, with each
    qualified-column occurrence kept as its own `QualifiedColumn`. Joined with
    every column rendered, the fragments are `render_trajectory(t)`."""
    out: list[str | QualifiedColumn] = []
    emit = out.append
    for step in t.steps:
        emit(f"{step.binding} = {step.receiver}")
        for action in step.chain:
            emit(".")
            _emit_action(action, emit)
        emit("\n")
    return out


def render_action(action: Action) -> str:
    out: list[str | QualifiedColumn] = []
    _emit_action(action, out.append)
    return _join(out)


def render_expr(expr: Expr) -> str:
    out: list[str | QualifiedColumn] = []
    _emit_expr(expr, out.append)
    return _join(out)


def _join(fragments: list[str | QualifiedColumn]) -> str:
    return "".join([f if isinstance(f, str) else f.render() for f in fragments])


def _emit_action(action: Action, emit: Emit) -> None:
    if isinstance(action, (Select, GroupBy)):
        emit(f"{action.name}(")
        for i, expr in enumerate(action.elements):
            if i:
                emit(", ")
            _emit_expr(expr, emit)
        emit(")")
    elif isinstance(action, Distinct):
        emit("distinct(")
        _emit_expr(action.element, emit)
        emit(")")
    elif isinstance(action, (Where, Having)):
        emit(f"{action.name}(element = ")
        _emit_expr(action.element, emit)
        emit(f", filter = {render_filter(action.condition)})")
    elif isinstance(action, OrderBy):
        emit("orderby(by = ")
        _emit_expr(action.by, emit)
        emit(f", {action.order})")
    elif isinstance(action, Limit):
        emit(f"limit({action.offset}, {action.count})" if action.offset
             else f"limit({action.count})")
    elif isinstance(action, Combine):
        emit(f"{action.op}({action.other.name})")
    elif isinstance(action, AggStep):  # the step is its aggregate
        _emit_expr(action.agg, emit)
    else:
        raise TypeError(f"not an action: {action!r}")


def _emit_expr(expr: Expr, emit: Emit) -> None:
    if isinstance(expr, QualifiedColumn):
        emit(expr)
    elif isinstance(expr, Scalar):
        emit(repr(expr.value) if expr.kind in ("int", "real") else _quote(str(expr.value)))
    elif isinstance(expr, Star):
        emit("*")
    elif isinstance(expr, Aggregate):
        emit(f"{expr.kind}(")
        _emit_expr(expr.arg, emit)
        emit(")")
    elif isinstance(expr, Cast):
        emit("cast(")
        _emit_expr(expr.arg, emit)
        emit(f", {expr.target_type})")
    elif isinstance(expr, Arithmetic):
        emit("(")
        _emit_expr(expr.left, emit)
        emit(f" {expr.op} ")
        _emit_expr(expr.right, emit)
        emit(")")
    elif isinstance(expr, Substr):
        emit("substr(")
        _emit_expr(expr.arg, emit)
        emit(f", {expr.start})" if expr.length is None else f", {expr.start}, {expr.length})")
    else:
        raise TypeError(f"not an expression: {expr!r}")


def render_filter(cond: FilterCondition) -> str:
    if cond.comparator == COMPOUND:  # its SQL, in parentheses
        text = render_predicate(cond.predicate)
        return _quote(text if text.startswith("(") else f"({text})")
    if cond.comparator == "=" and len(cond.operands) == 1:
        op = cond.operands[0]
        if isinstance(op, BindingRef):
            return op.name
        if op.kind in ("int", "real"):
            return repr(op.value)
        text = str(op.value)
        if op.kind == "string" and _equality_text_ambiguous(text):
            return _quote(f"= {_quote(text)}")  # would reparse as a condition
        return _quote(text)
    return _quote(_filter_text(cond))


def _equality_text_ambiguous(text: str) -> bool:
    """True when bare equality text would reparse as something structured."""
    stripped = text.strip()
    if stripped != text or not text or text.startswith("("):
        return True
    return bool(_FILTER_PREFIX_RE.match(stripped.lower()) or _DATE_TOKEN_RE.fullmatch(text)
                or _NUMBER_RE.fullmatch(text) or _DF_REF_RE.fullmatch(text))


def _filter_text(cond: FilterCondition) -> str:
    c = cond.comparator
    if c in ("is null", "is not null"):
        return c
    if c == "between":
        lo, hi = cond.operands
        return f"between {_operand_text(lo)} and {_operand_text(hi)}"
    if c == "like":
        pattern = str(cond.operands[0].value)  # type: ignore[union-attr]
        needs_quoting = pattern.startswith("'") or pattern != pattern.strip() or not pattern
        return f"like {_quote(pattern) if needs_quoting else pattern}"
    if c in ("in", "not in"):
        return f"{c} ({', '.join(_operand_text(op) for op in cond.operands)})"
    return f"{c} {_operand_text(cond.operands[0])}"


def _operand_text(op: Scalar | BindingRef) -> str:
    if isinstance(op, BindingRef):
        return op.name
    if op.kind in ("int", "real"):
        return repr(op.value)
    if op.kind == "date":
        return str(op.value)
    return _quote(str(op.value))


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


# --- validation ---------------------------------------------------------------

def validate_trajectory(t: Trajectory, d: "DatabaseInput") -> list[str]:
    """The schema errors of `t` against `d`, empty when every column `t`
    references is a column of `d`: each unknown table once, sorted, then each
    unknown column of a known table once, in first-occurrence order."""
    missing = [(c.table, c.column) for c in t.columns() if not d.has_column(c.table, c.column)]
    if not missing:
        return []
    tables = sorted({table for table, _ in missing if not d.has_table(table)})
    return [f"table {table!r} not in database {d.name!r}" for table in tables] + [
        f"column {_part(table)}.{_part(column)} not in database {d.name!r}"
        for table, column in dict.fromkeys(missing) if d.has_table(table)]
