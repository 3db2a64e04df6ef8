"""SQL to trajectory decomposition, reversion, and round-trip verification.

The conversion covers one SELECT core (plus set-operation chains and scalar
non-correlated subqueries in WHERE comparisons). The implicit `df` denotes
the natural join of every table a step references; reversion resynthesizes
the FROM clause along foreign-key edges of the database input. Anything the
action vocabulary cannot express raises UnsupportedSqlError rather than
converting approximately.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace

from . import sqlast
from .actions import (
    Action,
    AggStep,
    Aggregate,
    BindingRef,
    Combine,
    Distinct,
    Expr,
    FilterCondition,
    Func,
    GroupBy,
    Having,
    Limit,
    OrderBy,
    QualifiedColumn,
    Scalar,
    Select,
    Star,
    Substr,
    Trajectory,
    TrajectoryStep,
    Where,
    columns_in,
    expr_children,
    map_expr,
)
from .errors import (
    BRIDGE_ERRORS,
    InvalidChainError,
    JoinPathNotFoundError,
    SchemaMismatchError,
    UnsupportedSqlError,
)
from .schema import DatabaseInput
from .trajectory import validate_trajectory
from .sqlast import (
    And,
    Between,
    Column,
    Comparison,
    InList,
    IsNull,
    Join,
    LikePred,
    Not,
    OrderItem,
    Predicate,
    SelectCore,
    SelectItem,
    SelectNode,
    SetOp,
    SqlExpr,
    SqlQuery,
    Subquery,
    TableRef,
    canonicalize,
    flatten_and,
)

PASS = "pass"
CANONICAL_MISMATCH = "canonical_mismatch"
UNSUPPORTED = "unsupported"

_AGG_NAME_TO_KIND = {"count": "count", "sum": "sum", "avg": "average",
                     "min": "min", "max": "max"}
_KIND_TO_AGG_NAME = {v: k for k, v in _AGG_NAME_TO_KIND.items()}


@dataclass
class RoundTripReport:
    original: SqlQuery
    trajectory: Trajectory | None
    reverted: SqlQuery | None
    verdict: str  # PASS | CANONICAL_MISMATCH | UNSUPPORTED
    diff: str = ""
    reason: str = ""


class _Namer:
    def __init__(self) -> None:
        self.n = 0

    def next(self) -> str:
        self.n += 1
        return f"df{self.n}"


# --- decomposition ---------------------------------------------------------

def decompose(s: SqlQuery, d: DatabaseInput) -> Trajectory:
    """Convert a parsed SQL query into its stepwise action trajectory."""
    ast = sqlast._require_ast(s)
    namer = _Namer()
    steps: list[TrajectoryStep] = []
    try:
        _decompose_node(ast, d, namer, steps, bind="res")
    except ValueError as exc:  # a value the action types reject, e.g. a nested aggregate
        raise UnsupportedSqlError(str(exc)) from exc
    return Trajectory(tuple(steps))


def _decompose_node(node: SelectNode, d: DatabaseInput, namer: _Namer,
                    steps: list[TrajectoryStep], bind: str | None) -> str:
    if isinstance(node, SetOp):
        if node.op == "union all":
            raise UnsupportedSqlError("UNION ALL has no action equivalent")
        left = _decompose_node(node.left, d, namer, steps, bind=None)
        right = _decompose_core(node.right, d, namer, steps, bind=None)
        binding = bind or namer.next()
        steps.append(TrajectoryStep(binding, left, (Combine(node.op, BindingRef(right)),)))
        return binding
    return _decompose_core(node, d, namer, steps, bind)


def _decompose_core(core: SelectCore, d: DatabaseInput, namer: _Namer,
                    steps: list[TrajectoryStep], bind: str | None,
                    outer_tables: frozenset[str] = frozenset(),
                    raise_at_count: bool = False) -> str:
    _check_core_shape(core, d)
    core = sqlast.normalize_core(core, d, _strict_column(d, outer_tables), raise_at_count)
    core = sqlast.expand_select_star(core, d)
    declared = {t.name for t in core.tables} | {j.table.name for j in core.joins}
    # A subquery's COUNT(*) whose target does not qualify raises where it
    # stands if this core has a COUNT(*) target of its own, else in its GROUP
    # BY: the order in which such errors have always been reported.
    counted = any(isinstance(e, Column) for e in core.group_by) or (
        len(declared) == 1 and d.primary_key(next(iter(declared))) is not None)
    witnessed: set[str] = set()

    def conv(expr: SqlExpr) -> Expr:
        out = _to_traj_expr(expr)
        witnessed.update(c.table for c in columns_in(out))
        return out

    receiver = "df"
    if core.where is not None:
        scope = outer_tables | declared
        for conjunct in flatten_and(core.where):
            element, cond = _conjunct_to_filter(conjunct, d, namer, steps, conv, scope,
                                                counted)
            binding = namer.next()
            steps.append(TrajectoryStep(binding, receiver, (Where(element, cond),)))
            receiver = binding
    if core.group_by:
        chain: list[Action] = [GroupBy(tuple(conv(e) for e in core.group_by))]
        for agg in _collect_aggregates(core):
            converted = conv(agg)
            assert isinstance(converted, Aggregate)
            chain.append(AggStep(converted))
        binding = namer.next()
        steps.append(TrajectoryStep(binding, receiver, tuple(chain)))
        receiver = binding
    if core.having is not None:
        if not core.group_by:
            raise UnsupportedSqlError("HAVING without GROUP BY")
        for conjunct in flatten_and(core.having):
            element, cond = _simple_filter(conjunct, d, conv)
            binding = namer.next()
            steps.append(TrajectoryStep(binding, receiver, (Having(element, cond),)))
            receiver = binding
    tail: list[Action] = [OrderBy(conv(o.expr), o.direction) for o in core.order_by]
    if core.limit is not None:
        tail.append(Limit(count=core.limit, offset=core.offset))
    if tail:
        binding = namer.next()
        steps.append(TrajectoryStep(binding, receiver, tuple(tail)))
        receiver = binding
    if core.distinct:
        binding = namer.next()
        steps.append(TrajectoryStep(binding, receiver, (Distinct(conv(core.items[0].expr)),)))
        receiver = binding
    binding = bind or namer.next()
    steps.append(TrajectoryStep(binding, receiver,
                                (Select(tuple(conv(i.expr) for i in core.items)),)))
    missing = declared - witnessed
    if missing:
        raise UnsupportedSqlError(
            f"table(s) {sorted(missing)} are joined but never referenced by a step")
    return binding


def _check_core_shape(core: SelectCore, d: DatabaseInput) -> None:
    """Checks a core before its aliases are resolved."""
    if len(core.tables) > 1:
        raise UnsupportedSqlError("comma-separated FROM lists are unsupported")
    names = [t.name for t in core.tables] + [j.table.name for j in core.joins]
    if len(names) != len(set(names)):
        raise UnsupportedSqlError("self-joins are unsupported")
    for name in names:
        if not d.has_table(name):
            raise SchemaMismatchError(f"table {name!r} not in database {d.name!r}")
    aliases = {t.alias: t.name for t in (*core.tables, *(j.table for j in core.joins))
               if t.alias}
    known = set()
    if core.tables:
        known.add(core.tables[0].name)
    for join in core.joins:
        if join.kind != "inner":
            raise UnsupportedSqlError(f"{join.kind} joins are unsupported")
        _check_join_on(join, known, d, aliases)
        known.add(join.table.name)
    if core.distinct:
        if len(core.items) != 1:
            raise UnsupportedSqlError("DISTINCT over multiple select elements")
        if isinstance(core.items[0].expr, Star):
            raise UnsupportedSqlError("DISTINCT * is unsupported")
    if any(isinstance(i.expr, Star) for i in core.items) and not names:
        raise UnsupportedSqlError("SELECT * without FROM")
    if core.limit is not None and core.limit < 1:
        raise UnsupportedSqlError("LIMIT 0 has no action equivalent (limit takes a count >= 1)")


def _check_join_on(join: Join, known: set[str], d: DatabaseInput,
                   aliases: dict[str, str]) -> None:
    conjuncts = flatten_and(join.on)
    if len(conjuncts) != 1 or not isinstance(conjuncts[0], Comparison):
        raise UnsupportedSqlError("join conditions must be a single equality")
    cmp = conjuncts[0]
    if cmp.op != "=" or not isinstance(cmp.left, Column) or not isinstance(cmp.right, Column):
        raise UnsupportedSqlError("join conditions must equate two columns")
    left, right = (Column(aliases.get(c.table, c.table), c.column) for c in (cmp.left, cmp.right))
    if left.table is None or right.table is None:
        raise UnsupportedSqlError("join condition columns must be qualified")
    pair = {left.table, right.table}
    if join.table.name not in pair or not pair & known:
        raise UnsupportedSqlError("join condition must link the joined table to a prior one")
    edges = {(c, cc, p, pc) for (c, cc, p, pc) in d.fk_edges()}
    a = (left.table, left.column, right.table, right.column)
    b = (right.table, right.column, left.table, left.column)
    if a not in edges and b not in edges:
        raise UnsupportedSqlError(
            f"join condition {left.render()} = {right.render()} is not a declared foreign key")


def _strict_column(d: DatabaseInput, outer_tables: frozenset[str]) -> sqlast.ColumnResolver:
    def column(col: Column, tables: list[str]) -> Column:
        if col.table is not None:
            if col.table not in tables:
                if col.table in outer_tables:
                    raise UnsupportedSqlError(
                        f"correlated reference {col.render()} is unsupported")
                raise SchemaMismatchError(f"table {col.table!r} not in FROM clause")
            if not d.has_column(col.table, col.column):
                raise SchemaMismatchError(f"column {col.render()} not in database")
            return col
        owners = [t for t in tables if d.has_column(t, col.column)]
        if not owners:
            raise SchemaMismatchError(f"column {col.column!r} not in any FROM table")
        if len(owners) > 1:
            raise SchemaMismatchError(f"column {col.column!r} is ambiguous across {owners}")
        return Column(owners[0], col.column)
    return column


def _check_literal(scalar: Scalar) -> Scalar:
    if isinstance(scalar.value, str) and ("\n" in scalar.value or "\r" in scalar.value):
        raise UnsupportedSqlError("string literals with line breaks cannot be rendered")
    return scalar


def _to_traj_expr(expr: SqlExpr) -> Expr:
    return map_expr(expr, _traj_node)


def _traj_node(expr: SqlExpr) -> Expr | None:
    """The trajectory form of a SQL node with none of its own; None for a
    shared node (Star, Cast, Arithmetic), whose operands are converted."""
    if isinstance(expr, Column):
        if expr.table is None:
            raise SchemaMismatchError(f"column {expr.column!r} could not be qualified")
        return QualifiedColumn(expr.table, expr.column)
    if isinstance(expr, Scalar):
        return _check_literal(expr)
    if isinstance(expr, Func):
        if expr.name in _AGG_NAME_TO_KIND:
            if expr.distinct:
                raise UnsupportedSqlError("DISTINCT aggregates are unsupported")
            if len(expr.args) != 1:
                raise UnsupportedSqlError(f"{expr.name} takes one argument")
            arg = _to_traj_expr(expr.args[0])
            return Aggregate(_AGG_NAME_TO_KIND[expr.name], arg)
        if expr.name in ("substr", "substring"):
            if len(expr.args) not in (2, 3):
                raise UnsupportedSqlError("substr takes 2 or 3 arguments")
            start = expr.args[1]
            if not isinstance(start, Scalar) or start.kind != "int":
                raise UnsupportedSqlError("substr start must be an integer literal")
            length: int | None = None
            if len(expr.args) == 3:
                third = expr.args[2]
                if not isinstance(third, Scalar) or third.kind != "int":
                    raise UnsupportedSqlError("substr length must be an integer literal")
                length = int(third.value)
            return Substr(_to_traj_expr(expr.args[0]), int(start.value), length)
        raise UnsupportedSqlError(f"function {expr.name!r} is outside the action space")
    if isinstance(expr, Subquery):
        raise UnsupportedSqlError("subqueries are only supported in WHERE comparisons")
    return None


def _conjunct_to_filter(pred: Predicate, d: DatabaseInput, namer: _Namer,
                        steps: list[TrajectoryStep], conv,
                        scope: frozenset[str] | set[str],
                        counted: bool) -> tuple[Expr, FilterCondition]:
    pred = sqlast._normalize_comparison(pred)
    if isinstance(pred, Comparison) and isinstance(pred.right, Subquery):
        if isinstance(pred.left, Subquery):
            raise UnsupportedSqlError("subquery-to-subquery comparisons are unsupported")
        sub_binding = _decompose_core(pred.right.core, d, namer, steps, None,
                                      frozenset(scope), counted)
        return conv(pred.left), FilterCondition(pred.op, (BindingRef(sub_binding),))
    return _simple_filter(pred, d, conv)


def _simple_filter(pred: Predicate, d: DatabaseInput, conv) -> tuple[Expr, FilterCondition]:
    pred = sqlast._normalize_comparison(pred)
    if isinstance(pred, Comparison) and isinstance(pred.right, Scalar) \
            and not isinstance(pred.left, Scalar):
        return conv(pred.left), FilterCondition(pred.op, (_check_literal(pred.right),))
    if isinstance(pred, Between) and not pred.negated \
            and isinstance(pred.lo, Scalar) and isinstance(pred.hi, Scalar):
        if pred.lo.kind != pred.hi.kind:
            raise UnsupportedSqlError("BETWEEN bounds of mixed literal kinds")
        return conv(pred.expr), FilterCondition(
            "between", (_check_literal(pred.lo), _check_literal(pred.hi)))
    if isinstance(pred, LikePred) and not pred.negated and isinstance(pred.pattern, Scalar):
        pattern = _check_literal(Scalar(str(pred.pattern.value), "string"))
        return conv(pred.expr), FilterCondition("like", (pattern,))
    if isinstance(pred, InList) and all(isinstance(i, Scalar) for i in pred.items):
        comparator = "not in" if pred.negated else "in"
        operands = tuple(_check_literal(i) for i in pred.items)  # type: ignore[arg-type]
        return conv(pred.expr), FilterCondition(comparator, operands)
    if isinstance(pred, IsNull):
        comparator = "is not null" if pred.negated else "is null"
        return conv(pred.expr), FilterCondition(comparator)
    if isinstance(pred, (Not, Between, LikePred)):
        raise UnsupportedSqlError("negated predicate forms are unsupported")
    if isinstance(pred, InList):
        raise UnsupportedSqlError("IN with a subquery is unsupported")
    # disjunctions and column-to-column comparisons become opaque compounds
    _reject_subqueries(pred)
    element = _first_column_expr(pred, conv)
    _witness_predicate(pred, conv)
    text = sqlast.canonical_predicate(pred, d)
    return element, FilterCondition("compound", (), compound_text=text)


def _first_column_expr(pred: Predicate, conv) -> Expr:
    for expr in sqlast.pred_exprs(pred):
        cols = _sql_columns(expr)
        if cols:
            return conv(cols[0])
    raise UnsupportedSqlError("predicate references no column")


def _witness_predicate(pred: Predicate, conv) -> None:
    for expr in sqlast.pred_exprs(pred):
        for col in _sql_columns(expr):
            conv(col)


def _reject_subqueries(pred: Predicate) -> None:
    for expr in sqlast.pred_exprs(pred):
        if isinstance(expr, Subquery):
            raise UnsupportedSqlError("subqueries inside compound predicates")


def _sql_columns(expr: SqlExpr) -> list[Column]:
    if isinstance(expr, Column):
        return [expr]
    return [col for child in expr_children(expr) for col in _sql_columns(child)]


def _collect_aggregates(core: SelectCore) -> list[Func]:
    """Aggregate calls in select/having/orderby, first-appearance order."""
    seen: list[Func] = []

    def visit(expr: SqlExpr) -> None:
        if isinstance(expr, Func) and expr.name in _AGG_NAME_TO_KIND:
            if expr not in seen:
                seen.append(expr)
            return
        for child in expr_children(expr):
            visit(child)

    for item in core.items:
        visit(item.expr)
    if core.having is not None:
        for conjunct in flatten_and(core.having):
            for expr in sqlast.pred_exprs(conjunct):
                visit(expr)
    for order in core.order_by:
        visit(order.expr)
    return seen


# --- reversion ----------------------------------------------------------------

@dataclass
class _CoreState:
    wheres: list[tuple[Expr, FilterCondition]] = field(default_factory=list)
    group_by: tuple[Expr, ...] | None = None
    havings: list[tuple[Expr, FilterCondition]] = field(default_factory=list)
    order_by: list[tuple[Expr, str]] = field(default_factory=list)
    limit: tuple[int, int] | None = None  # (count, offset)
    distinct_element: Expr | None = None
    select: tuple[Expr, ...] | None = None

    def copy(self) -> "_CoreState":
        return _CoreState(list(self.wheres), self.group_by, list(self.havings),
                          list(self.order_by), self.limit, self.distinct_element,
                          self.select)


@dataclass
class _CombineState:
    op: str
    left: str
    right: str


def revert(t: Trajectory, d: DatabaseInput, dialect: str = "sqlite") -> SqlQuery:
    """Convert a trajectory back into a single SELECT statement."""
    errors = validate_trajectory(t, d).errors()
    if errors:
        raise SchemaMismatchError("; ".join(f.message for f in errors))
    states: dict[str, _CoreState | _CombineState] = {}
    for step in t.steps:
        if any(isinstance(a, Combine) for a in step.chain):
            if len(step.chain) != 1:
                raise InvalidChainError("a set operation must be the only action in its step")
            combine = step.chain[0]
            assert isinstance(combine, Combine)
            states[step.binding] = _CombineState(combine.op, step.receiver, combine.other.name)
            continue
        base = states.get(step.receiver)
        if isinstance(base, _CombineState):
            raise InvalidChainError("cannot chain actions after a set operation")
        state = base.copy() if base is not None else _CoreState()
        for action in step.chain:
            _apply_action(state, action)
        states[step.binding] = state
    ast = _materialize(states, "res", d)
    return SqlQuery(text=sqlast.render_sql(ast, dialect), ast=ast, dialect=dialect)


def _apply_action(state: _CoreState, action: Action) -> None:
    if isinstance(action, Where):
        state.wheres.append((action.element, action.condition))
    elif isinstance(action, GroupBy):
        if state.group_by is not None:
            raise InvalidChainError("more than one groupby on the same frame")
        state.group_by = action.elements
    elif isinstance(action, AggStep):
        if state.group_by is None:
            raise InvalidChainError("aggregate chained without a groupby")
    elif isinstance(action, Having):
        if state.group_by is None:
            raise InvalidChainError("having without a groupby")
        state.havings.append((action.element, action.condition))
    elif isinstance(action, OrderBy):
        state.order_by.append((action.by, action.order))
    elif isinstance(action, Limit):
        if state.limit is not None:
            raise InvalidChainError("more than one limit on the same frame")
        state.limit = (action.count, action.offset)
    elif isinstance(action, Distinct):
        if state.distinct_element is not None:
            raise InvalidChainError("more than one distinct on the same frame")
        state.distinct_element = action.element
    elif isinstance(action, Select):
        if state.select is not None:
            raise InvalidChainError("more than one select on the same frame")
        state.select = action.elements
    else:  # CastStep / SubstrStep have no standalone SQL clause
        raise InvalidChainError(f"{action.name}(...) cannot stand alone in a step")


def _materialize(states: dict[str, _CoreState | _CombineState], binding: str,
                 d: DatabaseInput) -> SelectNode:
    state = states.get(binding)
    if state is None:
        raise InvalidChainError(f"binding {binding!r} is undefined")
    if isinstance(state, _CombineState):
        left = _materialize(states, state.left, d)
        right = _materialize(states, state.right, d)
        if isinstance(right, SetOp):
            raise InvalidChainError("set operation operand must be a plain select")
        return SetOp(state.op, left, right)
    return _materialize_core(states, state, d)


def _materialize_core(states: dict[str, _CoreState | _CombineState],
                      state: _CoreState, d: DatabaseInput) -> SelectCore:
    if state.select is None:
        raise InvalidChainError("frame is never select()ed")
    items = tuple(SelectItem(_to_sql_expr(e)) for e in state.select)
    where = _conditions_to_pred(states, state.wheres, d)
    having = _conditions_to_pred(states, state.havings, d)
    group_by = tuple(_to_sql_expr(e) for e in (state.group_by or ()))
    order_by = tuple(OrderItem(_to_sql_expr(e), direction) for e, direction in state.order_by)
    distinct = state.distinct_element is not None
    limit, offset = (state.limit if state.limit is not None else (None, 0))
    core = SelectCore(items=items, distinct=distinct, where=where, group_by=group_by,
                      having=having, order_by=order_by, limit=limit, offset=offset)
    tables = _witnessed_tables(core)
    from_tables, joins = _synthesize_from(tables, d)
    return replace(core, tables=from_tables, joins=joins)


def _conditions_to_pred(states: dict, pairs: list[tuple[Expr, FilterCondition]],
                        d: DatabaseInput) -> Predicate | None:
    preds = [_condition_to_pred(states, element, cond, d) for element, cond in pairs]
    if not preds:
        return None
    return preds[0] if len(preds) == 1 else And(tuple(preds))


def _condition_to_pred(states: dict, element: Expr, cond: FilterCondition,
                       d: DatabaseInput) -> Predicate:
    if cond.comparator == "compound":
        assert cond.compound_text is not None
        return sqlast.parse_predicate(cond.compound_text)
    left = _to_sql_expr(element)
    if cond.comparator in ("is null", "is not null"):
        return IsNull(left, negated=(cond.comparator == "is not null"))
    if cond.comparator == "between":
        lo, hi = (_operand_to_sql(states, op, d) for op in cond.operands)
        return Between(left, lo, hi)
    if cond.comparator == "like":
        return LikePred(left, _operand_to_sql(states, cond.operands[0], d))
    if cond.comparator in ("in", "not in"):
        items = tuple(_operand_to_sql(states, op, d) for op in cond.operands)
        return InList(left, items, negated=(cond.comparator == "not in"))
    return Comparison(cond.comparator, left, _operand_to_sql(states, cond.operands[0], d))


def _operand_to_sql(states: dict, operand, d: DatabaseInput) -> SqlExpr:
    if isinstance(operand, BindingRef):
        node = _materialize(states, operand.name, d)
        if isinstance(node, SetOp):
            raise InvalidChainError("a subquery operand cannot be a set operation")
        if len(node.items) != 1:
            raise InvalidChainError("a subquery operand must select exactly one element")
        return Subquery(node)
    assert isinstance(operand, Scalar)
    return operand


def _to_sql_expr(expr: Expr) -> SqlExpr:
    return map_expr(expr, _sql_node)


def _sql_node(expr: Expr) -> SqlExpr | None:
    """The SQL form of a trajectory node with none of its own; None for a
    shared node, whose operands are converted."""
    if isinstance(expr, QualifiedColumn):
        return Column(expr.table, expr.column)
    if isinstance(expr, Aggregate):
        return Func(_KIND_TO_AGG_NAME[expr.kind], (_to_sql_expr(expr.arg),))
    if isinstance(expr, Substr):
        args: tuple[SqlExpr, ...] = (_to_sql_expr(expr.arg), Scalar(expr.start, "int"))
        if expr.length is not None:
            args += (Scalar(expr.length, "int"),)
        return Func("substr", args)
    return None


def _witnessed_tables(core: SelectCore) -> set[str]:
    """Tables referenced by the core's own expressions (subqueries excluded)."""
    exprs = [i.expr for i in core.items] + list(core.group_by) + [o.expr for o in core.order_by]
    for pred in (core.where, core.having):
        if pred is not None:
            exprs.extend(sqlast.pred_exprs(pred))
    return {col.table for expr in exprs for col in _sql_columns(expr) if col.table is not None}


def _synthesize_from(tables: set[str], d: DatabaseInput) -> tuple[tuple[TableRef, ...],
                                                                  tuple[Join, ...]]:
    if not tables:
        return (), ()
    ordered = sorted(tables)
    base, remaining = ordered[0], ordered[1:]
    joined = {base}
    joins: list[Join] = []
    edges = d.fk_edges()
    while remaining:
        attached = None
        for cand in remaining:
            linking = _edges_between(cand, joined, edges)
            if len(linking) > 1:
                raise JoinPathNotFoundError(
                    f"multiple foreign-key edges connect {cand!r}; join is ambiguous")
            if linking:
                child, ccol, parent, pcol = linking[0]
                joins.append(Join(TableRef(cand),
                                  Comparison("=", Column(child, ccol), Column(parent, pcol)),
                                  "inner"))
                attached = cand
                break
        if attached is None:
            raise JoinPathNotFoundError(
                f"no foreign-key path connects {sorted(remaining)} to {sorted(joined)}")
        joined.add(attached)
        remaining.remove(attached)
    return (TableRef(base),), tuple(joins)


def _edges_between(cand: str, joined: set[str],
                   edges: list[tuple[str, str, str, str]]) -> list[tuple[str, str, str, str]]:
    out = []
    for child, ccol, parent, pcol in edges:
        if (child == cand and parent in joined) or (parent == cand and child in joined):
            out.append((child, ccol, parent, pcol))
    return sorted(set(out))


# --- round trip ------------------------------------------------------------------

def round_trip(s: SqlQuery, d: DatabaseInput) -> RoundTripReport:
    """Decompose, revert, and compare canonical forms; failures are verdicts."""
    if s.ast is None:
        return RoundTripReport(s, None, None, UNSUPPORTED,
                               reason=s.parse_error or "query does not parse")
    try:
        t = decompose(s, d)
        reverted = revert(t, d, s.dialect)
    except BRIDGE_ERRORS as exc:
        return RoundTripReport(s, None, None, UNSUPPORTED, reason=str(exc))
    original_canon = canonicalize(s, d)
    reverted_canon = canonicalize(reverted, d)
    if original_canon == reverted_canon:
        return RoundTripReport(s, t, reverted, PASS)
    diff = "\n".join(difflib.unified_diff(
        [original_canon], [reverted_canon], fromfile="original", tofile="reverted",
        lineterm=""))
    return RoundTripReport(s, t, reverted, CANONICAL_MISMATCH, diff=diff)
