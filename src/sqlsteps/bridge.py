"""SQL to trajectory decomposition, reversion, and round-trip verification.

The conversion covers one SELECT core (plus set-operation chains and scalar
non-correlated subqueries in WHERE comparisons). The implicit `df` denotes
the natural join of every table a step references; reversion resynthesizes
the FROM clause along foreign-key edges of the database input. Anything the
action vocabulary cannot express raises UnsupportedSqlError rather than
converting approximately.

Which action chains form a SQL query is a rule of the trajectory types
(`actions.check_bindings`), so every `Trajectory` has a reversion; `revert`
raises for what needs the schema: an unknown table or column
(SchemaMismatchError) and a join with no foreign-key path
(JoinPathNotFoundError). A compound filter condition (an OR, or a
comparison of one column with another) holds its predicate tree, whose
columns, levels and subqueries the types check like any other expression's,
so the same holds for it.

`decompose` raises each core's first error in clause order, subquery cores
included. In both directions a subquery stands only as the whole operand of
a WHERE comparison, never inside a compound condition.
"""

from __future__ import annotations

import difflib

from . import sqlast
from .actions import (
    SQL_AGGREGATES,
    Action,
    AggStep,
    Aggregate,
    And,
    Between,
    BindingRef,
    Combine,
    Comparison,
    Distinct,
    Expr,
    FilterCondition,
    Func,
    GroupBy,
    Having,
    InList,
    IsNull,
    LikePred,
    Limit,
    Not,
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
    binding_name,
    expr_children,
    record,
    walk_columns,
)
from .errors import (
    BRIDGE_ERRORS,
    BindingError,
    JoinPathNotFoundError,
    SchemaMismatchError,
    UnsupportedSqlError,
)
from .schema import DatabaseInput, FkEdge, FromClause
from .trajectory import (_AGG_NAME_TO_KIND, _check_literal, _Converter, _ToTrajectory,
                         validate_trajectory)
from .sqlast import (
    Column,
    Join,
    OrderItem,
    SelectCore,
    SelectItem,
    SelectNode,
    SetOp,
    SqlExpr,
    SqlQuery,
    TableRef,
    canonicalize,
    flatten_and,
)

PASS = "pass"
CANONICAL_MISMATCH = "canonical_mismatch"
UNSUPPORTED = "unsupported"

@record()
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
        return binding_name(self.n)


# --- decomposition ---------------------------------------------------------

def decompose(s: SqlQuery, d: DatabaseInput) -> Trajectory:
    """Convert a parsed SQL query into its stepwise action trajectory."""
    ast = sqlast._require_ast(s)
    namer = _Namer()
    steps: list[TrajectoryStep] = []
    try:  # a value or a chain the types reject, e.g. a subquery of two elements
        _decompose_node(ast, d, namer, steps, bind="res")
        return Trajectory(tuple(steps))
    except (ValueError, BindingError) as exc:
        raise UnsupportedSqlError(str(exc)) from exc


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
                    outer_tables: frozenset[str] = frozenset()) -> str:
    _check_core_shape(core, d)
    core = sqlast.normalize_core(core, d, _strict_column(d, outer_tables))
    core = sqlast.expand_select_star(core, d)
    declared = {t.name for t in core.tables} | {j.table.name for j in core.joins}
    conv = _ToTrajectory(d)
    receiver = "df"
    if core.where is not None:
        scope = outer_tables | declared
        for conjunct in flatten_and(core.where):
            element, cond = _conjunct_to_filter(conjunct, d, namer, steps, conv, scope)
            binding = namer.next()
            steps.append(TrajectoryStep(binding, receiver, (Where(element, cond),)))
            receiver = binding
    if core.group_by:
        chain: list[Action] = [GroupBy(tuple([conv(e) for e in core.group_by]))]
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
                                (Select(tuple([conv(i.expr) for i in core.items])),)))
    missing = declared - conv.tables
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
    if sqlast.has_star(core.items) and not names:
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
    a = (left.table, left.column, right.table, right.column)
    b = (right.table, right.column, left.table, left.column)
    if a not in d.edge_set and b not in d.edge_set:
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
        return sqlast.column(owners[0], col.column)
    return column


def _conjunct_to_filter(pred: Predicate, d: DatabaseInput, namer: _Namer,
                        steps: list[TrajectoryStep], conv,
                        scope: frozenset[str] | set[str]) -> tuple[Expr, FilterCondition]:
    pred = sqlast._normalize_comparison(pred)
    if isinstance(pred, Comparison) and isinstance(pred.right, Subquery):
        if isinstance(pred.left, Subquery):
            raise UnsupportedSqlError("subquery-to-subquery comparisons are unsupported")
        sub_binding = _decompose_core(pred.right.core, d, namer, steps, None, frozenset(scope))
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
    if isinstance(pred, InList) and all([isinstance(i, Scalar) for i in pred.items]):
        comparator = "not in" if pred.negated else "in"
        operands = tuple([_check_literal(i) for i in pred.items])  # type: ignore[arg-type]
        return conv(pred.expr), FilterCondition(comparator, operands)
    if isinstance(pred, IsNull):
        comparator = "is not null" if pred.negated else "is null"
        return conv(pred.expr), FilterCondition(comparator)
    if isinstance(pred, (Not, Between, LikePred)):
        raise UnsupportedSqlError("negated predicate forms are unsupported")
    if isinstance(pred, InList):
        raise UnsupportedSqlError("IN with a subquery is unsupported")
    # disjunctions and column-to-column comparisons become compound
    # conditions, whose element is their first column
    converted = conv.predicate(pred)
    cond = FilterCondition("compound", (), sqlast.canonical_predicate(converted))
    columns: list[QualifiedColumn] = []
    walk_columns(converted, columns)
    if not columns:
        raise UnsupportedSqlError("predicate references no column")
    return columns[0], cond


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
        visit(core.having)
    for order in core.order_by:
        visit(order.expr)
    return seen


# --- reversion ----------------------------------------------------------------

def revert(t: Trajectory, d: DatabaseInput) -> SqlQuery:
    """Convert a trajectory back into a single SELECT statement."""
    errors = validate_trajectory(t, d)
    if errors:
        raise SchemaMismatchError("; ".join(errors))
    return _revert(t, d)


def _revert(t: Trajectory, d: DatabaseInput) -> SqlQuery:
    """`revert` of a trajectory whose tables and columns are known to be in `d`."""
    # binding -> the actions of its frame in order, or a set operation's step,
    # which the types let stand only alone
    frames: dict[str, tuple[Action, ...] | TrajectoryStep] = {"df": ()}
    for step in t.steps:
        frames[step.binding] = step if isinstance(step.chain[0], Combine) \
            else frames[step.receiver] + step.chain
    ast = _materialize(frames, "res", d)
    return SqlQuery(text=sqlast.render_sql(ast), ast=ast)


def _materialize(frames: dict, binding: str, d: DatabaseInput) -> SelectNode:
    frame = frames[binding]
    if isinstance(frame, TrajectoryStep):
        combine = frame.chain[0]
        return SetOp(combine.op, _materialize(frames, frame.receiver, d),
                     _materialize_core(frames, frames[combine.other.name], d))
    return _materialize_core(frames, frame, d)


def _materialize_core(frames: dict, actions: tuple[Action, ...], d: DatabaseInput) -> SelectCore:
    """The core of a frame, which by the types holds one select and at most one
    groupby, limit and distinct; an aggregate step adds nothing, as its
    aggregate stands where the core uses it."""
    once = {type(action): action for action in actions}
    # collects the tables the core's own expressions reference (subqueries excluded)
    conv = _ToSql(d)
    select = tuple([SelectItem(conv(e)) for e in once[Select].elements])
    where = _conditions_to_pred(frames, [a for a in actions if type(a) is Where], d, conv)
    having = _conditions_to_pred(frames, [a for a in actions if type(a) is Having], d, conv)
    group_by = tuple([conv(e) for e in once[GroupBy].elements]) if GroupBy in once else ()
    order_by = tuple([OrderItem(conv(a.by), a.order) for a in actions if type(a) is OrderBy])
    limit = once.get(Limit)
    from_tables, joins = _synthesize_from(conv.tables, d)
    return SelectCore(select, Distinct in once, from_tables, joins, where, group_by, having,
                      order_by, limit.count if limit else None, limit.offset if limit else 0)


def _conditions_to_pred(frames: dict, filters: list[Where | Having], d: DatabaseInput,
                        conv: _ToSql) -> Predicate | None:
    preds = [_condition_to_pred(frames, f, d, conv) for f in filters]
    if not preds:
        return None
    return preds[0] if len(preds) == 1 else And(tuple(preds))


def _condition_to_pred(frames: dict, action: Where | Having, d: DatabaseInput,
                       conv: _ToSql) -> Predicate:
    cond = action.condition
    if cond.comparator == "compound":
        return conv(cond.predicate)
    left = conv(action.element)
    if cond.comparator in ("is null", "is not null"):
        return IsNull(left, negated=(cond.comparator == "is not null"))
    if cond.comparator == "between":
        lo, hi = (_operand_to_sql(frames, op, d) for op in cond.operands)
        return Between(left, lo, hi)
    if cond.comparator == "like":
        return LikePred(left, _operand_to_sql(frames, cond.operands[0], d))
    if cond.comparator in ("in", "not in"):
        items = tuple([_operand_to_sql(frames, op, d) for op in cond.operands])
        return InList(left, items, negated=(cond.comparator == "not in"))
    return Comparison(cond.comparator, left, _operand_to_sql(frames, cond.operands[0], d))


def _operand_to_sql(frames: dict, operand, d: DatabaseInput) -> SqlExpr:
    if isinstance(operand, BindingRef):  # by the types, a frame selecting one element
        return Subquery(_materialize_core(frames, frames[operand.name], d))
    return operand


class _ToSql(_Converter):
    __slots__ = ()

    def node(self, expr: Expr) -> SqlExpr | None:
        """The SQL form of a trajectory node with none of its own; None for a
        shared node, whose operands are converted."""
        if isinstance(expr, QualifiedColumn):
            self.tables.add(expr.table)
            return sqlast.column(expr.table, expr.column)
        if isinstance(expr, Aggregate):
            return Func(SQL_AGGREGATES[expr.kind], (self(expr.arg),))
        if isinstance(expr, Substr):
            args: tuple[SqlExpr, ...] = (self(expr.arg), Scalar(expr.start, "int"))
            if expr.length is not None:
                args += (Scalar(expr.length, "int"),)
            return Func("substr", args)
        return None


def _synthesize_from(tables: set[str], d: DatabaseInput) -> FromClause:
    """The FROM and JOIN clauses that join `tables` along foreign keys, built
    once per table set of `d`."""
    if not tables:
        return (), ()
    return d.from_clause(frozenset(tables), _join_path)


def _join_path(tables: frozenset[str], d: DatabaseInput) -> FromClause:
    ordered = sorted(tables)
    base, remaining = ordered[0], ordered[1:]
    joined = {base}
    joins: list[Join] = []
    while remaining:
        attached = None
        for cand in remaining:
            linking = _edges_between(cand, joined, d.edges)
            if len(linking) > 1:
                raise JoinPathNotFoundError(
                    f"multiple foreign-key edges connect {cand!r}; join is ambiguous")
            if linking:
                child, ccol, parent, pcol = linking[0]
                joins.append(Join(TableRef(cand), Comparison(
                    "=", sqlast.column(child, ccol), sqlast.column(parent, pcol)), "inner"))
                attached = cand
                break
        if attached is None:
            raise JoinPathNotFoundError(
                f"no foreign-key path connects {sorted(remaining)} to {sorted(joined)}")
        joined.add(attached)
        remaining.remove(attached)
    return (TableRef(base),), tuple(joins)


def _edges_between(cand: str, joined: set[str],
                   edges: tuple[FkEdge, ...]) -> list[FkEdge]:
    out = []
    for child, ccol, parent, pcol in edges:
        if (child == cand and parent in joined) or (parent == cand and child in joined):
            out.append((child, ccol, parent, pcol))
    return sorted(set(out))


# --- round trip ------------------------------------------------------------------

def round_trip(s: SqlQuery, d: DatabaseInput) -> RoundTripReport:
    """Decompose, revert, and compare canonical forms; failures are verdicts.

    A reverted tree equal (`==`) to the parsed one passes without either
    canonical form rendered: the reversion holds the query's own literals, so
    equal trees have equal forms (see `same_tree`). Its report then
    keeps one tree: the reverted query holds its own text and the parsed tree,
    and where that text is the query's own, it is the query itself.
    """
    if s.ast is None:
        return RoundTripReport(s, None, None, UNSUPPORTED,
                               reason=s.parse_error or "query does not parse")
    try:
        t = decompose(s, d)
        # decompose's strict resolver checked `t` against `d`: revert's check finds nothing
        reverted = _revert(t, d)
    except BRIDGE_ERRORS as exc:
        return RoundTripReport(s, None, None, UNSUPPORTED, reason=str(exc))
    if same_tree(s, reverted):
        kept = s if reverted.text == s.text else SqlQuery(reverted.text, s.ast)
        return RoundTripReport(s, t, kept, PASS)
    forms = canonical_mismatch(s, reverted, d)
    if forms is None:
        return RoundTripReport(s, t, reverted, PASS)
    diff = "\n".join(difflib.unified_diff(
        [forms[0]], [forms[1]], fromfile="original", tofile="reverted", lineterm=""))
    return RoundTripReport(s, t, reverted, CANONICAL_MISMATCH, diff=diff)


def same_tree(s: SqlQuery, reverted: SqlQuery) -> bool:
    """Whether the tree of `reverted` is `==` to the parsed tree of `s`, which
    gives both the same canonical form only when every literal of `reverted`
    has the value of the literal of `s` it stems from, sign included. The
    caller vouches for that, as `round_trip` does where `reverted` reverts
    `s`'s own decomposition: decompose and revert carry `s`'s `Scalar`
    objects over, those of a compound filter's predicate tree among them.
    `canonicalize` is a pure function of the tree and the schema,
    equal strings, ints, bools and node types render alike, and the only
    equal leaves that render differently are real zeros of opposite sign
    (`Scalar(-0.0, "real") == Scalar(0.0, "real")`, rendered `-0.0` and
    `0.0`), which a literal of the same value and sign rules out. So where
    this holds, `reverted` may hold `s`'s tree in place of its own.
    """
    return s.ast is not None and reverted.ast == s.ast


def canonical_mismatch(s: SqlQuery, reverted: SqlQuery,
                       d: DatabaseInput) -> tuple[str, str] | None:
    """The canonical forms of `s` and of its reversion when they differ; None
    when they are equal. Callers test `same_tree` first, which spares both
    renders where it holds."""
    original, back = canonicalize(s, d), canonicalize(reverted, d)
    return None if original == back else (original, back)
