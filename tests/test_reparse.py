"""Parse after render: every SQL core and every trajectory the node types can
build renders to text that parses back to it, and every trajectory they
accept reverts to SQL that parses, unless its schema has no join path for it.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqlsteps.actions import (
    AGGREGATE_KINDS,
    Aggregate,
    AggStep,
    Arithmetic,
    BindingRef,
    Cast,
    Combine,
    Distinct,
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
)
from sqlsteps.bridge import revert
from sqlsteps.errors import (JoinPathNotFoundError, SchemaMismatchError, SqlSyntaxError,
                             TrajectorySyntaxError)
from sqlsteps.schema import ColumnDef, DatabaseInput, ForeignKey, TableDef
from sqlsteps.sqlast import (
    Between,
    Column,
    Comparison,
    InList,
    IsNull,
    Join,
    LikePred,
    Not,
    OrderItem,
    SelectCore,
    SelectItem,
    SetOp,
    Subquery,
    TableRef,
    canonical_predicate,
    parse_predicate,
    parse_sql,
    render_sql,
)
from sqlsteps.sqlast import And as SqlAnd
from sqlsteps.sqlast import Or as SqlOr
from sqlsteps.trajectory import parse_trajectory, render_trajectory

# --- shared pieces -------------------------------------------------------------

# text without a line break: trajectory text is one step per line, and the
# bridge lets no string literal with one into a trajectory
_LINE_FREE = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
                     max_size=8)
_SCALARS = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    _LINE_FREE,
    st.sampled_from(["2024-02-29", "it's", "''", "--", "a, b", "(x)", "df1", "= 1", "a and b",
                     "between 1 and 2", "is null", " x "]),
).map(Scalar.of)
# upper case, as the renderers write them
_TYPES = st.sampled_from(["INT", "INTEGER", "TEXT", "REAL", "FLOAT", "DATE", "VARCHAR(20)",
                          "DECIMAL(10,2)"])

# --- SQL -------------------------------------------------------------------------

# quotes, brackets, keywords, spaces, newlines and non-ASCII letters
_SQL_NAMES = st.one_of(
    st.sampled_from(["a", "t", "x_1", "select", "From", "null", "over", "a b", 'a"b',
                     "a`b", "[a]", "é", "Ж", "a\nb", "ß", '"', "`"]),
    st.text(alphabet="aZ_0 \n\"'`[]éßЖİ", min_size=1, max_size=6),
)
# lower case, as the parser stores them; the renderer writes them upper case
_FUNCS = st.sampled_from(["count", "sum", "avg", "min", "max", "abs", "lower", "round",
                          "substr", "coalesce"])


_SQL_EXPRS = st.recursive(
    st.one_of(st.builds(Column, st.none() | _SQL_NAMES, _SQL_NAMES), _SCALARS,
              st.sampled_from([Func("count", (Star(),)), Func("count", (Star(),), True)])),
    lambda inner: st.one_of(
        st.builds(Arithmetic, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
        st.builds(Func, _FUNCS, st.lists(inner, min_size=1, max_size=2).map(tuple),
                  st.booleans()),
        st.builds(Cast, inner, _TYPES),
    ), max_leaves=3)
_COMPARATORS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def _predicates(subquery: st.SearchStrategy) -> st.SearchStrategy:
    exprs = _SQL_EXPRS
    atoms = st.one_of(
        st.builds(Comparison, _COMPARATORS, exprs, exprs | subquery),
        st.builds(Between, exprs, exprs, exprs, st.booleans()),
        st.builds(InList, exprs, st.lists(exprs, min_size=1, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(InList, exprs, subquery.map(lambda s: (s,)), st.booleans()),
        st.builds(LikePred, exprs, exprs, st.booleans()),
        st.builds(IsNull, exprs, st.booleans()),
    )
    return st.recursive(atoms, lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda items: SqlAnd(tuple(items))),
        st.lists(inner, min_size=2, max_size=3).map(lambda items: SqlOr(tuple(items))),
        st.builds(Not, inner),
    ), max_leaves=3)


_TABLES = st.builds(TableRef, _SQL_NAMES, st.none() | _SQL_NAMES)
_JOIN_KINDS = st.sampled_from(["inner", "left", "right", "full", "cross"])


@st.composite
def _cores(draw, subquery: st.SearchStrategy, preds: st.SearchStrategy) -> SelectCore:
    """A core with its subqueries drawn from `subquery`, in a select item or in
    a predicate of `preds`."""
    exprs = _SQL_EXPRS
    items = draw(st.lists(st.builds(SelectItem, st.one_of(exprs, st.just(Star()), subquery),
                                    st.none() | _SQL_NAMES), min_size=1, max_size=2))
    tables = draw(st.lists(_TABLES, max_size=2))
    joins = draw(st.lists(st.builds(Join, _TABLES, preds, _JOIN_KINDS), max_size=1)) \
        if tables else []
    limit = draw(st.none() | st.integers(0, 10**6))
    return SelectCore(
        items=tuple(items),
        distinct=draw(st.booleans()),
        tables=tuple(tables),
        joins=tuple(joins),
        where=draw(st.none() | preds),
        group_by=tuple(draw(st.lists(exprs, max_size=1))),
        having=draw(st.none() | preds),
        order_by=tuple(draw(st.lists(st.builds(OrderItem, exprs,
                                                st.sampled_from(["asc", "desc"])),
                                      max_size=1))),
        limit=limit,
        offset=draw(st.integers(0, 100)) if limit is not None else 0,
    )


_INNER_CORES = _cores(st.nothing(), _predicates(st.nothing()))
_SUBQUERIES = _INNER_CORES.map(Subquery)
_SQL_CORES = _cores(_SUBQUERIES, _predicates(_SUBQUERIES))
_SET_OPS = st.sampled_from(["union", "union all", "intersect", "except"])
_SQL_NODES = st.one_of(
    _SQL_CORES,
    st.builds(SetOp, _SET_OPS, _INNER_CORES, _INNER_CORES),
    st.builds(SetOp, _SET_OPS, st.builds(SetOp, _SET_OPS, _INNER_CORES, _INNER_CORES),
              _INNER_CORES),
)


@settings(max_examples=100, deadline=None)
@given(node=_SQL_NODES)
def test_sql_parses_back_to_what_rendered_it(node):
    assert parse_sql(render_sql(node)).ast == node


# --- trajectories -------------------------------------------------------------------

_TRAJ_NAMES = st.one_of(
    st.sampled_from(["t", "a", "select", "df1", "res", "sum", "asc", "by", "a b", "x_1"]),
    st.from_regex(r"[A-Za-z_]([A-Za-z0-9_ ]{0,5}[A-Za-z0-9_])?", fullmatch=True),
)
_COLUMNS = st.builds(QualifiedColumn, _TRAJ_NAMES, _TRAJ_NAMES)
_AGGREGATES = st.sampled_from(AGGREGATE_KINDS)


def _traj_exprs(aggregate: bool) -> st.SearchStrategy:
    """Expressions with no aggregate inside an aggregate, and none at all
    unless `aggregate`."""
    plain = st.recursive(st.one_of(_COLUMNS, _SCALARS), lambda inner: st.one_of(
        st.builds(Arithmetic, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
        st.builds(Cast, inner, _TYPES),
        st.builds(Substr, inner, st.integers(-5, 50), st.none() | st.integers(-5, 50)),
    ), max_leaves=4)
    if not aggregate:
        return plain
    aggregates = st.one_of(st.builds(Aggregate, _AGGREGATES, plain),
                           st.just(Aggregate("count", Star())))
    return st.one_of(plain, aggregates, st.builds(Arithmetic, st.sampled_from(["+", "*"]),
                                                  aggregates, plain))


def _operands(bound: list[str]) -> st.SearchStrategy:
    refs = [BindingRef(b) for b in bound]
    return st.one_of(_SCALARS, st.sampled_from(refs)) if refs else _SCALARS


def _conditions(bound: list[str]) -> st.SearchStrategy:
    operand = _operands(bound)
    return st.one_of(
        st.builds(FilterCondition, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                  operand.map(lambda op: (op,))),
        st.builds(FilterCondition, st.sampled_from(["in", "not in"]),
                  st.lists(operand, min_size=1, max_size=3).map(tuple)),
        st.builds(FilterCondition, st.just("between"),
                  st.tuples(operand, operand).filter(
                      lambda ops: not all(isinstance(op, Scalar) for op in ops)
                      or ops[0].kind == ops[1].kind)),
        # a like pattern is a string scalar, as the bridge builds it
        st.builds(FilterCondition, st.just("like"),
                  _LINE_FREE.map(lambda s: (Scalar(s, "string"),))),
        st.builds(FilterCondition, st.sampled_from(["is null", "is not null"])),
        st.builds(FilterCondition, st.just("compound"), st.just(()),
                  _COMPOUND_PREDICATES.map(canonical_predicate)),
    )


def _traj_predicates(exprs: st.SearchStrategy) -> st.SearchStrategy:
    """Predicate trees over trajectory expressions, as a compound condition
    holds them."""
    atoms = st.one_of(
        st.builds(Comparison, _COMPARATORS, exprs, exprs),
        st.builds(Between, exprs, exprs, exprs, st.booleans()),
        st.builds(InList, exprs, st.lists(exprs, min_size=1, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(LikePred, exprs, exprs, st.booleans()),
        st.builds(IsNull, exprs, st.booleans()),
    )
    return st.recursive(atoms, lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda items: SqlAnd(tuple(items))),
        st.lists(inner, min_size=2, max_size=3).map(lambda items: SqlOr(tuple(items))),
        st.builds(Not, inner),
    ), max_leaves=4)


_COMPOUND_PREDICATES = _traj_predicates(_traj_exprs(aggregate=True))


_EXPRS = _traj_exprs(aggregate=True)
_SELECTS = st.builds(Select, st.lists(_EXPRS | st.just(Star()), min_size=1, max_size=3).map(tuple))
_ONCE = {
    Select: _SELECTS,
    GroupBy: st.builds(GroupBy, st.lists(_EXPRS, min_size=1, max_size=2).map(tuple)),
    Limit: st.builds(Limit, st.integers(1, 10**6), st.integers(0, 100)),
    Distinct: st.builds(Distinct, _EXPRS),
}
_AGG_STEPS = st.builds(AggStep, st.builds(Aggregate, _AGGREGATES, _traj_exprs(aggregate=False)))
_ORDER_BYS = st.builds(OrderBy, _EXPRS, st.sampled_from(["asc", "desc"]))


def _actions(held: set, operands: list[str]) -> st.SearchStrategy:
    """The actions a frame holding the once-only actions `held` can take,
    with filter operands from `operands`."""
    options = [strategy for kind, strategy in _ONCE.items() if kind not in held]
    options += [st.builds(Where, _EXPRS, _conditions(operands)), _ORDER_BYS]
    if GroupBy in held:
        options += [st.builds(Having, _EXPRS, _conditions(operands)), _AGG_STEPS]
    if operands:  # a comparison with a subquery, as `decompose` builds one
        refs = st.sampled_from(operands).map(lambda b: (BindingRef(b),))
        options += [st.builds(Where, _EXPRS, st.builds(FilterCondition, _COMPARATORS, refs)),
                    st.builds(Where, _EXPRS, _conditions(operands))]
    return st.one_of(options)


@st.composite
def _trajectories(draw) -> Trajectory:
    """Every action, on chains that form one SQL query: a step is either a set
    operation alone, over a select()ed frame or another set operation on its
    left and a select()ed frame on its right, or actions chained onto its
    receiver's frame, each once-only action at most once. A filter operand
    is a frame selecting one element, and `res` is select()ed."""
    count = draw(st.integers(1, 4))
    # binding -> the once-only actions of its frame, None for a set operation
    held: dict[str, set | None] = {"df": set()}
    width: dict[str, int] = {"df": 0}  # binding -> select elements of its frame
    steps = []
    for index in range(count):
        binding = "res" if index == count - 1 else f"df{index + 1}"
        cores = [b for b in width if width[b] and held[b] is not None]
        lefts = cores + [b for b in held if held[b] is None]
        if cores and draw(st.booleans()):
            op = draw(st.sampled_from(["union", "intersect", "except"]))
            steps.append(TrajectoryStep(binding, draw(st.sampled_from(lefts)),
                                        (Combine(op, BindingRef(draw(st.sampled_from(cores)))),)))
            held[binding], width[binding] = None, 0
            continue
        receiver = draw(st.sampled_from([b for b in held if held[b] is not None]))
        operands = [b for b in cores if width[b] == 1]
        frame, chain, selected = set(held[receiver]), [], width[receiver]
        for _ in range(draw(st.integers(1, 3))):
            chain.append(draw(_actions(frame, operands)))
            frame.add(type(chain[-1]))
            if isinstance(chain[-1], Select):
                selected = len(chain[-1].elements)
        if not selected and (binding == "res" or draw(st.booleans())):  # or a filter operand
            chain.append(draw(_SELECTS if binding == "res" else _EXPRS.map(lambda e: Select((e,)))))
            frame.add(Select)
            selected = len(chain[-1].elements)
        held[binding], width[binding] = frame, selected
        steps.append(TrajectoryStep(binding, receiver, tuple(chain)))
    return Trajectory(tuple(steps))


@settings(max_examples=100, deadline=None)
@given(t=_trajectories())
def test_trajectory_parses_back_to_what_rendered_it(t):
    assert parse_trajectory(render_trajectory(t)) == t


_ELEMENT = QualifiedColumn("t", "a")


@settings(max_examples=200, deadline=None)
@given(cond=_conditions(["df1"]))
def test_condition_parses_back_to_what_rendered_it(cond):
    t = Trajectory((TrajectoryStep("df1", "df", (Select((_ELEMENT,)),)),
                    TrajectoryStep("res", "df", (Where(_ELEMENT, cond), Select((_ELEMENT,))))))
    assert parse_trajectory(render_trajectory(t)).steps[1].chain[0].condition == cond


def _schema_of(t: Trajectory) -> DatabaseInput:
    """A database holding every column of `t`, whose first table (by name)
    every other table refers to."""
    columns: dict[str, dict[str, None]] = {}
    for col in t.columns():
        columns.setdefault(col.table, {})[col.column] = None
    names = sorted(columns)
    return DatabaseInput("d", tuple(
        TableDef(name, tuple(ColumnDef(c, "int") for c in [*columns[name], "ref"]),
                 (ForeignKey("ref", names[0], "id"),) if name != names[0] else ())
        for name in names))


@settings(max_examples=200, deadline=None)
@given(t=_trajectories())
def test_accepted_trajectory_reverts_to_sql_that_parses(t):
    try:
        reverted = revert(t, _schema_of(t))
    except (SchemaMismatchError, JoinPathNotFoundError):
        return
    assert parse_sql(reverted.text).ast is not None


_PREDICATE_TEXT = st.text(alphabet="ab.=<>() ,'-+*1nOtRaNDsel", max_size=14)


@settings(max_examples=300, deadline=None)
@given(inner=_PREDICATE_TEXT)
def test_text_in_parentheses_that_is_no_predicate_is_a_syntax_error(inner):
    text = f"({inner})"
    try:
        parse_predicate(text)
        assume(False)
    except SqlSyntaxError:
        pass
    head = "res = df.where(element = t.a, filter = "
    quoted = "'" + text.replace("'", "''") + "'"
    with pytest.raises(TrajectorySyntaxError) as exc:
        parse_trajectory(f"{head}{quoted}).select(t.a)")
    assert (exc.value.line, exc.value.column) == (1, len(head) + 1)
