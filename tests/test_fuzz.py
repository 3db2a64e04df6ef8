"""Whatever text reaches a parser, or a mask template the filler, it ends as
a SqlStepsError or a value; and every tree a parser accepts is at most
MAX_DEPTH levels high."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlsteps.actions import action_exprs, expr_children
from sqlsteps.bridge import decompose
from sqlsteps.errors import SqlStepsError, TrajectorySyntaxError, UnknownActionError
from sqlsteps.masking import fill_mask, mask_schema, parse_masked_template, recover_slot_values
from sqlsteps.querygen import random_queries, store_database
from sqlsteps.schema import parse_database_text, render_database_input
from sqlsteps.sqlast import (
    MAX_DEPTH,
    And,
    Between,
    Comparison,
    InList,
    IsNull,
    LikePred,
    Not,
    Or,
    SelectCore,
    SetOp,
    Subquery,
    parse_sql,
    pred_exprs,
)
from sqlsteps.trajectory import parse_filter_text, parse_trajectory, render_trajectory

PARSERS = (parse_sql, parse_trajectory, parse_filter_text, parse_database_text,
           parse_masked_template)

# quotes, brackets, operators, `-`, a digit outside the number grammar (`²`),
# non-ASCII letters, and pieces of each grammar
PIECES = (list("'\"`[]()=<>!|+-*/.,;# \t\n0123456789eE_xé²") +
          ["ß", "İ", "ı", "Ж", "--", "''", "<>", "||", "df1", "res", " = ", "[MASK:0]",
           "[MASK:1]", "select ", "where(", "between 1 and 2", "is not null", "column ", "table "])


STORE = store_database()
# every store column, and a column and a table the store lacks
COLUMNS = ([f"{table.name}.{column.name}" for table in STORE.tables for column in table.columns]
           + ["customers.nope", "nope.id"])


QUERIES = random_queries(20, 11)
TRAJECTORIES = [decompose(parse_sql(q), STORE) for q in QUERIES[:8]]
TEMPLATES = [mask_schema(t).template for t in TRAJECTORIES]
SOURCES = [*QUERIES, *(render_trajectory(t) for t in TRAJECTORIES), *TEMPLATES,
           render_database_input(STORE), "in (1, 'a,b', (2, 3))", "between '2020-01-01' and 5",
           "like 'x''y'"]

_random_text = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
_edit = st.tuples(st.floats(0, 1), st.integers(0, 2), st.sampled_from(PIECES))


@st.composite
def _mutated(draw, texts: list[str] = SOURCES) -> str:
    """One of `texts` with a few pieces inserted, replaced or deleted."""
    text = draw(st.sampled_from(texts))
    for where, kind, piece in draw(st.lists(_edit, min_size=1, max_size=4)):
        i = int(where * len(text))
        text = text[:i] + ("" if kind == 2 else piece) + text[i + (kind > 0):]
    return text


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(_random_text, _mutated()))
def test_parsers_raise_only_sqlsteps_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except SqlStepsError:
            pass


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(_random_text, _mutated()))
@example("df1 = df.where(element = t.a, filter = 'in (''a''b)')\nres = df1.select(t.a)")
def test_trajectory_errors_name_a_place_in_the_text(text):
    try:
        parse_trajectory(text)
    except (TrajectorySyntaxError, UnknownActionError) as exc:
        lines = text.splitlines() or [""]
        assert 1 <= exc.line <= len(lines)
        if isinstance(exc, TrajectorySyntaxError):
            assert 1 <= exc.column <= max(1, len(lines[exc.line - 1]))
    except SqlStepsError:
        pass


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(_random_text, _mutated()), data=st.data())
def test_fill_mask_raises_only_sqlsteps_errors(text, data):
    try:
        masked = parse_masked_template(text)
    except SqlStepsError:
        return
    values = data.draw(st.lists(st.sampled_from(COLUMNS), min_size=len(masked.slots),
                                max_size=len(masked.slots)))
    try:
        fill_mask(masked, values, STORE)
    except SqlStepsError:
        pass


@settings(max_examples=500, deadline=None)
@given(template=st.one_of(st.sampled_from(TEMPLATES), _mutated(TEMPLATES)),
       source=st.one_of(st.sampled_from(SOURCES), _mutated()))
@example("res = df.select([MASK:1])\n", "res = df.select(customers.id)\n")
@example("res = df.select([MASK:0], [MASK:0])\n", "res = df.select(customers.id, customers.id)\n")
def test_recover_slot_values_raises_only_sqlsteps_errors(template, source):
    try:
        recover_slot_values(template, source)
    except SqlStepsError:
        pass


# --- tree height -------------------------------------------------------------------

def _height(node) -> int:
    """Levels below `node`, by the rules of the `BoundedParser` docstring: a
    call, cast, NOT, unary minus, subquery or IN list opens one level below
    its context, an operator node (a set operation included) sits one level
    above the higher of its sides, an AND/OR list one above its highest item,
    and a comparison and a SELECT core sit at the level of what they hold."""
    if isinstance(node, SetOp):
        return 1 + max(_height(node.left), _height(node.right))
    if isinstance(node, SelectCore):
        parts = [*(i.expr for i in node.items), *(j.on for j in node.joins), node.where,
                 *node.group_by, node.having, *(o.expr for o in node.order_by)]
        return max(_height(part) for part in parts if part is not None)
    if isinstance(node, (And, Or)):
        return 1 + max(map(_height, node.items))
    if isinstance(node, Not):
        return 1 + _height(node.item)
    if isinstance(node, InList):
        return max(_height(node.expr), 1 + max(map(_height, node.items)))
    if isinstance(node, (Comparison, Between, LikePred, IsNull)):
        return max(map(_height, pred_exprs(node)))
    if isinstance(node, Subquery):
        return 1 + _height(node.core)
    children = expr_children(node)
    return 1 + max(map(_height, children)) if children else 0


# operands by their height, and what joins two of them
_SQL_OPERANDS = {
    "product": lambda h: " * ".join(["t.a"] * (h + 1)),
    "call": lambda h: "ABS(" * h + "t.a" + ")" * h,
    "cast": lambda h: "CAST(" * h + "t.a" + " AS VARCHAR(20))" * h,
    "subquery": lambda h: "(SELECT u.a FROM u WHERE u.b = " * h + "1" + ")" * h,
    "negation": lambda h: "-" * h + "t.a",
    "parenthesis": lambda h: "(" * h + "t.a" + ")" * h,
}
_SQL_JOINERS = [" + ", " - ", " * ", " / ", " AND t.a = ", " OR t.a = ", " AND NOT t.a = "]
_TRAJECTORY_OPERANDS = {
    "product": lambda h: " * ".join(["t.a"] * (h + 1)),
    "aggregate": lambda h: "max(" * h + "t.a" + ")" * h,
    "cast": lambda h: "cast(" * h + "t.a" + ", DECIMAL(10,2))" * h,
    "substr": lambda h: "substr(" * h + "t.a" + ", 1)" * h,
    "parenthesis": lambda h: "(" * h + "t.a" + ")" * h,
}


@st.composite
def _tall_chain(draw, operands: dict, joiners: list[str]) -> str:
    """Operands of heights up to past the limit, in a chain up to past its length."""
    operand = operands[draw(st.sampled_from(sorted(operands)))]
    heights = draw(st.lists(st.integers(0, MAX_DEPTH + 1), min_size=1, max_size=MAX_DEPTH + 2))
    text = operand(heights[0])
    for height in heights[1:]:
        text += draw(st.sampled_from(joiners)) + operand(height)
    return text


@settings(max_examples=300, deadline=None)
@given(chain=_tall_chain(_SQL_OPERANDS, _SQL_JOINERS), cores=st.integers(1, 4))
def test_accepted_sql_trees_are_at_most_max_depth_high(chain, cores):
    sql = " UNION ".join([f"SELECT t.a FROM t WHERE t.a = {chain}"] * cores)
    try:
        query = parse_sql(sql)
    except SqlStepsError:
        return
    assert _height(query.ast) <= MAX_DEPTH


@settings(max_examples=300, deadline=None)
@given(chain=_tall_chain(_TRAJECTORY_OPERANDS, [" + ", " - ", " * ", " / "]))
def test_accepted_trajectory_trees_are_at_most_max_depth_high(chain):
    text = f"df1 = df.where(element = {chain}, filter = '> 1')\nres = df1.select({chain})"
    try:
        trajectory = parse_trajectory(text)
    except SqlStepsError:
        return
    heights = [_height(expr) for step in trajectory.steps for action in step.chain
               for expr in action_exprs(action)]
    assert max(heights) <= MAX_DEPTH
