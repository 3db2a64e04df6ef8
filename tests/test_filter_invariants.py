"""The invariants the round-trip filter's shortcuts rest on.

`round_trip` reverts the trajectory its own `decompose` built without
checking it against the schema again: every trajectory `decompose` accepts
has no schema error. Rewrites are copy-on-write, so normalizing a normal
core returns that very core. `normalize_core` returns an alias-free core
after a read-only check instead of a rebuild, and must answer as the rebuild
does: the same core, the same identity, the same error. The identifier tests
use `str.isidentifier` where a regex was used before, and must answer as the
regex did.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlsteps.actions import expr_children, valid_identifier
from sqlsteps.bridge import _strict_column, decompose, revert
from sqlsteps.errors import SchemaMismatchError, SqlStepsError
from sqlsteps.querygen import random_queries
from sqlsteps.sqlast import (KEYWORDS, SetOp, SqlQuery, Subquery, _clause_exprs, _lenient_column,
                             _q, _rebuild_core, normalize_core, parse_sql)
from sqlsteps.trajectory import parse_trajectory, validate_trajectory

from conftest import FIXTURES

# --- every trajectory decompose accepts passes the schema check ---------------

COLUMNS = {"customers": ("id", "name", "age", "city"),
           "orders": ("id", "customer_id", "total", "placed", "status"),
           "items": ("id", "order_id", "price", "qty", "product")}
# (joined-to table, joined table, ON condition over {0} and {1}, their names in the query)
JOINS = (("customers", "orders", "{1}.customer_id = {0}.id"),
         ("orders", "items", "{1}.order_id = {0}.id"))


@st.composite
def _core(draw, depth: int = 0) -> str:
    """A SELECT over one store table or a foreign-key join of two, whose
    columns are bare, qualified by table or alias, or unknown, with aggregates,
    `*`, COUNT(*), item aliases, compound filters and scalar subqueries."""
    join = draw(st.sampled_from((None, *JOINS)))
    tables = list(join[:2]) if join else [draw(st.sampled_from(sorted(COLUMNS)))]
    alias = {t: draw(st.sampled_from((None, t[0], "x"))) if len(tables) == 1
             else draw(st.sampled_from((None, t[0]))) for t in tables}
    name = {t: alias[t] or t for t in tables}

    def column() -> str:
        table = draw(st.sampled_from(tables))
        col = draw(st.sampled_from(COLUMNS[table] + ("nope",)))
        return draw(st.sampled_from((col, f"{name[table]}.{col}", f"{table}.{col}")))

    def item() -> str:
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return "*"
        if kind == 1:
            return "COUNT(*)"
        if kind == 2:
            return f"{draw(st.sampled_from(('MAX', 'SUM', 'COUNT')))}({column()})"
        return column() + draw(st.sampled_from(("", " AS a")))

    def condition() -> str:
        kind = draw(st.integers(0, 4 if depth == 0 else 3))
        if kind == 0:
            return f"{column()} > 3"
        if kind == 1:
            return f"{column()} IN ('a', 'b')"
        if kind == 2:
            return f"({column()} = 1 OR {column()} IS NULL)"
        if kind == 3:
            return f"{column()} = {column()}"
        return f"{column()} < ({draw(_core(depth + 1))})"

    refs = [t + (f" AS {alias[t]}" if alias[t] else "") for t in tables]
    sql = f"SELECT {', '.join(item() for _ in range(draw(st.integers(1, 3))))} FROM {refs[0]}"
    if join:
        sql += f" JOIN {refs[1]} ON " + join[2].format(name[join[0]], name[join[1]])
    if draw(st.booleans()):
        sql += " WHERE " + " AND ".join(condition() for _ in range(draw(st.integers(1, 2))))
    if draw(st.booleans()):
        sql += f" GROUP BY {column()}"
        if draw(st.booleans()):
            sql += " HAVING COUNT(*) > 1"
    if draw(st.booleans()):
        sql += f" ORDER BY {draw(st.sampled_from(('a', column())))} DESC"
    return sql + draw(st.sampled_from(("", " LIMIT 3")))


_queries = st.one_of(
    _core(),
    st.tuples(_core(), _core()).map(" UNION ".join),
    st.integers(0, 10_000).map(lambda seed: random_queries(1, seed)[0]))


@settings(max_examples=600, deadline=None)
@given(sql=_queries)
@example(sql="SELECT c.city, COUNT(*) FROM customers AS c GROUP BY c.city")
@example(sql="SELECT * FROM orders JOIN items ON items.order_id = orders.id")
def test_every_trajectory_decompose_accepts_has_no_schema_error(sql, store):
    try:
        t = decompose(parse_sql(sql), store)
    except SqlStepsError:
        return
    assert validate_trajectory(t, store) == []


def test_revert_still_checks_the_schema(store):
    t = parse_trajectory("res = df.select(customers.nope)\n")
    with pytest.raises(SchemaMismatchError, match="customers.nope"):
        revert(t, store)


# --- normalizing a normal core returns it ---------------------------------------

def _cores(node):
    while isinstance(node, SetOp):
        yield node.right
        node = node.left
    yield node


@settings(max_examples=300, deadline=None)
@given(sql=_queries)
def test_normalize_core_is_idempotent_and_returns_a_normal_core_itself(sql, store):
    for core in _cores(parse_sql(sql).ast):
        for d in (None, store):
            once = normalize_core(core, d, _lenient_column(d))
            assert normalize_core(once, d, _lenient_column(d)) is once
            assert normalize_core(core, d, _lenient_column(d)) == once
            aliases_only = normalize_core(core)
            assert normalize_core(aliases_only) is aliases_only


def test_normalize_core_keeps_a_qualified_core(store):
    core = parse_sql("SELECT orders.status FROM orders WHERE orders.total > 2 "
                     "ORDER BY orders.id").ast
    assert normalize_core(core, store, _lenient_column(store)) is core
    assert normalize_core(core) is core


# --- the read-only check answers as the rebuild does ------------------------------

RANDOM = [q for seed in (1, 7, 101) for q in random_queries(100, seed)]


def _all_cores(node):
    """Every core of a tree: set-operation operands and subquery cores too."""
    for core in _cores(node):
        yield core
        stack = list(_clause_exprs(core))
        while stack:
            expr = stack.pop()
            if isinstance(expr, Subquery):
                yield from _all_cores(expr.core)
            stack.extend(expr_children(expr))


def _outcome(normalize, core, d, column):
    try:
        out = normalize(core, d, column)
    except SqlStepsError as exc:
        return "error", type(exc), exc.args, vars(exc)
    return "core", out, out is core


def _check_against_rebuild(sql, d):
    query = SqlQuery.raw(sql)
    if query.ast is None:
        return
    resolvers = (None, _lenient_column(d), _lenient_column(None),
                 _strict_column(d, frozenset()), _strict_column(d, frozenset(COLUMNS)))
    for core in _all_cores(query.ast):
        for column in resolvers:
            args = (core, d, column)
            assert _outcome(normalize_core, *args) == _outcome(_rebuild_core, *args), sql


@settings(max_examples=400, deadline=None)
@given(sql=st.one_of(_queries, st.sampled_from(RANDOM)))
@example(sql="SELECT COUNT(*) FROM customers JOIN orders ON orders.customer_id = customers.id")
@example(sql="SELECT name FROM customers WHERE age > (SELECT COUNT(*) FROM orders GROUP BY nope)")
@example(sql="SELECT customers.name FROM customers WHERE customers.nope > 1 ORDER BY age")
@example(sql="SELECT customers.name FROM customers GROUP BY customers.nope ORDER BY nope")
@example(sql="SELECT customers.name FROM customers GROUP BY customers.nope HAVING MAX(nope) > 1")
@example(sql="SELECT customers.name FROM customers JOIN orders ON orders.nope = customers.id "
             "WHERE nope > 1")
def test_normalize_core_answers_as_the_rebuild(sql, store):
    _check_against_rebuild(sql, store)


def test_normalize_core_answers_as_the_rebuild_on_the_pinned_inputs(schemas):
    records = [json.loads(line) for line in
               (FIXTURES / "golden" / "normalize_pin.jsonl").read_text("utf-8").splitlines()]
    assert len(records) > 200
    for record in records:
        _check_against_rebuild(record["sql"], schemas[record["db"]])


# --- identifier tests agree with the regexes they replaced ----------------------

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_ ]*$")  # actions.valid_identifier
BARE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # sqlast._q


def _regex_valid_identifier(name: str) -> bool:
    return bool(IDENT_RE.match(name.strip())) and name == name.strip()


def _regex_q(name: str, quote: str) -> str:
    if name and " " not in name and BARE_IDENT_RE.fullmatch(name) \
            and name.lower() not in KEYWORDS:
        return name
    return quote + name.replace(quote, quote + quote) + quote


_names = st.one_of(
    st.text(),
    st.text(st.sampled_from("aZ_0 9\t\n\r\x0b\x0c\x1c\x85\xa0 éßİK٣²ǅ\"`-.$")),
    st.sampled_from(sorted(KEYWORDS)).map(lambda k: k.upper()),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_ ]*", fullmatch=True))


@settings(max_examples=2000, deadline=None)
@given(name=_names)
@example(" a")
@example("a ")
@example("a\n")
@example("a b")
@example("ab\n")
@example("")
@example("Select")
@example("\u212a")  # the Kelvin sign, which lower-cases to an ASCII k
def test_identifier_checks_agree_with_the_regexes(name):
    assert valid_identifier(name) == _regex_valid_identifier(name)
    for quote in ('"', "`"):
        assert _q(name, quote) == _regex_q(name, quote)
