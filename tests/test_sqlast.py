import sqlite3

import pytest

from sqlsteps.actions import Arithmetic, Cast, Scalar, expr_children, map_expr
from sqlsteps.bridge import UNSUPPORTED, round_trip
from sqlsteps.errors import SqlSyntaxError
from sqlsteps.sqlast import (
    MAX_DEPTH,
    Column,
    Comparison,
    Func,
    Or,
    SelectCore,
    SetOp,
    SqlQuery,
    Star,
    Subquery,
    canonical_predicate,
    canonicalize,
    parse_predicate,
    parse_sql,
    render_expr,
    render_predicate,
    render_sql,
)

from conftest import golden


def reparse_equal(sql: str):
    first = parse_sql(sql)
    rendered = render_sql(first.ast)
    second = parse_sql(rendered)
    assert second.ast == first.ast
    return first


@pytest.mark.parametrize("sql", [
    "SELECT 1",
    "SELECT a FROM t",
    "SELECT t.a, t.b FROM t WHERE t.a = 1 AND t.b != 'x'",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 5 OR b IS NULL",
    "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 3",
    "SELECT a FROM t WHERE b IN (1, 2, 3) LIMIT 9 OFFSET 2",
    "SELECT a FROM t WHERE c LIKE '%x%'",
    "SELECT a FROM t UNION SELECT b FROM u",
    "SELECT a FROM t WHERE a > (SELECT AVG(a) FROM t)",
    "SELECT CAST(a AS INT), SUBSTR(b, 1, 3) FROM t",
    "SELECT a FROM t JOIN u ON t.id = u.id",
    "SELECT a - 1, -2 FROM t",
    'SELECT "ab\n" FROM t',  # a newline ends no bare identifier
    'SELECT `a"b` FROM t',  # the render quote inside a quoted identifier
])
def test_parse_render_reparse(sql):
    reparse_equal(sql)


def test_doubled_quote_inside_a_quoted_identifier_is_one_character():
    for sql in ('SELECT "a""b" FROM t', "SELECT `a\"b` FROM t"):
        assert parse_sql(sql).ast.items[0].expr == Column(None, 'a"b')
    assert parse_sql("SELECT `a``b` FROM t").ast.items[0].expr == Column(None, "a`b")
    assert render_sql(parse_sql("SELECT `a``b` FROM t").ast) == 'SELECT "a`b" FROM t'


def test_mysql_limit_comma_form():
    q = parse_sql("SELECT a FROM t LIMIT 2, 9")
    assert (q.ast.limit, q.ast.offset) == (9, 2)
    q2 = parse_sql("SELECT a FROM t LIMIT 9 OFFSET 2")
    assert (q2.ast.limit, q2.ast.offset) == (9, 2)


def test_quoted_identifiers_across_dialects():
    for text in ('SELECT "my col" FROM "my table"',
                 "SELECT `my col` FROM `my table`",
                 "SELECT [my col] FROM [my table]"):
        q = parse_sql(text)
        assert q.ast.tables[0].name == "my table"
        assert q.ast.items[0].expr == Column(None, "my col")


@pytest.mark.parametrize("bad", [
    "",
    "UPDATE t SET a = 1",
    "SELECT a FROM t; SELECT b FROM u",
    "SELECT a FROM t WHERE",
    "SELECT RANK() OVER (ORDER BY a) FROM t",
    "SELECT a FROM t WHERE a = NULL",
    # `*` stands only as a select item or as the argument of COUNT
    "SELECT * + 1 FROM t",
    "SELECT SUM(*) FROM t",
    "SELECT COUNT(* + 1) FROM t",
    "SELECT a FROM t WHERE a = *",
    # numbers no value holds, and a limit that is no integer
    "SELECT 1e999 FROM t",
    "SELECT -1e999 FROM t",
    pytest.param("SELECT " + "1" * 5000, id="5000-digit-integer"),
    pytest.param("SELECT a FROM t LIMIT " + "1" * 5000, id="5000-digit-limit"),
    "SELECT a FROM t LIMIT 1e5",
])
def test_rejects_non_subset(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


@pytest.mark.parametrize("sql, position", [
    ("select \u00b2 from t", 7),
    ("select .\u00b2 from t", 8),
    # Arabic-Indic twelve: `int` reads it, SQLite reads no number in it
    ("SELECT customers.name FROM customers WHERE customers.age = \u0661\u0662", 59),
    ("select 1\u0662 from t", 8),
    ("select 1.\u0662 from t", 9),
])
def test_digit_outside_the_number_grammar_is_a_syntax_error(sql, position):
    # `str.isdigit` accepts a superscript two, and `\d` any decimal digit; the
    # number pattern takes ASCII digits only
    with pytest.raises(SqlSyntaxError) as err:
        parse_sql(sql)
    assert err.value.position == position


def test_nesting_past_the_limit_is_a_syntax_error():
    deep = "SELECT " + "(" * 3000 + "1" + ")" * 3000
    with pytest.raises(SqlSyntaxError, match=f"nesting deeper than {MAX_DEPTH}") as err:
        parse_sql(deep)
    assert err.value.position == len("SELECT ") + MAX_DEPTH
    assert SqlQuery.raw(deep).ast is None


def test_long_sum_is_held_to_the_limit(store):
    # each operator of a chain nests its tree one level deeper
    def total(terms):
        return "SELECT " + " + ".join(["orders.total"] * terms) + " FROM orders"

    query = SqlQuery.raw(total(3000))
    assert query.ast is None and "nesting deeper" in query.parse_error
    with pytest.raises(SqlSyntaxError):
        canonicalize(query, store)
    assert round_trip(query, store).verdict == UNSUPPORTED
    at_limit = reparse_equal(total(MAX_DEPTH + 1))
    assert canonicalize(at_limit, store)
    with pytest.raises(SqlSyntaxError):
        parse_sql(total(MAX_DEPTH + 2))


@pytest.mark.parametrize("operand", ["t.a * t.b", "ABS(t.a)", "(SELECT u.a FROM u)"])
def test_sum_of_tall_operands_is_held_to_the_limit(operand):
    # an operator sits one level above the higher of its sides, so 32 terms
    # of height 1 make a tree of 32 levels below its root
    def total(terms):
        return "SELECT " + " + ".join([operand] * terms) + " FROM t"

    reparse_equal(total(MAX_DEPTH))
    with pytest.raises(SqlSyntaxError, match="nesting deeper"):
        parse_sql(total(MAX_DEPTH + 1))


def test_union_of_filtered_cores_is_held_to_the_limit():
    def union(cores):
        return " UNION ".join(["SELECT t.a FROM t WHERE t.a = 1 AND t.b = 2"] * cores)

    reparse_equal(union(MAX_DEPTH))
    with pytest.raises(SqlSyntaxError, match="nesting deeper"):
        parse_sql(union(MAX_DEPTH + 1))


@pytest.mark.parametrize("negated", [False, True])
def test_in_subquery_renders_as_a_set_not_a_scalar(negated):
    kw = "NOT IN" if negated else "IN"
    sql = f"SELECT a FROM t WHERE a {kw} (SELECT b FROM u) ORDER BY a"
    rendered = render_sql(parse_sql(sql).ast)
    assert f"{kw} (SELECT b FROM u)" in rendered
    db = sqlite3.connect(":memory:")
    db.executescript("CREATE TABLE t (a INT); CREATE TABLE u (b INT);"
                     "INSERT INTO t VALUES (1), (2), (3); INSERT INTO u VALUES (2), (3);")
    assert db.execute(rendered).fetchall() == db.execute(sql).fetchall()
    db.close()


@pytest.mark.parametrize("type_name", ['"my type"', "[int]", "`int`", "5", "NULL"])
def test_cast_type_is_a_bare_word(type_name):
    with pytest.raises(SqlSyntaxError, match="expected a type name"):
        parse_sql(f"SELECT CAST(customers.age AS {type_name}) FROM customers")


def test_sibling_and_or_lists_do_not_add_up_to_the_limit():
    # a list is one level above its deepest item, however many lists precede it
    terms = 4 * MAX_DEPTH
    dnf = " OR ".join(f"(t.a = {i} AND t.b = {i})" for i in range(terms))
    assert parse_sql(f"SELECT t.a FROM t WHERE {dnf}").ast.where is not None
    joins = "".join(f" JOIN t{i} ON t{i}.a = t{i - 1}.a AND t{i}.b = t{i - 1}.b"
                    for i in range(1, terms))
    assert len(parse_sql(f"SELECT t0.a FROM t0{joins}").ast.joins) == terms - 1
    subqueries = " AND ".join(f"t.a IN (SELECT u.a FROM u WHERE u.b = {i} AND u.c = 1)"
                              for i in range(terms))
    reparse_equal(f"SELECT t.a FROM t WHERE {subqueries}")


def test_nested_and_or_lists_are_held_to_the_limit():
    def nested(lists):
        pred = "t.a = 0"
        for i in range(1, lists + 1):
            pred = f"t.a = {i} {'AND' if i % 2 else 'OR'} ({pred})"
        return f"SELECT t.a FROM t WHERE {pred}"

    reparse_equal(nested(MAX_DEPTH))
    with pytest.raises(SqlSyntaxError, match="nesting deeper"):
        parse_sql(nested(MAX_DEPTH + 1))


def test_raw_wraps_parse_failures():
    q = SqlQuery.raw("SELECT strftime('%Y', d) FROM t WHERE x ->> 'y' = 1")
    assert q.ast is None
    assert q.parse_error
    ok = SqlQuery.raw("SELECT a FROM t")
    assert ok.ast is not None


def test_has_order_by_raw_and_parsed():
    assert parse_sql("SELECT a FROM t ORDER BY a").has_order_by
    assert not parse_sql("SELECT a FROM t").has_order_by
    assert SqlQuery.raw("SELECT x, RANK() OVER (ORDER BY y) FROM t ORDER BY x").has_order_by


# --- canonical form ------------------------------------------------------------

def test_canonical_conjunct_sorting_and_qualification():
    a = parse_sql("select a from t where b=1 and a=2")
    b = parse_sql("SELECT t.a FROM t WHERE t.a = 2 AND t.b = 1")
    assert canonicalize(a) == canonicalize(b)


def test_canonical_is_idempotent_on_itself():
    q = parse_sql("SELECT t.a FROM t WHERE t.a = 2 AND t.b = 1")
    canon = canonicalize(q)
    assert canonicalize(parse_sql(canon)) == canon


def test_canonical_count_star_whitespace_and_case():
    a = parse_sql("SELECT COUNT(*) FROM t")
    b = parse_sql("select count( * ) from t")
    assert canonicalize(a) == canonicalize(b)


def test_canonical_count_star_equals_count_pk(store):
    a = parse_sql("SELECT COUNT(*) FROM customers")
    b = parse_sql("SELECT COUNT(customers.id) FROM customers")
    assert canonicalize(a, store) == canonicalize(b, store)


def test_canonical_aliases_resolved():
    a = parse_sql("SELECT c.name AS n FROM customers c ORDER BY n")
    b = parse_sql("SELECT customers.name FROM customers ORDER BY customers.name")
    assert canonicalize(a) == canonicalize(b)


def test_canonical_dialect_invariance(store):
    # one query, its identifiers quoted as SQLite, MySQL and SQL Server write them
    forms = {canonicalize(parse_sql(text), store) for text in (
        'SELECT "customers"."name" FROM "customers" WHERE "customers"."age" > 30',
        "SELECT `customers`.`name` FROM `customers` WHERE `customers`.`age` > 30",
        "SELECT [customers].[name] FROM [customers] WHERE [customers].[age] > 30",
    )}
    assert forms == {canonicalize(
        parse_sql("SELECT customers.name FROM customers WHERE customers.age > 30"), store)}


def test_canonical_join_folds_into_where(store):
    a = parse_sql("SELECT customers.name FROM customers JOIN orders "
                  "ON orders.customer_id = customers.id WHERE orders.total > 1")
    b = parse_sql("SELECT customers.name FROM orders JOIN customers "
                  "ON customers.id = orders.customer_id WHERE orders.total > 1")
    assert canonicalize(a, store) == canonicalize(b, store)


def test_canonical_in_list_sorted():
    a = parse_sql("SELECT a FROM t WHERE b IN (3, 1, 2)")
    b = parse_sql("SELECT a FROM t WHERE b IN (1, 2, 3)")
    assert canonicalize(a) == canonicalize(b)


def test_canonical_case_study_forms(schools):
    gold = parse_sql(golden("table9_gold.sql"))
    reordered = parse_sql(
        "SELECT County FROM schools WHERE ClosedDate BETWEEN '1980-01-01' AND "
        "'1989-12-31' AND SOC = 11 GROUP BY County ORDER BY COUNT(ClosedDate) DESC LIMIT 1")
    assert canonicalize(gold, schools) == canonicalize(reordered, schools)


def test_parse_predicate_fragment():
    pred = parse_predicate("(t.b = 2 OR 1 = t.a)")
    assert isinstance(pred, Or)
    canonical = canonical_predicate(pred)
    assert isinstance(canonical, Or)
    assert render_predicate(canonical) == "(t.a = 1 OR t.b = 2)"


def test_set_op_chain_shape():
    q = parse_sql("SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v")
    assert isinstance(q.ast, SetOp)
    assert q.ast.op == "intersect"
    assert isinstance(q.ast.left, SetOp)
    assert q.ast.left.op == "union"


def test_count_star_parses_as_star_argument():
    q = parse_sql("SELECT COUNT(*) FROM t")
    expr = q.ast.items[0].expr
    assert isinstance(expr, Func) and isinstance(expr.args[0], Star)


def test_shared_walker_over_a_mixed_sql_tree():
    # a Func inside a Cast inside an Arithmetic, beside a Subquery whose core
    # the walker never enters
    query = parse_sql("SELECT CAST(SUM(t.a) AS REAL) * 2 - (SELECT MAX(u.b) FROM u) FROM t")
    tree = query.ast.items[0].expr
    col_a = Column("t", "a")
    total = Func("sum", (col_a,))
    cast = Cast(total, "REAL")
    product = Arithmetic("*", cast, Scalar(2, "int"))
    assert isinstance(tree, Arithmetic) and tree.op == "-" and tree.left == product
    subquery = tree.right
    assert isinstance(subquery, Subquery)
    assert expr_children(tree) == (product, subquery)
    assert expr_children(product) == (cast, Scalar(2, "int"))
    assert expr_children(cast) == (total,)
    assert expr_children(total) == (col_a,)
    assert expr_children(subquery) == expr_children(col_a) == ()

    visited = []

    def rename(node):
        visited.append(node)
        return Column("x", node.column) if isinstance(node, Column) else None

    rebuilt = map_expr(tree, rename)
    assert visited == [tree, product, cast, total, col_a, Scalar(2, "int"), subquery]
    renamed = Arithmetic("-", Arithmetic("*", Cast(Func("sum", (Column("x", "a"),)), "REAL"),
                                         Scalar(2, "int")), subquery)
    assert rebuilt == renamed
    assert render_expr(rebuilt) == "((CAST(SUM(x.a) AS REAL) * 2) - (SELECT MAX(u.b) FROM u))"
    assert map_expr(tree, lambda node: None) == tree
