import pytest

from sqlsteps.actions import FilterCondition, Trajectory
from sqlsteps.bridge import (
    CANONICAL_MISMATCH,
    PASS,
    UNSUPPORTED,
    _collect_aggregates,
    decompose,
    revert,
    round_trip,
)
from sqlsteps.errors import (
    BindingError,
    JoinPathNotFoundError,
    SchemaMismatchError,
    TrajectorySyntaxError,
    UnsupportedSqlError,
)
from sqlsteps.querygen import enumerate_queries, store_database
from sqlsteps.schema import parse_database_text
from sqlsteps.sqlast import MAX_DEPTH, Column, Func, canonicalize, parse_predicate, parse_sql
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import golden


def test_single_clause_decompose(store):
    t = decompose(parse_sql("SELECT customers.name FROM customers"), store)
    assert render_trajectory(t) == "res = df.select(customers.name)\n"


def test_single_clause_revert(store):
    q = revert(parse_trajectory("res = df.select(customers.name)"), store)
    assert q.text == "SELECT customers.name FROM customers"


def test_case_study_initial_decomposes_to_golden(schools):
    t = decompose(parse_sql(golden("table9_initial.sql")), schools)
    assert render_trajectory(t) == golden("table9_bam.traj")


def test_case_study_gold_decomposes_to_golden(schools):
    t = decompose(parse_sql(golden("table9_gold.sql")), schools)
    assert render_trajectory(t) == golden("table9_gold_decomposed.traj")


def test_case_study_final_trajectory_reverts_to_gold(schools):
    reverted = revert(parse_trajectory(golden("table9_lom.traj")), schools)
    gold = parse_sql(golden("table9_gold.sql"))
    assert canonicalize(reverted, schools) == canonicalize(gold, schools)


def test_case_study_gold_round_trips(schools):
    assert round_trip(parse_sql(golden("table9_gold.sql")), schools).verdict == PASS


def test_window_function_round_trips_as_unsupported(schools):
    from sqlsteps.sqlast import SqlQuery

    q = SqlQuery.raw("SELECT County, RANK() OVER (ORDER BY SOC) FROM schools")
    report = round_trip(q, schools)
    assert report.verdict == UNSUPPORTED
    assert report.reason


def test_unknown_function_is_unsupported(schools):
    q = parse_sql("SELECT strftime('%Y', ClosedDate) FROM schools")
    report = round_trip(q, schools)
    assert report.verdict == UNSUPPORTED
    assert "strftime" in report.reason


@pytest.mark.parametrize("literal", ["a\nb", "a\rb", "a\x0bb", "a\x85b", "a\u2028b"])
def test_string_literal_with_a_line_break_is_unsupported(store, literal):
    q = parse_sql(f"SELECT customers.name FROM customers WHERE customers.city = '{literal}'")
    report = round_trip(q, store)
    assert report.verdict == UNSUPPORTED
    assert report.reason == "string literals with line breaks cannot be rendered"


def test_unknown_table_is_schema_mismatch(store):
    with pytest.raises(SchemaMismatchError):
        decompose(parse_sql("SELECT a FROM missing"), store)


def test_unknown_column_is_schema_mismatch(store):
    with pytest.raises(SchemaMismatchError):
        decompose(parse_sql("SELECT customers.bogus FROM customers"), store)


_SELECTS = "df1 = df.select(orders.total)\ndf2 = df.select(orders.id)\n"
_UNION = _SELECTS + "df3 = df1.union(df2)\n"
_OVER_DF1 = "res = df.where(element = orders.total, filter = '> df1').select(orders.total)"


@pytest.mark.parametrize("text, message", [
    ("df1 = df.groupby(orders.status)\nres = df1.groupby(orders.id).select(orders.id)",
     "more than one groupby on the same frame"),
    ("res = df.limit(1).limit(2).select(orders.id)", "more than one limit on the same frame"),
    ("res = df.distinct(orders.id).distinct(orders.total).select(orders.id)",
     "more than one distinct on the same frame"),
    ("df1 = df.select(orders.id)\nres = df1.select(orders.total)",
     "more than one select on the same frame"),
    ("res = df.count(orders.id).select(orders.id)", "aggregate chained without a groupby"),
    ("df1 = df.having(element = count(orders.id), filter = '> 2')\nres = df1.select(orders.id)",
     "having without a groupby"),
    (_SELECTS + "res = df1.union(df2).limit(1)",
     "a set operation must be the only action in its step"),
    (_UNION + "res = df3.limit(1)", "cannot chain actions after a set operation"),
    ("df1 = df.select(orders.id)\nres = df.union(df1)",
     "a set operation cannot run on the bare `df`"),
    (_UNION + "res = df1.union(df3)", "set operation operand must be a plain select"),
    ("res = df.where(element = orders.id, filter = 1)", "frame is never select()ed"),
    ("df1 = df.where(element = orders.id, filter = 1)\ndf2 = df.select(orders.id)\n"
     "res = df2.union(df1)", "frame is never select()ed"),
    ("df1 = df.where(element = orders.total, filter = '> 1')\n" + _OVER_DF1,
     "frame is never select()ed"),
    (_UNION + _OVER_DF1.replace("df1", "df3"), "a subquery operand cannot be a set operation"),
    ("df1 = df.select(orders.total, orders.id)\n" + _OVER_DF1,
     "a subquery operand must select exactly one element"),
], ids=["two-groupbys", "two-limits", "two-distincts", "two-selects", "aggregate-without-groupby",
        "having-without-groupby", "set-operation-not-alone", "action-after-set-operation",
        "set-operation-on-df", "set-operation-on-the-right", "res-never-selected",
        "combined-never-selected", "operand-never-selected", "set-operation-operand",
        "operand-of-two-elements"])
def test_a_chain_no_sql_query_forms_is_a_binding_error(text, message):
    # each rule on how actions chain into one SQL query holds in the types,
    # so no such chain gets as far as `revert`
    with pytest.raises(BindingError) as err:
        parse_trajectory(text)
    assert str(err.value) == message


def test_subquery_of_two_elements_is_unsupported(store):
    # the step types reject the filter operand decompose would build
    q = parse_sql("SELECT orders.id FROM orders WHERE orders.total = "
                  "(SELECT orders.total, orders.id FROM orders)")
    report = round_trip(q, store)
    assert report.verdict == UNSUPPORTED
    assert report.reason == "a subquery operand must select exactly one element"


def test_ambiguous_join_path(store):
    # two foreign keys between the same pair makes the join ambiguous
    schema = parse_database_text("""
database twin
table a
  column id int pk
  column x int
table b
  column id int pk
  column a1 int
  column a2 int
  column y int
  fk a1 -> a.id
  fk a2 -> a.id
""")
    t = parse_trajectory("df1 = df.where(element = a.x, filter = 1)\nres = df1.select(b.y)")
    with pytest.raises(JoinPathNotFoundError):
        revert(t, schema)


def test_disconnected_tables_have_no_join_path(store):
    schema = parse_database_text("""
database apart
table a
  column id int pk
  column x int
table b
  column id int pk
  column y int
""")
    t = parse_trajectory("res = df.select(a.x, b.y)")
    with pytest.raises(JoinPathNotFoundError):
        revert(t, schema)


def test_join_must_follow_declared_fk(store):
    q = parse_sql("SELECT customers.name FROM customers JOIN orders ON orders.id = customers.id")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)


def test_unreferenced_joined_table_is_unsupported(store):
    q = parse_sql("SELECT customers.name FROM customers "
                  "JOIN orders ON orders.customer_id = customers.id")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)


def test_limit_zero_unsupported(store):
    q = parse_sql("SELECT name FROM customers LIMIT 0")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)
    assert round_trip(q, store).verdict == UNSUPPORTED


@pytest.mark.parametrize("sql", [
    "SELECT SUM(COUNT(orders.id)) FROM orders",
    "SELECT orders.status FROM orders GROUP BY orders.status "
    "ORDER BY MAX(CAST(COUNT(orders.id) AS REAL))",
])
def test_nested_aggregate_is_unsupported(store, sql):
    # the step type rejects the aggregate inside an aggregate, so decompose
    # emits no trajectory that its own parser would reject
    q = parse_sql(sql)
    with pytest.raises(UnsupportedSqlError, match="^aggregate argument contains an aggregate$"):
        decompose(q, store)
    report = round_trip(q, store)
    assert (report.verdict, report.reason) == (UNSUPPORTED,
                                               "aggregate argument contains an aggregate")


def test_self_join_unsupported(store):
    q = parse_sql("SELECT a.name FROM customers a JOIN customers b ON a.id = b.id")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)


def test_left_join_unsupported(store):
    q = parse_sql("SELECT customers.name, orders.status FROM customers "
                  "LEFT JOIN orders ON orders.customer_id = customers.id")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)


def test_union_all_unsupported(store):
    q = parse_sql("SELECT customers.name FROM customers UNION ALL SELECT items.product FROM items")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)


def test_correlated_subquery_unsupported(store):
    q = parse_sql("SELECT customers.name FROM customers WHERE customers.age > "
                  "(SELECT AVG(orders.total) FROM orders WHERE orders.customer_id = customers.id)")
    with pytest.raises(UnsupportedSqlError):
        decompose(q, store)


def test_scalar_subquery_round_trips(store):
    q = parse_sql("SELECT customers.name FROM customers WHERE customers.age > "
                  "(SELECT AVG(customers.age) FROM customers)")
    report = round_trip(q, store)
    assert report.verdict == PASS
    assert "df1 = df.select(average(customers.age))" in render_trajectory(report.trajectory)


def test_or_predicate_is_compound_and_round_trips(store):
    q = parse_sql("SELECT customers.city FROM customers WHERE customers.age > 21 "
                  "OR customers.city LIKE '%ville%'")
    report = round_trip(q, store)
    assert report.verdict == PASS
    where = report.trajectory.steps[0].chain[0]
    assert where.condition.comparator == "compound"


@pytest.mark.parametrize("element, compound", [
    ("customers.age",
     "(customers.age > 1 or customers.age = (select max(nope.total) from orders) + 1)"),
    ("orders.id", "(orders.id = 1 or orders.id in (select nope.x from items))"),
], ids=["under-arithmetic", "in-list"])
def test_revert_rejects_a_subquery_in_a_compound_filter(store, element, compound):
    # the condition's type rejects it, so `revert` is never handed one
    with pytest.raises(ValueError, match="^subqueries inside compound predicates$"):
        FilterCondition("compound", (), parse_predicate(compound))
    head = f"df1 = df.where(element = {element}, filter = "
    with pytest.raises(TrajectorySyntaxError, match=f"^line 1, column {len(head) + 1}: "
                       "compound filter: subqueries inside compound predicates$"):
        parse_trajectory(f"{head}'{compound}')\nres = df1.select({element})")


def _compound_step(condition: str) -> str:
    return f"df1 = df.where(element = orders.id, filter = '{condition}')\n"


def _nest(levels: int) -> str:
    """`orders.id` inside `levels` levels of `(... + 1)`."""
    text = "orders.id"
    for _ in range(levels):
        text = f"({text} + 1)"
    return text


def test_a_compound_past_the_depth_limit_is_rejected_when_parsed():
    # the OR is one level, and its operand 32 more
    with pytest.raises(TrajectorySyntaxError, match="nesting deeper than 32 levels"):
        parse_trajectory(_compound_step(f"(orders.id = 1 or orders.total = {_nest(MAX_DEPTH)})")
                         + "res = df1.select(orders.id)\n")
    # as is a NOT past it: `NOT (...)` is two levels of parentheses
    nots = "orders.total > 2"
    for _ in range(16):
        nots = f"not ({nots})"
    with pytest.raises(BindingError, match="nests 33 levels of query, more than 32"):
        parse_trajectory(_compound_step(f"(orders.id = 1 or {nots})")
                         + "res = df1.select(orders.id)\n")


def test_a_compound_in_the_frame_of_a_subquery_operand_is_held_to_the_limit():
    def operand_frame(levels: int) -> str:
        return (_compound_step(f"(orders.id = 1 or orders.total = {_nest(levels)})")
                + "df2 = df1.select(orders.id)\n"
                "df3 = df.where(element = customers.id, filter = '= df2')\n"
                "res = df3.select(customers.name)\n")

    with pytest.raises(BindingError, match="binding 'df3' nests 33 levels of query"):
        parse_trajectory(operand_frame(MAX_DEPTH - 1))
    # the types reject it, whatever built it
    shallower = parse_trajectory(operand_frame(MAX_DEPTH - 2)).steps
    deeper = parse_trajectory(_compound_step(
        f"(orders.id = 1 or orders.total = {_nest(MAX_DEPTH - 1)})")
        + "res = df1.select(orders.id)\n").steps[0]
    with pytest.raises(BindingError, match="binding 'df3' nests 33 levels of query"):
        Trajectory((deeper, *shallower[1:]))


@pytest.mark.parametrize("condition", [
    f"(orders.id = 1 or orders.total = {_nest(MAX_DEPTH - 1)})",
    "(orders.id = 1 or " + "not (" * 15 + "orders.total > 2" + ")" * 15 + ")",
    "(orders.total = " + _nest(MAX_DEPTH) + ")",
], ids=["operand", "not", "comparison"])
def test_a_compound_at_the_deepest_accepted_level_reverts_to_sql_that_parses(store, condition):
    t = parse_trajectory(_compound_step(condition) + "res = df1.select(orders.id)\n")
    reverted = revert(t, store)
    assert parse_sql(reverted.text).ast == reverted.ast
    assert parse_trajectory(render_trajectory(t)) == t


def test_decompose_determinism(store):
    q = parse_sql("SELECT customers.name FROM customers WHERE customers.age > 30 "
                  "ORDER BY customers.name ASC LIMIT 2")
    first = render_trajectory(decompose(q, store))
    second = render_trajectory(decompose(parse_sql(q.text), store))
    assert first == second


def test_enumerated_grammar_round_trips(store):
    queries = enumerate_queries()
    assert len(queries) >= 200
    d = store_database()
    for sql in queries[:200]:
        report = round_trip(parse_sql(sql), store if store else d)
        assert report.verdict == PASS, (sql, report.reason, report.diff)


def test_reverted_text_parses_under_all_dialects(store):
    t = decompose(parse_sql("SELECT customers.name FROM customers WHERE customers.age > 30"),
                  store)
    for dialect in ("sqlite", "mysql", "postgresql"):
        q = revert(t, store, dialect)
        assert q.dialect == dialect
        assert parse_sql(q.text, dialect).ast == q.ast


def test_canonical_mismatch_verdict_reports_diff(store):
    # revert() output is fed a deliberately different original for comparison
    q = parse_sql("SELECT customers.name FROM customers WHERE customers.age > 30")
    report = round_trip(q, store)
    assert report.verdict == PASS and report.diff == ""


def test_collect_aggregates_once_each_in_first_appearance_order(store):
    core = parse_sql(
        "SELECT customers.city, COUNT(customers.id) + 1 FROM customers GROUP BY customers.city "
        "HAVING MAX(customers.age) > 30 AND COUNT(customers.id) > 1 "
        "ORDER BY CAST(MAX(customers.age) AS REAL) DESC, SUM(customers.age), "
        "COUNT(customers.id)").ast
    count, top, total = (Func(name, (Column("customers", col),))
                         for name, col in (("count", "id"), ("max", "age"), ("sum", "age")))
    assert _collect_aggregates(core) == [count, top, total]
    t = decompose(parse_sql(
        "SELECT customers.city, COUNT(customers.id) FROM customers GROUP BY customers.city "
        "HAVING MAX(customers.age) > 30 ORDER BY MAX(customers.age), COUNT(customers.id)"),
        store)
    assert render_trajectory(t).splitlines()[0] == (
        "df1 = df.groupby(customers.city).count(customers.id).max(customers.age)")


def test_collect_aggregates_does_not_enter_an_aggregate():
    core = parse_sql("SELECT MAX(COUNT(t.a)) FROM t GROUP BY t.b").ast
    assert _collect_aggregates(core) == [core.items[0].expr]


def _subquery_chain(levels: int, second: str = "") -> str:
    """A trajectory whose `res` filters through `levels` nested subquery
    operands; `second` is chained after the where of each operand's frame."""
    lines = [f"df1 = df.where(element = orders.total, filter = '> 1'){second}",
             "df2 = df1.select(max(orders.total))"]
    for k in range(2, 2 * levels, 2):
        lines += [f"df{k + 1} = df.where(element = orders.total, filter = '> df{k}'){second}",
                  f"df{k + 2} = df{k + 1}.select(max(orders.total))"]
    lines.append(f"res = df.where(element = orders.total, filter = '> df{2 * levels}')"
                 ".select(orders.total)")
    return "\n".join(lines)


def _union_chain(parts: int) -> str:
    """A trajectory of `parts` selects combined by a left-deep chain of unions."""
    lines, left = ["df1 = df.select(orders.total)"], "df1"
    for k in range(2, 2 * parts - 2, 2):
        lines += [f"df{k} = df.select(orders.total)", f"df{k + 1} = {left}.union(df{k})"]
        left = f"df{k + 1}"
    lines += [f"df{2 * parts - 2} = df.select(orders.total)",
              f"res = {left}.union(df{2 * parts - 2})"]
    return "\n".join(lines)


@pytest.mark.parametrize("text", [_subquery_chain(201), _union_chain(1501)],
                         ids=["201-level-subquery-chain", "1500-union-chain"])
def test_binding_chain_past_the_limit_is_a_binding_error(text):
    # `revert` builds one query level per link of such a chain
    with pytest.raises(BindingError, match=f"more than {MAX_DEPTH}"):
        parse_trajectory(text)


def test_binding_chain_at_the_limit_reverts(store):
    # a link takes the subquery level and, in the innermost core, its MAX(...)
    # call; with two conditions on each operand's frame, their AND list too
    for second, links in [("", MAX_DEPTH - 1),
                          (".where(element = orders.id, filter = '< 9')", MAX_DEPTH // 2)]:
        sql = revert(parse_trajectory(_subquery_chain(links, second)), store).text
        assert sql.count("SELECT") == links + 1
        assert parse_sql(sql).ast is not None
        with pytest.raises(BindingError, match=f"more than {MAX_DEPTH}"):
            parse_trajectory(_subquery_chain(links + 1, second))


def test_union_chain_at_the_limit_reverts(store):
    sql = revert(parse_trajectory(_union_chain(MAX_DEPTH + 1)), store).text
    assert sql.count("UNION") == MAX_DEPTH
    assert parse_sql(sql).ast is not None
    with pytest.raises(BindingError):
        parse_trajectory(_union_chain(MAX_DEPTH + 2))


def test_union_of_filtered_frames_at_the_limit_reverts_to_sql_that_parses(store):
    # each frame reverts to a core with an AND list, one level above its items
    lines = [f"df{k} = df.where(element = orders.total, filter = '> {k}')"
             f".where(element = orders.id, filter = '< 9').select(orders.total)"
             for k in range(1, 18)]
    left = "df1"
    for k in range(2, 18):
        binding = "res" if k == 17 else f"df{16 + k}"
        lines.append(f"{binding} = {left}.union(df{k})")
        left = binding
    sql = revert(parse_trajectory("\n".join(lines)), store).text
    assert sql.count("UNION") == 16
    assert parse_sql(sql).ast is not None


def test_longest_union_the_parser_accepts_decomposes_and_round_trips(store):
    sql = " UNION ".join(["SELECT orders.total FROM orders"] * (MAX_DEPTH + 1))
    assert round_trip(parse_sql(sql), store).verdict == PASS


@pytest.mark.parametrize("sql", [
    "SELECT SUBSTRING(customers.city, 1, 2) FROM customers",
    "SELECT customers.name FROM customers WHERE substring(customers.city, 2) = 'e'",
    "SELECT customers.name FROM customers WHERE SUBSTRING(customers.city, 1, 2) = 're' "
    "OR customers.id = 1",
])
def test_substring_is_canonical_as_substr(store, sql):
    """`decompose` and `revert` name SUBSTRING `substr`, and so does the
    canonical form: the round trip passes."""
    query = parse_sql(sql)
    assert round_trip(query, store).verdict == PASS
    assert canonicalize(query, store) == canonicalize(
        parse_sql(sql.replace("SUBSTRING", "SUBSTR").replace("substring", "substr")), store)
    assert "SUBSTRING" not in canonicalize(query)
