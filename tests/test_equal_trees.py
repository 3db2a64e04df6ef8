"""`round_trip` skips the canonical render when the reverted tree equals the
parsed one, and answers exactly as a round trip that always renders both.

The reference below is the comparison as it was before the rule: decompose,
revert, canonicalize both sides. The two must give the same report (verdict,
reason, diff, trajectory, reverted query), or raise the same exception class
and message, on generated queries, their table-aliased and unqualified
variants, every pinned normalize input, and literals of -0.0 and 0.0, which
compare equal (`Scalar(-0.0, "real") == Scalar(0.0, "real")`) but render
differently. A revert carries the original's `Scalar` objects over, so such
a pair never meets in one round trip; where a stage writes the literals
anew, the pipeline renders both forms.

Where the rule holds, one tree is kept: the reverted query holds the parsed
tree. Column nodes are built once per column of a `DatabaseInput`.
"""

from __future__ import annotations

import difflib
import gc
import json
import random
import re
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsteps import bridge, pipeline
from sqlsteps.actions import QualifiedColumn, Scalar
from sqlsteps.bridge import (CANONICAL_MISMATCH, PASS, UNSUPPORTED, RoundTripReport, decompose,
                             round_trip)
from sqlsteps.corpus import SeedExample
from sqlsteps.errors import BRIDGE_ERRORS, SqlSyntaxError, UnsupportedSqlError
from sqlsteps.perturb import ADD, perturb_once
from sqlsteps.querygen import random_queries
from sqlsteps.schema import parse_database_input, parse_database_text
from sqlsteps.sqlast import SqlQuery, canonicalize, parse_sql

from conftest import FIXTURES, generated_seeds

_TABLE = re.compile(r"\b(customers|orders|items)\.")
_FROM = re.compile(r"\b(FROM|JOIN) (customers|orders|items)\b")


def reference_round_trip(s: SqlQuery, d) -> RoundTripReport:
    """`round_trip` rendering both canonical forms every time."""
    if s.ast is None:
        return RoundTripReport(s, None, None, UNSUPPORTED,
                               reason=s.parse_error or "query does not parse")
    try:
        t = decompose(s, d)
        reverted = bridge._revert(t, d, s.dialect)
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


def _outcome(fn, sql: str, d):
    try:
        report = fn(SqlQuery.raw(sql), d)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    # repr tells -0.0 from 0.0, which `==` on the trees does not
    return report, repr(report)


def aliased(sql: str) -> str:
    """Every FROM and JOIN table under an alias, and its columns through it."""
    return _TABLE.sub(r"a_\1.", _FROM.sub(r"\1 \2 AS a_\2", sql))


def unqualified(sql: str) -> str:
    return _TABLE.sub("", sql)


ZERO_QUERIES = [
    "SELECT orders.id FROM orders WHERE orders.total = -0.0",
    "SELECT orders.id FROM orders WHERE orders.total = 0.0",
    "SELECT orders.id FROM orders WHERE orders.total = - 0.0",
    "SELECT orders.id FROM orders WHERE orders.total > -0e3 AND orders.total < .0",
    "SELECT orders.id FROM orders WHERE orders.total BETWEEN -0.0 AND 0.0",
    "SELECT orders.id FROM orders WHERE orders.total IN (-0.0, 0.0, -0.0)",
    "SELECT orders.id FROM orders WHERE orders.total = -0.0 OR orders.total = 0.0",
    "SELECT orders.id FROM orders WHERE orders.total = orders.total * -0.0",
    "SELECT orders.id FROM orders WHERE -0.0 = orders.total",
    "SELECT orders.id, -0.0, 0.0 FROM orders",
    "SELECT orders.id, orders.total + -0.0 FROM orders ORDER BY orders.total - 0.0",
    "SELECT orders.status, SUM(orders.total) FROM orders GROUP BY orders.status "
    "HAVING SUM(orders.total) > -0.0",
    "SELECT orders.id FROM orders WHERE orders.total = "
    "(SELECT MAX(items.price) FROM items WHERE items.price != -0.0)",
    "SELECT orders.id FROM orders WHERE orders.total = -0.0 "
    "UNION SELECT orders.id FROM orders WHERE orders.total = 0.0",
    "SELECT id FROM orders WHERE total = -0.0",
    "SELECT o.id FROM orders AS o WHERE o.total = -0.0",
]


def _inputs() -> list[tuple[str, str]]:
    generated = [q for seed in (1, 7, 101) for q in random_queries(400, seed)]
    cases = [("store", variant(q)) for q in generated
             for variant in (str, aliased, unqualified)]
    pinned = (FIXTURES / "golden" / "normalize_pin.jsonl").read_text("utf-8").splitlines()
    cases += [(r["db"], r["sql"]) for r in map(json.loads, pinned)]
    return cases + [("store", sql) for sql in ZERO_QUERIES]


INPUTS = _inputs()


def test_round_trip_answers_as_the_reference_on_every_input(schemas):
    seen = set()
    for db, sql in INPUTS:
        expected = _outcome(reference_round_trip, sql, schemas[db])
        assert _outcome(round_trip, sql, schemas[db]) == expected, sql
        report = expected[0]
        assert isinstance(report, RoundTripReport), (sql, expected)
        # a pass either skipped the render (equal trees) or rendered both forms
        seen.add((report.verdict, report.verdict == PASS
                  and report.reverted.ast == report.original.ast))
    assert seen == {(PASS, True), (PASS, False), (UNSUPPORTED, False)}


def _mangled(change):
    """`bridge._revert`, with `change` applied to the reverted query."""
    revert = bridge._revert

    def mangled(t, d, dialect):
        return change(revert(t, d, dialect))
    return mangled


@pytest.mark.parametrize("change,outcome", [
    (lambda q: SqlQuery(q.text, replace(q.ast, distinct=not q.ast.distinct), q.dialect),
     CANONICAL_MISMATCH),
    (lambda q: SqlQuery(q.text, replace(q.ast, limit=7), q.dialect), CANONICAL_MISMATCH),
    (lambda q: SqlQuery(q.text, replace(q.ast, items=q.ast.items[:1]), q.dialect),
     CANONICAL_MISMATCH),
    (lambda q: SqlQuery(q.text, None, q.dialect, parse_error="no tree"), SqlSyntaxError),
], ids=["distinct", "limit", "one-item", "no-tree"])
def test_a_reverted_tree_that_differs_answers_as_the_reference(change, outcome, monkeypatch,
                                                               store):
    """A mismatch, its diff, and an error of a canonical form, by a revert made
    to differ (the reference reverts through the same patched function)."""
    monkeypatch.setattr(bridge, "_revert", _mangled(change))
    outcomes = set()
    for sql in random_queries(60, 101) + ZERO_QUERIES:
        if "UNION" in sql or "INTERSECT" in sql or "EXCEPT" in sql:
            continue
        expected = _outcome(reference_round_trip, sql, store)
        assert _outcome(round_trip, sql, store) == expected, sql
        outcomes.add(expected[0].verdict if isinstance(expected[0], RoundTripReport)
                     else expected[0])
    assert outcome in outcomes


_numbers = st.sampled_from(["-0.0", "0.0", "- 0.0", "-0e1", "0e0", ".0", "1.5", "-2", "0"])


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([sql for db, sql in INPUTS if db == "store"]),
       numbers=st.lists(_numbers, min_size=1, max_size=6), pick=st.integers(0, 2))
def test_round_trip_answers_as_the_reference_with_zero_literals(base, numbers, pick, store):
    """Each number of a query in turn replaced by a drawn literal, -0.0 and 0.0 among them."""
    drawn = iter(numbers * 20)
    sql = re.sub(r"(?<![\w.'])\d+(?:\.\d+)?(?![\w'])", lambda m: next(drawn), base)
    sql = (sql, aliased(sql), unqualified(sql))[pick]
    assert _outcome(round_trip, sql, store) == _outcome(reference_round_trip, sql, store)


def test_a_revert_carries_the_original_scalar_objects_over(store):
    query = SqlQuery.raw("SELECT orders.id, -0.0 FROM orders WHERE orders.total = -0.0 "
                         "AND orders.total IN (0.0, -0.0)")
    report = round_trip(query, store)
    assert report.verdict == PASS

    def scalars(node, out):
        if isinstance(node, Scalar):
            out.append(node)
        elif isinstance(node, tuple):
            for item in node:
                scalars(item, out)
        elif hasattr(node, "__dataclass_fields__"):
            for name in node.__dataclass_fields__:
                scalars(getattr(node, name), out)
        return out

    original, reverted = scalars(query.ast, []), scalars(report.reverted.ast, [])
    assert [repr(s.value) for s in original] == ["-0.0", "-0.0", "0.0", "-0.0"]
    assert {id(s) for s in reverted} == {id(s) for s in original}
    assert "-0.0" in report.reverted.text


def test_equal_trees_with_zeros_of_opposite_sign_render_differently(store):
    negative = SqlQuery.raw("SELECT orders.id FROM orders WHERE orders.total = -0.0")
    positive = SqlQuery.raw("SELECT orders.id FROM orders WHERE orders.total = 0.0")
    assert negative.ast == positive.ast
    assert canonicalize(negative, store) != canonicalize(positive, store)
    # same_tree holds all the same: only a caller that vouches for the
    # literals may skip the render
    assert bridge.same_tree(negative, positive)
    assert bridge.canonical_mismatch(negative, positive, store) == (
        canonicalize(negative, store), canonicalize(positive, store))
    assert bridge.canonical_mismatch(negative, negative, store) is None


def test_a_stage_that_writes_a_zero_anew_still_gets_both_forms_rendered(schemas):
    """A scripted bam returns -0.0 where the initial SQL says 0.0: the trees are
    equal, the forms are not, so the initial SQL (equal to the gold) counts as
    rewritten to differ."""
    sql = "SELECT orders.id FROM orders WHERE orders.total = 0.0"
    text = ("df1 = df.where(element = orders.total, filter = '= -0.0')\n"
            "res = df1.select(orders.id)\n")
    backends = pipeline.build_backends({})
    backends["bam"] = pipeline.ScriptedBackend("bam", {"*": text})
    seed = SeedExample("z1", "store", "zero", sql, sql)
    [result] = pipeline.correct_batch([seed], backends, schemas, jobs=1)
    assert result.error is None
    assert result.trace.feedback.reverted_query.ast == SqlQuery.raw(sql).ast
    assert "-0.0" in result.trace.feedback.reverted_sql
    assert result.overcorrection_flag is True
    # the rule bam carries the 0.0 over: nothing is rewritten
    [rule] = pipeline.correct_batch([seed], pipeline.build_backends({}), schemas, jobs=1)
    assert rule.overcorrection_flag is False and rule.trace.round_trip_pass is True
    # equal trees: only the rule bam's reverted query holds the initial tree
    assert result.trace.feedback.reverted_query.ast is not result.trace.query.ast
    assert rule.trace.feedback.reverted_query.ast is rule.trace.query.ast
    assert rule.trace.feedback.reverted_query.text == rule.trace.feedback.reverted_sql


def test_an_equal_reversion_keeps_the_parsed_tree(store):
    for sql in random_queries(100, 101):
        query = parse_sql(sql)
        report = round_trip(query, store)
        if report.verdict != PASS:
            continue
        own = bridge._revert(report.trajectory, store, query.dialect)
        assert report.reverted.text == own.text
        assert report.reverted.dialect == own.dialect
        if own.ast == query.ast:
            assert report.reverted.ast is query.ast
            # and no second query where the reverted text is the query's own
            assert (report.reverted is query) == (own.text == query.text)
        else:  # an unequal reversion keeps its own tree
            assert report.reverted.ast is not query.ast


def test_a_pipeline_equal_reversion_of_the_initial_text_is_the_initial_query(schemas):
    """Where the rule run reverts the initial SQL to an equal tree and to the
    initial SQL's own text, the feedback keeps the trace's query itself."""
    results = pipeline.correct_batch(generated_seeds(90), pipeline.build_backends({}), schemas,
                                     jobs=1)
    same_text = 0
    for result in results:
        query, reverted = result.trace.query, result.trace.feedback.reverted_query
        assert reverted.text == result.trace.feedback.reverted_sql
        if reverted.ast is query.ast:
            same_text += reverted.text == query.text
            assert (reverted is query) == (reverted.text == query.text)
        else:
            assert reverted is not query
    assert same_text == 39


def test_an_unequal_reversion_keeps_its_own_tree(store):
    query = parse_sql("SELECT o.id FROM orders AS o WHERE o.total > 3")
    report = round_trip(query, store)
    assert report.verdict == PASS
    assert report.reverted.ast != query.ast
    assert report.reverted.text == "SELECT orders.id FROM orders WHERE orders.total > 3"


def test_two_decompositions_share_one_column_node(store):
    first = decompose(parse_sql("SELECT orders.id FROM orders WHERE orders.total > 3"), store)
    second = decompose(parse_sql("SELECT total, id FROM orders"), store)
    [a] = [c for c in first.columns() if c.column == "total"]
    [b] = [c for c in second.columns() if c.column == "total"]
    assert a is b and a == QualifiedColumn("orders", "total")
    assert store.qualified_column("orders", "total") is a
    # the columns of the database, sorted, are the same nodes
    assert a in store.qualified_columns()
    assert store.qualified_columns() is store.qualified_columns()
    # a pair that is no column of the database is built anew each time
    assert store.qualified_column("orders", "nope") is not store.qualified_column("orders", "nope")


def test_a_column_name_the_types_reject_raises_at_every_use():
    """A non-ASCII column parses into the schema, and each decomposition that
    reads it, and each add perturbation, raises what the node's constructor
    raises, as before the nodes were kept: a rejected name is never kept."""
    d = parse_database_text("table t\n  column id int pk\n  column café text\n")
    message = "invalid qualified column 't'.'café'"
    for sql in ("SELECT t.café FROM t", "SELECT café FROM t",
                "SELECT t.id FROM t WHERE t.café = 'x'"):
        for _ in range(2):
            with pytest.raises(UnsupportedSqlError) as err:
                decompose(parse_sql(sql), d)
            assert str(err.value) == message
        assert round_trip(parse_sql(sql), d).reason == message
    t = decompose(parse_sql("SELECT t.id FROM t"), d)
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            perturb_once(t, ADD, random.Random(0), d)
        assert type(err.value) is ValueError and str(err.value) == message
    assert d.qualified_column("t", "id") is d.qualified_column("t", "id")


def test_threads_that_fill_the_nodes_at_once_get_equal_trees():
    """Threads that decompose and revert on one fresh `DatabaseInput` get what
    one thread gets: a node built twice in a race is equal to the one kept."""
    queries = random_queries(150, 101)
    serial_store = parse_database_input(FIXTURES / "schemas" / "store.schema")
    expected = [repr(round_trip(parse_sql(sql), serial_store)) for sql in queries]
    shared = parse_database_input(FIXTURES / "schemas" / "store.schema")
    results: dict[int, list[str]] = {}

    def work(n: int) -> None:
        results[n] = [repr(round_trip(parse_sql(sql), shared)) for sql in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {n: expected for n in range(6)}
    assert shared.qualified_columns() == serial_store.qualified_columns()


# The distinct tree nodes and tuples that the reports of 200 round trips hold,
# counted by walking references from the reports. 11505 before a node was
# built once per schema column and one tree kept per equal reversion; 7725
# before the parser shared its column and table nodes.
KEPT_OBJECTS = 6500


def _reached(roots: list) -> int:
    """The distinct tuples and `sqlsteps` instances reachable from `roots`
    through tuples, lists, dicts and `sqlsteps` instances."""
    seen, count, stack = set(), 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list, dict)) or type(obj).__module__.startswith("sqlsteps."):
            count += not isinstance(obj, (list, dict))
            stack.extend([r for r in gc.get_referents(obj) if not isinstance(r, type)])
    return count


def test_round_trip_reports_keep_no_more_objects_than_pinned():
    store = parse_database_input(FIXTURES / "schemas" / "store.schema")
    reports = [round_trip(parse_sql(sql), store) for sql in random_queries(200, 101)]
    assert _reached(reports) <= KEPT_OBJECTS
