"""The parser shares its name leaves: one `Column` and one `TableRef` per
exact field values, from tables that hold at most `LEAF_BOUND` nodes each.
Literals are never shared, as `Scalar(-0.0)` and `Scalar(0.0)` are equal but
render differently. `decompose` and `revert` take their SQL columns from the
parser's table (`sqlast.column`). Numbered binding names are one string each."""

from __future__ import annotations

import dataclasses
import operator
import random

from sqlsteps import sqlast
from sqlsteps.actions import Scalar, binding_name
from sqlsteps.bridge import PASS, decompose, round_trip
from sqlsteps.perturb import ADD, perturb_once
from sqlsteps.schema import DatabaseInput
from sqlsteps.sqlast import Column, TableRef, parse_predicate, parse_sql, render_sql


def nodes(root, kind) -> list:
    """The `kind` nodes of a tree, in no particular order."""
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            found.append(node)
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return found


def one(found: list):
    """The one distinct object of `found`."""
    assert len({id(node) for node in found}) == 1, found
    return found[0]


def test_two_parses_of_different_queries_share_their_name_nodes():
    first = parse_sql("SELECT orders.id, total FROM orders WHERE orders.total > 3")
    second = parse_sql("SELECT COUNT(orders.id) FROM orders JOIN items "
                       "ON items.order_id = orders.id WHERE total < 1 AND orders.id > 2")
    columns = nodes(first.ast, Column) + nodes(second.ast, Column)
    qualified = one([c for c in columns if c == Column("orders", "id")])
    bare = one([c for c in columns if c == Column(None, "total")])
    assert len([c for c in columns if c is qualified]) == 4
    assert one([t for t in nodes((first.ast, second.ast), TableRef)
                if t == TableRef("orders")]) is first.ast.tables[0]
    # a compound filter's text is parsed by the same parser
    compound = nodes(parse_predicate("orders.id = 1 OR total = 2"), Column)
    assert {id(c) for c in compound} == {id(bare), id(qualified)}
    # the node's strings are shared with it
    assert parse_sql("SELECT orders.id FROM orders").ast.items[0].expr.column is qualified.column
    # a quoted name is the same name
    assert parse_sql('SELECT "orders".id FROM "orders"').ast.items[0].expr is qualified
    # an alias is a field of its own
    aliased = parse_sql("SELECT o.id FROM orders AS o").ast.tables[0]
    assert aliased == TableRef("orders", "o") and aliased is not first.ast.tables[0]


def test_zero_literals_of_opposite_sign_keep_their_signs(store):
    negative = "SELECT orders.id FROM orders WHERE orders.total = -0.0"
    positive = "SELECT orders.id FROM orders WHERE orders.total = 0.0"
    for sql in (negative, positive, negative, positive):
        query = parse_sql(sql)
        [literal] = nodes(query.ast, Scalar)
        assert repr(literal.value) == ("-0.0" if sql is negative else "0.0")
        assert render_sql(query.ast) == sql
        report = round_trip(query, store)
        assert report.verdict == PASS and report.reverted.text == sql
    first, second = parse_sql(negative), parse_sql(positive)
    assert first.ast == second.ast
    # their columns are shared, their literals are not
    assert all(map(operator.is_, nodes(first.ast, Column), nodes(second.ast, Column)))
    assert one(nodes(first.ast, Scalar)) is not one(nodes(second.ast, Scalar))
    assert render_sql(first.ast) != render_sql(second.ast)


def test_the_name_tables_hold_no_more_than_their_bound():
    names = sqlast.LEAF_BOUND + 100
    sql = (f"SELECT {', '.join(f'n{i}.c{i}' for i in range(names))} "
           f"FROM {', '.join(f'n{i}' for i in range(names))}")
    core = parse_sql(sql).ast
    assert len(sqlast._COLUMNS) <= sqlast.LEAF_BOUND
    assert len(sqlast._TABLE_REFS) <= sqlast.LEAF_BOUND
    # nodes evicted with their table stay in the trees that hold them
    assert [i.expr for i in core.items] == [Column(f"n{i}", f"c{i}") for i in range(names)]
    assert list(core.tables) == [TableRef(f"n{i}") for i in range(names)]
    # and a name parsed after a table was emptied is shared anew
    again = parse_sql("SELECT n0.c0 FROM n0").ast
    assert again.items[0].expr is parse_sql("SELECT n0.c0 FROM n0").ast.items[0].expr


def test_reverted_and_parsed_trees_share_their_column_nodes(store):
    # `revert` builds its columns, those of the joins it adds included, and
    # `decompose` resolves a bare column, through the parser's own table; a
    # fresh database, as one keeps the join clauses it built before
    sql = ("SELECT customers.city, COUNT(orders.id) FROM customers JOIN orders "
           "ON orders.customer_id = customers.id WHERE age > 30 GROUP BY customers.city")
    query = parse_sql(sql)
    report = round_trip(query, DatabaseInput(store.name, store.tables))
    assert report.verdict == PASS
    reverted = nodes(report.reverted.ast, Column)
    assert {c.table for c in reverted} == {"customers", "orders"}
    for col in reverted:
        assert col is sqlast.column(col.table, col.column)
    assert sqlast.column("orders", "id") is one(
        [c for c in nodes(query.ast, Column) if c == Column("orders", "id")])
    assert sqlast.column("nope", "x") is sqlast.column("nope", "x")


def test_numbered_binding_names_are_one_string_each(store):
    first = decompose(parse_sql("SELECT orders.id FROM orders WHERE orders.total > 3 "
                                "AND orders.id < 9"), store)
    second = decompose(parse_sql("SELECT items.id FROM items WHERE items.price > 1 "
                                 "AND items.id < 2"), store)
    for n, (a, b) in enumerate(zip(first.steps[:2], second.steps[:2]), start=1):
        assert a.binding == b.binding == f"df{n}"
        assert a.binding is b.binding is binding_name(n)
    perturbed = perturb_once(first, ADD, random.Random(0), store)[0]
    assert all(step.binding is binding_name(int(step.binding[2:]))
               for step in perturbed.steps if step.binding != "res")
    assert binding_name(64) == "df64" and binding_name(9000) == "df9000"
