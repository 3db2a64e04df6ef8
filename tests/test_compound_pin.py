"""Pinned outputs of every surface a compound condition passes through.

A compound condition is an `OR`, or a comparison of one column with another;
`decompose` keeps it as one `where` or `having` filter. No query of
`querygen.random_queries` holds one, so this pin has inputs of its own: a
seeded generator (below, not in `querygen`, whose output the benchmark reads)
of `OR`s, column-to-column comparisons, `NOT` inside an `OR`, `OR`s across a
join, compound `HAVING`s, arithmetic operands, subqueries under a compound
and unknown columns beside a subquery, plus hand-written queries and
trajectory texts.

`tests/fixtures/golden/compound_pin.jsonl` holds one record per input. A
query's record holds its `canonicalize` text without and with the database,
its `decompose` trajectory text, the `round_trip` verdict with the reverted
text (or the reason), the `mask_schema` template of the decomposition, and
that text parsed back and reverted. A trajectory text's record holds it
parsed and reverted. A reverted text is followed by whether `parse_sql`
takes it back. An error is written as `!Class: message`.

Regenerate the pin (only for an intended change of output) with
`PYTHONPATH=src python tests/test_compound_pin.py --write`.
"""

from __future__ import annotations

import json
import random
import sys

from sqlsteps.bridge import decompose, revert, round_trip
from sqlsteps.errors import SqlStepsError
from sqlsteps.masking import mask_schema
from sqlsteps.schema import load_schema_dir
from sqlsteps.sqlast import SqlQuery, canonicalize, parse_sql
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import FIXTURES

PIN = FIXTURES / "golden" / "compound_pin.jsonl"

NUMBERS = {"customers": ("id", "age"), "orders": ("id", "customer_id", "total"),
           "items": ("id", "order_id", "price", "qty")}
TEXTS = {"customers": ("name", "city"), "orders": ("placed", "status"), "items": ("product",)}
JOINS = (("customers", "orders", "orders.customer_id = customers.id"),
         ("orders", "items", "items.order_id = orders.id"))
STRINGS = ("a", "b", "it''s")
SHAPES = ("or", "columns", "not", "join", "having", "arithmetic", "subquery", "unknown")


def compound_queries(n: int = 240, seed: int = 11) -> list[str]:
    """`n` store queries, each with one compound condition, the shapes in turn."""
    rng = random.Random(f"compound:{seed}")
    return [_query(rng, SHAPES[i % len(SHAPES)]) for i in range(n)]


def _number(rng: random.Random) -> str:
    return rng.choice((str(rng.randint(-5, 60)), f"{rng.randint(0, 400) / 4:.2f}"))


def _atom(rng: random.Random, table: str) -> str:
    """One comparison of a column of `table` with literals."""
    num = f"{table}.{rng.choice(NUMBERS[table])}"
    text = f"{table}.{rng.choice(TEXTS[table])}"
    return rng.choice((
        f"{num} {rng.choice(('=', '!=', '<', '<=', '>', '>='))} {_number(rng)}",
        f"{_number(rng)} < {num}",
        f"{num} BETWEEN {rng.randint(0, 9)} AND {rng.randint(10, 30)}",
        f"{num} IN ({_number(rng)}, {_number(rng)})",
        f"{text} {rng.choice(('=', '!='))} '{rng.choice(STRINGS)}'",
        f"{text} LIKE '%{rng.choice('xyz')}%'",
        f"{text} IS NULL",
        f"{text} IS NOT NULL",
    ))


def _columns(rng: random.Random, table: str) -> str:
    """A comparison of two columns of `table`."""
    a, b = rng.sample(NUMBERS[table], 2)
    return f"{table}.{a} {rng.choice(('=', '!=', '<', '>='))} {table}.{b}"


def _query(rng: random.Random, shape: str) -> str:
    table = rng.choice(tuple(NUMBERS))
    select = f"{table}.{TEXTS[table][0]}"
    source = table
    if shape == "or":
        cond = " OR ".join(_atom(rng, table) for _ in range(rng.randint(2, 3)))
        if rng.random() < 0.4:
            cond = f"({_atom(rng, table)} AND {_atom(rng, table)}) OR {cond}"
    elif shape == "columns":
        cond = _columns(rng, table)
        if rng.random() < 0.5:
            cond += f" OR {_atom(rng, table)}"
    elif shape == "not":
        negated = rng.choice((_atom(rng, table), f"({_atom(rng, table)} AND {_atom(rng, table)})"))
        cond = f"{_atom(rng, table)} OR NOT {negated}"
    elif shape == "join":
        left, right, on = rng.choice(JOINS)
        select = f"{left}.{TEXTS[left][0]}, {right}.{TEXTS[right][0]}"
        source = f"{left} JOIN {right} ON {on}"
        cond = f"{_atom(rng, left)} OR {_atom(rng, right)}"
        table = rng.choice((left, right))
    elif shape == "having":
        num = f"{table}.{rng.choice(NUMBERS[table])}"
        agg = f"{rng.choice(('COUNT', 'SUM', 'AVG', 'MIN', 'MAX'))}({num})"
        other = f"{rng.choice(('COUNT', 'MAX'))}({table}.id)"
        having = f"{agg} > {rng.randint(0, 9)} OR {other} < {rng.randint(1, 9)}"
        where = f" WHERE {_atom(rng, table)}" if rng.random() < 0.5 else ""
        return (f"SELECT {select}, {agg} FROM {table}{where} GROUP BY {select} "
                f"HAVING {having}")
    elif shape == "arithmetic":
        a, b = (f"{table}.{c}" for c in rng.sample(NUMBERS[table], 2))
        cond = rng.choice((f"{a} + {rng.randint(1, 9)} > {b} * 2",
                           f"({a} - {b}) / 2 = {rng.randint(0, 9)} OR {_atom(rng, table)}",
                           f"{a} * -1 < {b} OR {a} + {b} BETWEEN 1 AND 9"))
    elif shape == "subquery":
        inner = rng.choice(tuple(NUMBERS))
        sub = f"SELECT {rng.choice(('AVG', 'MAX'))}({inner}.id) FROM {inner}"
        cond = rng.choice((f"{_atom(rng, table)} OR {table}.id > ({sub})",
                           f"{_atom(rng, table)} OR {table}.id = ({sub}) + 1",
                           f"{_atom(rng, table)} OR {table}.id IN "
                           f"(SELECT {inner}.id FROM {inner})"))
    else:  # an unknown column beside a subquery
        cond = (f"{table}.nope = {rng.randint(0, 9)} OR "
                f"{table}.id IN (SELECT {table}.id FROM {table})")
    where = f" WHERE {cond}"
    if rng.random() < 0.3:
        where += f" AND {_atom(rng, table)}"
    tail = f" ORDER BY {select.split(', ')[0]} DESC" if rng.random() < 0.3 else ""
    query = f"SELECT {select} FROM {source}{where}{tail}"
    return query.lower() if rng.random() < 0.15 else query


HAND_WRITTEN_SQL = (
    # unqualified and aliased columns in a compound
    "SELECT name FROM customers WHERE age > 3 OR city = 'Reno'",
    "SELECT c.name FROM customers AS c WHERE c.age > 3 OR c.id = c.age",
    # operand order, spacing and case that the canonical form settles
    "select customers.name from customers where 3 < customers.age or customers.age=customers.id",
    # nested lists
    "SELECT customers.name FROM customers WHERE customers.age > 1 OR (customers.age < 5 "
    "OR (customers.id = 2 AND customers.city IS NULL))",
    "SELECT customers.name FROM customers WHERE NOT (customers.age > 1 OR customers.id = 2) "
    "OR customers.city = 'x'",
    "SELECT customers.name FROM customers WHERE NOT NOT customers.age > 1 OR customers.id = 2",
    # calls inside a compound
    "SELECT customers.name FROM customers WHERE LOWER(customers.city) = 'reno' OR customers.id = 1",
    "SELECT customers.name FROM customers WHERE SUBSTRING(customers.city, 1, 2) = 're' "
    "OR customers.id = 1",
    "SELECT customers.name FROM customers WHERE SUBSTR(customers.city, -2) = 'no' "
    "OR customers.id = 1",
    "SELECT customers.name FROM customers WHERE CAST(customers.age AS text) = '3' "
    "OR customers.id = 1",
    "SELECT customers.city, COUNT(customers.id) FROM customers GROUP BY customers.city "
    "HAVING COUNT(DISTINCT customers.age) > 1 OR COUNT(customers.id) < 3",
    "SELECT customers.city FROM customers GROUP BY customers.city "
    "HAVING COUNT(*) > 1 OR MAX(customers.age) < 3",
    "SELECT customers.name FROM customers WHERE customers.city = 'a\nb' OR customers.id = 1",
    "SELECT customers.name FROM customers WHERE 1 = 1 OR 2 = 2",
    # an unknown column in a compound
    "SELECT customers.name FROM customers WHERE customers.nope = 1 OR customers.id = 2",
    # a compound in a subquery's WHERE
    "SELECT customers.name FROM customers WHERE customers.age > (SELECT MAX(orders.total) "
    "FROM orders WHERE orders.total > 3 OR orders.id = orders.customer_id)",
    # an outer join's ON with two conditions
    "SELECT customers.name FROM customers LEFT JOIN orders ON orders.customer_id = customers.id "
    "AND orders.total > 3 WHERE customers.age > 1 OR customers.id = 2",
)


def _nest(levels: int) -> str:
    """`orders.id` inside `levels` levels of `(... + 1)`."""
    text = "orders.id"
    for _ in range(levels):
        text = f"({text} + 1)"
    return text


def _filtered(condition: str) -> str:
    return (f"df1 = df.where(element = orders.id, filter = '{condition}')\n"
            "res = df1.select(orders.id)\n")


HAND_WRITTEN_TRAJECTORIES = (
    _filtered("(nope nope"),
    _filtered("(orders.id = 1 or orders.id in (select x from y))"),
    _filtered("(nope = 1 or orders.id = 2)"),
    _filtered("(orders.id = 1 or nope.x = 2)"),
    _filtered("(orders.id = 1 or orders.nope = 2)"),
    _filtered("(orders.id = 1 or orders.id in (select items.order_id from items))"),
    _filtered("(orders.id = 1 or lower(orders.status) = ''x'')"),
    _filtered("(orders.total > 3 or orders.total = orders.id)"),
    _filtered("(ORDERS.id=1 OR orders.total>2)"),
    _filtered("(1 = 1)"),
    _filtered("(orders.id = 1 and orders.total > 2)"),
    _filtered("(orders.id = 1 or not orders.total > 2)"),
    _filtered(f"(orders.id = 1 or orders.total = {_nest(31)})"),
    _filtered(f"(orders.id = 1 or orders.total = {_nest(32)})"),
    # the 31-level compound in the frame of a subquery operand
    "df1 = df.where(element = orders.id, "
    f"filter = '(orders.id = 1 or orders.total = {_nest(31)})')\n"
    "df2 = df1.select(orders.id)\n"
    "df3 = df.where(element = customers.id, filter = '= df2')\n"
    "res = df3.select(customers.name)\n",
)


def _outcome(fn) -> str:
    try:
        return fn()
    except SqlStepsError as exc:
        return f"!{type(exc).__name__}: {exc}"


def _reverted(fn) -> list[str]:
    """The reverted text `fn()` returns, or its error, and whether `parse_sql`
    takes the text back."""
    text = _outcome(fn)
    if text.startswith("!"):
        return [text]
    return [text, _outcome(lambda: parse_sql(text) and "parses")]


def sql_record(sql: str, d) -> dict:
    query = SqlQuery.raw(sql)
    record = {
        "sql": sql,
        "canonical": _outcome(lambda: canonicalize(query, None)),
        "canonical_db": _outcome(lambda: canonicalize(query, d)),
        "decompose": _outcome(lambda: render_trajectory(decompose(query, d))),
    }
    report = round_trip(query, d)
    record["round_trip"] = [report.verdict, report.reason] if report.reverted is None \
        else [report.verdict, *_reverted(lambda: report.reverted.text)]
    if not record["decompose"].startswith("!"):
        trajectory = decompose(query, d)
        record["mask"] = _outcome(lambda: mask_schema(trajectory).template)
        record["revert"] = _reverted(
            lambda: revert(parse_trajectory(record["decompose"]), d).text)
    return record


def trajectory_record(text: str, d) -> dict:
    return {"trajectory": text, "revert": _reverted(lambda: revert(parse_trajectory(text), d).text)}


def pin_records(d) -> list[dict]:
    queries = list(dict.fromkeys(compound_queries() + list(HAND_WRITTEN_SQL)))
    return [sql_record(sql, d) for sql in queries] + \
        [trajectory_record(text, d) for text in HAND_WRITTEN_TRAJECTORIES]


def test_outputs_match_the_pin(store):
    pinned = [json.loads(line) for line in PIN.read_text(encoding="utf-8").splitlines()]
    now = pin_records(store)
    assert [r.get("sql", r.get("trajectory")) for r in pinned] == \
        [r.get("sql", r.get("trajectory")) for r in now]
    changed = [(old, new) for old, new in zip(pinned, now) if old != new]
    assert not changed, changed[:3]


def test_every_shape_holds_a_compound(store):
    decomposed = [_outcome(lambda: render_trajectory(decompose(SqlQuery.raw(sql), store)))
                  for sql in compound_queries(len(SHAPES))]
    for shape, text in zip(SHAPES, decomposed):
        if shape in ("subquery", "unknown"):
            assert text.startswith("!"), (shape, text)
        else:
            assert "filter = '(" in text, (shape, text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_compound_pin.py --write")
    store = load_schema_dir(FIXTURES / "schemas")["store"]
    with PIN.open("w", encoding="utf-8") as out:
        for record in pin_records(store):
            out.write(json.dumps(record) + "\n")
