"""Pinned canonical forms and decompositions of the per-core rewrite.

`tests/fixtures/golden/normalize_pin.jsonl` holds one record per query: its
`canonicalize` text without and with the database, and its `decompose`
trajectory text or error (`Class: message`). The queries are the generated
seeds' gold and initial SQL, the fixture seeds, and hand-written cases for
table and select-item aliases, `COUNT(*)`, `SELECT *`, nested subqueries, set
operations and the column errors of `decompose`, in the order each is raised.

Regenerate the pin (only for an intended change of output) with
`PYTHONPATH=src python tests/test_normalize_pin.py --write`.
"""

from __future__ import annotations

import json
import sys

from sqlsteps.bridge import decompose
from sqlsteps.corpus import read_seed_file
from sqlsteps.errors import SqlStepsError
from sqlsteps.schema import load_schema_dir
from sqlsteps.sqlast import SqlQuery, canonicalize
from sqlsteps.trajectory import render_trajectory

from conftest import FIXTURES, generated_seeds

PIN = FIXTURES / "golden" / "normalize_pin.jsonl"

# (database, sql)
HAND_WRITTEN = [("store", sql) for sql in (
    # table aliases
    "SELECT c.name FROM customers AS c WHERE c.age > 30",
    "SELECT name FROM customers c WHERE c.city = 'Reno' ORDER BY c.age DESC",
    "SELECT c.name, o.total FROM customers c JOIN orders o ON o.customer_id = c.id "
    "WHERE o.status = 'paid'",
    "SELECT c.name, o.total, i.qty FROM customers AS c INNER JOIN orders AS o "
    "ON c.id = o.customer_id JOIN items AS i ON i.order_id = o.id ORDER BY i.qty DESC LIMIT 3",
    "SELECT x.name FROM customers AS x, orders AS x",
    # select-item aliases in GROUP BY, HAVING and ORDER BY
    "SELECT city AS town, COUNT(*) AS n FROM customers GROUP BY town HAVING n > 1 "
    "ORDER BY n DESC",
    "SELECT c.city AS town, AVG(c.age) AS mean FROM customers AS c GROUP BY town ORDER BY mean",
    "SELECT COUNT(*) AS n, status FROM orders GROUP BY status HAVING n >= 2",
    "SELECT COUNT(*) + 1 AS m, status FROM orders GROUP BY status ORDER BY m",
    "SELECT COUNT(*) AS n FROM orders GROUP BY n",
    "SELECT status AS s, COUNT(*) FROM orders GROUP BY s ORDER BY s",
    "SELECT o.total * 2 AS twice FROM orders AS o ORDER BY twice",
    "SELECT name AS age FROM customers WHERE age > 3 ORDER BY age",
    "SELECT name AS n, age AS n FROM customers ORDER BY n",
    # COUNT(*) with and without GROUP BY, COUNT(DISTINCT ...)
    "SELECT COUNT(*) FROM customers",
    "SELECT COUNT(*) FROM orders WHERE total > 10",
    "SELECT city, COUNT(*) FROM customers GROUP BY city",
    "SELECT COUNT(*) FROM customers JOIN orders ON orders.customer_id = customers.id",
    "SELECT customers.city, COUNT(*) FROM customers JOIN orders "
    "ON orders.customer_id = customers.id GROUP BY customers.city",
    "SELECT COUNT(DISTINCT city) FROM customers",
    "SELECT COUNT(DISTINCT customers.city), COUNT(*) FROM customers GROUP BY customers.age",
    "SELECT COUNT(*) FROM customers GROUP BY age + 1, city",
    "SELECT COUNT(*) FROM customers GROUP BY COUNT(*), city",
    "SELECT COUNT(*)",
    "SELECT COUNT(*) FROM customers HAVING COUNT(*) > 1",
    "SELECT city FROM customers GROUP BY city HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC",
    # SELECT *
    "SELECT * FROM customers",
    "SELECT * FROM customers c JOIN orders o ON o.customer_id = c.id",
    "SELECT *, name FROM customers WHERE age > 3",
    "SELECT DISTINCT * FROM customers",
    "SELECT * FROM nowhere",
    "SELECT *",
    # subqueries in WHERE, SELECT and IN
    "SELECT name FROM customers WHERE age > (SELECT AVG(age) FROM customers)",
    "SELECT c.name FROM customers c WHERE c.age > "
    "(SELECT AVG(c2.age) FROM customers c2 WHERE c2.city = 'Reno')",
    "SELECT name, (SELECT COUNT(*) FROM orders) FROM customers",
    "SELECT c.name, (SELECT MAX(o.total) AS m FROM orders o ORDER BY m) AS top "
    "FROM customers c ORDER BY top",
    "SELECT name FROM customers WHERE id IN (SELECT customer_id FROM orders WHERE total > 5)",
    "SELECT c.name AS nm FROM customers c WHERE c.age > (SELECT AVG(o.total) AS a FROM orders o "
    "WHERE o.total > (SELECT MAX(i.price) AS p FROM items i WHERE i.qty > "
    "(SELECT COUNT(*) AS n FROM items i2 GROUP BY i2.order_id ORDER BY n LIMIT 1))) ORDER BY nm",
    "SELECT c.name FROM customers AS c WHERE c.id IN (SELECT o.customer_id AS k FROM orders AS o "
    "WHERE o.total > (SELECT AVG(i.price) AS p FROM items AS i WHERE i.qty IN "
    "(SELECT i2.qty AS q FROM items AS i2 ORDER BY q)))",
    "SELECT c.city AS town, (SELECT COUNT(*) AS n FROM orders o WHERE o.total > "
    "(SELECT MIN(i.price) AS p FROM items i GROUP BY i.order_id HAVING p > 1)) FROM customers c "
    "GROUP BY town",
    "SELECT name FROM customers WHERE age > (SELECT COUNT(*) FROM orders GROUP BY status)",
    "SELECT name FROM customers WHERE age = (SELECT COUNT(*) FROM orders)",
    "SELECT name FROM customers WHERE (SELECT MAX(age) FROM customers) < age",
    "SELECT name FROM customers WHERE age > 3 OR age < (SELECT AVG(age) FROM customers)",
    "SELECT customers.name FROM customers WHERE customers.age > 1 OR customers.age = "
    "(SELECT MAX(nope.total) FROM orders) + 1",
    "SELECT customers.name FROM customers WHERE customers.id = 1 OR customers.id IN "
    "(SELECT orders.customer_id FROM orders)",
    # set operations
    "SELECT name FROM customers UNION SELECT status FROM orders",
    "SELECT c.name FROM customers c INTERSECT SELECT o.status AS s FROM orders o ORDER BY s",
    "SELECT city, COUNT(*) FROM customers GROUP BY city EXCEPT "
    "SELECT status, COUNT(*) FROM orders GROUP BY status",
    "SELECT name FROM customers UNION ALL SELECT status FROM orders",
    "SELECT a.name FROM customers a UNION SELECT b.status AS name FROM orders b "
    "UNION SELECT c.product FROM items c",
    # column errors and the clause order they are raised in
    "SELECT c.name FROM customers c WHERE c.age > "
    "(SELECT AVG(o.total) FROM orders o WHERE o.customer_id = c.id)",
    "SELECT name FROM customers WHERE age > "
    "(SELECT AVG(total) FROM orders WHERE orders.customer_id = customers.id)",
    "SELECT name FROM customers WHERE age > "
    "(SELECT COUNT(*) FROM orders WHERE nope = 1 GROUP BY customers.id)",
    "SELECT nope FROM customers",
    "SELECT customers.nope FROM customers",
    "SELECT orders.id FROM customers",
    "SELECT id FROM customers JOIN orders ON orders.customer_id = customers.id",
    "SELECT name FROM customers JOIN orders ON customer_id = customers.id",
    "SELECT name FROM customers c JOIN orders o ON o.id = c.id",
    "SELECT name FROM customers JOIN orders ON orders.customer_id = nowhere.id",
    "SELECT name FROM customers JOIN nowhere ON nowhere.id = customers.id",
    "SELECT c.name FROM customers c JOIN orders o ON o.customer_id = c.id WHERE nope = 1 "
    "ORDER BY id",
    "SELECT COUNT(*), nope FROM customers JOIN orders ON orders.customer_id = customers.id "
    "GROUP BY id",
    "SELECT COUNT(*) FROM customers JOIN orders ON orders.customer_id = customers.id "
    "WHERE nope = 1 GROUP BY id",
    "SELECT COUNT(*) FROM customers WHERE nope = 1 GROUP BY customers.missing",
    "SELECT name FROM customers WHERE age > (SELECT COUNT(*) FROM customers JOIN orders "
    "ON orders.customer_id = customers.id WHERE nope = 1 GROUP BY id)",
    "SELECT c.name FROM customers c WHERE c.age > "
    "(SELECT COUNT(*) FROM orders o WHERE nope = 1 GROUP BY c.id)",
    "SELECT c.name FROM customers c WHERE c.age > "
    "(SELECT COUNT(*) FROM orders o WHERE nope = 1 GROUP BY o.total)",
    "SELECT c.name FROM customers c JOIN orders o ON o.customer_id = c.id WHERE o.total = "
    "(SELECT COUNT(*) FROM orders WHERE age < 3 GROUP BY nope)",
    "SELECT name FROM customers WHERE age = (SELECT COUNT(*) FROM orders WHERE age < 3 GROUP BY nope)",
    "SELECT name FROM customers GROUP BY nope HAVING COUNT(*) > 1",
    "SELECT name FROM customers WHERE age > (SELECT AVG(age) FROM customers c, orders o)",
    "SELECT name FROM customers WHERE age > 3 GROUP BY name HAVING bogus > 1 ORDER BY missing",
)]


def pin_cases() -> list[tuple[str, str]]:
    seeds = generated_seeds() + read_seed_file(FIXTURES / "seeds" / "fixture_seeds.jsonl")
    cases = [(s.db, sql) for s in seeds for sql in (s.gold_sql, s.initial_sql)]
    return list(dict.fromkeys(cases + HAND_WRITTEN))


def _outcome(fn) -> str:
    try:
        return fn()
    except SqlStepsError as exc:
        return f"!{type(exc).__name__}: {exc}"


def pin_record(db: str, sql: str, schemas) -> dict:
    d = schemas[db]
    query = SqlQuery.raw(sql)
    return {
        "db": db,
        "sql": sql,
        "canonical": _outcome(lambda: canonicalize(query, None)),
        "canonical_db": _outcome(lambda: canonicalize(query, d)),
        "decompose": _outcome(lambda: render_trajectory(decompose(query, d))),
    }


def test_outputs_match_the_pin(schemas):
    pinned = [json.loads(line) for line in PIN.read_text(encoding="utf-8").splitlines()]
    assert [(r["db"], r["sql"]) for r in pinned] == pin_cases()
    changed = [(r, now) for r in pinned if (now := pin_record(r["db"], r["sql"], schemas)) != r]
    assert not changed, changed[:3]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_normalize_pin.py --write")
    schemas = load_schema_dir(FIXTURES / "schemas")
    with PIN.open("w", encoding="utf-8") as out:
        for db, sql in pin_cases():
            out.write(json.dumps(pin_record(db, sql, schemas)) + "\n")
