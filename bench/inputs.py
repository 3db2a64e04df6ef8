"""Seeded inputs for the sqlsteps benchmark.

Everything here is the benchmark's own: the store database rows, the
meaning-preserving rewrites and the seed list are drawn from an RNG keyed by
the workload seed, so one seed always gives the same inputs. The only call
into the program is `querygen.random_queries`, which is itself seeded.
"""

from __future__ import annotations

import random
import re
from collections import Counter

# The literal vocabulary of `querygen`: text literals, int literals 0..50 and
# reals k/4, so generated conditions hit the generated rows.
TEXT_VOCAB = ("alpha", "beta", "gamma", "delta")
N_CUSTOMERS, N_ORDERS, N_ITEMS = 50, 100, 200
NULL_SHARE = 0.1

# Two seeds whose gold and (meaning-preserving) initial SQL are the same
# text. `build_lom_corpus` perturbs every seed from stream index 0, so both
# draw identical pairs and the lom provenance map credits all of them to the
# later id. The literal 60 lies outside querygen's 0..50 range, so no
# generated seed can share this verified trajectory.
PROBE_GOLD = ("SELECT customers.name, customers.age FROM customers "
              "WHERE customers.age >= 60 ORDER BY customers.age DESC")
PROBE_IDS = ("p1", "p2")

_KEYWORDS = re.compile(
    r"\b(SELECT|DISTINCT|FROM|JOIN|ON|WHERE|AND|BETWEEN|IN|LIKE|IS|NOT|NULL|GROUP|"
    r"BY|HAVING|ORDER|ASC|DESC|LIMIT|OFFSET|UNION|INTERSECT|EXCEPT|COUNT|SUM|AVG|"
    r"MIN|MAX)\b")
_LITERAL_SPLIT = re.compile(r"('[^']*')")
_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)


def store_ddl(fixture_script: str) -> str:
    """The CREATE TABLE statements of the shipped store fixture, rows dropped."""
    statements = [s.strip() for s in fixture_script.split(";")]
    return "".join(s + ";\n" for s in statements if s.upper().startswith("CREATE TABLE"))


def store_script(ddl: str, seed: int) -> str:
    """DDL plus rows drawn from querygen's literal vocabulary."""
    rng = random.Random(f"bench-store:{seed}")

    def text() -> str:
        return "NULL" if rng.random() < NULL_SHARE else f"'{rng.choice(TEXT_VOCAB)}'"

    def real() -> str:
        return f"{rng.randint(1, 400) / 4:.2f}"

    rows = []
    for i in range(1, N_CUSTOMERS + 1):
        rows.append(f"INSERT INTO customers VALUES ({i}, {text()}, {rng.randint(0, 50)}, {text()});")
    for i in range(1, N_ORDERS + 1):
        placed = f"'2021-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}'"
        rows.append(f"INSERT INTO orders VALUES ({i}, {rng.randint(1, N_CUSTOMERS)}, "
                    f"{real()}, {placed}, {text()});")
    for i in range(1, N_ITEMS + 1):
        rows.append(f"INSERT INTO items VALUES ({i}, {rng.randint(1, N_ORDERS)}, {real()}, "
                    f"{rng.randint(0, 50)}, {text()});")
    return ddl + "\n".join(rows) + "\n"


def has_order_by(sql: str) -> bool:
    """Top-level ORDER BY; querygen never sorts inside a subquery or set operand."""
    return _ORDER_BY.search(sql) is not None


def _outside_literals(sql: str, fn) -> str:
    parts = _LITERAL_SPLIT.split(sql)
    return "".join(part if i % 2 else fn(part) for i, part in enumerate(parts))


def lower_keywords(sql: str) -> str:
    return _outside_literals(sql, lambda part: _KEYWORDS.sub(lambda m: m.group(0).lower(), part))


def single_table(sql: str) -> str | None:
    """The one table a query reads, or None for joins, subqueries and set ops."""
    upper = sql.upper()
    if " JOIN " in upper or "(SELECT" in upper or re.search(r"\b(UNION|INTERSECT|EXCEPT)\b", upper):
        return None
    match = re.search(r"\bFROM (\w+)", sql, re.IGNORECASE)
    return match.group(1) if match else None


def rewrite(sql: str, rng: random.Random) -> str:
    """A meaning-preserving rewrite: lower-cased keywords, and for single-table
    queries (half the time) unqualified column names."""
    out = lower_keywords(sql)
    table = single_table(sql)
    if table is not None and rng.random() < 0.5:
        out = _outside_literals(out, lambda part: part.replace(f"{table}.", ""))
    return out


def distinct_queries(random_queries, n: int, seed: int) -> tuple[list[str], int]:
    """The first n distinct queries of the seeded stream, and how many were drawn."""
    drawn = 2 * n
    while True:
        out: list[str] = []
        seen: set[str] = set()
        for i, query in enumerate(random_queries(drawn, seed)):
            if query not in seen:
                seen.add(query)
                out.append(query)
                if len(out) == n:
                    return out, i + 1
        drawn *= 2


def make_seeds(queries: list[str], seed: int) -> list[dict]:
    """One store seed per query: gold is the query; the initial SQL is a
    meaning-preserving rewrite or, half the time, a different generated query."""
    rng = random.Random(f"bench-seeds:{seed}")
    seeds = []
    for i, gold in enumerate(queries):
        if rng.random() < 0.5:
            initial, kind = rewrite(gold, rng), "rewrite"
        else:
            j = rng.randrange(len(queries) - 1)
            initial, kind = queries[j + (j >= i)], "other"
        seeds.append({"id": f"g{i:04d}", "db": "store", "question": f"generated question {i}",
                      "gold_sql": gold, "initial_sql": initial, "initial_kind": kind})
    return seeds


def probe_seeds() -> list[dict]:
    return [{"id": sid, "db": "store", "question": "probe: duplicate verified trajectory",
             "gold_sql": PROBE_GOLD, "initial_sql": lower_keywords(PROBE_GOLD)}
            for sid in PROBE_IDS]


def query_mix(queries: list[str]) -> dict:
    """Shares of query shapes and of duplicate texts."""
    shapes: Counter = Counter()
    for q in queries:
        if re.search(r"\b(UNION|INTERSECT|EXCEPT)\b", q):
            shapes["set_op"] += 1
        elif "(SELECT" in q:
            shapes["subquery"] += 1
        elif " JOIN " in q:
            shapes["join"] += 1
        elif "GROUP BY" in q:
            shapes["grouped"] += 1
        else:
            shapes["single"] += 1
    n = len(queries)
    mix = {f"{k}_share": round(v / n, 4) for k, v in sorted(shapes.items())}
    mix["queries"] = n
    mix["duplicate_share"] = round(1 - len(set(queries)) / n, 4)
    return mix
