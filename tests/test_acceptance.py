"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything here is offline and deterministic.
"""

import random
import re
import time

import pytest

from sqlsteps.bridge import PASS, decompose, revert, round_trip
from sqlsteps.corpus import (
    build_bam_corpus,
    build_lom_corpus,
    build_sam_corpus,
    compute_stats,
    read_corpus,
    write_corpus,
)
from sqlsteps.evaluate import evaluate_correction, ex_match
from sqlsteps.masking import fill_mask, mask_schema
from sqlsteps.perturb import (
    ADD,
    DELETE,
    KINDS,
    SUBSTITUTE,
    PerturbationConfig,
    inject_negatives,
    perturb_once,
)
from sqlsteps.pipeline import build_backends, correct_batch, run_pipeline
from sqlsteps.querygen import enumerate_queries, random_queries, store_database
from sqlsteps.sqlast import SqlQuery, canonicalize, parse_sql
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import FIXTURES, golden


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- criterion 1: round-trip suite -----------------------------------------------

def test_criterion_1_round_trip_suite():
    d = store_database()
    queries = enumerate_queries() + random_queries(512, seed=20240601)
    assert len(queries) >= 500
    start = time.perf_counter()
    failures = []
    for sql in queries:
        verdict = round_trip(parse_sql(sql), d).verdict
        if verdict != PASS:
            failures.append((sql, verdict))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(1, ok, f"{len(queries)} queries, {len(failures)} non-pass, {elapsed:.2f}s")


# --- criterion 2: golden case-study suite ------------------------------------------

def test_criterion_2_golden_suite(schools):
    initial = parse_sql(golden("table9_initial.sql"))
    gold = parse_sql(golden("table9_gold.sql"))

    checks = {
        # COUNT(*) normalizes to the group-by column (documented), so the
        # converted initial matches the shipped golden byte for byte.
        "initial decomposes to golden":
            render_trajectory(decompose(initial, schools)) == golden("table9_bam.traj"),
        "gold decomposes to golden":
            render_trajectory(decompose(gold, schools)) == golden("table9_gold_decomposed.traj"),
        "final trajectory reverts to the published output":
            canonicalize(revert(parse_trajectory(golden("table9_lom.traj")), schools), schools)
            == canonicalize(gold, schools),
        "gold SQL round-trips": round_trip(gold, schools).verdict == PASS,
        "canonical text is a parse/render fixed point":
            render_trajectory(parse_trajectory(golden("table9_lom.traj")))
            == golden("table9_lom.traj"),
    }
    failing = [name for name, ok in checks.items() if not ok]
    report(2, not failing, f"{len(checks)} golden checks" +
           (f"; failing: {failing}" if failing else ""))


# --- criterion 3: perturbation goldens + arity invariants ----------------------------

GOLDEN_SEEDS = {ADD: 32, DELETE: 1, SUBSTITUTE: 1}
GOLDEN_FILES = {ADD: ("table1_add_before.traj", "table1_add_after.traj", "cinema"),
                DELETE: ("table1_delete_before.traj", "table1_delete_after.traj", "social"),
                SUBSTITUTE: ("table1_substitute_before.traj", "table1_substitute_after.traj",
                             "retail")}


def test_criterion_3_perturbation_goldens(schemas, schools):
    golden_ok = True
    for kind, (before_name, after_name, schema_name) in GOLDEN_FILES.items():
        before = parse_trajectory(golden(before_name))
        after = parse_trajectory(golden(after_name))
        seed = GOLDEN_SEEDS[kind]
        got, _ = perturb_once(before, kind, random.Random(f"golden:{seed}"),
                              schemas[schema_name], seed=seed)
        golden_ok = golden_ok and render_trajectory(got) == render_trajectory(after)

    t = parse_trajectory(golden("table9_sam.traj"))
    expected = {ADD: 1, DELETE: -1, SUBSTITUTE: 0}
    violations = 0
    for i in range(1000):
        kind = KINDS[i % 3]
        got, _ = perturb_once(t, kind, random.Random(f"acc3:{i}"), schools, seed=i)
        if got.action_count() - t.action_count() != expected[kind]:
            violations += 1
        if render_trajectory(got) == render_trajectory(t):
            violations += 1
    ok = golden_ok and violations == 0
    report(3, ok, f"3 published pairs reproduced: {golden_ok}; "
                  f"1000 perturbations, {violations} arity violations")


# --- criterion 4: mask/fill inverse ---------------------------------------------------

def test_criterion_4_mask_fill_inverse():
    d = store_database()
    schema_names = [tbl.name for tbl in d.tables] + \
        [col.name for tbl in d.tables for col in tbl.columns]
    patterns = [re.compile(rf"\b{re.escape(name)}\b") for name in schema_names]
    mismatches = leaks = 0
    for sql in random_queries(1000, seed=424242):
        t = decompose(parse_sql(sql), d)
        masked = mask_schema(t)
        filled = fill_mask(masked, masked.slot_values(), d)
        if render_trajectory(filled) != render_trajectory(t):
            mismatches += 1
        if any(p.search(masked.template) for p in patterns):
            leaks += 1
    ok = mismatches == 0 and leaks == 0
    report(4, ok, f"1000 trajectories; {mismatches} inverse mismatches, "
                  f"{leaks} schema-name leaks")


# --- criterion 5: negative-ratio exactness ----------------------------------------------

def test_criterion_5_negative_ratio():
    verified = parse_trajectory("res = df.select(t.a)")
    erroneous = parse_trajectory("res = df.select(t.b)")
    wrong = []
    for n in range(1, 101):
        out = inject_negatives([(erroneous, verified)] * n, seed=n)
        identities = sum(1 for a, b in out
                         if render_trajectory(a) == render_trajectory(b))
        if identities != n // 4 or len(out) != n + n // 4:
            wrong.append(n)
    report(5, not wrong, f"sizes 1..100; deviations at {wrong or 'none'}")


# --- criterion 6: pipeline determinism + ablation wiring ----------------------------------

def test_criterion_6_pipeline_determinism_and_ablation(store):
    sql = ("SELECT customers.name FROM customers JOIN orders "
           "ON orders.customer_id = customers.id WHERE orders.total > 50.0")

    def run_with(config):
        return run_pipeline(store, "who spent more", sql, build_backends(config))

    a = run_with({})
    b = run_with({})
    deterministic = (
        render_trajectory(a.trajectory_final) == render_trajectory(b.trajectory_final)
        and a.feedback.prompt == b.feedback.prompt
        and a.feedback.reverted_sql == b.feedback.reverted_sql
        and [s.output for s in a.stages] == [s.output for s in b.stages])

    no_sam = run_with({"sam_mask": {"kind": "identity"}, "sam_fill": {"kind": "identity"}})
    sam_passthrough = (
        render_trajectory(no_sam.trajectory_schema)
        == render_trajectory(no_sam.trajectory_initial)
        and all(s.identity for s in no_sam.stages if s.stage.startswith("sam")))

    no_lom = run_with({"lom": {"kind": "identity"}})
    lom_passthrough = (
        render_trajectory(no_lom.trajectory_final)
        == render_trajectory(no_lom.trajectory_schema)
        and next(s for s in no_lom.stages if s.stage == "lom").identity)

    ok = deterministic and sam_passthrough and lom_passthrough
    report(6, ok, f"deterministic: {deterministic}; identity-SAM pass-through: "
                  f"{sam_passthrough}; identity-LOM pass-through: {lom_passthrough}")


# --- criterion 7: fixture execution-accuracy harness ---------------------------------------

# (pred, gold, db, expected) - expectations hand-derived from the fixture rows
EX_PAIRS = [
    ("SELECT name FROM customers WHERE age > 30",
     "SELECT name FROM customers WHERE age > 30", "store", True),
    ("SELECT name FROM customers WHERE age > 30 AND city = 'Reno'",
     "SELECT name FROM customers WHERE city = 'Reno' AND age > 30", "store", True),
    ("SELECT name FROM customers WHERE age > 30",
     "SELECT name FROM customers WHERE age >= 30", "store", True),
    ("SELECT name FROM customers WHERE age > 27",
     "SELECT name FROM customers WHERE age >= 27", "store", False),
    ("SELECT name FROM customers ORDER BY age ASC, name ASC",
     "SELECT name FROM customers ORDER BY age ASC, name ASC", "store", True),
    ("SELECT status FROM orders ORDER BY total DESC LIMIT 2",
     "SELECT status FROM orders ORDER BY total ASC LIMIT 2", "store", False),
    ("SELECT total FROM orders WHERE status = 'paid' ORDER BY total ASC",
     "SELECT total FROM orders WHERE status = 'paid'", "store", True),
    ("SELECT COUNT(*) FROM orders WHERE status = 'open'",
     "SELECT COUNT(id) FROM orders WHERE status = 'open'", "store", True),
    ("SELECT COUNT(*) FROM orders WHERE status = 'paid'",
     "SELECT COUNT(id) FROM orders WHERE status = 'open'", "store", False),
    ("SELECT city FROM customers WHERE city IS NULL",
     "SELECT city FROM customers WHERE id = 5", "store", True),
    ("SELECT 0.1 + 0.2 FROM customers WHERE id = 1",
     "SELECT 0.3 FROM customers WHERE id = 1", "store", True),
    ("SELECT bogus FROM customers",
     "SELECT name FROM customers", "store", False),
    ("SELECT status, COUNT(id) FROM orders GROUP BY status",
     "SELECT status, COUNT(*) FROM orders GROUP BY status", "store", True),
    ("SELECT status, SUM(total) FROM orders GROUP BY status",
     "SELECT status, COUNT(*) FROM orders GROUP BY status", "store", False),
    ("SELECT customers.name FROM customers JOIN orders ON orders.customer_id = customers.id "
     "WHERE orders.total > 100",
     "SELECT name FROM customers WHERE id IN (1, 5)", "store", True),
    ("SELECT DISTINCT city FROM customers",
     "SELECT city FROM customers GROUP BY city", "store", True),
    ("SELECT product FROM items WHERE qty >= 3",
     "SELECT product FROM items WHERE qty > 2", "store", True),
    ("__TABLE9_INITIAL__", "__TABLE9_GOLD__", "schools", False),
    ("__TABLE9_GOLD__", "__TABLE9_GOLD_DATEFN__", "schools", True),
    ("SELECT city FROM customers WHERE age < 20 UNION SELECT status FROM orders "
     "WHERE total > 150",
     "SELECT 'Provo' UNION SELECT 'paid'", "store", True),
]


def _resolve(text: str) -> str:
    return {
        "__TABLE9_INITIAL__": golden("table9_initial.sql"),
        "__TABLE9_GOLD__": golden("table9_gold.sql"),
        "__TABLE9_GOLD_DATEFN__": golden("table9_gold_datefn.sql"),
    }.get(text, text)


def test_criterion_7_execution_harness(dbs, schemas, fixture_seeds):
    assert len(EX_PAIRS) == 20
    mismatches = []
    for index, (pred, gold, db_name, expected) in enumerate(EX_PAIRS):
        got = ex_match(SqlQuery.raw(_resolve(pred)), SqlQuery.raw(_resolve(gold)),
                       dbs[db_name])
        if got is not expected:
            mismatches.append(index)

    scripted = build_backends({
        stage: {"kind": "scripted", "script_file": "backends/table9_script.json"}
        for stage in ("bam", "sam_mask", "sam_fill", "lom")
    }, base_dir=FIXTURES)
    seeds_s01 = [s for s in fixture_seeds if s.id == "s01"]
    flip_report = evaluate_correction(
        correct_batch(seeds_s01, scripted, schemas), seeds_s01, dbs, schemas)
    flipped = (not flip_report.per_instance[0].baseline_correct
               and flip_report.per_instance[0].ex_match)

    identity = build_backends({s: {"kind": "identity"}
                               for s in ("bam", "sam_mask", "sam_fill", "lom")})
    identity_report = evaluate_correction(
        correct_batch(fixture_seeds, identity, schemas), fixture_seeds, dbs, schemas)
    identity_zero = identity_report.aggregates["overcorrection_pct"] == 0.0

    class MangleOne:
        stage = "lom"
        identity = False

        def describe(self):
            return "test:mangle"

        def invoke(self, payload):
            if payload.get("id") == "s02":
                return "res = df.select(customers.city)\n"
            return payload["trajectory"]

    bad = build_backends({})
    bad["lom"] = MangleOne()
    bad_report = evaluate_correction(
        correct_batch(fixture_seeds, bad, schemas), fixture_seeds, dbs, schemas)
    one_over = bad_report.aggregates["overcorrection_pct"] == pytest.approx(
        100.0 / len(fixture_seeds))

    ok = not mismatches and flipped and identity_zero and one_over
    report(7, ok, f"20 EX pairs, {len(mismatches)} discrepancies; case-study flip: "
                  f"{flipped}; identity overcorrection 0%: {identity_zero}; "
                  f"injected-bad-LOM 1/N: {one_over}")


# --- criterion 8: corpus pipeline ------------------------------------------------------------

def test_criterion_8_corpus_pipeline(tmp_path, fixture_seeds, schemas):
    bam = build_bam_corpus(fixture_seeds, schemas)
    sam = build_sam_corpus(bam.records, fixture_seeds, schemas)
    lom = build_lom_corpus(bam.records, fixture_seeds,
                           PerturbationConfig(k=2, seed=17), schemas)
    counts_ok = (len(bam.records), len(sam.records), len(lom.records)) == (9, 18, 18) \
        and len(bam.failures) == 1

    byte_ok = stats_ok = True
    for name, result in (("bam", bam), ("sam", sam), ("lom", lom)):
        path = tmp_path / f"{name}.corpus"
        write_corpus(result.records, path, name, result.stats)
        first = path.read_bytes()
        records, stored, target = read_corpus(path)
        write_corpus(records, path, target, stored)
        byte_ok = byte_ok and path.read_bytes() == first
        stats_ok = stats_ok and compute_stats(records).to_dict() == stored.to_dict()

    ok = counts_ok and byte_ok and stats_ok
    report(8, ok, f"counts (bam/sam/lom) = ({len(bam.records)}/{len(sam.records)}/"
                  f"{len(lom.records)}); byte-identical reread: {byte_ok}; "
                  f"stats recompute: {stats_ok}")
