"""The typed stage boundary pinned to a text reference.

Rule backends pass typed values between stages; these tests recompute what
the stages, the feedback, the overcorrection flags and the evaluation must
give with the public text functions, over generated store queries plus the
fixture seeds.
"""

import pytest

from sqlsteps.bridge import PASS, decompose, round_trip
from sqlsteps.corpus import SeedExample
from sqlsteps.errors import (
    JoinPathNotFoundError,
    SchemaMismatchError,
    SqlSyntaxError,
    UnsupportedSqlError,
)
from sqlsteps.evaluate import EvalReport, InstanceVerdict, evaluate_correction, ex_match, tag_error
from sqlsteps.masking import mask_schema
from sqlsteps.pipeline import ScriptedBackend, build_backends, correct_batch, make_feedback
from sqlsteps.schema import extract_schema, load_schema_dir
from sqlsteps.sqlast import SqlQuery, canonicalize
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import FIXTURES, generated_seeds

BRIDGE_ERRORS = (UnsupportedSqlError, SchemaMismatchError, JoinPathNotFoundError,
                 SqlSyntaxError)
MANGLED = "res = df.select(customers.city)\n"


def mangled(seed_id: str) -> bool:
    return seed_id.startswith("g") and int(seed_id[1:]) % 4 == 0


class MangleSome:
    """A lom stage that rewrites every fourth generated seed to fixed text."""

    stage = "lom"
    identity = False

    def describe(self):
        return "test:mangle-some"

    def invoke(self, payload):
        if mangled(payload["id"]):
            return MANGLED
        return payload.value("trajectory")


def reference_flag(seed: SeedExample, d, feedback) -> bool:
    if feedback is None or feedback.reverted_sql is None:
        return False
    initial, gold = SqlQuery.raw(seed.initial_sql), SqlQuery.raw(seed.gold_sql)
    if initial.ast is None or gold.ast is None:
        return False
    try:
        initial_canon = canonicalize(initial, d)
        if initial_canon != canonicalize(gold, d):
            return False
        reverted = SqlQuery.raw(feedback.reverted_sql)
        return reverted.ast is None or canonicalize(reverted, d) != initial_canon
    except BRIDGE_ERRORS:
        return False


def reference_report(results, seeds, dbs, schemas) -> EvalReport:
    by_id = {s.id: s for s in seeds}
    report = EvalReport()
    precision, recall = [], []
    for result in sorted(results, key=lambda r: r.seed_id):
        seed = by_id[result.seed_id]
        db, d = dbs[seed.db], schemas[seed.db]
        gold, initial = SqlQuery.raw(seed.gold_sql), SqlQuery.raw(seed.initial_sql)
        feedback = result.feedback
        corrected = SqlQuery.raw(result.regenerated_sql
                                 or (feedback.reverted_sql if feedback else None)
                                 or result.initial_sql)
        baseline, correct = ex_match(initial, gold, db), ex_match(corrected, gold, db)
        round_trip_pass = None
        if initial.ast is not None:
            try:
                round_trip_pass = round_trip(initial, d).verdict == PASS
            except BRIDGE_ERRORS:
                round_trip_pass = False
        tag = None
        final = result.trace.final_trajectory() if result.trace else None
        if not correct and final is not None and gold.ast is not None:
            try:
                tag = tag_error(final, decompose(gold, d))
            except BRIDGE_ERRORS:
                pass
        report.per_instance.append(InstanceVerdict(
            seed.id, baseline, correct, baseline and not correct, round_trip_pass, tag,
            seed.difficulty))
        if corrected.ast is not None and gold.ast is not None:
            pred_cols = set(extract_schema(corrected).columns)
            gold_cols = set(extract_schema(gold).columns)
            if pred_cols or gold_cols:
                overlap = len(pred_cols & gold_cols)
                precision.append(overlap / len(pred_cols) if pred_cols else 0.0)
                recall.append(overlap / len(gold_cols) if gold_cols else 0.0)
    report.aggregates = report.recompute()
    report.aggregates["schema_precision_pct"] = round(100.0 * sum(precision) / len(precision), 4)
    report.aggregates["schema_recall_pct"] = round(100.0 * sum(recall) / len(recall), 4)
    return report


@pytest.mark.parametrize("mangle", [False, True], ids=["rule", "mangled-lom"])
def test_typed_stages_match_text_reference(mangle, fixture_seeds, schemas, dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    backends = build_backends({})
    if mangle:
        backends["lom"] = MangleSome()
    results = correct_batch(seeds, backends, schemas, jobs=1)
    by_id = {s.id: s for s in seeds}
    assert [r.seed_id for r in results] == sorted(by_id)
    converted = flagged = 0
    for result in results:
        seed = by_id[result.seed_id]
        d = schemas[seed.db]
        try:
            t = decompose(SqlQuery.raw(seed.initial_sql), d)
        except BRIDGE_ERRORS:
            assert result.error is not None and result.error.startswith("bam:")
            assert result.feedback is None and not result.overcorrection_flag
            continue
        converted += 1
        final_text = render_trajectory(t)
        if mangle and mangled(seed.id):
            final_text = MANGLED
        assert result.error is None
        assert [s.output for s in result.trace.stages] == [
            render_trajectory(t), mask_schema(t).template, render_trajectory(t), final_text]
        assert result.feedback == make_feedback(parse_trajectory(final_text), d)
        assert result.overcorrection_flag == reference_flag(seed, d, result.feedback)
        flagged += result.overcorrection_flag
    assert converted >= 90
    assert (flagged > 0) == mangle

    report = evaluate_correction(results, seeds, dbs, schemas)
    reference = reference_report(results, seeds, dbs, schemas)
    assert report.per_instance == reference.per_instance
    assert report.aggregates == reference.aggregates


def verdict_seed(seed_id: str, initial_sql: str) -> SeedExample:
    return SeedExample(seed_id, "store", "question", "SELECT customers.name FROM customers",
                       initial_sql)


# Initial SQL whose round-trip verdict is not PASS, with the verdict
# `evaluate_correction` must give: None when it does not parse, else False.
# No query found in the SQL subset converts both ways yet canonicalizes
# differently, so no CANONICAL_MISMATCH case is listed.
VERDICT_SEEDS = [
    (verdict_seed("v0", "SELEC x"), None),
    (verdict_seed("v1", "SELECT customers.name FROM customers WHERE 1=1"), False),
    (verdict_seed("v2", "SELECT customers.name FROM customers WHERE NOT (city = 'x')"), False),
    (verdict_seed("v3", "SELECT customers.name FROM customers "
                        "WHERE id IN (SELECT customer_id FROM orders)"), False),
    (verdict_seed("v4", "SELECT customers.name FROM customers LIMIT 0"), False),
]


def scripted_bam(seeds, schemas) -> ScriptedBackend:
    """A bam that replays each seed's decomposition as text (fixed text when
    the seed does not convert), so the run cannot vouch for a verdict."""
    outputs = {"*": MANGLED}
    for seed in seeds:
        try:
            outputs[seed.id] = render_trajectory(
                decompose(SqlQuery.raw(seed.initial_sql), schemas[seed.db]))
        except BRIDGE_ERRORS:
            pass
    return ScriptedBackend("bam", outputs)


@pytest.mark.parametrize("variant", ["rule", "scripted-bam", "mangled-lom", "fresh-schemas"])
def test_round_trip_verdicts_match_text_reference(variant, fixture_seeds, schemas, dbs):
    seeds = generated_seeds() + list(fixture_seeds) + [seed for seed, _ in VERDICT_SEEDS]
    backends = build_backends({})
    if variant == "scripted-bam":
        backends["bam"] = scripted_bam(seeds, schemas)
    if variant == "mangled-lom":
        backends["lom"] = MangleSome()
    results = correct_batch(seeds, backends, schemas, jobs=1)
    # other DatabaseInput objects for the same databases
    eval_schemas = load_schema_dir(FIXTURES / "schemas") if variant == "fresh-schemas" else schemas

    report = evaluate_correction(results, seeds, dbs, eval_schemas)
    reference = reference_report(results, seeds, dbs, schemas)
    assert report.per_instance == reference.per_instance
    assert report.aggregates == reference.aggregates
    wanted = [want for _, want in VERDICT_SEEDS]
    verdicts = {v.seed_id: v.round_trip_pass for v in report.per_instance}
    assert [verdicts[seed.id] for seed, _ in VERDICT_SEEDS] == wanted
    if variant == "rule":  # each verdict but v0's comes from its own run
        traced = {r.seed_id: r.trace.round_trip_pass for r in results}
        assert [traced[seed.id] for seed, _ in VERDICT_SEEDS] == wanted
