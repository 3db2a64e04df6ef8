from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsteps.bridge import decompose
from sqlsteps.corpus import SeedExample
from sqlsteps.errors import GoldExecutionFailedError
from sqlsteps.evaluate import (
    ATTRIBUTE_OVERANALYSIS,
    CLAUSE_ABUSE,
    ExecutionResult,
    MATHEMATICAL_DELUSION,
    OTHER,
    SCHEMA_CONTRADICTION,
    evaluate_correction,
    ex_match,
    execute_sql,
    tag_error,
)
from sqlsteps.evaluate import _gold_matcher, _normalize_rows
from sqlsteps.pipeline import CorrectionResult, build_backends, correct_batch
from sqlsteps.sqlast import SqlQuery, parse_sql
from sqlsteps.trajectory import parse_trajectory

from conftest import golden


def q(text: str) -> SqlQuery:
    return SqlQuery.raw(text)


def test_execute_select_one(dbs):
    result = execute_sql(q("SELECT 1"), dbs["store"])
    assert result.ok and result.rows == [(1,)]


def test_execute_malformed_sql_captured(dbs):
    result = execute_sql(q("SELEC nope"), dbs["store"])
    assert result.error is not None and result.rows is None


@pytest.mark.parametrize("sql", [
    "DELETE FROM customers",
    "PRAGMA query_only = OFF",
    "ATTACH DATABASE ':memory:' AS other",
], ids=["delete", "pragma", "attach"])
def test_fixture_db_is_read_only(dbs, sql):
    assert execute_sql(q(sql), dbs["store"]).ok is False
    assert execute_sql(q("SELECT COUNT(*) FROM customers"), dbs["store"]).rows == [(6,)]


def test_fixture_db_runs_a_recursive_select(dbs):
    result = execute_sql(q("WITH RECURSIVE n(k) AS (SELECT 1 UNION ALL SELECT k + 1 FROM n "
                           "WHERE k < 4) SELECT SUM(k) FROM n"), dbs["store"])
    assert result.ok and result.rows == [(10,)]


def test_case_study_gold_has_unique_answer(dbs):
    result = execute_sql(q(golden("table9_gold.sql")), dbs["schools"])
    assert result.rows == [("Alameda",)]
    datefn = execute_sql(q(golden("table9_gold_datefn.sql")), dbs["schools"])
    assert datefn.rows == [("Alameda",)]


def test_case_study_initial_returns_wrong_county(dbs):
    result = execute_sql(q(golden("table9_initial.sql")), dbs["schools"])
    assert result.rows == [("Fresno", 3)]


def test_ex_match_reflexive(dbs):
    gold = q("SELECT name FROM customers WHERE age > 30")
    assert ex_match(gold, gold, dbs["store"]) is True


def test_ex_match_case_study_initial_vs_gold(dbs):
    assert ex_match(q(golden("table9_initial.sql")), q(golden("table9_gold.sql")),
                    dbs["schools"]) is False


def test_ex_match_result_equivalent_queries(dbs):
    a = q("SELECT name FROM customers WHERE age > 30 AND city = 'Reno'")
    b = q("SELECT name FROM customers WHERE city = 'Reno' AND age > 30")
    assert ex_match(a, b, dbs["store"]) is True


def test_ex_match_symmetry_when_both_execute(dbs):
    a = q("SELECT name FROM customers WHERE age > 27")
    b = q("SELECT name FROM customers WHERE age >= 27")
    assert ex_match(a, b, dbs["store"]) == ex_match(b, a, dbs["store"]) == False  # noqa: E712


def test_ex_match_ordered_when_gold_sorts(dbs):
    pred = q("SELECT status FROM orders ORDER BY total DESC LIMIT 2")
    gold = q("SELECT status FROM orders ORDER BY total ASC LIMIT 2")
    assert ex_match(pred, gold, dbs["store"]) is False
    assert ex_match(pred, pred, dbs["store"]) is True


def test_ex_match_null_equals_null(dbs):
    pred = q("SELECT city FROM customers WHERE city IS NULL")
    gold = q("SELECT city FROM customers WHERE id = 5")
    assert ex_match(pred, gold, dbs["store"]) is True


def test_ex_match_float_tolerance(dbs):
    pred = q("SELECT 0.1 + 0.2 FROM customers WHERE id = 1")
    gold = q("SELECT 0.3 FROM customers WHERE id = 1")
    assert ex_match(pred, gold, dbs["store"]) is True


def test_ex_match_pred_error_is_false(dbs):
    assert ex_match(q("SELECT bogus FROM customers"),
                    q("SELECT name FROM customers"), dbs["store"]) is False


def test_gold_execution_failure_raises(dbs):
    with pytest.raises(GoldExecutionFailedError):
        ex_match(q("SELECT 1"), q("SELECT bogus FROM customers"), dbs["store"])


# --- result comparison ------------------------------------------------------------

# Values as SQLite returns them (never a NaN: SQLite stores NaN as NULL): ints,
# floats on either side of a 1e-6 rounding boundary, signed zeros, ints equal to
# floats, NULL and text.
_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.1 + 0.2, 0.3, 5e-7, 4.999999e-7, 1.5e-6,
                     2.5e-6, 1.0000005, 1.0000004999, 1.0000005001, 0.1234565]),
    st.floats(allow_nan=False, width=64),
    st.none(),
    st.sampled_from(["", "a", "b"]),
)
_ROWS = st.lists(st.tuples(_VALUES, _VALUES), max_size=6)


def _nudged(value):
    """A float moved by less than the rounding step, an int as its float."""
    if isinstance(value, float):
        return value + 4e-7
    if isinstance(value, int):
        return float(value)
    return value


@st.composite
def _prediction(draw, gold):
    """Rows that are the gold's own list, a copy, a permutation, the gold
    with its numbers nudged or a row repeated, or any other list."""
    kind = draw(st.sampled_from(["same", "copy", "permuted", "nudged", "repeated", "other"]))
    if kind == "same":
        return gold
    if kind == "copy":
        return list(gold)
    if kind == "permuted":
        return draw(st.permutations(gold))
    if kind == "nudged":
        return [tuple(_nudged(v) for v in row) for row in gold]
    if kind == "repeated" and gold:
        return gold + [draw(st.sampled_from(gold))]
    return draw(_ROWS)


def _reference_match(pred_rows, gold_rows, ordered):
    """Round both sides, then compare in order or as multisets."""
    pred_rows, gold_rows = _normalize_rows(pred_rows), _normalize_rows(gold_rows)
    return pred_rows == gold_rows if ordered else Counter(pred_rows) == Counter(gold_rows)


def _result(rows):
    return ExecutionResult(rows=rows, error=None, elapsed=0.0)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), gold=_ROWS, ordered=st.booleans())
def test_raw_rows_first_decides_as_rounding_then_comparing(data, gold, ordered):
    matches = _gold_matcher(_result(gold), ordered)
    # two predictions against one matcher: the gold's rounded rows are reused
    for _ in range(2):
        pred = data.draw(_prediction(gold))
        assert matches(_result(pred)) == _reference_match(pred, gold, ordered)


def test_a_failed_prediction_matches_nothing():
    failed = ExecutionResult(rows=None, error="no such column: x", elapsed=0.0)
    assert _gold_matcher(_result([]), ordered=False)(failed) is False


def test_a_failed_gold_raises_before_any_comparison():
    failed = ExecutionResult(rows=None, error="no such column: x", elapsed=0.0)
    with pytest.raises(GoldExecutionFailedError, match="no such column: x"):
        _gold_matcher(failed, ordered=True)


# --- error tagging ---------------------------------------------------------------

def test_tag_schema_contradiction(schools):
    pred = parse_trajectory(golden("table9_bam_asprinted.traj"))
    gold = parse_trajectory(golden("table9_lom.traj"))
    tag = tag_error(pred, gold)
    assert (tag.coarse, tag.subtype) == ("schema", SCHEMA_CONTRADICTION)


def test_tag_attribute_overanalysis(schools):
    pred = parse_trajectory(golden("table9_sam.traj"))  # extra count in select
    gold = parse_trajectory(golden("table9_lom.traj"))
    tag = tag_error(pred, gold)
    assert (tag.coarse, tag.subtype) == ("schema", ATTRIBUTE_OVERANALYSIS)


def test_tag_clause_abuse_from_added_distinct(store):
    gold = decompose(parse_sql("SELECT customers.name FROM customers WHERE customers.age > 30"),
                     store)
    pred = parse_trajectory(
        "df1 = df.where(element = customers.age, filter = '> 30')\n"
        "df2 = df1.distinct(customers.name)\n"
        "res = df2.select(customers.name)")
    tag = tag_error(pred, gold)
    assert (tag.coarse, tag.subtype) == ("logic", CLAUSE_ABUSE)


def test_tag_mathematical_delusion(store):
    gold = parse_trajectory("res = df.select(sum(orders.total))")
    pred = parse_trajectory("res = df.select(average(orders.total))")
    tag = tag_error(pred, gold)
    assert (tag.coarse, tag.subtype) == ("logic", MATHEMATICAL_DELUSION)
    gold2 = parse_trajectory("res = df.select((orders.total * 2))")
    pred2 = parse_trajectory("res = df.select((orders.total + 2))")
    assert tag_error(pred2, gold2).subtype == MATHEMATICAL_DELUSION


def test_tag_mathematical_delusion_inside_cast_and_substr_in_an_aggregate(store):
    for gold_text, pred_text in (
            ("res = df.select(sum(cast((orders.total * 2), real)))",
             "res = df.select(sum(cast((orders.total + 2), real)))"),
            ("res = df.select(min(substr((customers.city - customers.name), 1, 2)))",
             "res = df.select(min(substr((customers.city + customers.name), 1, 2)))")):
        tag = tag_error(parse_trajectory(pred_text), parse_trajectory(gold_text))
        assert (tag.coarse, tag.subtype) == ("logic", MATHEMATICAL_DELUSION)


def test_tag_other_for_parameter_only_changes(store):
    gold = parse_trajectory(
        "df1 = df.where(element = customers.age, filter = '> 30')\nres = df1.select(customers.name)")
    pred = parse_trajectory(
        "df1 = df.where(element = customers.age, filter = '> 31')\nres = df1.select(customers.name)")
    tag = tag_error(pred, gold)
    assert (tag.coarse, tag.subtype) == ("logic", OTHER)


def test_tagger_total_over_perturbations(schools):
    import random

    from sqlsteps.perturb import KINDS, perturb_once

    gold = parse_trajectory(golden("table9_lom.traj"))
    for i in range(45):
        kind = KINDS[i % 3]
        pred, _ = perturb_once(gold, kind, random.Random(f"tags:{i}"), schools, seed=i)
        tag = tag_error(pred, gold)
        assert tag.coarse in ("schema", "logic")
        assert tag.subtype


# --- correction evaluation ------------------------------------------------------------

def _feedback_only_results(seeds, schemas):
    return correct_batch(seeds, build_backends({}), schemas)


def test_identity_pipeline_matches_baseline(fixture_seeds, schemas, dbs):
    backends = build_backends({s: {"kind": "identity"}
                               for s in ("bam", "sam_mask", "sam_fill", "lom")})
    results = correct_batch(fixture_seeds, backends, schemas)
    report = evaluate_correction(results, fixture_seeds, dbs, schemas)
    assert report.aggregates["overcorrection_pct"] == 0.0
    assert report.aggregates["ex_pct"] == report.aggregates["baseline_ex_pct"]


def test_scripted_case_study_flips_wrong_to_correct(fixture_seeds, schemas, dbs):
    from conftest import FIXTURES

    scripted = build_backends({
        stage: {"kind": "scripted", "script_file": "backends/table9_script.json"}
        for stage in ("bam", "sam_mask", "sam_fill", "lom")
    }, base_dir=FIXTURES)
    seeds = [s for s in fixture_seeds if s.id == "s01"]
    results = correct_batch(seeds, scripted, schemas)
    report = evaluate_correction(results, seeds, dbs, schemas)
    verdict = report.per_instance[0]
    assert verdict.baseline_correct is False
    assert verdict.ex_match is True


def test_bad_lom_backend_counts_one_overcorrection(fixture_seeds, schemas, dbs):
    class MangleOne:
        stage = "lom"
        identity = False

        def describe(self):
            return "test:mangle"

        def invoke(self, payload):
            if payload.get("id") == "s02":
                return "res = df.select(customers.city)\n"
            return payload["trajectory"]

    backends = build_backends({})
    backends["lom"] = MangleOne()
    results = correct_batch(fixture_seeds, backends, schemas)
    report = evaluate_correction(results, fixture_seeds, dbs, schemas)
    overcorrected = [v for v in report.per_instance if v.overcorrection]
    assert len(overcorrected) == 1 and overcorrected[0].seed_id == "s02"
    assert report.aggregates["overcorrection_pct"] == pytest.approx(100.0 / 10)


def test_overcorrection_bounded_by_baseline(fixture_seeds, schemas, dbs):
    results = _feedback_only_results(fixture_seeds, schemas)
    report = evaluate_correction(results, fixture_seeds, dbs, schemas)
    assert report.aggregates["overcorrection_pct"] <= report.aggregates["baseline_ex_pct"]


def test_alignment_errors(fixture_seeds, schemas, dbs):
    results = _feedback_only_results(fixture_seeds, schemas)
    from sqlsteps.errors import AlignmentError

    with pytest.raises(AlignmentError):
        evaluate_correction(results[:-1], fixture_seeds, dbs, schemas)


def test_aggregates_recomputable(fixture_seeds, schemas, dbs):
    results = _feedback_only_results(fixture_seeds, schemas)
    report = evaluate_correction(results, fixture_seeds, dbs, schemas)
    recompute = report.recompute()
    for key, value in recompute.items():
        assert report.aggregates[key] == value


def test_a_seed_whose_gold_does_not_run_is_a_failure_not_an_abort(schemas, dbs):
    good = SeedExample("a1", "store", "q", "SELECT customers.name FROM customers "
                       "WHERE customers.age > 30", "select name from customers where age > 30")
    bad = SeedExample("a2", "store", "q", "SELECT customers.nope FROM customers",
                      "SELECT customers.name FROM customers")
    results = correct_batch([good, bad], build_backends({}), schemas, jobs=1)
    report = evaluate_correction(results, [good, bad], dbs, schemas)
    assert [v.seed_id for v in report.per_instance] == ["a1"]
    assert report.per_instance[0].ex_match is True
    assert report.failures == [("a2", "gold-unexecutable", "no such column: customers.nope")]
    alone = evaluate_correction(results[:1], [good], dbs, schemas)
    assert report.aggregates == alone.aggregates
    assert report.per_instance == alone.per_instance and alone.failures == []


def test_a_seed_with_no_fixture_database_is_a_failure_not_an_abort(schemas, dbs):
    good = SeedExample("a1", "store", "q", "SELECT customers.name FROM customers "
                       "WHERE customers.age > 30", "select name from customers where age > 30")
    lost = SeedExample("a0", "nowhere", "q", "SELECT 1", "SELECT 1")
    results = correct_batch([good], build_backends({}), schemas, jobs=1)
    results.append(CorrectionResult(lost.id, lost.initial_sql, None, None, False, None))
    report = evaluate_correction(results, [good, lost], dbs, schemas)
    assert [v.seed_id for v in report.per_instance] == ["a1"]
    assert report.per_instance[0].ex_match is True
    assert report.failures == [("a0", "no-fixture-database", "no fixture database 'nowhere'")]
    assert report.aggregates == evaluate_correction(results[:1], [good], dbs, schemas).aggregates


def test_a_trace_less_result_with_a_gold_that_does_not_run_is_a_failure(schemas, dbs):
    seed = SeedExample("a2", "store", "q", "SELECT customers.nope FROM customers",
                       "SELECT customers.name FROM customers")
    result = CorrectionResult(seed.id, seed.initial_sql, None, seed.initial_sql, False, None)
    report = evaluate_correction([result], [seed], dbs, schemas)
    assert report.per_instance == [] and report.aggregates["n"] == 0
    assert report.failures == [("a2", "gold-unexecutable", "no such column: customers.nope")]
