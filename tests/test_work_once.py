"""The correction path and the corpus builders compute each fact of a seed once.

Call counts over `correct_batch` and `evaluate_correction`, taken by wrapping
the names as `evaluate`, `pipeline`, `masking` and `bridge` see them:
evaluation runs each distinct query text of a seed once, a rule or identity
run hands its round-trip verdict and its canonical forms to evaluation, the
rule `sam_fill` keeps the trajectory it was given, an identity run parses no
stage text and no stage reads the schema list. The fallbacks that recompute,
when a run cannot vouch for its own work, stay live. A corpus build from
in-memory bam records parses no trajectory text and each seed's gold SQL once,
and renders only erroneous trajectories: the verified side of each lom record
is its bam record's text. `ex_match` of one text runs it once, a gold's rows
are rounded at most once and only for a result of equal length that differs,
and the corpus statistics split each value of an input on its own.
`round_trip` checks the schema once, in `decompose`; `revert` checks every
trajectory it is given. A round trip, and a rule run, render no canonical
form when the reverted tree equals the parsed one, and both forms otherwise.
An alias-free core whose columns resolve to themselves is normalized by a
read-only check, without a rebuild, and each conversion between SQL and
trajectory walks each expression once.
"""

from collections import Counter
from dataclasses import replace

import pytest

from sqlsteps import bridge, corpus, evaluate, masking, pipeline, schema, sqlast
from sqlsteps.errors import SqlStepsError
from sqlsteps.masking import MaskedTrajectory, mask_schema
from sqlsteps.perturb import PerturbationConfig
from sqlsteps.sqlast import SqlQuery
from sqlsteps.trajectory import _ToTrajectory, render_trajectory

from conftest import generated_seeds

WRAPPED = [(evaluate, "round_trip"), (pipeline, "canonicalize"), (bridge, "canonicalize"),
           (pipeline, "fill_mask"), (pipeline, "parse_trajectory"),
           (pipeline, "parse_masked_template"),
           (masking, "parse_trajectory"), (pipeline, "extract_schema"),
           (corpus, "parse_trajectory"), (sqlast, "parse_sql"), (evaluate, "execute_sql"),
           (bridge, "validate_trajectory")]


@pytest.fixture
def calls(monkeypatch):
    counts: Counter = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in WRAPPED:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    return counts


def test_rule_run_does_each_fact_once(calls, fixture_seeds, schemas, dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    results = pipeline.correct_batch(seeds, pipeline.build_backends({}), schemas, jobs=1)
    converted = sum(r.trace is not None and r.trace.trajectory_initial is not None
                    for r in results)
    assert converted >= 90
    assert calls["pipeline.fill_mask"] == 0
    assert calls["pipeline.parse_trajectory"] == calls["masking.parse_trajectory"] == 0
    assert calls["pipeline.extract_schema"] == 0

    evaluate.evaluate_correction(results, seeds, dbs, schemas)
    assert calls["evaluate.round_trip"] == 0
    assert calls["pipeline.canonicalize"] + calls["bridge.canonicalize"] <= 2 * converted


def test_identity_run_parses_no_stage_text(calls, fixture_seeds, schemas, dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    identity = pipeline.build_backends({stage: {"kind": "identity"} for stage in pipeline.STAGES})
    results = pipeline.correct_batch(seeds, identity, schemas, jobs=1)
    assert sum(r.trace is not None and r.trace.trajectory_initial is not None
               for r in results) >= 90
    assert calls["pipeline.parse_trajectory"] == calls["masking.parse_trajectory"] == 0
    assert calls["pipeline.parse_masked_template"] == 0
    evaluate.evaluate_correction(results, seeds, dbs, schemas)
    assert calls["evaluate.round_trip"] == 0  # the identity run vouches for its verdict


def test_evaluation_runs_each_distinct_text_once_per_seed(calls, schemas, dbs):
    seeds = generated_seeds()  # initial SQL: the gold, lower-cased, or another query
    # corrected SQL: the initial, the gold, or a third query, crossed with the above
    corrected = [(s.initial_sql, s.gold_sql, seeds[i - 1].gold_sql)[i // 3 % 3]
                 for i, s in enumerate(seeds)]
    results = [pipeline.CorrectionResult(s.id, s.initial_sql, None, sql, False, None)
               for s, sql in zip(seeds, corrected)]
    evaluate.evaluate_correction(results, seeds, dbs, schemas)
    assert calls["evaluate.execute_sql"] == sum(
        len({s.gold_sql, s.initial_sql, sql}) for s, sql in zip(seeds, corrected))
    assert calls["evaluate.execute_sql"] < 3 * len(seeds)


@pytest.mark.parametrize("with_dbs", [False, True])
def test_corpus_build_parses_no_trajectory_and_each_gold_once(calls, fixture_seeds, schemas,
                                                              dbs, with_dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    bam = corpus.build_bam_corpus(seeds, schemas)
    # the golds, and the initial SQL of every seed with a bam record
    assert calls["sqlast.parse_sql"] == len(seeds) + len(bam.records)
    corpus.build_sam_corpus(bam.records, seeds, schemas)
    lom = corpus.build_lom_corpus(bam.records, seeds, PerturbationConfig(k=2, seed=5),
                                  schemas, dbs=dbs if with_dbs else None)
    sources = {record.provenance["source"] for record in lom.records}
    assert sources >= {"perturbation", "initial-error"}
    assert calls["corpus.parse_trajectory"] == calls["masking.parse_trajectory"] == 0
    # sam and lom parse no SQL: each bam record hands on its parsed gold and initial SQL
    assert calls["sqlast.parse_sql"] == len(seeds) + len(bam.records)


def test_scripted_bam_verdicts_come_from_round_trip(calls, fixture_seeds, schemas, dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    outputs = {"*": "res = df.select(customers.city)\n"}
    for seed in seeds:
        try:
            outputs[seed.id] = render_trajectory(
                bridge.decompose(SqlQuery.raw(seed.initial_sql), schemas[seed.db]))
        except SqlStepsError:
            pass
    backends = pipeline.build_backends({})
    backends["bam"] = pipeline.ScriptedBackend("bam", outputs)
    results = pipeline.correct_batch(seeds, backends, schemas, jobs=1)
    evaluate.evaluate_correction(results, seeds, dbs, schemas)
    parsed = sum(SqlQuery.raw(seed.initial_sql).ast is not None for seed in seeds)
    assert calls["evaluate.round_trip"] == parsed


class SwapSlot:
    """A sam_mask that masks as the rule stage does, then sets the first
    slot holding `old` to `new`."""

    stage = "sam_mask"
    identity = False

    def __init__(self, old: str, new: str):
        self.old, self.new = old, new

    def describe(self):
        return "test:swap-slot"

    def invoke(self, payload):
        masked = mask_schema(payload.value("trajectory"))
        k = masked.slot_values().index(self.old)
        slots = list(masked.slots)
        slots[k] = replace(slots[k], value=self.new)
        return MaskedTrajectory(masked.template, tuple(slots))


def swapped_run(new: str, schemas):
    backends = pipeline.build_backends({})
    backends["sam_mask"] = SwapSlot("customers.city", new)
    d = schemas["store"]
    return pipeline.run_pipeline(d, "question", "SELECT city FROM customers WHERE age > 30",
                                 backends, seed_id="s")


def test_changed_slot_value_goes_through_fill_mask(calls, schemas):
    trace = swapped_run("customers.name", schemas)
    assert calls["pipeline.fill_mask"] == 1
    assert trace.error is None
    text = render_trajectory(trace.final_trajectory())
    assert "customers.name" in text and "customers.city" not in text
    assert trace.feedback.reverted_sql.startswith("SELECT customers.name FROM customers")


def test_unknown_column_in_a_slot_keeps_its_error_text(calls, schemas):
    trace = swapped_run("customers.nope", schemas)
    assert calls["pipeline.fill_mask"] == 1
    assert trace.error == ("sam_fill: column customers.nope not in database 'store'"
                           " (filled at slot 0)")


def test_round_trip_checks_the_schema_in_decompose_only(calls, store):
    query = SqlQuery.raw("SELECT city, COUNT(*) FROM customers WHERE age > 30 GROUP BY city")
    report = bridge.round_trip(query, store)
    assert report.verdict == bridge.PASS
    assert calls["bridge.validate_trajectory"] == 0
    assert bridge.revert(report.trajectory, store).text == report.reverted.text
    assert calls["bridge.validate_trajectory"] == 1


NORMAL = ("SELECT customers.city, COUNT(orders.id) FROM customers JOIN orders "
          "ON orders.customer_id = customers.id WHERE customers.age > "
          "(SELECT AVG(customers.age) FROM customers) GROUP BY customers.city "
          "ORDER BY customers.city DESC LIMIT 3")


@pytest.mark.parametrize("sql,same,renders", [
    # already normal: the reverted tree is the parsed one, so no form is rendered
    ("SELECT customers.name FROM customers WHERE customers.age > 30", True, 0),
    (NORMAL, True, 0),
    # unqualified and aliased: the reverted tree differs, both forms are rendered
    ("SELECT name FROM customers WHERE age > 30", False, 2),
    ("SELECT c.city, COUNT(*) FROM customers AS c GROUP BY c.city", False, 2),
])
def test_round_trip_renders_canonical_forms_only_for_a_tree_that_differs(calls, store, sql,
                                                                         same, renders):
    query = SqlQuery.raw(sql)
    report = bridge.round_trip(query, store)
    assert report.verdict == bridge.PASS
    assert (report.reverted.ast == query.ast) is same
    assert calls["bridge.canonicalize"] == renders


def test_rule_run_renders_no_canonical_form_for_an_equal_tree(calls, schemas):
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    seeds = [corpus.SeedExample("e1", "store", "q", sql, sql),
             corpus.SeedExample("e2", "store", "q", sql, sql.replace("customers.", ""))]
    results = pipeline.correct_batch(seeds, pipeline.build_backends({}), schemas, jobs=1)
    assert [r.trace.round_trip_pass for r in results] == [True, True]
    assert calls["bridge.canonicalize"] == 2  # both forms of e2, none of e1
    assert calls["pipeline.canonicalize"] == 0  # neither seed is rewritten to differ


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts of the cores that `normalize_core` rebuilds (`_rebuild_core`,
    where it builds a `SelectCore` and maps expressions), apart from the
    canonical tree that `canonicalize` builds of every core."""
    counts: Counter = Counter()
    rebuild = sqlast._rebuild_core

    def counted(*args):
        counts["rebuild"] += 1
        return rebuild(*args)

    monkeypatch.setattr(sqlast, "_rebuild_core", counted)
    return counts


def test_canonical_form_of_a_reverted_query_rebuilds_no_core(rebuilds, store):
    original = SqlQuery.raw(NORMAL)
    reverted = bridge.revert(bridge.decompose(original, store), store)
    rebuilds.clear()
    assert sqlast.canonicalize(reverted, store) == sqlast.canonicalize(original, store)
    assert rebuilds["rebuild"] == 0


def test_schema_list_of_an_alias_free_query_rebuilds_no_core(rebuilds):
    query = SqlQuery.raw("SELECT city, COUNT(*) FROM customers WHERE age > 3 GROUP BY city "
                         "HAVING COUNT(*) > 1 ORDER BY city")
    rebuilds.clear()
    assert schema.extract_schema(query).columns == (("customers", "city"), ("customers", "age"))
    assert rebuilds["rebuild"] == 0


def test_a_core_with_an_alias_is_rebuilt(rebuilds, store):
    query = SqlQuery.raw("SELECT c.city FROM customers AS c")
    rebuilds.clear()
    assert sqlast.canonicalize(query, store) == "SELECT customers.city FROM customers"
    assert rebuilds["rebuild"] == 1


def test_round_trip_of_a_normal_query_walks_no_converted_expression_again(monkeypatch, store):
    walks: Counter = Counter()
    predicate = _ToTrajectory.predicate

    def counted(self, pred):
        walks["predicate"] += 1
        return predicate(self, pred)

    monkeypatch.setattr(_ToTrajectory, "predicate", counted)
    report = bridge.round_trip(SqlQuery.raw(NORMAL), store)
    assert report.verdict == bridge.PASS
    assert "JOIN orders" in report.reverted.text
    assert walks["predicate"] == 0
    # a compound filter's predicate is converted once, by `decompose`
    compound = SqlQuery.raw("SELECT customers.city FROM customers "
                            "WHERE customers.age > 3 OR customers.city = 'x'")
    assert bridge.round_trip(compound, store).verdict == bridge.PASS
    assert walks["predicate"] == 1


def _lom(bam_records, seeds, schemas, dbs):
    return corpus.build_lom_corpus(bam_records, seeds, PerturbationConfig(k=2, seed=5),
                                   schemas, dbs=dbs)


def test_lom_build_renders_only_erroneous_trajectories(monkeypatch, fixture_seeds, schemas,
                                                       dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    bam = corpus.build_bam_corpus(seeds, schemas)
    rendered = []
    render = corpus.render_trajectory
    monkeypatch.setattr(corpus, "render_trajectory", lambda t: rendered.append(t) or render(t))
    lom = _lom(bam.records, seeds, schemas, dbs)
    positives = [r for r in lom.records if r.provenance["source"] != "identity-negative"]
    assert len(rendered) == len(positives)
    verified = {id(b.trajectory) for b in bam.records}
    assert not any(id(t) in verified for t in rendered)
    # the verified side is the bam record's own text, on both sides of a negative
    by_seed = {b.provenance["seed_id"]: b for b in bam.records}
    negatives = [r for r in lom.records if r.provenance["source"] == "identity-negative"]
    assert negatives
    assert all(r.output is by_seed[r.provenance["seed_id"]].output for r in lom.records)
    assert all(r.input["trajectory"] is r.output for r in negatives)


def test_read_back_bam_records_give_the_same_lom_bytes(tmp_path, fixture_seeds, schemas, dbs):
    seeds = generated_seeds() + list(fixture_seeds)
    bam = corpus.build_bam_corpus(seeds, schemas)
    corpus.write_corpus(bam.records, tmp_path / "bam.corpus", "bam", bam.stats)
    read_back = corpus.read_corpus(tmp_path / "bam.corpus")[0]
    assert read_back and all(r.trajectory is None for r in read_back)
    files = []
    for name, records in (("built", bam.records), ("read", read_back)):
        lom = _lom(records, seeds, schemas, dbs)
        files.append(tmp_path / f"lom-{name}.corpus")
        corpus.write_corpus(lom.records, files[-1], "lom", lom.stats)
    assert files[0].read_bytes() == files[1].read_bytes()


def test_ex_match_of_one_text_runs_it_once(calls, dbs):
    query = SqlQuery.raw("SELECT customers.name FROM customers WHERE customers.age > 30")
    assert evaluate.ex_match(query, query, dbs["store"]) is True
    assert calls["evaluate.execute_sql"] == 1
    assert evaluate.ex_match(SqlQuery.raw(query.text), query, dbs["store"]) is True
    assert calls["evaluate.execute_sql"] == 2
    other = SqlQuery.raw("SELECT customers.name FROM customers")
    assert evaluate.ex_match(other, query, dbs["store"]) is False
    assert calls["evaluate.execute_sql"] == 4


def test_gold_rows_are_rounded_once_and_only_for_equal_lengths_that_differ(monkeypatch):
    rounded = []
    normalize = evaluate._normalize_rows
    monkeypatch.setattr(evaluate, "_normalize_rows",
                        lambda rows: rounded.append(rows) or normalize(rows))
    gold = [(0.1 + 0.2,), (1,)]

    def result(rows):
        return evaluate.ExecutionResult(rows, None, 0.0)

    matches = evaluate._gold_matcher(result(gold), ordered=False)
    assert matches(result(gold)) and matches(result(list(gold)))
    assert not matches(result([(0.3,)]))
    assert rounded == []
    assert matches(result([(1,), (0.3,)])) and not matches(result([(2,), (0.3,)]))
    assert sum(rows is gold for rows in rounded) == 1 and len(rounded) == 3


def test_stats_count_the_tokens_of_the_joined_input_text():
    inputs = [{}, {"a": ""}, {"a": "  ", "b": "x y"}, {"a": "\t", "b": " x y ", "c": "\xa0"},
              {"a": 5, "b": None, "c": ["p q"], "d": {"k": "v w"}, "e": 2.5},
              {"db": "t c\nt d", "q": "x y"}, {"db": "t c\nt d", "q": "x y"}]
    records = [corpus.CorpusRecord("lom", dict(value), output, {"seed_id": str(i)})
               for i, value in enumerate(inputs) for output in ("", " a  b ", "a b")]
    stats = corpus.compute_stats(records)
    joined = sum(len(r.input_text().split()) for r in records)
    assert stats.mean_input_tokens == round(joined / len(records), 4)
    assert stats.mean_output_tokens == round(
        sum(len(r.output.split()) for r in records) / len(records), 4)
