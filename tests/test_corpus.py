import json
from collections import Counter
from dataclasses import replace

import pytest

from sqlsteps.corpus import (
    CorpusRecord,
    SeedExample,
    TARGET_BAM,
    TARGET_LOM,
    TARGET_SAM1,
    TARGET_SAM2,
    build_bam_corpus,
    build_lom_corpus,
    build_sam_corpus,
    compute_stats,
    read_corpus,
    read_seed_file,
    write_corpus,
)
from sqlsteps.errors import FormatError, MissingSchemaError
from sqlsteps.perturb import PerturbationConfig, augment
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import generated_seeds, golden


@pytest.fixture(scope="module")
def bam(fixture_seeds, schemas):
    return build_bam_corpus(fixture_seeds, schemas)


def test_bam_filters_window_function_seed(bam):
    assert len(bam.records) == 9
    assert len(bam.failures) == 1
    assert bam.failures[0][0] == "s10"


def test_bam_filter_soundness(bam, fixture_seeds, schemas):
    from sqlsteps.bridge import round_trip
    from sqlsteps.sqlast import parse_sql

    seeds = {s.id: s for s in fixture_seeds}
    for record in bam.records:
        seed = seeds[record.provenance["seed_id"]]
        report = round_trip(parse_sql(seed.gold_sql), schemas[seed.db])
        assert report.verdict == "pass"


def test_bam_case_study_output_is_golden_trajectory(bam):
    record = next(r for r in bam.records if r.provenance["seed_id"] == "s01")
    assert record.target == TARGET_BAM
    assert record.output == golden("table9_gold_decomposed.traj")
    assert record.provenance["round_trip"] == "pass"


def test_bam_empty_seed_list(schemas):
    result = build_bam_corpus([], schemas)
    assert result.records == []
    assert result.stats.counts == {}
    assert result.stats.mean_input_tokens == 0.0


def test_bam_missing_schema_raises(fixture_seeds):
    with pytest.raises(MissingSchemaError):
        build_bam_corpus(fixture_seeds, {})


def test_sam_counts_and_phase_coupling(bam, fixture_seeds, schemas):
    sam = build_sam_corpus(bam.records, fixture_seeds, schemas)
    assert len(sam.records) == 18  # 9 + 9
    phase1 = {r.provenance["seed_id"]: r for r in sam.records if r.target == TARGET_SAM1}
    phase2 = {r.provenance["seed_id"]: r for r in sam.records if r.target == TARGET_SAM2}
    assert len(phase1) == len(phase2) == 9
    for seed_id, record in phase1.items():
        assert record.output == phase2[seed_id].input["masked"]


def test_sam_case_study_schema_list_carries_wrong_column(bam, fixture_seeds, schemas):
    sam = build_sam_corpus(bam.records, fixture_seeds, schemas)
    record = next(r for r in sam.records
                  if r.target == TARGET_SAM2 and r.provenance["seed_id"] == "s01")
    assert "schools.Year" in record.input["schema_list"]
    assert record.output == golden("table9_gold_decomposed.traj")


def test_sam_unparseable_initial_still_emits(schemas, bam, fixture_seeds):
    seeds = [SeedExample(id="s01", db="schools", question="q",
                         gold_sql=golden("table9_gold.sql"),
                         initial_sql="SELECT ??? FROM")]
    records = [r for r in bam.records if r.provenance["seed_id"] == "s01"]
    sam = build_sam_corpus(records, seeds, schemas)
    phase2 = next(r for r in sam.records if r.target == TARGET_SAM2)
    assert phase2.provenance.get("initial_parse_failed") is True
    assert phase2.input["schema_list"] == "tables: -; columns: -"


def test_lom_closed_form_counts(bam, fixture_seeds, schemas):
    cfg = PerturbationConfig(k=2, seed=17)
    lom = build_lom_corpus(bam.records, fixture_seeds, cfg, schemas)
    # 3 wrong initials + 6 correct x K=2 = 15 positives, floor(15/4) = 3 negatives
    assert len(lom.records) == 18
    identities = [r for r in lom.records if r.input["trajectory"] == r.output]
    assert len(identities) == 3
    sources = {r.provenance["source"] for r in lom.records}
    assert sources == {"initial-error", "perturbation", "identity-negative"}


def test_lom_zero_k_and_all_correct(schemas, fixture_seeds, bam):
    correct_ids = {"s02", "s03", "s04", "s05", "s06", "s07"}
    seeds = [s for s in fixture_seeds if s.id in correct_ids]
    records = [r for r in bam.records if r.provenance["seed_id"] in correct_ids]
    cfg = PerturbationConfig(k=0, seed=1)
    lom = build_lom_corpus(records, seeds, cfg, schemas)
    assert lom.records == []


def test_lom_case_study_record_maps_error_to_gold(bam, fixture_seeds, schemas):
    cfg = PerturbationConfig(k=1, seed=3)
    lom = build_lom_corpus(bam.records, fixture_seeds, cfg, schemas)
    record = next(r for r in lom.records
                  if r.provenance["seed_id"] == "s01"
                  and r.provenance["source"] == "initial-error")
    assert record.input["trajectory"] == golden("table9_bam.traj")
    assert record.output == golden("table9_gold_decomposed.traj")
    parse_trajectory(record.input["trajectory"])
    parse_trajectory(record.output)


def test_lom_positive_outputs_round_trip_to_gold(bam, fixture_seeds, schemas):
    from sqlsteps.bridge import revert
    from sqlsteps.sqlast import SqlQuery, canonicalize

    cfg = PerturbationConfig(k=1, seed=5)
    lom = build_lom_corpus(bam.records, fixture_seeds, cfg, schemas)
    seeds = {s.id: s for s in fixture_seeds}
    for record in lom.records:
        if record.provenance["source"] == "identity-negative":
            continue
        seed = seeds[record.provenance["seed_id"]]
        d = schemas[seed.db]
        reverted = revert(parse_trajectory(record.output), d)
        gold = SqlQuery.raw(seed.gold_sql)
        assert canonicalize(reverted, d) == canonicalize(gold, d)


def test_write_read_byte_identical(tmp_path, bam):
    path = tmp_path / "bam.corpus"
    write_corpus(bam.records, path, "bam", bam.stats)
    first = path.read_bytes()
    records, stats, target = read_corpus(path)
    assert target == "bam"
    assert stats.to_dict() == bam.stats.to_dict()
    write_corpus(records, path, target, stats)
    assert path.read_bytes() == first


def test_stats_recompute_from_file(tmp_path, bam, fixture_seeds, schemas):
    cfg = PerturbationConfig(k=2, seed=17)
    lom = build_lom_corpus(bam.records, fixture_seeds, cfg, schemas)
    path = tmp_path / "lom.corpus"
    write_corpus(lom.records, path, "lom", lom.stats)
    records, stored, _ = read_corpus(path)
    assert len(records) == 18
    assert compute_stats(records).to_dict() == stored.to_dict()


def test_truncated_file_names_last_complete_line(tmp_path, bam):
    path = tmp_path / "bam.corpus"
    write_corpus(bam.records, path, "bam", bam.stats)
    lines = path.read_text().splitlines()
    clipped = "\n".join(lines[:3] + [lines[3][: len(lines[3]) // 2]])
    path.write_text(clipped)
    with pytest.raises(FormatError) as err:
        read_corpus(path)
    assert "last complete line is 3" in str(err.value)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "x.corpus"
    path.write_text('{"target": "bam"}\n')
    with pytest.raises(FormatError):
        read_corpus(path)


def test_seed_file_roundtrip(fixture_seeds):
    assert len(fixture_seeds) == 10
    assert fixture_seeds[0].id == "s01"
    assert fixture_seeds[0].evidence


def test_seed_file_bad_json(tmp_path):
    path = tmp_path / "seeds.jsonl"
    path.write_text('{"id": "a"\n')
    with pytest.raises(FormatError):
        read_seed_file(path)


def test_record_token_counting():
    record = CorpusRecord(target=TARGET_BAM, input={"sql": "SELECT a FROM t"},
                          output="res = df.select(t.a)\n", provenance={"seed_id": "x"})
    stats = compute_stats([record])
    assert stats.mean_input_tokens == 4.0  # SELECT / a / FROM / t
    assert stats.mean_output_tokens == 3.0  # res / = / df.select(t.a)
    assert stats.counts == {TARGET_BAM: 1}


def test_stats_json_round(tmp_path):
    record = CorpusRecord(target=TARGET_LOM, input={"a": "x y"}, output="z",
                          provenance={"seed_id": "s"})
    path = tmp_path / "c.corpus"
    write_corpus([record], path, "lom")
    text = path.read_text()
    assert text.startswith("#corpus v1 lom\n")
    assert json.loads(text.splitlines()[1])["target"] == TARGET_LOM


def test_lom_provenance_when_two_seeds_share_a_trajectory(schemas):
    # both seeds are correct and share one verified trajectory, so their
    # perturbations (each drawn from stream index 0) have identical texts
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    seeds = [SeedExample(sid, "store", "older customers", sql, sql) for sid in ("a", "b")]
    bam = build_bam_corpus(seeds, schemas)
    cfg = PerturbationConfig(k=4, seed=5)
    lom = build_lom_corpus(bam.records, seeds, cfg, schemas)
    assert not lom.failures
    positives = Counter(r.provenance["seed_id"] for r in lom.records
                        if r.provenance["source"] == "perturbation")
    negatives = Counter(r.provenance["seed_id"] for r in lom.records
                        if r.provenance["source"] == "identity-negative")
    assert positives == {"a": 4, "b": 4}
    # one negative per four positives, taken from each seed's fourth pair
    assert negatives == {"a": 1, "b": 1}
    texts = Counter((r.input["trajectory"], r.output) for r in lom.records
                    if r.provenance["source"] == "perturbation")
    assert all(count == 2 for count in texts.values())
    # the k pairs of one seed share its verified trajectory, so each record
    # must carry the perturbation record of the pair whose text it holds
    expected = {}
    for record in bam.records:
        pairs = augment([parse_trajectory(record.output)], cfg, schemas["store"]).pairs
        expected[record.provenance["seed_id"]] = {
            render_trajectory(pair.erroneous): pair.record.to_dict() for pair in pairs}
    assert [len(by_text) for by_text in expected.values()] == [cfg.k, cfg.k]
    for record in lom.records:
        if record.provenance["source"] == "perturbation":
            by_text = expected[record.provenance["seed_id"]]
            assert record.provenance["perturbation"] == by_text[record.input["trajectory"]]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("with_dbs", [False, True])
@pytest.mark.parametrize("bam_input", ["gold"])
def test_sam_and_lom_from_read_back_bam_are_byte_identical(
        tmp_path, schemas, dbs, fixture_seeds, k, with_dbs, bam_input):
    # sam and lom take the verified trajectory a bam record carries, and parse
    # its text only for records read back from a file; that is sound because
    # the text parses back to the very trajectory it was rendered from
    seeds = generated_seeds() + list(fixture_seeds)
    bam = build_bam_corpus(seeds, schemas)
    assert len(bam.records) > 80
    by_id = {seed.id: seed for seed in seeds}
    for record in bam.records:
        assert parse_trajectory(record.output) == record.trajectory
        seed = by_id[record.provenance["seed_id"]]
        assert record.input["sql"] == getattr(seed, f"{bam_input}_sql")
    write_corpus(bam.records, tmp_path / "bam.corpus", "bam", bam.stats)
    read_back, _, _ = read_corpus(tmp_path / "bam.corpus")
    assert all(record.trajectory is None for record in read_back)
    cfg = PerturbationConfig(k=k, seed=11)
    files = {}
    for name, records in (("typed", bam.records), ("text", read_back)):
        sam = build_sam_corpus(records, seeds, schemas)
        lom = build_lom_corpus(records, seeds, cfg, schemas, dbs=dbs if with_dbs else None)
        for target, result in (("sam", sam), ("lom", lom)):
            path = tmp_path / f"{name}.{target}.corpus"
            write_corpus(result.records, path, target, result.stats)
            files[name, target] = (path.read_bytes(), result.failures)
    assert files["typed", "sam"] == files["text", "sam"]
    assert files["typed", "lom"] == files["text", "lom"]


def test_lom_initial_error_the_step_types_reject_fails_its_seed(bam, fixture_seeds, schemas):
    # an initial SQL whose decomposition nests an aggregate is no trajectory:
    # decompose rejects it, and its seed fails instead of giving a pair
    seeds = [replace(seed, initial_sql="SELECT SUM(COUNT(schools.id)) FROM schools")
             if seed.id == "s01" else seed for seed in fixture_seeds]
    lom = build_lom_corpus(bam.records, seeds, PerturbationConfig(k=1, seed=3), schemas)
    assert ("s01", "initial-unconvertible", "aggregate argument contains an aggregate") \
        in lom.failures
    sources = {r.provenance["source"] for r in lom.records if r.provenance["seed_id"] == "s01"}
    assert "initial-error" not in sources


def test_lom_gold_that_the_engine_rejects_fails_only_its_seed(schemas, dbs):
    # the round trip passes a gold that SQLite cannot run: an aggregate in WHERE
    unrunnable = SeedExample("u1", "store", "q", "SELECT customers.name FROM customers "
                             "WHERE COUNT(customers.id) > 1", "SELECT customers.name FROM customers")
    runnable = SeedExample("u2", "store", "q", "SELECT customers.name FROM customers "
                           "WHERE customers.age > 30", "select name from customers where age > 30")
    seeds = [unrunnable, runnable]
    bam = build_bam_corpus(seeds, schemas)
    assert bam.failures == [] and len(bam.records) == 2
    cfg = PerturbationConfig(k=1, seed=3)
    lom = build_lom_corpus(bam.records, seeds, cfg, schemas, dbs=dbs)
    assert lom.failures == [("u1", "gold-unexecutable", "misuse of aggregate function COUNT()")]
    assert {r.provenance["seed_id"] for r in lom.records} == {"u2"}
    alone = build_lom_corpus(bam.records[1:], seeds[1:], cfg, schemas, dbs=dbs)
    assert [r.to_dict() for r in lom.records] == [r.to_dict() for r in alone.records]


def test_sam_fails_the_seed_whose_literal_reads_as_a_mask_token(schemas):
    masked_looking = SeedExample("m", "store", "q",
                                 "SELECT city FROM customers WHERE name = '[MASK:0]'",
                                 "SELECT city FROM customers")
    plain = SeedExample("p", "store", "q", "SELECT city FROM customers WHERE age > 3",
                        "SELECT city FROM customers")
    seeds = [masked_looking, plain]
    bam = build_bam_corpus(seeds, schemas)
    assert len(bam.records) == 2
    sam = build_sam_corpus(bam.records, seeds, schemas)
    assert sam.failures == [("m", "unmaskable", "trajectory text already holds a mask token")]
    assert {r.provenance["seed_id"] for r in sam.records} == {"p"}
    assert len(sam.records) == 2


def test_bam_text_of_a_between_bound_holding_and_parses_back(schemas, tmp_path):
    seed = SeedExample("b", "store", "q",
                       "SELECT customers.name FROM customers "
                       "WHERE customers.city BETWEEN 'a and b' AND 'c'",
                       "SELECT customers.name FROM customers")
    bam = build_bam_corpus([seed], schemas)
    path = tmp_path / "bam.corpus"
    write_corpus(bam.records, path, TARGET_BAM, bam.stats)
    (record,), _, _ = read_corpus(path)
    assert parse_trajectory(record.output) == bam.records[0].trajectory


def test_a_read_back_record_that_does_not_parse_fails_only_its_seed(schemas, tmp_path):
    seeds = [SeedExample(name, "store", "q", f"SELECT customers.name FROM customers "
                                             f"WHERE customers.age > {age}",
                         "SELECT customers.name FROM customers")
             for name, age in (("a", 3), ("b", 4))]
    bam = build_bam_corpus(seeds, schemas)
    corrupt = replace(bam.records[0], output="df1 = df.where(customers.age\n")
    path = tmp_path / "bam.corpus"
    write_corpus([corrupt, bam.records[1]], path, TARGET_BAM, bam.stats)
    records, _, _ = read_corpus(path)
    sam = build_sam_corpus(records, seeds, schemas)
    lom = build_lom_corpus(records, seeds, PerturbationConfig(k=1, seed=3), schemas)
    for result in (sam, lom):
        assert [f[:2] for f in result.failures if f[0] == "a"] == [
            ("a", "unparseable-trajectory")]
        assert {r.provenance["seed_id"] for r in result.records} == {"b"}


def test_sized_cast_seed_builds_sam_and_lom_from_its_bam_file(tmp_path, schemas):
    seed = SeedExample("c1", "store", "q",
                       "SELECT CAST(customers.age AS VARCHAR(20)) FROM customers",
                       "SELECT customers.age FROM customers")
    bam = build_bam_corpus([seed], schemas)
    path = tmp_path / "bam.corpus"
    write_corpus(bam.records, path, "bam", bam.stats)
    records, _, _ = read_corpus(path)
    assert "cast(customers.age, VARCHAR(20))" in records[0].output
    sam = build_sam_corpus(records, [seed], schemas)
    lom = build_lom_corpus(records, [seed], PerturbationConfig(k=1, seed=3), schemas)
    assert sam.failures == lom.failures == []
    assert len(sam.records) == 2
    assert [r.provenance["source"] for r in lom.records] == ["initial-error"]


@pytest.mark.parametrize("line", ['["a"]', '"a"', "5", "null"])
def test_seed_line_that_is_no_object_names_its_line(tmp_path, fixture_seeds, line):
    path = tmp_path / "seeds.jsonl"
    path.write_text(json.dumps(fixture_seeds[0].to_dict()) + "\n" + line + "\n")
    with pytest.raises(FormatError, match="line 2: "):
        read_seed_file(path)


@pytest.mark.parametrize("name", ["evidence", "difficulty"])
@pytest.mark.parametrize("value", [3, ["x"], True])
def test_seed_field_that_is_no_string_names_its_line(tmp_path, fixture_seeds, name, value):
    path = tmp_path / "seeds.jsonl"
    path.write_text(json.dumps({**fixture_seeds[0].to_dict(), name: "easy"}) + "\n"
                    + json.dumps({**fixture_seeds[1].to_dict(), name: value}) + "\n")
    with pytest.raises(FormatError, match=f"line 2: seed field '{name}' is not a string"):
        read_seed_file(path)
    path.write_text(json.dumps({**fixture_seeds[0].to_dict(), name: None}) + "\n")
    assert getattr(read_seed_file(path)[0], name) is None


@pytest.mark.parametrize("footer", ["#stats {", "#stats []", '#stats {"counts": {}}',
                                    '#stats {"counts": 5, "mean_input_tokens": 0, '
                                    '"mean_output_tokens": 0, "round_trip_pass_rate": null}'])
def test_bad_stats_footer_names_its_line(tmp_path, bam, footer):
    path = tmp_path / "bam.corpus"
    write_corpus(bam.records, path, "bam", bam.stats)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [footer]) + "\n")
    with pytest.raises(FormatError, match=f"line {len(lines)}: bad stats footer"):
        read_corpus(path)


# U+2028, U+2029 and U+0085 are line breaks to `str.splitlines`, but JSON
# leaves them raw under `ensure_ascii=False`; a record ends at `\n` only
LINE_BREAKS = "a\u2028b\u2029c\x85d"


def test_a_record_holding_unicode_line_breaks_reads_back(tmp_path, schemas):
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    seeds = [SeedExample("u", "store", LINE_BREAKS, sql, "SELECT customers.name FROM customers")]
    bam = build_bam_corpus(seeds, schemas)
    lom = build_lom_corpus(bam.records, seeds, PerturbationConfig(k=1, seed=3), schemas)
    path = tmp_path / "lom.corpus"
    write_corpus(lom.records, path, "lom", lom.stats)
    assert LINE_BREAKS.encode() in path.read_bytes()
    records, stats, _ = read_corpus(path)
    assert records == lom.records and records[0].input["question"] == LINE_BREAKS
    assert stats.to_dict() == compute_stats(records).to_dict()


def test_a_seed_holding_unicode_line_breaks_reads(tmp_path, fixture_seeds):
    seed = replace(fixture_seeds[0], question=LINE_BREAKS)
    path = tmp_path / "seeds.jsonl"
    path.write_text(json.dumps(seed.to_dict(), ensure_ascii=False) + "\n", encoding="utf-8")
    assert read_seed_file(path) == [seed]


def test_undecodable_bytes_are_a_format_error_naming_the_line(tmp_path, bam, fixture_seeds):
    path = tmp_path / "bam.corpus"
    write_corpus(bam.records, path, "bam", bam.stats)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:10] + b"\xff" + lines[2][10:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match="^line 3: 'utf-8' codec can't decode byte 0xff "
                                          "in position 10: invalid start byte$"):
        read_corpus(path)
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_bytes(json.dumps(fixture_seeds[0].to_dict()).encode() + b"\n\xff{}\n")
    with pytest.raises(FormatError, match="^line 2: 'utf-8' codec"):
        read_seed_file(seeds)


@pytest.fixture(scope="module")
def generated_corpora(schemas, dbs):
    seeds = generated_seeds()
    bam = build_bam_corpus(seeds, schemas)
    sam = build_sam_corpus(bam.records, seeds, schemas)
    lom = build_lom_corpus(bam.records, seeds, PerturbationConfig(k=2, seed=5), schemas, dbs=dbs)
    return {"bam": bam, "sam": sam, "lom": lom}


@pytest.mark.parametrize("target", ["bam", "sam", "lom"])
def test_written_file_is_the_joined_lines(tmp_path, generated_corpora, target):
    # the writer streams one line at a time; the bytes are those of the
    # whole file joined at once
    built = generated_corpora[target]
    path = tmp_path / f"{target}.corpus"
    write_corpus(built.records, path, target, built.stats)
    lines = [f"#corpus v1 {target}"]
    lines.extend(json.dumps(r.to_dict(), sort_keys=True, ensure_ascii=False)
                 for r in built.records)
    lines.append("#stats " + json.dumps(built.stats.to_dict(), sort_keys=True))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _strings(value, found: dict[int, str]) -> None:
    if isinstance(value, str):
        found[id(value)] = value
    elif isinstance(value, dict):
        for key, item in value.items():
            _strings(key, found)
            _strings(item, found)
    elif isinstance(value, list):
        for item in value:
            _strings(item, found)


def test_a_read_back_holds_each_distinct_string_once(tmp_path, generated_corpora):
    sam = generated_corpora["sam"]
    path = tmp_path / "sam.corpus"
    write_corpus(sam.records, path, "sam", sam.stats)
    records, _, _ = read_corpus(path)
    assert records == sam.records
    dbs = [r.input["db"] for r in records if r.target == TARGET_SAM2]
    assert len(dbs) == 90 and all(db is dbs[0] for db in dbs)
    found: dict[int, str] = {}
    for r in records:
        _strings(r.to_dict(), found)
    assert len(found) == len(set(found.values()))
    # a second read shares nothing with the first: the table lives for one call
    again, _, _ = read_corpus(path)
    assert again == records and again[1].input["db"] is not dbs[0]
