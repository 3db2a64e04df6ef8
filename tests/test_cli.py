import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqlsteps.actions import ACTION_SPACE
from sqlsteps.cli import EXIT_ERROR, EXIT_OK, EXIT_UNSUPPORTED, build_parser, dispatch

from conftest import FIXTURES, golden

SRC = Path(__file__).resolve().parent.parent / "src"

SCHEMAS = str(FIXTURES / "schemas")
SEEDS = str(FIXTURES / "seeds" / "fixture_seeds.jsonl")
DBS = str(FIXTURES / "dbs")


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_pass_exit_zero(capsys):
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "roundtrip", "--db", "schools",
                                "--sql", golden("table9_gold.sql")])
    assert code == EXIT_OK
    assert out.strip() == "Pass"


def test_roundtrip_unsupported_exit_two(capsys):
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "roundtrip", "--db", "schools",
                                "--sql", "SELECT COUNT(DISTINCT County) FROM schools"])
    assert code == EXIT_UNSUPPORTED
    assert out.startswith("Unsupported")


def test_unknown_verb_exit_one(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == EXIT_ERROR
    assert "usage error" in err


def test_perturb_requires_seed(capsys, tmp_path):
    infile = tmp_path / "t.jsonl"
    infile.write_text(json.dumps({"trajectory": "res = df.select(schools.SOC)"}) + "\n")
    code, _, err = run(capsys, ["--schemas", SCHEMAS, "perturb", "--db", "schools",
                                "--in", str(infile)])
    assert code == EXIT_ERROR
    assert "--seed" in err


def test_decompose_and_revert_pipe(capsys, tmp_path):
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "decompose", "--db", "schools",
                                "--sql", golden("table9_initial.sql")])
    assert code == EXIT_OK
    assert out == golden("table9_bam.traj")
    infile = tmp_path / "t.traj"
    infile.write_text(out)
    code, sql_out, _ = run(capsys, ["--schemas", SCHEMAS, "revert", "--db", "schools",
                                    "--in", str(infile)])
    assert code == EXIT_OK
    assert sql_out.startswith("SELECT schools.County")


def test_mask_and_fill(capsys, tmp_path):
    code, out, _ = run(capsys, ["--format", "structured", "mask", "--in",
                                str(FIXTURES / "golden" / "table9_bam_asprinted.traj")])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["slots"]) == 7
    template = tmp_path / "m.txt"
    template.write_text(payload["template"])
    values = ",".join(s["value"].replace("schools.Year", "schools.ClosedDate")
                      for s in payload["slots"])
    code, filled, _ = run(capsys, ["--schemas", SCHEMAS, "fill", "--db", "schools",
                                   "--in", str(template), "--values", values])
    assert code == EXIT_OK
    assert filled == golden("table9_sam.traj")


def test_extract_schema_verb(capsys):
    code, out, _ = run(capsys, ["extract-schema", "--sql", "SELECT a FROM t JOIN u ON t.id = u.id"])
    assert code == EXIT_OK
    assert out.strip() == "tables: t, u; columns: ?.a, t.id, u.id"


def test_perturb_structured_output(capsys, tmp_path):
    infile = tmp_path / "t.jsonl"
    infile.write_text(json.dumps(
        {"trajectory": golden("table9_sam.traj")}) + "\n")
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "--seed", "9", "perturb",
                                "--db", "schools", "--k", "2", "--in", str(infile)])
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(lines) == 2
    assert all({"erroneous", "verified", "record"} <= set(line) for line in lines)


def test_build_corpus_and_stats(capsys, tmp_path):
    out_dir = tmp_path / "corpora"
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "--seed", "17", "build-corpus",
                                "--target", "all", "--seeds", SEEDS,
                                "--out", str(out_dir), "--k", "2"])
    assert code == EXIT_OK
    assert "bam: 9 records" in out
    assert "sam: 18 records" in out
    assert "lom: 18 records" in out
    code, out, _ = run(capsys, ["corpus-stats", "--in", str(out_dir / "lom.corpus")])
    assert code == EXIT_OK
    assert "stored == recomputed: True" in out


def test_orchestrate_feedback_only(capsys, tmp_path):
    out_file = tmp_path / "results.jsonl"
    code, _, _ = run(capsys, ["--schemas", SCHEMAS, "orchestrate", "--seeds", SEEDS,
                              "--out", str(out_file)])
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(lines) == 10
    assert all(line["reverted_sql"] for line in lines)


def test_eval_verb(capsys, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "s01", "sql": golden("table9_gold.sql")}) + "\n")
    code, out, _ = run(capsys, ["--format", "structured", "--schemas", SCHEMAS, "eval",
                                "--pred", str(pred), "--seeds", SEEDS, "--dbs", DBS])
    assert code == EXIT_OK
    payload = json.loads(out)
    s01 = next(v for v in payload["per_instance"] if v["seed_id"] == "s01")
    assert s01["ex_match"] is True


def test_eval_out_file_matches_golden(capsys, tmp_path):
    # a match, a schema error with a tag and a prediction that fails to run;
    # the other seeds keep their initial SQL
    pred = _jsonl(tmp_path / "pred.jsonl",
                  json.dumps({"id": "s01", "sql": golden("table9_gold.sql")}),
                  json.dumps({"id": "s02", "sql": "SELECT customers.city FROM customers "
                                                  "WHERE customers.age > 30"}),
                  json.dumps({"id": "s03", "sql": "SELECT nope FROM orders"}))
    out_file = tmp_path / "eval.json"
    code, _, _ = run(capsys, ["--schemas", SCHEMAS, "eval", "--pred", pred, "--seeds", SEEDS,
                              "--dbs", DBS, "--out", str(out_file)])
    assert code == EXIT_OK
    assert out_file.read_bytes() == (FIXTURES / "golden" / "eval_fixture_seeds.json").read_bytes()


def test_tag_errors_verb(capsys, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps(
        {"id": "s02", "sql": "SELECT customers.city FROM customers WHERE customers.age > 30"})
        + "\n")
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "tag-errors", "--pred", str(pred),
                                "--seeds", SEEDS])
    assert code == EXIT_OK
    assert "s02: schema/SchemaContradiction" in out


def test_tag_errors_reports_a_parse_error_at_its_own_position(capsys, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "s02", "sql": "SELECT nope FROM"}) + "\n")
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "tag-errors", "--pred", str(pred),
                                "--seeds", SEEDS])
    assert code == EXIT_OK
    assert out.strip() == "s02: error: position 16: expected identifier, got ''"


def test_eval_reads_the_results_of_orchestrate(capsys, tmp_path):
    """A result record holds no `sql`: eval scores its regenerated SQL, else
    its reverted SQL, else its initial SQL, as it scores a correction result."""
    results = tmp_path / "results.jsonl"
    code, _, _ = run(capsys, ["--schemas", SCHEMAS, "orchestrate", "--seeds", SEEDS,
                              "--out", str(results)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in results.read_text("utf-8").splitlines()]
    # one seed with regenerated SQL, one whose reverted SQL is gone
    records[0]["regenerated_sql"] = "SELECT customers.name FROM customers"
    records[1]["reverted_sql"] = None
    results.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    pred = _jsonl(tmp_path / "pred.jsonl", *[json.dumps({
        "id": r["id"], "sql": r["regenerated_sql"] or r["reverted_sql"] or r["initial_sql"]})
        for r in records])
    outputs = []
    for path in (str(results), pred):
        code, out, _ = run(capsys, ["--format", "structured", "--schemas", SCHEMAS, "eval",
                                    "--pred", path, "--seeds", SEEDS, "--dbs", DBS])
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["aggregates"]["n"] == len(records) == 10


@pytest.mark.parametrize("verb", [["eval", "--dbs", DBS], ["tag-errors"]])
def test_a_result_record_with_no_sql_is_an_error_naming_its_line(capsys, tmp_path, verb):
    pred = _jsonl(tmp_path / "pred.jsonl", json.dumps({"id": "s02", "reverted_sql": "SELECT 1"}),
                  json.dumps({"id": "s01", "regenerated_sql": None, "reverted_sql": "",
                              "initial_sql": None}))
    code, _, err = run(capsys, ["--schemas", SCHEMAS, verb[0], "--pred", pred, "--seeds", SEEDS,
                                *verb[1:]])
    assert code == EXIT_ERROR
    assert err.startswith("error: line 2: record has no string field 'sql', 'regenerated_sql', "
                          "'reverted_sql' or 'initial_sql'")


def test_eval_tags_as_tag_errors_does(capsys, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps(
        {"id": "s02", "sql": "SELECT customers.city FROM customers WHERE customers.age > 30"})
        + "\n")
    _, tagged, _ = run(capsys, ["--schemas", SCHEMAS, "tag-errors", "--pred", str(pred),
                                "--seeds", SEEDS])
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "eval", "--pred", str(pred),
                                "--seeds", SEEDS, "--dbs", DBS])
    assert code == EXIT_OK
    assert tagged.strip() == "s02: schema/SchemaContradiction"
    assert "s02: ex=N baseline=Y overcorrection=Y tag=schema/SchemaContradiction" in out


def test_catalog_structured(capsys):
    code, out, _ = run(capsys, ["--format", "structured", "catalog"])
    assert code == EXIT_OK
    payload = json.loads(out)
    names = {a["name"] for a in payload["actions"]}
    assert {"select", "where", "groupby", "having", "orderby", "limit", "distinct",
            "union", "intersect", "except", "sum", "average", "count", "min", "max",
            "cast", "calculation", "substr"} == names
    categories = {a["category"] for a in payload["actions"]}
    assert categories == {"clause", "dataframe", "aggregation", "operator"}


RECORD = json.dumps({"trajectory": "res = df.select(schools.SOC)"})


def _jsonl(path, *lines: str) -> str:
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


ONE_BAD_GOLD = (
    '{"id": "a1", "db": "store", "question": "q", "gold_sql": "SELECT customers.name FROM '
    'customers WHERE customers.age > 30", "initial_sql": "select name from customers where '
    'age > 30"}',
    '{"id": "a2", "db": "store", "question": "q", "gold_sql": "SELECT customers.nope FROM '
    'customers", "initial_sql": "SELECT customers.name FROM customers"}',
)


def test_eval_scores_the_other_seeds_when_one_gold_does_not_run(capsys, tmp_path):
    seeds = _jsonl(tmp_path / "seeds.jsonl", *ONE_BAD_GOLD)
    results = tmp_path / "results.jsonl"
    code, _, _ = run(capsys, ["--schemas", SCHEMAS, "orchestrate", "--seeds", seeds,
                              "--out", str(results)])
    assert code == EXIT_OK
    eval_argv = ["eval", "--pred", str(results), "--seeds", seeds, "--dbs", DBS]
    code, out, err = run(capsys, ["--schemas", SCHEMAS, *eval_argv])
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[:2] == [
        "a1: ex=Y baseline=Y overcorrection=N",
        "a2: gold-unexecutable: no such column: customers.nope"]
    out_file = tmp_path / "eval.json"
    code, out, _ = run(capsys, ["--format", "structured", "--schemas", SCHEMAS, *eval_argv,
                                "--out", str(out_file)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == json.loads(out_file.read_text("utf-8"))
    assert [v["seed_id"] for v in payload["per_instance"]] == ["a1"]
    assert payload["aggregates"]["n"] == 1
    assert payload["failures"] == [{"seed_id": "a2", "verdict": "gold-unexecutable",
                                    "reason": "no such column: customers.nope"}]


def test_eval_scores_the_other_seeds_when_one_has_no_fixture_database(capsys, tmp_path):
    lost = json.dumps({"id": "a0", "db": "nowhere", "question": "q", "gold_sql": "SELECT 1",
                       "initial_sql": "SELECT 1"})
    seeds = _jsonl(tmp_path / "seeds.jsonl", lost, ONE_BAD_GOLD[0])
    pred = _jsonl(tmp_path / "pred.jsonl", json.dumps({"id": "a0", "sql": "SELECT 1"}))
    code, out, err = run(capsys, ["--schemas", SCHEMAS, "eval", "--pred", pred,
                                  "--seeds", seeds, "--dbs", DBS])
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[:2] == ["a1: ex=Y baseline=Y overcorrection=N",
                                    "a0: no-fixture-database: no fixture database 'nowhere'"]


@pytest.mark.parametrize("difficulty", [3, ["x"]])
def test_eval_of_a_seed_whose_difficulty_is_no_string_is_an_error_naming_its_line(
        capsys, tmp_path, difficulty):
    # a difficulty of another type would reach the report's per-difficulty
    # aggregates, which compare and hash it
    first = json.loads(ONE_BAD_GOLD[0])
    seeds = _jsonl(tmp_path / "seeds.jsonl", json.dumps({**first, "difficulty": "easy"}),
                   json.dumps({**first, "id": "a3", "difficulty": difficulty}))
    pred = _jsonl(tmp_path / "pred.jsonl", json.dumps({"id": "a1", "sql": "SELECT 1"}))
    code, out, err = run(capsys, ["--schemas", SCHEMAS, "eval", "--pred", pred,
                                  "--seeds", seeds, "--dbs", DBS])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: line 2: seed field 'difficulty' is not a string or null\n"


def test_eval_output_of_golds_that_all_run_has_no_failures(capsys, tmp_path):
    seeds = _jsonl(tmp_path / "seeds.jsonl", ONE_BAD_GOLD[0])
    pred = _jsonl(tmp_path / "pred.jsonl", json.dumps({"id": "a1", "sql": "SELECT 1"}))
    code, out, _ = run(capsys, ["--format", "structured", "--schemas", SCHEMAS, "eval",
                                "--pred", pred, "--seeds", seeds, "--dbs", DBS])
    assert code == EXIT_OK
    assert sorted(json.loads(out)) == ["aggregates", "per_instance"]


@pytest.mark.parametrize("verb", [["eval", "--dbs", DBS], ["tag-errors"]])
@pytest.mark.parametrize("line", ['{"id": "s01"}', '{"sql": "SELECT 1"}', '{"id": "s01", "sql": 5}',
                                  '["s01"]', "{"])
def test_bad_prediction_line_is_an_error_naming_it(capsys, tmp_path, verb, line):
    pred = _jsonl(tmp_path / "pred.jsonl", json.dumps({"id": "s02", "sql": "SELECT 1"}), line)
    code, _, err = run(capsys, ["--schemas", SCHEMAS, verb[0], "--pred", pred, "--seeds", SEEDS,
                                *verb[1:]])
    assert code == EXIT_ERROR
    assert err.startswith("error: line 2: ")


@pytest.mark.parametrize("line, message", [
    ('{"text": "res = df.select(schools.SOC)"}', "no string field 'trajectory'"),
    ('{"trajectory": "res = df.pivot(schools.SOC)"}', "trajectory does not parse"),
    ("[1]", "not a JSON object"),
])
def test_bad_perturb_record_is_an_error_naming_its_line(capsys, tmp_path, line, message):
    infile = _jsonl(tmp_path / "t.jsonl", RECORD, line)
    code, _, err = run(capsys, ["--schemas", SCHEMAS, "--seed", "1", "perturb", "--db", "schools",
                                "--in", infile])
    assert code == EXIT_ERROR
    assert err.startswith("error: line 2: ") and message in err


def test_malformed_backend_config_is_an_error_naming_its_line(capsys, tmp_path):
    config = tmp_path / "backends.json"
    config.write_text('{\n"bam": \n')
    code, _, err = run(capsys, ["--schemas", SCHEMAS, "orchestrate", "--backends", str(config),
                                "--seeds", SEEDS])
    assert code == EXIT_ERROR
    assert err.startswith("error: line 3: bad backend config JSON")


@pytest.mark.parametrize("flags", [["--weights", "a,b,c"], ["--weights", "1,1,1"],
                                   ["--weights", "nan,0,1"], ["--weights", "0.5,0.5"],
                                   ["--k", "-1"]])
@pytest.mark.parametrize("verb", ["perturb", "build-corpus"])
def test_bad_perturbation_flag_is_a_usage_error(capsys, tmp_path, flags, verb):
    if verb == "perturb":
        infile = _jsonl(tmp_path / "t.jsonl", RECORD)
        argv = ["perturb", "--db", "schools", "--in", infile]
    else:
        argv = ["build-corpus", "--target", "lom", "--seeds", SEEDS, "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, ["--schemas", SCHEMAS, "--seed", "1", *argv, *flags])
    assert code == EXIT_ERROR
    assert err.startswith("usage error: ") and out == ""


@pytest.mark.parametrize("field", [{"output": 5}, {"input": [["question", "q"]]},
                                   {"provenance": "seed s1"}, {"target": 1}])
def test_corpus_record_of_a_wrong_type_is_a_corrupt_record(capsys, tmp_path, field):
    record = {"target": "bam", "input": {"question": "q"}, "output": "res = df.select(t.a)\n",
              "provenance": {}, **field}
    stats = {"counts": {"bam": 1}, "mean_input_tokens": 1.0, "mean_output_tokens": 3.0,
             "round_trip_pass_rate": None}
    path = _jsonl(tmp_path / "bam.corpus", "#corpus v1 bam", json.dumps(record),
                  "#stats " + json.dumps(stats))
    code, out, err = run(capsys, ["corpus-stats", "--in", path])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: line 2: corrupt record (last complete line is 1)\n"


@pytest.mark.parametrize("argv", [["mask", "--in", "{missing}"],
                                  ["--schemas", SCHEMAS, "orchestrate", "--seeds", "{missing}"],
                                  ["corpus-stats", "--in", "{missing}"]])
def test_missing_input_file_is_an_error(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.jsonl")
    code, _, err = run(capsys, [arg.format(missing=missing) for arg in argv])
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and "missing.jsonl" in err


def test_tag_errors_reports_a_seed_without_a_schema(capsys, tmp_path):
    seeds = _jsonl(tmp_path / "seeds.jsonl", json.dumps(
        {"id": "x1", "db": "nope", "question": "q", "gold_sql": "SELECT 1",
         "initial_sql": "SELECT 1"}))
    pred = _jsonl(tmp_path / "pred.jsonl", json.dumps({"id": "x1", "sql": "SELECT 1"}))
    code, out, _ = run(capsys, ["--schemas", SCHEMAS, "tag-errors", "--pred", pred,
                                "--seeds", seeds])
    assert code == EXIT_OK
    assert out.strip() == "x1: error: no schema for database 'nope'"


def test_input_file_that_is_no_utf8_text_is_an_error(capsys, tmp_path):
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_bytes(b"\xff\xfe{}\n")
    code, _, err = run(capsys, ["--schemas", SCHEMAS, "orchestrate", "--seeds", str(seeds)])
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and "utf-8" in err


# U+2028 is a line break to `str.splitlines` that JSON leaves raw under
# `ensure_ascii=False`; every JSON-lines reader ends a line at `\n` only.
def _seed_with_a_line_separator(tmp_path, initial_sql: str) -> str:
    seed = {"id": "u1", "db": "store", "question": "older\u2028customers",
            "gold_sql": "SELECT customers.name FROM customers WHERE customers.age > 30",
            "initial_sql": initial_sql}
    path = tmp_path / "seeds.jsonl"
    path.write_text(json.dumps(seed, ensure_ascii=False) + "\n", encoding="utf-8")
    return str(path)


def test_eval_reads_predictions_from_orchestrate_holding_a_line_separator(capsys, tmp_path):
    seeds = _seed_with_a_line_separator(
        tmp_path, "SELECT customers.name FROM customers WHERE customers.city = 'a\u2028b'")
    results = tmp_path / "results.jsonl"
    code, _, err = run(capsys, ["--schemas", SCHEMAS, "orchestrate", "--seeds", seeds,
                                "--out", str(results)])
    assert code == EXIT_OK, err
    (result,) = [json.loads(line) for line in results.read_bytes().split(b"\n") if line]
    assert "\u2028" in result["initial_sql"]
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": result["id"], "sql": result["initial_sql"]},
                               ensure_ascii=False) + "\n", encoding="utf-8")
    code, out, err = run(capsys, ["--schemas", SCHEMAS, "eval", "--pred", str(pred),
                                  "--seeds", seeds, "--dbs", DBS])
    assert code == EXIT_OK, err
    assert out.startswith("u1: ex=N baseline=N")


def test_corpus_files_of_a_question_holding_a_line_separator_read_back(capsys, tmp_path):
    out_dir = tmp_path / "out"
    seeds = _seed_with_a_line_separator(tmp_path, "SELECT customers.name FROM customers")
    code, out, err = run(capsys, ["--schemas", SCHEMAS, "--seed", "3", "build-corpus",
                                  "--target", "all", "--seeds", seeds, "--out", str(out_dir),
                                  "--dbs", DBS])
    assert code == EXIT_OK, err
    assert out.splitlines() == ["bam: 1 records, 0 failures", "lom: 1 records, 0 failures",
                                "sam: 2 records, 0 failures"]
    for target in ("bam", "sam", "lom"):
        code, out, err = run(capsys, ["corpus-stats", "--in", str(out_dir / f"{target}.corpus")])
        assert code == EXIT_OK, err
        assert "stored == recomputed: True" in out


# Each environment override goes through its flag's type and choices.
@pytest.mark.parametrize("variable, value, message", [
    ("SQLSTEPS_SEED", "abc", "SQLSTEPS_SEED: invalid int value 'abc'"),
    ("SQLSTEPS_JOBS", "x", "SQLSTEPS_JOBS: invalid int value 'x'"),
    ("SQLSTEPS_FORMAT", "yaml", "SQLSTEPS_FORMAT: invalid choice 'yaml'"),
    ("SQLSTEPS_LOG_LEVEL", "loud", "SQLSTEPS_LOG_LEVEL: invalid choice 'loud'"),
])
def test_bad_environment_override_is_a_usage_error(capsys, monkeypatch, variable, value,
                                                   message):
    monkeypatch.setenv(variable, value)
    code, out, err = run(capsys, ["catalog"])
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("variable, value, attribute, expected", [
    ("SQLSTEPS_SCHEMAS", SCHEMAS, "schemas", SCHEMAS),
    ("SQLSTEPS_SEED", "7", "seed", 7),
    ("SQLSTEPS_JOBS", "3", "jobs", 3),
    ("SQLSTEPS_FORMAT", "structured", "output_format", "structured"),
    ("SQLSTEPS_LOG_LEVEL", "INFO", "log_level", "info"),
])
def test_environment_override_sets_the_flag_default(monkeypatch, variable, value, attribute,
                                                    expected):
    monkeypatch.setenv(variable, value)
    assert getattr(build_parser().parse_args([]), attribute) == expected


def test_flag_beats_its_environment_override(monkeypatch):
    monkeypatch.setenv("SQLSTEPS_SEED", "7")
    assert build_parser().parse_args(["--seed", "8"]).seed == 8


def test_version_hashes_the_catalog_only_when_asked(capsys):
    code = ("import sys\n"
            "from sqlsteps.cli import build_parser\n"
            "build_parser()\n"
            "print('hashlib' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
    with pytest.raises(SystemExit) as exit_:
        dispatch(["--version"])
    assert exit_.value.code in (0, None)
    assert capsys.readouterr().out == f"sqlsteps 0.1.0 (actions {ACTION_SPACE.catalog_hash()})\n"
