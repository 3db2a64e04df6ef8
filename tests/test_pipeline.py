import gc
import json
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from sqlsteps.bridge import decompose
from sqlsteps.errors import (
    BackendFailedError,
    BackendUnavailableError,
    FormatError,
    StageOutputInvalidError,
    TemplateNotFoundError,
)
from sqlsteps.masking import mask_schema
from sqlsteps.pipeline import (
    STAGES,
    RemoteBackend,
    RuleBackend,
    ScriptedBackend,
    build_backends,
    correct_batch,
    make_feedback,
    run_pipeline,
)
from sqlsteps.schema import extract_schema, render_database_input
from sqlsteps.sqlast import SqlQuery, canonicalize, parse_sql
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import FIXTURES, golden


def rule_backends():
    return build_backends({})


def identity_backends():
    return build_backends({stage: {"kind": "identity"}
                           for stage in ("bam", "sam_mask", "sam_fill", "lom")})


def table9_scripted():
    return build_backends({
        stage: {"kind": "scripted", "script_file": "backends/table9_script.json"}
        for stage in ("bam", "sam_mask", "sam_fill", "lom")
    }, base_dir=FIXTURES)


def test_rule_pipeline_is_identity_on_correct_sql(store):
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    trace = run_pipeline(store, "names of older customers", sql, rule_backends())
    assert trace.error is None
    assert trace.feedback is not None and trace.feedback.reverted_sql is not None
    assert canonicalize(SqlQuery.raw(trace.feedback.reverted_sql), store) == \
        canonicalize(parse_sql(sql), store)
    assert [s.stage for s in trace.stages] == ["bam", "sam_mask", "sam_fill", "lom"]


def test_identity_backends_reduce_to_decomposition(store):
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    trace = run_pipeline(store, "q", sql, identity_backends())
    expected = decompose(parse_sql(sql), store)
    assert render_trajectory(trace.trajectory_final) == render_trajectory(expected)
    assert render_trajectory(trace.trajectory_initial) == render_trajectory(expected)
    assert all(s.identity for s in trace.stages if s.stage != "bam")


def test_scripted_replay_of_case_study(schools):
    trace = run_pipeline(schools, "which county", golden("table9_initial.sql").strip(),
                         table9_scripted(), seed_id="s01")
    assert trace.error is None
    assert render_trajectory(trace.trajectory_initial) == golden("table9_bam_asprinted.traj")
    assert render_trajectory(trace.trajectory_schema) == golden("table9_sam.traj")
    assert render_trajectory(trace.trajectory_final) == golden("table9_lom.traj")
    reverted = SqlQuery.raw(trace.feedback.reverted_sql)
    gold = parse_sql(golden("table9_gold.sql"))
    assert canonicalize(reverted, schools) == canonicalize(gold, schools)


def test_pipeline_deterministic(store):
    sql = "SELECT customers.city FROM customers WHERE customers.age BETWEEN 20 AND 40"
    a = run_pipeline(store, "q", sql, rule_backends())
    b = run_pipeline(store, "q", sql, rule_backends())
    assert render_trajectory(a.trajectory_final) == render_trajectory(b.trajectory_final)
    assert a.feedback.prompt == b.feedback.prompt
    assert a.feedback.reverted_sql == b.feedback.reverted_sql


def test_degraded_mode_keeps_last_valid_trajectory(store):
    backends = rule_backends()
    backends["lom"] = ScriptedBackend("lom", {"*": "this is not a trajectory"})
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    trace = run_pipeline(store, "q", sql, backends)
    assert trace.error is not None and "lom" in trace.error
    assert trace.trajectory_final is None
    assert trace.trajectory_schema is not None
    assert trace.feedback is not None  # built from the last valid trajectory
    assert trace.feedback.trajectory_text == render_trajectory(trace.trajectory_schema)


def test_degraded_mode_stage_order_preserved(store):
    backends = rule_backends()
    backends["sam_mask"] = ScriptedBackend("sam_mask", {"*": "%%%"})
    sql = "SELECT customers.name FROM customers"
    trace = run_pipeline(store, "q", sql, backends)
    assert [s.stage for s in trace.stages][:2] == ["bam", "sam_mask"]
    assert trace.trajectory_initial is not None  # stage < k results intact
    assert trace.feedback.trajectory_text == render_trajectory(trace.trajectory_initial)


def test_unconvertible_initial_sql_yields_error_trace(store):
    trace = run_pipeline(store, "q", "SELECT bogus(x) FROM customers", rule_backends())
    assert trace.error is not None
    assert trace.feedback is None


def test_make_feedback_contains_trajectory_and_sql(store):
    t = decompose(parse_sql("SELECT customers.name FROM customers"), store)
    feedback = make_feedback(t, store)
    assert feedback.trajectory_text in feedback.prompt
    assert feedback.reverted_sql == "SELECT customers.name FROM customers"
    assert feedback.reverted_sql in feedback.prompt


def test_make_feedback_degrades_without_join_path(schemas):
    t = parse_trajectory("res = df.select(a.x, b.y)")
    from sqlsteps.schema import parse_database_text

    apart = parse_database_text(
        "database apart\ntable a\n  column id int pk\n  column x int\n"
        "table b\n  column id int pk\n  column y int")
    feedback = make_feedback(t, apart)
    assert feedback.reverted_sql is None
    assert feedback.trajectory_text


def test_make_feedback_unknown_template(tmp_path, store):
    # a template directory without `regenerate_sql.txt`
    (tmp_path / "other.txt").write_text("$trajectory")
    t = decompose(parse_sql("SELECT customers.name FROM customers"), store)
    with pytest.raises(TemplateNotFoundError):
        make_feedback(t, store, template_dir=tmp_path)


def test_template_dir_override(tmp_path, store):
    (tmp_path / "regenerate_sql.txt").write_text("OVERRIDE $trajectory")
    t = decompose(parse_sql("SELECT customers.name FROM customers"), store)
    feedback = make_feedback(t, store, template_dir=tmp_path)
    assert feedback.prompt.startswith("OVERRIDE res = df.select")
    # a template_dir file may change, so it is read on every call
    (tmp_path / "regenerate_sql.txt").write_text("CHANGED $trajectory")
    assert make_feedback(t, store, template_dir=tmp_path).prompt.startswith("CHANGED ")


def test_make_feedback_reads_packaged_template_once(monkeypatch, store):
    from types import SimpleNamespace

    from sqlsteps import pipeline

    real_files = pipeline.resources.files
    lookups = []

    def files(package):
        lookups.append(package)
        return real_files(package)

    pipeline._packaged_prompt_text.cache_clear()
    monkeypatch.setattr(pipeline, "resources", SimpleNamespace(files=files))
    t = decompose(parse_sql("SELECT customers.name FROM customers"), store)
    prompts = {make_feedback(t, store).prompt for _ in range(20)}
    assert len(prompts) == 1
    assert lookups == ["sqlsteps"]


def test_correct_batch_feedback_only(fixture_seeds, schemas):
    results = correct_batch(fixture_seeds, rule_backends(), schemas, jobs=3)
    assert len(results) == 10
    assert [r.seed_id for r in results] == sorted(r.seed_id for r in results)
    with_feedback = [r for r in results if r.feedback is not None]
    assert len(with_feedback) == 10  # every fixture initial SQL decomposes


def test_cpu_batch_runs_every_stage_on_the_calling_thread(fixture_seeds, schemas):
    calls: list[tuple[str, int]] = []

    class Recorded:
        """A stage in Python that is no RemoteBackend: the rule stage, noting its thread."""

        identity = False

        def __init__(self, stage):
            self.stage, self.rule = stage, RuleBackend(stage)

        def describe(self):
            return f"test:{self.stage}"

        def invoke(self, payload):
            calls.append((self.stage, threading.get_ident()))
            return self.rule.invoke(payload)

    backends = rule_backends()
    for stage, backend in backends.items():  # wrapped on the instance, as a tracer does
        def recorded(payload, stage=stage, invoke=backend.invoke):
            calls.append((stage, threading.get_ident()))
            return invoke(payload)
        backend.invoke = recorded
    backends["lom"] = Recorded("lom")
    results = correct_batch(fixture_seeds, backends, schemas, jobs=4)
    assert len(results) == 10
    assert {stage for stage, _ in calls} == set(STAGES)
    assert {thread for _, thread in calls} == {threading.get_ident()}


def test_generator_batch_runs_on_the_pool(fixture_seeds, schemas):
    threads: list[int] = []

    def generator(payload):
        threads.append(threading.get_ident())
        return payload["reverted_sql"]

    results = correct_batch(fixture_seeds, rule_backends(), schemas, generator=generator,
                            jobs=2)
    assert len(threads) == sum(r.feedback is not None for r in results) > 0
    assert threading.get_ident() not in threads


def test_correct_batch_echo_generator(fixture_seeds, schemas):
    def echo(payload):
        return payload["reverted_sql"]

    results = correct_batch(fixture_seeds, rule_backends(), schemas, generator=echo)
    for result in results:
        if result.feedback and result.feedback.reverted_sql:
            assert result.regenerated_sql == result.feedback.reverted_sql


def test_correct_batch_missing_schema_is_isolated(fixture_seeds, schemas):
    trimmed = {k: v for k, v in schemas.items() if k != "schools"}
    results = correct_batch(fixture_seeds, rule_backends(), trimmed)
    failed = [r for r in results if r.error and "schools" in r.error]
    assert len(failed) == 1 and failed[0].seed_id == "s01"
    assert len(results) == 10  # batch never aborts


def test_rule_pipeline_no_overcorrection_flags(fixture_seeds, schemas):
    results = correct_batch(fixture_seeds, rule_backends(), schemas)
    assert not any(r.overcorrection_flag for r in results)


def test_overcorrection_flag_set_when_correct_seed_is_rewritten(fixture_seeds, schemas):
    class MangleOne:
        stage = "lom"
        identity = False

        def describe(self):
            return "test:mangle"

        def invoke(self, payload):
            if payload.get("id") == "s02":  # s02's initial SQL equals its gold
                return "res = df.select(customers.city)\n"
            return payload["trajectory"]

    backends = rule_backends()
    backends["lom"] = MangleOne()
    results = correct_batch(fixture_seeds, backends, schemas)
    flagged = [r.seed_id for r in results if r.overcorrection_flag]
    assert flagged == ["s02"]


def test_rejected_value_in_stage_output_stays_with_its_seed(fixture_seeds, schemas):
    class LimitZero:
        stage = "lom"
        identity = False

        def describe(self):
            return "test:limit-zero"

        def invoke(self, payload):
            if payload.get("id") == "s02":
                return "res = df.select(customers.name).limit(0)\n"
            return payload["trajectory"]

    backends = rule_backends()
    backends["lom"] = LimitZero()
    results = correct_batch(fixture_seeds, backends, schemas, jobs=1)
    assert len(results) == 10
    errors = {r.seed_id: r.error for r in results if r.error}
    assert set(errors) - {"s10"} == {"s02"}  # s10's window function never decomposes
    assert "stage lom" in errors["s02"] and "limit" in errors["s02"]
    s02 = next(r for r in results if r.seed_id == "s02")
    assert s02.feedback is not None  # degraded to the sam_fill trajectory


def test_backend_exception_of_its_own_stays_with_its_seed(fixture_seeds, schemas):
    class MissingKey:
        stage = "lom"
        identity = False

        def describe(self):
            return "test:missing-key"

        def invoke(self, payload):
            if payload.get("id") == "s02":
                return {}["trajectory"]
            return payload["trajectory"]

    backends = rule_backends()
    backends["lom"] = MissingKey()
    results = correct_batch(fixture_seeds, backends, schemas, jobs=2)
    assert len(results) == 10
    errors = {r.seed_id: r.error for r in results if r.error}
    assert set(errors) - {"s10"} == {"s02"}
    assert errors["s02"] == "lom: backend raised KeyError: 'trajectory'"
    s02 = next(r for r in results if r.seed_id == "s02")
    assert s02.trace.stages[-1].error_type is BackendFailedError
    assert s02.feedback is not None  # degraded to the sam_fill trajectory


def test_rule_sam_mask_fails_a_masked_looking_literal_as_a_format_error(schemas):
    sql = "SELECT city FROM customers WHERE name = '[MASK:0]'"
    trace = run_pipeline(schemas["store"], "q", sql, rule_backends())
    record = trace.stages[-1]
    assert record.stage == "sam_mask"
    assert record.error_type is FormatError
    assert trace.error == "sam_mask: trajectory text already holds a mask token"


def test_generator_exception_of_its_own_stays_with_its_seed(fixture_seeds, schemas):
    def generator(payload):
        if payload["id"] == "s03":
            raise RuntimeError("model offline")
        return payload["reverted_sql"]

    results = correct_batch(fixture_seeds, rule_backends(), schemas, generator=generator)
    assert len(results) == 10
    s03 = next(r for r in results if r.seed_id == "s03")
    assert s03.error == "generator raised RuntimeError: model offline"
    assert all(r.error is None for r in results if r.seed_id not in ("s03", "s10"))


def test_limit_zero_initial_sql_stays_with_its_seed(fixture_seeds, schemas, dbs):
    from sqlsteps.corpus import SeedExample
    from sqlsteps.evaluate import evaluate_correction

    bad = SeedExample("s99", "store", "no names", "SELECT customers.name FROM customers",
                      "SELECT name FROM customers LIMIT 0")
    seeds = [*fixture_seeds, bad]
    results = correct_batch(seeds, rule_backends(), schemas, jobs=1)
    assert len(results) == 11
    errors = {r.seed_id: r.error for r in results if r.error}
    assert set(errors) - {"s10"} == {"s99"}
    assert "LIMIT 0" in errors["s99"]
    report = evaluate_correction(results, seeds, dbs, schemas)
    verdict = next(v for v in report.per_instance if v.seed_id == "s99")
    assert verdict.round_trip_pass is False and not verdict.ex_match


def test_stage_payloads_read_as_text(store):
    """Each stage sees today's keys, in order, with text values."""
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    seen = {}

    class Recording:
        identity = False

        def __init__(self, stage):
            self.stage = stage
            self.rule = RuleBackend(stage)

        def describe(self):
            return f"test:record:{self.stage}"

        def invoke(self, payload):
            seen[self.stage] = list(payload.items())
            return self.rule.invoke(payload)

    trace = run_pipeline(store, "older", sql, {s: Recording(s) for s in STAGES},
                         seed_id="x1")
    t = decompose(parse_sql(sql), store)
    base = [("db", render_database_input(store)), ("question", "older"), ("id", "x1")]
    assert seen["bam"] == [*base, ("sql", sql)]
    assert seen["sam_mask"] == [*base, ("trajectory", render_trajectory(t))]
    assert seen["sam_fill"] == [*base,
                                ("schema_list", extract_schema(parse_sql(sql)).render()),
                                ("masked", mask_schema(t).template),
                                ("trajectory", render_trajectory(t))]
    assert seen["lom"] == [*base, ("trajectory", render_trajectory(t))]
    assert [s.output for s in trace.stages] == [
        render_trajectory(t), mask_schema(t).template, render_trajectory(t),
        render_trajectory(t)]
    assert trace.masked == mask_schema(t)


def test_text_sam_mask_output_keeps_its_slot_values(store):
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    t = decompose(parse_sql(sql), store)
    backends = rule_backends()
    backends["sam_mask"] = ScriptedBackend("sam_mask", {"*": mask_schema(t).template})
    trace = run_pipeline(store, "q", sql, backends)
    assert trace.error is None
    assert trace.masked.template == mask_schema(t).template
    assert trace.masked.slot_values() == mask_schema(t).slot_values()
    assert render_trajectory(trace.trajectory_schema) == render_trajectory(t)


def test_output_of_the_wrong_type_is_an_invalid_stage_output(store):
    class Returns:
        identity = False

        def __init__(self, stage, value):
            self.stage, self.value = stage, value

        def describe(self):
            return f"test:returns:{self.stage}"

        def invoke(self, payload):
            return self.value

    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    t = decompose(parse_sql(sql), store)
    backends = rule_backends()
    backends["sam_mask"] = Returns("sam_mask", t)  # a trajectory, not a mask
    trace = run_pipeline(store, "q", sql, backends)
    assert "sam_mask" in trace.error and trace.trajectory_schema is None
    assert trace.feedback.trajectory_text == render_trajectory(t)

    backends = rule_backends()
    backends["bam"] = Returns("bam", None)
    trace = run_pipeline(store, "q", sql, backends)
    assert "bam" in trace.error and trace.feedback is None
    assert trace.stages[0].output is None


# --- remote backend -----------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    fail_times = 0
    seen: list = []
    raw_replies: dict = {}  # seed id -> response body sent as is

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        reply = type(self).raw_replies.get(body.get("id")) or json.dumps(
            {"text": body.get("trajectory", "res = df.select(t.a)")})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(reply.encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.fail_times = 0
    _StubHandler.seen = []
    _StubHandler.raw_replies = {}
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_remote_sam_fill_in_pipeline_sees_text_without_trajectory(stub_server, store):
    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    backends = rule_backends()
    backends["sam_fill"] = RemoteBackend("sam_fill", stub_server, timeout=5.0)
    run_pipeline(store, "older", sql, backends, seed_id="x1")
    t = decompose(parse_sql(sql), store)
    assert _StubHandler.seen == [{
        "stage": "sam_fill", "db": render_database_input(store), "question": "older",
        "id": "x1",
        "schema_list": extract_schema(parse_sql(sql)).render(),
        "masked": mask_schema(t).template}]


def test_remote_backend_round_trip(stub_server):
    backend = RemoteBackend("lom", stub_server, timeout=5.0)
    out = backend.invoke({"trajectory": "res = df.select(t.a)\n", "question": "q"})
    assert out == "res = df.select(t.a)\n"
    assert _StubHandler.seen[0]["stage"] == "lom"


def test_remote_backend_retries_then_succeeds(stub_server):
    _StubHandler.fail_times = 2
    backend = RemoteBackend("lom", stub_server, timeout=5.0, retries=2, backoff=0.01)
    out = backend.invoke({"trajectory": "res = df.select(t.a)\n"})
    assert out == "res = df.select(t.a)\n"
    assert len(_StubHandler.seen) == 3


def test_remote_backend_closes_the_error_replies_it_retries(stub_server):
    _StubHandler.fail_times = 2
    backend = RemoteBackend("lom", stub_server, timeout=5.0, retries=2, backoff=0.01)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert backend.invoke({"trajectory": "res = df.select(t.a)\n"}) == "res = df.select(t.a)\n"
        gc.collect()  # an error reply left open warns when it is collected
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_remote_backend_unavailable():
    backend = RemoteBackend("lom", "http://127.0.0.1:1/", timeout=0.2, retries=1,
                            backoff=0.01)
    with pytest.raises(BackendUnavailableError):
        backend.invoke({"trajectory": "x"})


@pytest.mark.parametrize("reply", ["null", "7", '["res = df.select(t.a)"]'])
def test_remote_reply_that_is_not_an_object_is_invalid_output(stub_server, reply):
    _StubHandler.raw_replies = {"x1": reply}
    backend = RemoteBackend("lom", stub_server, timeout=5.0)
    with pytest.raises(StageOutputInvalidError, match="`text`"):
        backend.invoke({"trajectory": "res = df.select(t.a)\n", "id": "x1"})


def test_remote_null_reply_stays_with_its_seed(stub_server, fixture_seeds, schemas):
    _StubHandler.raw_replies = {"s02": "null"}
    backends = rule_backends()
    backends["lom"] = RemoteBackend("lom", stub_server, timeout=5.0)
    results = correct_batch(fixture_seeds, backends, schemas, jobs=1)
    assert len(results) == 10
    errors = {r.seed_id: r.error for r in results if r.error}
    assert set(errors) - {"s10"} == {"s02"}  # s10's window function never decomposes
    assert "stage lom" in errors["s02"] and "`text`" in errors["s02"]
    assert all(r.feedback is not None for r in results if r.seed_id not in errors)


def test_remote_sam_fill_hides_source_trajectory(stub_server):
    backend = RemoteBackend("sam_fill", stub_server, timeout=5.0)
    backend.invoke({"masked": "res = df.select([MASK:0])\n",
                    "trajectory": "res = df.select(t.a)\n"})
    assert "trajectory" not in _StubHandler.seen[-1]


@pytest.mark.parametrize("config,stage", [({"bam": "rule"}, "bam"),
                                          ({"lom": {"kind": "remote"}}, "lom")])
def test_malformed_backend_config_is_a_format_error(config, stage):
    with pytest.raises(FormatError, match=f"stage {stage}"):
        build_backends(config)


@pytest.mark.parametrize("config,match", [
    ({"lom": {"kind": "remote", "endpoint": "http://x/", "timeout": "soon"}}, "stage lom"),
    ({"lom": {"kind": "remote", "endpoint": "http://x/", "retries": "many"}}, "stage lom"),
    # a negative retries would send no request, and a timeout urllib rejects
    # would fail every seed at its first call
    ({"lom": {"kind": "remote", "endpoint": "http://x/", "retries": -1}},
     "stage lom: retries must be >= 0"),
    *(({"sam_mask": {"kind": "remote", "endpoint": "http://x/", "timeout": timeout}},
       "stage sam_mask: timeout must be a finite positive number")
      for timeout in (-1, 0, "nan", "inf")),
    ({"sam_fill": {"kind": "scripted", "outputs": "x"}}, "stage sam_fill"),
    ({"bam": {"kind": "scripted", "script_file": "missing.json"}}, "missing.json for stage bam"),
    (["bam"], "must be an object"),
], ids=["timeout", "retries", "negative-retries", "negative-timeout", "zero-timeout",
        "nan-timeout", "inf-timeout", "outputs", "script-file", "list"])
def test_bad_backend_config_values_are_format_errors(config, match, tmp_path):
    with pytest.raises(FormatError, match=match):
        build_backends(config, tmp_path)


def test_backend_config_kinds():
    backends = build_backends({"bam": {"kind": "rule"},
                               "sam_mask": {"kind": "identity"},
                               "sam_fill": {"kind": "scripted", "outputs": {"*": "x"}},
                               "lom": {"kind": "remote", "endpoint": "http://x/",
                                       "retries": 0, "timeout": 0.5}})
    assert isinstance(backends["bam"], RuleBackend)
    assert isinstance(backends["sam_mask"], RuleBackend) and backends["sam_mask"].identity
    assert backends["sam_mask"].describe() == "identity:sam_mask"
    assert isinstance(backends["sam_fill"], ScriptedBackend)
    assert isinstance(backends["lom"], RemoteBackend)
    assert (backends["lom"].retries, backends["lom"].timeout) == (0, 0.5)


def test_a_bam_whose_invoke_is_set_on_the_instance_gets_the_round_trip_verdict(schemas, dbs,
                                                                                 store):
    """The run vouches for the round trip only when its bam runs the rule
    decomposition; a function set as `invoke` on the instance may return any
    trajectory, so `evaluate_correction` runs the round trip itself."""
    from sqlsteps.bridge import PASS, round_trip
    from sqlsteps.corpus import SeedExample
    from sqlsteps.evaluate import evaluate_correction

    sql = "SELECT customers.name FROM customers WHERE customers.age > 30"
    seed = SeedExample("r1", "store", "older", sql, sql)
    backends = rule_backends()
    backends["bam"].invoke = lambda payload: "res = df.select(customers.name)"
    [result] = correct_batch([seed], backends, schemas, jobs=1)
    assert result.trace.round_trip_pass is None
    [verdict] = evaluate_correction([result], [seed], dbs, schemas).per_instance
    assert round_trip(parse_sql(sql), store).verdict == PASS
    assert verdict.round_trip_pass is True
    # a wrapper that calls the rule stage is vouched for no more than any other
    backends = rule_backends()
    backends["bam"].invoke = lambda payload, invoke=backends["bam"].invoke: invoke(payload)
    [wrapped] = correct_batch([seed], backends, schemas, jobs=1)
    assert wrapped.trace.round_trip_pass is None
    [rule] = correct_batch([seed], rule_backends(), schemas, jobs=1)
    assert rule.trace.round_trip_pass is True
