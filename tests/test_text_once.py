"""A correction run keeps one copy of each text.

The feedback keeps the parts of its prompt and builds the prompt when it is
read; its trajectory text is the text the run's last stage record holds;
each backend description is one string; equal mask-slot values are one
string. A tracemalloc bound pins what `correct_batch` keeps per seed.
"""

import gc
import string
import tracemalloc

import pytest

from sqlsteps.bridge import decompose, revert
from sqlsteps.errors import BRIDGE_ERRORS, TemplateNotFoundError
from sqlsteps.masking import mask_schema
from sqlsteps.pipeline import (Feedback, RemoteBackend, RuleBackend, ScriptedBackend,
                               build_backends, correct_batch, load_prompt, make_feedback)
from sqlsteps.schema import render_database_input
from sqlsteps.sqlast import parse_sql
from sqlsteps.trajectory import render_trajectory

from conftest import generated_seeds


def eager_prompt(feedback: Feedback, template: string.Template, d) -> str:
    """The prompt as it was built when the feedback was made."""
    return template.safe_substitute(database=render_database_input(d),
                                    trajectory=feedback.trajectory_text,
                                    sql=feedback.reverted_sql or "")


@pytest.mark.parametrize("override", [False, True], ids=["packaged", "templates"])
def test_the_prompt_read_is_the_eager_text(override, tmp_path, fixture_seeds, schemas):
    template_dir = None
    if override:
        template_dir = tmp_path
        (tmp_path / "regenerate_sql.txt").write_text(
            "DB $database\nT $trajectory\nSQL $sql\n$question $$ $", encoding="utf-8")
    template = load_prompt("regenerate_sql", template_dir)
    seeds = list(fixture_seeds) + generated_seeds(30)
    results = correct_batch(seeds, build_backends({}), schemas, jobs=1,
                            template_dir=template_dir)
    assert sum(r.feedback is not None for r in results) >= 30
    db_of = {seed.id: seed.db for seed in seeds}
    for result in results:
        feedback = result.feedback
        if feedback is None:
            continue
        prompt = eager_prompt(feedback, template, schemas[db_of[result.seed_id]])
        assert feedback.prompt == prompt and type(feedback.prompt) is str
        assert repr(feedback) == (f"Feedback(trajectory_text={feedback.trajectory_text!r}, "
                                  f"prompt={prompt!r}, reverted_sql={feedback.reverted_sql!r})")
        eager = Feedback(feedback.trajectory_text, prompt, feedback.reverted_sql)
        assert feedback == eager and eager == feedback
        assert feedback != Feedback(feedback.trajectory_text, prompt + " ", feedback.reverted_sql)


def test_a_template_is_read_when_the_feedback_is_made(tmp_path, store):
    t = decompose(parse_sql("SELECT customers.name FROM customers"), store)
    with pytest.raises(TemplateNotFoundError):
        make_feedback(t, store, template_dir=tmp_path)
    (tmp_path / "regenerate_sql.txt").write_text("FIRST $trajectory", encoding="utf-8")
    feedback = make_feedback(t, store, template_dir=tmp_path)
    # the file is not read again when the prompt is read
    (tmp_path / "regenerate_sql.txt").write_text("SECOND $trajectory", encoding="utf-8")
    assert feedback.prompt == "FIRST " + render_trajectory(t)
    (tmp_path / "regenerate_sql.txt").unlink()
    assert feedback.prompt == "FIRST " + render_trajectory(t)


def test_the_feedback_holds_the_text_of_the_last_stage_record(fixture_seeds, schemas):
    results = correct_batch(list(fixture_seeds) + generated_seeds(30), build_backends({}),
                            schemas, jobs=1)
    kept = 0
    for result in results:
        if result.feedback is None:
            continue
        trace = result.trace
        assert result.feedback.trajectory_text is trace.stages[-1].output
        assert result.feedback.trajectory_text == render_trajectory(trace.final_trajectory())
        try:
            reverted = revert(trace.final_trajectory(), trace.db).text
        except BRIDGE_ERRORS:
            reverted = None
        assert result.feedback.reverted_sql == reverted
        kept += 1
    assert kept >= 30


def test_each_description_is_one_string():
    for make in (lambda: RuleBackend("bam"), lambda: RuleBackend("lom", identity=True),
                 lambda: ScriptedBackend("sam_fill", {}),
                 lambda: RemoteBackend("lom", "http://localhost:9/x")):
        first, second = make(), make()
        assert first.describe() is first.describe() is second.describe()
    assert RuleBackend("bam").describe() == "rule:bam"
    assert RuleBackend("lom", identity=True).describe() == "identity:lom"
    assert ScriptedBackend("sam_fill", {}).describe() == "scripted:sam_fill"
    assert RemoteBackend("lom", "http://localhost:9/x").describe() == "remote:lom@http://localhost:9/x"


def test_equal_slot_values_are_one_string(store):
    sql = ("SELECT customers.name, customers.city FROM customers "
           "WHERE customers.age > 3 ORDER BY customers.name")
    first = mask_schema(decompose(parse_sql(sql), store))
    second = mask_schema(decompose(parse_sql(sql.lower()), store))
    assert first == second and len(first.slots) == 4
    for a, b in zip(first.slots, second.slots):
        assert a.value is b.value
    # the two `customers.name` slots of one mask share their value too
    assert first.slots[1].value == "customers.name"
    assert first.slots[1].value is first.slots[2].value


# The bytes that the results of one `correct_batch` round keep per seed, over
# 200 generated store seeds with rule backends, measured with tracemalloc once
# the process's shared tables are filled: 5430 on CPython 3.11 (5310 to 5540
# on 3.10 to 3.13) before the prompt was built when read and the trajectory
# text, descriptions and slot values were kept once; 3650 after (3600 to 3750).
KEPT_BYTES_PER_SEED = 4300


def test_a_correction_round_keeps_no_more_bytes_per_seed_than_pinned(schemas):
    seeds = generated_seeds(200, 101)
    backends = build_backends({})
    correct_batch(seeds, backends, schemas, jobs=1)  # fills the shared tables
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = correct_batch(seeds, backends, schemas, jobs=1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(results) == len(seeds)
    assert kept / len(seeds) <= KEPT_BYTES_PER_SEED
