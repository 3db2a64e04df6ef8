"""The correction path computes each fact of a seed once.

Call counts over `correct_batch` and `evaluate_correction`, taken by wrapping
the names as `evaluate`, `pipeline`, `masking` and `bridge` see them: a rule
run hands its round-trip verdict and its canonical forms to evaluation, and
the rule `sam_fill` keeps the trajectory it was given. The fallbacks that
recompute, when a run cannot vouch for its own work, stay live.
"""

from collections import Counter
from dataclasses import replace

import pytest

from sqlsteps import bridge, evaluate, masking, pipeline
from sqlsteps.errors import SqlStepsError
from sqlsteps.masking import MaskedTrajectory, mask_schema
from sqlsteps.sqlast import SqlQuery
from sqlsteps.trajectory import render_trajectory

from conftest import generated_seeds

WRAPPED = [(evaluate, "round_trip"), (pipeline, "canonicalize"), (bridge, "canonicalize"),
           (pipeline, "fill_mask"), (pipeline, "parse_trajectory"),
           (masking, "parse_trajectory")]


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

    evaluate.evaluate_correction(results, seeds, dbs, schemas)
    assert calls["evaluate.round_trip"] == 0
    assert calls["pipeline.canonicalize"] + calls["bridge.canonicalize"] <= 2 * converted


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
