"""Pinned outputs of the corpus builders, the correction pipeline and its scoring.

`tests/fixtures/golden/output_pin.jsonl` holds one record per (seed, pin).
The inputs are generated store seeds (`querygen.random_queries` at seeds 1, 7
and 101) run on the fixture store database: the initial SQL of every other
seed is the gold with its keywords lower-cased, and of the rest another
generated query. The pins are

- `bam`, `sam`, `lom`: the bytes of each corpus file, one entry per line;
- `results`: each `CorrectionResult` of a rule-backend `correct_batch`, by
  its repr with every stage's `elapsed` set to zero;
- `eval-pipeline`: the verdicts and aggregates of `evaluate_correction` over
  those results;
- `eval-verb`: the same for trace-less results whose corrected SQL is the
  initial SQL, as the `eval` verb builds them.

Each record holds the pin's entry count, a digest of all its entries, and a
short digest per entry, so a mismatch names the first entry that differs.

Regenerate the pin (only for an intended change of output) with
`PYTHONPATH=src python tests/test_output_pin.py --write`.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from sqlsteps import corpus, evaluate, pipeline
from sqlsteps.corpus import SeedExample
from sqlsteps.perturb import PerturbationConfig
from sqlsteps.querygen import random_queries
from sqlsteps.schema import load_schema_dir

from conftest import FIXTURES

PIN = FIXTURES / "golden" / "output_pin.jsonl"
SEEDS = (1, 7, 101)
N = 100

_KEYWORDS = re.compile(
    r"\b(SELECT|DISTINCT|FROM|JOIN|ON|WHERE|AND|OR|BETWEEN|IN|LIKE|IS|NOT|NULL|GROUP|BY|"
    r"HAVING|ORDER|ASC|DESC|LIMIT|OFFSET|UNION|INTERSECT|EXCEPT|COUNT|SUM|AVG|MIN|MAX)\b")
_LITERAL = re.compile(r"('[^']*')")


def lower_keywords(sql: str) -> str:
    """`sql` with its keywords lower-cased outside string literals."""
    parts = _LITERAL.split(sql)
    return "".join(part if i % 2 else _KEYWORDS.sub(lambda m: m.group(0).lower(), part)
                   for i, part in enumerate(parts))


def pin_seeds(seed: int, n: int = N) -> list[SeedExample]:
    queries = random_queries(2 * n, seed)
    return [SeedExample(f"s{seed}-{i:03d}", "store", f"question {i}", gold,
                        lower_keywords(gold) if i % 2 == 0 else queries[n + i])
            for i, gold in enumerate(queries[:n])]


def _without_timings(result: pipeline.CorrectionResult) -> pipeline.CorrectionResult:
    trace = result.trace
    if trace is None:
        return result
    stages = [replace(stage, elapsed=0.0) for stage in trace.stages]
    return replace(result, trace=replace(trace, stages=stages))


def _report_entries(report: evaluate.EvalReport) -> list[str]:
    return ([repr(v) for v in report.per_instance]
            + [json.dumps(report.aggregates, sort_keys=True)])


def pin_outputs(seed: int, schemas, dbs, out_dir: Path) -> dict[str, list[str]]:
    """The entries of each pin at one seed."""
    seeds = pin_seeds(seed)
    cfg = PerturbationConfig(k=2, seed=seed)
    bam = corpus.build_bam_corpus(seeds, schemas)
    sam = corpus.build_sam_corpus(bam.records, seeds, schemas)
    lom = corpus.build_lom_corpus(bam.records, seeds, cfg, schemas, dbs=dbs)
    out: dict[str, list[str]] = {}
    for target, built in (("bam", bam), ("sam", sam), ("lom", lom)):
        path = out_dir / f"{target}.corpus"
        corpus.write_corpus(built.records, path, target, built.stats)
        out[target] = path.read_text(encoding="utf-8").split("\n")[:-1]
    results = pipeline.correct_batch(seeds, pipeline.build_backends({}), schemas, jobs=1)
    out["results"] = [repr(_without_timings(r)) for r in results]
    out["eval-pipeline"] = _report_entries(
        evaluate.evaluate_correction(results, seeds, dbs, schemas))
    verb = [pipeline.CorrectionResult(s.id, s.initial_sql, None, s.initial_sql, False, None)
            for s in seeds]
    out["eval-verb"] = _report_entries(evaluate.evaluate_correction(verb, seeds, dbs, schemas))
    return out


def _digest(text: str, size: int = 64) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:size]


def pin_record(seed: int, pin: str, entries: list[str]) -> dict:
    return {"seed": seed, "pin": pin, "count": len(entries),
            "digest": _digest("\n".join(entries)),
            "entries": [_digest(e, 12) for e in entries]}


def all_records(schemas, dbs) -> list[dict]:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for pin, entries in pin_outputs(seed, schemas, dbs, Path(tmp)).items():
                records.append(pin_record(seed, pin, entries))
    return records


def _first_difference(pinned: dict, now: dict, entries: list[str]) -> str:
    where = f"seed {pinned['seed']} pin {pinned['pin']}"
    for index, (old, new) in enumerate(zip(pinned["entries"], now["entries"])):
        if old != new:
            return f"{where}: entry {index} differs, now {entries[index][:300]!r}"
    return f"{where}: {pinned['count']} entries pinned, {now['count']} now"


def test_outputs_match_the_pin(schemas, dbs, tmp_path):
    pinned = [json.loads(line) for line in PIN.read_text(encoding="utf-8").splitlines()]
    assert [(r["seed"], r["pin"]) for r in pinned] == [
        (seed, pin) for seed in SEEDS
        for pin in ("bam", "sam", "lom", "results", "eval-pipeline", "eval-verb")]
    outputs = {seed: pin_outputs(seed, schemas, dbs, tmp_path) for seed in SEEDS}
    differences = []
    for record in pinned:
        entries = outputs[record["seed"]][record["pin"]]
        now = pin_record(record["seed"], record["pin"], entries)
        if now != record:
            differences.append(_first_difference(record, now, entries))
    assert not differences, "\n".join(differences)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_pin.py --write")
    with PIN.open("w", encoding="utf-8") as file:
        for record in all_records(load_schema_dir(FIXTURES / "schemas"),
                                  evaluate.load_fixture_dbs(FIXTURES / "dbs")):
            file.write(json.dumps(record) + "\n")
