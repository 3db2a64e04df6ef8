"""Training-corpus construction: conversion, masking, and perturbation records.

Three corpora are built from a seed set of (database, question, gold SQL,
initial SQL) tuples: conversion pairs filtered by round-trip verification
(`bam`), the two-phase masking pairs (`sam-phase1`/`sam-phase2`), and
correction pairs from real initial errors plus perturbation augmentation with
identity negatives (`lom`). Files are line-delimited JSON with a version
header and a trailing stats line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .actions import Trajectory, frozen, record
from .bridge import PASS, decompose, round_trip
from .errors import (BRIDGE_ERRORS, FormatError, GoldExecutionFailedError, MissingSchemaError,
                     SqlStepsError)
from .masking import mask_schema
from .perturb import PerturbationConfig, augment, inject_negatives
from .schema import DatabaseInput, SchemaList, extract_schema, render_database_input
from .sqlast import SqlQuery, canonicalize
from .trajectory import parse_trajectory, render_trajectory

log = logging.getLogger(__name__)

TARGET_BAM = "bam"
TARGET_SAM1 = "sam-phase1"
TARGET_SAM2 = "sam-phase2"
TARGET_LOM = "lom"
TARGETS = (TARGET_BAM, TARGET_SAM1, TARGET_SAM2, TARGET_LOM)


@frozen
class SeedExample:
    id: str
    db: str
    question: str
    gold_sql: str
    initial_sql: str
    evidence: str | None = None
    difficulty: str | None = None

    @staticmethod
    def from_dict(data: dict) -> "SeedExample":
        if not isinstance(data, dict):
            raise FormatError("seed record is not a JSON object")
        try:
            return SeedExample(
                id=str(data["id"]),
                db=str(data["db"]),
                question=str(data["question"]),
                gold_sql=str(data["gold_sql"]),
                initial_sql=str(data["initial_sql"]),
                evidence=data.get("evidence"),
                difficulty=data.get("difficulty"),
            )
        except KeyError as exc:
            raise FormatError(f"seed record is missing field {exc}")

    def to_dict(self) -> dict:
        out = {"id": self.id, "db": self.db, "question": self.question,
               "gold_sql": self.gold_sql, "initial_sql": self.initial_sql}
        if self.evidence is not None:
            out["evidence"] = self.evidence
        if self.difficulty is not None:
            out["difficulty"] = self.difficulty
        return out


def _text_lines(file: Iterable[bytes]) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary file. A line ends at `\n`
    only, so U+2028, U+2029 and U+0085, which the writers leave raw, stay
    inside their record; bytes that are no UTF-8 are a FormatError naming
    the line."""
    for lineno, raw in enumerate(file, 1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(str(exc), lineno) from None  # position is within the line


def _shared_loads() -> Callable[[str], object]:
    """`json.loads` whose results share one string object per distinct key
    or string value, at any depth, across every call of the returned function.
    The table lives as long as that function, so one read holds each repeated
    string once and no cache outlives the read."""
    table: dict[str, str] = {}
    share = table.setdefault

    def value(item):
        if type(item) is str:
            return share(item, item)
        if type(item) is list:
            return [value(v) for v in item]
        return item  # a number, a bool, None or an object already shared

    decode = json.JSONDecoder(
        object_pairs_hook=lambda pairs: {share(k, k): value(v) for k, v in pairs}).decode
    return lambda line: value(decode(line))


def json_records(file: Iterable[bytes]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each line of a binary JSON-lines file that is
    neither blank nor a `#` comment, read one line at a time; a line that is
    no JSON object is a FormatError naming it. The objects share their
    repeated strings."""
    loads = _shared_loads()
    for lineno, line in _text_lines(file):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            record = loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc.msg}", lineno) from None
        if not isinstance(record, dict):
            raise FormatError("record is not a JSON object", lineno)
        yield lineno, record


def text_field(record: dict, key: str, lineno: int) -> str:
    """`record[key]`, which must be a string; else a FormatError naming the line."""
    value = record.get(key)
    if not isinstance(value, str):
        raise FormatError(f"record has no string field {key!r}", lineno)
    return value


def read_seed_file(path: str | Path) -> list[SeedExample]:
    seeds = []
    with open(path, "rb") as file:
        for lineno, record in json_records(file):
            try:
                seeds.append(SeedExample.from_dict(record))
            except FormatError as exc:
                raise FormatError(str(exc), lineno) from None
    return seeds


@frozen
class CorpusRecord:
    target: str
    input: dict[str, str]
    output: str
    provenance: dict
    # the verified trajectory a bam record's `output` was rendered from and its
    # seed's parsed gold and initial SQL, so that sam and lom need not parse
    # them again; not written, and None once read back
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)
    gold: SqlQuery | None = field(default=None, compare=False, repr=False)
    initial: SqlQuery | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {"target": self.target, "input": self.input, "output": self.output,
                "provenance": self.provenance}

    @staticmethod
    def from_dict(data: dict) -> "CorpusRecord":
        try:
            return CorpusRecord(target=data["target"], input=dict(data["input"]),
                                output=data["output"], provenance=dict(data["provenance"]))
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad corpus record: {exc}")

    def input_text(self) -> str:
        return " ".join(str(self.input[k]) for k in sorted(self.input))


@frozen
class CorpusStats:
    counts: dict[str, int]
    mean_input_tokens: float
    mean_output_tokens: float
    round_trip_pass_rate: float | None

    def to_dict(self) -> dict:
        return {"counts": dict(sorted(self.counts.items())),
                "mean_input_tokens": self.mean_input_tokens,
                "mean_output_tokens": self.mean_output_tokens,
                "round_trip_pass_rate": self.round_trip_pass_rate}


@record()
class BuildResult:
    records: list[CorpusRecord]
    stats: CorpusStats
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # (seed id, verdict, reason)


def compute_stats(records: list[CorpusRecord]) -> CorpusStats:
    """Whitespace-token means and verdict rates, recomputable from a file.

    A record's input tokens are those of `input_text`, counted one value at
    a time: the values are joined by a space, so no token spans two. Each
    distinct text is split once per call."""
    counts: dict[str, int] = {}
    tokens: dict[str, int] = {}

    def count(text: str) -> int:
        n = tokens.get(text)
        if n is None:
            n = tokens[text] = len(text.split())
        return n

    in_tokens = out_tokens = 0
    rt_total = rt_pass = 0
    for record in records:
        counts[record.target] = counts.get(record.target, 0) + 1
        in_tokens += sum(count(str(value)) for value in record.input.values())
        out_tokens += count(record.output)
        verdict = record.provenance.get("round_trip")
        if verdict is not None:
            rt_total += 1
            rt_pass += verdict == PASS
    n = len(records)
    return CorpusStats(
        counts=counts,
        mean_input_tokens=round(in_tokens / n, 4) if n else 0.0,
        mean_output_tokens=round(out_tokens / n, 4) if n else 0.0,
        round_trip_pass_rate=round(rt_pass / rt_total, 4) if rt_total else None,
    )


def _require_schema(seed: SeedExample, schemas: dict[str, DatabaseInput]) -> DatabaseInput:
    if seed.db not in schemas:
        raise MissingSchemaError(f"seed {seed.id!r} references unknown database {seed.db!r}")
    return schemas[seed.db]


# --- conversion corpus -------------------------------------------------------

def build_bam_corpus(seeds: list[SeedExample], schemas: dict[str, DatabaseInput],
                     input_source: str = "gold") -> BuildResult:
    """One (SQL -> trajectory) record per seed whose gold SQL round-trips."""
    if input_source not in ("gold", "initial"):
        raise ValueError("input_source must be 'gold' or 'initial'")
    records: list[CorpusRecord] = []
    failures: list[tuple[str, str, str]] = []
    for seed in sorted(seeds, key=lambda s: s.id):
        d = _require_schema(seed, schemas)
        gold = SqlQuery.raw(seed.gold_sql)
        if gold.ast is None:
            failures.append((seed.id, "unsupported", gold.parse_error or "gold does not parse"))
            log.warning("seed %s: gold SQL does not parse", seed.id)
            continue
        report = round_trip(gold, d)
        if report.verdict != PASS:
            failures.append((seed.id, report.verdict, report.reason or report.diff))
            log.warning("seed %s: round trip %s", seed.id, report.verdict)
            continue
        assert report.trajectory is not None
        input_sql = seed.gold_sql if input_source == "gold" else seed.initial_sql
        records.append(CorpusRecord(
            target=TARGET_BAM,
            input={"sql": input_sql},
            output=render_trajectory(report.trajectory),
            provenance={"seed_id": seed.id, "round_trip": report.verdict},
            trajectory=report.trajectory,
            gold=gold,
            initial=SqlQuery.raw(seed.initial_sql),
        ))
    return BuildResult(records, compute_stats(records), failures)


# --- masking corpus ------------------------------------------------------------

def build_sam_corpus(bam_records: list[CorpusRecord], seeds: list[SeedExample],
                     schemas: dict[str, DatabaseInput]) -> BuildResult:
    """Phase-1 (trajectory -> masked) and phase-2 (context -> filled) records."""
    by_id = {seed.id: seed for seed in seeds}
    records: list[CorpusRecord] = []
    failures: list[tuple[str, str, str]] = []
    for bam in bam_records:
        seed = by_id.get(bam.provenance.get("seed_id"))
        if seed is None:
            failures.append((str(bam.provenance.get("seed_id")), "missing-seed", ""))
            continue
        d = _require_schema(seed, schemas)
        trajectory = _bam_trajectory(bam, seed.id, failures)
        if trajectory is None:
            continue
        try:
            masked = mask_schema(trajectory)
        except FormatError as exc:
            failures.append((seed.id, "unmaskable", str(exc)))
            log.warning("seed %s: %s", seed.id, exc)
            continue
        schema_list, parse_failed = _initial_schema_list(_parsed(bam.initial, seed.initial_sql))
        records.append(CorpusRecord(
            target=TARGET_SAM1,
            input={"trajectory": bam.output},
            output=masked.template,
            provenance={"seed_id": seed.id},
        ))
        provenance = {"seed_id": seed.id}
        if parse_failed:
            provenance["initial_parse_failed"] = True
        records.append(CorpusRecord(
            target=TARGET_SAM2,
            input={
                "db": render_database_input(d),
                "question": seed.question,
                "schema_list": schema_list.render(),
                "masked": masked.template,
            },
            output=bam.output,
            provenance=provenance,
        ))
    return BuildResult(records, compute_stats(records), failures)


def _bam_trajectory(bam: CorpusRecord, seed_id: str,
                    failures: list[tuple[str, str, str]]) -> Trajectory | None:
    """The verified trajectory of a bam record, parsed from its text only for
    records read back from a file. A text that does not parse fails its seed:
    None, with the failure recorded."""
    if bam.trajectory is not None:
        return bam.trajectory
    try:
        return parse_trajectory(bam.output)
    except SqlStepsError as exc:
        failures.append((seed_id, "unparseable-trajectory", str(exc)))
        log.warning("seed %s: bam output does not parse: %s", seed_id, exc)
        return None


def _parsed(query: SqlQuery | None, text: str) -> SqlQuery:
    """A bam record's parse of `text` if it holds one (None once read back),
    else `text` parsed."""
    return query if query is not None and query.text == text else SqlQuery.raw(text)


def _initial_schema_list(query: SqlQuery) -> tuple[SchemaList, bool]:
    if query.ast is None:
        return SchemaList((), ()), True
    return extract_schema(query), False


# --- correction corpus -----------------------------------------------------------

def build_lom_corpus(bam_records: list[CorpusRecord], seeds: list[SeedExample],
                     cfg: PerturbationConfig, schemas: dict[str, DatabaseInput],
                     dbs: dict | None = None,
                     negative_ratio: float = 4.0) -> BuildResult:
    """Correction pairs from wrong initial SQLs plus perturbation augmentation.

    Positives map an erroneous trajectory to the verified one; identity
    negatives are injected at `negative_ratio` positives per negative.
    A seed whose gold fails to execute on its fixture database is a
    `gold-unexecutable` failure that carries the engine's message.
    """
    by_id = {seed.id: seed for seed in seeds}
    failures: list[tuple[str, str, str]] = []
    # (seed, erroneous, verified, verified text, provenance); the k pairs of one
    # seed share its verified trajectory object
    positives: list[tuple[SeedExample, Trajectory, Trajectory, str | None, dict]] = []
    for bam in bam_records:
        seed = by_id.get(bam.provenance.get("seed_id"))
        if seed is None:
            failures.append((str(bam.provenance.get("seed_id")), "missing-seed", ""))
            continue
        d = _require_schema(seed, schemas)
        verified = _bam_trajectory(bam, seed.id, failures)
        if verified is None:
            continue
        # the bam text of a trajectory built in this process; None for one
        # parsed from a read-back record, which is rendered when assembled
        verified_text = bam.output if verified is bam.trajectory else None
        initial = _parsed(bam.initial, seed.initial_sql)
        gold = _parsed(bam.gold, seed.gold_sql)
        try:
            correct = _initial_is_correct(seed, initial, gold, d, dbs)
        except GoldExecutionFailedError as exc:  # a gold the round trip passes may not run
            failures.append((seed.id, "gold-unexecutable", str(exc)))
            continue
        if correct:
            report = augment([verified], cfg, d)
            for index, reason in report.skipped:
                failures.append((seed.id, "no-viable-perturbation", reason))
            for pair in report.pairs:
                positives.append((seed, pair.erroneous, verified, verified_text,
                                  {"seed_id": seed.id, "source": "perturbation",
                                   "perturbation": pair.record.to_dict()}))
        else:
            if initial.ast is None:
                failures.append((seed.id, "initial-unparseable", initial.parse_error or ""))
                continue
            try:
                erroneous = decompose(initial, d)
            except BRIDGE_ERRORS as exc:
                failures.append((seed.id, "initial-unconvertible", str(exc)))
                continue
            positives.append((seed, erroneous, verified, verified_text,
                              {"seed_id": seed.id, "source": "initial-error"}))
    records = _assemble_lom_records(positives, cfg, negative_ratio)
    return BuildResult(records, compute_stats(records), failures)


def _assemble_lom_records(
        positives: list[tuple[SeedExample, Trajectory, Trajectory, str | None, dict]],
        cfg: PerturbationConfig, negative_ratio: float) -> list[CorpusRecord]:
    pairs = [(err, ver) for _, err, ver, _, _ in positives]
    combined = inject_negatives(pairs, ratio=negative_ratio, seed=cfg.seed)
    # inject_negatives keeps the trajectory objects it is given. Every positive
    # has an erroneous object of its own, which keys its record; an identity
    # negative repeats a verified object, which names its seed. The k pairs of
    # one seed share that verified object, so it cannot key a positive. Each
    # erroneous object is rendered once; a verified one takes the text its
    # positive carries, and is rendered once when it carries none.
    origin: dict[int, int] = {}
    texts: dict[int, str] = {}
    for index, (_, err, ver, ver_text, _) in enumerate(positives):
        origin[id(err)] = index
        texts[id(err)] = render_trajectory(err)
        if id(ver) not in texts:
            origin[id(ver)] = index
            texts[id(ver)] = render_trajectory(ver) if ver_text is None else ver_text
    records = []
    for err, ver in combined:
        seed, *_, provenance = positives[origin[id(err)]]
        if err is ver:
            provenance = {"seed_id": seed.id, "source": "identity-negative"}
        records.append(CorpusRecord(
            target=TARGET_LOM,
            input={"db": seed.db, "question": seed.question, "trajectory": texts[id(err)]},
            output=texts[id(ver)],
            provenance=provenance,
        ))
    return records


def _initial_is_correct(seed: SeedExample, initial: SqlQuery, gold: SqlQuery,
                        d: DatabaseInput, dbs: dict | None) -> bool:
    """Execution match when a fixture database exists, else canonical equality."""
    if dbs and seed.db in dbs:
        from .evaluate import ex_match  # local import: evaluate depends on bridge

        return ex_match(initial, gold, dbs[seed.db])
    if initial.ast is None or gold.ast is None:
        return False
    try:
        return canonicalize(initial, d) == canonicalize(gold, d)
    except BRIDGE_ERRORS:
        return False


# --- persistence -----------------------------------------------------------------

_HEADER_PREFIX = "#corpus v1 "
_STATS_PREFIX = "#stats "
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def write_corpus(records: list[CorpusRecord], path: str | Path, target: str,
                 stats: CorpusStats | None = None) -> None:
    """The header, one line per record and the stats footer, each written as
    it is rendered."""
    if target not in ("bam", "sam", "lom") and target not in TARGETS:
        raise ValueError(f"unknown corpus target {target!r}")
    stats = stats if stats is not None else compute_stats(records)
    with open(path, "w", encoding="utf-8") as file:
        file.write(_HEADER_PREFIX + target + "\n")
        for r in records:
            file.write(_RECORD_ENCODER.encode(r.to_dict()) + "\n")
        file.write(_STATS_PREFIX + json.dumps(stats.to_dict(), sort_keys=True) + "\n")


def read_corpus(path: str | Path) -> tuple[list[CorpusRecord], CorpusStats, str]:
    """Returns (records, stored stats, target); verifies the header line.
    Reads one line at a time, and the records share their repeated strings."""
    loads = _shared_loads()
    records: list[CorpusRecord] = []
    stats: CorpusStats | None = None
    last_complete = 1
    with open(path, "rb") as file:
        lines = _text_lines(file)
        _, header = next(lines, (1, ""))
        if not header.startswith(_HEADER_PREFIX):
            raise FormatError("missing corpus header line", 1)
        target = header[len(_HEADER_PREFIX):].strip()
        for lineno, line in lines:
            if not line.strip():
                continue
            if line.startswith(_STATS_PREFIX):
                try:
                    data = json.loads(line[len(_STATS_PREFIX):])
                    stats = CorpusStats(counts=dict(data["counts"]),
                                        mean_input_tokens=data["mean_input_tokens"],
                                        mean_output_tokens=data["mean_output_tokens"],
                                        round_trip_pass_rate=data["round_trip_pass_rate"])
                except (KeyError, TypeError, ValueError):  # ValueError: bad JSON included
                    raise FormatError("bad stats footer", lineno) from None
                last_complete = lineno
                continue
            try:
                records.append(CorpusRecord.from_dict(loads(line)))
            except (json.JSONDecodeError, FormatError):
                raise FormatError(
                    f"corrupt record (last complete line is {last_complete})", lineno)
            last_complete = lineno
    if stats is None:
        raise FormatError(f"missing stats footer (last complete line is {last_complete})")
    return records, stats, target
