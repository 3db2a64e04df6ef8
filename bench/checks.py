"""Correctness checks that do not go through the program's own code.

Rows come from a separate `sqlite3` connection loaded from the same scripts
the program loads. Each check returns the ids of the items that failed it.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from dataclasses import dataclass

from inputs import has_order_by


class OwnDb:
    """An in-memory SQLite database of the benchmark's own. Nothing writes to
    it, so the rows of one SQL text are computed once: later rounds re-check
    the program's outputs without re-running the same statements."""

    def __init__(self, script: str):
        self._conn = sqlite3.connect(":memory:")
        self._conn.executescript(script)
        self._memo: dict[str, list[tuple] | None] = {}

    def rows(self, sql: str) -> list[tuple] | None:
        """Result rows with floats rounded to 1e-6, or None if the query fails."""
        if sql not in self._memo:
            try:
                fetched = self._conn.execute(sql).fetchall()
                self._memo[sql] = [tuple(round(v, 6) if isinstance(v, float) else v for v in row)
                                   for row in fetched]
            except sqlite3.Error:
                self._memo[sql] = None
        return self._memo[sql]

    def close(self) -> None:
        self._conn.close()


def same_rows(a: list[tuple] | None, b: list[tuple] | None, ordered: bool) -> bool:
    if a is None or b is None:
        return False
    return a == b if ordered else Counter(a) == Counter(b)


# --- roundtrip ---------------------------------------------------------------------

def check_roundtrip(queries: list[str], original_rows: list, reports: list,
                    db: OwnDb) -> list[int]:
    """An item fails unless its verdict is `pass` and the reverted SQL returns
    the original's rows (in order when the original sorts)."""
    failed = []
    for i, (query, rows, report) in enumerate(zip(queries, original_rows, reports)):
        if report.verdict != "pass" or report.reverted is None:
            failed.append(i)
        elif not same_rows(rows, db.rows(report.reverted.text), has_order_by(query)):
            failed.append(i)
    return failed


# --- correct -----------------------------------------------------------------------

@dataclass(frozen=True)
class SeedTruth:
    """The benchmark's own execution facts about one seed."""
    gold_rows: list | None
    initial_rows: list | None
    gold_ordered: bool
    initial_ordered: bool

    @property
    def initial_correct(self) -> bool:
        return same_rows(self.initial_rows, self.gold_rows, self.gold_ordered)


def seed_truth(seed: dict, db: OwnDb) -> SeedTruth:
    return SeedTruth(db.rows(seed["gold_sql"]), db.rows(seed["initial_sql"]),
                     has_order_by(seed["gold_sql"]), has_order_by(seed["initial_sql"]))


def corrected_sql(result) -> str:
    """What evaluation scores with no generator: the reverted suggestion when
    there is one, else the untouched initial SQL."""
    if result.feedback is not None and result.feedback.reverted_sql:
        return result.feedback.reverted_sql
    return result.initial_sql


def check_correct(seeds: list[dict], truths: dict[str, SeedTruth], results: list,
                  report, own_dbs: dict[str, OwnDb]) -> list[str]:
    """With rule backends the lom stage passes its input through, so the
    corrected SQL must return the initial SQL's rows, and every verdict must
    equal the benchmark's own."""
    by_result = {r.seed_id: r for r in results}
    by_verdict = {v.seed_id: v for v in report.per_instance}
    failed = []
    for seed in seeds:
        sid = seed["id"]
        result, verdict, truth = by_result.get(sid), by_verdict.get(sid), truths[sid]
        if result is None or verdict is None or result.error is not None:
            failed.append(sid)
            continue
        rows = own_dbs[seed["db"]].rows(corrected_sql(result))
        ok = (verdict.baseline_correct == truth.initial_correct
              and verdict.ex_match == same_rows(rows, truth.gold_rows, truth.gold_ordered)
              and same_rows(rows, truth.initial_rows, truth.initial_ordered)
              and not verdict.overcorrection)
        if not ok:
            failed.append(sid)
    if len(by_result) != len(seeds) or len(by_verdict) != len(seeds):
        failed.append("<batch size>")
    return failed


# --- corpus ------------------------------------------------------------------------

@dataclass
class CorpusRound:
    """What one corpus round produced: built results and the files read back."""
    bam: object
    sam: object
    lom: object
    read_back: dict  # target -> (records, stored stats, header target)


def expected_lom_positives(seeds: list[dict], truths: dict[str, SeedTruth], k: int,
                           skipped: Counter) -> dict[str, int]:
    """k - skipped pairs for a seed whose initial SQL is correct, else one
    initial-error pair (every initial SQL in the inputs decomposes)."""
    return {s["id"]: (k - skipped[s["id"]]) if truths[s["id"]].initial_correct else 1
            for s in seeds}


def check_corpus(seeds: list[dict], truths: dict[str, SeedTruth], k: int,
                 out: CorpusRound, mask_fill, compute_stats) -> list[str]:
    """Closed-form record counts plus per-seed provenance.

    Two program calls remain, each checking a stated property:
    `mask_fill(seed_id, text)` re-renders a bam trajectory after
    `fill_mask(mask_schema(t))`, and a file's stored stats must equal
    `compute_stats` of the records read back.
    """
    failed: set[str] = set()
    ids = [s["id"] for s in seeds]
    verified = {r.provenance.get("seed_id"): r.output for r in out.bam.records}
    for sid in ids:  # every gold is in the convertible subset, so every seed is in bam
        if sid not in verified or mask_fill(sid, verified[sid]) != verified[sid]:
            failed.add(sid)

    sam_counts = Counter(r.provenance.get("seed_id") for r in out.sam.records)
    sam2 = {r.provenance.get("seed_id"): r.output for r in out.sam.records
            if r.target == "sam-phase2"}
    for sid in verified:
        if sam_counts[sid] != 2 or sam2.get(sid) != verified[sid]:
            failed.add(sid)

    skipped = Counter(sid for sid, reason, _ in out.lom.failures
                      if reason == "no-viable-perturbation")
    expected = expected_lom_positives(seeds, truths, k, skipped)
    credited: Counter = Counter()
    negatives = 0
    for record in out.lom.records:
        sid = record.provenance.get("seed_id")
        source = record.provenance.get("source")
        if sid not in verified or record.output != verified[sid]:
            failed.add(str(sid))
            continue
        if source == "identity-negative":
            negatives += 1
            if record.input.get("trajectory") != record.output:
                failed.add(sid)
            continue
        credited[sid] += 1
        wanted = "perturbation" if truths[sid].initial_correct else "initial-error"
        if source != wanted or record.input.get("trajectory") == record.output:
            failed.add(sid)
    failed.update(sid for sid in ids if credited[sid] != expected[sid])
    positives = sum(expected.values())
    if negatives != positives // 4 or len(out.lom.records) != positives + positives // 4:
        failed.add("<lom totals>")

    for target, built in (("bam", out.bam), ("sam", out.sam), ("lom", out.lom)):
        records, stats, header = out.read_back[target]
        if (header != target or records != built.records
                or stats.to_dict() != compute_stats(records).to_dict()):
            failed.add(f"<{target} file>")
    return sorted(failed)
