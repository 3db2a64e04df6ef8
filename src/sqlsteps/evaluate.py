"""Execution-accuracy harness, correction metrics, and error tagging.

Fixture databases are DDL+INSERT scripts executed into in-memory SQLite;
result comparison is multiset equality with NULL == NULL and floats rounded
to 1e-6, switching to ordered comparison when the gold query sorts.
"""

from __future__ import annotations

import logging
import sqlite3
import time
from collections import Counter
from dataclasses import field
from itertools import chain
from pathlib import Path
from typing import Callable

from .actions import (
    Aggregate,
    Arithmetic,
    Expr,
    Select,
    Trajectory,
    action_exprs,
    expr_children,
    frozen,
    record,
)
from .bridge import PASS, decompose, round_trip
from .corpus import SeedExample
from .errors import (
    BRIDGE_ERRORS,
    AlignmentError,
    EngineUnavailableError,
    GoldExecutionFailedError,
    MissingSchemaError,
)
from .pipeline import CorrectionResult
from .schema import DatabaseInput, extract_schema
from .sqlast import SqlQuery
from .trajectory import render_expr, render_trajectory

log = logging.getLogger(__name__)

SCHEMA_ERROR = "schema"
LOGIC_ERROR = "logic"
ATTRIBUTE_OVERANALYSIS = "AttributeOveranalysis"
SCHEMA_CONTRADICTION = "SchemaContradiction"
CLAUSE_ABUSE = "ClauseAbuse"
MATHEMATICAL_DELUSION = "MathematicalDelusion"
OTHER = "Other"


@record()
class ExecutionResult:
    rows: list[tuple] | None
    error: str | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.error is None


# What a query may do once the fixture is loaded: read, call functions and
# recurse. Writes, schema changes, pragmas and attaching are denied when the
# statement is prepared, so no query changes the fixture for a later one.
_READ_ONLY = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                        sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})


def _read_only(action: int, *_args) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ONLY else sqlite3.SQLITE_DENY


class FixtureDb:
    """An in-memory SQLite database loaded from a DDL+INSERT script, read-only
    once loaded."""

    def __init__(self, name: str, script: str, dialect: str = "sqlite"):
        if dialect != "sqlite":
            raise EngineUnavailableError(
                f"no embedded engine for dialect {dialect!r}; only sqlite fixtures run locally")
        self.name = name
        self.dialect = dialect
        self._conn = sqlite3.connect(":memory:")
        self._conn.executescript(script)
        self._conn.set_authorizer(_read_only)

    def execute(self, sql: str) -> ExecutionResult:
        start = time.perf_counter()
        try:
            rows = self._conn.execute(sql).fetchall()  # tuples: no row factory is set
            return ExecutionResult(rows=rows, error=None,
                                   elapsed=time.perf_counter() - start)
        except sqlite3.Error as exc:
            return ExecutionResult(rows=None, error=str(exc),
                                   elapsed=time.perf_counter() - start)

    def close(self) -> None:
        self._conn.close()


def load_fixture_dbs(path: str | Path, dialect: str = "sqlite") -> dict[str, FixtureDb]:
    """Load every `<name>.<dialect>.sql` script in a directory."""
    out: dict[str, FixtureDb] = {}
    for file in sorted(Path(path).glob(f"*.{dialect}.sql")):
        name = file.name[: -len(f".{dialect}.sql")]
        out[name] = FixtureDb(name, file.read_text(encoding="utf-8"), dialect)
    return out


def execute_sql(s: SqlQuery, db: FixtureDb) -> ExecutionResult:
    """Run raw query text against the fixture engine (no subset restriction)."""
    return db.execute(s.text)


def _normalize_rows(rows: list[tuple]) -> list[tuple]:
    """Rows with every float rounded to 1e-6; rows that hold no float as
    they are."""
    if float not in set(map(type, chain.from_iterable(rows))):
        return rows
    return [tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows]


def ex_match(pred: SqlQuery, gold: SqlQuery, db: FixtureDb) -> bool:
    """Execution accuracy for one pair: result multisets match (ordered when
    the gold query has ORDER BY); prediction errors count as mismatches. A
    prediction with the gold's own text is not run again."""
    gold_result = execute_sql(gold, db)
    matches = _gold_matcher(gold_result, gold.has_order_by)
    return matches(gold_result if pred.text == gold.text else execute_sql(pred, db))


def _gold_matcher(gold: ExecutionResult, ordered: bool) -> Callable[[ExecutionResult], bool]:
    """Whether a prediction's result matches the gold's; raises when the gold
    failed. Raw rows are compared first: equal lists match, since equal values
    stay equal once rounded, and lists of unequal length cannot. Only two
    lists of equal length that differ are rounded and compared again, and the
    gold's rows are rounded once, when that first happens."""
    if not gold.ok:
        raise GoldExecutionFailedError(gold.error or "gold query failed")
    gold_rows = gold.rows
    assert gold_rows is not None
    gold_rounded: list[tuple] | None = None

    def matches(pred: ExecutionResult) -> bool:
        nonlocal gold_rounded
        if not pred.ok:
            return False
        rows = pred.rows
        assert rows is not None
        if rows == gold_rows:
            return True
        if len(rows) != len(gold_rows):
            return False
        if gold_rounded is None:
            gold_rounded = _normalize_rows(gold_rows)
        rows = _normalize_rows(rows)
        if ordered:
            return gold_rounded == rows
        return Counter(gold_rounded) == Counter(rows)

    return matches


# --- error tagging ---------------------------------------------------------------

@frozen
class ErrorTag:
    coarse: str  # SCHEMA_ERROR | LOGIC_ERROR
    subtype: str


def tag_error(pred: Trajectory, gold: Trajectory, d: DatabaseInput) -> ErrorTag:
    """Rule-based category for a wrong (pred, gold) trajectory pair."""
    pred_schema = {c.render() for c in pred.columns()}
    gold_schema = {c.render() for c in gold.columns()}
    pred_select = _select_elements(pred)
    gold_select = _select_elements(gold)
    if len(pred_select) > len(gold_select) and pred_schema >= gold_schema:
        return ErrorTag(SCHEMA_ERROR, ATTRIBUTE_OVERANALYSIS)
    if pred_schema != gold_schema:
        return ErrorTag(SCHEMA_ERROR, SCHEMA_CONTRADICTION)
    if _action_counts(pred) != _action_counts(gold):
        return ErrorTag(LOGIC_ERROR, CLAUSE_ABUSE)
    if _math_signature(pred) != _math_signature(gold):
        return ErrorTag(LOGIC_ERROR, MATHEMATICAL_DELUSION)
    return ErrorTag(LOGIC_ERROR, OTHER)


def tag_prediction(pred: SqlQuery | Trajectory, gold: SqlQuery,
                   d: DatabaseInput) -> tuple[ErrorTag, bool]:
    """`tag_error` of a prediction against the gold, and whether the two
    trajectories render the same (the tag is then Other). A query is
    decomposed under `d`, the prediction first; its error propagates."""
    pred_trajectory = pred if isinstance(pred, Trajectory) else decompose(pred, d)
    gold_trajectory = decompose(gold, d)
    tag = tag_error(pred_trajectory, gold_trajectory, d)
    same = tag.subtype == OTHER and (render_trajectory(pred_trajectory)
                                     == render_trajectory(gold_trajectory))
    return tag, same


def _select_elements(t: Trajectory) -> tuple[Expr, ...]:
    for step in reversed(t.steps):
        for action in step.chain:
            if isinstance(action, Select):
                return action.elements
    return ()


def _action_counts(t: Trajectory) -> Counter:
    counts: Counter = Counter()
    for step in t.steps:
        for action in step.chain:
            counts[action.name] += 1
    return counts


def _math_signature(t: Trajectory) -> Counter:
    """Multiset of arithmetic sub-expressions and aggregate kinds."""
    sig: Counter = Counter()

    def visit(expr: Expr) -> None:
        if isinstance(expr, Arithmetic):
            sig[render_expr(expr)] += 1
        elif isinstance(expr, Aggregate):
            sig[f"agg:{expr.kind}"] += 1
        for child in expr_children(expr):
            visit(child)

    for step in t.steps:
        for action in step.chain:
            for expr in action_exprs(action):
                visit(expr)
    return sig


# --- correction evaluation ----------------------------------------------------------

@record()
class InstanceVerdict:
    seed_id: str
    baseline_correct: bool
    ex_match: bool
    overcorrection: bool
    round_trip_pass: bool | None
    tag: ErrorTag | None
    difficulty: str | None = None


@record()
class EvalReport:
    per_instance: list[InstanceVerdict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    # (seed id, verdict, reason) of each seed left unscored: its gold did not
    # run ("gold-unexecutable", with the engine's message)
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    def recompute(self) -> dict:
        rows = self.per_instance
        n = len(rows)
        if n == 0:
            return {"n": 0, "ex_pct": 0.0, "baseline_ex_pct": 0.0,
                    "overcorrection_pct": 0.0, "round_trip_pass_pct": 0.0}
        rt = [r.round_trip_pass for r in rows if r.round_trip_pass is not None]
        agg = {
            "n": n,
            "ex_pct": round(100.0 * sum(r.ex_match for r in rows) / n, 4),
            "baseline_ex_pct": round(100.0 * sum(r.baseline_correct for r in rows) / n, 4),
            "overcorrection_pct": round(100.0 * sum(r.overcorrection for r in rows) / n, 4),
            "round_trip_pass_pct": round(100.0 * sum(rt) / len(rt), 4) if rt else 0.0,
        }
        difficulties = sorted({r.difficulty for r in rows if r.difficulty})
        for tier in difficulties:
            sub = [r for r in rows if r.difficulty == tier]
            agg[f"ex_pct[{tier}]"] = round(100.0 * sum(r.ex_match for r in sub) / len(sub), 4)
        return agg


def evaluate_correction(results: list[CorrectionResult], seeds: list[SeedExample],
                        dbs: dict[str, FixtureDb], schemas: dict[str, DatabaseInput],
                        ) -> EvalReport:
    """Execution accuracy of corrected SQL, overcorrection rate, round-trip
    rate, schema precision/recall, and error tags, aligned by seed id. A seed
    whose gold fails to execute is left out of the verdicts and aggregates
    and listed in `failures`."""
    by_id = {seed.id: seed for seed in seeds}
    if sorted(by_id) != sorted(r.seed_id for r in results):
        raise AlignmentError("correction results and seeds carry different ids")
    report = EvalReport()
    schema_precision: list[float] = []
    schema_recall: list[float] = []
    for result in sorted(results, key=lambda r: r.seed_id):
        seed = by_id[result.seed_id]
        if seed.db not in dbs:
            raise MissingSchemaError(f"no fixture database {seed.db!r}")
        db = dbs[seed.db]
        d = schemas.get(seed.db)
        gold = SqlQuery.raw(seed.gold_sql)
        initial = _initial_query(result, seed)
        corrected = _corrected_query(result, initial)
        # each distinct text runs once; the results live for this seed only
        runs = {gold.text: execute_sql(gold, db)}
        try:
            matches = _gold_matcher(runs[gold.text], gold.has_order_by)
        except GoldExecutionFailedError as exc:
            report.failures.append((result.seed_id, "gold-unexecutable", str(exc)))
            continue
        for query in (initial, corrected):
            if query.text not in runs:
                runs[query.text] = execute_sql(query, db)
        baseline = matches(runs[initial.text])
        correct = matches(runs[corrected.text])
        verdict = InstanceVerdict(
            seed_id=result.seed_id,
            baseline_correct=baseline,
            ex_match=correct,
            overcorrection=baseline and not correct,
            round_trip_pass=_round_trip_pass(result, initial, d),
            tag=None,
            difficulty=seed.difficulty,
        )
        if not correct and d is not None:
            verdict.tag = _tag_from_trajectories(result, corrected, gold, d)
        report.per_instance.append(verdict)
        _schema_scores(corrected, gold, schema_precision, schema_recall)
    report.aggregates = report.recompute()
    if schema_precision:
        report.aggregates["schema_precision_pct"] = round(
            100.0 * sum(schema_precision) / len(schema_precision), 4)
        report.aggregates["schema_recall_pct"] = round(
            100.0 * sum(schema_recall) / len(schema_recall), 4)
    return report


def _corrected_sql(result: CorrectionResult) -> str:
    """Regenerated SQL when a generator ran, else the reverted suggestion,
    else the untouched initial SQL (feedback-only mode applies no change)."""
    if result.regenerated_sql:
        return result.regenerated_sql
    if result.feedback is not None and result.feedback.reverted_sql:
        return result.feedback.reverted_sql
    return result.initial_sql


def _initial_query(result: CorrectionResult, seed: SeedExample) -> SqlQuery:
    """The seed's initial SQL as the pipeline parsed it, else parsed here."""
    query = result.trace.query if result.trace is not None else None
    if query is not None and query.text == seed.initial_sql:
        return query
    return SqlQuery.raw(seed.initial_sql)


def _corrected_query(result: CorrectionResult, initial: SqlQuery) -> SqlQuery:
    """`_corrected_sql` as a query, reusing the reverted or initial query
    when the corrected text is theirs."""
    text = _corrected_sql(result)
    feedback = result.feedback
    if (feedback is not None and feedback.reverted_query is not None
            and text == feedback.reverted_sql):
        return feedback.reverted_query
    return initial if text == initial.text else SqlQuery.raw(text)


def _round_trip_pass(result: CorrectionResult, initial: SqlQuery,
                     d: DatabaseInput | None) -> bool | None:
    """The pipeline's own verdict when its trace holds one for this very query
    and database input, else a fresh `round_trip`."""
    trace = result.trace
    if (trace is not None and trace.round_trip_pass is not None
            and trace.query is initial and trace.db is d):
        return trace.round_trip_pass
    if d is None or initial.ast is None:
        return None
    try:
        return round_trip(initial, d).verdict == PASS
    except BRIDGE_ERRORS:
        return False


def _tag_from_trajectories(result: CorrectionResult, corrected: SqlQuery, gold: SqlQuery,
                           d: DatabaseInput) -> ErrorTag | None:
    """Tag the pipeline's final trajectory against the gold's; a result without
    a trace (the `eval` verb) has its corrected SQL decomposed here."""
    pred = result.trace.final_trajectory() if result.trace is not None else corrected
    if gold.ast is None or pred is None:
        return None
    try:
        return tag_prediction(pred, gold, d)[0]
    except BRIDGE_ERRORS:
        return None


def _schema_scores(pred: SqlQuery, gold: SqlQuery, precision: list[float],
                   recall: list[float]) -> None:
    if pred.ast is None or gold.ast is None:
        return
    pred_cols = {f"{t}.{c}" for t, c in extract_schema(pred).columns}
    gold_cols = {f"{t}.{c}" for t, c in extract_schema(gold).columns}
    if not pred_cols and not gold_cols:
        return
    overlap = len(pred_cols & gold_cols)
    precision.append(overlap / len(pred_cols) if pred_cols else 0.0)
    recall.append(overlap / len(gold_cols) if gold_cols else 0.0)
