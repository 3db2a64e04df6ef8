"""Sequential correction pipeline over pluggable stage backends.

Four stage slots run in order: `bam` converts the initial SQL to a
trajectory, `sam_mask` masks its schema links, `sam_fill` reinserts
(possibly corrected) links, and `lom` applies logic-level corrections. Each
backend receives a `StagePayload`: the typed values of the run (the
`DatabaseInput`, the parsed `SqlQuery`, the current `Trajectory` and the
`MaskedTrajectory`) that read as text under today's keys, each rendered the
first time it is read. A backend may return text or a typed value; the
pipeline parses only text. Rule backends implement the deterministic
baseline (or, flagged `identity`, the ablation pass-through) on the typed
values, scripted backends replay canned outputs, and remote backends POST
the text payload to an HTTP endpoint. A stage
returning unparseable text degrades the run: the trace keeps the error and
the last valid trajectory feeds the final feedback.
"""

from __future__ import annotations

import functools
import json
import math
import string
import time
from collections.abc import Iterator, Mapping
from dataclasses import field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, ClassVar, Protocol, TypeVar

from .actions import record
from .bridge import canonical_mismatch, decompose, revert, same_tree
from .errors import (
    BRIDGE_ERRORS,
    ArityMismatchError,
    BackendFailedError,
    BackendUnavailableError,
    FormatError,
    KindMismatchError,
    MissingSchemaError,
    SqlStepsError,
    StageOutputInvalidError,
    TemplateNotFoundError,
)
from .corpus import SeedExample
from .masking import (
    MaskedTrajectory,
    _fill_text,
    fill_mask,
    mask_schema,
    parse_masked_template,
    recover_slot_values,
)
from .schema import (
    DatabaseInput,
    SchemaList,
    extract_schema,
    render_database_input,
)
from .sqlast import SqlQuery, canonicalize
from .trajectory import Trajectory, parse_trajectory, render_trajectory, validate_trajectory

STAGES = ("bam", "sam_mask", "sam_fill", "lom")

StageOutput = str | Trajectory | MaskedTrajectory
_T = TypeVar("_T")


# --- stage payloads -----------------------------------------------------------------

def _render(value: object) -> str:
    if isinstance(value, Trajectory):
        return render_trajectory(value)
    if isinstance(value, MaskedTrajectory):
        return value.template
    if isinstance(value, DatabaseInput):
        return render_database_input(value)
    if isinstance(value, SqlQuery):
        return value.text
    if isinstance(value, SchemaList):
        return value.render()
    raise TypeError(f"no text form for {type(value).__name__}")


class _Texts:
    """The rendered text of each typed value of one pipeline run, rendered once.

    Entries hold their value, so an id is never reused while its entry lives.
    """

    def __init__(self) -> None:
        self._memo: dict[int, tuple[object, str]] = {}

    def __call__(self, value: object) -> str:
        if isinstance(value, str):
            return value
        hit = self._memo.get(id(value))
        if hit is None or hit[0] is not value:
            hit = self._memo[id(value)] = (value, _render(value))
        return hit[1]


def _parse_mask(template: str, source: str) -> MaskedTrajectory:
    """A masked template with the slot values that aligning it against the
    unmasked source text recovers; raises FormatError when they do not align."""
    masked = parse_masked_template(template)
    if not masked.slots:
        return masked
    values = recover_slot_values(template, source)
    return MaskedTrajectory(template, tuple(
        replace(slot, value=value) for slot, value in zip(masked.slots, values)))


class StagePayload(Mapping[str, str]):
    """A stage's input: typed values that read as text.

    Reading a key gives its text, rendered from the typed value the first
    time it is read, so text backends see plain strings. `value(key)` gives
    the typed value itself. A value given as a callable is computed the first
    time its key is read.
    """

    def __init__(self, values: Mapping[str, object], texts: _Texts | None = None):
        self._values = dict(values)
        self._texts = texts if texts is not None else _Texts()

    def __getitem__(self, key: str) -> str:
        return self._texts(self.value(key))

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def value(self, key: str) -> object:
        value = self._values[key]
        if callable(value):
            value = self._values[key] = value()
        return value


@functools.lru_cache(maxsize=256)
def _description(kind: str, stage: str, endpoint: str | None = None) -> str:
    """A backend's description, `kind:stage` or `kind:stage@endpoint`: one
    string for each, shared by every stage record that names it."""
    return f"{kind}:{stage}" if endpoint is None else f"{kind}:{stage}@{endpoint}"


class StageBackend(Protocol):
    stage: str
    identity: bool

    def invoke(self, payload: StagePayload) -> StageOutput: ...

    def describe(self) -> str: ...


@record(slots=False)
class RuleBackend:
    """Deterministic baseline: decompose for bam, mask/fill loop for sam,
    pass-through for lom (no learned logic corrections exist offline).
    Works on the payload's typed values and returns typed values.

    With `identity` set the stage is an ablation pass-through: `sam_mask`
    masks nothing, so `sam_fill` hands its trajectory on, and `bam` (which
    must still produce a trajectory) and `lom` act as the rule stage does.
    """

    stage: str
    identity: bool = False

    def describe(self) -> str:
        return _description("identity" if self.identity else "rule", self.stage)

    def invoke(self, payload: StagePayload) -> StageOutput:
        if self.stage == "bam":
            return decompose(payload.value("sql"), payload.value("db"))
        if self.stage == "sam_mask":
            if self.identity:
                return MaskedTrajectory(payload["trajectory"], ())
            return mask_schema(payload.value("trajectory"))
        if self.stage == "sam_fill":
            masked, t, d = payload.value("masked"), payload.value("trajectory"), payload.value("db")
            if not masked.slots:  # nothing to fill: the template is the output
                same = masked.template == payload["trajectory"]
                return t if same else masked.template
            if _fills_back(masked, payload["trajectory"]) and not validate_trajectory(t, d):
                return t  # what `fill_mask` would parse back from the same text
            return fill_mask(masked, masked.slot_values(), d)
        if self.stage == "lom":
            return payload.value("trajectory")
        raise ValueError(f"unknown stage {self.stage!r}")


def _fills_back(masked: MaskedTrajectory, source: str) -> bool:
    """Whether filling the mask with its own slot values, as `fill_mask` fills
    them, gives exactly `source`."""
    try:
        return _fill_text(masked, masked.slot_values())[0] == source
    except (ArityMismatchError, KindMismatchError):  # `fill_mask` reports these
        return False


@record(slots=False)
class ScriptedBackend:
    """Replays canned outputs keyed by instance id (`*` is the wildcard)."""

    stage: str
    outputs: dict[str, str]
    identity: ClassVar[bool] = False

    def describe(self) -> str:
        return _description("scripted", self.stage)

    def invoke(self, payload: Mapping[str, str]) -> str:
        key = payload.get("id", "*")
        if key in self.outputs:
            return self.outputs[key]
        if "*" in self.outputs:
            return self.outputs["*"]
        raise StageOutputInvalidError(self.stage, f"no scripted output for id {key!r}")


@record(slots=False)
class RemoteBackend:
    """HTTP JSON backend: POST {stage, ...payload}, expect {"text": ...}."""

    stage: str
    endpoint: str
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 0.5
    identity: ClassVar[bool] = False

    def describe(self) -> str:
        return _description("remote", self.stage, self.endpoint)

    def invoke(self, payload: Mapping[str, str]) -> str:
        import urllib.error  # local import: only remote runs need the network stack
        import urllib.request

        payload = dict(payload)
        if self.stage == "sam_fill":  # the unmasked trajectory is rule-backend-only context
            payload.pop("trajectory", None)
        body = json.dumps({"stage": self.stage, **payload}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            request = urllib.request.Request(
                self.endpoint, data=body, headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    reply = json.loads(response.read().decode("utf-8"))
                if not isinstance(reply, dict) or "text" not in reply:
                    raise StageOutputInvalidError(self.stage, "response lacks a `text` field")
                return str(reply["text"])
            except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error status still holds its response open
                last_error = exc
        raise BackendUnavailableError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_error}")


def build_backends(config: dict, base_dir: str | Path = ".") -> dict[str, StageBackend]:
    """Construct per-stage backends from a config mapping.

    Each stage entry is {"kind": rule|identity|scripted|remote, ...} with
    "endpoint" for remote and "script_file" (or inline "outputs") for
    scripted. Missing stages default to the rule backend.
    """
    if not isinstance(config, dict):
        raise FormatError(f"backend config must be an object keyed by stage, got {config!r}")
    backends: dict[str, StageBackend] = {}
    for stage in STAGES:
        entry = config.get(stage, {"kind": "rule"})
        if not isinstance(entry, dict):
            raise FormatError(f"backend config for stage {stage} must be an object, got {entry!r}")
        kind = entry.get("kind", "rule")
        if kind == "rule":
            backends[stage] = RuleBackend(stage)
        elif kind == "identity":
            backends[stage] = RuleBackend(stage, identity=True)
        elif kind == "scripted":
            if "script_file" in entry:
                path = Path(base_dir, entry["script_file"])
                try:
                    data = json.loads(path.read_text("utf-8"))
                except (OSError, ValueError) as exc:
                    raise FormatError(f"script file {path} for stage {stage}: {exc}") from exc
                outputs = data.get(stage, data) if isinstance(data, dict) else {}
            else:
                outputs = entry.get("outputs", {})
            try:
                backends[stage] = ScriptedBackend(stage, dict(outputs))
            except (TypeError, ValueError) as exc:
                raise FormatError(f"scripted outputs for stage {stage} must be an object, "
                                  f"got {outputs!r}") from exc
        elif kind == "remote":
            if "endpoint" not in entry:
                raise FormatError(f"remote backend for stage {stage} has no `endpoint`")
            try:
                timeout = float(entry.get("timeout", 30.0))
                retries = int(entry.get("retries", 2))
            except (TypeError, ValueError) as exc:
                raise FormatError(f"remote backend for stage {stage}: {exc}") from exc
            if not 0 < timeout < math.inf:  # NaN fails too
                raise FormatError(f"remote backend for stage {stage}: timeout must be a "
                                  f"finite positive number, got {entry['timeout']!r}")
            if retries < 0:
                raise FormatError(f"remote backend for stage {stage}: retries must be >= 0, "
                                  f"got {entry['retries']!r}")
            backends[stage] = RemoteBackend(stage, entry["endpoint"], timeout=timeout,
                                            retries=retries)
        else:
            raise FormatError(f"unknown backend kind {kind!r} for stage {stage}")
    return backends


# --- prompt templates ---------------------------------------------------------

def load_prompt(template_id: str, template_dir: str | Path | None = None) -> string.Template:
    if template_dir is not None:
        path = Path(template_dir) / f"{template_id}.txt"
        if not path.exists():
            raise TemplateNotFoundError(f"no template {template_id!r} in {template_dir}")
        return string.Template(path.read_text(encoding="utf-8"))
    return string.Template(_packaged_prompt_text(template_id))


@functools.cache
def _packaged_prompt_text(template_id: str) -> str:
    """A packaged template's text, read once per process: package assets do
    not change under a running program, while a `template_dir` file may."""
    ref = resources.files("sqlsteps").joinpath("assets", "prompts", f"{template_id}.txt")
    if not ref.is_file():
        raise TemplateNotFoundError(f"no packaged template {template_id!r}")
    return ref.read_text(encoding="utf-8")


@record()
class Feedback:
    """The correction feedback handed to a generator model. The prompt is
    built from its parts each time it is read (`_Prompt`)."""

    trajectory_text: str
    prompt: str
    reverted_sql: str | None
    # the query `reverted_sql` was rendered from, for callers that would parse it again
    reverted_query: SqlQuery | None = field(default=None, compare=False, repr=False)


class _Prompt:
    """`Feedback.prompt`: its slot holds the prompt text, or the pair (template
    text, database text) from which, with the feedback's trajectory text and
    reverted SQL, the text is built each time it is read. `make_feedback`
    stores the pair, so a feedback that no generator reads holds no prompt
    text. `==`, the repr, `asdict`, `replace`, copy and pickle read the
    field, so they see the text."""

    def __init__(self, slot) -> None:
        self._slot = slot

    def __get__(self, feedback: Feedback | None, owner: type | None = None):
        if feedback is None:
            return self
        value = self._slot.__get__(feedback, owner)
        if isinstance(value, str):
            return value
        template, database = value
        return string.Template(template).safe_substitute(
            database=database, trajectory=feedback.trajectory_text,
            sql=feedback.reverted_sql or "")

    def __set__(self, feedback: Feedback, value: str | tuple[str, str]) -> None:
        self._slot.__set__(feedback, value)


Feedback.prompt = _Prompt(Feedback.prompt)


def make_feedback(t: Trajectory, d: DatabaseInput, template_dir: str | Path | None = None,
                  trajectory_text: str | None = None) -> Feedback:
    """Render the correction feedback handed to a generator model.

    The template, `regenerate_sql`, is read here, so a missing one raises
    TemplateNotFoundError here; the prompt is built when it is read.
    `trajectory_text` is the text of `t` when the caller has rendered it
    already.
    """
    template = load_prompt("regenerate_sql", template_dir).template
    if trajectory_text is None:
        trajectory_text = render_trajectory(t)
    reverted: SqlQuery | None
    try:
        reverted = revert(t, d)
    except BRIDGE_ERRORS:
        reverted = None
    return Feedback(trajectory_text, (template, render_database_input(d)),
                    reverted.text if reverted else None, reverted)


# --- pipeline ---------------------------------------------------------------------

@record()
class StageRecord:
    stage: str
    backend: str
    output: str | None
    elapsed: float
    identity: bool
    error: str | None = None
    error_type: type[SqlStepsError] | None = None  # the class of the error behind `error`


@record()
class PipelineTrace:
    initial_sql: str
    question: str
    trajectory_initial: Trajectory | None = None  # bam output
    masked: MaskedTrajectory | None = None  # sam_mask output
    trajectory_schema: Trajectory | None = None  # sam_fill output
    trajectory_final: Trajectory | None = None  # lom output
    feedback: Feedback | None = None
    stages: list[StageRecord] = field(default_factory=list)
    error: str | None = None
    query: SqlQuery | None = None  # the initial SQL, parsed once per run
    # `round_trip(query, db).verdict == PASS`, when the run computed every part
    # of it (see `_round_trip_verdict`); None when it cannot vouch for it
    round_trip_pass: bool | None = None
    db: DatabaseInput | None = field(default=None, compare=False, repr=False)

    def final_trajectory(self) -> Trajectory | None:
        return (self.trajectory_final or self.trajectory_schema
                or self.trajectory_initial)


def run_pipeline(d: DatabaseInput, question: str, initial_sql: str,
                 backends: dict[str, StageBackend], seed_id: str | None = None,
                 template_dir: str | Path | None = None) -> PipelineTrace:
    """Run bam -> sam_mask -> sam_fill -> lom and build feedback.

    Stages receive typed values that read as text (`StagePayload`) and may
    return text or a typed value; only text is parsed. A stage whose output
    does not parse stops the refinement; the last valid trajectory feeds the
    feedback (degraded mode).
    """
    missing = [s for s in STAGES if s not in backends]
    if missing:
        raise ValueError(f"backends missing for stages {missing}")
    query = SqlQuery.raw(initial_sql)
    trace = PipelineTrace(initial_sql=initial_sql, question=question, query=query, db=d)
    texts = _Texts()
    base: dict[str, object] = {"db": d, "question": question}
    if seed_id is not None:
        base["id"] = seed_id

    def stage(name: str, convert: Callable[[StageOutput], _T], **fields: object) -> _T | None:
        """The stage's output as `convert` reads it; None once the run has an error."""
        out = _run_stage(trace, backends[name], StagePayload({**base, **fields}, texts), texts)
        if out is None:
            return None
        try:
            return convert(out)
        except SqlStepsError as exc:
            _mark_invalid(trace, name, exc)
            return None

    trace.trajectory_initial = current = stage("bam", _as_trajectory, sql=query)
    if current is None:
        trace.error = trace.error or "bam produced no trajectory"
        return trace
    trace.masked = stage("sam_mask", lambda out: _as_mask(out, texts(current)),
                         trajectory=current)
    trace.trajectory_schema = stage("sam_fill", _as_trajectory,
                                    schema_list=functools.partial(_schema_list, query),
                                    masked=trace.masked, trajectory=current)
    trace.trajectory_final = stage("lom", _as_trajectory,
                                   trajectory=trace.trajectory_schema or current)

    final = trace.final_trajectory()
    if final is not None:
        trace.feedback = make_feedback(final, d, template_dir, texts(final))
    return trace


def _as_trajectory(out: StageOutput) -> Trajectory:
    if isinstance(out, MaskedTrajectory):
        raise FormatError("expected a trajectory, got a masked template")
    return out if isinstance(out, Trajectory) else parse_trajectory(out)


def _as_mask(out: StageOutput, source: str) -> MaskedTrajectory:
    """A text template is checked against the text of the trajectory it
    masks, which recovers its slot values for the fill stage."""
    if isinstance(out, MaskedTrajectory):
        return out
    if isinstance(out, Trajectory):
        raise FormatError("expected a masked template, got a trajectory")
    return _parse_mask(out, source)


def _schema_list(query: SqlQuery) -> SchemaList:
    return SchemaList((), ()) if query.ast is None else extract_schema(query)


def _run_stage(trace: PipelineTrace, backend: StageBackend, payload: StagePayload,
               texts: _Texts) -> StageOutput | None:
    if trace.error is not None:
        return None
    start = time.perf_counter()
    try:
        out = _contained("backend", backend.invoke, payload)
        elapsed = time.perf_counter() - start
        if not isinstance(out, (str, Trajectory, MaskedTrajectory)):
            raise StageOutputInvalidError(
                backend.stage, f"expected text or a typed value, got {type(out).__name__}")
        trace.stages.append(StageRecord(backend.stage, backend.describe(), texts(out),
                                        elapsed, backend.identity))
        return out
    except BackendUnavailableError:
        raise
    except SqlStepsError as exc:
        trace.stages.append(StageRecord(backend.stage, backend.describe(), None,
                                        time.perf_counter() - start, backend.identity,
                                        error=str(exc), error_type=type(exc)))
        trace.error = f"{backend.stage}: {exc}"
        return None


def _contained(name: str, call: Callable, arg: object):
    """`call(arg)` for a backend or generator, which may be the caller's own
    code: an exception that is no SqlStepsError becomes a BackendFailedError
    naming its class, so that it stays with its seed."""
    try:
        return call(arg)
    except SqlStepsError:
        raise
    except Exception as exc:
        raise BackendFailedError(f"{name} raised {type(exc).__name__}: {exc}") from exc


def _mark_invalid(trace: PipelineTrace, stage: str, exc: Exception) -> None:
    error = StageOutputInvalidError(stage, str(exc))
    if trace.stages and trace.stages[-1].stage == stage:
        trace.stages[-1].error = str(error)
        trace.stages[-1].error_type = StageOutputInvalidError
    trace.error = str(error)


# --- batch correction ---------------------------------------------------------------

Generator = Callable[[dict[str, str]], str]


@record()
class CorrectionResult:
    seed_id: str
    initial_sql: str
    feedback: Feedback | None
    regenerated_sql: str | None
    overcorrection_flag: bool
    trace: PipelineTrace | None
    error: str | None = None


def correct_batch(seeds: list[SeedExample], backends: dict[str, StageBackend],
                  schemas: dict[str, DatabaseInput], generator: Generator | None = None,
                  jobs: int = 4,
                  template_dir: str | Path | None = None) -> list[CorrectionResult]:
    """One single-round correction per seed; per-seed failures never abort the batch.

    Seeds run one after another in the calling thread. Only when a stage
    backend is a `RemoteBackend` or a generator is given, which wait on I/O,
    do up to `jobs` seeds run at once on a thread pool.
    """

    def one(seed: SeedExample) -> CorrectionResult:
        try:
            if seed.db not in schemas:
                raise MissingSchemaError(f"no schema for database {seed.db!r}")
            d = schemas[seed.db]
            trace = run_pipeline(d, seed.question, seed.initial_sql, backends,
                                 seed_id=seed.id, template_dir=template_dir)
            regenerated = None
            if generator is not None and trace.feedback is not None:
                regenerated = _contained("generator", generator, {
                    "db": render_database_input(d),
                    "question": seed.question,
                    "sql": seed.initial_sql,
                    "feedback": trace.feedback.prompt,
                    "trajectory": trace.feedback.trajectory_text,
                    "reverted_sql": trace.feedback.reverted_sql or "",
                    "id": seed.id,
                })
            same, initial_form = _compare_forms(trace, backends["bam"], d)
            trace.round_trip_pass = _round_trip_verdict(trace, backends["bam"], same)
            flag = _overcorrection_flag(seed, d, initial_form)
            return CorrectionResult(seed.id, seed.initial_sql, trace.feedback,
                                    regenerated, flag, trace, error=trace.error)
        except SqlStepsError as exc:
            return CorrectionResult(seed.id, seed.initial_sql, None, None, False,
                                    None, error=str(exc))

    if generator is None and not any(isinstance(b, RemoteBackend) for b in backends.values()):
        results = [one(seed) for seed in seeds]
    else:
        # local import: only runs that wait on I/O use threads
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            results = list(pool.map(one, seeds))
    return sorted(results, key=lambda r: r.seed_id)


def _compare_forms(trace: PipelineTrace, bam: StageBackend,
                   d: DatabaseInput) -> tuple[bool, str | None]:
    """Whether the initial and the reverted SQL have equal canonical forms,
    and the initial's form when they differ; compared once per seed for the
    round-trip verdict and the overcorrection flag. (False, None) when there
    is no reverted SQL, the initial SQL does not parse, or a form raises a
    bridge error.

    When the rule bam's own trajectory was reverted, the reverted SQL holds
    the initial SQL's literals, and a reverted tree equal to the initial one
    renders neither form (`bridge.same_tree`); the feedback's reverted query
    then keeps the initial tree in place of its own, and where its text is
    the initial SQL's own, it is the initial query itself. Any other stage
    may have written its literals anew.
    """
    feedback = trace.feedback
    reverted = feedback.reverted_query if feedback is not None else None
    if reverted is None or trace.query.ast is None:
        return False, None
    own = _is_rule_bam(bam) and trace.final_trajectory() is trace.trajectory_initial
    if own and same_tree(trace.query, reverted):
        query = trace.query
        if reverted.text != query.text:
            query = SqlQuery(reverted.text, query.ast)
        feedback.reverted_query = query
        return True, None
    try:  # the trees differ
        forms = canonical_mismatch(trace.query, reverted, d)
    except BRIDGE_ERRORS:
        return False, None
    return (True, None) if forms is None else (False, forms[0])


def _round_trip_verdict(trace: PipelineTrace, bam: StageBackend, same: bool) -> bool | None:
    """`round_trip(trace.query, d).verdict == PASS` from this run's own work,
    or None when the run cannot vouch for it.

    The run vouches when its bam is the rule decomposition and its final
    trajectory is the bam trajectory object: then the reverted query is
    `revert(decompose(query))`, as in `round_trip`. A bridge error in bam,
    no reverted SQL, or a bridge error in a canonical form give False, as
    `round_trip` fails there.
    """
    vouches = _is_rule_bam(bam) and trace.query.ast is not None
    if not vouches:
        return None
    if trace.trajectory_initial is None:  # decompose raised; the bam record holds its class
        error_type = trace.stages[0].error_type
        return False if error_type is not None and issubclass(error_type, BRIDGE_ERRORS) else None
    if trace.final_trajectory() is not trace.trajectory_initial:
        return None
    return same


def _is_rule_bam(bam: StageBackend) -> bool:
    """Whether `bam` decomposes as the rule stage does: a bam `RuleBackend`
    that runs the class's own `invoke`, not one a caller or a tracer set on
    the instance."""
    return (type(bam) is RuleBackend and bam.stage == "bam"
            and getattr(bam.invoke, "__func__", None) is RuleBackend.invoke)


def _overcorrection_flag(seed: SeedExample, d: DatabaseInput, initial_form: str | None) -> bool:
    """True when an initially gold-equal SQL would be rewritten to differ;
    `initial_form` is the initial SQL's canonical form when the rewrite differs."""
    if initial_form is None:
        return False  # not rewritten, so the gold need not be read
    gold = SqlQuery.raw(seed.gold_sql)
    try:
        return gold.ast is not None and canonicalize(gold, d) == initial_form
    except BRIDGE_ERRORS:
        return False
