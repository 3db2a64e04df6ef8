"""Action-level error perturbation and corpus augmentation.

Three edit families over a verified trajectory: ADD inserts an action, DELETE
removes one, SUBSTITUTE rewrites one action's kind or parameters. Edits are
made on the typed values, whose constructors hold every rule of the grammar
(a misplaced `*`, a nested aggregate, a binding used before assignment) and
every rule on how actions chain into one SQL query (`actions.check_bindings`:
one groupby per frame, a select()ed operand, ...); an edit they reject is
drawn again. So every output is a valid trajectory whose text parses back to
it and that reverts to SQL unless the schema has no join path for its
columns, and the injected errors are semantic by construction. All
randomness flows through per-call
`random.Random` streams keyed by (seed, trajectory index, draw index), so
parallel and serial runs produce identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import field
from typing import Callable

from .actions import (
    Action,
    AggStep,
    Aggregate,
    BindingRef,
    Combine,
    Distinct,
    Expr,
    FilterCondition,
    GroupBy,
    Having,
    Limit,
    OrderBy,
    QualifiedColumn,
    Scalar,
    Select,
    Trajectory,
    TrajectoryStep,
    Where,
    AGGREGATE_KINDS,
    binding_name,
    frozen,
    map_expr,
    record,
)
from .errors import BindingError, NoViablePerturbationError
from .schema import DatabaseInput
from .trajectory import render_action

ADD = "add"
DELETE = "delete"
SUBSTITUTE = "substitute"
KINDS = (ADD, DELETE, SUBSTITUTE)

_FLIP_COMPARATOR = {"=": "!=", "!=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<=",
                    "in": "not in", "not in": "in",
                    "is null": "is not null", "is not null": "is null"}


@frozen
class PerturbationRecord:
    kind: str  # one of KINDS
    site: tuple[int, int]  # (step index, action index) in the source trajectory
    before: str | None  # rendered action (absent for ADD)
    after: str | None  # rendered action (absent for DELETE)
    seed: int

    def __post_init__(self) -> None:
        if self.kind == ADD and not (self.before is None and self.after):
            raise ValueError("ADD records carry only `after`")
        if self.kind == DELETE and not (self.after is None and self.before):
            raise ValueError("DELETE records carry only `before`")
        if self.kind == SUBSTITUTE and (not self.before or not self.after
                                        or self.before == self.after):
            raise ValueError("SUBSTITUTE records carry distinct before/after")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "site": list(self.site), "before": self.before,
                "after": self.after, "seed": self.seed}


@frozen
class PerturbationConfig:
    k: int = 1
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)  # add, delete, substitute
    seed: int = 0
    max_attempts: int = 30

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if any(w < 0 for w in self.weights):
            raise ValueError("kind weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:  # a NaN weight fails too
            raise ValueError("kind weights must sum to 1")


@frozen
class PerturbationPair:
    erroneous: Trajectory
    verified: Trajectory
    record: PerturbationRecord


@record()
class AugmentReport:
    pairs: list[PerturbationPair] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)  # (trajectory index, reason)


# --- binding renumbering -----------------------------------------------------

def _renumber(steps: list[TrajectoryStep]) -> Trajectory:
    """Rename bindings to df1..dfN in step order, rewriting every reference."""
    mapping: dict[str, str] = {"df": "df"}
    counter = 0
    for step in steps:
        if step.binding == "res":
            mapping[step.binding] = "res"
        else:
            counter += 1
            mapping[step.binding] = binding_name(counter)
    return Trajectory(tuple(_rename_bindings(steps, lambda name: mapping.get(name, name))))


def _rename_bindings(steps: list[TrajectoryStep],
                     rename: Callable[[str], str]) -> list[TrajectoryStep]:
    """The steps with every binding name they bind or read renamed: step
    bindings, receivers, set operands and filter operands."""
    def action(a: Action) -> Action:
        if isinstance(a, Combine):
            return Combine(a.op, BindingRef(rename(a.other.name)))
        if isinstance(a, (Where, Having)):
            cond = a.condition
            operands = tuple(BindingRef(rename(op.name)) if isinstance(op, BindingRef) else op
                             for op in cond.operands)
            if operands != cond.operands:  # never a compound's, which has none
                return type(a)(a.element, FilterCondition(cond.comparator, operands))
        return a

    return [TrajectoryStep(rename(s.binding), rename(s.receiver), tuple(action(a) for a in s.chain))
            for s in steps]


def _fresh(steps: list[TrajectoryStep]) -> str:
    taken = {s.binding for s in steps}
    n = 9000
    while binding_name(n) in taken:
        n += 1
    return binding_name(n)


def _insert_step(steps: list[TrajectoryStep], index: int, chain: tuple[Action, ...]) -> list[TrajectoryStep]:
    """Insert a step before position `index`, rewiring the old step onto it."""
    binding = _fresh(steps)
    old = steps[index]
    new_step = TrajectoryStep(binding, old.receiver, chain)
    rewired = TrajectoryStep(old.binding, binding, old.chain)
    return steps[:index] + [new_step, rewired] + steps[index + 1:]


def _drop_action(steps: list[TrajectoryStep], step_idx: int, action_idx: int) -> list[TrajectoryStep]:
    step = steps[step_idx]
    chain = step.chain[:action_idx] + step.chain[action_idx + 1:]
    if chain:
        return steps[:step_idx] + [TrajectoryStep(step.binding, step.receiver, chain)] \
            + steps[step_idx + 1:]
    # empty chain: drop the whole step and repoint its users at its receiver
    return _rename_bindings(steps[:step_idx] + steps[step_idx + 1:],
                            lambda name: step.receiver if name == step.binding else name)


def _swap_action(steps: list[TrajectoryStep], step_idx: int, action_idx: int,
                 action: Action) -> list[TrajectoryStep]:
    step = steps[step_idx]
    chain = step.chain[:action_idx] + (action,) + step.chain[action_idx + 1:]
    return steps[:step_idx] + [TrajectoryStep(step.binding, step.receiver, chain)] \
        + steps[step_idx + 1:]


# --- candidate edits ----------------------------------------------------------

@frozen
class _Edit:
    site: tuple[int, int]
    before: Action | None
    after: Action | None
    build: tuple  # ("insert_step", idx, chain) | ("append", ...) | ("drop", ...) | ("swap", ...)
    # the trajectory types are sure to reject the edit, so it is never built
    doomed: bool = field(default=False, compare=False)


def _downstream(t: Trajectory, kinds: tuple[type, ...]) -> list[bool]:
    """Per step, whether an action of `kinds` is in its chain or in a step
    chained onto its frame, at any distance; a set operation's step holds
    none and passes on none."""
    found: dict[str, bool] = {}
    below: list[bool] = []
    for step in reversed(t.steps):
        if isinstance(step.chain[0], Combine):
            below.append(False)
            continue
        here = found.get(step.binding, False) or any(isinstance(a, kinds) for a in step.chain)
        found[step.receiver] = found.get(step.receiver, False) or here
        below.append(here)
    return below[::-1]


def _grouped_receivers(t: Trajectory) -> list[bool]:
    """Per step, whether its receiver's frame already holds a groupby."""
    grouped = {"df": False}
    out = []
    for step in t.steps:
        out.append(grouped[step.receiver])
        grouped[step.binding] = not isinstance(step.chain[0], Combine) and (
            grouped[step.receiver] or any(isinstance(a, GroupBy) for a in step.chain))
    return out


class _AddCandidates:
    """A trajectory's add edits, each built when `rng.choice` draws it: per step, a step
    before it that groups by a schema column, takes distinct of or sorts by a referenced
    column; then a copy of each where, and a limit(1) after each unlimited orderby.

    A groupby inserted before a step joins the frame of the step's receiver,
    of the step and of every step chained onto it; where one of them already
    groups, the types reject it for a second groupby on one frame."""

    def __init__(self, t: Trajectory, d: DatabaseInput):
        self.columns = d.qualified_columns()
        self.referenced = sorted(set(t.columns()), key=lambda c: (c.table, c.column))
        self.per_step = len(self.columns) + 2 * len(self.referenced)
        self.inserts = len(t.steps) * self.per_step
        self.grouped = [receiver or below for receiver, below
                        in zip(_grouped_receivers(t), _downstream(t, (GroupBy,)))]
        self.tail: list[_Edit] = []
        for idx, step in enumerate(t.steps):
            for pos, action in enumerate(step.chain):
                if isinstance(action, Where):  # duplicate an existing predicate
                    self.tail.append(_Edit((idx, pos), None, action,
                                           ("insert_step", idx, (action,))))
                if isinstance(action, OrderBy) and not any(
                        isinstance(a, Limit) for a in step.chain):
                    limit = Limit(1)
                    self.tail.append(_Edit((idx, len(step.chain)), None, limit,
                                           ("append", idx, limit)))

    def __len__(self) -> int:
        return self.inserts + len(self.tail)

    def __getitem__(self, index: int) -> _Edit:
        if index >= self.inserts:
            return self.tail[index - self.inserts]
        idx, k = divmod(index, self.per_step)
        if k < len(self.columns):
            action: Action = GroupBy((self.columns[k],))
            return _Edit((idx, 0), None, action, ("insert_step", idx, (action,)),
                         doomed=self.grouped[idx])
        col = self.referenced[(k - len(self.columns)) // 2]
        action = OrderBy(col, "asc") if (k - len(self.columns)) % 2 else Distinct(col)
        return _Edit((idx, 0), None, action, ("insert_step", idx, (action,)))


def _delete_candidates(t: Trajectory) -> list[_Edit]:
    """Every action but the final select and a set operation, each dropped.
    Dropping a groupby takes it from the frame of its step and of every step
    chained onto it; where one of them aggregates or has a having, the types
    reject the drop."""
    edits: list[_Edit] = []
    needs_groupby = _downstream(t, (AggStep, Having))
    for idx, step in enumerate(t.steps):
        for pos, action in enumerate(step.chain):
            if isinstance(action, Select) and step.binding == "res":
                continue  # never delete the final projection
            if isinstance(action, Combine):
                continue  # dropping the set operation would orphan a branch
            edits.append(_Edit((idx, pos), action, None, ("drop", idx, pos),
                               doomed=isinstance(action, GroupBy) and needs_groupby[idx]))
    return edits


def _substitute_candidates(t: Trajectory, d: DatabaseInput,
                           rng: random.Random) -> list[_Edit]:
    edits: list[_Edit] = []
    for idx, step in enumerate(t.steps):
        for pos, action in enumerate(step.chain):
            for after in _rewrites(action, d, rng):
                if after != action:
                    edits.append(_Edit((idx, pos), action, after, ("swap", idx, pos, after)))
    return edits


def _rewrites(action: Action, d: DatabaseInput, rng: random.Random) -> list[Action]:
    out: list[Action] = []
    if isinstance(action, Select) and len(action.elements) >= 2:
        elements = list(action.elements)
        elements[0], elements[1] = elements[1], elements[0]
        out.append(Select(tuple(elements)))
    if isinstance(action, (Where, Having)):
        flipped = _FLIP_COMPARATOR.get(action.condition.comparator)
        if flipped is not None:
            cond = FilterCondition(flipped, action.condition.operands)
            out.append(type(action)(action.element, cond))
        jittered = _jitter_condition(action.condition, rng)
        if jittered is not None:
            out.append(type(action)(action.element, jittered))
        # a compound's element is not part of its SQL: swapping it would change nothing
        swapped = _swap_column(action.element, d) \
            if action.condition.comparator != "compound" else None
        if swapped is not None:
            out.append(type(action)(swapped, action.condition))
    if isinstance(action, OrderBy):
        out.append(OrderBy(action.by, "desc" if action.order == "asc" else "asc"))
        swapped = _swap_column(action.by, d)
        if swapped is not None:
            out.append(OrderBy(swapped, action.order))
    if isinstance(action, Limit):
        out.append(Limit(action.count + 1, action.offset))
        if action.count > 1:
            out.append(Limit(action.count - 1, action.offset))
    if isinstance(action, AggStep):
        out.extend(AggStep(Aggregate(kind, action.agg.arg))
                   for kind in AGGREGATE_KINDS if kind != action.agg.kind)
    if isinstance(action, Select):
        swapped_elements = []
        for i, element in enumerate(action.elements):
            swapped = _swap_column(element, d)
            if swapped is not None:
                elements = list(action.elements)
                elements[i] = swapped
                swapped_elements.append(Select(tuple(elements)))
        out.extend(swapped_elements)
    if isinstance(action, GroupBy):
        for i, element in enumerate(action.elements):
            swapped = _swap_column(element, d)
            if swapped is not None:
                elements = list(action.elements)
                elements[i] = swapped
                out.append(GroupBy(tuple(elements)))
    return out


def _swap_column(expr: Expr, d: DatabaseInput) -> Expr | None:
    """Replace the first column in the expression with a sibling column."""
    swapped = False

    def swap(node: Expr) -> Expr | None:
        nonlocal swapped
        if swapped:
            return node  # keep everything after the first swap
        if not isinstance(node, QualifiedColumn):
            return None
        tbl = d.table(node.table)
        siblings = sorted(c.name for c in tbl.columns if c.name != node.column) if tbl else []
        if not siblings:
            return node
        swapped = True
        return d.qualified_column(node.table, siblings[0])

    out = map_expr(expr, swap)
    return out if swapped else None


def _jitter_condition(cond: FilterCondition, rng: random.Random) -> FilterCondition | None:
    if cond.comparator == "compound":
        return None
    jittered = []
    changed = False
    for op in cond.operands:
        if isinstance(op, Scalar) and op.kind in ("int", "real") and not changed:
            delta = rng.choice(("+1", "-1", "*10"))
            value = op.value
            if delta == "+1":
                value = value + 1
            elif delta == "-1":
                value = value - 1
            else:
                value = value * 10
            jittered.append(Scalar(value, op.kind))
            changed = True
        else:
            jittered.append(op)
    if not changed:
        return None
    return FilterCondition(cond.comparator, tuple(jittered))


# --- public operations -----------------------------------------------------------

def perturb_once(t: Trajectory, kind: str, rng: random.Random, d: DatabaseInput,
                 max_attempts: int = 30, seed: int = 0) -> tuple[Trajectory, PerturbationRecord]:
    """Apply one perturbation of the given kind; the result is a valid
    trajectory that differs from `t`."""
    if kind not in KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if kind == DELETE and t.action_count() < 2:
        raise NoViablePerturbationError("cannot delete from a single-action trajectory")
    # the add and delete candidates are the same on every attempt, so one
    # rejected is not built again; a substitution's are drawn anew, as its
    # rewrites consume `rng`
    fixed = (_AddCandidates(t, d) if kind == ADD
             else _delete_candidates(t) if kind == DELETE else None)
    rejected: set[_Edit] = set()
    for _ in range(max_attempts):
        candidates = fixed if fixed is not None else _substitute_candidates(t, d, rng)
        if not candidates or len(rejected) == len(candidates):
            break
        edit = rng.choice(candidates)
        if edit in rejected:
            continue
        try:  # the step and trajectory types reject an edit no SQL query holds
            mutated = None if edit.doomed else _apply_edit(list(t.steps), edit)
        except (BindingError, ValueError):
            mutated = None
        if mutated is None or mutated == t:
            if fixed is not None:
                rejected.add(edit)
            continue
        record = PerturbationRecord(
            kind=kind,
            site=edit.site,
            before=render_action(edit.before) if edit.before is not None else None,
            after=render_action(edit.after) if edit.after is not None else None,
            seed=seed,
        )
        return mutated, record
    raise NoViablePerturbationError(f"no viable {kind} perturbation after {max_attempts} attempts")


def _apply_edit(steps: list[TrajectoryStep], edit: _Edit) -> Trajectory:
    op = edit.build[0]
    if op == "insert_step":
        _, idx, chain = edit.build
        return _renumber(_insert_step(steps, idx, chain))
    if op == "append":
        _, idx, action = edit.build
        step = steps[idx]
        new = TrajectoryStep(step.binding, step.receiver, step.chain + (action,))
        return _renumber(steps[:idx] + [new] + steps[idx + 1:])
    if op == "drop":
        _, idx, pos = edit.build
        return _renumber(_drop_action(steps, idx, pos))
    if op == "swap":
        _, idx, pos, action = edit.build
        return _renumber(_swap_action(steps, idx, pos, action))
    raise ValueError(f"unknown edit {op!r}")


def _draw_kind(weights: tuple[float, float, float], rng: random.Random) -> str:
    roll = rng.random()
    acc = 0.0
    for kind, weight in zip(KINDS, weights):
        acc += weight
        if roll < acc:
            return kind
    return KINDS[-1]


def stream_rng(seed: int, trajectory_index: int, draw: int) -> random.Random:
    """Independent deterministic stream per (seed, trajectory, draw)."""
    return random.Random(f"{seed}:{trajectory_index}:{draw}")


def augment(verified: list[Trajectory], cfg: PerturbationConfig,
            d: DatabaseInput) -> AugmentReport:
    """K perturbation pairs per verified trajectory; the verified side is kept
    as the target without re-verification (it is correct by construction)."""
    report = AugmentReport()
    for index, trajectory in enumerate(verified):
        for draw in range(cfg.k):
            rng = stream_rng(cfg.seed, index, draw)
            kind = _draw_kind(cfg.weights, rng)
            try:
                erroneous, record = perturb_once(trajectory, kind, rng, d,
                                                 max_attempts=cfg.max_attempts,
                                                 seed=cfg.seed)
            except NoViablePerturbationError as exc:
                report.skipped.append((index, str(exc)))
                continue
            report.pairs.append(PerturbationPair(erroneous, trajectory, record))
    return report


def inject_negatives(pairs: list[tuple[Trajectory, Trajectory]], ratio: float = 4.0,
                     seed: int = 0) -> list[tuple[Trajectory, Trajectory]]:
    """Append one identity (verified, verified) pair per `ratio` positives.

    Exactly floor(len(pairs) / ratio) identity pairs are appended, then the
    combined records are shuffled deterministically by `seed`.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    records: list[tuple[Trajectory, Trajectory]] = [(err, ver) for err, ver in pairs]
    n_negatives = int(len(pairs) / ratio)
    for j in range(n_negatives):
        source = pairs[min(len(pairs) - 1, int((j + 1) * ratio) - 1)]
        records.append((source[1], source[1]))
    random.Random(f"negatives:{seed}").shuffle(records)
    return records
