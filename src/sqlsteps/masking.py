"""Schema masking of trajectories and mask-slot reinsertion.

Masking replaces every qualified-column occurrence in the canonical trajectory
text with an indexed token `[MASK:k]`; filling the slots with their original
values reproduces the source text exactly. Indexed masks keep reinsertion
well defined; `bare_template` strips the indices for prompt assets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Callable

from .actions import (
    Expr,
    QualifiedColumn,
    Trajectory,
    TrajectoryStep,
    map_action_exprs,
    map_expr,
)
from .errors import ArityMismatchError, FormatError, KindMismatchError, SchemaMismatchError
from .schema import DatabaseInput
from .trajectory import parse_trajectory, render_trajectory, validate_trajectory

# A slot index has at most nine digits; a longer one is no token, so every
# index converts to an int.
MASK_TOKEN_RE = re.compile(r"\[MASK:(\d{1,9})\]")

_PLACEHOLDER_TABLE = "xmaskx"


@dataclass(frozen=True)
class MaskSlot:
    index: int
    kind: str  # "column" | "table"
    value: str  # original rendered occurrence, e.g. "schools.Year"
    position: int  # character offset of the occurrence in the source text


@dataclass(frozen=True)
class MaskedTrajectory:
    template: str
    slots: tuple[MaskSlot, ...]

    def slot_values(self) -> list[str]:
        return [slot.value for slot in self.slots]

    def bare_template(self) -> str:
        return MASK_TOKEN_RE.sub("[MASK]", self.template)


def replace_columns(t: Trajectory, fn: Callable[[QualifiedColumn, int], QualifiedColumn]) -> Trajectory:
    """Rebuild a trajectory mapping each column occurrence in render order."""
    counter = count()

    def column(expr: Expr) -> Expr | None:
        return fn(expr, next(counter)) if isinstance(expr, QualifiedColumn) else None

    def rebuild(expr: Expr) -> Expr:
        return map_expr(expr, column)

    steps = tuple(TrajectoryStep(s.binding, s.receiver,
                                 tuple(map_action_exprs(a, rebuild) for a in s.chain))
                  for s in t.steps)
    return Trajectory(steps)


def mask_schema(t: Trajectory) -> MaskedTrajectory:
    """Mask every qualified-column occurrence of the canonical rendering.
    Raises FormatError for a trajectory whose text already reads as holding a
    mask token (a string literal `'[MASK:0]'`), which no template can tell
    from a slot."""
    source = render_trajectory(t)
    if MASK_TOKEN_RE.search(source):
        raise FormatError("trajectory text already holds a mask token")
    masked = replace_columns(t, lambda _col, k: QualifiedColumn(_PLACEHOLDER_TABLE, f"s{k}"))
    template = render_trajectory(masked)
    occurrences = t.columns()
    for k in range(len(occurrences)):
        template = template.replace(f"{_PLACEHOLDER_TABLE}.s{k}", f"[MASK:{k}]", 1)
    values = [col.render() for col in occurrences]
    positions = _original_positions(template, values)
    slots = tuple(
        MaskSlot(index=k, kind="column", value=value, position=pos)
        for k, (value, pos) in enumerate(zip(values, positions)))
    if MASK_TOKEN_RE.sub(lambda m: values[int(m.group(1))], template) != source:
        raise FormatError("masked template does not fill back to the trajectory text")
    return MaskedTrajectory(template=template, slots=slots)


def _original_positions(template: str, values: list[str]) -> list[int]:
    """Character offsets in the source text that each mask token stands for."""
    positions: list[int] = []
    shift = 0  # how much longer the source is than the template before this token
    for value, token in zip(values, MASK_TOKEN_RE.finditer(template)):
        positions.append(token.start() + shift)
        shift += len(value) - len(token.group())
    return positions


def parse_masked_template(text: str) -> MaskedTrajectory:
    """Build a MaskedTrajectory from template text alone (slot values unknown).

    Indices must be contiguous 0..n-1, each appearing exactly once.
    """
    indices = [int(m.group(1)) for m in MASK_TOKEN_RE.finditer(text)]
    if sorted(indices) != list(range(len(indices))):
        raise FormatError(f"mask indices are not contiguous: {indices}")
    slots = tuple(MaskSlot(index=k, kind="column", value="", position=-1)
                  for k in range(len(indices)))
    return MaskedTrajectory(template=text, slots=slots)


def recover_slot_values(template: str, source: str) -> list[str]:
    """Align a masked template against the unmasked source text.

    Returns the slot values in index order; raises FormatError when the
    template's literal segments do not match the source.
    """
    segments = MASK_TOKEN_RE.split(template)
    # re.split with one capture group yields [lit0, idx0, lit1, idx1, ..., litN]
    literals = segments[0::2]
    indices = [int(i) for i in segments[1::2]]
    if not source.startswith(literals[0]):
        raise FormatError("template does not match the source text")
    values: dict[int, str] = {}
    pos = len(literals[0])
    for index, literal in zip(indices, literals[1:]):
        if literal:
            end = source.find(literal, pos)
            if end < 0:
                raise FormatError("template does not match the source text")
        else:
            end = len(source)
        values[index] = source[pos:end]
        pos = end + len(literal)
    if pos != len(source):
        raise FormatError("template does not cover the full source text")
    return [values[k] for k in range(len(values))]


def fill_mask(m: MaskedTrajectory, values: list[str] | list[QualifiedColumn],
              d: DatabaseInput) -> Trajectory:
    """Reinsert schema elements into a masked template and validate the result."""
    if len(values) != len(m.slots):
        raise ArityMismatchError(
            f"template has {len(m.slots)} slots, got {len(values)} values")
    rendered: dict[int, str] = {}
    for slot, value in zip(m.slots, values):
        text = value.render() if isinstance(value, QualifiedColumn) else str(value).strip()
        if slot.kind == "column" and "." not in text:
            raise KindMismatchError(
                f"slot {slot.index} expects a table.column value, got {text!r}")
        if slot.kind == "table" and "." in text:
            raise KindMismatchError(f"slot {slot.index} expects a table name, got {text!r}")
        rendered[slot.index] = text

    def substitute(match: re.Match[str]) -> str:
        index = int(match.group(1))
        if index not in rendered:
            raise ArityMismatchError(f"template references unknown slot {index}")
        return rendered[index]

    text = MASK_TOKEN_RE.sub(substitute, m.template)
    trajectory = parse_trajectory(text)
    report = validate_trajectory(trajectory, d)
    errors = report.errors()
    if errors:
        first = errors[0]
        slot_hint = _blame_slot(first.message, rendered)
        raise SchemaMismatchError(f"{first.message}{slot_hint}")
    return trajectory


def _blame_slot(message: str, rendered: dict[int, str]) -> str:
    for index, value in sorted(rendered.items()):
        if value in message or value.split(".")[0] in message:
            return f" (filled at slot {index})"
    return ""
