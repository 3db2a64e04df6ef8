"""Schema masking of trajectories and mask-slot reinsertion.

Masking replaces every qualified-column occurrence in the canonical trajectory
text with an indexed token `[MASK:k]`. Template and slots come from one
fragment render of `render_trajectory(t)` (`trajectory_fragments`): the k-th
column becomes `[MASK:k]` as the text is built, and its slot records the
rendered column and its offset in that text, so filling the slots with their
values reproduces the source text exactly. Indexed masks keep reinsertion
well defined; `bare_template` strips the indices for prompt assets.
"""

from __future__ import annotations

import re

from .actions import QualifiedColumn, Trajectory, frozen
from .errors import ArityMismatchError, FormatError, KindMismatchError, SchemaMismatchError
from .schema import DatabaseInput
from .sqlast import LEAF_BOUND
from .trajectory import parse_trajectory, trajectory_fragments, validate_trajectory

# A slot index has at most nine ASCII digits, as every number of the
# grammars; a longer one, or one in other decimal digits (`٠`), is no token,
# so every index converts to an int.
MASK_TOKEN_RE = re.compile(r"\[MASK:([0-9]{1,9})\]")


@frozen
class MaskSlot:
    index: int
    kind: str  # "column" | "table"
    value: str  # original rendered occurrence, e.g. "schools.Year"
    position: int  # character offset of the occurrence in the source text


@frozen
class MaskedTrajectory:
    template: str
    slots: tuple[MaskSlot, ...]

    def slot_values(self) -> list[str]:
        return [slot.value for slot in self.slots]

    def bare_template(self) -> str:
        return MASK_TOKEN_RE.sub("[MASK]", self.template)


def mask_schema(t: Trajectory) -> MaskedTrajectory:
    """Mask every qualified-column occurrence of the canonical rendering.
    Raises FormatError for a trajectory whose text already reads as holding a
    mask token (a string literal `'[MASK:0]'`), which no template can tell
    from a slot."""
    source: list[str] = []
    template: list[str] = []
    slots: list[MaskSlot] = []
    position = 0
    for fragment in trajectory_fragments(t):
        if isinstance(fragment, str):
            text = fragment
            template.append(text)
        else:
            text = _slot_value(fragment)
            template.append(f"[MASK:{len(slots)}]")
            slots.append(MaskSlot(index=len(slots), kind="column", value=text, position=position))
        source.append(text)
        position += len(text)
    if MASK_TOKEN_RE.search("".join(source)):
        raise FormatError("trajectory text already holds a mask token")
    return MaskedTrajectory(template="".join(template), slots=tuple(slots))


# The rendered text of each column a slot holds, one string per column,
# shared by every mask. A table that outgrows LEAF_BOUND entries is emptied,
# as the parser's leaf tables are.
_SLOT_VALUES: dict[QualifiedColumn, str] = {}


def _slot_value(column: QualifiedColumn) -> str:
    """The shared `column.render()`."""
    value = _SLOT_VALUES.get(column)
    if value is None:
        value = _SLOT_VALUES.setdefault(column, column.render())
        if len(_SLOT_VALUES) > LEAF_BOUND:
            _SLOT_VALUES.clear()
    return value


def parse_masked_template(text: str) -> MaskedTrajectory:
    """Build a MaskedTrajectory from template text alone (slot values unknown).

    Indices must be contiguous 0..n-1, each appearing exactly once.
    """
    indices = _contiguous([int(m.group(1)) for m in MASK_TOKEN_RE.finditer(text)])
    slots = tuple(MaskSlot(index=k, kind="column", value="", position=-1)
                  for k in range(len(indices)))
    return MaskedTrajectory(template=text, slots=slots)


def _contiguous(indices: list[int]) -> list[int]:
    """The slot indices of a template, which must be 0..n-1, each once."""
    if sorted(indices) != list(range(len(indices))):
        raise FormatError(f"mask indices are not contiguous: {indices}")
    return indices


def recover_slot_values(template: str, source: str) -> list[str]:
    """Align a masked template against the unmasked source text.

    Returns the slot values in index order; raises FormatError when the
    slot indices are not 0..n-1, each once, or the template's literal
    segments do not match the source.
    """
    segments = MASK_TOKEN_RE.split(template)
    # re.split with one capture group yields [lit0, idx0, lit1, idx1, ..., litN]
    literals = segments[0::2]
    indices = _contiguous([int(i) for i in segments[1::2]])
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
    text, rendered = _fill_text(m, values)
    trajectory = parse_trajectory(text)
    errors = validate_trajectory(trajectory, d)
    if errors:
        raise SchemaMismatchError(errors[0] + _blame_slot(errors[0], rendered))
    return trajectory


def _fill_text(m: MaskedTrajectory,
               values: list[str] | list[QualifiedColumn]) -> tuple[str, dict[int, str]]:
    """The template with each token replaced by its slot's value, and the
    values by slot index: a column slot takes a `table.column`, a table slot
    a bare name, and a string value is stripped. Raises ArityMismatchError
    and KindMismatchError."""
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

    return MASK_TOKEN_RE.sub(substitute, m.template), rendered


def _blame_slot(message: str, rendered: dict[int, str]) -> str:
    for index, value in sorted(rendered.items()):
        if value in message or value.split(".")[0] in message:
            return f" (filled at slot {index})"
    return ""
