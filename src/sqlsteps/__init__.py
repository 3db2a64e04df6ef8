"""SQL <-> action-trajectory tooling for text-to-SQL correction pipelines."""

from .actions import (
    ACTION_SPACE,
    ActionSpace,
    Aggregate,
    Arithmetic,
    BindingRef,
    Cast,
    FilterCondition,
    QualifiedColumn,
    Scalar,
    Star,
    Substr,
    Trajectory,
    TrajectoryStep,
)
from .bridge import RoundTripReport, decompose, revert, round_trip
from .masking import MaskedTrajectory, MaskSlot, fill_mask, mask_schema
from .schema import (
    DatabaseInput,
    SchemaList,
    extract_schema,
    load_schema_dir,
    parse_database_input,
    parse_database_text,
    render_database_input,
)
from .sqlast import SqlQuery, canonicalize, parse_sql, render_sql
from .trajectory import (
    parse_trajectory,
    render_trajectory,
    validate_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "ACTION_SPACE",
    "ActionSpace",
    "Aggregate",
    "Arithmetic",
    "BindingRef",
    "Cast",
    "DatabaseInput",
    "FilterCondition",
    "MaskSlot",
    "MaskedTrajectory",
    "QualifiedColumn",
    "RoundTripReport",
    "Scalar",
    "SchemaList",
    "SqlQuery",
    "Star",
    "Substr",
    "Trajectory",
    "TrajectoryStep",
    "canonicalize",
    "decompose",
    "extract_schema",
    "fill_mask",
    "load_schema_dir",
    "mask_schema",
    "parse_database_input",
    "parse_database_text",
    "parse_sql",
    "parse_trajectory",
    "render_database_input",
    "render_sql",
    "render_trajectory",
    "revert",
    "round_trip",
    "validate_trajectory",
]
