"""Database inputs (schema + sampled values) and schema-list extraction.

The schema file format is line oriented::

    # comment
    database school_closures
    table schools
      column id int pk
      column County text
      fk district_id -> districts.id
      sample County Alameda|Fresno|Los Angeles

Identifiers containing spaces are backtick-quoted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .actions import expr_children
from .errors import FormatError
from .sqlast import (
    Column,
    Predicate,
    SelectCore,
    SelectNode,
    SetOp,
    SqlExpr,
    SqlQuery,
    Subquery,
    normalize_core,
    pred_exprs,
)

SENTINEL_TABLE = "?"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str
    is_primary_key: bool = False


@dataclass(frozen=True)
class ForeignKey:
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()
    samples: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (column, values)

    def column(self, name: str) -> ColumnDef | None:
        for col in self.columns:
            if col.name == name:
                return col
        return None


@dataclass(frozen=True)
class DatabaseInput:
    name: str
    tables: tuple[TableDef, ...]

    def table(self, name: str) -> TableDef | None:
        for tbl in self.tables:
            if tbl.name == name:
                return tbl
        return None

    def has_table(self, name: str) -> bool:
        return self.table(name) is not None

    def has_column(self, table: str, column: str) -> bool:
        tbl = self.table(table)
        return tbl is not None and tbl.column(column) is not None

    def primary_key(self, table: str) -> str | None:
        tbl = self.table(table)
        if tbl is None:
            return None
        for col in tbl.columns:
            if col.is_primary_key:
                return col.name
        return None

    def fk_edges(self) -> list[tuple[str, str, str, str]]:
        """(child table, child column, parent table, parent column) tuples."""
        out = []
        for tbl in self.tables:
            for fk in tbl.foreign_keys:
                out.append((tbl.name, fk.column, fk.ref_table, fk.ref_column))
        return out


def validate_database(d: DatabaseInput) -> None:
    if not d.tables:
        raise FormatError(f"database {d.name!r} declares no tables")
    names = [t.name for t in d.tables]
    if len(names) != len(set(names)):
        raise FormatError(f"database {d.name!r} declares a table twice")
    for tbl in d.tables:
        if not tbl.columns:
            raise FormatError(f"table {tbl.name!r} declares no columns")
        pk_count = sum(1 for c in tbl.columns if c.is_primary_key)
        if pk_count > 1:
            raise FormatError(f"table {tbl.name!r} declares more than one primary key")
        for fk in tbl.foreign_keys:
            if tbl.column(fk.column) is None:
                raise FormatError(f"fk column {tbl.name}.{fk.column} does not exist")
            if not d.has_column(fk.ref_table, fk.ref_column):
                raise FormatError(
                    f"fk target {fk.ref_table}.{fk.ref_column} does not exist")
        for column, values in tbl.samples:
            if tbl.column(column) is None:
                raise FormatError(f"sample column {tbl.name}.{column} does not exist")
            if len(values) > 3:
                raise FormatError(f"more than 3 samples for {tbl.name}.{column}")


def parse_database_text(text: str, default_name: str = "db") -> DatabaseInput:
    """Parse the schema file format from a string."""
    name = default_name
    tables: list[TableDef] = []
    current: dict | None = None

    def close_current() -> None:
        nonlocal current
        if current is not None:
            tables.append(TableDef(
                name=current["name"],
                columns=tuple(current["columns"]),
                foreign_keys=tuple(current["fks"]),
                samples=tuple(current["samples"]),
            ))
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        words = _split_words(line.strip(), lineno)
        head = words[0].lower()
        if head == "database":
            if len(words) != 2:
                raise FormatError("database line takes one name", lineno)
            name = words[1]
        elif head == "table":
            if len(words) != 2:
                raise FormatError("table line takes one name", lineno)
            close_current()
            current = {"name": words[1], "columns": [], "fks": [], "samples": []}
        elif head == "column":
            if current is None:
                raise FormatError("column line outside a table block", lineno)
            if len(words) < 3 or len(words) > 4:
                raise FormatError("column line is `column <name> <type> [pk]`", lineno)
            pk = len(words) == 4
            if pk and words[3].lower() != "pk":
                raise FormatError(f"unknown column flag {words[3]!r}", lineno)
            current["columns"].append(ColumnDef(words[1], words[2], pk))
        elif head == "fk":
            if current is None:
                raise FormatError("fk line outside a table block", lineno)
            if len(words) != 4 or words[2] != "->" or "." not in words[3]:
                raise FormatError("fk line is `fk <col> -> <table>.<col>`", lineno)
            ref_table, ref_column = words[3].split(".", 1)
            current["fks"].append(ForeignKey(words[1], ref_table, ref_column))
        elif head == "sample":
            if current is None:
                raise FormatError("sample line outside a table block", lineno)
            if len(words) != 3:
                raise FormatError("sample line is `sample <col> <v1>|<v2>|<v3>`", lineno)
            values = tuple(v for v in words[2].split("|") if v)
            current["samples"].append((words[1], values))
        else:
            raise FormatError(f"unknown directive {words[0]!r}", lineno)
    close_current()
    d = DatabaseInput(name=name, tables=tuple(tables))
    validate_database(d)
    return d


# A word is a backtick-quoted run (spaces allowed) or a run of non-space
# characters; a word that opens a backtick it never closes is an error.
_WORD_RE = re.compile(r"`([^`]*)`|\S+")


def _split_words(line: str, lineno: int) -> list[str]:
    words: list[str] = []
    for m in _WORD_RE.finditer(line):
        quoted, word = m.group(1, 0)
        if quoted is None and word.startswith("`"):
            raise FormatError("unterminated backtick identifier", lineno)
        words.append(word if quoted is None else quoted)
    return words


def parse_database_input(path: str | Path) -> DatabaseInput:
    """Parse a schema file; the database name defaults to the file stem."""
    path = Path(path)
    return parse_database_text(path.read_text(encoding="utf-8"), default_name=path.stem)


def render_database_input(d: DatabaseInput) -> str:
    """Schema file text for a database input (also used as the prompt summary)."""
    lines = [f"database {_word(d.name)}"]
    for tbl in d.tables:
        lines.append(f"table {_word(tbl.name)}")
        for col in tbl.columns:
            flag = " pk" if col.is_primary_key else ""
            lines.append(f"  column {_word(col.name)} {col.type}{flag}")
        for fk in tbl.foreign_keys:
            lines.append(f"  fk {_word(fk.column)} -> {fk.ref_table}.{fk.ref_column}")
        for column, values in tbl.samples:
            lines.append(f"  sample {_word(column)} {'|'.join(values)}")
    return "\n".join(lines) + "\n"


def _word(name: str) -> str:
    return f"`{name}`" if " " in name else name


def load_schema_dir(path: str | Path) -> dict[str, DatabaseInput]:
    """Load every *.schema file in a directory, keyed by database name."""
    out: dict[str, DatabaseInput] = {}
    for file in sorted(Path(path).glob("*.schema")):
        d = parse_database_input(file)
        out[d.name] = d
    return out


# --- schema lists ------------------------------------------------------------

@dataclass(frozen=True)
class SchemaList:
    """Tables and columns referenced by a query, in first-appearance order.

    Columns whose owning table cannot be resolved syntactically appear under
    the sentinel table `?`.
    """

    tables: tuple[str, ...]
    columns: tuple[tuple[str, str], ...]

    def render(self) -> str:
        tables = ", ".join(self.tables) if self.tables else "-"
        columns = ", ".join(f"{t}.{c}" for t, c in self.columns) if self.columns else "-"
        return f"tables: {tables}; columns: {columns}"

    @property
    def is_empty(self) -> bool:
        return not self.tables and not self.columns


def extract_schema(s: SqlQuery) -> SchemaList:
    """Syntactic extraction of referenced tables and columns from parsed SQL."""
    if s.ast is None:
        raise FormatError(s.parse_error or "query has no AST")
    acc = _SchemaAccumulator()
    _collect_node(s.ast, acc)
    return SchemaList(tuple(acc.tables), tuple(acc.columns))


class _SchemaAccumulator:
    def __init__(self) -> None:
        self.tables: list[str] = []
        self.columns: list[tuple[str, str]] = []

    def add_table(self, name: str) -> None:
        if name not in self.tables:
            self.tables.append(name)

    def add_column(self, table: str, column: str) -> None:
        key = (table, column)
        if key not in self.columns:
            self.columns.append(key)


def _collect_node(node: SelectNode, acc: _SchemaAccumulator) -> None:
    if isinstance(node, SetOp):
        _collect_node(node.left, acc)
        _collect_core(node.right, acc)
    else:
        _collect_core(node, acc)


def _collect_core(core: SelectCore, acc: _SchemaAccumulator) -> None:
    core = normalize_core(core)  # aliases only: no column is qualified
    scope = [t.name for t in core.tables] + [j.table.name for j in core.joins]
    for ref in core.tables:
        acc.add_table(ref.name)
    for join in core.joins:
        acc.add_table(join.table.name)
    for item in core.items:
        _collect_expr(item.expr, scope, acc)
    for join in core.joins:
        _collect_pred(join.on, scope, acc)
    if core.where is not None:
        _collect_pred(core.where, scope, acc)
    for expr in core.group_by:
        _collect_expr(expr, scope, acc)
    if core.having is not None:
        _collect_pred(core.having, scope, acc)
    for item_ in core.order_by:
        _collect_expr(item_.expr, scope, acc)


def _collect_expr(expr: SqlExpr, scope: list[str], acc: _SchemaAccumulator) -> None:
    if isinstance(expr, Column):
        if expr.table is not None:
            acc.add_column(expr.table, expr.column)
        elif len(scope) == 1:
            acc.add_column(scope[0], expr.column)
        else:
            acc.add_column(SENTINEL_TABLE, expr.column)
    elif isinstance(expr, Subquery):
        _collect_core(expr.core, acc)
    else:
        for child in expr_children(expr):
            _collect_expr(child, scope, acc)


def _collect_pred(pred: Predicate, scope: list[str], acc: _SchemaAccumulator) -> None:
    for expr in pred_exprs(pred):
        _collect_expr(expr, scope, acc)
