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
from dataclasses import field
from pathlib import Path
from typing import Callable

from .actions import QualifiedColumn, expr_children, frozen, record
from .errors import FormatError
from .sqlast import (
    Column,
    Join,
    SelectCore,
    SelectNode,
    SetOp,
    SqlExpr,
    SqlQuery,
    Subquery,
    TableRef,
    _clause_exprs,
    normalize_core,
)

SENTINEL_TABLE = "?"


@frozen
class ColumnDef:
    name: str
    type: str
    is_primary_key: bool = False


@frozen
class ForeignKey:
    column: str
    ref_table: str
    ref_column: str


@frozen
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


# (child table, child column, parent table, parent column)
FkEdge = tuple[str, str, str, str]
FromClause = tuple[tuple[TableRef, ...], tuple[Join, ...]]


@record()
class SchemaNodes:
    """The trajectory nodes of a database's columns and the SQL clauses of its
    joins, each built on first use and then shared by every tree that holds
    it: nodes are frozen, so a shared one is as good as a copy. Threads that
    fill one entry at once may each build its node; the nodes are equal, and
    the last one is kept. (SQL `Column`s are shared by `sqlast.column`.)"""

    qualified: dict[tuple[str, str], QualifiedColumn] = field(default_factory=dict)
    ordered: tuple[QualifiedColumn, ...] | None = None
    froms: dict[frozenset[str], FromClause] = field(default_factory=dict)


@frozen
class DatabaseInput:
    """A database's tables. Its lookups, foreign-key edges and schema text
    are built once, when it is constructed, and the trajectory nodes of its
    columns and the clauses of its joins (`SchemaNodes`) on first use; none
    takes part in `==`, `hash` or `repr`. Where a table name repeats, the
    first table of that name is the one looked up."""

    name: str
    tables: tuple[TableDef, ...]
    edges: tuple[FkEdge, ...] = field(init=False, repr=False, compare=False)
    edge_set: frozenset[FkEdge] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, TableDef] = field(init=False, repr=False, compare=False)
    _columns: frozenset[tuple[str, str]] = field(init=False, repr=False, compare=False)
    _primary_keys: dict[str, str | None] = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)
    _nodes: SchemaNodes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, TableDef] = {}
        for tbl in self.tables:
            by_name.setdefault(tbl.name, tbl)
        edges = tuple([(tbl.name, fk.column, fk.ref_table, fk.ref_column)
                       for tbl in self.tables for fk in tbl.foreign_keys])
        built = {
            "edges": edges,
            "edge_set": frozenset(edges),
            "_by_name": by_name,
            "_columns": frozenset([(name, col.name) for name, tbl in by_name.items()
                                   for col in tbl.columns]),
            "_primary_keys": {name: next((c.name for c in tbl.columns if c.is_primary_key), None)
                              for name, tbl in by_name.items()},
            "_text": _render(self),
            "_nodes": SchemaNodes(),
        }
        for key, value in built.items():
            object.__setattr__(self, key, value)

    def table(self, name: str) -> TableDef | None:
        return self._by_name.get(name)

    def has_table(self, name: str) -> bool:
        return name in self._by_name

    def has_column(self, table: str, column: str) -> bool:
        return (table, column) in self._columns

    def primary_key(self, table: str) -> str | None:
        return self._primary_keys.get(table)

    def qualified_column(self, table: str, column: str) -> QualifiedColumn:
        """`QualifiedColumn(table, column)`, one per column of this database.
        A pair that is no column here is built anew on each call, and a name
        `QualifiedColumn` rejects raises its `ValueError` and is never kept."""
        key = (table, column)
        node = self._nodes.qualified.get(key)
        if node is None:
            node = QualifiedColumn(table, column)
            if key in self._columns:
                self._nodes.qualified[key] = node
        return node

    def qualified_columns(self) -> tuple[QualifiedColumn, ...]:
        """Every column of every table as a `QualifiedColumn`, in (table,
        column) order."""
        nodes = self._nodes
        if nodes.ordered is None:
            nodes.ordered = tuple(sorted(
                [self.qualified_column(tbl.name, col.name) for tbl in self.tables
                 for col in tbl.columns], key=lambda c: (c.table, c.column)))
        return nodes.ordered

    def from_clause(self, tables: frozenset[str],
                    build: Callable[[frozenset[str], DatabaseInput], FromClause]) -> FromClause:
        """`build(tables, self)`, the FROM and JOIN clauses that join `tables`,
        kept per table set; an error of `build` is raised and nothing kept."""
        clause = self._nodes.froms.get(tables)
        if clause is None:
            clause = self._nodes.froms[tables] = build(tables, self)
        return clause


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
    return d._text


def _render(d: DatabaseInput) -> str:
    lines = [f"database {_word(d.name)}"]
    for tbl in d.tables:
        lines.append(f"table {_word(tbl.name)}")
        for col in tbl.columns:
            flag = " pk" if col.is_primary_key else ""
            lines.append(f"  column {_word(col.name)} {col.type}{flag}")
        for fk in tbl.foreign_keys:
            lines.append(f"  fk {_word(fk.column)} -> {_word(f'{fk.ref_table}.{fk.ref_column}')}")
        for column, values in tbl.samples:
            lines.append(f"  sample {_word(column)} {_word('|'.join(values))}")
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

@frozen
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


def extract_schema(s: SqlQuery) -> SchemaList:
    """Syntactic extraction of referenced tables and columns from parsed SQL."""
    if s.ast is None:
        raise FormatError(s.parse_error or "query has no AST")
    tables: dict[str, None] = {}  # insertion-ordered sets
    columns: dict[tuple[str, str], None] = {}
    _collect_node(s.ast, tables, columns)
    return SchemaList(tuple(tables), tuple(columns))


def _collect_node(node: SelectNode, tables: dict, columns: dict) -> None:
    if isinstance(node, SetOp):
        _collect_node(node.left, tables, columns)
        _collect_core(node.right, tables, columns)
    else:
        _collect_core(node, tables, columns)


def _collect_core(core: SelectCore, tables: dict, columns: dict) -> None:
    core = normalize_core(core)  # aliases only: no column is qualified
    scope = [t.name for t in core.tables] + [j.table.name for j in core.joins]
    for name in scope:
        tables[name] = None
    for expr in _clause_exprs(core):
        _collect_expr(expr, scope, tables, columns)


def _collect_expr(expr: SqlExpr, scope: list[str], tables: dict, columns: dict) -> None:
    if isinstance(expr, Column):
        if expr.table is not None:
            columns[expr.table, expr.column] = None
        elif len(scope) == 1:
            columns[scope[0], expr.column] = None
        else:
            columns[SENTINEL_TABLE, expr.column] = None
    elif isinstance(expr, Subquery):
        _collect_core(expr.core, tables, columns)
    else:
        for child in expr_children(expr):
            _collect_expr(child, scope, tables, columns)

