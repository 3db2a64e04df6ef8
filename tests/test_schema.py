import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsteps.errors import FormatError
from sqlsteps.schema import (
    SENTINEL_TABLE,
    ColumnDef,
    DatabaseInput,
    ForeignKey,
    TableDef,
    extract_schema,
    parse_database_text,
    render_database_input,
)
from sqlsteps.sqlast import parse_sql

from conftest import golden


def test_parse_and_render_schema_roundtrip(store):
    text = render_database_input(store)
    again = parse_database_text(text)
    assert again == store


def test_database_name_from_header():
    d = parse_database_text("database zoo\ntable pens\n  column id int pk")
    assert d.name == "zoo"


def test_empty_tables_rejected():
    with pytest.raises(FormatError):
        parse_database_text("database nothing\n")


def test_fk_to_missing_table_rejected():
    with pytest.raises(FormatError):
        parse_database_text("""
table a
  column id int pk
  column b_id int
  fk b_id -> b.id
""")


def test_double_primary_key_rejected():
    with pytest.raises(FormatError):
        parse_database_text("table a\n  column x int pk\n  column y int pk")


def test_samples_capped_at_three():
    with pytest.raises(FormatError):
        parse_database_text("table a\n  column x int\n  sample x 1|2|3|4")


def test_format_error_carries_line():
    with pytest.raises(FormatError) as err:
        parse_database_text("table a\n  column x int\n  bogus y")
    assert err.value.line == 3


def test_backticked_names():
    d = parse_database_text("table `my table`\n  column `a col` text")
    assert d.tables[0].name == "my table"
    assert d.tables[0].columns[0].name == "a col"
    assert "`my table`" in render_database_input(d)
    # a backticked word of sample values or a foreign-key target renders
    # backticked too, so the rendered text parses back to the same value
    for text in ["table a\n  column x text\n  sample x `a b|c`",
                 "table `my t`\n  column id int pk\ntable b\n  column tid int\n"
                 "  fk tid -> `my t.id`"]:
        d = parse_database_text(text)
        assert parse_database_text(render_database_input(d)) == d
    assert d.tables[1].foreign_keys[0].ref_table == "my t"


def test_extract_schema_case_study():
    schema_list = extract_schema(parse_sql(golden("table9_initial.sql")))
    assert schema_list.tables == ("schools",)
    assert set(schema_list.columns) == {("schools", "County"), ("schools", "Year"),
                                        ("schools", "SOC")}


def test_extract_schema_select_literal_is_empty():
    schema_list = extract_schema(parse_sql("SELECT 1"))
    assert schema_list.tables == () and schema_list.columns == ()


def test_extract_schema_sentinel_for_unresolvable():
    schema_list = extract_schema(parse_sql("SELECT a FROM t JOIN u ON t.id = u.id"))
    assert schema_list.tables == ("t", "u")
    assert schema_list.columns == ((SENTINEL_TABLE, "a"), ("t", "id"), ("u", "id"))


def test_extract_schema_first_appearance_order():
    schema_list = extract_schema(parse_sql(
        "SELECT t.b FROM t WHERE t.a = 1 GROUP BY t.b ORDER BY t.c"))
    assert schema_list.columns == (("t", "b"), ("t", "a"), ("t", "c"))


def test_extract_schema_resolves_aliases():
    schema_list = extract_schema(parse_sql("SELECT c.name FROM customers c"))
    assert schema_list.columns == (("customers", "name"),)


def test_extract_schema_includes_subquery_scope():
    schema_list = extract_schema(parse_sql(
        "SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)"))
    assert schema_list.tables == ("t", "u")
    assert ("u", "b") in schema_list.columns


def test_render_schema_list():
    schema_list = extract_schema(parse_sql("SELECT t.a FROM t"))
    assert schema_list.render() == "tables: t; columns: t.a"


def test_extraction_idempotent_across_round_trip(store):
    from sqlsteps.bridge import decompose, revert
    from sqlsteps.querygen import enumerate_queries

    for sql in enumerate_queries()[::17]:
        original = parse_sql(sql)
        reverted = revert(decompose(original, store), store)
        a = extract_schema(original)
        b = extract_schema(reverted)
        assert set(a.tables) == set(b.tables)
        assert set(a.columns) == set(b.columns)


# --- lookups built once agree with a scan over the tables ----------------------

def _scan_table(d, name):
    return next((t for t in d.tables if t.name == name), None)


def _scan_render(d):
    """The schema text as rendered before it was built once per database."""
    def word(name):
        return f"`{name}`" if " " in name else name
    lines = [f"database {word(d.name)}"]
    for tbl in d.tables:
        lines.append(f"table {word(tbl.name)}")
        for col in tbl.columns:
            lines.append(f"  column {word(col.name)} {col.type}{' pk' if col.is_primary_key else ''}")
        for fk in tbl.foreign_keys:
            lines.append(f"  fk {word(fk.column)} -> {word(fk.ref_table + '.' + fk.ref_column)}")
        for column, values in tbl.samples:
            lines.append(f"  sample {word(column)} {word('|'.join(values))}")
    return "\n".join(lines) + "\n"


def _check_lookups(d):
    names = {t.name for t in d.tables} | {"nope", ""}
    columns = {c.name for t in d.tables for c in t.columns} | {"nope"}
    for name in names:
        tbl = _scan_table(d, name)
        assert d.table(name) is tbl
        assert d.has_table(name) == (tbl is not None)
        pk = None if tbl is None else next(
            (c.name for c in tbl.columns if c.is_primary_key), None)
        assert d.primary_key(name) == pk
        for column in columns:
            assert d.has_column(name, column) == (
                tbl is not None and any(c.name == column for c in tbl.columns))
    scan = [(t.name, fk.column, fk.ref_table, fk.ref_column)
            for t in d.tables for fk in t.foreign_keys]
    assert d.edges == tuple(scan) and d.edge_set == set(scan)
    assert render_database_input(d) == _scan_render(d)


def test_lookups_agree_with_a_scan_on_every_fixture_schema(schemas):
    assert len(schemas) == 5
    for d in schemas.values():
        _check_lookups(d)


_names = st.sampled_from(["a", "b", "c", "my table"])
_tables = st.builds(
    TableDef,
    name=_names,
    columns=st.lists(st.builds(ColumnDef, _names, st.sampled_from(["int", "text"]),
                               st.booleans()), max_size=4).map(tuple),
    foreign_keys=st.lists(st.builds(ForeignKey, _names, _names, _names), max_size=2).map(tuple),
    samples=st.lists(st.tuples(_names, st.lists(st.sampled_from(["x", "y"]), max_size=3)
                               .map(tuple)), max_size=2).map(tuple))


@settings(max_examples=200, deadline=None)
@given(name=_names, tables=st.lists(_tables, max_size=4).map(tuple))
def test_lookups_agree_with_a_scan_on_generated_schemas(name, tables):
    # duplicate tables, several primary keys and dangling foreign keys
    # included: the first table of a name is the one looked up
    _check_lookups(DatabaseInput(name, tables))


def test_built_lookups_take_no_part_in_eq_hash_or_repr(store):
    twin = DatabaseInput(store.name, store.tables)
    assert twin == store and twin is not store
    assert hash(twin) == hash(store) == hash((store.name, store.tables))
    assert repr(store) == f"DatabaseInput(name={store.name!r}, tables={store.tables!r})"
    assert DatabaseInput(store.name, store.tables[:1]) != store
    # replace() builds the lookups of the new tables
    (customers,) = [t for t in store.tables if t.name == "customers"]
    narrowed = dataclasses.replace(store, tables=(customers,))
    assert narrowed.has_table("customers") and not narrowed.has_table("orders")
    assert narrowed.edges == ()
