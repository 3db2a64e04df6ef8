import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsteps.actions import (
    AggStep,
    Aggregate,
    Arithmetic,
    BindingRef,
    Cast,
    DATE_RE,
    FilterCondition,
    GroupBy,
    OrderBy,
    QualifiedColumn,
    Scalar,
    Select,
    Star,
    Trajectory,
    TrajectoryStep,
    Where,
)
from sqlsteps.errors import BindingError, TrajectorySyntaxError, UnknownActionError
from sqlsteps.schema import DatabaseInput
from sqlsteps.sqlast import MAX_DEPTH, Column, Func, SelectCore, SelectItem, Subquery
from sqlsteps.trajectory import (
    parse_filter_text,
    parse_trajectory,
    render_filter,
    render_trajectory,
    validate_trajectory,
)

from conftest import golden


def roundtrip(text: str) -> Trajectory:
    t = parse_trajectory(text)
    again = parse_trajectory(render_trajectory(t))
    assert again == t
    return t


def test_minimal_select():
    t = roundtrip("res = df.select(t.a)")
    assert len(t.steps) == 1
    assert t.steps[0].chain == (Select((QualifiedColumn("t", "a"),)),)
    assert render_trajectory(t) == "res = df.select(t.a)\n"


def test_case_study_text_parses_to_five_steps():
    t = roundtrip(golden("table9_bam_asprinted.traj"))
    assert len(t.steps) == 5
    assert [s.binding for s in t.steps] == ["df1", "df2", "df3", "df4", "res"]
    last = t.steps[-1].chain[0]
    assert isinstance(last, Select)
    assert last.elements[1] == Aggregate("count", QualifiedColumn("schools", "Year"))


def test_render_is_a_fixed_point():
    t = parse_trajectory(golden("table9_lom.traj"))
    once = render_trajectory(t)
    twice = render_trajectory(parse_trajectory(once))
    assert once == twice == golden("table9_lom.traj")


def test_missing_res_binding():
    with pytest.raises(BindingError):
        parse_trajectory("df1 = df.where(element = t.a, filter = 1)")


def test_res_must_be_last():
    text = "res = df.select(t.a)\ndf1 = df.where(element = t.a, filter = 1)"
    with pytest.raises(BindingError):
        parse_trajectory(text)


def test_forward_reference_rejected():
    text = "df1 = df2.select(t.a)\ndf2 = df.where(element = t.a, filter = 1)\nres = df2.select(t.a)"
    with pytest.raises(BindingError):
        parse_trajectory(text)


@pytest.mark.parametrize("operand", ["df9", "df1"])
def test_filter_operand_must_be_bound_earlier(operand):
    text = f"df1 = df.where(element = t.a, filter = {operand})\nres = df1.select(t.a)"
    with pytest.raises(BindingError, match=f"filter operand '{operand}'"):
        parse_trajectory(text)


def test_binding_is_no_expression():
    with pytest.raises(TrajectorySyntaxError, match="unqualified reference 'df1'"):
        parse_trajectory("df1 = df.select(t.a)\nres = df1.select(df1)")
    with pytest.raises(ValueError, match="binding reference"):
        TrajectoryStep("res", "df", (Select((BindingRef("df1"),)),))


def test_nesting_past_the_limit_is_a_syntax_error():
    deep = "res = df.select(" + "(" * 3000 + "orders.total" + ")" * 3000 + ")"
    with pytest.raises(TrajectorySyntaxError, match=f"nesting deeper than {MAX_DEPTH}") as err:
        parse_trajectory(deep)
    assert (err.value.line, err.value.column) == (1, len("res = df.select(") + MAX_DEPTH + 1)
    at_limit = "res = df.select(" + " + ".join(["t.a"] * (MAX_DEPTH + 1)) + ")"
    roundtrip(at_limit)


def test_sum_of_products_is_held_to_the_limit():
    def total(terms):
        return "res = df.select(" + " + ".join(["t.a * t.b"] * terms) + ")"

    roundtrip(total(MAX_DEPTH))
    with pytest.raises(TrajectorySyntaxError, match="nesting deeper"):
        parse_trajectory(total(MAX_DEPTH + 1))


@pytest.mark.parametrize("target", ["INT", "VARCHAR(20)", "DECIMAL(10,2)"])
def test_cast_type_reads_as_in_sql(target):
    t = roundtrip(f"res = df.select(cast(t.a, {target}))")
    assert t.steps[0].chain[0].elements[0].target_type == target


@pytest.mark.parametrize("target", ["`my type`", "select", "VARCHAR(-1)", "VARCHAR(1.5)"])
def test_cast_type_sql_cannot_read_is_rejected(target):
    with pytest.raises(TrajectorySyntaxError):
        parse_trajectory(f"res = df.select(cast(t.a, {target}))")


@pytest.mark.parametrize("call", ["cast(t.a, INT)", "substr(t.a, 1, 2)"])
def test_cast_and_substr_are_no_step_actions(call):
    # an expression only: no SQL clause stands for either as a step
    with pytest.raises(TrajectorySyntaxError, match=r"cannot stand alone in a step") as err:
        parse_trajectory(f"res = df.select(t.a).{call}")
    assert (err.value.line, err.value.column) == (1, 22)


def test_duplicate_binding_rejected():
    text = "df1 = df.where(element = t.a, filter = 1)\ndf1 = df.where(element = t.b, filter = 2)\nres = df1.select(t.a)"
    with pytest.raises(BindingError):
        parse_trajectory(text)


def test_unknown_action_rejected():
    with pytest.raises(UnknownActionError):
        parse_trajectory("res = df.pivot(t.a)")


def test_action_names_case_insensitive():
    t = parse_trajectory("res = df.SELECT(t.a)")
    assert render_trajectory(t) == "res = df.select(t.a)\n"


def test_identifier_case_preserved():
    t = parse_trajectory("res = df.select(Schools.County)")
    assert render_trajectory(t) == "res = df.select(Schools.County)\n"


def test_avg_alias():
    t = parse_trajectory("res = df.select(avg(t.a))")
    assert render_trajectory(t) == "res = df.select(average(t.a))\n"


def test_nested_aggregate_rejected():
    with pytest.raises(TrajectorySyntaxError):
        parse_trajectory("res = df.select(sum(count(t.a)))")


def test_star_only_in_count_or_select():
    parse_trajectory("res = df.select(*)")
    parse_trajectory("res = df.select(count(*))")
    with pytest.raises(TrajectorySyntaxError):
        parse_trajectory("res = df.select(sum(*))")
    with pytest.raises(TrajectorySyntaxError):
        parse_trajectory("df1 = df.where(element = *, filter = 1)\nres = df1.select(t.a)")


@pytest.mark.parametrize("chain, message", [
    ((Select((Aggregate("sum", Aggregate("count", QualifiedColumn("t", "a"))),)),),
     "aggregate argument contains an aggregate"),
    ((AggStep(Aggregate("max", Cast(Aggregate("min", QualifiedColumn("t", "a")), "real"))),),
     "aggregate argument contains an aggregate"),
    ((Select((Aggregate("sum", Star()),)),), "`*` only allowed"),
    ((AggStep(Aggregate("average", Star())),), "`*` only allowed"),
    ((Select((Arithmetic("+", Star(), Scalar(1, "int")),)),), "`*` only allowed"),
    ((Select((Aggregate("count", Arithmetic("*", Star(), Scalar(2, "int"))),)),),
     "`*` only allowed"),
    ((GroupBy((Star(),)),), "`*` only allowed"),
    ((OrderBy(Star(), "asc"),), "`*` only allowed"),
])
def test_step_rejects_misplaced_star_and_nested_aggregate(chain, message):
    with pytest.raises(ValueError, match=message):
        TrajectoryStep("res", "df", chain)


@pytest.mark.parametrize("sql_node", [
    Column("t", "a"),
    Func("sum", (Column("t", "a"),)),
    Subquery(SelectCore((SelectItem(Column("t", "a")),))),
], ids=["column", "func", "subquery"])
@pytest.mark.parametrize("wrap", [
    lambda node: Cast(node, "real"),
    lambda node: Arithmetic("+", Scalar(1, "int"), node),
    lambda node: Aggregate("sum", Arithmetic("*", node, Scalar(2, "int"))),
], ids=["cast", "arithmetic", "nested"])
def test_step_rejects_a_sql_node_under_a_shared_one(sql_node, wrap):
    # Cast and Arithmetic are shared with SQL trees; what they hold in a step
    # must still be a trajectory node
    with pytest.raises(ValueError, match="is no trajectory expression"):
        TrajectoryStep("res", "df", (Select((wrap(sql_node),)),))
    with pytest.raises(ValueError, match="is no trajectory expression"):
        TrajectoryStep("res", "df", (Select((sql_node,)),))


def test_binding_ref_is_never_df():
    # no step binds `df`, and the text grammar reads a bare `df` operand as a string
    with pytest.raises(ValueError, match="invalid binding name 'df'"):
        BindingRef("df")
    assert parse_filter_text("> df") == FilterCondition(">", (Scalar("df", "string"),))


def test_binding_ref_rejects_a_trailing_newline():
    assert BindingRef("res").name == "res"
    with pytest.raises(ValueError, match="invalid binding name"):
        BindingRef("res\n")


def test_step_names_reject_a_trailing_newline():
    select = (Select((QualifiedColumn("t", "a"),)),)
    assert TrajectoryStep("df1", "df", select).binding == "df1"
    with pytest.raises(ValueError, match="invalid step binding"):
        TrajectoryStep("df1\n", "df", select)
    with pytest.raises(ValueError, match="invalid receiver"):
        TrajectoryStep("df1", "df\n", select)


def test_step_accepts_star_in_select_and_count():
    count_star = Aggregate("count", Star())
    TrajectoryStep("res", "df", (Select((Star(), count_star)),))
    TrajectoryStep("res", "df", (OrderBy(Arithmetic("+", count_star, Scalar(1, "int")), "desc"),
                                 AggStep(count_star), Select((QualifiedColumn("t", "a"),))))


def test_syntax_error_carries_position():
    with pytest.raises(TrajectorySyntaxError) as err:
        parse_trajectory("res = df.select(t.a")
    assert err.value.line == 1


@pytest.mark.parametrize("text, column", [
    ("res = df.select(customers.name).limit(0)", 39),
    ("res = df.select(customers.name).limit(1e5)", 39),
    ("res = df.select(customers.name).limit(2, -1)", 42),
    ("df1 = df.where(t.a, 'between 1 and 2.5')\nres = df1.select(t.a)", 21),
    # `str.isdigit` accepts a superscript two, the number pattern does not
    ("res = df.select(\u00b2)", 17),
    ("res = df.select(-\u00b2)", 18),
    # nor an Arabic-Indic digit, which `int` and `\d` accept
    ("res = df.select(customers.name).limit(\u0661\u0662)", 39),
    ("res = df.select(substr(t.a, 1\u0662))", 30),
    # numbers no value holds
    ("res = df.select(1e999)", 17),
    ("res = df.select(-1e999)", 17),
    pytest.param("res = df.select(" + "1" * 5000 + ")", 17, id="5000-digit-integer"),
    pytest.param("res = df.select(t.a).limit(" + "1" * 5000 + ")", 28, id="5000-digit-limit"),
    ("df1 = df.where(element = t.a, filter = 1e999)\nres = df1.select(t.a)", 40),
    ("df1 = df.where(element = t.a, filter = '> 1e999')\nres = df1.select(t.a)", 40),
])
def test_rejected_action_values_are_syntax_errors(text, column):
    with pytest.raises(TrajectorySyntaxError) as err:
        parse_trajectory(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_backtick_identifiers():
    t = parse_trajectory("res = df.select(`my table`.`a col`)")
    assert render_trajectory(t) == "res = df.select(`my table`.`a col`)\n"


def test_set_operands_and_limit_range():
    text = ("df1 = df.where(element = t.a, filter = 1)\n"
            "df2 = df1.select(t.a)\n"
            "df3 = df.select(u.b)\n"
            "res = df2.union(df3)")
    t = roundtrip(text)
    assert t.steps[-1].chain[0].name == "union"
    t2 = roundtrip("res = df.select(t.a).limit(2, 9)")
    limit = t2.steps[0].chain[1]
    assert (limit.offset, limit.count) == (2, 9)


@pytest.mark.parametrize("filter_text,comparator", [
    ("11", "="),
    ("'male'", "="),
    ("'between 1980-01-01 and 1989-12-31'", "between"),
    ("'>= 5'", ">="),
    ("'!= 3.5'", "!="),
    ("'in (1, 2, 3)'", "in"),
    ("'not in (''a'', ''b'')'", "not in"),
    ("'is null'", "is null"),
    ("'is not null'", "is not null"),
    ("'like %x%'", "like"),
    ("df1", "="),
])
def test_filter_grammar_shapes(filter_text, comparator):
    # a binding operand must name an earlier step: df1
    text = (f"df1 = df.select(u.b)\ndf2 = df.where(element = t.a, filter = {filter_text})\n"
            "res = df2.select(t.a)")
    t = roundtrip(text)
    where = t.steps[1].chain[0]
    assert isinstance(where, Where)
    assert where.condition.comparator == comparator


def test_between_requires_matching_kinds():
    with pytest.raises(ValueError):
        FilterCondition("between", (Scalar(1, "int"), Scalar("a", "string")))


def test_filter_text_the_condition_rejects_is_a_syntax_error():
    with pytest.raises(TrajectorySyntaxError, match="between bounds must share") as err:
        parse_filter_text("between 1 and x", 3, 9)
    assert (err.value.line, err.value.column) == (3, 9)


def test_filter_equality_text_that_looks_structured_roundtrips():
    # equality strings beginning with a comparator keyword need the escaped form
    cond = FilterCondition("=", (Scalar("between a and b", "string"),))
    rendered = render_filter(cond)
    assert parse_filter_text(rendered[1:-1].replace("''", "'")) == cond


@pytest.mark.parametrize("operand", ["\u0661\u0662", "1\u0662", "\u00b2",
                                     "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0661"])
def test_filter_operand_of_non_ascii_digits_is_a_string(operand):
    # as SQLite reads it: `= '١٢'`, never the number twelve or a date
    cond = parse_filter_text(f"= {operand}")
    assert cond.operands == (Scalar(operand, "string"),)
    assert parse_filter_text(render_filter(cond)[1:-1].replace("''", "'")) == cond


@pytest.mark.parametrize("digit", ["٠", "０", "०"])
def test_a_binding_number_in_other_decimal_digits_is_no_binding(digit):
    """A binding number is of ASCII digits, as every number of the grammars."""
    name = f"df{digit}"
    with pytest.raises(TrajectorySyntaxError, match="invalid binding"):
        parse_trajectory(f"{name} = df.where(element = orders.id, filter = '> 1')\n"
                         f"res = {name}.select(orders.id)")
    with pytest.raises(ValueError, match="invalid binding name"):
        BindingRef(name)
    # as a filter operand it is a string, not a reference
    cond = parse_filter_text(f"= {name}")
    assert cond.operands == (Scalar(name, "string"),)
    assert parse_filter_text(render_filter(cond)[1:-1].replace("''", "'")) == cond


def test_unparseable_filter_is_a_syntax_error():
    with pytest.raises(TrajectorySyntaxError):
        parse_trajectory("df1 = df.where(element = t.a, filter = 'between 1')\nres = df1.select(t.a)")


# --- validation ----------------------------------------------------------------

def test_validate_clean_trajectory(schools):
    t = parse_trajectory(golden("table9_sam.traj"))
    assert validate_trajectory(t, schools) == []


def test_validate_flags_unknown_column(schools):
    t = parse_trajectory(golden("table9_bam_asprinted.traj"))
    trimmed = DatabaseInput(
        name="schools",
        tables=tuple(
            type(tbl)(tbl.name, tuple(c for c in tbl.columns if c.name != "Year"),
                      tbl.foreign_keys, tbl.samples)
            for tbl in schools.tables),
    )
    # repeated occurrences of schools.Year collapse
    assert validate_trajectory(t, trimmed) == ["column schools.Year not in database 'schools'"]


def test_validate_empty_schema_one_finding_per_table():
    text = ("df1 = df.where(element = t.a, filter = 1)\n"
            "res = df1.select(t.a, u.b)")
    assert validate_trajectory(parse_trajectory(text), DatabaseInput("empty", ())) == [
        "table 't' not in database 'empty'", "table 'u' not in database 'empty'"]


# --- property tests -----------------------------------------------------------------

_columns = st.sampled_from([QualifiedColumn("t", "a"), QualifiedColumn("t", "b"),
                            QualifiedColumn("u", "c")])
_scalars = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
).map(Scalar.of)


def _filters(scalar: Scalar) -> st.SearchStrategy[FilterCondition]:
    shapes = [
        st.just(FilterCondition("=", (scalar,))),
        st.just(FilterCondition(">", (scalar,))),
        st.just(FilterCondition("in", (scalar, scalar))),
        st.just(FilterCondition("is null", ())),
        st.just(FilterCondition("between", (scalar, scalar))),
    ]
    return st.one_of(shapes)


_conditions = _scalars.flatmap(_filters)


@settings(max_examples=150, deadline=None)
@given(column=_columns, cond=_conditions, order=st.sampled_from(["asc", "desc"]))
def test_parse_render_fixed_point_property(column, cond, order):
    steps = (
        TrajectoryStep("df1", "df", (Where(column, cond),)),
        TrajectoryStep("df2", "df1", (Where(QualifiedColumn("t", "b"), cond),)),
        TrajectoryStep("res", "df2", (Select((column, Aggregate("count", column))),)),
    )
    t = Trajectory(steps)
    text = render_trajectory(t)
    assert parse_trajectory(text) == t
    assert render_trajectory(parse_trajectory(text)) == text


@settings(max_examples=100, deadline=None)
@given(value=st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                     max_size=20))
def test_equality_filter_text_roundtrip(value):
    cond = FilterCondition("=", (Scalar.of(value),))
    text = ("df1 = df.where(element = t.a, filter = " + render_filter(cond)
            + ")\nres = df1.select(t.a)")
    where = parse_trajectory(text).steps[0].chain[0]
    assert where.condition == cond


def test_date_scalars_detected():
    assert Scalar.of("1980-01-01").kind == "date"
    assert DATE_RE.match("1980-01-01")
    assert Scalar.of("not a date").kind == "string"


def test_a_date_with_a_trailing_newline_is_a_string():
    # a date scalar renders bare, so this one would span two lines
    assert Scalar.of("2020-01-01\n") == Scalar("2020-01-01\n", "string")
    assert Scalar.of("2020-01-01x").kind == "string"
