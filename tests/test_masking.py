import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsteps.bridge import decompose
from sqlsteps.errors import (
    ArityMismatchError,
    FormatError,
    KindMismatchError,
    SchemaMismatchError,
    TrajectorySyntaxError,
)
from sqlsteps.actions import (
    AGGREGATE_KINDS,
    ARITHMETIC_OPS,
    Aggregate,
    Arithmetic,
    Cast,
    FilterCondition,
    OrderBy,
    QualifiedColumn,
    Scalar,
    Select,
    Trajectory,
    TrajectoryStep,
    Where,
)
from sqlsteps.masking import (
    MASK_TOKEN_RE,
    fill_mask,
    mask_schema,
    parse_masked_template,
    recover_slot_values,
)
from sqlsteps.querygen import random_queries, store_database
from sqlsteps.sqlast import parse_sql
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import generated_seeds, golden


def test_single_slot(schools):
    masked = mask_schema(parse_trajectory("res = df.select(t.a)"))
    assert masked.template == "res = df.select([MASK:0])\n"
    assert [(s.index, s.kind, s.value) for s in masked.slots] == [(0, "column", "t.a")]


def test_a_literal_that_reads_as_a_mask_token_cannot_be_masked():
    t = parse_trajectory("df1 = df.where(element = t.a, filter = '[MASK:0]')\n"
                         "res = df1.select(t.b)")
    with pytest.raises(FormatError, match="already holds a mask token"):
        mask_schema(t)


def test_a_literal_that_spells_a_placeholder_still_masks(store):
    # a literal that spells a `table.column` stays text: only the column
    # occurrences of the trajectory become slots, in render order
    where = Where(QualifiedColumn("customers", "name"),
                  FilterCondition("=", (Scalar("xmaskx.s1", "string"),)))
    select = Select((QualifiedColumn("customers", "city"),))
    t = Trajectory((TrajectoryStep("df1", "df", (where,)),
                    TrajectoryStep("res", "df1", (select,))))
    masked = mask_schema(t)
    assert masked.template == ("df1 = df.where(element = [MASK:0], filter = 'xmaskx.s1')\n"
                               "res = df1.select([MASK:1])\n")
    assert masked.slot_values() == ["customers.name", "customers.city"]
    assert fill_mask(masked, masked.slot_values(), store) == t


def test_case_study_masking_has_seven_slots():
    masked = mask_schema(parse_trajectory(golden("table9_bam_asprinted.traj")))
    assert len(masked.slots) == 7
    assert masked.slot_values() == [
        "schools.Year", "schools.SOC", "schools.County", "schools.Year",
        "schools.Year", "schools.County", "schools.Year",
    ]
    for name in ("schools", "County", "Year", "SOC"):
        assert name not in masked.template


def test_bare_template_strips_indices():
    masked = mask_schema(parse_trajectory("res = df.select(t.a, t.b)"))
    assert masked.bare_template() == "res = df.select([MASK], [MASK])\n"


def test_positions_point_at_original_occurrences(store):
    wide = ", ".join(["t.`first name`"] + [f"t.c{i}" for i in range(1, 12)])
    trajectories = [
        parse_trajectory("df1 = df.where(element = t.a, filter = 1)\nres = df1.select(t.b)"),
        parse_trajectory(f"df1 = df.orderby(by = (t.a + t.bb), desc)\nres = df1.select({wide})"),
    ]
    trajectories += [decompose(parse_sql(seed.gold_sql), store) for seed in generated_seeds()]
    assert len(trajectories[1].columns()) == 14  # slots 1 and 10..13 share a prefix
    for t in trajectories:
        source = render_trajectory(t)
        masked = mask_schema(t)
        assert len(masked.slots) == len(t.columns())
        for slot in masked.slots:
            assert source[slot.position:slot.position + len(slot.value)] == slot.value


def test_fill_restores_case_study_correction(schools):
    masked = mask_schema(parse_trajectory(golden("table9_bam_asprinted.traj")))
    corrected = [v.replace("schools.Year", "schools.ClosedDate")
                 for v in masked.slot_values()]
    filled = fill_mask(masked, corrected, schools)
    assert render_trajectory(filled) == golden("table9_sam.traj")


def test_fill_arity_mismatch(schools):
    masked = mask_schema(parse_trajectory("res = df.select(schools.SOC)"))
    with pytest.raises(ArityMismatchError):
        fill_mask(masked, ["schools.SOC", "schools.County"], schools)


def test_fill_kind_mismatch(schools):
    masked = mask_schema(parse_trajectory("res = df.select(schools.SOC)"))
    with pytest.raises(KindMismatchError):
        fill_mask(masked, ["schools"], schools)


def test_fill_unknown_column_names_slot(schools):
    masked = mask_schema(parse_trajectory(golden("table9_bam_asprinted.traj")))
    wrong = list(masked.slot_values())
    wrong[0] = "schools.Bogus"
    with pytest.raises(SchemaMismatchError) as err:
        fill_mask(masked, wrong, schools)
    assert "slot 0" in str(err.value)


def test_literal_resembling_column_not_masked(schools):
    text = ("df1 = df.where(element = schools.County, filter = 'schools.County')\n"
            "res = df1.select(schools.County)")
    t = parse_trajectory(text)
    masked = mask_schema(t)
    assert len(masked.slots) == 2  # the quoted literal stays untouched
    assert "'schools.County'" in masked.template
    assert render_trajectory(fill_mask(masked, masked.slot_values(), schools)) == \
        render_trajectory(t)


def test_parse_masked_template_rejects_gaps():
    with pytest.raises(FormatError):
        parse_masked_template("res = df.select([MASK:1])\n")


def test_overlong_slot_index_is_no_token(store):
    text = "res = df.select([MASK:" + "1" * 5000 + "])\n"
    masked = parse_masked_template(text)
    assert masked.slots == ()
    with pytest.raises(FormatError):
        recover_slot_values(text, "res = df.select(customers.id)\n")
    with pytest.raises(TrajectorySyntaxError):
        fill_mask(masked, [], store)


@pytest.mark.parametrize("digit", ["٠", "０", "०"])
def test_a_slot_index_in_other_decimal_digits_is_no_token(digit, store):
    """A slot index is of ASCII digits, as every number of the grammars."""
    text = f"res = df.select([MASK:{digit}])\n"
    masked = parse_masked_template(text)
    assert masked.slots == ()
    assert masked.bare_template() == text
    with pytest.raises(FormatError):
        recover_slot_values(text, "res = df.select(customers.id)\n")
    with pytest.raises(TrajectorySyntaxError):
        fill_mask(masked, [], store)


def test_recover_slot_values_roundtrip():
    t = parse_trajectory(golden("table9_bam_asprinted.traj"))
    masked = mask_schema(t)
    recovered = recover_slot_values(masked.template, render_trajectory(t))
    assert recovered == masked.slot_values()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mask_fill_inverse_property(seed):
    d = store_database()
    sql = random_queries(1, seed)[0]
    t = decompose(parse_sql(sql), d)
    masked = mask_schema(t)
    filled = fill_mask(masked, masked.slot_values(), d)
    assert render_trajectory(filled) == render_trajectory(t)


def test_masking_leaves_non_schema_tokens(schools):
    t = parse_trajectory(golden("table9_bam_asprinted.traj"))
    masked = mask_schema(t)
    for token in ("where", "groupby", "orderby", "limit(1)", "desc",
                  "'between 1980-01-01 and 1989-12-31'", "11"):
        assert token in masked.template


STORE = store_database()
COLUMNS = [QualifiedColumn(table.name, column.name)
           for table in STORE.tables for column in table.columns]
# pieces of a mask token, a column spelled as text, and quotes, so that a
# literal can read as a token, as a column or as the end of a literal
LITERAL_PIECES = ["[MASK:", "]", "0", "1", "xmaskx.s1", "customers.name",
                  "'", "''", '"', "`", " ", "a"]

_literals = st.lists(st.sampled_from(LITERAL_PIECES), max_size=5).map(
    lambda pieces: Scalar("".join(pieces), "string"))
_leaves = st.one_of(st.sampled_from(COLUMNS), _literals,
                    st.integers(0, 99).map(lambda n: Scalar(n, "int")))
_plain = st.recursive(_leaves, lambda inner: st.one_of(
    st.builds(Arithmetic, st.sampled_from(ARITHMETIC_OPS), inner, inner),
    st.builds(Cast, inner, st.sampled_from(["int", "real", "text"]))), max_leaves=4)
# no aggregate inside an aggregate
_exprs = st.recursive(st.one_of(_leaves, st.builds(Aggregate, st.sampled_from(AGGREGATE_KINDS),
                                                   _plain)), lambda inner: st.one_of(
    st.builds(Arithmetic, st.sampled_from(ARITHMETIC_OPS), inner, inner),
    st.builds(Cast, inner, st.sampled_from(["int", "real", "text"]))), max_leaves=6)
_filters = st.one_of(
    st.builds(Where, _exprs, _literals.map(lambda lit: FilterCondition("=", (lit,)))),
    st.builds(OrderBy, _exprs, st.sampled_from(["asc", "desc"])))


@st.composite
def _trajectories(draw) -> Trajectory:
    """Steps chained onto one frame: wheres and orderbys, and one select."""
    actions = draw(st.lists(_filters, max_size=8))
    actions.insert(draw(st.integers(0, len(actions))),
                   Select(tuple(draw(st.lists(_exprs, min_size=1, max_size=3)))))
    cuts = sorted(draw(st.sets(st.integers(1, len(actions) - 1), max_size=2))) \
        if len(actions) > 1 else []
    chains = [tuple(actions[a:b]) for a, b in zip([0, *cuts], [*cuts, len(actions)])]
    bindings = [f"df{i}" for i in range(1, len(chains))] + ["res"]
    return Trajectory(tuple(TrajectoryStep(binding, receiver, chain) for binding, receiver, chain
                            in zip(bindings, ["df", *bindings], chains)))


@settings(max_examples=300, deadline=None)
@given(t=_trajectories())
def test_template_fills_back_to_the_trajectory(t):
    source = render_trajectory(t)
    if MASK_TOKEN_RE.search(source):
        with pytest.raises(FormatError):
            mask_schema(t)
        return
    masked = mask_schema(t)
    values = masked.slot_values()
    assert MASK_TOKEN_RE.sub(lambda m: values[int(m.group(1))], masked.template) == source
    for slot in masked.slots:
        assert source[slot.position:slot.position + len(slot.value)] == slot.value
    assert fill_mask(masked, values, STORE) == t


@pytest.mark.parametrize("template", ["res = df.select([MASK:1])\n",
                                      "res = df.select([MASK:0], [MASK:0])\n"])
def test_recover_slot_values_rejects_indices_that_are_not_contiguous(template):
    with pytest.raises(FormatError, match="not contiguous"):
        recover_slot_values(template, "res = df.select(customers.id, customers.id)\n")
