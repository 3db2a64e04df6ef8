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
    FilterCondition,
    QualifiedColumn,
    Scalar,
    Select,
    Trajectory,
    TrajectoryStep,
    Where,
)
from sqlsteps.masking import (
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
    # the literal spells the placeholder of the second column, which the first
    # column's slot precedes in render order; the placeholder table is made
    # longer until the text holds it nowhere, so slot 1 stays in its place
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
