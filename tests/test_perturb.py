import random

import pytest

from sqlsteps.actions import (
    AggStep,
    Aggregate,
    Arithmetic,
    Cast,
    Distinct,
    GroupBy,
    Limit,
    OrderBy,
    QualifiedColumn,
    Scalar,
    Star,
    Where,
)
from sqlsteps.bridge import decompose, revert
from sqlsteps import perturb
from sqlsteps.errors import (BindingError, JoinPathNotFoundError, NoViablePerturbationError,
                             SqlStepsError)
from sqlsteps.perturb import (
    ADD,
    DELETE,
    KINDS,
    SUBSTITUTE,
    PerturbationConfig,
    PerturbationRecord,
    _AddCandidates,
    _Edit,
    _delete_candidates,
    _swap_column,
    augment,
    inject_negatives,
    perturb_once,
    stream_rng,
)
from sqlsteps.schema import parse_database_text
from sqlsteps.sqlast import parse_sql
from sqlsteps.trajectory import parse_trajectory, render_trajectory

from conftest import generated_seeds, golden

# pinned seeds reproducing the three published before/after pairs
GOLDEN_SEEDS = {ADD: 32, DELETE: 1, SUBSTITUTE: 1}
GOLDEN_SCHEMA = {ADD: "cinema", DELETE: "social", SUBSTITUTE: "retail"}


def _golden_rng(seed: int) -> random.Random:
    return random.Random(f"golden:{seed}")


@pytest.mark.parametrize("kind,name", [(ADD, "add"), (DELETE, "delete"),
                                       (SUBSTITUTE, "substitute")])
def test_published_pairs_reproduced(kind, name, schemas):
    before = parse_trajectory(golden(f"table1_{name}_before.traj"))
    after = parse_trajectory(golden(f"table1_{name}_after.traj"))
    seed = GOLDEN_SEEDS[kind]
    got, record = perturb_once(before, kind, _golden_rng(seed), schemas[GOLDEN_SCHEMA[kind]],
                               seed=seed)
    assert render_trajectory(got) == render_trajectory(after)
    assert record.kind == kind


def test_record_invariants():
    with pytest.raises(ValueError):
        PerturbationRecord(ADD, (0, 0), before="x", after="y", seed=0)
    with pytest.raises(ValueError):
        PerturbationRecord(DELETE, (0, 0), before=None, after="y", seed=0)
    with pytest.raises(ValueError):
        PerturbationRecord(SUBSTITUTE, (0, 0), before="same", after="same", seed=0)


def test_delete_requires_two_actions(store):
    t = parse_trajectory("res = df.select(customers.name)")
    with pytest.raises(NoViablePerturbationError):
        perturb_once(t, DELETE, random.Random(0), store)


@pytest.mark.parametrize("kind,delta", [(ADD, 1), (DELETE, -1), (SUBSTITUTE, 0)])
def test_action_count_arity(kind, delta, schools):
    t = parse_trajectory(golden("table9_bam_asprinted.traj"))
    for i in range(60):
        got, _ = perturb_once(t, kind, random.Random(f"arity:{i}"), schools, seed=i)
        assert got.action_count() - t.action_count() == delta
        assert render_trajectory(got) != render_trajectory(t)
        parse_trajectory(render_trajectory(got))  # structural validity


def test_perturbation_never_renders_equal(schools):
    t = parse_trajectory(golden("table9_sam.traj"))
    for i in range(90):
        kind = KINDS[i % 3]
        got, _ = perturb_once(t, kind, random.Random(f"ne:{i}"), schools, seed=i)
        assert render_trajectory(got) != render_trajectory(t)


def test_augment_counts_and_distinctness(schools):
    t = parse_trajectory(golden("table9_sam.traj"))
    cfg = PerturbationConfig(k=3, seed=11)
    report = augment([t], cfg, schools)
    assert len(report.pairs) == 3
    assert not report.skipped
    rendered = {render_trajectory(p.erroneous) for p in report.pairs}
    assert len(rendered) == 3  # pairwise distinct
    for pair in report.pairs:
        assert render_trajectory(pair.verified) == render_trajectory(t)


def test_augment_forced_substitute(schools):
    t = parse_trajectory(golden("table9_sam.traj"))
    cfg = PerturbationConfig(k=1, weights=(0.0, 0.0, 1.0), seed=5)
    report = augment([t], cfg, schools)
    assert len(report.pairs) == 1
    assert report.pairs[0].record.kind == SUBSTITUTE


def test_augment_empty_input(schools):
    report = augment([], PerturbationConfig(seed=1), schools)
    assert report.pairs == [] and report.skipped == []


def test_augment_deterministic(schools):
    t = parse_trajectory(golden("table9_sam.traj"))
    cfg = PerturbationConfig(k=4, seed=99)
    first = [(render_trajectory(p.erroneous), p.record) for p in augment([t], cfg, schools).pairs]
    second = [(render_trajectory(p.erroneous), p.record) for p in augment([t], cfg, schools).pairs]
    assert first == second


def test_stream_rng_is_order_independent():
    a = stream_rng(7, 3, 1).random()
    _ = stream_rng(7, 0, 0).random()
    b = stream_rng(7, 3, 1).random()
    assert a == b


def test_config_weight_validation():
    with pytest.raises(ValueError):
        PerturbationConfig(weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        PerturbationConfig(weights=(-0.5, 1.0, 0.5))


def test_inject_negatives_exact_ratio(store):
    verified = parse_trajectory("res = df.select(customers.name)")
    erroneous = parse_trajectory("res = df.select(customers.city)")
    for n, expected in [(8, 2), (4, 1), (0, 0), (3, 0), (100, 25)]:
        pairs = [(erroneous, verified)] * n
        out = inject_negatives(pairs, ratio=4.0, seed=3)
        identities = [p for p in out if render_trajectory(p[0]) == render_trajectory(p[1])]
        assert len(out) == n + expected
        assert len(identities) == expected


def test_inject_negatives_shuffle_deterministic(store):
    verified = parse_trajectory("res = df.select(customers.name)")
    erroneous = parse_trajectory("res = df.select(customers.city)")
    pairs = [(erroneous, verified)] * 9
    first = inject_negatives(pairs, seed=42)
    second = inject_negatives(pairs, seed=42)
    assert [(render_trajectory(a), render_trajectory(b)) for a, b in first] == \
        [(render_trajectory(a), render_trajectory(b)) for a, b in second]


def test_delete_of_whole_step_repoints_receivers(schools):
    t = parse_trajectory(golden("table1_delete_before.traj"))
    found = False
    for i in range(40):
        got, record = perturb_once(t, DELETE, random.Random(f"rp:{i}"), schools, seed=i)
        if record.site == (0, 0):
            found = True
            assert got.steps[0].receiver == "df"
    assert found


def test_swap_column_swaps_only_the_first_swappable_column():
    d = parse_database_text("table a\n  column x int\ntable b\n  column y int\n  column z int\n")
    x, y, z = QualifiedColumn("a", "x"), QualifiedColumn("b", "y"), QualifiedColumn("b", "z")
    unknown = QualifiedColumn("q", "x")
    # a.x has no sibling column and q is not a table: the right operand is swapped
    assert _swap_column(Arithmetic("+", x, y), d) == Arithmetic("+", x, z)
    assert _swap_column(Arithmetic("+", unknown, y), d) == Arithmetic("+", unknown, z)
    assert _swap_column(Arithmetic("+", y, y), d) == Arithmetic("+", z, y)
    x_minus_1 = Arithmetic("-", x, Scalar(1, "int"))
    nested = Aggregate("sum", Cast(Arithmetic("*", x_minus_1, y), "real"))
    assert _swap_column(nested, d) == Aggregate(
        "sum", Cast(Arithmetic("*", x_minus_1, z), "real"))
    assert _swap_column(Arithmetic("+", x, unknown), d) is None
    assert _swap_column(Scalar(1, "int"), d) is None


@pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                     (0.0, 0.0, 1.0)])
def test_every_augment_output_parses_back_to_itself(store, weights):
    # perturb_once returns the edited value itself: its text must parse back to it
    verified = [decompose(parse_sql(seed.gold_sql), store) for seed in generated_seeds()]
    report = augment(verified, PerturbationConfig(k=3, weights=weights, seed=7), store)
    assert len(report.pairs) > 200
    for pair in report.pairs:
        assert parse_trajectory(render_trajectory(pair.erroneous)) == pair.erroneous
        assert pair.erroneous != pair.verified


@pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                     (0.0, 0.0, 1.0)])
def test_every_augment_output_reverts_or_has_no_join_path(fixture_seeds, schemas, weights):
    # as the decomposition of a SQL query, which a logic correction gets at
    # inference, every perturbation reverts; only a join path the schema lacks
    # (a groupby on a table no foreign key reaches) is left to `revert`
    reverted = 0
    for seed in generated_seeds() + list(fixture_seeds):
        d = schemas[seed.db]
        try:
            verified = decompose(parse_sql(seed.gold_sql), d)
        except SqlStepsError:
            continue
        for pair in augment([verified], PerturbationConfig(k=3, weights=weights, seed=7), d).pairs:
            try:
                sql = revert(pair.erroneous, d).text
            except JoinPathNotFoundError:
                continue
            assert parse_sql(sql).ast is not None
            reverted += 1
    assert reverted > 200


def test_count_star_is_substituted_only_by_valid_steps():
    # sum(*), average(*), min(*) and max(*) are rewrites of count(*) that the
    # step type rejects; they are drawn again, and never returned
    t = parse_trajectory("df1 = df.groupby(t.a).count(*)\nres = df1.select(t.a)")
    count_star = AggStep(Aggregate("count", Star()))
    d = parse_database_text("table t\n  column a int\n  column b int\n")
    for i in range(30):
        got, record = perturb_once(t, SUBSTITUTE, random.Random(f"star:{i}"), d, seed=i)
        assert got.steps[0].chain[1] == count_star
        assert record.before != "count(*)"
        assert parse_trajectory(render_trajectory(got)) == got
    alone = parse_database_text("table t\n  column a int\n")  # no sibling column to swap in
    with pytest.raises(NoViablePerturbationError):
        perturb_once(t, SUBSTITUTE, random.Random("star"), alone)


def _eager_add_candidates(t, d) -> list[_Edit]:
    """Every add edit built at once, in the order `rng.choice` draws from."""
    edits = []
    columns = sorted((QualifiedColumn(tbl.name, col.name) for tbl in d.tables
                      for col in tbl.columns), key=lambda c: (c.table, c.column))
    referenced = sorted(set(t.columns()), key=lambda c: (c.table, c.column))
    for idx in range(len(t.steps)):
        actions = [GroupBy((col,)) for col in columns]
        for col in referenced:
            actions += [Distinct(col), OrderBy(col, "asc")]
        edits += [_Edit((idx, 0), None, a, ("insert_step", idx, (a,))) for a in actions]
    for idx, step in enumerate(t.steps):
        for pos, action in enumerate(step.chain):
            if isinstance(action, Where):
                edits.append(_Edit((idx, pos), None, action, ("insert_step", idx, (action,))))
            if isinstance(action, OrderBy) and not any(isinstance(a, Limit) for a in step.chain):
                edits.append(_Edit((idx, len(step.chain)), None, Limit(1),
                                   ("append", idx, Limit(1))))
    return edits


def test_add_candidates_are_built_as_drawn(schemas, store):
    queries = [seed.gold_sql for seed in generated_seeds()]
    for d in (store, schemas["schools"]):
        for sql in queries[:30] + [golden("table9_gold.sql")]:
            try:
                t = decompose(parse_sql(sql), d)
            except SqlStepsError:
                continue
            lazy = _AddCandidates(t, d)
            assert [lazy[i] for i in range(len(lazy))] == _eager_add_candidates(t, d)


def _all_candidates(t, d):
    adds = _AddCandidates(t, d)
    return [adds[i] for i in range(len(adds))] + _delete_candidates(t)


def test_an_edit_marked_doomed_is_one_the_types_reject(store, schemas):
    """A groupby insert into a frame that groups, and the drop of a groupby
    that an aggregate or a having needs, are marked and never built; every
    groupby edit the types reject is marked."""
    marked = 0
    for d in (store, schemas["schools"]):
        for sql in [seed.gold_sql for seed in generated_seeds(200)] + [golden("table9_gold.sql")]:
            try:
                t = decompose(parse_sql(sql), d)
            except SqlStepsError:
                continue
            for edit in _all_candidates(t, d):
                try:
                    built = perturb._apply_edit(list(t.steps), edit)
                except (BindingError, ValueError):
                    built = None
                marked += edit.doomed
                if edit.doomed:
                    assert built is None, (sql, edit)
                elif isinstance(edit.before or edit.after, GroupBy):
                    assert built is not None, (sql, edit)
    assert marked > 0


def test_augment_builds_no_doomed_edit_and_draws_as_before(store, monkeypatch):
    verified = [decompose(parse_sql(seed.gold_sql), store) for seed in generated_seeds()]
    cfg = PerturbationConfig(k=2, seed=3)
    built = []
    apply_edit = perturb._apply_edit

    def counted(steps, edit):
        built.append(edit)
        return apply_edit(steps, edit)

    def outputs(report):
        return ([(render_trajectory(p.erroneous), p.record) for p in report.pairs],
                report.skipped)

    monkeypatch.setattr(perturb, "_apply_edit", counted)
    marked = outputs(augment(verified, cfg, store))
    builds = len(built)
    assert not any(edit.doomed for edit in built)
    # with nothing marked, every drawn edit is built, and the outputs are the same
    built.clear()
    monkeypatch.setattr(perturb, "_downstream", lambda t, kinds: [False] * len(t.steps))
    monkeypatch.setattr(perturb, "_grouped_receivers", lambda t: [False] * len(t.steps))
    assert outputs(augment(verified, cfg, store)) == marked
    assert (builds, len(built)) == (186, 213)


def test_no_pair_of_a_compound_trajectory_reverts_to_its_verified_sql(store):
    """A compound's element is not part of its SQL, so no substitution swaps
    it: a pair's erroneous side reverts to other SQL than its verified side."""
    verified = parse_trajectory(
        "df1 = df.where(element = customers.age, "
        "filter = '(customers.age > 3 OR customers.city = ''x'')')\n"
        "res = df1.select(customers.name)\n")
    target = revert(verified, store).text
    pairs = [pair for seed in range(40)
             for pair in augment([verified], PerturbationConfig(k=2, seed=seed), store).pairs]
    assert len(pairs) == 80
    reverted = 0
    for pair in pairs:
        try:
            erroneous = revert(pair.erroneous, store).text
        except JoinPathNotFoundError:  # a groupby on a table the filter's table cannot reach
            continue
        assert erroneous != target, render_trajectory(pair.erroneous)
        reverted += 1
    assert reverted > 40


def test_only_an_aggregation_step_edit_of_a_compound_trajectory_keeps_its_sql(store):
    """Over decomposed compound queries, a pair that reverts to its verified
    SQL edits an aggregation step that the SQL does not read (the step's
    aggregate is written again where it is used), never a filter."""
    from test_compound_pin import compound_queries

    verified = []
    for sql in compound_queries(96):
        try:
            verified.append(decompose(parse_sql(sql), store))
        except SqlStepsError:
            continue
    assert len(verified) > 60
    pairs = same = 0
    for seed in range(10):
        for pair in augment(verified, PerturbationConfig(k=2, seed=seed), store).pairs:
            try:
                erroneous = revert(pair.erroneous, store).text
            except SqlStepsError:
                continue
            pairs += 1
            if erroneous == revert(pair.verified, store).text:
                idx, pos = pair.record.site
                assert isinstance(pair.verified.steps[idx].chain[pos], AggStep), \
                    render_trajectory(pair.erroneous)
                same += 1
    assert pairs > 1000 and same < pairs / 10
