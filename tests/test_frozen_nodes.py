"""Every value type is built by `actions.frozen` (the node types of the
trajectory and the SQL tree, and the frozen records of every module) or
`actions.record` (the mutable records), which compile fewer methods than a
dataclass and share the rest.

Each class is checked against a plain dataclass twin with the same fields,
`__post_init__` and flags (`@dataclass(frozen=True, slots=True)` for a
frozen type): the two agree on positional, keyword and default arguments, on
`inspect.signature`, on the errors a call raises, on `__doc__`, `repr`,
`==`, `hash` and `dataclasses.asdict`, and on the `FrozenInstanceError` that
setting or deleting a field raises. `replace`, `copy` and `pickle` give equal
objects, with every field kept, those outside `__init__` too. The instances
are collected from parsed and decomposed queries, built corpora and
corrected seeds, so each class is tried on the values it really holds.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import sqlsteps
from sqlsteps import actions, bridge, corpus, evaluate, perturb, pipeline, schema, sqlast
from sqlsteps.actions import (ACTION_SPACE, Arithmetic, BindingRef, Comparison, FilterCondition,
                              IsNull, Limit, Or, OrderBy, QualifiedColumn, Scalar, Select,
                              Subquery, Trajectory, TrajectoryStep, frozen)
from sqlsteps.bridge import decompose
from sqlsteps.errors import SqlStepsError
from sqlsteps.querygen import random_queries
from sqlsteps.sqlast import SqlQuery

from conftest import generated_seeds


def _dataclasses_of_the_package() -> list[type]:
    modules = [importlib.import_module(f"sqlsteps.{m.name}")
               for m in pkgutil.iter_modules(sqlsteps.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__]


VALUE_TYPES = _dataclasses_of_the_package()
# a frozen type, node or record, guards its fields against assignment
FROZEN_TYPES = [cls for cls in VALUE_TYPES if cls.__setattr__ is not object.__setattr__]
# the node types of the trajectory and the SQL tree, tried on parsed and
# decomposed queries; every other value type is a record, frozen or not
NODE_TYPES = [cls for cls in FROZEN_TYPES if cls.__module__ in (actions.__name__, sqlast.__name__)]
RECORD_TYPES = [cls for cls in VALUE_TYPES if cls not in NODE_TYPES]

EXTRA_QUERIES = [
    "SELECT c.name AS n, COUNT(DISTINCT o.id) FROM customers AS c "
    "LEFT JOIN orders AS o ON o.customer_id = c.id GROUP BY n HAVING NOT n LIKE 'a%' "
    "ORDER BY n DESC LIMIT 3 OFFSET 1",
    "SELECT CAST(age AS TEXT), SUBSTR(name, 1, 2), -age + 1 FROM customers "
    "WHERE age BETWEEN 1 AND 9 OR age NOT IN (SELECT qty FROM items) OR city IS NOT NULL",
    "SELECT customers.name FROM customers WHERE customers.age > "
    "(SELECT AVG(customers.age) FROM customers) UNION SELECT customers.city FROM customers",
    "SELECT SUBSTR(customers.name, 2) FROM customers WHERE customers.name LIKE 'a%' "
    "AND customers.id IN (1, 2) AND customers.city IS NULL "
    "AND customers.age BETWEEN 3 AND 4",
    "SELECT *, 1.5 FROM customers",
]


def _collect(value, found: dict, types: list[type]) -> None:
    if isinstance(value, (tuple, list, frozenset)):
        for item in value:
            _collect(item, found, types)
    elif isinstance(value, dict):
        _collect(list(value.values()), found, types)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        if type(value) in types:
            by_repr = found.setdefault(type(value), {})
            if repr(value) in by_repr:
                return
            by_repr[repr(value)] = value
        for f in dataclasses.fields(value):
            _collect(getattr(value, f.name), found, types)


def _instances(store) -> dict[type, list]:
    found: dict[type, dict] = {}
    queries = random_queries(150, 7) + EXTRA_QUERIES
    for sql in queries:
        query = SqlQuery.raw(sql)
        _collect(query.ast, found, NODE_TYPES)
        try:
            _collect(decompose(query, store), found, NODE_TYPES)
        except SqlStepsError:
            pass
    _collect(ACTION_SPACE, found, NODE_TYPES)
    return {cls: list(by_repr.values())[:12] for cls, by_repr in found.items()}


@pytest.fixture(scope="module")
def instances(store):
    return _instances(store)


@pytest.fixture(scope="module")
def record_instances(schemas, dbs):
    """Records of every kind, from corpora built and seeds corrected and
    evaluated, each with a few of the values it holds."""
    seeds = generated_seeds(9)
    store = schemas["store"]
    bam = corpus.build_bam_corpus(seeds, schemas)
    cfg = perturb.PerturbationConfig(k=2, seed=17)
    trajectories = [r.trajectory for r in bam.records]
    backends = pipeline.build_backends({})
    results = pipeline.correct_batch(seeds, backends, schemas, jobs=1)
    query = sqlast.parse_sql(seeds[0].gold_sql)
    store.qualified_columns()  # fills the schema's shared nodes
    values = [
        seeds, bam, corpus.build_sam_corpus(bam.records, seeds, schemas),
        corpus.build_lom_corpus(bam.records, seeds, cfg, schemas, dbs),
        corpus.compute_stats(bam.records), cfg, perturb.augment(trajectories, cfg, store),
        perturb._delete_candidates(trajectories[0]), results,
        evaluate.evaluate_correction(results, seeds, dbs, schemas),
        evaluate.execute_sql(query, dbs["store"]), bridge.round_trip(query, store),
        SqlQuery.raw("SELECT nope nope"), schemas, schema.extract_schema(query), backends,
        pipeline.ScriptedBackend("bam", {"a": "b"}), pipeline.RemoteBackend("bam", "http://x"),
    ]
    found: dict[type, dict] = {}
    _collect(values, found, RECORD_TYPES)
    return {cls: list(by_repr.values())[:6] for cls, by_repr in found.items()}


@pytest.fixture(scope="module")
def frozen_instances(instances, record_instances):
    """The instances of every frozen type: nodes and frozen records."""
    return {cls: instances.get(cls) or record_instances[cls] for cls in FROZEN_TYPES}


def _twin(cls: type, frozen: bool = True, slots: bool = True, eq: bool = True) -> type:
    """The plain dataclass of `cls`'s fields and `__post_init__`, by default
    frozen and slotted."""
    spec = [(f.name, f.type, dataclasses.field(
        default=f.default, default_factory=f.default_factory, init=f.init, repr=f.repr,
        hash=f.hash, compare=f.compare, kw_only=f.kw_only)) for f in dataclasses.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace,
                                      frozen=frozen, slots=slots, eq=eq)


def _record_twin(cls: type) -> type:
    return _twin(cls, False, "__slots__" in vars(cls), cls.__dataclass_params__.eq)


def _values(obj) -> tuple:
    """The values of `obj`'s `__init__` arguments."""
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init)


def _result(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def _outcome(make, *args, **kwargs):
    return _result(lambda: _values(make(*args, **kwargs)))


def test_every_frozen_node_type_carries_the_decorator():
    assert len(FROZEN_TYPES) >= 54
    for cls in FROZEN_TYPES:
        assert "__slots__" in cls.__dict__, cls
        # a frozen dataclass's own `__init__` assigns through `object.__setattr__`
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_one_way_to_build_a_frozen_type():
    @frozen
    class Probe:
        a: int

    for cls in VALUE_TYPES:
        assert not cls.__dataclass_params__.frozen, cls
    for cls in FROZEN_TYPES:  # the guards `actions.frozen` shares
        assert cls.__setattr__.__code__ is Probe.__setattr__.__code__, cls
    assert list(inspect.signature(actions.record).parameters) == ["slots"]


def test_every_node_type_has_instances_to_check(instances):
    assert set(instances) == set(NODE_TYPES)


def test_every_record_type_has_instances_to_check(record_instances):
    assert len(RECORD_TYPES) >= 30
    assert set(record_instances) == set(RECORD_TYPES)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_doc_is_the_written_one_or_the_dataclass_one(cls):
    twin = _twin(cls) if cls in FROZEN_TYPES else _record_twin(cls)
    assert cls.__doc__ == twin.__doc__ or not cls.__doc__.startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", FROZEN_TYPES, ids=lambda cls: cls.__name__)
def test_init_agrees_with_the_plain_dataclass(cls, frozen_instances):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    params = [f for f in dataclasses.fields(cls) if f.init]
    names = [f.name for f in params]
    required = [f.name for f in params
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    for obj in frozen_instances[cls]:
        args = _values(obj)
        kwargs = dict(zip(names, args))
        assert _outcome(cls, *args) == _outcome(twin, *args) == ("ok", args)
        assert _outcome(cls, **kwargs) == _outcome(twin, **kwargs) == ("ok", args)
        # each default left out in turn, positionally and by keyword
        for n in range(len(required), len(names) + 1):
            assert _outcome(cls, *args[:n]) == _outcome(twin, *args[:n])
            head = dict(list(kwargs.items())[:n])
            assert _outcome(cls, **head) == _outcome(twin, **head)
        # wrong calls raise the same TypeError, named after the class
        assert _outcome(cls, *args, None) == _outcome(twin, *args, None)
        assert _outcome(cls, *args, nope=1) == _outcome(twin, *args, nope=1)
        if names:
            assert _outcome(cls, *args, **{names[0]: args[0]}) == \
                _outcome(twin, *args, **{names[0]: args[0]})
    assert _outcome(cls) == _outcome(twin)


COLUMN = QualifiedColumn("orders", "id")
SELECT = Select((COLUMN,))


@pytest.mark.parametrize("cls,args", [
    (QualifiedColumn, ("", "x")),
    (QualifiedColumn, ("orders", "a b ")),
    (BindingRef, ("df",)),
    (FilterCondition, ("??",)),
    (FilterCondition, ("compound",)),
    (FilterCondition, ("compound", (), "(orders.id = 1)")),
    (FilterCondition, ("compound", (), Comparison("=", COLUMN, Subquery(None)))),
    (FilterCondition, ("compound", (), Or((Comparison("=", COLUMN, Scalar(1, "int")),
                                           IsNull(Arithmetic("+", COLUMN, Subquery(None))))))),
    (FilterCondition, ("between", (Scalar(1, "int"),))),
    (FilterCondition, ("between", (Scalar(1, "int"), Scalar("a", "string")))),
    (OrderBy, (COLUMN, "up")),
    (Limit, (0,)),
    (Limit, (1, -1)),
    (TrajectoryStep, ("df", "df", (SELECT,))),
    (TrajectoryStep, ("res", "res", (SELECT,))),
    (TrajectoryStep, ("res", "df", ())),
    (TrajectoryStep, ("res", "df", (Select((BindingRef("df1"),)),))),
    (Trajectory, ((),)),
    (Trajectory, ((TrajectoryStep("df1", "df", (SELECT,)),),)),
    (perturb.PerturbationRecord, ("add", (0, 0), "x", None, 1)),
    (perturb.PerturbationRecord, ("substitute", (0, 0), "x", "x", 1)),
    (perturb.PerturbationConfig, (-1,)),
    (perturb.PerturbationConfig, (1, (0.5, 0.5, 0.5))),
], ids=lambda value: value.__name__ if isinstance(value, type) else "")
def test_post_init_errors_agree_with_the_plain_dataclass(cls, args):
    outcome = _outcome(cls, *args)
    assert outcome[0] != "ok"
    assert outcome == _outcome(_twin(cls), *args)


@pytest.mark.parametrize("cls", FROZEN_TYPES, ids=lambda cls: cls.__name__)
def test_nodes_stay_frozen_and_copy_replace_and_pickle(cls, frozen_instances):
    for obj in frozen_instances[cls]:
        fields = dataclasses.fields(obj)
        for f in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)
        assert not hasattr(obj, "__dict__")
        copies = [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
        # a field outside `__init__` (a `DatabaseInput`'s lookups) is copied
        # and pickled with the rest
        for other in copies:
            assert all(getattr(other, f.name) == getattr(obj, f.name) for f in fields)
        names = [f.name for f in fields if f.init]
        copies.append(dataclasses.replace(obj))
        if names:
            copies.append(dataclasses.replace(obj, **{names[0]: getattr(obj, names[0])}))
        for other in copies:
            assert type(other) is cls and other == obj and repr(other) == repr(obj)
            assert _result(hash, other) == _result(hash, obj)


@pytest.mark.parametrize("cls", FROZEN_TYPES, ids=lambda cls: cls.__name__)
def test_value_methods_agree_with_the_plain_dataclass(cls, frozen_instances):
    objs = frozen_instances[cls]
    twins = [_twin(cls)(*_values(obj)) for obj in objs]
    for obj, twin in zip(objs, twins):
        _agree(obj, twin)
        assert obj.__eq__(twin) is twin.__eq__(obj) is NotImplemented
    assert [[a == b for b in objs] for a in objs] == [[a == b for b in twins] for a in twins]


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_records_agree_with_the_plain_dataclass(cls, record_instances):
    twin_cls = _twin(cls) if cls in FROZEN_TYPES else _record_twin(cls)
    for obj in record_instances[cls]:
        _agree(obj, twin_cls(*_values(obj)))
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(other) is cls
            # a set rebuilt by a copy may list its items in another order
            # (the table sets that key `SchemaNodes.froms`), so where a record
            # has `==`, that is the check
            assert other == obj if cls.__dataclass_params__.eq else repr(other) == repr(obj)


def _agree(obj, twin) -> None:
    """`obj` and its plain dataclass twin have the same repr, hash and
    compared fields in `asdict`, and if frozen, the same errors on setting
    or deleting a field."""
    assert repr(obj) == repr(twin)
    assert _result(hash, obj) == _result(hash, twin)
    mine, theirs = dataclasses.asdict(obj), dataclasses.asdict(twin)
    assert all(mine[f.name] == theirs[f.name] for f in dataclasses.fields(obj) if f.compare)
    if type(obj).__setattr__ is object.__setattr__:
        return
    for f in dataclasses.fields(obj):
        assert _result(setattr, obj, f.name, None) == _result(setattr, twin, f.name, None)
        assert _result(delattr, obj, f.name) == _result(delattr, twin, f.name)


def test_a_default_factory_makes_a_fresh_value_per_instance():
    first, second = actions.ActionSpace(()), actions.ActionSpace(())
    assert first.aliases == {} and first.aliases is not second.aliases
    given = {"avg": "average"}
    assert actions.ActionSpace((), given).aliases is given


def test_equal_action_spaces_hash_equal():
    # the aliases are a dict, which has no hash; they are left out of it
    twin = actions.ActionSpace(ACTION_SPACE.entries, dict(ACTION_SPACE.aliases))
    assert twin == ACTION_SPACE and twin.aliases is not ACTION_SPACE.aliases
    assert hash(twin) == hash(ACTION_SPACE)
    assert len({twin, ACTION_SPACE}) == 1
    assert actions.ActionSpace(ACTION_SPACE.entries, {}) != ACTION_SPACE


def test_a_field_left_out_of_eq_is_left_out_of_hash():
    @frozen
    class Noted:
        a: int
        note: str = dataclasses.field(default="", compare=False)

    twin = _twin(Noted)
    assert Noted(1, "x") == Noted(1, "y") and Noted(1) != Noted(2)
    assert hash(Noted(1, "x")) == hash(twin(1, "x")) == hash(twin(1, "y"))


def test_unsupported_fields_fail_at_decoration():
    with pytest.raises(TypeError, match="only positional fields"):
        @frozen
        class KeywordOnly:
            a: int
            b: int = dataclasses.field(default=0, kw_only=True)


def test_a_non_init_field_is_set_by_post_init_and_kept_by_copy():
    @frozen
    class Sized:
        items: tuple
        size: int = dataclasses.field(init=False, repr=False, compare=False)

        def __post_init__(self):
            object.__setattr__(self, "size", len(self.items))

    assert inspect.signature(Sized) == inspect.signature(_twin(Sized))
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        Sized((1, 2), 2)
    sized = Sized((1, 2))
    assert sized.size == 2 and repr(sized).endswith("Sized(items=(1, 2))")
    assert sized.__getstate__() == [(1, 2), 2]
    assert copy.copy(sized).size == copy.deepcopy(sized).size == 2
    with pytest.raises(TypeError, match="a non-init field takes no default"):
        @frozen
        class Defaulted:
            a: int
            b: int = dataclasses.field(default=0, init=False)


def test_a_record_renders_the_dataclass_doc_and_repr():
    @actions.record()
    class Keywords:
        a: int
        b: list = dataclasses.field(default_factory=list, kw_only=True)
        c: str = dataclasses.field(default="x", repr=False)

    twin = _twin(Keywords, frozen=False, slots=True)
    assert Keywords.__doc__ == twin.__doc__
    assert repr(Keywords(1, b=[2])) == repr(twin(1, b=[2])).replace(
        twin.__qualname__, Keywords.__qualname__)
