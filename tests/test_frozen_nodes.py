"""Every value type is built by `actions.frozen` (the node types of the
trajectory and the SQL tree) or `actions.record` (the records of every
module), which compile fewer methods than a dataclass and share the rest.

Each class is checked against a plain dataclass twin with the same fields,
`__post_init__` and flags (`@dataclass(frozen=True, slots=True)` for a node
type): the two agree on positional, keyword and default arguments, on
`inspect.signature`, on the errors a call raises, on `__doc__`, `repr`,
`==`, `hash` and `dataclasses.asdict`, and on the `FrozenInstanceError` that
setting or deleting a field raises. `replace`, `copy` and `pickle` give equal
objects. The instances are collected from parsed and decomposed queries,
built corpora and corrected seeds, so each class is tried on the values it
really holds.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from sqlsteps import (actions, bridge, cli, corpus, evaluate, masking, perturb, pipeline, schema,
                      sqlast)
from sqlsteps.actions import (ACTION_SPACE, BindingRef, FilterCondition, Limit, OrderBy,
                              QualifiedColumn, Scalar, Select, Trajectory, TrajectoryStep, frozen)
from sqlsteps.bridge import decompose
from sqlsteps.errors import SqlStepsError
from sqlsteps.querygen import random_queries
from sqlsteps.sqlast import SqlQuery

from conftest import generated_seeds


def _dataclasses_of(*modules) -> list[type]:
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__]


# a node type is frozen: it guards its fields against assignment
NODE_TYPES = [cls for cls in _dataclasses_of(actions, sqlast)
              if cls.__setattr__ is not object.__setattr__]
RECORD_TYPES = [cls for cls in _dataclasses_of(bridge, cli, corpus, evaluate, masking, perturb,
                                                 pipeline, schema, sqlast)
                if cls not in NODE_TYPES]

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
    store.sql_column("orders", "id")  # fills the schema's shared nodes
    values = [
        seeds, bam, corpus.build_sam_corpus(bam.records, seeds, schemas),
        corpus.build_lom_corpus(bam.records, seeds, cfg, schemas, dbs),
        corpus.compute_stats(bam.records), cfg, perturb.augment(trajectories, cfg, store),
        perturb._delete_candidates(trajectories[0]), results,
        evaluate.evaluate_correction(results, seeds, dbs, schemas),
        evaluate.execute_sql(query, dbs["store"]), bridge.round_trip(query, store),
        SqlQuery.raw("SELECT nope nope"), schemas, schema.extract_schema(query),
        cli.GlobalConfig(None, "sqlite", 7, "info", "text", 1), backends,
        pipeline.ScriptedBackend("bam", {"a": "b"}), pipeline.RemoteBackend("bam", "http://x"),
    ]
    found: dict[type, dict] = {}
    _collect(values, found, RECORD_TYPES)
    return {cls: list(by_repr.values())[:6] for cls, by_repr in found.items()}


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
    params = cls.__dataclass_params__
    return _twin(cls, params.frozen, "__slots__" in vars(cls), params.eq)


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _result(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def _outcome(make, *args, **kwargs):
    return _result(lambda: _values(make(*args, **kwargs)))


def test_every_frozen_node_type_carries_the_decorator():
    assert len(NODE_TYPES) >= 39
    for cls in NODE_TYPES:
        assert "__slots__" in cls.__dict__, cls
        # a frozen dataclass's own `__init__` assigns through `object.__setattr__`
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_every_node_type_has_instances_to_check(instances):
    assert set(instances) == set(NODE_TYPES)


def test_every_record_type_has_instances_to_check(record_instances):
    assert len(RECORD_TYPES) >= 30
    assert set(record_instances) == set(RECORD_TYPES)


@pytest.mark.parametrize("cls", NODE_TYPES + RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_doc_is_the_written_one_or_the_dataclass_one(cls):
    twin = _twin(cls) if cls in NODE_TYPES else _record_twin(cls)
    assert cls.__doc__ == twin.__doc__ or not cls.__doc__.startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", NODE_TYPES, ids=lambda cls: cls.__name__)
def test_init_agrees_with_the_plain_dataclass(cls, instances):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    names = [f.name for f in dataclasses.fields(cls)]
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    for obj in instances[cls]:
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
], ids=lambda value: value.__name__ if isinstance(value, type) else "")
def test_post_init_errors_agree_with_the_plain_dataclass(cls, args):
    outcome = _outcome(cls, *args)
    assert outcome[0] != "ok"
    assert outcome == _outcome(_twin(cls), *args)


@pytest.mark.parametrize("cls", NODE_TYPES, ids=lambda cls: cls.__name__)
def test_nodes_stay_frozen_and_copy_replace_and_pickle(cls, instances):
    for obj in instances[cls]:
        names = [f.name for f in dataclasses.fields(obj)]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert not hasattr(obj, "__dict__")
        copies = [dataclasses.replace(obj), copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))]
        if names:
            copies.append(dataclasses.replace(obj, **{names[0]: getattr(obj, names[0])}))
        for other in copies:
            assert type(other) is cls and other == obj and repr(other) == repr(obj)
            if cls is not actions.ActionSpace:  # its alias dict is unhashable
                assert hash(other) == hash(obj)


@pytest.mark.parametrize("cls", NODE_TYPES, ids=lambda cls: cls.__name__)
def test_value_methods_agree_with_the_plain_dataclass(cls, instances):
    objs = instances[cls]
    twins = [_twin(cls)(*_values(obj)) for obj in objs]
    for obj, twin in zip(objs, twins):
        _agree(obj, twin)
        assert obj.__eq__(twin) is twin.__eq__(obj) is NotImplemented
    assert [[a == b for b in objs] for a in objs] == [[a == b for b in twins] for a in twins]


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_records_agree_with_the_plain_dataclass(cls, record_instances):
    twin_cls = _record_twin(cls)
    for obj in record_instances[cls]:
        twin = twin_cls(**{f.name: getattr(obj, f.name)
                           for f in dataclasses.fields(cls) if f.init})
        _agree(obj, twin)
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(other) is cls and repr(other) == repr(obj)
            assert other == obj or not cls.__dataclass_params__.eq


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


def test_a_field_left_out_of_eq_is_left_out_of_hash():
    @frozen
    class Noted:
        a: int
        note: str = dataclasses.field(default="", compare=False)

    twin = _twin(Noted)
    assert Noted(1, "x") == Noted(1, "y") and Noted(1) != Noted(2)
    assert hash(Noted(1, "x")) == hash(twin(1, "x")) == hash(twin(1, "y"))


def test_unsupported_fields_fail_at_decoration():
    with pytest.raises(TypeError, match="only positional init fields"):
        @frozen
        class KeywordOnly:
            a: int
            b: int = dataclasses.field(default=0, kw_only=True)



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
