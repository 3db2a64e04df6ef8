"""Every node type of the trajectory and the SQL tree is built by `actions.frozen`,
whose generated `__init__` sets each field through its slot's descriptor.

Each class is checked against a plain `@dataclass(frozen=True, slots=True)`
twin with the same fields and `__post_init__`: the two agree on positional,
keyword and default arguments, on `inspect.signature`, and on the errors a
call raises. Instances stay frozen, and `replace`, `copy` and `pickle` give
equal objects. The instances are collected from parsed and decomposed
queries, so each class is tried on the values it really holds.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from sqlsteps import actions, sqlast
from sqlsteps.actions import (ACTION_SPACE, BindingRef, FilterCondition, Limit, OrderBy,
                              QualifiedColumn, Scalar, Select, Trajectory, TrajectoryStep, frozen)
from sqlsteps.bridge import decompose
from sqlsteps.errors import SqlStepsError
from sqlsteps.querygen import random_queries
from sqlsteps.sqlast import SqlQuery

NODE_TYPES = [cls for module in (actions, sqlast) for cls in vars(module).values()
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)
              and cls.__module__ == module.__name__ and cls.__dataclass_params__.frozen]

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


def _collect(value, found: dict) -> None:
    if isinstance(value, (tuple, list)):
        for item in value:
            _collect(item, found)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        if type(value) in NODE_TYPES:
            found.setdefault(type(value), {})[repr(value)] = value
        for f in dataclasses.fields(value):
            _collect(getattr(value, f.name), found)


def _instances(store) -> dict[type, list]:
    found: dict[type, dict] = {}
    queries = random_queries(150, 7) + EXTRA_QUERIES
    for sql in queries:
        query = SqlQuery.raw(sql)
        _collect(query.ast, found)
        try:
            _collect(decompose(query, store), found)
        except SqlStepsError:
            pass
    _collect(ACTION_SPACE, found)
    return {cls: list(by_repr.values())[:12] for cls, by_repr in found.items()}


@pytest.fixture(scope="module")
def instances(store):
    return _instances(store)


def _twin(cls: type) -> type:
    """The plain frozen slotted dataclass of `cls`'s fields and `__post_init__`."""
    spec = [(f.name, f.type, dataclasses.field(default=f.default,
                                               default_factory=f.default_factory))
            for f in dataclasses.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace,
                                      frozen=True, slots=True)


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _outcome(make, *args, **kwargs):
    try:
        return "ok", _values(make(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def test_every_frozen_node_type_carries_the_decorator():
    assert len(NODE_TYPES) >= 39
    for cls in NODE_TYPES:
        assert "__slots__" in cls.__dict__, cls
        # a frozen dataclass's own `__init__` assigns through `object.__setattr__`
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_every_node_type_has_instances_to_check(instances):
    assert set(instances) == set(NODE_TYPES)


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


def test_a_default_factory_makes_a_fresh_value_per_instance():
    first, second = actions.ActionSpace(()), actions.ActionSpace(())
    assert first.aliases == {} and first.aliases is not second.aliases
    given = {"avg": "average"}
    assert actions.ActionSpace((), given).aliases is given


def test_unsupported_fields_fail_at_decoration():
    with pytest.raises(TypeError, match="only positional init fields"):
        @frozen
        class KeywordOnly:
            a: int
            b: int = dataclasses.field(default=0, kw_only=True)

