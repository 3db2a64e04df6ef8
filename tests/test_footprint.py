"""What a run pays for: the modules an import loads and the size of each value.

The network and crypto stacks load only on the paths that use them
(`RemoteBackend.invoke`, the threaded branch of `correct_batch`,
`ActionSpace.catalog_hash`); import compiles one generated source per frozen
value type and two per mutable record; and every value type is a slotted
dataclass, so its instances carry no attribute dict.
"""

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sqlsteps
from sqlsteps.bridge import decompose, round_trip
from sqlsteps.corpus import SeedExample, build_bam_corpus
from sqlsteps.masking import mask_schema
from sqlsteps.pipeline import RemoteBackend, RuleBackend, ScriptedBackend
from sqlsteps.sqlast import parse_sql

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("ssl", "http.client", "email", "urllib.request", "hashlib", "concurrent.futures")
# the stage backends stay unslotted: callers, and tracers, assign `invoke` on instances
UNSLOTTED = {RuleBackend, ScriptedBackend, RemoteBackend}
SQL = ("SELECT customers.city, COUNT(orders.id) FROM customers JOIN orders "
       "ON orders.customer_id = customers.id WHERE customers.age > 30 "
       "GROUP BY customers.city ORDER BY customers.city")


def test_import_loads_no_network_or_crypto_stack():
    # -S keeps site hooks out, so the interpreter holds only what the imports load
    code = ("import sys, sqlsteps\n"
            "from sqlsteps import (sqlast, bridge, trajectory, schema, masking, perturb,\n"
            "                      corpus, pipeline, evaluate, querygen)\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


# Generated sources that the module code of `sqlsteps` compiles on import:
# one per frozen type, node or record (`actions.frozen`: `__init__`, `__eq__`
# and `__hash__`), and per mutable record (`actions.record`) whatever
# `dataclass` compiles besides its repr: `__init__` and `__eq__` (one source
# per class from Python 3.13). The standard library's own named tuples are
# not counted. The count is exact on 3.11.
IMPORT_COMPILES = 84


def test_import_compiles_no_more_generated_source_than_counted():
    # a compile counts when the innermost module being run is one of sqlsteps
    code = ("import sys\n"
            "count = 0\n"
            "def hook(event, args):\n"
            "    global count\n"
            "    if event != 'compile' or args[1] != '<string>':\n"
            "        return\n"
            "    frame = sys._getframe(1)\n"
            "    while frame.f_code.co_name != '<module>':\n"
            "        frame = frame.f_back\n"
            "    count += frame.f_globals['__name__'].startswith('sqlsteps')\n"
            "sys.addaudithook(hook)\n"
            "import sqlsteps\n"
            "from sqlsteps import (sqlast, bridge, trajectory, schema, masking, perturb,\n"
            "                      corpus, pipeline, evaluate, querygen)\n"
            "print(count)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) <= IMPORT_COMPILES


def _dataclasses() -> list[type]:
    names = [f"sqlsteps.{m.name}" for m in pkgutil.iter_modules(sqlsteps.__path__)]
    found = []
    for name in names:
        module = importlib.import_module(name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == name and dataclasses.is_dataclass(cls)]
    return found


@pytest.mark.parametrize("cls", [c for c in _dataclasses() if c not in UNSLOTTED],
                         ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_dataclass_is_slotted(cls):
    assert "__slots__" in vars(cls)
    assert cls.__dictoffset__ == 0  # no instance of it has a `__dict__`


def test_stage_backends_take_instance_attributes():
    backend = RuleBackend("bam")
    backend.invoke = lambda payload: "res = df.select(customers.id)"
    assert backend.invoke({}) == "res = df.select(customers.id)"


def _values(store):
    query = parse_sql(SQL)
    trajectory = decompose(query, store)
    seed = SeedExample("g0", "store", "cities by order count", SQL, SQL.lower())
    (record,) = build_bam_corpus([seed], {"store": store}).records
    return {"query": query, "trajectory": trajectory, "report": round_trip(query, store),
            "record": record, "masked": mask_schema(trajectory), "database": store}


def _no_instance_dicts(value) -> None:
    if dataclasses.is_dataclass(value):
        assert not hasattr(value, "__dict__"), type(value).__name__
        for f in dataclasses.fields(value):
            _no_instance_dicts(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _no_instance_dicts(item)


@pytest.mark.parametrize("name", ["query", "trajectory", "report", "record", "masked",
                                  "database"])
def test_value_round_trips_through_pickle_and_deepcopy(store, name):
    value = _values(store)[name]
    _no_instance_dicts(value)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.deepcopy(value), copy.copy(value)]:
        assert type(other) is type(value)
        assert other == value
        # fields left out of `==` survive as well
        assert all(getattr(other, f.name) == getattr(value, f.name)
                   for f in dataclasses.fields(value))
    if name == "database":  # and so do its lookups
        for other in copies + [copy.deepcopy(value)]:
            assert other.has_column("orders", "total") and not other.has_table("nope")
            assert other.edges == value.edges
