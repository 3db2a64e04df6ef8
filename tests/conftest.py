from pathlib import Path

import pytest

from sqlsteps.corpus import SeedExample, read_seed_file
from sqlsteps.evaluate import load_fixture_dbs
from sqlsteps.querygen import random_queries
from sqlsteps.schema import load_schema_dir

FIXTURES = Path(__file__).parent / "fixtures"


def golden(name: str) -> str:
    return (FIXTURES / "golden" / name).read_text(encoding="utf-8")


def generated_seeds(n: int = 90, seed: int = 7) -> list[SeedExample]:
    """Initial SQL equal to the gold, lower-cased, or another query, in turn."""
    queries = random_queries(2 * n, seed)
    seeds = []
    for i, gold in enumerate(queries[:n]):
        initial = (gold, gold.lower(), queries[n + i])[i % 3]
        seeds.append(SeedExample(f"g{i:03d}", "store", f"question {i}", gold, initial))
    return seeds


@pytest.fixture(scope="session")
def schemas():
    return load_schema_dir(FIXTURES / "schemas")


@pytest.fixture(scope="session")
def schools(schemas):
    return schemas["schools"]


@pytest.fixture(scope="session")
def store(schemas):
    return schemas["store"]


@pytest.fixture(scope="session")
def dbs():
    return load_fixture_dbs(FIXTURES / "dbs")


@pytest.fixture(scope="session")
def fixture_seeds():
    return read_seed_file(FIXTURES / "seeds" / "fixture_seeds.jsonl")
