"""Set-up of the program under test: import, schemas, databases, backends.

Run as a script (`python3 bench/program.py ROOT DBS_DIR`) it performs one
set-up in a fresh interpreter and prints its duration in seconds; the
benchmark takes the median of several such runs as `setup_s`, so cold
imports count as they do for a user.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

MODULES = ("sqlast", "bridge", "trajectory", "schema", "masking", "perturb",
           "corpus", "pipeline", "evaluate", "querygen")


@dataclass
class Program:
    root: Path
    m: dict[str, ModuleType]  # module name -> imported sqlsteps module
    schemas: dict
    dbs: dict
    backends: dict

    def close(self) -> None:
        for db in self.dbs.values():
            db.close()


def setup(root: Path, dbs_dir: Path) -> Program:
    """Import sqlsteps, load the fixture schemas, build the fixture databases
    from `dbs_dir` and the rule backends, as `orchestrate --dbs` does."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("sqlsteps")
    m = {name: importlib.import_module(f"sqlsteps.{name}") for name in MODULES}
    schemas = m["schema"].load_schema_dir(root / "tests" / "fixtures" / "schemas")
    dbs = m["evaluate"].load_fixture_dbs(dbs_dir)
    backends = m["pipeline"].build_backends({})
    return Program(root, m, schemas, dbs, backends)


if __name__ == "__main__":
    start = time.perf_counter()
    setup(Path(sys.argv[1]), Path(sys.argv[2])).close()
    print(f"{time.perf_counter() - start:.9f}")
