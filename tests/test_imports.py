"""Every name a `sqlsteps` module imports is used somewhere in that module."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sqlsteps"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend((a.asname or a.name).split(".")[0] for a in node.names)
            for lineno in range(node.lineno - 1, node.end_lineno):
                lines[lineno] = ""
    rest = "\n".join(lines)
    return [name for name in imported if not re.search(rf"\b{re.escape(name)}\b", rest)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import re\nfrom os import (\n    path,\n    sep,\n)\n\n"
                      "def f():\n    return path.join('a', sep)\n")
    assert unused_imports(module) == ["re"]
