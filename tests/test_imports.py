"""The package needs nothing at run time beyond the standard library and numpy."""
import ast
import sys
from pathlib import Path

import pytest

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "domainsel").glob("*.py"))


def foreign_imports(source: str) -> list:
    """Top-level modules of the absolute imports in `source` that are neither
    in the standard library nor numpy."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name.split(".")[0] for name in names} - ALLOWED)


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "adapt.py", "cli.py", "pipeline.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_other_imports():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy.linalg\n"
        "from . import adapt\n"
        "from .errors import ValidationError\n"
        "import scipy.sparse\n"
        "def f():\n"
        "    from sklearn.linear_model import Ridge\n"
    )
    assert foreign_imports(source) == ["scipy", "sklearn"]
