"""Package guards: the public names resolve and the source imports only
the standard library."""

import ast
import sys
from pathlib import Path

import flowcomm

SOURCES = sorted((Path(flowcomm.__file__).parent).glob("*.py"))


def test_all_names_resolve():
    missing = [name for name in flowcomm.__all__ if not hasattr(flowcomm, name)]
    assert missing == []


def test_imports_are_relative_or_stdlib():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                f"{path.name}: {root}"
                for root in roots
                if root not in sys.stdlib_module_names
            ]
    assert foreign == []
