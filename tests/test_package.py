"""Package guards: the public names resolve, the source imports only the
standard library and uses every name it imports, and the test oracles
import nothing from the package."""

import ast
import sys
from pathlib import Path

import flowcomm

SOURCES = sorted((Path(flowcomm.__file__).parent).glob("*.py"))
HELPERS = Path(__file__).parent / "helpers.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_all_names_resolve():
    missing = [name for name in flowcomm.__all__ if not hasattr(flowcomm, name)]
    assert missing == []


def test_imports_are_relative_or_stdlib():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
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


def test_helpers_import_nothing_from_flowcomm():
    modules = []
    for node in ast.walk(parse(HELPERS)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert [m for m in modules if m.split(".")[0] == "flowcomm"] == []


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES:
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
