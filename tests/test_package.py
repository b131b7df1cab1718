"""Package guards: the public names resolve, the package re-exports
exactly its modules' public lists, the source imports only the standard
library and uses every name it imports, importing the console frontend
loads none of the heavy introspection modules, and the test oracles
import nothing from the package."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import flowcomm
from flowcomm import (
    Lattice2,
    Mat2,
    Suspension,
    genus_model_matrix,
    hnf,
    intertwiner_lattice,
    lattice_image,
)

SOURCES = sorted((Path(flowcomm.__file__).parent).glob("*.py"))
HELPERS = Path(__file__).parent / "helpers.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_all_names_resolve():
    missing = [name for name in flowcomm.__all__ if not hasattr(flowcomm, name)]
    assert missing == []


def test_reexports_are_the_module_lists():
    """flowcomm imports exactly the __all__ of each module below and
    lists every one of those names in its own __all__."""
    imported = {
        node.module: {alias.name for alias in node.names}
        for node in parse(Path(flowcomm.__file__)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    for name in ("linalg", "conjugacy", "commensurability", "models"):
        listed = set(importlib.import_module(f"flowcomm.{name}").__all__)
        assert imported[name] == listed, name
        assert listed <= set(flowcomm.__all__), name


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Mat2(2, 0, 0, 2).inverse(), "determinant 4 is not +-1"),
        (lambda: lattice_image(Mat2(2, 0, 0, 1), Lattice2(1, 0, 1)), "determinant 2 is not +-1"),
        (lambda: hnf(Mat2(2, 4, 1, 2)), "Mat2(2, 4, 1, 2) has determinant 0"),
        (lambda: intertwiner_lattice(Mat2(2, 1, 1, 1), Mat2(5, 2, 2, 1)), "traces 3 and 6 differ"),
        (lambda: intertwiner_lattice(Mat2(2, 1, 1, 1), Mat2(1, 2, 1, 2)), "kernel rank 0, expected 2"),
        (lambda: genus_model_matrix(1), "genus must be >= 2, got 1"),
    ],
    ids=["inverse", "lattice_image", "hnf", "intertwiner_traces", "intertwiner_rank", "genus"],
)
def test_wrong_argument_raises_plain_value_error(call, message):
    """A wrong argument to a lower-level function raises ValueError
    itself, not a FlowcommError, and the message names the argument."""
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value).startswith(message)


def test_removed_names_stay_gone():
    """No matrix power, operator spelling, lattice membership test or
    folded exception is offered; A * A and A ** 2 are TypeErrors."""
    removed = ["mat_pow", "InvalidGenus", "SingularBasis", "NotUnimodular", "TraceMismatch"]
    assert [name for name in removed if hasattr(flowcomm, name)] == []
    assert [name for name in removed if name in flowcomm.__all__] == []
    assert not hasattr(Mat2, "__pow__") and not hasattr(Mat2, "__mul__")
    assert not hasattr(Lattice2, "contains")
    assert not hasattr(Suspension, "euler_characteristic")
    a = Mat2(2, 1, 1, 1)
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(TypeError):
        a ** 2


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


# loaded by dataclasses, and costly at every console call's start-up
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_module():
    """In a fresh interpreter without site (whose .pth files may import
    anything), import flowcomm.cli loads none of HEAVY_MODULES. -B: -I
    drops PYTHONDONTWRITEBYTECODE, and the test writes no bytecode."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import flowcomm.cli; "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    root = str(Path(flowcomm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, root],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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
