"""Every name a module of ``src/homcap`` imports is used in that module,
so deleted code takes its imports with it, and each module imports only
from the layers below it.  ``__init__`` only re-exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "os (line 1)", "c (line 2)"
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text()) == []


# each module imports only from modules of a lower layer
LAYERS = {"abelian": 0, "spaces": 1, "capacity": 2, "grammar": 2, "cli": 3}


def _imported_modules(source: str) -> set[str]:
    # the sibling modules named by a module's relative imports, the only
    # form the package uses for its own modules
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == set(LAYERS)


def test_the_layer_check_reads_relative_imports():
    source = "from .spaces import a\nfrom . import cli\nimport math\nfrom os import path\n"
    assert _imported_modules(source) == {"spaces", "cli"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_imports_only_from_lower_layers(module):
    layer = LAYERS[module.stem]
    assert {m for m in _imported_modules(module.read_text()) if LAYERS[m] >= layer} == set()
