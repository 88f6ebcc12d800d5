"""The package's modules depend in one direction only."""

import ast
from pathlib import Path

import asvnav

PACKAGE = Path(asvnav.__file__).resolve().parent

# Each module may import only from the modules before it.
LAYERS = ("geo", "env", "vehicle", "effects", "control", "augment", "metrics", "harness", "cli")


def _package_imports(path):
    """The sibling modules a module imports: `from .x import ...` names x,
    `from . import x, y` names x and y."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
    return imported


def test_modules_import_only_earlier_layers():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    imports = {name: _package_imports(PACKAGE / f"{name}.py") for name in LAYERS}
    for name, imported in imports.items():
        earlier = set(LAYERS[:LAYERS.index(name)])
        assert imported <= earlier, f"{name} imports {sorted(imported - earlier)} from a later layer"
    # scoring reads the log's columns, not the vehicle's or the model's types
    assert imports["metrics"] == {"geo", "control"}
