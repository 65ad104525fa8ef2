"""The module layering: ``train`` imports ``diagnostics``, so no module works
round an import cycle with ``train`` by importing it inside a function."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "advlab"


def _imports_train(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return node.module == "train" or (
                node.module is None and any(a.name == "train" for a in node.names))
        return node.module == "advlab.train"
    return isinstance(node, ast.Import) and any(a.name == "advlab.train" for a in node.names)


def test_no_function_body_imports_train():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if _imports_train(node)]
    assert found == []


def test_diagnostics_imports_nothing_from_train():
    tree = ast.parse((PACKAGE / "diagnostics.py").read_text(encoding="utf-8"))
    assert not any(_imports_train(node) for node in ast.walk(tree))


def test_config_imports_no_choice_tuple():
    """The types a config section builds hold their choices; ``config``
    hands them the keys and reads none of their choice tuples."""
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"METHODS", "NORMS", "KINDS", "OBJECTIVE_KINDS"}
