"""Dead-code guard: every module-level function, class and constant of the
package, and every function and class defined anywhere in it, is named
somewhere besides its definition, in the package or the benchmark harness.
A helper only the tests call belongs under ``tests/``.  Dunder names
(``__all__``, ``__version__``, ``__init__``) are read by Python and tooling,
not by name in code; so is the pickle hook ``reducer_override``."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roverbench"
CALLED_BY_PYTHON = {"reducer_override"}


def module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def defined_names(tree: ast.Module) -> list[str]:
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def unused(names_of) -> list[str]:
    words = Counter()
    for tree in ("src", "bench"):
        for path in (ROOT / tree).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return [f"{path.name}: {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name in names_of(ast.parse(path.read_text(encoding="utf-8")))
            if words[name] < 2 and name not in CALLED_BY_PYTHON
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_module_level_name_is_used():
    assert unused(module_level_names) == []


def test_every_def_and_class_is_used():
    assert unused(defined_names) == []
