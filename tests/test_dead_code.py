"""Dead-code guard: every module-level function, class and constant of the
package, and every function and class defined anywhere in it, is named
somewhere besides its definition, in the package or the benchmark harness.
A helper only the tests call belongs under ``tests/``.  Dunder names
(``__all__``, ``__version__``, ``__init__``) are read by Python and tooling,
not by name in code.

Instance attributes too: every ``self.<attr> = ...`` in the package is read
somewhere in the package or the benchmark harness, as an attribute or by a
``getattr`` with a constant name.  A field kept only for callers outside
both is named in ``READ_BY_CALLERS``."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roverbench"
# The line of a malformed trace, for a caller that reports it.
READ_BY_CALLERS = {"MalformedTraceError.lineno"}


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
            if words[name] < 2 and not (name.startswith("__") and name.endswith("__"))]


def test_every_module_level_name_is_used():
    assert unused(module_level_names) == []


def test_every_def_and_class_is_used():
    assert unused(defined_names) == []


def trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for tree in ("src", "bench") for path in sorted((ROOT / tree).rglob("*.py"))]


def attributes_read() -> set[str]:
    read = set()
    for tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def attributes_set() -> list[tuple[str, str]]:
    """(file, Class.attr) of every ``self.<attr> = ...`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    for leaf in ast.walk(target):
                        if (isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name)
                                and leaf.value.id == "self"):
                            found.append((path.name, f"{cls.name}.{leaf.attr}"))
    return found


def test_every_instance_attribute_is_read():
    read = attributes_read()
    assert {name for _file, name in attributes_set()} >= READ_BY_CALLERS
    assert [f"{file}: {name}" for file, name in attributes_set()
            if name.split(".")[1] not in read and name not in READ_BY_CALLERS] == []
