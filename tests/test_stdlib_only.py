"""The package runs on the standard library alone: no module of
``src/roverbench`` imports a third-party package, and a fresh interpreter
that imports the package and its command line loads none."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roverbench"


def absolute_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_absolute_import_is_stdlib():
    outside = [f"{path.name}: {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for name in absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import roverbench, roverbench.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"jsonschema": "jsonschema" in sys.modules,
                  "third_party": sorted(added - sys.stdlib_module_names)}))
"""


def test_fresh_import_loads_no_third_party_module():
    out = subprocess.run([sys.executable, "-c", PROBE, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"jsonschema": False, "third_party": ["roverbench"]}
