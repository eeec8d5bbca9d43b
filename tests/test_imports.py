"""Every name a module of the package imports is used by that module.

No linter runs here, so this walks each module's syntax tree. The package's
__init__ is skipped: its imports are the public API it re-exports. A name
imported on a line marked `# noqa: F401` is exempt; such a line names a
module attribute that a tracer wraps (perfbench/tracing.py) although the
module itself does not call it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "embedit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_and_an_exempt_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import (\n"
              "    dumps,\n    loads,\n)\nprint(loads)\n")
    assert unused_imports(source) == ["line 1: os", "line 4: dumps"]
