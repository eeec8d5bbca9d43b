"""Every name a module of the package imports is used by that module.

No linter runs here, so this walks each module's syntax tree. The package's
__init__ is skipped: its imports are the public API it re-exports. A line
marked `# noqa: F401` may import only shims: names the module does not use
and that perfbench/tracing.py's SITES wraps at that module, so that the
tracer times the calls other modules make through it.
"""

import ast
from pathlib import Path

import pytest

from conftest import tracer_sites

SRC = Path(__file__).parent.parent / "src" / "embedit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str, shims: set[str]) -> list[str]:
    """Each imported name that the module does not use, unless its line is
    marked and `shims` holds it, and each name on a marked line that is not
    such a shim, as "line N: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                marked = "# noqa: F401" in lines[alias.lineno - 1]
                imported.append((alias.asname or alias.name.split(".")[0], alias.lineno, marked))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line, marked in imported
            if (name in used) == marked or (marked and name not in shims)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    shims = {site.split(".")[0] for module, site, _ in tracer_sites()
             if module == f"embedit.{path.stem}"}
    assert unused_imports(path.read_text(encoding="utf-8"), shims) == []


def test_the_check_sees_an_unused_and_an_exempt_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import (\n"
              "    dumps,\n    loads,\n)\nprint(loads)\n")
    assert unused_imports(source, {"sys"}) == ["line 1: os", "line 4: dumps"]


def test_a_marked_import_must_be_an_unused_tracer_site():
    source = ("import re  # noqa: F401\nimport sys  # noqa: F401\n"
              "from math import pi, tau  # noqa: F401\nprint(pi)\n")
    assert unused_imports(source, {"sys", "pi", "tau"}) == ["line 1: re", "line 3: pi"]
