"""The package's public surface: what `import embedit` exports, the README's
list of it, and the test oracles it does not ship."""

import re
import types
from pathlib import Path

import embedit
import embedit.autodiff
import embedit.probe

README = Path(__file__).resolve().parent.parent / "README.md"


def _exports() -> set[str]:
    return {name for name, value in vars(embedit).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_readme_lists_every_export_and_only_exports():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([A-Za-z_]\w*)", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert sorted(_exports() - set(listed)) == []
    assert sorted(set(listed) - _exports()) == []


def test_the_package_ships_no_test_oracle():
    # They live in tests/oracles.py.
    for name in ("mul", "sum_all", "finite_difference_grad"):
        assert not hasattr(embedit.autodiff, name)
        assert not hasattr(embedit, name)
    assert not hasattr(embedit.probe, "logreg_loss")
