"""Every console script that pyproject.toml declares can be imported, every
name a package exports resolves, and ``conceptfx.checks`` holds the
package's only argument rule."""

import ast
import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "conceptfx"


def test_project_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("package", ["conceptfx.corpus", "conceptfx.model"])
def test_exported_names_resolve(package):
    # A stale name in __all__ breaks only ``from package import *``.
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _imports(path: Path) -> set[str]:
    """Absolute names of the modules ``path`` imports; a relative import counts as conceptfx."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("conceptfx" if node.level else node.module)
    return names


def test_checks_is_the_only_argument_rule():
    # A module that imports ``numbers`` writes its own integer or real rule.
    assert not any(name.startswith("conceptfx") for name in _imports(PACKAGE / "checks.py"))
    users = sorted(path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")
                   if "numbers" in _imports(path))
    assert users == ["checks.py"]
