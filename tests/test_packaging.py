"""Every console script that pyproject.toml declares can be imported, every
name a package exports resolves, ``conceptfx.checks`` holds the package's
only argument rule, ``corpus/poms.py`` is the only module naming a POMS
label, and no module imports ``warnings``."""

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


def _tests_for_bool(path: Path) -> bool:
    """Whether ``path`` calls ``isinstance(x, bool)``, alone or in a tuple of types."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(t, "id", None) == "bool" for t in types):
                return True
    return False


def test_checks_is_the_only_argument_rule():
    # A module that imports ``numbers`` or tells a ``bool`` from an ``int`` writes its
    # own integer or real rule.
    assert not any(name.startswith("conceptfx") for name in _imports(PACKAGE / "checks.py"))
    modules = sorted(PACKAGE.rglob("*.py"))
    users = [path.relative_to(PACKAGE).as_posix() for path in modules if "numbers" in _imports(path)]
    assert users == ["checks.py"]
    users = [path.relative_to(PACKAGE).as_posix() for path in modules if _tests_for_bool(path)]
    assert users == ["checks.py"]


POMS_LABELS = {"anger", "sadness", "fear", "joy"}


def _names_a_poms_label(path: Path) -> bool:
    """Whether ``path`` holds a string literal that is a POMS label."""
    return any(isinstance(node, ast.Constant) and node.value in POMS_LABELS
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_poms_is_the_only_module_naming_a_poms_label():
    # The bias ladder indexes these labels, so it lives next to them.
    users = [path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py"))
             if _names_a_poms_label(path)]
    assert users == ["corpus/poms.py"]


def test_package_never_warns():
    # A library warning is an error under the test settings and noise for a caller;
    # bad input raises the module's typed error instead.
    users = [path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py"))
             if "warnings" in _imports(path)]
    assert users == []
