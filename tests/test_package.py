"""The package's exported names.  `__all__` is derived from the imports of
`repbasis/__init__.py`, so these tests check the derivation against those
imports and the submodules, never against a copy of the list."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import repbasis

SUBMODULES = ("cli", "construct", "errors", "repcore", "sidon", "trace", "verify")


def test_a_star_import_binds_exactly_all():
    namespace = {}
    exec("from repbasis import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(repbasis.__all__)


def test_all_holds_no_module_and_no_private_name():
    for name in repbasis.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(repbasis, name), ModuleType), name


def test_all_is_what_the_package_imports_from_its_submodules():
    tree = ast.parse(Path(repbasis.__file__).read_text())
    bound = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert sorted(bound) == repbasis.__all__


def test_every_export_is_the_object_a_submodule_holds():
    """So a name from outside the package, imported into __init__, would
    show here even under a submodule's name."""
    modules = [importlib.import_module(f"repbasis.{name}") for name in SUBMODULES]
    for name in repbasis.__all__:
        value = getattr(repbasis, name)
        assert any(getattr(module, name, None) is value for module in modules), name
