import importlib
import inspect
import pkgutil

import pytest

import cyclores

MODULES = sorted(info.name for info in pkgutil.iter_modules(cyclores.__path__))


def test_package_reexports_nothing():
    # each name is imported from its module; the package holds only submodules
    assert [name for name, value in vars(cyclores).items()
            if not name.startswith("__") and not inspect.ismodule(value)] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_lists_every_public_definition(name):
    # __all__ is a module's one list of public names: each entry resolves,
    # and each public function or class the module defines is an entry
    module = importlib.import_module(f"cyclores.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = {
        n for n, value in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(listed)) == []
