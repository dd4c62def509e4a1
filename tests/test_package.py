import importlib
import pkgutil

import pytest

import mlestep


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mlestep.__path__)))
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks only ``from mlestep.<name> import *``
    module = importlib.import_module(f"mlestep.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"mlestep.{name}.__all__ names {missing}, which the module does not define"
