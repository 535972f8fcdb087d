import importlib
import pkgutil

import polyadnet


def test_every_exported_name_resolves():
    # a stale __all__ entry only fails at "import *"; name it here instead
    modules = [polyadnet] + [
        importlib.import_module(f"polyadnet.{info.name}")
        for info in pkgutil.iter_modules(polyadnet.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
