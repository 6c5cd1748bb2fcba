import importlib
import pkgutil

import ridgeiv


def test_every_exported_name_resolves():
    modules = [ridgeiv] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(ridgeiv.__path__, "ridgeiv.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []
