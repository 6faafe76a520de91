"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import walklab

MODULES = ["walklab"] + [
    f"walklab.{info.name}" for info in pkgutil.iter_modules(walklab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [attr for attr in names if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_are_the_module_objects():
    for name in walklab.__all__:
        if name == "__version__":
            continue
        obj = getattr(walklab, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj
