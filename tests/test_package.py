"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import gamelcp

MODULES = ["gamelcp"] + [
    f"gamelcp.{info.name}" for info in pkgutil.iter_modules(gamelcp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []

