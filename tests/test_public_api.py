"""The package's export lists name live objects, each once."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["rssb", "rssb.estimators"])
def test_every_export_resolves_once(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["rssb", "rssb.estimators"])
def test_star_import_binds_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    mod = importlib.import_module(module)
    assert set(mod.__all__) <= set(namespace)
