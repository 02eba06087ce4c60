"""The package's export lists name live objects, each once."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rssb


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


def test_import_leaves_scipy_signal_out():
    # scipy.signal would be most of the package's import time and
    # memory; the package designs and runs its filter without it
    code = ("import sys, rssb, rssb.cli; "
            "print('scipy.signal' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(rssb.__file__).parents[1]),
               os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
