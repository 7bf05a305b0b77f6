"""The package namespace: public names load from their submodules on use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockops

SRC = str(Path(fockops.__file__).resolve().parents[1])


def python(code: str) -> str:
    """stdout of ``python -c code`` in a fresh process on this source tree."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          check=True)
    return proc.stdout


def test_import_fockops_imports_no_numpy():
    code = "import sys, fockops; print('numpy' in sys.modules)"
    assert python(code).split() == ["False"]


def test_every_public_name_is_its_submodules_own_object():
    for name in fockops.__all__:
        obj = getattr(fockops, name)
        home = importlib.import_module(obj.__module__)
        assert obj.__module__ == f"fockops.{fockops._HOME[name]}", name
        assert getattr(home, name) is obj, name


def test_a_rebound_submodule_name_shows_through(monkeypatch):
    original = fockops.berezin_at
    monkeypatch.setattr(fockops.berezin, "berezin_at", len)
    assert fockops.berezin_at is len
    monkeypatch.undo()
    assert fockops.berezin_at is original


def test_dir_lists_every_public_name_and_submodule():
    names = set(dir(fockops))
    assert set(fockops.__all__) <= names
    assert {"berezin", "criteria", "symbols", "__version__"} <= names


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fockops import *", namespace)
    for name in fockops.__all__:
        assert namespace[name] is getattr(fockops, name), name


def test_submodules_resolve_as_attributes():
    assert python("import fockops; print(fockops.quadrature.__name__)") \
        .split() == ["fockops.quadrature"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fockops.no_such_name
    assert not hasattr(fockops, "cli_nonsense")
