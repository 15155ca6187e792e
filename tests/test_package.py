"""The package namespace: every exported name resolves on first use to its
home module's object, and README's "Library use" block runs as written."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


@pytest.fixture
def package(monkeypatch):
    """A fresh namespace of the package, before any name was used, standing
    in for `inversive` in sys.modules."""
    spec = importlib.util.find_spec("inversive")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, "inversive", module)
    return module


class TestLazyExports:
    def test_each_name_is_its_home_modules_object(self, package):
        assert len(package.__all__) == 65
        assert not set(vars(package)) & set(package.__all__)
        for name in package.__all__:
            home = importlib.import_module("inversive." + package._HOME[name])
            assert getattr(package, name) is getattr(home, name), name
            assert vars(package)[name] is getattr(home, name), name

    def test_dir_lists_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, package):
        ns = {}
        exec("from inversive import *", ns)
        assert set(ns) - {"__builtins__"} == set(package.__all__)
        assert all(ns[name] is getattr(package, name) for name in package.__all__)

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "cmd_plot")

    def test_from_import_falls_back_to_the_submodule(self, package):
        # `cli` is no attribute of the fresh namespace: the import asks
        # __getattr__ first and takes the submodule after its AttributeError
        cli = importlib.import_module("inversive.cli")
        ns = {}
        exec("from inversive import cli", ns)
        assert ns["cli"] is cli

    def test_witness_names_load_no_search(self):
        # a fresh interpreter: this one may hold the searches already
        src = os.path.dirname(os.path.dirname(importlib.util.find_spec("inversive").origin))
        probe = ("from inversive import SeparationWitness, ColoredConfig\n"
                 "import json, sys\nprint(json.dumps(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        loaded = set(json.loads(out))
        assert "inversive.witness" in loaded
        assert not loaded & {"inversive.chromatic", "inversive.colorings"}


def test_readme_library_use_block_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n[1, 2, 3, 4]\n"
