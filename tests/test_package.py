"""The package namespace, whose names load their submodules on first use."""

import importlib
import subprocess
import sys

import pytest

import quditcs


def test_every_exported_name_is_its_submodules_object():
    for name in quditcs.__all__:
        if name in quditcs._EXPORTS:
            assert getattr(quditcs, name) is importlib.import_module(f"quditcs.{name}")
        else:
            module = importlib.import_module(f"quditcs.{quditcs._MODULE_OF[name]}")
            assert getattr(quditcs, name) is getattr(module, name), name
    assert set(quditcs.__all__) <= set(dir(quditcs))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quditcs import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(quditcs.__all__)
    assert namespace["wigner_grid"] is quditcs.phase_space.wigner_grid


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        quditcs.no_such_name
    assert not hasattr(quditcs, "gridcsv_writer")
    from quditcs import gridcsv  # a submodule left out of the table still imports

    assert gridcsv.__name__ == "quditcs.gridcsv"


def test_names_resolve_in_a_fresh_interpreter():
    # Each access imports only the submodule that defines the name.
    script = """
import sys
import quditcs
assert "quditcs.phase_space" not in sys.modules
assert quditcs.phase_space is sys.modules["quditcs.phase_space"]
assert "quditcs.tomography" not in sys.modules
from quditcs import tomogram_grid
from quditcs.tomography import tomogram_grid as defined
assert tomogram_grid is defined
assert sorted(n for n in dir(quditcs) if not n.startswith("_")) == sorted(quditcs.__all__)
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
