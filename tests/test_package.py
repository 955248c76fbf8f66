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


@pytest.mark.parametrize("module_name", sorted(quditcs._EXPORTS))
def test_star_import_of_each_submodule_binds_exactly_its_all(module_name):
    # A name left in a submodule's __all__ after its definition is gone makes
    # this star import fail; the package table draws on the same names.
    module = importlib.import_module(f"quditcs.{module_name}")
    namespace = {}
    exec(f"from quditcs.{module_name} import *", namespace)
    namespace.pop("__builtins__")
    public = [name for name in vars(module) if not name.startswith("_")]
    assert sorted(namespace) == sorted(getattr(module, "__all__", public))
    assert sorted(namespace) == sorted(quditcs._EXPORTS[module_name])
    if hasattr(module, "__all__"):
        # The package table is the one list: each submodule's __all__ is a copy.
        assert module.__all__ == list(quditcs._EXPORTS[module_name])


def test_special_fn_star_import_binds_its_constants_and_wavefunctions():
    namespace = {}
    exec("from quditcs.special_fn import *", namespace)
    assert namespace["MAX_DEGREE"] == 150
    assert namespace["hermite_function_table"] is quditcs.special_fn.hermite_function_table


_VALUE_MAKERS = {
    "state": lambda s: quditcs.QuditState(s.amps),
    "wigner_grid": lambda s: quditcs.wigner_grid(s, nq=16, npts=16),
    "tomogram": lambda s: quditcs.tomogram_grid(s, nq=32, ntheta=32),
}


@pytest.mark.parametrize("kind", sorted(_VALUE_MAKERS))
def test_states_and_grids_compare_and_hash_by_identity(kind):
    # They hold arrays, whose == is elementwise; a field-wise == or hash
    # would raise instead of answering.
    s = quditcs.nonlinear_qcs(quditcs.QcsParams(4, 1.1))
    a, b = _VALUE_MAKERS[kind](s), _VALUE_MAKERS[kind](s)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, a, b}) == 2
    assert a in {a} and b not in {a}


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
