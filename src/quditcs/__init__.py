"""Coherent states of finite-dimensional (qudit) oscillators.

Construction of the displacement and Poissonian coherent-state families on a
truncated Fock space, their even/odd cat projections and fidelity tables,
Wigner functions with mixture/interference decomposition, optical tomograms,
and the nonclassical-volume measure.

The submodules are loaded on first use (PEP 562): ``import quditcs`` imports
none of them, nor numpy, and the first access to a name below imports the
submodule that defines it.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Each submodule and its public names: the submodule's __all__ and the names
# the package exports from it.
_EXPORTS = {
    "errors": (
        "AmplitudeFormatError",
        "ConvergenceError",
        "DimensionMismatchError",
        "NullStateError",
        "QuditError",
    ),
    "fock": (
        "QuditState",
        "displaced_vacuum",
        "displacement_oracle",
        "fidelity",
        "mixed_fidelity",
        "outer_radius",
        "photon_distribution",
    ),
    "phase_space": (
        "PhasePoint",
        "WignerGrid",
        "nonclassical_volume",
        "wigner_cross",
        "wigner_fock",
        "wigner_grid",
        "wigner_mixture",
        "wigner_state",
        "wigner_values",
    ),
    "qcs": (
        "QcsParams",
        "Quasiperiod",
        "cat_state",
        "closed_form_qcs",
        "complementary_state",
        "linear_qcs",
        "nonlinear_qcs",
        "parity_coefficients",
        "quasiperiod",
    ),
    "special_fn": (
        "HermiteRootTable",
        "MAX_DEGREE",
        "he_eval",
        "he_roots",
        "hermite_function_table",
        "orthonormal_he_table",
    ),
    "tomography": (
        "Tomogram",
        "tomogram_closed_form",
        "tomogram_from_wigner",
        "tomogram_grid",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        value = _importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
