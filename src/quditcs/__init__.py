"""Coherent states of finite-dimensional (qudit) oscillators.

Construction of the displacement and Poissonian coherent-state families on a
truncated Fock space, their even/odd cat projections and fidelity tables,
Wigner functions with mixture/interference decomposition, optical tomograms,
and the nonclassical-volume measure.
"""

from .errors import (
    AmplitudeFormatError,
    ConvergenceError,
    DimensionMismatchError,
    NullStateError,
    QuditError,
)
from .fock import (
    QuditOperator,
    QuditState,
    annihilation,
    creation,
    displaced_vacuum,
    displacement_oracle,
    fidelity,
    mixed_fidelity,
    photon_distribution,
)
from .phase_space import (
    PhasePoint,
    QuadratureSpec,
    WignerGrid,
    nonclassical_volume,
    outer_radius,
    wigner_cross,
    wigner_fock,
    wigner_grid,
    wigner_mixture,
    wigner_state,
    wigner_values,
)
from .qcs import (
    QcsParams,
    Quasiperiod,
    cat_state,
    closed_form_qcs,
    complementary_state,
    linear_qcs,
    nonlinear_qcs,
    parity_coefficients,
    quasiperiod,
)
from .special_fn import (
    HermiteRootTable,
    he_asymptotic,
    he_eval,
    he_roots,
    he_zero,
    laguerre_eval,
    log_factorial,
    orthonormal_he_eval,
    orthonormal_he_table,
)
from .tomography import (
    Tomogram,
    tomogram_closed_form,
    tomogram_from_wigner,
    tomogram_grid,
)

__version__ = "0.1.0"
