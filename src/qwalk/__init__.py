"""Simulation and verification laboratory for a one-parameter family of
coined quantum walks on the line and the square lattice.

The package is organized around an exact position-space oracle
(:mod:`qwalk.walk1d`, :mod:`qwalk.walk2d`) against which every other layer
is validated: closed-form amplitudes from a Chebyshev-type coefficient
recurrence (:mod:`qwalk.closedform`), kernel eigensystems and weak-limit
moment quadrature (:mod:`qwalk.spectral`), initial-state symmetry classes
and exchange identities (:mod:`qwalk.symmetry`), and finite-horizon
localization probes (:mod:`qwalk.localization`).  ``qwalk.cli`` exposes all
of it on the command line, including the acceptance suite
(:mod:`qwalk.validation`).
"""

from .coin import (
    CoinParameter,
    coin_1d,
    coin_2d,
    kernel_1d,
    kernel_2d,
)
from .errors import (
    DegenerateSpectrumError,
    InvalidParameterError,
    InvalidStateError,
    PreconditionError,
    QwalkError,
)
from .walk1d import (
    Distribution1D,
    QubitState,
    WaveField1D,
    distribution_1d,
    evolve_1d,
    init_1d,
    moment_1d,
    step_1d,
    trajectory_1d,
)
from .walk2d import (
    Distribution2D,
    QuditState,
    WaveField2D,
    distribution_2d,
    evolve_2d,
    init_2d,
    joint_moment_2d,
    step_2d,
    trajectory_2d,
)
from .closedform import (
    LaurentCoefficients,
    alpha_coefficients,
    closed_form_field,
    closed_form_fields,
    double_sum_coefficient,
)
from .spectral import (
    EigenBranch,
    MomentReport,
    QuadratureGrid,
    convergence_report,
    eigensystem_1d,
    eigensystem_2d,
    group_velocity,
    limit_moment_1d,
    limit_moment_2d,
    limit_moments_2d,
    sigma,
)
from .symmetry import (
    ABTable,
    SymmetryVerdict1D,
    classify_1d,
    empirical_symmetric_1d,
    empirical_symmetric_2d,
    expectation_series,
    extract_ab,
    in_phi_perp,
    in_phi_perp_2d,
    kns_check,
    reflection_identity_1d,
    reflection_identity_2d,
)
from .localization import (
    DeltaIntensityEstimate,
    localization_verdict,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QwalkError",
    "InvalidParameterError",
    "InvalidStateError",
    "DegenerateSpectrumError",
    "PreconditionError",
    # coin
    "CoinParameter",
    "coin_1d",
    "coin_2d",
    "kernel_1d",
    "kernel_2d",
    # line walk
    "QubitState",
    "WaveField1D",
    "Distribution1D",
    "init_1d",
    "step_1d",
    "trajectory_1d",
    "evolve_1d",
    "distribution_1d",
    "moment_1d",
    # lattice walk
    "QuditState",
    "WaveField2D",
    "Distribution2D",
    "init_2d",
    "step_2d",
    "trajectory_2d",
    "evolve_2d",
    "distribution_2d",
    "joint_moment_2d",
    # closed form
    "LaurentCoefficients",
    "alpha_coefficients",
    "double_sum_coefficient",
    "closed_form_field",
    "closed_form_fields",
    # spectral
    "QuadratureGrid",
    "EigenBranch",
    "MomentReport",
    "sigma",
    "group_velocity",
    "eigensystem_1d",
    "eigensystem_2d",
    "limit_moment_1d",
    "limit_moments_2d",
    "limit_moment_2d",
    "convergence_report",
    # symmetry
    "SymmetryVerdict1D",
    "ABTable",
    "in_phi_perp",
    "in_phi_perp_2d",
    "empirical_symmetric_1d",
    "empirical_symmetric_2d",
    "classify_1d",
    "expectation_series",
    "extract_ab",
    "kns_check",
    "reflection_identity_1d",
    "reflection_identity_2d",
    # localization
    "DeltaIntensityEstimate",
    "time_averaged_probability_1d",
    "time_averaged_probability_2d",
    "localization_verdict",
]
