"""Local GKLS master equations with thermodynamic bookkeeping.

Build a network of weakly coupled subsystems with local thermal baths,
construct the secular-filtered local generator (or its naive baseline),
integrate trajectories, solve for steady states, and audit both laws of
thermodynamics along the way.
"""

from .baths import BathSpec, SpectralModel, bose_einstein, rate
from .dynamics import SolverConfig, SteadyStateResult, Trajectory, evolve, steady_state
from .errors import (
    AmbiguousSpectrumError,
    ConfigError,
    DenseSpectrumError,
    DimensionMismatchError,
    IntegrationError,
    LindlocError,
    NonFiniteError,
    NonHermitianError,
    NonUniqueSteadyStateError,
    PositivityError,
    SpecError,
)
from .linalg import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HermitianEigenSystem,
    embed,
    hermitian_eig,
    kron,
)
from .liouvillian import (
    Generator,
    Subsystem,
    SystemSpec,
    build_modified_local,
    build_naive_local,
    product_gibbs,
    vectorize,
)
from .models import (
    DEFAULT_SPECTRAL,
    TwoQubitParams,
    qubit_chain_model,
    single_qubit_model,
    two_qubit_model,
)
from .spectral import (
    EnergyLevels,
    SpectrumDiagnostics,
    decompose_operator,
    group_levels,
    secular_filter,
    sparse_spectrum_diagnostics,
)
from .thermo import ThermoReport, audit, audit_columns, audit_trajectory

__version__ = "0.1.0"
