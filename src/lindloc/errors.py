"""Exception types raised across the library."""


class LindlocError(Exception):
    """Base class for all lindloc errors."""


class DimensionMismatchError(LindlocError):
    """Operator or state dimensions do not line up."""


class NonHermitianError(LindlocError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NonFiniteError(LindlocError):
    """A state holds NaN or infinite entries."""


class PositivityError(LindlocError):
    """A density matrix has a negative eigenvalue beyond tolerance."""


class AmbiguousSpectrumError(LindlocError):
    """Eigenvalue clusters are too wide for the grouping tolerance to be meaningful."""


class DenseSpectrumError(LindlocError):
    """Bohr-frequency spacing is too small relative to the coupling strength."""


class NonUniqueSteadyStateError(LindlocError):
    """The generator has a null space of dimension greater than one."""

    def __init__(self, null_dim: int):
        self.null_dim = null_dim
        super().__init__(
            f"steady state is not unique: null space has dimension {null_dim}"
        )


class IntegrationError(LindlocError):
    """A trajectory invariant was violated during time evolution."""


class ConfigError(LindlocError):
    """A run configuration is malformed or inconsistent."""
