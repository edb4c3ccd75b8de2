"""Ready-made SystemSpec builders for qubit networks.

Each qubit has H = (E/2) sigma_z, couples to its neighbours through
sigma_x sigma_x terms, and sees its own bath through sigma_x. Temperatures
are entered as T and stored as beta = 1/T.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .baths import BathSpec, SpectralModel
from .errors import DimensionMismatchError, SpecError
from .linalg import SIGMA_X, SIGMA_Z, embed
from .liouvillian import Subsystem, SystemSpec

DEFAULT_SPECTRAL = SpectralModel(kind="flat", coupling_scale=1.0 / (2.0 * math.pi))


@dataclass(frozen=True)
class TwoQubitParams:
    e1: float = 1.0
    e2: float = 1.0
    alpha: float = 0.01
    beta_coupling: float = 0.01
    t1: float = 2.0
    t2: float = 1.0
    spectral: SpectralModel = DEFAULT_SPECTRAL
    grouping_tol: float | None = None

    def __post_init__(self):
        for name in ("e1", "e2", "t1", "t2", "beta_coupling"):
            if getattr(self, name) <= 0.0:
                raise SpecError(f"{name} must be strictly positive")
        if self.alpha < 0.0:
            raise SpecError("alpha must be >= 0")


def two_qubit_model(params: TwoQubitParams) -> SystemSpec:
    """Two bath-contacted qubits exchanging energy through sigma_x sigma_x."""
    return _chain(
        [params.e1, params.e2],
        [params.t1, params.t2],
        params.alpha,
        params.beta_coupling,
        params.spectral,
        params.grouping_tol,
    )


def single_qubit_model(
    energy: float = 1.0,
    temperature: float = 1.0,
    spectral: SpectralModel = DEFAULT_SPECTRAL,
    beta_coupling: float = 0.01,
    grouping_tol: float | None = None,
) -> SystemSpec:
    """One qubit thermalizing against one bath; no interactions, alpha = 0."""
    return _chain([energy], [temperature], 0.0, beta_coupling, spectral, grouping_tol)


# at most 256 levels: the triplets that a build forms before the memory guard
# of Structure.blocks are not guarded themselves (its d x d operators are)
MAX_CHAIN_LENGTH = 8


def qubit_chain_model(
    n: int,
    energies: list[float],
    temperatures: list[float],
    alpha: float = 0.01,
    beta_coupling: float = 0.01,
    spectral: SpectralModel = DEFAULT_SPECTRAL,
    grouping_tol: float | None = None,
) -> SystemSpec:
    """Open chain of n qubits with nearest-neighbour sigma_x sigma_x couplings."""
    if n < 1:
        raise SpecError(f"chain length must be >= 1, got {n}")
    if n > MAX_CHAIN_LENGTH:
        raise DimensionMismatchError(
            f"chain length {n} exceeds the supported maximum {MAX_CHAIN_LENGTH}"
        )
    if len(energies) != n or len(temperatures) != n:
        raise DimensionMismatchError(
            f"need {n} energies and {n} temperatures, got {len(energies)} and {len(temperatures)}"
        )
    return _chain(energies, temperatures, alpha, beta_coupling, spectral, grouping_tol)


def _chain(
    energies: list[float],
    temperatures: list[float],
    alpha: float,
    beta_coupling: float,
    spectral: SpectralModel,
    grouping_tol: float | None,
) -> SystemSpec:
    """The open chain behind all three builders, one bath per qubit. The
    public builders call this, not each other, so a wrapper on them (such as
    perfbench's tracer) sees one call per spec."""
    for k, energy in enumerate(energies):
        if not isinstance(energy, (float, numbers.Real)):  # float first: the ABC is slow
            raise SpecError(f"energy of q{k + 1} must be a real number, got {energy!r}")
        if energy <= 0.0:
            raise SpecError(f"energy of q{k + 1} must be strictly positive, got {energy!r}")
    return SystemSpec(
        subsystems=[_qubit(k, float(e)) for k, e in enumerate(energies)],
        interactions=list(_couplings(len(energies))),
        alpha=alpha,
        baths=[
            BathSpec.from_temperature(f"b{k + 1}", t, spectral, SIGMA_X)
            for k, t in enumerate(temperatures)
        ],
        beta_coupling=beta_coupling,
        grouping_tol=grouping_tol,
    )


# The operators of a chain depend on its energies and length alone, so specs
# that differ in rates (the points of a temperature sweep) share them: built
# once, read-only, and held for the last few chains only.


@lru_cache(maxsize=4 * MAX_CHAIN_LENGTH)
def _qubit(k: int, energy: float) -> Subsystem:
    """Qubit k + 1 of a chain, with its Hamiltonian read-only."""
    h = 0.5 * energy * SIGMA_Z
    h.flags.writeable = False
    return Subsystem(label=f"q{k + 1}", hamiltonian=h)


@lru_cache(maxsize=4)
def _couplings(n: int) -> tuple[np.ndarray, ...]:
    """The sigma_x sigma_x terms of an n-qubit chain's neighbours, read-only."""
    dims = [2] * n
    terms = tuple(embed(SIGMA_X, k, dims) @ embed(SIGMA_X, k + 1, dims) for k in range(n - 1))
    for term in terms:
        term.flags.writeable = False
    return terms
