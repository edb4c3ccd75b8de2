"""First- and second-law bookkeeping for local generators.

Per bath, the heat current is the dissipator's energy flow measured against
the free Hamiltonian,

    Qdot_i = tr(H_s D_i[rho])            (D_i already carries beta^2),

the internal energy rate is Edot = tr(H_s L[rho]), and the entropy rate is
dS/dt = -tr(L[rho] ln rho). Entropy production sigma = dS/dt - sum_i beta_i
Qdot_i is non-negative for the filtered generator by Spohn's inequality
applied to the partial generator, whose fixed point is the product of local
Gibbs states. The audit reports violations; it never raises on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baths import BathSpec
from .errors import PositivityError
from .liouvillian import Generator

# Mixing weight for the log of nearly singular states: ln is taken at
# (1 - eps) rho + eps I/d when rho has an eigenvalue below LOG_FLOOR.
LOG_EPSILON = 1e-12
LOG_FLOOR = 1e-12

SECOND_LAW_TOL = 1e-9


@dataclass(frozen=True)
class ThermoReport:
    """Energy and entropy bookkeeping for one state under one generator."""

    q_dot: tuple[float, ...]
    e_dot: float
    s_dot: float
    first_law_residual: float
    entropy_production: float
    spohn_lhs: float
    spohn_rhs: float
    spohn_residual: float
    second_law_ok: bool


def _state_log(rho: np.ndarray) -> np.ndarray:
    """ln rho via eigendecomposition, mixing toward I/d when nearly singular."""
    d = rho.shape[0]
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if w.min() < -1e-9:
        raise PositivityError(
            f"cannot take ln of a state with eigenvalue {w.min():.3e} below -1e-9"
        )
    w = np.clip(w, 0.0, None)
    if w.min() < LOG_FLOOR:
        w = (1.0 - LOG_EPSILON) * w + LOG_EPSILON / d
    return (v * np.log(w)) @ v.conj().T


def heat_current(gen: Generator, rho: np.ndarray, bath_index: int) -> float:
    """Heat flowing from bath `bath_index` into the system."""
    if not 0 <= bath_index < len(gen.channels):
        raise IndexError(f"bath index {bath_index} out of range")
    return float(np.trace(gen.h_free @ gen.dissipator(bath_index, rho)).real)


def internal_energy_rate(gen: Generator, rho: np.ndarray) -> float:
    """d/dt tr(H_s rho) under the full generator."""
    return float(np.trace(gen.h_free @ gen.apply(rho)).real)


def entropy_rate(gen: Generator, rho: np.ndarray) -> float:
    """dS/dt = -tr(L[rho] ln rho)."""
    return float(-np.trace(gen.apply(rho) @ _state_log(rho)).real)


def audit(gen: Generator, rho: np.ndarray, baths: list[BathSpec] | None = None) -> ThermoReport:
    """Evaluate both laws at one state; violations are reported, not raised.

    Each bath's dissipator is applied once: the heat currents, L[rho] and
    the partial L_p[rho] all come from one Generator.terms call.
    """
    if baths is None:
        baths = gen.spec.baths
    diss, l_partial, l_full = gen.terms(rho)
    h = gen.h_free
    q = tuple(float(np.trace(h @ d_i).real) for d_i in diss[: len(baths)])
    e_dot = float(np.trace(h @ l_full).real)
    first_law_residual = e_dot - sum(q)

    ln_rho = _state_log(rho)
    s_dot = float(-np.trace(l_full @ ln_rho).real)
    spohn_lhs = float(-np.trace(l_partial @ ln_rho).real)
    spohn_rhs = float(-np.trace(l_partial @ gen.log_product_gibbs).real)

    sum_beta_q = sum(b.beta * qi for b, qi in zip(baths, q))
    entropy_production = s_dot - sum_beta_q
    return ThermoReport(
        q_dot=q,
        e_dot=e_dot,
        s_dot=s_dot,
        first_law_residual=first_law_residual,
        entropy_production=entropy_production,
        spohn_lhs=spohn_lhs,
        spohn_rhs=spohn_rhs,
        spohn_residual=abs(spohn_rhs - sum_beta_q),
        second_law_ok=bool(entropy_production >= -SECOND_LAW_TOL),
    )


def audit_trajectory(gen: Generator, trajectory, baths: list[BathSpec] | None = None) -> list[ThermoReport]:
    """Audit every recorded state and attach the reports to the trajectory."""
    reports = [audit(gen, rho, baths) for rho in trajectory.states]
    trajectory.reports = reports
    return reports


__all__ = [
    "ThermoReport",
    "audit",
    "audit_trajectory",
    "entropy_rate",
    "heat_current",
    "internal_energy_rate",
]
