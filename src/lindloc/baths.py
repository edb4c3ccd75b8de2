"""Thermal-bath descriptions and golden-rule rates.

Rates follow the standard convention for a bath at inverse temperature beta
probed at Bohr frequency w:

    gamma(w > 0) = 2 pi h2(w)  (n(w) + 1)      emission into the bath
    gamma(w < 0) = 2 pi h2(|w|) n(|w|)         absorption from the bath
    gamma(0)     = 0

with n the Bose-Einstein occupation and h2 the squared coupling density.
Detailed balance gamma(w) = gamma(-w) exp(beta w) then holds by construction.
A rate is a plain float, so extreme inputs can make it inf or nan (n is inf
where beta w underflows to 0); the generator build scales each rate by
beta_coupling^2 in one place (liouvillian._scaled_rates), which refuses a
scaled rate that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_hermitian

TWO_PI = 2.0 * math.pi

# Above this, exp(beta * w) overflows double precision; use the asymptotic form.
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class SpectralModel:
    """Squared coupling density h2(w) on w > 0.

    kind "flat":  h2(w) = coupling_scale
    kind "ohmic": h2(w) = coupling_scale * w * exp(-w / cutoff)
    """

    kind: str
    coupling_scale: float
    cutoff: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "ohmic"):
            raise ValueError(f"unknown spectral model kind {self.kind!r}")
        if not 0.0 <= self.coupling_scale < math.inf:
            raise ValueError(
                f"coupling_scale must be finite and >= 0, got {self.coupling_scale!r}"
            )
        if self.kind == "ohmic":
            if self.cutoff is None or not 0.0 < self.cutoff < math.inf:
                raise ValueError("ohmic spectral model needs a finite positive cutoff")
        elif self.cutoff is not None:
            raise ValueError("flat spectral model takes no cutoff")

    def coupling_sq(self, omega: float) -> float:
        if omega <= 0.0:
            raise ValueError(f"coupling density is defined for omega > 0, got {omega!r}")
        if self.kind == "flat":
            return self.coupling_scale
        return self.coupling_scale * omega * math.exp(-omega / self.cutoff)


@dataclass(frozen=True)
class BathSpec:
    """One thermal bath attached to one subsystem.

    coupling_op is Hermitian and lives on the subsystem's local Hilbert
    space; the generator builder embeds it into the full product space.
    """

    label: str
    beta: float
    spectral: SpectralModel
    coupling_op: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(
                f"bath {self.label!r}: beta must be finite and positive, got {self.beta!r}"
            )
        require_hermitian(self.coupling_op, tol=1e-10, name=f"bath {self.label!r} coupling op")

    @classmethod
    def from_temperature(
        cls, label: str, temperature: float, spectral: SpectralModel, coupling_op: np.ndarray
    ) -> "BathSpec":
        if not 0.0 < temperature < math.inf:
            raise ValueError(
                f"bath {label!r}: temperature must be finite and positive, got {temperature!r}"
            )
        return cls(label=label, beta=1.0 / temperature, spectral=spectral, coupling_op=coupling_op)


def bose_einstein(omega: float, beta: float) -> float:
    """Occupation 1 / (exp(beta * omega) - 1) for omega > 0, beta > 0; inf
    where beta * omega underflows to 0."""
    if omega <= 0.0:
        raise ValueError(f"bose_einstein needs omega > 0, got {omega!r}")
    if beta <= 0.0:
        raise ValueError(f"bose_einstein needs beta > 0, got {beta!r}")
    x = beta * omega
    if x > _EXP_ARG_MAX:
        return math.exp(-x)
    if x == 0.0:
        return math.inf
    return 1.0 / math.expm1(x)


def rate(omega: float, bath: BathSpec) -> float:
    """Golden-rule rate gamma(omega) for one bath; zero at omega = 0."""
    if omega == 0.0:
        return 0.0
    aw = abs(omega)
    h2 = bath.spectral.coupling_sq(aw)
    if h2 == 0.0:
        return 0.0
    n = bose_einstein(aw, bath.beta)
    if omega > 0.0:
        return TWO_PI * h2 * (n + 1.0)
    return TWO_PI * h2 * n
