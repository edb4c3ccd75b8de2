"""Energy-level grouping and Bohr-frequency decompositions.

An operator A relative to a Hamiltonian with grouped eigenvalues e_k and
projectors P_k splits into frequency components

    A(w) = sum over (m, n) with e_n - e_m = w of  P_m A P_n,

so that sum_w A(w) = A and A(w)† = A(-w). The w = 0 component is the part of
A that commutes with the Hamiltonian; dropping everything else is the secular
filter used when building the interaction term of the local generator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousSpectrumError, DimensionMismatchError
from .linalg import HermitianEigenSystem, max_abs, require_hermitian, require_square

log = logging.getLogger("lindloc")

# Relative scale for merging eigenvalues / Bohr frequencies.
DEFAULT_GROUPING_SCALE = 1e-9
# Decomposition terms smaller than this (relative to the source) are dropped.
ZERO_TERM_SCALE = 1e-12


def default_grouping_tol(eigenvalues: np.ndarray) -> float:
    """Grouping tolerance relative to the largest eigenvalue magnitude."""
    scale = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    if scale == 0.0:
        return 1e-15
    return DEFAULT_GROUPING_SCALE * scale


def _cluster_sorted(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clusters of a sorted 1-d array: split where the gap exceeds tol."""
    if values.size == 0:
        return []
    breaks = np.nonzero(np.diff(values) > tol)[0] + 1
    return np.split(np.arange(values.size), breaks)


@dataclass(frozen=True)
class EnergyLevels:
    """Distinct (grouped) eigenvalues with their spectral projectors."""

    energies: np.ndarray
    projectors: tuple[np.ndarray, ...]
    grouping_tol: float

    @property
    def count(self) -> int:
        return self.energies.shape[0]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def bohr_frequencies(self) -> np.ndarray:
        """Sorted distinct energy differences e_n - e_m, merged at grouping_tol."""
        diffs = (self.energies[None, :] - self.energies[:, None]).ravel()
        diffs = np.sort(diffs)
        reps = [float(np.mean(diffs[idx])) for idx in _cluster_sorted(diffs, self.grouping_tol)]
        return np.array(reps)


def bohr_labels(eigenvalues: np.ndarray, tol: float) -> np.ndarray:
    """Label of E_i - E_j for each column-stacked index pair (i, j) -> i + d j,
    clustered at tol with the rule bohr_frequencies uses; ascending in frequency."""
    diffs = (eigenvalues[:, None] - eigenvalues[None, :]).ravel(order="F")
    order = np.argsort(diffs, kind="stable")
    labels = np.empty(diffs.size, dtype=int)
    labels[order] = np.concatenate(([0], np.cumsum(np.diff(diffs[order]) > tol)))
    return labels


def group_levels(eig: HermitianEigenSystem, tol: float) -> EnergyLevels:
    """Merge eigenvalues within tol of each other into degenerate levels.

    Raises AmbiguousSpectrumError when a merged cluster spans more than
    10 * tol: the spectrum has no clean separation at this tolerance.
    """
    if tol <= 0.0:
        raise ValueError(f"grouping tolerance must be positive, got {tol!r}")
    w, v = eig.eigenvalues, eig.eigenvectors
    energies = []
    projectors = []
    for idx in _cluster_sorted(w, tol):
        diameter = float(w[idx[-1]] - w[idx[0]])
        if diameter > 10.0 * tol:
            raise AmbiguousSpectrumError(
                f"eigenvalue cluster around {float(np.mean(w[idx])):.6g} spans "
                f"{diameter:.3e}, more than 10x the grouping tolerance {tol:.3e}"
            )
        cols = v[:, idx]
        energies.append(float(np.mean(w[idx])))
        projectors.append(cols @ cols.conj().T)
    return EnergyLevels(
        energies=np.array(energies), projectors=tuple(projectors), grouping_tol=tol
    )


@dataclass(frozen=True)
class BohrDecomposition:
    """Frequency components of one operator: a list of (frequency, component) pairs."""

    terms: tuple[tuple[float, np.ndarray], ...]
    source: np.ndarray = field(repr=False)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])

    def component(self, omega: float, tol: float) -> np.ndarray:
        """The component at a given frequency, or a zero matrix if absent."""
        for w, op in self.terms:
            if abs(w - omega) <= tol:
                return op
        return np.zeros_like(self.source)

    def resum(self) -> np.ndarray:
        out = np.zeros_like(self.source)
        for _, op in self.terms:
            out = out + op
        return out


def decompose_operator(a: np.ndarray, levels: EnergyLevels) -> BohrDecomposition:
    """Split an operator into its Bohr-frequency components.

    Frequencies within the grouping tolerance are merged into one term;
    components with entries below ZERO_TERM_SCALE relative to the source are
    dropped.
    """
    d = require_square(a, "operator")
    if d != levels.dim:
        raise DimensionMismatchError(
            f"operator dimension {d} does not match level dimension {levels.dim}"
        )
    e, proj = levels.energies, levels.projectors
    raw_w = []
    raw_op = []
    for m in range(levels.count):
        left = proj[m] @ a
        for n in range(levels.count):
            raw_w.append(e[n] - e[m])
            raw_op.append(left @ proj[n])

    raw_w = np.array(raw_w)
    order = np.argsort(raw_w, kind="stable")
    sorted_w = raw_w[order]

    scale = max_abs(a)
    terms: list[tuple[float, np.ndarray]] = []
    for idx in _cluster_sorted(sorted_w, levels.grouping_tol):
        comp = np.zeros_like(a, dtype=complex)
        for k in idx:
            comp = comp + raw_op[order[k]]
        if scale > 0.0 and max_abs(comp) < ZERO_TERM_SCALE * scale:
            continue
        terms.append((float(np.mean(sorted_w[idx])), comp))
    return BohrDecomposition(terms=tuple(terms), source=np.asarray(a, dtype=complex))


def secular_filter(h: np.ndarray, levels: EnergyLevels) -> np.ndarray:
    """Zero-frequency part of a Hermitian operator: sum_k P_k h P_k.

    This is the component that commutes with the Hamiltonian defining the
    levels; it equals the w = 0 term of decompose_operator.
    """
    require_hermitian(h, name="interaction operator")
    if h.shape[0] != levels.dim:
        raise DimensionMismatchError(
            f"operator dimension {h.shape[0]} does not match level dimension {levels.dim}"
        )
    out = np.zeros_like(h, dtype=complex)
    for p in levels.projectors:
        out = out + p @ h @ p
    return out


@dataclass(frozen=True)
class SpectrumDiagnostics:
    """Separation of the Bohr spectrum relative to a coupling strength.

    status is PASS when both ratios are at least 10, WARN when the smaller
    one is in [1, 10), FAIL below 1. Ratios are +inf when the spectrum has no
    nonzero frequency (or no distinct pair).
    """

    coupling: float
    min_nonzero_frequency: float
    min_frequency_spacing: float
    frequency_ratio: float
    spacing_ratio: float
    status: str


def sparse_spectrum_diagnostics(levels: EnergyLevels, coupling: float) -> SpectrumDiagnostics:
    """Compare Bohr-frequency gaps of the grouped spectrum against a coupling.

    All frequency pairs enter the spacing minimum, whichever subsystems they
    came from; the caller decides what to do with WARN.
    """
    if coupling <= 0.0:
        raise ValueError(f"coupling strength must be positive, got {coupling!r}")
    freqs = levels.bohr_frequencies()
    nonzero = np.abs(freqs[np.abs(freqs) > levels.grouping_tol])
    min_freq = float(nonzero.min()) if nonzero.size else float("inf")
    if freqs.size >= 2:
        spacings = np.diff(np.sort(freqs))
        min_spacing = float(spacings.min())
    else:
        min_spacing = float("inf")
    fr = min_freq / coupling
    sr = min_spacing / coupling
    worst = min(fr, sr)
    if worst < 1.0:
        status = "FAIL"
    elif worst < 10.0:
        status = "WARN"
    else:
        status = "PASS"
    return SpectrumDiagnostics(
        coupling=coupling,
        min_nonzero_frequency=min_freq,
        min_frequency_spacing=min_spacing,
        frequency_ratio=fr,
        spacing_ratio=sr,
        status=status,
    )
