"""Energy-level grouping and Bohr-frequency decompositions.

An operator A relative to a Hamiltonian with eigenvalues E_i, eigenvectors
V and eigenvalues grouped into levels e_k splits into frequency components

    A(w) = V (M_w o V† A V) V†,   (M_w)_ik = 1 if e(k) - e(i) = w else 0,

the sum over level pairs (m, n) with e_n - e_m = w of P_m A P_n, so that
sum_w A(w) = A and A(w)† = A(-w). The level-pair differences are clustered
once, by one rule (EnergyLevels), and that clustering gives the frequencies,
the masks M_w and the Bohr blocks of the generator. decompose_operator
gives the components as a tuple of (w, A(w)) pairs in ascending w; the
generator weights each bath's pairs by their scaled rates. The w = 0
component is the part of A that commutes with the Hamiltonian; dropping
everything else is the secular filter used when building the interaction
term of the local generator.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AmbiguousSpectrumError, DimensionMismatchError, LindlocError
from .linalg import HermitianEigenSystem, max_abs, require_hermitian, require_square

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


def _cluster_sorted(values: np.ndarray, tol: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Single-linkage clusters of a sorted 1-d array, split where the gap
    exceeds tol: the cluster of each value, and each cluster's values."""
    ends = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), values.size]
    label = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
    return label, [values[a:b] for a, b in zip(ends, ends[1:])]


@contextmanager
def _finite(what: str, source: str, values: np.ndarray):
    """Refuse a numpy overflow or invalid value within, made from `values`,
    as a LindlocError naming `what`, before numpy warns."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise LindlocError(
            f"{what} are not finite: grouping {source} between {values.min():.6g} "
            f"and {values.max():.6g} overflows"
        ) from None


@dataclass(frozen=True)
class EnergyLevels:
    """Distinct (grouped) eigenvalues, the eigensystem they were grouped
    from, and the level of each of its eigenvalues."""

    eig: HermitianEigenSystem
    energies: np.ndarray
    labels: np.ndarray
    grouping_tol: float

    @property
    def count(self) -> int:
        return self.energies.shape[0]

    @property
    def dim(self) -> int:
        return self.labels.shape[0]

    @cached_property
    def _bohr(self) -> tuple[np.ndarray, np.ndarray]:
        """The one clustering of the level-pair differences e_n - e_m at
        grouping_tol: the sorted cluster means, and frequency_labels."""
        with _finite("Bohr frequencies", "the differences of levels", self.energies):
            diffs = (self.energies[None, :] - self.energies[:, None]).ravel()
            order = np.argsort(diffs, kind="stable")
            label, clusters = _cluster_sorted(diffs[order], self.grouping_tol)
            freqs = np.array([float(np.mean(c)) for c in clusters])
        pair = np.empty(diffs.size, dtype=int)
        pair[order] = label
        labels = pair.reshape(self.count, -1)[np.ix_(self.labels, self.labels)]
        freqs.flags.writeable = labels.flags.writeable = False  # every caller shares them
        return freqs, labels

    def bohr_frequencies(self) -> np.ndarray:
        """Sorted distinct energy differences e_n - e_m, merged at grouping_tol."""
        return self._bohr[0]

    @cached_property
    def _gaps(self) -> tuple[float, float]:
        """The smallest nonzero |Bohr frequency| and the smallest spacing of
        two Bohr frequencies, each inf where there is none."""
        freqs = self.bohr_frequencies()
        nonzero = np.abs(freqs[np.abs(freqs) > self.grouping_tol])
        min_freq = float(nonzero.min()) if nonzero.size else float("inf")
        # the frequencies are sorted
        min_spacing = float(np.diff(freqs).min()) if freqs.size >= 2 else float("inf")
        return min_freq, min_spacing

    @property
    def frequency_labels(self) -> np.ndarray:
        """Entry (i, k) is the index in bohr_frequencies() of e(k) - e(i), the
        levels of E_k and E_i: the frequency of entry (i, k) of an operator
        written in the eigenbasis."""
        return self._bohr[1]


def group_levels(eig: HermitianEigenSystem, tol: float) -> EnergyLevels:
    """Merge eigenvalues within tol of each other into degenerate levels.

    Raises AmbiguousSpectrumError when a merged cluster spans more than
    10 * tol: the spectrum has no clean separation at this tolerance.
    """
    if tol <= 0.0:
        raise ValueError(f"grouping tolerance must be positive, got {tol!r}")
    with _finite("H_s levels", "eigenvalues", eig.eigenvalues):
        labels, clusters = _cluster_sorted(eig.eigenvalues, tol)
        for c in clusters:
            diameter = float(c[-1] - c[0])
            if diameter > 10.0 * tol:
                raise AmbiguousSpectrumError(
                    f"eigenvalue cluster around {float(np.mean(c)):.6g} spans "
                    f"{diameter:.3e}, more than 10x the grouping tolerance {tol:.3e}"
                )
        energies = np.array([float(np.mean(c)) for c in clusters])
    return EnergyLevels(eig=eig, energies=energies, labels=labels, grouping_tol=tol)


def _parts(a: np.ndarray, levels: EnergyLevels, masks: np.ndarray) -> np.ndarray:
    """V (mask o V† a V) V† for one mask or a stack: the part of a on the
    eigenbasis entries each mask selects."""
    d = require_square(a, "operator")
    if d != levels.dim:
        raise DimensionMismatchError(
            f"operator dimension {d} does not match level dimension {levels.dim}"
        )
    v = levels.eig.eigenvectors
    return v @ np.where(masks, v.conj().T @ a @ v, 0.0) @ v.conj().T


def decompose_operator(a: np.ndarray, levels: EnergyLevels) -> tuple[tuple[float, np.ndarray], ...]:
    """Split an operator into its Bohr-frequency components: the (omega,
    A(omega)) terms, in ascending omega.

    Frequencies within the grouping tolerance are merged into one term;
    components with entries below ZERO_TERM_SCALE relative to the source are
    dropped.
    """
    freqs = levels.bohr_frequencies()
    comps = _parts(a, levels, levels.frequency_labels == np.arange(freqs.size)[:, None, None])
    scale = max_abs(a)
    return tuple(
        (float(w), comp)
        for w, comp in zip(freqs, comps)
        if scale == 0.0 or max_abs(comp) >= ZERO_TERM_SCALE * scale
    )


def secular_filter(h: np.ndarray, levels: EnergyLevels) -> np.ndarray:
    """Zero-frequency part of a Hermitian operator: sum_k P_k h P_k, the
    eigenbasis entries within one level.

    This is the component that commutes with the Hamiltonian defining the
    levels; it equals the w = 0 term of decompose_operator.
    """
    require_hermitian(h, name="interaction operator")
    labels = levels.frequency_labels
    return _parts(h, levels, labels == labels[0, 0])


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
    min_freq, min_spacing = levels._gaps
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
