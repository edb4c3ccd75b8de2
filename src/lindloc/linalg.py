"""Dense complex linear algebra helpers shared by every other module.

States and operators are plain numpy arrays of dtype complex. Eigenbases of
Hermitian matrices come from LAPACK via numpy.linalg.eigh and are always
sorted by ascending eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, PositivityError

# -- constant single-qubit operators ----------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# Bytes of one stacked temporary when a stack of matrices is worked through
# in runs: a run holds a few such temporaries, so however long the stack, the
# work needs the memory of a few matrices on top of the stack itself.
STACK_BYTES = 1 << 16


def run_length(nbytes: int) -> int:
    """How many items of nbytes each a run holds: STACK_BYTES of them, and at
    least one."""
    return max(1, STACK_BYTES // nbytes)


def runs(count: int, d: int) -> list[slice]:
    """Consecutive slices over a stack of `count` complex d x d matrices, each
    of at most run_length(16 d^2) matrices."""
    size = run_length(16 * d * d)
    return [slice(k, k + size) for k in range(0, count, size)]


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty input."""
    return float(np.abs(m).max()) if m.size else 0.0


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m†| relative to the largest entry of m."""
    scale = max_abs(m)
    if scale == 0.0:
        return 0.0
    return max_abs(m - m.conj().T) / scale


def require_square(m: np.ndarray, name: str = "matrix") -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    return m.shape[0]


def require_hermitian(m: np.ndarray, tol: float = 1e-10, name: str = "matrix") -> None:
    require_square(m, name)
    if not np.isfinite(m).all():
        raise NonHermitianError(f"{name} has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NonHermitianError(
            f"{name} is not Hermitian: relative asymmetry {defect:.3e} exceeds {tol:.1e}"
        )


def kron(a: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more operators, left to right."""
    out = np.asarray(a, dtype=complex)
    for b in rest:
        out = np.kron(out, b)
    return out


def embed(op: np.ndarray, index: int, dims: list[int]) -> np.ndarray:
    """Lift a single-factor operator into the full tensor-product space.

    `op` acts on factor `index` of a product space with factor dimensions
    `dims`; identities fill the remaining slots.
    """
    if not 0 <= index < len(dims):
        raise DimensionMismatchError(
            f"factor index {index} out of range for {len(dims)} factors"
        )
    d = require_square(op, f"operator for factor {index}")
    if d != dims[index]:
        raise DimensionMismatchError(
            f"operator for factor {index} has dimension {d}, expected {dims[index]}"
        )
    b = prod(dims[:index])
    a = prod(dims[index + 1 :])
    # kron(I_b, op, I_a)[(p, x, q), (r, y, s)] = delta_pr op_xy delta_qs
    out = np.zeros((b, d, a, b, d, a), dtype=complex)
    p, q = np.arange(b)[:, None], np.arange(a)
    out[p, :, q, p, :, q] = op
    return out.reshape(b * d * a, b * d * a)


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Eigenvalues (ascending, real) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h: np.ndarray, tol: float = 1e-10) -> HermitianEigenSystem:
    """Diagonalize a Hermitian matrix; rejects non-Hermitian input."""
    require_hermitian(h, tol=tol, name="eigensolver input")
    w, v = np.linalg.eigh(h)
    return HermitianEigenSystem(eigenvalues=w, eigenvectors=v)


def von_neumann_entropy(rho: np.ndarray, positivity_tol: float = 1e-9) -> float:
    """-tr(rho ln rho) in nats, with 0 ln 0 taken as 0.

    Eigenvalues in [-positivity_tol, 0) are clipped to zero; anything more
    negative raises PositivityError.
    """
    require_hermitian(rho, tol=1e-8, name="density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise DimensionMismatchError(f"density matrix trace {tr!r} is not 1 within 1e-8")
    p = np.linalg.eigvalsh(rho)
    if p.min() < -positivity_tol:
        raise PositivityError(
            f"density matrix has eigenvalue {p.min():.3e} below -{positivity_tol:.1e}"
        )
    p = np.clip(p, 0.0, None)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())
