"""Dense complex linear algebra helpers shared by every other module.

States and operators are plain numpy arrays of dtype complex. Eigenbases of
Hermitian matrices come from LAPACK via numpy.linalg.eigh and are always
sorted by ascending eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, prod

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError

# -- constant single-qubit operators ----------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# Bytes of one stacked temporary when a stack of matrices is worked through
# in runs: a run holds a few such temporaries, so however long the stack, the
# work needs the memory of a few matrices on top of the stack itself. Each
# run pays numpy's fixed cost once: a resonant 3-chain's sweep stack
# (Generator.stack, steady_states and audit_states) costs about 650 us a
# stack plus 125 us a point (2 vCPU, numpy 2.4.6), so a point costs 260 us
# in the 5-point stacks of 64 KiB and 140 us in the 22-point stacks of
# 256 KiB, whose temporaries still come to about a megabyte.
STACK_BYTES = 1 << 18


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
    # one pass finds both the scale of the defect and, as a scale that is
    # not finite, a NaN or an infinity; an entry whose magnitude overflows
    # is finite all the same
    scale = max_abs(m)
    if not scale < inf and not np.isfinite(m).all():
        raise NonHermitianError(f"{name} has non-finite entries")
    defect = max_abs(m - m.conj().T) / scale if scale else 0.0
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
