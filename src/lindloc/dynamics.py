"""Time evolution and steady states of built generators.

Evolution uses classical fixed-step fourth-order Runge-Kutta. Because the
generator is linear, one RK4 step is exactly the matrix

    S = I + h L + (h L)^2 / 2 + (h L)^3 / 6 + (h L)^4 / 24

applied to the column-stacked state, so strides between recorded points are
taken as matrix powers of S. Steady states are the null vector of the
generator, and its singular values decide whether that vector is unique.

steady_states solves the points of a sweep, generators that share one
structure, as one stacked Generator (Generator.stack), and raises if any of
them fails a check; steady_state solves a generator of one row.

Both take the layout of L's blocks, the connected components of its
nonzero pattern, from Structure.blocks and their matrices from
Generator.block_matrices, so no d^2 x d^2 matrix is built: the RK4
polynomial of a block-diagonal L is block-diagonal, and the dense matrix is
a unitary change of basis of the block-diagonal one, so it has the same
singular values. L preserves Hermiticity, so only one block of each
conjugate pair is stored, stepped and factored, and a self-conjugate block
is a real matrix in Hermitian coordinates (see BlockView). Only the
Hermitian part of a state is carried: its conjugate-pair entries are
stepped once and its real coordinates with real matrices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    IntegrationError,
    LindlocError,
    NonUniqueSteadyStateError,
    PositivityError,
)
from .linalg import runs
from .liouvillian import Generator, _require_memory, _require_one_row

log = logging.getLogger("lindloc")

# dt * ||L||_inf above this risks RK4 instability.
STABILITY_LIMIT = 0.1
# Times beyond WEAK_COUPLING_WINDOW / alpha^2 leave the weak-coupling regime.
WEAK_COUPLING_WINDOW = 0.1
# Singular values below this fraction of the largest count as null directions.
NULL_SCALE = 1e-10
# Smallest acceptable ratio between the two smallest singular values.
SEPARATION_FACTOR = 1e3


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_max: float
    record_stride: int = 1
    positivity_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.dt < inf:
            raise ConfigError(f"dt must be finite and positive, got {self.dt!r}")
        if not 0.0 < self.t_max < inf:
            raise ConfigError(f"t_max must be finite and positive, got {self.t_max!r}")
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride!r}")
        if not 0.0 <= self.positivity_tol < inf:
            raise ConfigError(
                f"positivity_tol must be finite and >= 0, got {self.positivity_tol!r}"
            )


@dataclass
class Trajectory:
    """Recorded times and states, one (T, d, d) array whose rows are the
    (d, d) states; audit_trajectory gives their thermodynamic reports."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SteadyStateResult:
    rho_ss: np.ndarray
    residual: float
    null_dim: int
    singular_values: np.ndarray = field(repr=False)


def rk4_step_matrix(superop: np.ndarray, dt: float) -> np.ndarray:
    """One fixed-step RK4 update as a matrix: degree-4 Taylor polynomial of
    exp(dt L), real for a real L."""
    a = dt * superop
    eye = np.eye(a.shape[0], dtype=a.dtype)
    s = eye + 0.25 * a
    s = eye + (a @ s) / 3.0
    s = eye + 0.5 * (a @ s)
    return eye + a @ s


def _check_density_matrices(
    states: np.ndarray, positivity_tol: float, times: np.ndarray | None = None
) -> None:
    """Finiteness, trace, Hermiticity and positivity of a (T, d, d) stack, in
    one pass. Raises IntegrationError for the first failing state, naming its
    time (or "initial state" without times) and its first failed check.
    """
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        states = np.where(finite[:, None, None], states, 0.0)
    tr = np.trace(states, axis1=1, axis2=2)
    asym = np.abs(states - states.conj().swapaxes(1, 2)).max(axis=(1, 2))
    lo = np.linalg.eigvalsh(0.5 * (states + states.conj().swapaxes(1, 2)))[:, 0]
    failed = ~finite | (np.abs(tr - 1.0) > 1e-8) | (asym > 1e-9) | (lo < -positivity_tol)
    if not failed.any():
        return
    k = int(np.argmax(failed))
    where = "initial state" if times is None else f"t = {times[k]:.6g}"
    if not finite[k]:
        raise IntegrationError(f"{where}: state has non-finite entries")
    if abs(tr[k] - 1.0) > 1e-8:
        raise IntegrationError(f"{where}: trace {complex(tr[k])!r} deviates from 1 beyond 1e-8")
    if asym[k] > 1e-9:
        raise IntegrationError(f"{where}: state is not Hermitian within 1e-9")
    raise IntegrationError(
        f"{where}: positivity violated, min eigenvalue {lo[k]:.3e} < -{positivity_tol:.1e}"
    )


def evolve(gen: Generator, rho0: np.ndarray, config: SolverConfig) -> Trajectory:
    """Integrate d rho / dt = L[rho] from rho0, recording every record_stride steps.

    Recorded states are checked for trace, Hermiticity, and positivity in
    one pass after stepping; violations raise IntegrationError with the first
    offending time. rho0 may carry an anti-Hermitian part up to 1e-9; only
    its Hermitian part is stepped and recorded, so every record is exactly
    Hermitian. Each stored block of L is stepped with its own RK4
    step and stride matrices, real for a self-conjugate block; blocks where
    rho0 is exactly zero are never stepped (a diagonal rho0 steps one block).
    """
    _require_one_row(gen, "evolve")
    d = gen.dimension
    rho0 = np.array(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise DimensionMismatchError(
            f"initial state: state shape {rho0.shape} does not match generator dimension {d}"
        )
    _check_density_matrices(rho0[None], config.positivity_tol)

    norm = gen.stability_norm()
    if config.dt * norm > STABILITY_LIMIT:
        raise ConfigError(
            f"dt = {config.dt!r} too large for stability: dt * ||L||_inf = "
            f"{config.dt * norm:.3e} exceeds {STABILITY_LIMIT}"
        )
    alpha = gen.spec.alpha
    if alpha > 0.0 and config.t_max >= WEAK_COUPLING_WINDOW / alpha**2:
        log.warning(
            "t_max = %.3g reaches the weak-coupling validity window ~%.3g = %g/alpha^2; "
            "long-time results should be read as the generator's own dynamics",
            config.t_max,
            WEAK_COUPLING_WINDOW / alpha**2,
            WEAK_COUPLING_WINDOW,
        )

    n_steps = max(1, int(round(config.t_max / config.dt)))
    stride = min(config.record_stride, n_steps)
    records = -(-n_steps // stride)
    # the recorded states, their d^2 real words of block coordinates, steps and times
    _require_memory((records + 1) * (24 * d * d + 32), f"{records} records of a {d} x {d} state")

    view = gen.structure.blocks
    x, z = view.to_vector(rho0)
    # a block that starts at exactly zero stays exactly zero
    live = [
        (v, block, m[0])
        for v, block, m in zip((x if r else z for r in view.real), view.slices, gen.block_matrices)
        if v[block].any()
    ]
    step_matrices = [rk4_step_matrix(m, config.dt) for _, _, m in live]
    stride_matrices = [np.linalg.matrix_power(s, stride) for s in step_matrices]

    # every stride-th step is recorded, and the last step
    steps = np.minimum(np.arange(0, n_steps + stride, stride), n_steps)
    xs = np.empty((steps.size - 1, x.size))
    zs = np.empty((steps.size - 1, z.size), dtype=complex)
    for k, jump in enumerate(np.diff(steps)):
        if jump == stride:
            matrices = stride_matrices
        else:
            matrices = [np.linalg.matrix_power(s, jump) for s in step_matrices]
        for (v, block, _), m in zip(live, matrices):
            v[block] = m @ v[block]
        xs[k], zs[k] = x, z
    times = steps * config.dt
    states = np.empty((len(steps), d, d), dtype=complex)
    states[0] = 0.5 * (rho0 + rho0.conj().T)
    recorded, at = states[1:], times[1:]
    for run in runs(len(xs), d):
        rho = view.to_state(xs[run], zs[run])
        _check_density_matrices(rho, config.positivity_tol, at[run])
        recorded[run] = rho
    return Trajectory(times=times, states=states)


def steady_states(gen: Generator) -> list[SteadyStateResult]:
    """Null-space steady states of each row of a stacked generator, solved
    as one stack, one result per row; if a row fails a check, raises.

    Each generator's singular values of every stored block are pooled,
    those of a conjugate-pair block twice, so the pool is the dense matrix's;
    one svd call takes a block index for all generators. A generator fails
    with NonUniqueSteadyStateError when more than one singular value is
    numerically zero; a warning is logged when its smallest two singular
    values are separated by less than SEPARATION_FACTOR. rho_ss then solves
    the real block holding the trace with its first row, that of entry
    (0, 0), replaced by the trace: a redundant row, since the trace is a
    left null vector (the "direct" method of QuTiP, Johansson, Nation & Nori,
    CPC 184, 1234 (2013)). The candidate must be positive and L[rho_ss] must
    vanish to 1e-8. The checks run in that order over the whole stack, each
    raising for the first row that fails it, so a generator of one row gets
    the error of its first failed check.
    """
    view, count = gen.structure.blocks, len(gen)
    parts = []
    for real, m in zip(view.real, gen.block_matrices):
        s_k = np.linalg.svd(m, compute_uv=False)
        # a pair block's partner is its conjugate, with the same singular values
        parts += [s_k] if real else [s_k, s_k]
    s = np.sort(np.concatenate(parts, axis=1), axis=1)[:, ::-1]
    null_dim = np.count_nonzero(s <= NULL_SCALE * s[:, :1], axis=1)
    failed = (s[:, 0] == 0.0) | (null_dim > 1)
    if failed.any():
        raise NonUniqueSteadyStateError(int(null_dim[np.argmax(failed)]))
    for s_p in s:
        if s_p[-1] > 0.0 and s_p[-2] / s_p[-1] < SEPARATION_FACTOR:
            log.warning(
                "steady state may be ill-conditioned: smallest singular values "
                "%.3e and %.3e are separated by less than a factor %g",
                s_p[-2],
                s_p[-1],
                SEPARATION_FACTOR,
            )

    zero = view.zero
    a = gen.block_matrices[zero].copy()
    a[:, 0] = view.trace_row
    rhs = np.zeros(a.shape[-1])
    rhs[0] = 1.0
    x, z = view.zeros(count)
    try:
        x[:, view.slices[zero]] = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise LindlocError(
            "null vector is traceless; no normalizable steady state in this direction"
        ) from None
    rho = view.to_state(x, z)

    lo = np.linalg.eigvalsh(rho).min(axis=1)
    p = np.argmax(lo < -1e-9)  # the first row that fails, if one does
    if lo[p] < -1e-9:
        raise PositivityError(f"steady-state candidate has eigenvalue {lo[p]:.3e} below -1e-9")
    residual = np.abs(gen.terms(rho)[1]).max(axis=(1, 2))
    p = np.argmax(residual > 1e-8)
    if residual[p] > 1e-8:
        raise LindlocError(
            f"steady-state residual {residual[p]:.3e} exceeds 1e-8; generator may be defective"
        )
    return [
        SteadyStateResult(rho[p], float(residual[p]), int(null_dim[p]), s[p]) for p in range(count)
    ]


def steady_state(gen: Generator) -> SteadyStateResult:
    """Null-space steady state of a generator of one row (see steady_states)."""
    _require_one_row(gen, "steady_state")
    return steady_states(gen)[0]
