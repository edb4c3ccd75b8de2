"""Time evolution and steady states of built generators.

Evolution uses classical fixed-step fourth-order Runge-Kutta. Because the
generator is linear, one RK4 step is exactly the matrix

    S = I + h L + (h L)^2 / 2 + (h L)^3 / 6 + (h L)^4 / 24

applied to the column-stacked state, so strides between recorded points are
taken as matrix powers of S. Steady states are the null vector of the
generator, and its singular values decide whether that vector is unique:
those of the blocks that can decide it. A gapped block, one of the modified
generator's Bohr blocks off the zero frequency, is the free evolution's
-i omega on its diagonal plus a part of order alpha and beta^2 gamma, and
Weyl's inequality bounds its smallest singular value from below without an
SVD (_weyl_bounds); steady_states factors such a block only when its bounds
cannot show that it changes no decision.

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
from .linalg import max_abs, run_length, runs
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
# A computed singular value may differ from the exact one by this fraction
# of the matrix's norm, and the Weyl bounds that replace an SVD allow for it.
ROUNDING = 1e-12


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
        if not self.t_max / self.dt < inf:  # the step count evolve rounds to an integer
            raise ConfigError(
                f"t_max / dt is not finite: t_max = {self.t_max!r}, dt = {self.dt!r}"
            )
        if isinstance(self.record_stride, bool) or not isinstance(self.record_stride, int):
            raise ConfigError(f"record_stride: expected an integer, got {self.record_stride!r}")
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
    # in place; adding the whole eye keeps the off-diagonal signed zeros
    s = 0.25 * a
    s += eye
    s = a @ s
    s /= 3.0
    s += eye
    s = a @ s
    s *= 0.5
    s += eye
    s = a @ s
    s += eye
    return s


def _certified_positive(h: np.ndarray, tol: float) -> bool:
    """Whether a Cholesky factorisation of h + (tol - delta) I certifies that
    eigvalsh finds no eigenvalue below -tol in the (T, d, d) Hermitian stack
    h (both read its lower triangle); False leaves the question to eigvalsh.
    delta = 4 (d + 1)^2 d u (max|h| + tol) exceeds the Cholesky's backward
    error (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.5) plus eigvalsh's error. A delta not below tol certifies nothing.
    """
    d = h.shape[-1]
    delta = 4 * (d + 1) ** 2 * d * 2.0**-53 * (max_abs(h) + tol)
    if not delta < tol:
        return False
    try:
        np.linalg.cholesky(h + (tol - delta) * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return True


def _check_density_matrices(
    states: np.ndarray, positivity_tol: float, times: np.ndarray | None = None
) -> None:
    """Finiteness, trace, Hermiticity and positivity of a (T, d, d) stack, in
    one pass. Raises IntegrationError for the first failing state, naming its
    time (or "initial state" without times) and its first failed check.
    Positivity is eigvalsh's, computed where _certified_positive cannot tell.
    """
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        states = np.where(finite[:, None, None], states, 0.0)
    tr = np.trace(states, axis1=1, axis2=2)
    asym = np.abs(states - states.conj().swapaxes(1, 2)).max(axis=(1, 2))
    h = 0.5 * (states + states.conj().swapaxes(1, 2))
    failed = ~finite | (np.abs(tr - 1.0) > 1e-8) | (asym > 1e-9)
    if not failed.any() and _certified_positive(h, positivity_tol):
        return
    lo = np.linalg.eigvalsh(h)[:, 0]
    failed |= lo < -positivity_tol
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
    The blocks of one kind and size step as stacks of at most
    linalg.STACK_BYTES of matrices, so a record costs one matmul per stack.
    """
    _require_one_row(gen, "evolve")
    d = gen.dimension
    try:
        rho0 = np.array(rho0, dtype=complex)
    except (TypeError, ValueError):
        raise LindlocError(f"initial state: expected a complex matrix, got {rho0!r}") from None
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
    # a product, not WEAK_COUPLING_WINDOW / alpha**2, so that an alpha whose
    # square underflows to 0 reads as a window beyond any t_max
    if config.t_max * alpha**2 >= WEAK_COUPLING_WINDOW:
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
    # every stride-th step is recorded, and the last step
    steps = np.minimum(np.arange(0, n_steps + stride, stride), n_steps)
    jumps = np.diff(steps).tolist()
    # the blocks where rho0 is nonzero, each with its RK4 step matrix, made
    # in block order; a block that starts at exactly zero stays exactly zero
    live = {}  # (real, size): each block's start in x or z and step matrix
    for real, block, m in zip(view.real, view.slices, gen.block_matrices):
        if (x if real else z)[block].any():
            live.setdefault((real, block.stop - block.start), []).append(
                (block.start, rk4_step_matrix(m[0], config.dt))
            )
    # the blocks of one kind and size step in stacks of at most STACK_BYTES
    # of matrices (a lone block's is a view, not a copy), each stack with
    # its matrices for each jump between records, the stride and a shorter
    # last one, so a record costs one matmul per stack
    groups = []
    for (real, size), blocks in live.items():
        per = run_length(blocks[0][1].nbytes)
        for i in range(0, len(blocks), per):
            starts, step = zip(*blocks[i : i + per])
            power = {}
            for jump in set(jumps):
                powered = [np.linalg.matrix_power(s, jump) for s in step]
                power[jump] = np.stack(powered) if len(powered) > 1 else powered[0][None]
            where = np.array(starts)[:, None] + np.arange(size)  # the stack's entries in x or z
            # row k: the entries after k records, as the (G, m, 1) columns
            # that one matmul of the stack's matrices steps
            values = np.empty((len(jumps) + 1, *where.shape, 1), dtype=step[0].dtype)
            values[0, ..., 0] = (x if real else z)[where]
            groups.append((real, where, power, values))
    for _, _, power, values in groups:  # a group steps alone, its matrices kept in cache
        for m, before, after in zip(map(power.get, jumps), values, values[1:]):
            np.matmul(m, before, out=after)
    times = steps * config.dt
    states = np.empty((len(steps), d, d), dtype=complex)
    states[0] = 0.5 * (rho0 + rho0.conj().T)
    recorded, at = states[1:], times[1:]
    for run in runs(len(jumps), d):
        xs, zs = view.zeros(len(at[run]))
        for real, where, _, values in groups:
            (xs if real else zs)[:, where] = values[1:][run][..., 0]
        rho = view.to_state(xs, zs)
        _check_density_matrices(rho, config.positivity_tol, at[run])
        recorded[run] = rho
    return Trajectory(times=times, states=states)


def _pool(gen: Generator, blocks) -> np.ndarray:
    """The singular values of these stored blocks of each row, a pair block's
    twice, in descending order, (P, values): one svd call per block takes
    every row."""
    real, parts = gen.structure.blocks.real, []
    for k in blocks:
        s_k = np.linalg.svd(gen.block_matrices[k], compute_uv=False)
        # a pair block's partner is its conjugate, with the same singular values
        parts += [s_k] if real[k] else [s_k, s_k]
    return np.sort(np.concatenate(parts, axis=1), axis=1)[:, ::-1]


def _weyl_bounds(gen: Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds on each row's singular values of each gapped block
    (Structure.gapped), (P, blocks) each: below the smallest, above the
    largest, and below the largest. Each is moved ROUNDING * (the upper
    bound) outward, for the rounding of an SVD the bounds stand in for.

    A gapped block is B = F + A with F diagonal, -i(E_i - E_k) at entry
    (i, k), so Weyl's inequality for singular values (Horn & Johnson, Topics
    in Matrix Analysis, Thm 3.3.16) gives s_min(B) >= min |E_i - E_k| -
    ||A||_2, and ||X||_2 <= sqrt(||X||_1 ||X||_inf) bounds ||A||_2 and
    s_max(B) = ||B||_2; the largest |B_ik| is at most s_max(B). The row
    sums of every block of every row are one reduceat, for |B| and again for
    |A|. The column sums of |B| are one sum per block size, over the
    consecutive blocks of that size (_Gapped.sizes), and those of |A| come
    from them: A differs from B on the diagonal alone, and a block's
    diagonal entry i lies in its column i."""
    g, count = gen.structure.gapped, len(gen)
    n = g.omega.size
    b = np.empty((count, g.spans[-1][0].stop))
    diag, cols = np.empty((count, n), dtype=complex), np.empty((count, n))
    for k, (entries, rows) in zip(g.blocks, g.spans):
        m = gen.block_matrices[k]
        np.abs(m.reshape(count, -1), out=b[:, entries])
        diag[:, rows] = np.diagonal(m, axis1=1, axis2=2)
    for size, entries, rows in g.sizes:  # (P, blocks, m, m): sum each column's rows
        cols[:, rows] = b[:, entries].reshape(count, -1, size, size).sum(axis=2).reshape(count, -1)

    def norm(x, col_sums):  # sqrt(||X||_1 ||X||_inf) of each block of each row
        inf_norm = np.maximum.reduceat(np.add.reduceat(x, g.row_at, axis=1), g.block_rows, axis=1)
        # a root of each factor: their product overflows for entries beyond ~1e154
        return np.sqrt(inf_norm) * np.sqrt(np.maximum.reduceat(col_sums, g.block_rows, axis=1))

    peak, upper = np.maximum.reduceat(b, g.block_entries, axis=1), norm(b, cols)
    a = np.abs(diag + 1j * g.omega)  # |A|: B less F on the diagonal
    b[:, g.diag] = a
    cols += a - np.abs(diag)  # |A|'s column sums
    slack = ROUNDING * upper
    return g.gap - norm(b, cols) - slack, upper + slack, peak - slack


def _certified(gen: Generator) -> tuple[np.ndarray, ...]:
    """The gapped blocks whose lower bound is positive in every row, and
    their bounds (_weyl_bounds), (P, certified blocks) each."""
    g = gen.structure.gapped
    if not g.blocks.size:
        return g.blocks, *(np.empty((len(gen), 0)),) * 3
    bound, upper, peak = _weyl_bounds(gen)
    keep = (bound > 0.0).all(axis=0)
    return g.blocks[keep], bound[:, keep], upper[:, keep], peak[:, keep]


def steady_states(gen: Generator) -> list[SteadyStateResult]:
    """Null-space steady states of each row of a stacked generator, solved
    as one stack, one result per row; if a row fails a check, raises.

    The singular values of each generator's stored blocks are pooled, those
    of a conjugate-pair block twice, so the pool is the dense matrix's; one
    svd call takes a block index for all generators. A generator fails with
    NonUniqueSteadyStateError when more than one singular value is
    numerically zero, at most NULL_SCALE times the largest; a warning is
    logged when its smallest two singular values are separated by less than
    SEPARATION_FACTOR. A gapped block (Structure.gapped: a modified
    generator's pair block off the zero Bohr frequency) is not factored when
    its Weyl bounds (_weyl_bounds) show in every row that it changes none of
    this: its smallest singular value is above the rest of the pool's
    second-smallest and above NULL_SCALE times the largest singular value,
    whose bounds leave no pooled value's count in doubt. Otherwise every
    block is factored. The pool (singular_values) is that of the factored
    blocks, with the same two smallest values as the dense matrix.

    rho_ss then solves the real block holding the trace with its first row,
    that of entry (0, 0), replaced by the trace: a redundant row, since the
    trace is a left null vector (the "direct" method of QuTiP, Johansson,
    Nation & Nori, CPC 184, 1234 (2013)). The candidate must be positive and
    L[rho_ss] must vanish to 1e-8. The checks run in that order over the
    whole stack, each raising for the first row that fails it, so a
    generator of one row gets the error of its first failed check.
    """
    view, count = gen.structure.blocks, len(gen)
    skipped, bound, upper, peak = _certified(gen)
    factored = np.ones(len(view.real), dtype=bool)
    factored[skipped] = False
    s = _pool(gen, np.flatnonzero(factored))
    s_max = s[:, 0]
    if skipped.size:
        # the pool's s_max lies in [lo, hi] and a skipped value is above low;
        # the real blocks, every population among them, give s two values
        lo, hi = np.maximum(s_max, peak.max(axis=1)), np.maximum(s_max, upper.max(axis=1))
        low = bound.min(axis=1)
        doubt = (s > NULL_SCALE * lo[:, None]) & (s <= NULL_SCALE * hi[:, None])
        if ((low > s[:, -2]) & (low > NULL_SCALE * hi) & ~doubt.any(axis=1)).all():
            s_max = lo
        else:
            s = _pool(gen, range(len(view.real)))
            s_max = s[:, 0]
    null_dim = np.count_nonzero(s <= NULL_SCALE * s_max[:, None], axis=1)
    failed = (s_max == 0.0) | (null_dim > 1)
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

    if not _certified_positive(rho, 1e-9):
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
