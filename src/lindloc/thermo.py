"""First- and second-law bookkeeping for local generators.

Per bath, the heat current is the dissipator's energy flow measured against
the free Hamiltonian,

    Qdot_i = tr(H_s D_i[rho])            (D_i already carries beta^2),

the internal energy rate is Edot = tr(H_s L[rho]), and the entropy rate is
dS/dt = -tr(L[rho] ln rho). Entropy production sigma = dS/dt - sum_i beta_i
Qdot_i is non-negative for the filtered generator by Spohn's inequality
applied to the partial generator, whose fixed point is the product of local
Gibbs states. The audit reports violations; it never raises on them.

The audit is one pass over a (T, d, d) stack of states, under a generator of
one row for all of them (audit() is the T = 1 case, audit_trajectory takes
runs of records) or under row t of a stacked Generator for state t
(audit_states, the points of a sweep; a state it refuses fails the whole
stack). A state must be finite and, as evolve's rho0, Hermitian within 1e-9.
Rates linear in rho are traces in the Heisenberg picture, tr(X L[rho]) =
tr(L†[X] rho), one matrix-vector product per state against its row's
Generator.rate_operators: D_i†[H_s], L†[H_s] and L_p†[ln rho_G]. dS/dt and
the Spohn left-hand side take L[rho] and L_p[rho] from Generator.terms, the
triplets the solver's blocks read. One stacked eigh per state serves
positivity, ln rho and S. No sum runs across states, so a report is a
function of its state and its row alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NonHermitianError, PositivityError
from .linalg import max_abs, runs
from .liouvillian import Generator, _require_one_row

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
    entropy: float


def _log_and_entropy(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln rho and S = -tr(rho ln rho) of each state of a stack, from one eigh.

    The eigenvalues are checked before the log; below LOG_FLOOR, ln is taken
    of the state mixed toward I/d. S takes 0 ln 0 = 0 and no mixing.
    """
    d = states.shape[-1]
    w, v = np.linalg.eigh(0.5 * (states + states.conj().swapaxes(1, 2)))
    lo = w[:, 0]
    if (lo < -1e-9).any():
        raise PositivityError(
            f"cannot take ln of a state with eigenvalue {lo.min():.3e} below -1e-9"
        )
    w = np.clip(w, 0.0, None)
    entropy = -(w * np.log(w, out=np.zeros_like(w), where=w > 0.0)).sum(axis=1)
    low = lo < LOG_FLOOR
    w[low] = (1.0 - LOG_EPSILON) * w[low] + LOG_EPSILON / d
    # v diag(ln w) v†, scaling the eigh output in place
    v_dag = v.conj().swapaxes(1, 2)
    v *= np.log(w)[:, None, :]
    return v @ v_dag, entropy


def _checked_stack(gen: Generator, states: np.ndarray) -> np.ndarray:
    """states as a (T, d, d) array of finite, Hermitian entries, or raise."""
    d = gen.dimension
    states = np.asarray(states)
    if states.ndim != 3 or states.shape[1:] != (d, d):
        raise DimensionMismatchError(
            f"states of shape {states.shape} do not match generator dimension {d}"
        )
    if not np.isfinite(states).all():
        raise NonFiniteError("cannot audit a state with non-finite entries")
    # evolve's tolerance for rho0, run by run as the audit goes
    parts = (states[r] for r in runs(len(states), d))
    asym = max((max_abs(s - s.conj().swapaxes(1, 2)) for s in parts), default=0.0)
    if asym > 1e-9:
        raise NonHermitianError(
            f"cannot audit a state that is not Hermitian within 1e-9: "
            f"max |rho - rho†| = {asym:.3e}"
        )
    return states


def _audit_stack(gen: Generator, states: np.ndarray) -> list[ThermoReport]:
    """Both laws at every state of a checked (T, d, d) stack, under gen's
    row of each state, or its one row for all; one eigh per state."""
    n = len(gen.spec.baths)

    ln_rho, entropy = _log_and_entropy(states)
    # per state, (k, d^2) @ (d^2, 1): its row's operators against it, each
    # column-stacked; columns Qdot_i per bath, Edot, the Spohn right-hand side
    ops = gen.rate_operators
    rows, k, d = ops.shape[:3]
    cols = states.swapaxes(1, 2).reshape(rows, -1, d * d, 1)
    linear = (ops.reshape(rows, 1, k, d * d) @ cols).real.reshape(len(states), k)
    q = linear[:, :n]
    e_dot = linear[:, -2]
    spohn_rhs = -linear[:, -1]
    l_partial, l_full = gen.terms(states)
    s_dot = -np.einsum("tij,tji->t", l_full, ln_rho).real
    spohn_lhs = -np.einsum("tij,tji->t", l_partial, ln_rho).real

    sum_beta_q = (q * gen.betas).sum(axis=1)
    entropy_production = s_dot - sum_beta_q
    columns = zip(
        q.tolist(),
        e_dot.tolist(),
        s_dot.tolist(),
        (e_dot - q.sum(axis=1)).tolist(),
        entropy_production.tolist(),
        spohn_lhs.tolist(),
        spohn_rhs.tolist(),
        np.abs(spohn_rhs - sum_beta_q).tolist(),
        (entropy_production >= -SECOND_LAW_TOL).tolist(),
        entropy.tolist(),
    )
    return [ThermoReport(tuple(c[0]), *c[1:]) for c in columns]


def audit(gen: Generator, rho: np.ndarray) -> ThermoReport:
    """Evaluate both laws at one state under a generator of one row;
    violations are reported, not raised."""
    _require_one_row(gen, "audit")
    return _audit_stack(gen, _checked_stack(gen, np.asarray(rho)[None]))[0]


def audit_states(gen: Generator, states: list[np.ndarray]) -> list[ThermoReport]:
    """Both laws at state t under row t of a stacked generator, for each of
    its rows, in one pass; raises as audit does if any state is refused."""
    if len(states) != len(gen):
        raise DimensionMismatchError(
            f"audit_states takes one state per generator row, got {len(states)} states "
            f"for {len(gen)} rows"
        )
    return _audit_stack(gen, _checked_stack(gen, states))


def audit_trajectory(gen: Generator, trajectory) -> list[ThermoReport]:
    """The report of every recorded state under a generator of one row.

    The stacked pass takes the states in runs (linalg.runs), which bounds
    its temporaries whatever the trajectory's length.
    """
    _require_one_row(gen, "audit_trajectory")
    states = _checked_stack(gen, trajectory.states)
    return [
        rep for run in runs(len(states), gen.dimension) for rep in _audit_stack(gen, states[run])
    ]


__all__ = [
    "ThermoReport",
    "audit",
    "audit_states",
    "audit_trajectory",
]
