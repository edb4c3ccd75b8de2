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
(audit_states, the points of a sweep). It reads L from the generator's
triplets, as the solver's blocks do. Rates linear in rho are traces in the
Heisenberg picture, tr(X L[rho]) = tr(L†[X] rho), against
Generator.rate_operators: D_i†[H_s], L†[H_s] and L_p†[ln rho_G], built once
per row. dS/dt and the Spohn left-hand side take L[rho] and L_p[rho] from
Generator.terms, a gather and bincount of the triplets. One stacked eigh per
state serves positivity, ln rho and S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LindlocError, NonFiniteError, PositivityError
from .linalg import runs
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


def _trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real part of tr(a_t b_t) for each t of two stacks."""
    return np.einsum("tij,tji->t", a, b).real


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
    """states as a (T, d, d) array of finite entries, or raise."""
    d = gen.dimension
    states = np.asarray(states)
    if states.ndim != 3 or states.shape[1:] != (d, d):
        raise DimensionMismatchError(
            f"states of shape {states.shape} do not match generator dimension {d}"
        )
    if not np.isfinite(states).all():
        raise NonFiniteError("cannot audit a state with non-finite entries")
    return states


def _audit_stack(gen: Generator, states: np.ndarray) -> list[ThermoReport]:
    """Both laws at every state of a checked (T, d, d) stack, under gen's
    row of each state, or its one row for all; one eigh per state."""
    n = len(gen.spec.baths)

    ln_rho, entropy = _log_and_entropy(states)
    # einsum and matmul sum in an order that depends on how many states they
    # take at once, so the rates take each generator's states together, as
    # an audit of one generator always has
    groups = len(gen)
    # columns: Qdot_i per bath, Edot, the Spohn right-hand side
    linear = np.concatenate(
        [
            np.einsum("kij,tji->tk", ops, rho)
            for ops, rho in zip(gen.rate_operators, np.split(states, groups))
        ]
    ).real
    q = linear[:, :n]
    e_dot = linear[:, -2]
    spohn_rhs = -linear[:, -1]
    l_partial, l_full = gen.terms(states)
    s_dot = -_trace(l_full, ln_rho)
    spohn_lhs = -_trace(l_partial, ln_rho)

    sum_beta_q = np.concatenate([q_g @ b for q_g, b in zip(np.split(q, groups), gen.betas)])
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


def audit_states(
    gen: Generator, states: list[np.ndarray]
) -> tuple[list[ThermoReport], LindlocError | None]:
    """Both laws at each of T states under row t of a stacked generator, in
    one pass: the reports of the leading states that audit does not refuse,
    and the error of the first it refuses (None if none). T may be less
    than the number of rows."""
    if not states:
        return [], None
    if len(states) < len(gen):
        gen = gen.rows(slice(len(states)))
    # the rates sum a state's entries in its memory order, which np.stack
    # keeps (np.array would make every state row-major)
    try:
        return _audit_stack(gen, _checked_stack(gen, np.stack(states))), None
    except LindlocError:
        pass
    reports = []
    for p, rho in enumerate(states):
        try:
            state = _checked_stack(gen, np.asarray(rho)[None])
            reports += _audit_stack(gen.rows(slice(p, p + 1)), state)
        except LindlocError as exc:
            return reports, exc
    return reports, None


def audit_trajectory(gen: Generator, trajectory) -> list[ThermoReport]:
    """Audit every recorded state under a generator of one row and attach
    the reports to the trajectory.

    The stacked pass takes the states in runs (linalg.runs), which bounds
    its temporaries whatever the trajectory's length.
    """
    _require_one_row(gen, "audit_trajectory")
    states = _checked_stack(gen, trajectory.states)
    reports = [
        rep for run in runs(len(states), gen.dimension) for rep in _audit_stack(gen, states[run])
    ]
    trajectory.reports = reports
    return reports


__all__ = [
    "ThermoReport",
    "audit",
    "audit_states",
    "audit_trajectory",
]
