import logging
import math

import numpy as np
import pytest

from lindloc.dynamics import (
    SolverConfig,
    SteadyStateResult,
    evolve,
    relaxation_time,
    rk4_step_matrix,
    steady_state,
)
from lindloc.errors import (
    ConfigError,
    DimensionMismatchError,
    IntegrationError,
    NonUniqueSteadyStateError,
)
from lindloc.baths import BathSpec, SpectralModel
from lindloc.linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z
from lindloc.liouvillian import (
    Channel,
    Generator,
    Subsystem,
    SystemSpec,
    build_modified_local,
    product_gibbs,
)
from lindloc.models import (
    TwoQubitParams,
    qubit_chain_model,
    single_qubit_model,
    two_qubit_model,
)

from conftest import rand_complex, rand_density


# -- step matrix ------------------------------------------------------------------


def test_rk4_step_matrix_is_truncated_exponential(rng):
    l = rand_complex(rng, 3)
    dt = 0.07
    a = dt * l
    eye = np.eye(3)
    expected = eye + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    got = rk4_step_matrix(l, dt)
    assert np.allclose(got, expected, atol=1e-14)


def test_rk4_step_matrix_zero_generator():
    assert np.array_equal(rk4_step_matrix(np.zeros((4, 4)), 0.1), np.eye(4))


# -- config -----------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.0, t_max=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_max=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_max=1.0, record_stride=0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_max=1.0, positivity_tol=-1e-9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="dt must be finite"):
            SolverConfig(dt=bad, t_max=1.0)
        with pytest.raises(ConfigError, match="t_max must be finite"):
            SolverConfig(dt=0.1, t_max=bad)
        with pytest.raises(ConfigError, match="positivity_tol must be finite"):
            SolverConfig(dt=0.1, t_max=1.0, positivity_tol=bad)


# -- evolve -----------------------------------------------------------------------


def mixed_state(d):
    return np.eye(d, dtype=complex) / d


def test_recorded_times_with_stride_and_partial_tail():
    # low energy keeps dt * ||L|| inside the stability bound at this coarse dt
    gen = build_modified_local(single_qubit_model(energy=0.1))
    traj = evolve(gen, mixed_state(2), SolverConfig(dt=0.3, t_max=1.0, record_stride=2))
    # 3 steps of 0.3, recorded every 2 steps, with a short tail record
    assert np.allclose(traj.times, [0.0, 0.6, 0.9], atol=1e-15)
    assert len(traj) == 3
    assert traj.reports is None


def test_evolution_matches_two_level_closed_form():
    gen = build_modified_local(single_qubit_model())
    rates = {ch.omega: ch.rate for ch in gen.channels[0]}
    down, up = rates[1.0], rates[-1.0]
    gamma = down + up
    p_ss = up / gamma

    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve(gen, rho0, SolverConfig(dt=0.02, t_max=50.0, record_stride=250))
    for t, rho in zip(traj.times, traj.states):
        expected = p_ss + (1.0 - p_ss) * math.exp(-gamma * t)
        assert rho[0, 0].real == pytest.approx(expected, abs=1e-11)
        assert abs(rho[0, 1]) < 1e-15


def test_evolution_is_deterministic():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    cfg = SolverConfig(dt=0.02, t_max=10.0, record_stride=100)
    a = evolve(gen, mixed_state(4), cfg)
    b = evolve(gen, mixed_state(4), cfg)
    assert np.array_equal(a.times, b.times)
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x, y)


def test_recorded_states_are_density_matrices():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    traj = evolve(gen, mixed_state(4), SolverConfig(dt=0.02, t_max=20.0, record_stride=200))
    for rho in traj.states:
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_oversized_step_is_rejected():
    gen = build_modified_local(single_qubit_model())
    with pytest.raises(ConfigError, match="stability"):
        evolve(gen, mixed_state(2), SolverConfig(dt=1e6, t_max=2e6))


def test_long_horizon_warning(caplog):
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    cfg = SolverConfig(dt=0.02, t_max=1500.0, record_stride=100000)
    with caplog.at_level(logging.WARNING, logger="lindloc"):
        evolve(gen, mixed_state(4), cfg)
    assert any("validity window" in rec.message for rec in caplog.records)


def test_short_horizon_is_quiet(caplog):
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    with caplog.at_level(logging.WARNING, logger="lindloc"):
        evolve(gen, mixed_state(4), SolverConfig(dt=0.02, t_max=5.0, record_stride=50))
    assert not caplog.records


def test_initial_state_validation():
    gen = build_modified_local(single_qubit_model())
    cfg = SolverConfig(dt=0.02, t_max=1.0)
    with pytest.raises(DimensionMismatchError):
        evolve(gen, mixed_state(3), cfg)
    with pytest.raises(IntegrationError, match="initial state"):
        evolve(gen, 2.0 * mixed_state(2), cfg)


def test_unphysical_generator_detected_mid_run():
    spec = single_qubit_model()
    base = build_modified_local(spec)
    sp, sm = SIGMA_PLUS, SIGMA_MINUS
    bad = Channel(omega=1.0, op=sm, rate=-0.05, op_dag=sp, op_dag_op=sp @ sm)
    gen = Generator(
        spec=spec,
        kind="modified",
        h_free=base.h_free,
        h_interaction=base.h_interaction,
        channels=[[bad]],
        levels=base.levels,
        diagnostics=None,
    )
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(IntegrationError, match="t = "):
        evolve(gen, rho0, SolverConfig(dt=0.05, t_max=20.0, record_stride=10))


# -- steady state -------------------------------------------------------------------


def test_single_qubit_steady_state_is_gibbs():
    gen = build_modified_local(single_qubit_model())
    res = steady_state(gen)
    assert isinstance(res, SteadyStateResult)
    assert res.null_dim == 1
    assert res.residual <= 1e-8
    tau = product_gibbs(gen.spec)
    assert np.abs(res.rho_ss - tau).max() < 1e-12


def test_steady_state_is_deterministic():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    a = steady_state(gen)
    b = steady_state(gen)
    assert np.array_equal(a.rho_ss, b.rho_ss)
    assert a.residual == b.residual


def test_steady_state_agrees_with_long_evolution():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    res = steady_state(gen)
    horizon = 50.0 * relaxation_time(gen)
    traj = evolve(
        gen, mixed_state(4), SolverConfig(dt=0.02, t_max=horizon, record_stride=10**9)
    )
    assert np.abs(traj.states[-1] - res.rho_ss).max() <= 1e-6


def test_decoupled_second_qubit_has_no_unique_steady_state():
    silent = SpectralModel(kind="flat", coupling_scale=0.0)
    loud = SpectralModel(kind="flat", coupling_scale=1.0 / (2.0 * math.pi))
    spec = SystemSpec(
        subsystems=[
            Subsystem("q1", 0.5 * SIGMA_Z, 2),
            Subsystem("q2", 0.5 * SIGMA_Z, 2),
        ],
        interactions=[],
        alpha=0.0,
        baths=[
            BathSpec.from_temperature("b1", 1.0, loud, SIGMA_X),
            BathSpec.from_temperature("b2", 1.0, silent, SIGMA_X),
        ],
        beta_coupling=0.01,
    )
    gen = build_modified_local(spec)
    with pytest.raises(NonUniqueSteadyStateError, match="dimension 2") as exc:
        steady_state(gen)
    assert exc.value.null_dim == 2
    assert gen._superop is None  # decided from the pooled Bohr-block singular values


def test_relaxation_time():
    gen = build_modified_local(single_qubit_model())
    assert relaxation_time(gen) == pytest.approx(1.0 / gen.min_rate(), rel=1e-15)
    silent = SpectralModel(kind="flat", coupling_scale=0.0)
    lone = SystemSpec(
        subsystems=[Subsystem("q1", 0.5 * SIGMA_Z, 2)],
        interactions=[],
        alpha=0.0,
        baths=[BathSpec.from_temperature("b1", 1.0, silent, SIGMA_X)],
        beta_coupling=0.01,
    )
    assert relaxation_time(build_modified_local(lone)) == float("inf")


# -- Bohr blocks against the dense path ------------------------------------------------


def seeded_chains():
    """Qubit chains n = 2..4 with resonant and detuned bonds."""
    rng = np.random.default_rng(20260825)
    for n in (2, 3, 4):
        for _ in range(2):
            energies = rng.choice([1.0, 1.5], n).tolist()
            yield qubit_chain_model(n, energies, rng.uniform(0.5, 2.5, n).tolist())


def dense_twin(gen):
    """The same generator under the naive label, which keeps it one dense block."""
    return Generator(
        spec=gen.spec,
        kind="naive",
        h_free=gen.h_free,
        h_interaction=gen.h_interaction,
        channels=gen.channels,
        levels=gen.levels,
        diagnostics=gen.diagnostics,
    )


def test_block_path_matches_dense_path(rng):
    cfg = SolverConfig(dt=0.01, t_max=5.0, record_stride=100)
    for spec in seeded_chains():
        gen = build_modified_local(spec)
        dense = dense_twin(gen)
        assert len(gen.blocks.matrices) > 1
        assert len(dense.blocks.matrices) == 1

        a, b = steady_state(gen), steady_state(dense)
        assert np.abs(a.rho_ss - b.rho_ss).max() <= 1e-12
        s_dense = b.singular_values
        assert a.singular_values.shape == s_dense.shape
        assert np.abs(a.singular_values - s_dense).max() <= 1e-12 * s_dense[0]

        # a full-rank state has coherences in every block
        rho0 = rand_density(rng, spec.dimension)
        ta, tb = evolve(gen, rho0, cfg), evolve(dense, rho0, cfg)
        assert np.array_equal(ta.times, tb.times)
        for x, y in zip(ta.states, tb.states):
            assert np.abs(x - y).max() <= 1e-12

        assert gen._superop is None
        assert gen._partial_superop is None


def test_block_path_in_a_dense_eigenbasis(rng):
    """Qubits with H = sigma_x / 2 and sigma_z couplings: the H_s eigenbasis mixes
    product states, so states are rotated and the guard uses the dense norm."""
    flat = SpectralModel(kind="flat", coupling_scale=1.0 / (2.0 * math.pi))
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    spec = SystemSpec(
        subsystems=[Subsystem("q1", 0.5 * SIGMA_X, 2), Subsystem("q2", 0.5 * SIGMA_X, 2)],
        interactions=[zz],
        alpha=0.01,
        baths=[
            BathSpec.from_temperature("b1", 2.0, flat, SIGMA_Z),
            BathSpec.from_temperature("b2", 1.0, flat, SIGMA_Z),
        ],
        beta_coupling=0.01,
    )
    gen = build_modified_local(spec)
    assert np.count_nonzero(gen.eig.eigenvectors) > spec.dimension
    assert np.abs(gen.h_interaction).max() > 1e-3  # the exchange part survives the filter
    dense = dense_twin(gen)
    a, b = steady_state(gen), steady_state(dense)
    assert np.abs(a.rho_ss - b.rho_ss).max() <= 1e-12
    rho0 = rand_density(rng, 4)
    cfg = SolverConfig(dt=0.02, t_max=10.0, record_stride=50)
    for x, y in zip(evolve(gen, rho0, cfg).states, evolve(dense, rho0, cfg).states):
        assert np.abs(x - y).max() <= 1e-12
    assert gen.stability_norm() == dense.superop_inf_norm()
