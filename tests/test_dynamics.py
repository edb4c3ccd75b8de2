import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lindloc import dynamics, liouvillian
from lindloc.dynamics import (
    SolverConfig,
    SteadyStateResult,
    evolve,
    rk4_step_matrix,
    steady_state,
)
from lindloc.errors import (
    ConfigError,
    DimensionMismatchError,
    IntegrationError,
    LindlocError,
    NonUniqueSteadyStateError,
)
from lindloc.baths import BathSpec, SpectralModel
from lindloc.linalg import SIGMA_MINUS, SIGMA_X, SIGMA_Z
from lindloc.liouvillian import (
    Generator,
    Structure,
    Subsystem,
    SystemSpec,
    build_modified_local,
    build_naive_local,
    product_gibbs,
    unvectorize,
    vectorize,
)
from lindloc.models import (
    TwoQubitParams,
    qubit_chain_model,
    single_qubit_model,
    two_qubit_model,
)
from lindloc.thermo import audit

from conftest import (
    assert_blocks_are_the_matrix,
    block_entries,
    channel_rates,
    rand_complex,
    rand_density,
    row_blocks,
)


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


def test_record_stride_beyond_the_step_count():
    gen = build_modified_local(single_qubit_model(energy=0.1))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve(gen, rho0, SolverConfig(dt=0.3, t_max=1.5, record_stride=100))
    assert np.allclose(traj.times, [0.0, 1.5], atol=1e-15)
    every = evolve(gen, rho0, SolverConfig(dt=0.3, t_max=1.5))
    assert np.abs(traj.states[-1] - every.states[-1]).max() <= 1e-15


def test_recorded_times_with_stride_and_partial_tail():
    # low energy keeps dt * ||L|| inside the stability bound at this coarse dt
    gen = build_modified_local(single_qubit_model(energy=0.1))
    traj = evolve(gen, mixed_state(2), SolverConfig(dt=0.3, t_max=1.0, record_stride=2))
    # 3 steps of 0.3, recorded every 2 steps, with a short tail record
    assert np.allclose(traj.times, [0.0, 0.6, 0.9], atol=1e-15)
    assert len(traj) == 3


def test_evolution_matches_two_level_closed_form():
    gen = build_modified_local(single_qubit_model())
    rates = channel_rates(gen)
    down, up = rates[(0, 1.0)], rates[(0, -1.0)]
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


def test_record_count_is_checked_before_allocating(monkeypatch):
    """A run that passes the stability guard but asks for 10^9 records is
    refused from its record count, before any record array exists; the
    physical memory is fixed so the outcome does not depend on the machine."""
    monkeypatch.setattr(liouvillian, "PHYSICAL_MEMORY", 8 * 2**30)
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    cfg = SolverConfig(dt=1.0e-5, t_max=1.0e4, record_stride=1)
    tracemalloc.start()
    try:
        with pytest.raises(LindlocError, match=r"1000000000 records of a 4 x 4 state would need"):
            evolve(gen, mixed_state(4), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


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
    for bad in (math.nan, math.inf):
        rho0 = mixed_state(2)
        rho0[0, 1] = bad
        with pytest.raises(IntegrationError, match="initial state"):
            evolve(gen, rho0, cfg)


def test_unphysical_generator_detected_mid_run():
    spec = single_qubit_model()
    base = build_modified_local(spec)
    # one channel, lowering, with a negative rate
    bad = Structure("modified", base.h_free, base.h_interaction, base.levels, [[(1.0, SIGMA_MINUS)]])
    gen = Generator(bad, spec, rates=np.array([[-0.05]]), betas=base.betas)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(IntegrationError, match="t = "):
        evolve(gen, rho0, SolverConfig(dt=0.05, t_max=20.0, record_stride=10))
    # the stacked check names the first record that fails, as a per-record loop
    # would; from this state, over a thousand records pass before one fails
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(IntegrationError) as caught:
        evolve(gen, rho0, SolverConfig(dt=0.005, t_max=20.0))
    loose = evolve(gen, rho0, SolverConfig(dt=0.005, t_max=20.0, positivity_tol=1e6))
    assert isinstance(loose.states, np.ndarray) and loose.states.shape == (len(loose.times), 2, 2)
    first = next(t for t, rho in zip(loose.times, loose.states) if np.linalg.eigvalsh(rho).min() < -1e-9)
    assert first > loose.times[1000]
    assert str(caught.value).startswith(f"t = {first:.6g}: positivity violated")


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
    horizon = 50.0 / gen.rates.min()
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
    # decided from the pooled Bohr-block singular values
    with no_dense(), pytest.raises(NonUniqueSteadyStateError, match="dimension 2") as exc:
        steady_state(gen)
    assert exc.value.null_dim == 2


def one_dimensional(h):
    """A single one-level subsystem: L is the 1 x 1 zero matrix."""
    flat = SpectralModel(kind="flat", coupling_scale=1.0)
    one = np.ones((1, 1), dtype=complex)
    return SystemSpec(
        subsystems=[Subsystem("q", h * one, 1)],
        interactions=[],
        alpha=0.0,
        baths=[BathSpec.from_temperature("b", 1.0, flat, one)],
        beta_coupling=0.01,
    )


def test_one_dimensional_system_has_no_unique_steady_state():
    for h in (0.0, 0.5):
        for build in (build_modified_local, build_naive_local):
            gen = build(one_dimensional(h))
            rows = block_entries(gen)[0]
            assert rows.size == (0 if h == 0.0 else 2)  # -i h and its conjugate
            assert row_blocks(gen) == (np.zeros((1, 1)),)
            with pytest.raises(NonUniqueSteadyStateError) as exc:
                steady_state(gen)
            assert exc.value.null_dim == 1


# -- blocks against the dense path ---------------------------------------------------


def no_dense():
    """Within this context, building a dense superoperator fails the test."""
    refuse = AssertionError("the dense superoperator was built")
    return mock.patch.object(Generator, "_dense", side_effect=refuse)


def dense_in_basis(gen):
    """The dense superoperator in the basis of gen's blocks."""
    u = gen.structure.blocks.basis
    if u is None:
        return gen.superop
    w = np.kron(u.T, u.conj().T)  # vec(U† X U) = (U^T kron U†) vec(X)
    return w @ gen.superop @ w.conj().T


def dense_steady_state(gen):
    """rho_ss from the dense superoperator with its (0, 0) row replaced by the
    trace: a redundant row, since the trace is a left null vector. The solve
    is better conditioned than the dense SVD null vector, whose error scales
    with the smallest nonzero singular value of all blocks together."""
    a = gen.superop.copy()
    a[0] = vectorize(np.eye(gen.dimension, dtype=complex))
    rhs = np.zeros(a.shape[0], dtype=complex)
    rhs[0] = 1.0
    rho = unvectorize(np.linalg.solve(a, rhs))
    return 0.5 * (rho + rho.conj().T)


def dense_states(gen, rho0, config):
    """Recorded states from powers of the dense RK4 step matrix."""
    n_steps = max(1, int(round(config.t_max / config.dt)))
    step = rk4_step_matrix(gen.superop, config.dt)
    v, states, done = vectorize(rho0), [rho0], 0
    while done < n_steps:
        jump = min(config.record_stride, n_steps - done)
        v = np.linalg.matrix_power(step, jump) @ v
        done += jump
        states.append(unvectorize(v))
    return states


chains = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from([1.0, 1.5]), min_size=n, max_size=n),
        st.lists(st.floats(0.5, 2.5), min_size=n, max_size=n),
    )
)


@seed(20260825)
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    chain=chains,
    build=st.sampled_from([build_modified_local, build_naive_local]),
    state_seed=st.integers(0, 2**32 - 1),
)
def test_block_path_matches_dense_path(chain, build, state_seed):
    energies, temperatures = chain
    spec = qubit_chain_model(len(energies), energies, temperatures)
    gen = build(spec)
    cfg = SolverConfig(dt=0.01, t_max=5.0, record_stride=100)
    # a full-rank state has entries in every block
    rho0 = rand_density(np.random.default_rng(state_seed), spec.dimension)
    with no_dense():
        a = steady_state(gen)
        traj = evolve(gen, rho0, cfg)
    assert len(gen.block_matrices) > 1

    assert_blocks_are_the_matrix(gen, dense_in_basis(gen))
    assert np.abs(a.rho_ss - dense_steady_state(gen)).max() <= 1e-12
    s_dense = np.linalg.svd(gen.superop, compute_uv=False)
    assert a.singular_values.shape == s_dense.shape
    assert np.abs(a.singular_values - s_dense).max() <= 1e-12 * s_dense[0]
    for x, y in zip(traj.states, dense_states(gen, rho0, cfg), strict=True):
        assert np.abs(x - y).max() <= 1e-12


def counting_step_matrices(monkeypatch):
    """The (rows, dtype) of every RK4 step matrix evolve builds, in order."""
    stepped = []

    def counting_step_matrix(m, dt):
        stepped.append((m.shape[0], m.dtype))
        return rk4_step_matrix(m, dt)

    monkeypatch.setattr(dynamics, "rk4_step_matrix", counting_step_matrix)
    return stepped


def test_untouched_blocks_are_not_stepped(monkeypatch):
    stepped = counting_step_matrices(monkeypatch)
    spec = qubit_chain_model(4, [1.0, 1.5, 1.0, 1.0], [2.0, 1.0, 0.7, 1.3])
    cfg = SolverConfig(dt=0.01, t_max=2.0, record_stride=50)
    for build in (build_modified_local, build_naive_local):
        gen = build(spec)
        view, matrices = gen.structure.blocks, row_blocks(gen)
        rho0 = product_gibbs(spec)  # diagonal: only the population block is nonzero
        stepped.clear()
        traj = evolve(gen, rho0, cfg)
        assert stepped == [(matrices[view.zero].shape[0], np.float64)]
        assert len(matrices) > 1

        # every stored block stepped, untouched ones included
        strides = [np.linalg.matrix_power(rk4_step_matrix(m, cfg.dt), 50) for m in matrices]
        x, z = view.to_vector(rho0)
        states = [rho0]
        for _ in range(4):
            for real, block, m in zip(view.real, view.slices, strides):
                v = x if real else z
                v[block] = m @ v[block]
            states.append(view.to_state(x, z))
        assert len(traj.states) == len(states)
        for x, y in zip(traj.states, states):
            assert np.array_equal(x, y)


def test_one_step_matrix_per_stored_block(monkeypatch):
    """A full-rank state touches every block: each stored block is stepped
    once, in real arithmetic when it is self-conjugate, and no partner is."""
    stepped = counting_step_matrices(monkeypatch)
    spec = qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5])
    rho0 = rand_density(np.random.default_rng(3), spec.dimension)
    for build in (build_modified_local, build_naive_local):
        gen = build(spec)
        view, matrices = gen.structure.blocks, row_blocks(gen)
        stepped.clear()
        evolve(gen, rho0, SolverConfig(dt=0.01, t_max=0.5, record_stride=10))
        assert stepped == [(m.shape[0], m.dtype) for m in matrices]
        assert all(dtype == np.float64 for (_, dtype), real in zip(stepped, view.real) if real)
        # a pair block's rows stand for its partner's entries too
        rows = sum(m.shape[0] * (1 if real else 2) for m, real in zip(matrices, view.real))
        assert rows == spec.dimension**2
    assert not all(build_modified_local(spec).structure.blocks.real)


def test_anti_hermitian_part_of_rho0_is_not_carried():
    """Only the Hermitian part of rho0 is stepped and recorded, so every record
    is exactly Hermitian and the trajectory is that of the Hermitian part."""
    spec = qubit_chain_model(3, [1.0, 1.5, 1.0], [2.0, 1.0, 0.5])
    rng = np.random.default_rng(11)
    rho = rand_density(rng, spec.dimension)
    skew = rand_complex(rng, spec.dimension)
    skew = 1e-10 * (skew - skew.conj().T) / np.abs(skew - skew.conj().T).max()
    cfg = SolverConfig(dt=0.01, t_max=1.0, record_stride=20)
    for build in (build_modified_local, build_naive_local):
        gen = build(spec)
        traj = evolve(gen, rho + skew, cfg)
        assert np.array_equal(traj.states, traj.states.conj().swapaxes(1, 2))
        assert np.array_equal(traj.states, evolve(gen, rho, cfg).states)
    with pytest.raises(IntegrationError, match="not Hermitian within 1e-9"):
        evolve(gen, rho + 20.0 * skew, cfg)


def test_each_bath_forms_its_k_once(rng):
    """steady_state reads the blocks and audit the product-basis triplets; both
    read one cached list of the baths' -K_i/2."""
    spec = qubit_chain_model(3, [1.0, 1.5, 1.0], [2.0, 1.0, 0.5])
    with mock.patch.object(
        liouvillian, "_dissipator_g", wraps=liouvillian._dissipator_g
    ) as formed:
        gen = build_modified_local(spec)
        ss = steady_state(gen)
        audit(gen, ss.rho_ss)
        audit(gen, rand_density(rng, spec.dimension))
    assert formed.call_count == len(spec.baths)


def test_block_path_in_a_dense_eigenbasis(rng):
    """Qubits with H = sigma_x / 2 and sigma_z couplings: the H_s eigenbasis mixes
    product states, so states are rotated and the guard sums product-basis rows."""
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
    rho0 = rand_density(rng, 4)
    cfg = SolverConfig(dt=0.02, t_max=10.0, record_stride=50)
    with no_dense():  # the guard's norm comes from the triplets
        a = steady_state(gen)
        traj = evolve(gen, rho0, cfg)
    assert np.abs(a.rho_ss - dense_steady_state(gen)).max() <= 1e-12
    for x, y in zip(traj.states, dense_states(gen, rho0, cfg), strict=True):
        assert np.abs(x - y).max() <= 1e-12
    # row sums add in another order than the dense matrix's
    assert gen.stability_norm() == pytest.approx(np.abs(gen.superop).sum(axis=1).max(), rel=1e-15)
