import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from lindloc import dynamics, linalg, liouvillian
from lindloc.dynamics import (
    SolverConfig,
    SteadyStateResult,
    evolve,
    rk4_step_matrix,
    steady_state,
)
from lindloc.errors import (
    ConfigError,
    DenseSpectrumError,
    DimensionMismatchError,
    IntegrationError,
    LindlocError,
    NonUniqueSteadyStateError,
    PositivityError,
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
    vectorize,
)
from lindloc.models import (
    TwoQubitParams,
    qubit_chain_model,
    single_qubit_model,
    two_qubit_model,
)
from lindloc.thermo import audit, audit_trajectory

from conftest import (
    assert_blocks_are_the_matrix,
    block_entries,
    channel_rates,
    gkls,
    networks,
    rand_complex,
    rand_density,
    random_network,
    report_bits,
    row_blocks,
    unvec,
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


def test_record_stride_must_be_an_integer():
    """A stride that is not an int (or is a bool) is refused when the config
    is made, in the words of the CLI's integer check, not by evolve's power."""
    for bad in (1.5, 2.0, True, "2"):
        message = rf"^record_stride: expected an integer, got {bad!r}$"
        with pytest.raises(ConfigError, match=message):
            SolverConfig(dt=0.01, t_max=1.0, record_stride=bad)
    cfg = SolverConfig(dt=0.01, t_max=1.0, record_stride=50)
    assert len(evolve(build_modified_local(single_qubit_model()), np.eye(2) / 2, cfg)) == 3


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
    s = base.structure
    bad = Structure("modified", s.h_free, s.h_interaction, s.levels, [[(1.0, SIGMA_MINUS)]])
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
            Subsystem("q1", 0.5 * SIGMA_Z),
            Subsystem("q2", 0.5 * SIGMA_Z),
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
    with pytest.raises(NonUniqueSteadyStateError, match="dimension 2") as exc:
        steady_state(gen)
    assert exc.value.null_dim == 2


def one_dimensional(h):
    """A single one-level subsystem: L is the 1 x 1 zero matrix."""
    flat = SpectralModel(kind="flat", coupling_scale=1.0)
    one = np.ones((1, 1), dtype=complex)
    return SystemSpec(
        subsystems=[Subsystem("q", h * one)],
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


# a state with eigenvalue -0.2, which no steady-state candidate may have
NEGATIVE = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)


def test_steady_state_failure_branches():
    """The three checks after the null count, each reached by replacing
    one step: the trace-row solve, the candidate's state and L[rho_ss]."""
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.LinAlgError):
        with pytest.raises(LindlocError, match=r"^null vector is traceless; no normalizable"):
            steady_state(gen)
    with mock.patch.object(liouvillian.BlockView, "to_state", return_value=NEGATIVE[None]):
        with pytest.raises(
            PositivityError, match=r"^steady-state candidate has eigenvalue -2\.000e-01 below -1e-9$"
        ):
            steady_state(gen)
    residual = (None, np.full((1, 4, 4), 1e-6))
    with mock.patch.object(Generator, "terms", return_value=residual):
        with pytest.raises(
            LindlocError,
            match=r"^steady-state residual 1\.000e-06 exceeds 1e-8; generator may be defective$",
        ):
            steady_state(gen)


def test_a_stacked_row_fails_alone():
    """The second row of a stack fails the positivity check while the first
    passes: the stack raises that row's error."""
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    to_state = liouvillian.BlockView.to_state

    def second_row_negative(view, x, z):
        rho = to_state(view, x, z)
        rho[1] = NEGATIVE
        return rho

    with mock.patch.object(liouvillian.BlockView, "to_state", second_row_negative):
        with pytest.raises(PositivityError, match=r"eigenvalue -2\.000e-01 below"):
            dynamics.steady_states(Generator.stack([gen, gen]))
    assert len(dynamics.steady_states(Generator.stack([gen, gen]))) == 2


# -- blocks certified by their Weyl bounds -------------------------------------------


def every_svd():
    """Within this context steady_states certifies no block: the all-SVD path."""
    return mock.patch.object(
        dynamics, "_certified", lambda gen: (np.empty(0, dtype=int), *(np.empty((len(gen), 0)),) * 3)
    )


def solved(gen):
    """steady_states' results, or its error's type and message, and the
    messages it logged."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("lindloc")
    logger.addHandler(handler)
    try:
        out = dynamics.steady_states(gen)
    except LindlocError as exc:
        out = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return out, [r.getMessage() for r in records]


def assert_decides_as_every_svd(gen):
    """Every certified block's bounds hold in every row, and steady_states
    gives the all-SVD path's null_dim, warnings, rho_ss (bit for bit) and
    residual."""
    skipped, bound, upper, peak = dynamics._certified(gen)
    for k, low, high, top in zip(skipped, bound.T, upper.T, peak.T, strict=True):
        s = np.linalg.svd(gen.block_matrices[k], compute_uv=False)
        assert np.all(low <= s[:, -1]) and np.all(top <= s[:, 0]) and np.all(s[:, 0] <= high)
    out, logged = solved(gen)
    with every_svd():
        want, want_logged = solved(gen)
    assert logged == want_logged
    if isinstance(want, tuple):
        assert out == want
        return
    for a, b in zip(out, want, strict=True):
        assert a.null_dim == b.null_dim
        assert np.array_equal(a.rho_ss, b.rho_ss)
        assert a.residual == b.residual
        assert np.array_equal(a.singular_values[-2:], b.singular_values[-2:])


qubit_chains = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from([1.0, 1.5]), min_size=n, max_size=n),
        st.lists(st.floats(0.5, 2.5), min_size=n, max_size=n),
    )
)


@seed(20261020)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    model=st.one_of(
        st.tuples(st.just("network"), networks, st.integers(0, 2**32 - 1)),
        st.tuples(st.just("chain"), qubit_chains, st.just(0)),
    ),
    build=st.sampled_from([build_modified_local, build_naive_local]),
    scales=st.lists(st.sampled_from([0.25, 1.0, 4.0, 30.0]), min_size=1, max_size=3),
    skew=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_certified_blocks_decide_as_every_svd(model, build, scales, skew):
    """On random networks and qubit chains, with their channel rates scaled
    row by row into a stack, each skipped block's Weyl bounds hold and the
    steady states are those of the all-SVD path. With a skew, the first
    column of the largest gapped block is pulled toward -F by skew * F / sqrt(m):
    an unphysical block, whose ||A||_2 then far exceeds its row sums'
    ||A||_inf, and for which the bounds must hold all the same."""
    kind, drawn, draw_seed = model
    if kind == "network":
        spec = random_network(drawn, np.random.default_rng(draw_seed))
    else:
        spec = qubit_chain_model(len(drawn[0]), *drawn)
    try:
        gen = build(spec)
    except DenseSpectrumError:
        assume(False)
    rows = [Generator(gen.structure, spec, gen.rates * x, gen.betas) for x in scales]
    gen = Generator.stack(rows)
    g = gen.structure.gapped
    if skew and g.blocks.size:
        j = int(np.argmax([gen.block_matrices[k].shape[-1] for k in g.blocks]))
        m = gen.block_matrices[g.blocks[j]]
        m[:, :, 0] += 1j * skew * g.omega[g.spans[j][1]][0] / math.sqrt(m.shape[-1])
    assert_decides_as_every_svd(gen)


def test_bounds_of_huge_blocks_do_not_overflow():
    """A qubit at E = 1e300 has block entries near 1e300, whose norm bound is
    the product of two roots: the root of their product would overflow."""
    gen = build_modified_local(single_qubit_model(energy=1e300))
    assert gen.structure.gapped.blocks.size
    with np.errstate(all="raise"):
        bounds = dynamics._weyl_bounds(gen)
    assert all(np.isfinite(b).all() for b in bounds)


def test_weak_bounds_fall_back_to_every_svd():
    """Bounds that are positive but below the pool's second-smallest value
    decide nothing: every block is factored."""
    gen = build_modified_local(qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5]))
    skipped, bound, upper, peak = dynamics._certified(gen)
    assert skipped.size
    weak = (skipped, np.full_like(bound, 1e-300), upper, peak)
    with mock.patch.object(dynamics, "_certified", return_value=weak):
        a = steady_state(gen)
    b = steady_state(gen)
    with every_svd():
        c = steady_state(gen)
    assert a.singular_values.size == c.singular_values.size > b.singular_values.size
    assert np.array_equal(a.singular_values, c.singular_values)
    assert np.array_equal(a.rho_ss, b.rho_ss)


def factored(gen):
    """The (rows, rows) of each block steady_state passes to the SVD, in order."""
    with mock.patch.object(dynamics.np.linalg, "svd", wraps=np.linalg.svd) as svd:
        steady_state(gen)
    return [call.args[0].shape[1:] for call in svd.call_args_list]


def test_only_undecided_blocks_reach_lapack():
    """A resonant 4-chain factors only its zero block; a mixed 3-chain also
    its degenerate omega = 0 pair block; the naive generator every block."""
    def sizes(gen, blocks):
        return [(gen.structure.blocks.indices[k].size,) * 2 for k in blocks]

    gen = build_modified_local(qubit_chain_model(4, [1.0] * 4, [2.0, 1.5, 1.0, 0.5]))
    assert factored(gen) == sizes(gen, [gen.structure.blocks.zero])
    assert len(gen.block_matrices) == 5

    gen = build_modified_local(qubit_chain_model(3, [1.0, 1.5, 1.0], [2.0, 1.0, 0.5]))
    view = gen.structure.blocks
    (degenerate,) = set(range(len(view.real))) - set(gen.structure.gapped.blocks) - {view.zero}
    assert not view.real[degenerate]
    assert factored(gen) == sizes(gen, sorted([view.zero, degenerate]))

    gen = build_naive_local(qubit_chain_model(4, [1.0, 1.5, 1.0, 1.0], [2.0, 1.5, 1.0, 0.5]))
    assert gen.structure.gapped.blocks.size == 0
    assert factored(gen) == sizes(gen, range(len(gen.block_matrices)))


# -- blocks against the dense path ---------------------------------------------------


def dense_in_basis(gen):
    """The GKLS formula's L in the basis of gen's blocks."""
    u = gen.structure.blocks.basis
    if u is None:
        return gkls(gen)
    w = np.kron(u.T, u.conj().T)  # vec(U† X U) = (U^T kron U†) vec(X)
    return w @ gkls(gen) @ w.conj().T


def dense_steady_state(gen):
    """rho_ss from the GKLS formula's L with its (0, 0) row replaced by the
    trace: a redundant row, since the trace is a left null vector. The solve
    is better conditioned than the dense SVD null vector, whose error scales
    with the smallest nonzero singular value of all blocks together."""
    a = gkls(gen)
    a[0] = vectorize(np.eye(gen.dimension, dtype=complex))
    rhs = np.zeros(a.shape[0], dtype=complex)
    rhs[0] = 1.0
    rho = unvec(np.linalg.solve(a, rhs))
    return 0.5 * (rho + rho.conj().T)


def dense_states(gen, rho0, config):
    """Recorded states from powers of the dense RK4 step matrix of the GKLS
    formula's L."""
    n_steps = max(1, int(round(config.t_max / config.dt)))
    step = rk4_step_matrix(gkls(gen), config.dt)
    v, states, done = vectorize(rho0), [rho0], 0
    while done < n_steps:
        jump = min(config.record_stride, n_steps - done)
        v = np.linalg.matrix_power(step, jump) @ v
        done += jump
        states.append(unvec(v))
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
    a = steady_state(gen)
    traj = evolve(gen, rho0, cfg)
    assert len(gen.block_matrices) > 1

    assert_blocks_are_the_matrix(gen, dense_in_basis(gen))
    assert np.abs(a.rho_ss - dense_steady_state(gen)).max() <= 1e-12
    # the factored blocks' pool is part of the dense set, with its two smallest
    s_dense = np.linalg.svd(gkls(gen), compute_uv=False)
    s = a.singular_values
    assert s.size <= s_dense.size and np.all(s[:-1] >= s[1:])
    assert np.abs(s[:, None] - s_dense[None, :]).min(axis=1).max() <= 1e-12 * s_dense[0]
    assert np.abs(s[-2:] - s_dense[-2:]).max() <= 1e-12 * s_dense[0]
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


def per_block_states(gen, rho0, config):
    """The recorded states of a loop that steps each live block on its own:
    a slice, a product with the block's stride matrix and a copy per block
    and record, the loop evolve's stacks of equal blocks stand in for."""
    n_steps = max(1, int(round(config.t_max / config.dt)))
    stride = min(config.record_stride, n_steps)
    view = gen.structure.blocks
    x, z = view.to_vector(rho0)
    live = [
        (v, block, m[0])
        for v, block, m in zip((x if r else z for r in view.real), view.slices, gen.block_matrices)
        if v[block].any()
    ]
    step_matrices = [rk4_step_matrix(m, config.dt) for _, _, m in live]
    stride_matrices = [np.linalg.matrix_power(s, stride) for s in step_matrices]
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
    return np.concatenate(([0.5 * (rho0 + rho0.conj().T)], view.to_state(xs, zs)))


@seed(20261021)
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    model=st.one_of(
        st.tuples(st.just("network"), networks, st.integers(0, 2**32 - 1)),
        st.tuples(st.just("chain"), qubit_chains, st.integers(0, 2**32 - 1)),
    ),
    build=st.sampled_from([build_modified_local, build_naive_local]),
    run=st.tuples(st.integers(1, 30), st.integers(1, 9)),
)
def test_stacked_blocks_step_as_each_block_alone(model, build, run):
    """evolve's stacks of equal blocks record, bit for bit, the states of a
    loop over the blocks one by one: from a full-rank state, which touches
    every block, and from one diagonal in the blocks' basis, which touches
    only the blocks holding populations; over 23 steps recorded every 5th,
    which leaves a partial last stride, and over a drawn (steps, stride)."""
    kind, drawn, state_seed = model
    rng = np.random.default_rng(state_seed)
    if kind == "network":
        spec = random_network(drawn, rng)
    else:
        spec = qubit_chain_model(len(drawn[0]), *drawn)
    try:
        gen = build(spec)
    except DenseSpectrumError:
        assume(False)
    view = gen.structure.blocks
    u = np.eye(spec.dimension) if view.basis is None else view.basis
    p = rng.uniform(0.1, 1.0, spec.dimension)
    diagonal = u @ np.diag(p / p.sum()) @ u.conj().T
    dt = 0.05 / gen.stability_norm()
    for steps, stride in ((23, 5), run):
        cfg = SolverConfig(dt=dt, t_max=steps * dt, record_stride=stride)
        for rho0 in (rand_density(rng, spec.dimension), diagonal):
            states = evolve(gen, rho0, cfg).states
            assert np.array_equal(states, per_block_states(gen, rho0, cfg))


def test_run_length_changes_no_record_and_no_report():
    """evolve's stacks of blocks and record checks, and audit_trajectory,
    take their matrices and states in runs of linalg.STACK_BYTES. Runs of
    one state, which also split evolve's stacks, give the same states and
    the same reports, bit for bit in every field, as the several default
    runs: each report is a function of its state alone."""
    spec = qubit_chain_model(4, [1.0, 1.5, 1.0, 1.0], [2.0, 1.0, 0.7, 1.3])
    rho0 = rand_density(np.random.default_rng(8), spec.dimension)
    cfg = SolverConfig(dt=0.01, t_max=1.5, record_stride=1)
    d = spec.dimension
    for build in (build_modified_local, build_naive_local):
        gen = build(spec)
        traj = evolve(gen, rho0, cfg)
        reports = audit_trajectory(gen, traj)
        assert len(linalg.runs(len(traj), d)) > 1
        with mock.patch.object(linalg, "STACK_BYTES", 16 * d * d):
            assert len(linalg.runs(len(traj), d)) == len(traj)
            one = evolve(gen, rho0, cfg)
            one_reports = audit_trajectory(gen, one)
        assert np.array_equal(one.states, traj.states)
        assert list(map(report_bits, one_reports)) == list(map(report_bits, reports))


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
        subsystems=[Subsystem("q1", 0.5 * SIGMA_X), Subsystem("q2", 0.5 * SIGMA_X)],
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
    assert np.abs(gen.structure.h_interaction).max() > 1e-3  # the exchange part survives the filter
    rho0 = rand_density(rng, 4)
    cfg = SolverConfig(dt=0.02, t_max=10.0, record_stride=50)
    a = steady_state(gen)
    traj = evolve(gen, rho0, cfg)
    assert np.abs(a.rho_ss - dense_steady_state(gen)).max() <= 1e-12
    for x, y in zip(traj.states, dense_states(gen, rho0, cfg), strict=True):
        assert np.abs(x - y).max() <= 1e-12
    # row sums add in another order than the dense matrix's
    assert gen.stability_norm() == pytest.approx(np.abs(gkls(gen)).sum(axis=1).max(), rel=1e-15)
