import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from lindloc.baths import BathSpec, SpectralModel
from lindloc.dynamics import SolverConfig, Trajectory, evolve, rk4_step_matrix, steady_state
from lindloc.errors import (
    DenseSpectrumError,
    DimensionMismatchError,
    LindlocError,
    NonFiniteError,
    PositivityError,
)
from lindloc import liouvillian
from lindloc.linalg import von_neumann_entropy
from lindloc.liouvillian import (
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
from lindloc.thermo import (
    LOG_EPSILON,
    LOG_FLOOR,
    audit,
    audit_trajectory,
)

from conftest import (
    assert_blocks_are_the_matrix,
    block_entries,
    channel_rates,
    rand_density,
    rand_hermitian,
    rand_unitary,
    resonant_pair_current,
    transpose_map,
)

BUNDLED = [
    two_qubit_model(TwoQubitParams()),
    two_qubit_model(TwoQubitParams(e2=1.5)),
    qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5]),
    single_qubit_model(),
]


# -- rates against independent routes ------------------------------------------


def test_entropy_rate_matches_finite_difference():
    gen = build_modified_local(single_qubit_model())
    h = 1.0
    step = rk4_step_matrix(gen.superop, h)
    rho0 = np.diag([0.9, 0.1]).astype(complex)
    rho1 = unvectorize(step @ vectorize(rho0))
    rho2 = unvectorize(step @ step @ vectorize(rho0))
    centered = (von_neumann_entropy(rho2) - von_neumann_entropy(rho0)) / (2.0 * h)
    assert audit(gen, rho1).s_dot == pytest.approx(centered, abs=1e-9)


def test_energy_rate_matches_finite_difference():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    h = 1.0
    step = rk4_step_matrix(gen.superop, h)
    rho0 = product_gibbs(single_qubit_model(temperature=3.0))
    rho0 = np.kron(rho0, np.diag([0.4, 0.6])).astype(complex)
    rho1 = unvectorize(step @ vectorize(rho0))
    rho2 = unvectorize(step @ step @ vectorize(rho0))
    e = lambda r: float(np.trace(gen.h_free @ r).real)
    centered = (e(rho2) - e(rho0)) / (2.0 * h)
    # h^2 truncation of the centered difference dominates at this step size
    assert audit(gen, rho1).e_dot == pytest.approx(centered, abs=1e-9)


# -- first law -------------------------------------------------------------------


def test_first_law_exact_for_filtered_generator(rng):
    for spec in BUNDLED:
        gen = build_modified_local(spec)
        for _ in range(20):
            rho = rand_density(rng, spec.dimension)
            rep = audit(gen, rho)
            scale = max(1.0, abs(rep.e_dot), max(abs(q) for q in rep.q_dot))
            assert abs(rep.first_law_residual) <= 1e-10 * scale


def test_first_law_breaks_for_naive_generator(rng):
    spec = two_qubit_model(TwoQubitParams())
    naive = build_naive_local(spec)
    filtered = build_modified_local(spec)
    rho = rand_density(rng, 4)
    # same state, same baths; only the interaction commutator differs
    assert abs(audit(naive, rho).first_law_residual) > 1e-6
    assert abs(audit(filtered, rho).first_law_residual) <= 1e-12
    # the audit reports the breakage instead of raising
    rep = audit(naive, rho)
    assert rep.second_law_ok in (True, False)


# -- second law -------------------------------------------------------------------


def test_entropy_production_nonnegative_on_random_states(rng):
    for spec in BUNDLED:
        gen = build_modified_local(spec)
        for _ in range(10):
            rep = audit(gen, rand_density(rng, spec.dimension))
            assert rep.entropy_production >= -1e-9
            assert rep.second_law_ok
            assert rep.spohn_residual <= 1e-9
            # full and partial generators see the same instantaneous entropy rate
            assert rep.s_dot == pytest.approx(rep.spohn_lhs, abs=1e-10)


def test_spohn_bound_is_tight_at_product_gibbs():
    spec = two_qubit_model(TwoQubitParams())
    gen = build_modified_local(spec)
    rep = audit(gen, product_gibbs(spec))
    # the reference state makes the bound an equality up to roundoff
    assert rep.spohn_lhs == pytest.approx(rep.spohn_rhs, abs=1e-12)
    assert rep.entropy_production == pytest.approx(0.0, abs=1e-12)


# -- steady-state currents ---------------------------------------------------------


def test_two_qubit_steady_currents_regression():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    rho_ss = steady_state(gen).rho_ss
    rep = audit(gen, rho_ss)
    # hot bath pushes heat in, cold bath takes it out, nothing accumulates
    assert rep.q_dot[0] == pytest.approx(1.5356402288472635e-05, rel=1e-9)
    assert rep.q_dot[0] + rep.q_dot[1] == pytest.approx(0.0, abs=1e-12)
    assert rep.e_dot == pytest.approx(0.0, abs=1e-12)
    assert rep.s_dot == pytest.approx(0.0, abs=1e-12)
    # with dS/dt = 0 the production reduces to (beta_2 - beta_1) q_1
    assert rep.entropy_production == pytest.approx(0.5 * rep.q_dot[0], abs=1e-15)
    assert rep.entropy_production == pytest.approx(7.678201144236353e-06, rel=1e-9)


def test_current_sign_follows_temperature_bias():
    cold_to_hot = TwoQubitParams(t1=1.0, t2=2.0)
    gen = build_modified_local(two_qubit_model(cold_to_hot))
    rep = audit(gen, steady_state(gen).rho_ss)
    assert rep.q_dot[0] < 0.0 < rep.q_dot[1]
    assert rep.entropy_production > 0.0

    balanced = TwoQubitParams(t1=1.3, t2=1.3)
    gen = build_modified_local(two_qubit_model(balanced))
    rep = audit(gen, steady_state(gen).rho_ss)
    assert abs(rep.q_dot[0]) <= 1e-12


def test_detuned_pair_carries_no_current():
    gen = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    rep = audit(gen, steady_state(gen).rho_ss)
    assert abs(rep.q_dot[0]) <= 1e-10
    assert abs(rep.q_dot[1]) <= 1e-10


spectra = st.one_of(
    st.builds(lambda c: SpectralModel(kind="flat", coupling_scale=c), st.floats(0.05, 1.0)),
    st.builds(
        lambda c, w: SpectralModel(kind="ohmic", coupling_scale=c, cutoff=w),
        st.floats(0.05, 1.0),
        st.floats(1.0, 10.0),
    ),
)


@seed(20261019)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    omega=st.floats(0.5, 2.0),
    alpha=st.floats(1e-3, 3e-2),
    beta_coupling=st.floats(1e-3, 3e-2),
    t1=st.floats(0.3, 3.0),
    t2=st.floats(0.3, 3.0),
    spectral=spectra,
)
def test_resonant_pair_matches_the_closed_form(omega, alpha, beta_coupling, t1, t2, spectral):
    """The resonant pair's steady heat current against the closed form of the
    local master equation (conftest.resonant_pair_current). A detuned pair
    (e2 = 1.5 e1) carries no current."""
    closed, prefactor, (g1, g2) = resonant_pair_current(
        omega, alpha, beta_coupling, t1, t2, spectral
    )

    def steady_report(e2):
        params = TwoQubitParams(
            e1=omega, e2=e2, alpha=alpha, beta_coupling=beta_coupling, t1=t1, t2=t2, spectral=spectral
        )
        gen = build_modified_local(two_qubit_model(params))
        return audit(gen, steady_state(gen).rho_ss)

    rep = steady_report(omega)
    q1, q2 = rep.q_dot
    assert abs(q1 - closed) <= 1e-12 * prefactor
    assert abs(q1 + q2) <= 1e-12 * prefactor
    # the production's scale is the prefactor's too, so that t1 = t2 is covered
    betas = 1.0 / t1 + 1.0 / t2
    assert abs(rep.entropy_production + q1 / t1 + q2 / t2) <= 1e-12 * prefactor * betas
    if abs(closed) > 1e-12 * prefactor:
        assert (q1 > 0.0) == (t1 > t2)  # heat flows from the hot bath to the cold one

    detuned = steady_report(1.5 * omega)
    assert np.abs(detuned.q_dot).max() <= 1e-12 * omega * max(g1, g2)


def test_heat_currents_scale_with_coupling_squared(rng):
    rho = rand_density(rng, 4)
    weak = build_modified_local(two_qubit_model(TwoQubitParams(beta_coupling=0.01)))
    strong = build_modified_local(two_qubit_model(TwoQubitParams(beta_coupling=0.02)))
    q_weak, q_strong = audit(weak, rho).q_dot, audit(strong, rho).q_dot
    assert len(q_strong) == len(q_weak) == 2
    for q_s, q_w in zip(q_strong, q_weak):
        assert q_s == pytest.approx(4.0 * q_w, rel=1e-12)


def test_chain_steady_currents_balance():
    gen = build_modified_local(qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5]))
    rep = audit(gen, steady_state(gen).rho_ss)
    assert sum(rep.q_dot) == pytest.approx(0.0, abs=1e-12)
    assert rep.q_dot[0] > 0.0 > rep.q_dot[2]
    assert rep.entropy_production > 0.0


# -- plumbing ---------------------------------------------------------------------


def test_audit_trajectory_reports_every_record():
    gen = build_modified_local(single_qubit_model())
    traj = evolve(
        gen,
        np.diag([0.8, 0.2]).astype(complex),
        SolverConfig(dt=0.02, t_max=10.0, record_stride=100),
    )
    reports = audit_trajectory(gen, traj)
    assert len(reports) == len(traj)
    for rep in reports:
        assert rep.second_law_ok


def test_log_handles_pure_states():
    gen = build_modified_local(single_qubit_model())
    pure = np.diag([1.0, 0.0]).astype(complex)
    rep = audit(gen, pure)
    assert np.isfinite(rep.s_dot)
    assert rep.entropy_production >= -1e-9


def test_log_rejects_unphysical_states():
    gen = build_modified_local(single_qubit_model())
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(PositivityError):
        audit(gen, bad)


# -- input validation ---------------------------------------------------------------


def test_audit_rejects_non_finite_states():
    assert issubclass(NonFiniteError, LindlocError)
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    good = np.eye(4, dtype=complex) / 4
    for value in (math.nan, math.inf, -math.inf):
        bad = good.copy()
        bad[1, 2] = value
        with pytest.raises(NonFiniteError):
            audit(gen, bad)
        traj = Trajectory(times=np.arange(3.0), states=np.array([good, bad, good]))
        with pytest.raises(NonFiniteError):
            audit_trajectory(gen, traj)


def test_audit_rejects_misshaped_states():
    gen = build_modified_local(two_qubit_model(TwoQubitParams()))
    for bad in (np.eye(3, dtype=complex) / 3, np.full(4, 0.25 + 0j), np.eye(4)[None] / 4):
        with pytest.raises(DimensionMismatchError):
            audit(gen, bad)
    for states in (np.eye(4, dtype=complex) / 4, np.array([np.eye(3, dtype=complex) / 3] * 2)):
        with pytest.raises(DimensionMismatchError):
            audit_trajectory(gen, Trajectory(times=np.arange(len(states), dtype=float), states=states))


# -- the laws over random networks ------------------------------------------------------


def dense_dissipators(gen, rho):
    """Each bath's D_i[rho] = sum gamma (a rho a† - {a†a, rho}/2), from the
    channels' dense jump operators, independent of the generator's triplets."""
    rates = channel_rates(gen)
    out = []
    for b, jumps in enumerate(gen.structure.jumps):
        d_i = np.zeros_like(rho)
        for omega, a in jumps:
            k = a.conj().T @ a
            d_i += rates[(b, omega)] * (a @ rho @ a.conj().T - 0.5 * (k @ rho + rho @ k))
        out.append(d_i)
    return out


def reference_report(gen, rho):
    """One state through the per-state formulas: traces against each bath's
    D_i[rho] in the Schrödinger picture, L_p = -i[H_s, .] + sum D_i, and its own
    eigendecomposition for ln rho and S."""
    d, h, v = gen.dimension, gen.h_free, gen.h_interaction
    diss = dense_dissipators(gen, rho)
    l_partial = -1j * (h @ rho - rho @ h) + sum(diss)
    l_full = l_partial - 1j * (v @ rho - rho @ v)
    q = [np.trace(h @ d_i).real for d_i in diss]
    w, u = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    w = np.clip(w, 0.0, None)
    entropy = -sum(p * math.log(p) for p in w if p > 0.0)
    if w.min() < LOG_FLOOR:
        w = (1.0 - LOG_EPSILON) * w + LOG_EPSILON / d
    ln_rho = (u * np.log(w)) @ u.conj().T
    s_dot = -np.trace(l_full @ ln_rho).real
    sum_beta_q = sum(b.beta * qi for b, qi in zip(gen.spec.baths, q))
    return {
        "q_dot": q,
        "e_dot": np.trace(h @ l_full).real,
        "s_dot": s_dot,
        "entropy_production": s_dot - sum_beta_q,
        "spohn_lhs": -np.trace(l_partial @ ln_rho).real,
        "spohn_rhs": -np.trace(l_partial @ gen.log_product_gibbs[0]).real,
        "entropy": entropy,
    }


def assert_rate_operators_are_the_adjoints(gen, states, scale):
    """tr(op rho) for each of gen.rate_operators[0] and each state of a stack,
    against the dense reference (D_i, L and L_p built from the jump operators)
    and against tr(X L[rho]) through the dense superoperators."""
    h, g, v = gen.h_free, gen.log_product_gibbs[0], gen.h_interaction
    superop, partial_superop = gen.superop, gen.partial_superop
    for rho in states:
        diss = dense_dissipators(gen, rho)
        l_partial = -1j * (h @ rho - rho @ h) + sum(diss)
        l_full = l_partial - 1j * (v @ rho - rho @ v)
        want = [*(h @ d_i for d_i in diss), h @ l_full, g @ l_partial]
        via_superop = [
            *(h @ d_i for d_i in diss),
            h @ unvectorize(superop @ vectorize(rho)),
            g @ unvectorize(partial_superop @ vectorize(rho)),
        ]
        for op, ref, dense in zip(gen.rate_operators[0], want, via_superop, strict=True):
            got = np.trace(op @ rho)
            assert abs(got - np.trace(ref)) <= 1e-12 * scale
            assert abs(got - np.trace(dense)) <= 1e-12 * scale


# subsystem level grids: all Bohr frequencies are multiples of 0.5, far apart
# against couplings of 0.01
networks = st.lists(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), min_size=d, max_size=d, unique=True),
            st.floats(0.5, 3.0),
        )
    ),
    min_size=2,
    max_size=3,
)


@seed(20261018)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(network=networks, draw_seed=st.integers(0, 2**32 - 1))
def test_laws_hold_on_random_networks(network, draw_seed):
    """Random local H = U diag(E) U†, Hermitian couplings and temperatures: the
    modified generator's blocks are conjugate pairs and real self-conjugate
    blocks with exact zeros between them, its steady state is unique and
    positive, it keeps both laws on random full-rank states, and the stacked
    audit and each rate operator agree with the per-state formulas."""
    rng = np.random.default_rng(draw_seed)
    flat = SpectralModel(kind="flat", coupling_scale=1.0 / (2.0 * math.pi))
    subsystems, baths = [], []
    for k, (levels, temperature) in enumerate(network):
        d = len(levels)
        u = rand_unitary(rng, d)
        subsystems.append(Subsystem(f"s{k}", (u * np.array(levels)) @ u.conj().T, d))
        baths.append(BathSpec.from_temperature(f"b{k}", temperature, flat, rand_hermitian(rng, d)))
    full = math.prod(len(levels) for levels, _ in network)
    spec = SystemSpec(
        subsystems=subsystems,
        interactions=[rand_hermitian(rng, full)],
        alpha=0.01,
        baths=baths,
        beta_coupling=0.01,
    )
    try:
        gen = build_modified_local(spec)
    except DenseSpectrumError:
        assume(False)

    # the blocks against L assembled in their basis, whose entries at the
    # transposed indices are exact conjugates
    n = full * full
    rows, cols, vals, _ = block_entries(gen)
    assembled = liouvillian._scatter(rows * n + cols, vals, n * n).reshape(n, n)
    tau = transpose_map(full)
    assert np.array_equal(assembled[np.ix_(tau, tau)], assembled.conj())
    assert_blocks_are_the_matrix(gen, assembled)
    steady = steady_state(gen)
    assert steady.null_dim == 1
    assert steady.residual <= 1e-8
    assert np.linalg.eigvalsh(steady.rho_ss).min() > 0.0

    states = np.array([rand_density(rng, full) for _ in range(3)])
    traj = Trajectory(times=np.arange(3.0), states=states)
    energy_scale = float(np.abs(np.linalg.eigvalsh(gen.h_free)).max())
    scale = max(1.0, energy_scale)
    # the naive generator's interaction does not commute with H_s, so its
    # commutator reaches L†[H_s]
    for built in (gen, build_naive_local(spec)):
        assert_rate_operators_are_the_adjoints(built, states, scale)
    for rho, stacked in zip(states, audit_trajectory(gen, traj), strict=True):
        ref = reference_report(gen, rho)
        q_ref = ref.pop("q_dot")
        for rep in (stacked, audit(gen, rho)):
            assert abs(rep.first_law_residual) <= 1e-10 * energy_scale
            assert rep.entropy_production >= -1e-9
            assert rep.spohn_lhs >= rep.spohn_rhs - 1e-9
            assert np.abs(np.subtract(rep.q_dot, q_ref)).max() <= 1e-12 * scale
            for name, value in ref.items():
                assert abs(getattr(rep, name) - value) <= 1e-12 * scale, name
