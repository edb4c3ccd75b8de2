import gc
import logging
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from lindloc.baths import BathSpec, SpectralModel
from lindloc import linalg, liouvillian
from lindloc.dynamics import SolverConfig, evolve, steady_state, steady_states
from lindloc.errors import (
    DenseSpectrumError,
    DimensionMismatchError,
    LindlocError,
    NonHermitianError,
)
from lindloc.linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, embed, kron
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

from lindloc.thermo import audit, audit_states, audit_trajectory

from conftest import (
    assert_block_matches,
    channel_rates,
    dissipator,
    gkls,
    networks,
    rand_complex,
    rand_density,
    rand_hermitian,
    random_network,
    row_blocks,
    unvec,
)

FLAT_UNIT = SpectralModel(kind="flat", coupling_scale=1.0 / (2.0 * math.pi))


def default_two_qubit():
    return build_modified_local(two_qubit_model(TwoQubitParams()))


# -- vectorization ---------------------------------------------------------------


def test_vectorize_column_stacking_order():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(vectorize(m), [1.0, 3.0, 2.0, 4.0])


def test_terms_refuses_a_state_of_another_dimension():
    with pytest.raises(
        DimensionMismatchError, match=r"state shape \(3, 3\) does not match generator dimension 4"
    ):
        default_two_qubit().terms(np.eye(3, dtype=complex))


# -- generator structure -----------------------------------------------------------


def test_two_qubit_channel_table():
    gen = default_two_qubit()
    assert gen.kind == "modified"
    assert gen.dimension == 4
    assert len(gen.structure.jumps) == 2

    # flat coupling 1/(2 pi) makes the golden-rule prefactor exactly 1,
    # so each scaled rate is beta_coupling^2 times an occupation factor
    n1 = 1.0 / math.expm1(0.5)  # bath at T = 2 probed at frequency 1
    n2 = 1.0 / math.expm1(1.0)  # bath at T = 1
    expected = {
        (0, -1.0): 1e-4 * n1,
        (0, 1.0): 1e-4 * (n1 + 1.0),
        (1, -1.0): 1e-4 * n2,
        (1, 1.0): 1e-4 * (n2 + 1.0),
    }
    seen = channel_rates(gen)
    assert all(r > 0.0 for r in seen.values())
    assert seen.keys() == expected.keys()
    for key, val in expected.items():
        assert seen[key] == pytest.approx(val, rel=1e-14)

    # frequency +1 lowers the local energy, which raises in this basis ordering
    by_omega = dict(gen.structure.jumps[0])
    assert np.array_equal(by_omega[1.0], embed(SIGMA_MINUS, 0, [2, 2]))
    assert np.array_equal(by_omega[-1.0], embed(SIGMA_PLUS, 0, [2, 2]))


def test_resonant_interaction_is_exchange_term():
    gen = default_two_qubit()
    expected = 0.01 * (kron(SIGMA_PLUS, SIGMA_MINUS) + kron(SIGMA_MINUS, SIGMA_PLUS))
    assert np.abs(gen.structure.h_interaction - expected).max() <= 1e-15


def test_detuned_interaction_filters_to_zero():
    gen = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    assert np.abs(gen.structure.h_interaction).max() == 0.0
    decoupled = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5, alpha=0.0)))
    assert np.array_equal(gkls(gen), gkls(decoupled))


def test_naive_keeps_full_interaction():
    gen = build_naive_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    h = gen.structure.h_interaction
    assert np.array_equal(h, 0.01 * kron(SIGMA_X, SIGMA_X))
    # dissipative parts agree between the two constructions
    mod = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    x = rand_density(np.random.default_rng(3), 4)
    diff = gen.terms(x)[1] - mod.terms(x)[1]
    assert np.allclose(diff, -1j * (h @ x - x @ h), atol=1e-15)


# -- generator action ----------------------------------------------------------------


def test_terms_match_the_gkls_formula(rng):
    """L[x] and L_p[x] from the triplets against the GKLS formula."""
    complex_jumps = build_modified_local(y_coupled_pair())
    for gen in (default_two_qubit(), build_naive_local(two_qubit_model(TwoQubitParams())), complex_jumps):
        for _ in range(5):
            x = rand_complex(rng, 4)
            via_matrix = unvec(gkls(gen) @ vectorize(x))
            assert np.allclose(via_matrix, gen.terms(x)[1], atol=1e-14)
        x = rand_complex(rng, 4)
        via_matrix = unvec(gkls(gen, partial=True) @ vectorize(x))
        assert np.allclose(via_matrix, gen.terms(x)[0], atol=1e-14)


# a 2-4 qubit chain with energies 1.0 or 1.5 and its temperatures, or a
# random network (conftest.networks), whose jump operators are complex
chains_or_networks = st.one_of(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([1.0, 1.5]), min_size=n, max_size=n),
            st.lists(st.floats(0.5, 2.5), min_size=n, max_size=n),
        )
    ),
    networks,
)


@pytest.mark.parametrize("build", [build_modified_local, build_naive_local])
@seed(20261021)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(model=chains_or_networks, draw_seed=st.integers(0, 2**32 - 1))
def test_triplets_are_the_gkls_generator(build, model, draw_seed):
    """On a random non-Hermitian x, the triplets' L_p[x] and L[x] are the
    GKLS formula's, L[x†] = L[x]†, and tr L[x] = tr L_p[x] = 0, each
    relative to ||L||_inf max|x_ij|, which bounds every entry of L[x]."""
    rng = np.random.default_rng(draw_seed)
    if isinstance(model, tuple):
        energies, temperatures = model
        spec = qubit_chain_model(len(energies), energies, temperatures)
    else:
        spec = random_network(model, rng)
    try:
        gen = build(spec)
    except DenseSpectrumError:
        assume(False)
    x = rand_complex(rng, spec.dimension)
    full, partial = gkls(gen), gkls(gen, partial=True)
    scale = inf_norm(full) * np.abs(x).max()
    got_partial, got = gen.terms(x)
    assert np.abs(got - unvec(full @ vectorize(x))).max() <= 1e-13 * scale
    assert np.abs(got_partial - unvec(partial @ vectorize(x))).max() <= 1e-13 * scale
    assert np.abs(gen.terms(x.conj().T)[1] - got.conj().T).max() <= 1e-14 * scale
    assert abs(np.trace(got)) <= 1e-14 * scale
    assert abs(np.trace(got_partial)) <= 1e-14 * scale


def test_generator_annihilates_trace():
    gen = default_two_qubit()
    # the trace functional is a left null vector of L and L_p: the image of
    # every matrix unit E_ij has trace zero
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    for image in gen.terms(units):
        assert np.abs(np.trace(image, axis1=1, axis2=2)).max() <= 1e-14


def test_generator_preserves_hermiticity(rng):
    gen = default_two_qubit()
    x = rand_complex(rng, 4)
    assert np.allclose(gen.terms(x.conj().T)[1], gen.terms(x)[1].conj().T, atol=1e-14)


def test_full_minus_partial_is_interaction_commutator(rng):
    gen = default_two_qubit()
    x = rand_complex(rng, 4)
    h = gen.structure.h_interaction
    partial, full = gen.terms(x)
    diff = full - partial
    assert np.allclose(diff, -1j * (h @ x - x @ h), atol=1e-15)


def test_dissipator_acts_locally(rng):
    gen = default_two_qubit()
    single = build_modified_local(
        SystemSpec(
            subsystems=[Subsystem("q1", 0.5 * SIGMA_Z)],
            interactions=[],
            alpha=0.0,
            baths=[BathSpec.from_temperature("b1", 2.0, FLAT_UNIT, SIGMA_X)],
            beta_coupling=0.01,
        )
    )
    ra, rb = rand_density(rng, 2), rand_density(rng, 2)
    got = dissipator(gen, 0, kron(ra, rb))
    want = kron(dissipator(single, 0, ra), rb)
    assert np.allclose(got, want, atol=1e-16)
    assert abs(np.trace(got)) <= 1e-18


def test_partial_generator_fixes_product_gibbs():
    fixtures = [
        two_qubit_model(TwoQubitParams()),
        two_qubit_model(TwoQubitParams(e2=1.5)),
        qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5]),
        single_qubit_model(),
    ]
    for spec in fixtures:
        gen = build_modified_local(spec)
        tau = product_gibbs(spec)
        assert abs(np.trace(tau) - 1.0) < 1e-12
        assert np.abs(gen.terms(tau)[0]).max() <= 1e-9


def test_alpha_zero_makes_full_equal_partial(rng):
    spec = two_qubit_model(TwoQubitParams(alpha=0.0))
    gen = build_modified_local(spec)
    x = rand_density(rng, 4)
    partial, full = gen.terms(x)
    assert np.array_equal(full, partial)


def test_product_gibbs_single_qubit_population():
    tau = product_gibbs(single_qubit_model(energy=1.0, temperature=1.0))
    # excited (upper-energy) population of a two-level Gibbs state at beta E = 1
    assert tau[0, 0].real == pytest.approx(0.2689414213699951, abs=1e-14)
    assert tau[1, 1].real == pytest.approx(0.7310585786300049, abs=1e-14)
    assert abs(tau[0, 1]) == 0.0


def test_beta_coupling_scales_rates_quadratically():
    weak = build_modified_local(two_qubit_model(TwoQubitParams(beta_coupling=0.01)))
    strong = build_modified_local(two_qubit_model(TwoQubitParams(beta_coupling=0.02)))
    weak, strong = channel_rates(weak), channel_rates(strong)
    assert weak.keys() == strong.keys()
    for key, rate in weak.items():
        assert strong[key] == pytest.approx(4.0 * rate, rel=1e-14)


# -- Bohr blocks ----------------------------------------------------------------------

def y_coupled_pair():
    """A resonant pair whose first bath couples through sigma_y: complex jump operators."""
    spec = qubit_chain_model(2, [1.0, 1.0], [2.0, 1.0])
    baths = [BathSpec.from_temperature("b1", 2.0, FLAT_UNIT, SIGMA_Y), spec.baths[1]]
    return SystemSpec(spec.subsystems, spec.interactions, spec.alpha, baths, spec.beta_coupling)


CHAINS = [
    y_coupled_pair(),
    qubit_chain_model(2, [1.0, 1.5], [2.0, 1.0]),
    qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5]),
    qubit_chain_model(3, [1.0, 1.5, 1.0], [0.5, 2.0, 1.0]),
    qubit_chain_model(4, [1.5, 1.0, 1.0, 1.5], [1.0, 2.0, 0.7, 1.3]),
]


def in_eigenbasis(gen):
    """The GKLS formula's L conjugated into the H_s eigenbasis."""
    u = gen.eig.eigenvectors
    w = np.kron(u.T, u.conj().T)  # vec(U† X U) = (U^T kron U†) vec(X)
    return w @ gkls(gen) @ w.conj().T


def test_modified_generator_is_block_diagonal_in_the_eigenbasis():
    for spec in CHAINS:
        mod, naive = build_modified_local(spec), build_naive_local(spec)
        # the Bohr frequency of E_i - E_j at i + d j
        freq = mod.structure.levels.frequency_labels.ravel()
        between = freq[:, None] != freq[None, :]

        l_mod = in_eigenbasis(mod)
        assert np.abs(l_mod[between]).max() == 0.0
        assert np.abs(in_eigenbasis(naive)[between]).max() >= 0.5 * spec.alpha

        # each assembled block lies inside one Bohr block and is the matching
        # piece of the dense matrix
        view = mod.structure.blocks
        for idx, m, real in zip(view.indices, row_blocks(mod), view.real):
            assert np.unique(freq[idx]).size == 1
            assert_block_matches(m, real, l_mod[np.ix_(idx, idx)], spec.dimension, idx, np.abs(l_mod).max())
        populations = np.arange(spec.dimension) * (spec.dimension + 1)
        assert set(populations) <= set(view.indices[view.zero].tolist())


def inf_norm(m):
    return float(np.abs(m).sum(axis=1).max())


def test_stability_norm_is_dense_inf_norm():
    for spec in CHAINS:
        for gen in (build_modified_local(spec), build_naive_local(spec)):
            assert gen.stability_norm() == pytest.approx(inf_norm(gkls(gen)), rel=1e-15)


def test_stability_norm_is_the_row_sum_not_the_column_sum():
    """A pair with random Hermitian Hamiltonians, interaction and bath
    operators, whose largest absolute row and column sums of L differ (on
    qubit chains they agree): the RK4 guard reads the row sum."""
    rng = np.random.default_rng(1)
    flat = SpectralModel("flat", 0.5)
    spec = SystemSpec(
        subsystems=[Subsystem(q, rand_hermitian(rng, 2)) for q in ("q1", "q2")],
        interactions=[rand_hermitian(rng, 4)],
        alpha=0.05,
        baths=[
            BathSpec.from_temperature("b1", 1.0, flat, rand_hermitian(rng, 2)),
            BathSpec.from_temperature("b2", 0.5, flat, rand_hermitian(rng, 2)),
        ],
        beta_coupling=0.3,
    )
    for gen in (build_modified_local(spec), build_naive_local(spec)):
        dense = np.abs(gkls(gen))
        rows, cols = dense.sum(axis=1).max(), dense.sum(axis=0).max()
        assert abs(rows - cols) > 0.005 * rows
        assert gen.stability_norm() == pytest.approx(rows, rel=1e-15, abs=0.0)


def test_min_rate_and_norm():
    gen = default_two_qubit()
    n2 = 1.0 / math.expm1(1.0)
    assert min(channel_rates(gen).values()) == pytest.approx(1e-4 * n2, rel=1e-14)
    assert gen.stability_norm() > 0.0


def test_memory_guard_refuses_an_eight_site_naive_chain(monkeypatch):
    """The estimate from the component sizes stops the allocation; the
    physical memory is fixed so the outcome does not depend on the machine."""
    assert liouvillian.PHYSICAL_MEMORY > 0
    monkeypatch.setattr(liouvillian, "PHYSICAL_MEMORY", 8 * 2**30)
    gen = build_naive_local(qubit_chain_model(8, [1.0] * 8, [1.0] * 8))
    tracemalloc.start()
    try:
        # two real parity halves of 32768 rows, with their RK4 step and stride copies
        with pytest.raises(LindlocError, match=r"2 generator blocks .* would need 51.5 GB"):
            gen.structure.blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**28


def test_memory_guard_refuses_twenty_explicit_subsystems(monkeypatch):
    """A product space of 2**20 levels is refused before its first d x d
    operator: H_s, its eigenvectors, the interaction, the frequency labels,
    three temporaries and 40 possible channels, of 17.6 TB each."""
    monkeypatch.setattr(liouvillian, "PHYSICAL_MEMORY", 8 * 2**30)
    spec = SystemSpec([q(f"q{k}") for k in range(20)], [], 0.0, [b(f"b{k}") for k in range(20)], 0.01)
    tracemalloc.start()
    try:
        with pytest.raises(
            LindlocError,
            match=r"^a generator build of dimension 1048576 would need 8\.27e\+05 GB, "
            r"more than the 8\.59 GB of physical memory$",
        ):
            build_modified_local(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- scaled rates -----------------------------------------------------------------------

# parameters whose scaled rates are finite, a change of rates alone that
# makes bath b1's not, and how: beta_coupling**2 overflows, 2 pi h2 is inf,
# and n is inf where beta * omega underflows to 0
NON_FINITE_RATES = [
    (TwoQubitParams(e1=1e160, e2=1e160), {"beta_coupling": 1e155}, "overflows"),
    (
        TwoQubitParams(),
        {"spectral": SpectralModel("flat", 1e308)},
        r"at omega = -1\.0 is inf, not a finite number",
    ),
    (
        TwoQubitParams(e1=1e-30, e2=1e-30, alpha=0.0, beta_coupling=1e-40, t1=1.0, t2=1.0),
        {"t1": 1e300},
        r"at omega = -1e-30 is inf, not a finite number",
    ),
]


@pytest.mark.parametrize("params, change, message", NON_FINITE_RATES)
def test_non_finite_scaled_rates_are_refused(params, change, message):
    """A new build and one that would reuse a structure refuse the rate,
    naming the bath, before a non-finite value reaches numpy."""
    bad = two_qubit_model(replace(params, **change))
    pattern = rf"^bath 'b1': scaled rate beta_coupling\*\*2 \* gamma\(omega\) {message}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        previous = build_modified_local(two_qubit_model(params))
        for build in (build_modified_local, build_naive_local):
            for lender in (None, previous):
                with pytest.raises(LindlocError, match=pattern):
                    build(bad, lender)


def test_each_scaled_rate_is_evaluated_once_per_build():
    """A new build and one that reuses its structure each evaluate the rate
    of every Bohr component once: two per qubit's sigma_x."""
    base = qubit_chain_model(3, [1.0] * 3, [2.0, 1.0, 0.5])
    with mock.patch.object(liouvillian, "rate", wraps=liouvillian.rate) as counted:
        previous = build_modified_local(base)
        assert counted.call_count == 6
        spec = qubit_chain_model(3, [1.0] * 3, [1.5, 1.0, 0.5])
        assert build_modified_local(spec, previous).structure is previous.structure
        assert counted.call_count == 12


# -- reused structure -------------------------------------------------------------------


def explicit_pair(temperatures, beta_coupling, spectral):
    """A pair whose H_s is not diagonal in the product basis, with a complex
    bath operator on the first qubit."""
    xy = np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Y, SIGMA_X)
    coupled = np.kron(SIGMA_Z, SIGMA_Z) + 0.3 * xy
    coupling = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
    return SystemSpec(
        subsystems=[
            Subsystem("q1", 0.5 * SIGMA_X + 0.2 * SIGMA_Y),
            Subsystem("q2", 0.5 * SIGMA_X),
        ],
        interactions=[coupled],
        alpha=0.01,
        baths=[
            BathSpec.from_temperature("b1", temperatures[0], spectral, coupling),
            BathSpec.from_temperature("b2", temperatures[1], spectral, SIGMA_Z),
        ],
        beta_coupling=beta_coupling,
    )


def rate_point(energies):
    """The model of a sweep point: a qubit chain with these energies, or the
    explicit pair when energies is None, at the drawn rates."""
    return st.builds(
        lambda temperatures, beta_coupling, scale: (
            explicit_pair(temperatures, beta_coupling, SpectralModel("flat", scale))
            if energies is None
            else qubit_chain_model(
                len(energies),
                energies,
                temperatures[: len(energies)],
                beta_coupling=beta_coupling,
                spectral=SpectralModel("flat", scale),
            )
        ),
        st.lists(st.floats(0.3, 3.0), min_size=4, max_size=4),
        st.floats(0.002, 0.02),
        st.floats(0.05, 0.5),
    )


# the energies of a chain of 2-4 qubits, 1.0 or 1.5 each, or the explicit pair (None)
energy_lists = st.sampled_from([2, 3, 4, None]).flatmap(
    lambda n: st.none()
    if n is None
    else st.lists(st.sampled_from([1.0, 1.5]), min_size=n, max_size=n)
)
models = energy_lists.flatmap(lambda e: st.tuples(rate_point(e), rate_point(e)))


@pytest.mark.parametrize("build", [build_modified_local, build_naive_local])
@seed(20261019)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(points=models)
def test_reused_structure_is_exact(build, points):
    """A point that changes only temperatures, beta_coupling and the coupling
    scale reuses the previous generator's structure, and is bit for bit the
    generator a fresh build gives."""
    before, after = points
    previous = build(before)
    steady_state(previous)  # builds the layout the next point then fills
    reused, fresh = build(after, previous), build(after)
    assert reused.structure is previous.structure
    assert fresh.structure is not previous.structure
    for a, b in zip(reused.structure.blocks.indices, fresh.structure.blocks.indices, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(row_blocks(reused), row_blocks(fresh), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert channel_rates(reused) == channel_rates(fresh)
    for bath_a, bath_b in zip(reused.structure.jumps, fresh.structure.jumps, strict=True):
        for (omega_a, a), (omega_b, b) in zip(bath_a, bath_b, strict=True):
            assert omega_a == omega_b and np.array_equal(a, b)
    assert np.array_equal(reused.rate_operators, fresh.rate_operators)
    assert np.array_equal(reused.log_product_gibbs, fresh.log_product_gibbs)
    assert np.array_equal(steady_state(reused).rho_ss, steady_state(fresh).rho_ss)


# 2-12 rate points of one such model
sweeps = energy_lists.flatmap(lambda e: st.lists(rate_point(e), min_size=2, max_size=12))


@pytest.mark.parametrize("build", [build_modified_local, build_naive_local])
@seed(20261020)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(points=sweeps, size=st.integers(1, 3))
def test_stacked_points_match_point_by_point(build, points, size):
    """Sweep points solved and audited as stacks, in the runs of at most
    `size` generators that linalg.runs gives with STACK_BYTES made small,
    are bit for bit what steady_state and audit give each point alone."""
    gens, previous = [], None
    for spec in points:
        previous = build(spec, previous)
        gens.append(previous)
    d = previous.dimension
    with mock.patch.object(linalg, "STACK_BYTES", size * 16 * d * d):
        runs = linalg.runs(len(gens), d)
    for run in runs:
        assert 1 <= len(gens[run]) <= size
        assert all(g.structure is gens[0].structure for g in gens[run])
        stack = Generator.stack(gens[run])
        results = steady_states(stack)
        reports = audit_states(stack, [r.rho_ss for r in results])
        for gen, result, report in zip(gens[run], results, reports, strict=True):
            alone = steady_state(gen)
            assert np.array_equal(result.rho_ss, alone.rho_ss)
            assert result.residual == alone.residual and result.null_dim == alone.null_dim
            assert report == audit(gen, alone.rho_ss)


def test_single_generator_entry_points_refuse_a_stack():
    """evolve, steady_state, audit and audit_trajectory take a generator of
    one row; a stack of two is refused, not solved or audited as its row 0."""
    gen = default_two_qubit()
    stack = Generator.stack([gen, gen])
    assert len(stack) == 2
    rho = np.eye(4, dtype=complex) / 4
    cfg = SolverConfig(dt=0.02, t_max=0.1)
    traj = evolve(gen, rho, cfg)
    calls = {
        "evolve": lambda: evolve(stack, rho, cfg),
        "steady_state": lambda: steady_state(stack),
        "audit": lambda: audit(stack, rho),
        "audit_trajectory": lambda: audit_trajectory(stack, traj),
    }
    for name, call in calls.items():
        with pytest.raises(DimensionMismatchError, match=f"^{name} takes one generator"):
            call()


def test_a_used_generator_is_freed_by_reference_counting():
    """What a generator caches as it is solved and audited (its values, block
    matrices and BlockView) keeps no reference back to it, so a built, solved
    and audited generator goes when its last reference does, not at the
    cycle collector's next pass: a sweep or a benchmark loop builds
    thousands."""
    gen = build_modified_local(qubit_chain_model(3, [1.0, 1.5, 1.0], [2.0, 1.0, 0.5]))
    audit(gen, steady_state(gen).rho_ss)
    freed = weakref.ref(gen)
    gc.disable()
    try:
        del gen
        assert freed() is None
    finally:
        gc.enable()


def test_structure_is_rebuilt_when_more_than_rates_change():
    """Any change beyond the rates, or in which channels have a nonzero rate,
    builds a new structure; a structure made by hand is never reused."""
    base = qubit_chain_model(3, [1.0] * 3, [2.0, 1.0, 0.5])
    previous = build_modified_local(base)
    assert build_modified_local(base, previous).structure is previous.structure
    assert build_naive_local(base, previous).structure is not previous.structure
    changed = [
        qubit_chain_model(3, [1.0, 1.2, 1.0], [2.0, 1.0, 0.5]),
        qubit_chain_model(3, [1.0] * 3, [2.0, 1.0, 0.5], alpha=0.02),
        qubit_chain_model(3, [1.0] * 3, [2.0, 1.0, 0.5], grouping_tol=1e-8),
        qubit_chain_model(3, [1.0] * 3, [0.001, 1.0, 0.5]),  # absorption underflows to 0
        qubit_chain_model(3, [1.0] * 3, [2.0, 1.0, 0.5], beta_coupling=0.0),
        qubit_chain_model(3, [1.0] * 3, [2.0, 1.0, 0.5], spectral=SpectralModel("flat", 0.0)),
    ]
    for spec in changed:
        assert build_modified_local(spec, previous).structure is not previous.structure
    s = previous.structure
    hand_made = Structure("modified", s.h_free, s.h_interaction, s.levels, s.jumps)
    hand_built = Generator(hand_made, base, previous.rates, previous.betas)
    assert build_modified_local(base, hand_built).structure is not hand_made


# -- spectrum guardrails --------------------------------------------------------------


def test_near_resonant_detuning_is_rejected():
    with pytest.raises(DenseSpectrumError, match="too dense"):
        build_modified_local(two_qubit_model(TwoQubitParams(e2=1.005)))


def test_thin_margin_logs_warning(caplog):
    spec = two_qubit_model(TwoQubitParams(alpha=0.3, beta_coupling=0.3))
    with caplog.at_level(logging.WARNING, logger="lindloc"):
        gen = build_modified_local(spec)
    assert gen.diagnostics.status == "WARN"
    assert any("margin" in rec.message for rec in caplog.records)


def test_comfortable_margin_passes_quietly():
    gen = default_two_qubit()
    assert gen.diagnostics.status == "PASS"


# -- spec validation --------------------------------------------------------------------


def q(label="q1", energy=1.0):
    return Subsystem(label, 0.5 * energy * SIGMA_Z)


def b(label="b1", temperature=1.0, op=SIGMA_X):
    return BathSpec.from_temperature(label, temperature, FLAT_UNIT, op)


def test_spec_validation_errors():
    with pytest.raises(DimensionMismatchError, match="at least one"):
        SystemSpec([], [], 0.0, [], 0.01)
    with pytest.raises(DimensionMismatchError, match="one-to-one"):
        SystemSpec([q()], [], 0.0, [b(), b("b2")], 0.01)
    with pytest.raises(ValueError, match="alpha"):
        SystemSpec([q()], [], -1.0, [b()], 0.01)
    with pytest.raises(NonHermitianError):
        SystemSpec(
            [q(), q("q2")],
            [np.triu(np.ones((4, 4), dtype=complex), 1)],
            0.01,
            [b(), b("b2")],
            0.01,
        )
    with pytest.raises(DimensionMismatchError, match="interaction term 0"):
        SystemSpec([q(), q("q2")], [np.eye(2, dtype=complex)], 0.01, [b(), b("b2")], 0.01)
    with pytest.raises(DimensionMismatchError, match="coupling op"):
        SystemSpec([q()], [], 0.0, [b(op=np.eye(3, dtype=complex))], 0.01)
    with pytest.raises(ValueError, match="grouping_tol"):
        SystemSpec([q()], [], 0.0, [b()], 0.01, grouping_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            SystemSpec([q()], [], bad, [b()], 0.01)
        with pytest.raises(ValueError, match="beta_coupling must be finite"):
            SystemSpec([q()], [], 0.0, [b()], bad)
        with pytest.raises(ValueError, match="grouping_tol must be finite"):
            SystemSpec([q()], [], 0.0, [b()], 0.01, grouping_tol=bad)


def test_subsystem_validation():
    with pytest.raises(DimensionMismatchError, match="Hamiltonian must be square"):
        Subsystem("q1", np.zeros((2, 3), dtype=complex))
    with pytest.raises(NonHermitianError):
        Subsystem("q1", np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_silent_bath_drops_channels():
    silent = SpectralModel(kind="flat", coupling_scale=0.0)
    spec = SystemSpec(
        subsystems=[q()],
        interactions=[],
        alpha=0.0,
        baths=[BathSpec.from_temperature("b1", 1.0, silent, SIGMA_X)],
        beta_coupling=0.01,
    )
    gen = build_modified_local(spec)
    assert gen.structure.jumps == [[]]
    assert channel_rates(gen) == {}


def test_stack_refuses_rows_of_another_structure():
    """Generator.stack joins rows that share one structure. An empty list, and
    a row whose structure is not row 0's (by identity, as lindloc sweep
    tests it), are refused rather than solved and audited under row 0's."""
    spec = two_qubit_model(TwoQubitParams())
    modified, naive = build_modified_local(spec), build_naive_local(spec)
    with pytest.raises(DimensionMismatchError, match="^Generator.stack takes at least one"):
        Generator.stack([])
    for rows, message in (
        ([modified, naive], r"row 1 \(naive\) does not share the structure of row 0 \(modified\)"),
        ([naive, naive, modified], r"row 2 \(modified\) does not share the structure of row 0"),
        ([modified, build_modified_local(spec)], r"row 1 \(modified\) does not share"),
        ([modified, build_modified_local(single_qubit_model())], r"row 1 \(modified\)"),
    ):
        with pytest.raises(DimensionMismatchError, match=message):
            Generator.stack(rows)
    assert len(Generator.stack([modified, Generator.stack([modified, modified])])) == 3


def test_audit_states_takes_one_state_per_row():
    """audit_states audits state t under row t; more or fewer states than
    rows are refused, not split unevenly or audited under the leading rows."""
    gen = default_two_qubit()
    stack = Generator.stack([gen, gen])
    rho = np.eye(4, dtype=complex) / 4
    assert audit_states(stack, [rho, rho]) == [audit(gen, rho)] * 2
    for states in ([rho], [rho] * 3, []):
        with pytest.raises(
            DimensionMismatchError, match=f"got {len(states)} states for 2 rows"
        ):
            audit_states(stack, states)
