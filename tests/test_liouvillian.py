import gc
import logging
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
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
    unvectorize,
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
    rand_complex,
    rand_density,
    rand_hermitian,
    row_blocks,
)

FLAT_UNIT = SpectralModel(kind="flat", coupling_scale=1.0 / (2.0 * math.pi))


def default_two_qubit():
    return build_modified_local(two_qubit_model(TwoQubitParams()))


# -- vectorization ---------------------------------------------------------------


def test_vectorize_column_stacking_order():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(vectorize(m), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvectorize(vectorize(m)), m)


def test_unvectorize_validation():
    with pytest.raises(DimensionMismatchError):
        unvectorize(np.zeros(5))
    with pytest.raises(DimensionMismatchError):
        unvectorize(np.zeros((2, 2)))


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
    assert np.abs(gen.h_interaction - expected).max() <= 1e-15


def test_detuned_interaction_filters_to_zero():
    gen = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    assert np.abs(gen.h_interaction).max() == 0.0
    decoupled = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5, alpha=0.0)))
    assert np.array_equal(gen.superop, decoupled.superop)


def test_naive_keeps_full_interaction():
    gen = build_naive_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    assert np.array_equal(gen.h_interaction, 0.01 * kron(SIGMA_X, SIGMA_X))
    # dissipative parts agree between the two constructions
    mod = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
    x = rand_density(np.random.default_rng(3), 4)
    diff = gen.apply(x) - mod.apply(x)
    h = gen.h_interaction
    assert np.allclose(diff, -1j * (h @ x - x @ h), atol=1e-15)


# -- generator action ----------------------------------------------------------------


def test_superop_matches_direct_application(rng):
    complex_jumps = build_modified_local(y_coupled_pair())
    for gen in (default_two_qubit(), build_naive_local(two_qubit_model(TwoQubitParams())), complex_jumps):
        for _ in range(5):
            x = rand_complex(rng, 4)
            via_matrix = unvectorize(gen.superop @ vectorize(x))
            assert np.allclose(via_matrix, gen.apply(x), atol=1e-14)
        x = rand_complex(rng, 4)
        via_matrix = unvectorize(gen.partial_superop @ vectorize(x))
        assert np.allclose(via_matrix, gen.apply_partial(x), atol=1e-14)


def test_generator_annihilates_trace():
    gen = default_two_qubit()
    # the trace functional is a left null vector of the superoperator
    tr_row = vectorize(np.eye(4, dtype=complex)).conj()
    assert np.abs(tr_row @ gen.superop).max() <= 1e-14
    assert np.abs(tr_row @ gen.partial_superop).max() <= 1e-14


def test_generator_preserves_hermiticity(rng):
    gen = default_two_qubit()
    x = rand_complex(rng, 4)
    assert np.allclose(gen.apply(x.conj().T), gen.apply(x).conj().T, atol=1e-14)


def test_full_minus_partial_is_interaction_commutator(rng):
    gen = default_two_qubit()
    x = rand_complex(rng, 4)
    h = gen.h_interaction
    diff = gen.apply(x) - gen.apply_partial(x)
    assert np.allclose(diff, -1j * (h @ x - x @ h), atol=1e-15)


def test_dissipator_acts_locally(rng):
    gen = default_two_qubit()
    single = build_modified_local(
        SystemSpec(
            subsystems=[Subsystem("q1", 0.5 * SIGMA_Z, 2)],
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
        assert np.abs(gen.apply_partial(tau)).max() <= 1e-9


def test_alpha_zero_makes_full_equal_partial(rng):
    spec = two_qubit_model(TwoQubitParams(alpha=0.0))
    gen = build_modified_local(spec)
    x = rand_density(rng, 4)
    assert np.array_equal(gen.apply(x), gen.apply_partial(x))


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


def eigenbasis_superop(gen):
    """The dense superoperator conjugated into the H_s eigenbasis."""
    u = gen.eig.eigenvectors
    w = np.kron(u.T, u.conj().T)  # vec(U† X U) = (U^T kron U†) vec(X)
    return w @ gen.superop @ w.conj().T


def test_modified_generator_is_block_diagonal_in_the_eigenbasis():
    for spec in CHAINS:
        mod, naive = build_modified_local(spec), build_naive_local(spec)
        # the Bohr frequency of E_i - E_j at i + d j
        freq = mod.levels.frequency_labels.ravel()
        between = freq[:, None] != freq[None, :]

        l_mod = eigenbasis_superop(mod)
        assert np.abs(l_mod[between]).max() == 0.0
        assert np.abs(eigenbasis_superop(naive)[between]).max() >= 0.5 * spec.alpha

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
            assert gen.stability_norm() == pytest.approx(inf_norm(gen.superop), rel=1e-15)


def test_stability_norm_is_the_row_sum_not_the_column_sum():
    """A pair with random Hermitian Hamiltonians, interaction and bath
    operators, whose largest absolute row and column sums of L differ (on
    qubit chains they agree): the RK4 guard reads the row sum."""
    rng = np.random.default_rng(1)
    flat = SpectralModel("flat", 0.5)
    spec = SystemSpec(
        subsystems=[Subsystem(q, rand_hermitian(rng, 2), 2) for q in ("q1", "q2")],
        interactions=[rand_hermitian(rng, 4)],
        alpha=0.05,
        baths=[
            BathSpec.from_temperature("b1", 1.0, flat, rand_hermitian(rng, 2)),
            BathSpec.from_temperature("b2", 0.5, flat, rand_hermitian(rng, 2)),
        ],
        beta_coupling=0.3,
    )
    for gen in (build_modified_local(spec), build_naive_local(spec)):
        dense = np.abs(gen.superop)
        rows, cols = dense.sum(axis=1).max(), dense.sum(axis=0).max()
        assert abs(rows - cols) > 0.005 * rows
        assert gen.stability_norm() == pytest.approx(rows, rel=1e-15, abs=0.0)


def test_min_rate_and_norm():
    gen = default_two_qubit()
    n2 = 1.0 / math.expm1(1.0)
    assert min(channel_rates(gen).values()) == pytest.approx(1e-4 * n2, rel=1e-14)
    assert inf_norm(gen.superop) > 0.0


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
        with pytest.raises(LindlocError, match=r"65536 x 65536 superoperator would need 103 GB"):
            gen.superop
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**28


# -- reused structure -------------------------------------------------------------------


def explicit_pair(temperatures, beta_coupling, spectral):
    """A pair whose H_s is not diagonal in the product basis, with a complex
    bath operator on the first qubit."""
    xy = np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Y, SIGMA_X)
    coupled = np.kron(SIGMA_Z, SIGMA_Z) + 0.3 * xy
    coupling = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
    return SystemSpec(
        subsystems=[
            Subsystem("q1", 0.5 * SIGMA_X + 0.2 * SIGMA_Y, 2),
            Subsystem("q2", 0.5 * SIGMA_X, 2),
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
    return Subsystem(label, 0.5 * energy * SIGMA_Z, 2)


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
    with pytest.raises(DimensionMismatchError):
        Subsystem("q1", 0.5 * SIGMA_Z, 3)
    with pytest.raises(NonHermitianError):
        Subsystem("q1", np.array([[0.0, 1.0], [0.0, 0.0]]), 2)


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
