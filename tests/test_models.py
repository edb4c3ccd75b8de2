from unittest import mock

import numpy as np
import pytest

from lindloc import baths, liouvillian
from lindloc.baths import SpectralModel
from lindloc.dynamics import steady_state
from lindloc.errors import DimensionMismatchError, NonHermitianError
from lindloc.linalg import SIGMA_X, SIGMA_Z
from lindloc.liouvillian import build_modified_local
from lindloc.models import (
    MAX_CHAIN_LENGTH,
    TwoQubitParams,
    qubit_chain_model,
    single_qubit_model,
    two_qubit_model,
)
from lindloc.thermo import audit


def test_two_qubit_wiring():
    spec = two_qubit_model(TwoQubitParams())
    assert [s.label for s in spec.subsystems] == ["q1", "q2"]
    assert [b.label for b in spec.baths] == ["b1", "b2"]
    assert spec.dims == [2, 2]
    assert 1.0 / spec.baths[0].beta == pytest.approx(2.0)
    assert 1.0 / spec.baths[1].beta == pytest.approx(1.0)
    gen = build_modified_local(spec)
    assert gen.diagnostics.status == "PASS"


def test_two_qubit_param_validation():
    for bad in (
        dict(e1=0.0),
        dict(e2=-1.0),
        dict(t1=0.0),
        dict(t2=-2.0),
        dict(beta_coupling=0.0),
        dict(alpha=-0.01),
    ):
        with pytest.raises(ValueError):
            TwoQubitParams(**bad)


def test_chain_of_two_equals_pair_model():
    pair = two_qubit_model(TwoQubitParams())
    chain = qubit_chain_model(2, [1.0, 1.0], [2.0, 1.0])
    assert np.array_equal(pair.free_hamiltonian(), chain.free_hamiltonian())
    assert np.array_equal(pair.interaction_sum(), chain.interaction_sum())
    assert [b.beta for b in pair.baths] == [b.beta for b in chain.baths]
    assert pair.alpha == chain.alpha
    assert pair.beta_coupling == chain.beta_coupling


def test_chain_length_limits():
    with pytest.raises(ValueError):
        qubit_chain_model(0, [], [])
    with pytest.raises(DimensionMismatchError, match="maximum"):
        n = MAX_CHAIN_LENGTH + 1
        qubit_chain_model(n, [1.0] * n, [1.0] * n)
    with pytest.raises(DimensionMismatchError, match="energies"):
        qubit_chain_model(3, [1.0, 1.0], [1.0, 1.0, 1.0])


def test_energies_must_be_positive():
    for energies in ([1.0, 0.0, 1.0], [-1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="must be strictly positive"):
            qubit_chain_model(3, energies, [1.0] * 3)


def test_chain_labels_and_interaction_count():
    spec = qubit_chain_model(4, [1.0] * 4, [1.0, 1.0, 1.0, 1.0])
    assert [s.label for s in spec.subsystems] == ["q1", "q2", "q3", "q4"]
    assert [b.label for b in spec.baths] == ["b1", "b2", "b3", "b4"]
    assert len(spec.interactions) == 3


def test_detuned_middle_qubit_blocks_transport():
    spec = qubit_chain_model(3, [1.0, 1.7, 1.0], [2.0, 1.0, 0.5])
    gen = build_modified_local(spec)
    # every neighbour pair is off resonance, so the filtered interaction dies
    assert np.abs(gen.structure.h_interaction).max() == 0.0
    rep = audit(gen, steady_state(gen).rho_ss)
    for q in rep.q_dot:
        assert abs(q) <= 1e-10


def test_swapping_temperatures_reverses_the_current():
    fwd = build_modified_local(two_qubit_model(TwoQubitParams(t1=2.0, t2=1.0)))
    rev = build_modified_local(two_qubit_model(TwoQubitParams(t1=1.0, t2=2.0)))
    q_fwd = audit(fwd, steady_state(fwd).rho_ss).q_dot
    q_rev = audit(rev, steady_state(rev).rho_ss).q_dot
    assert q_fwd[0] == pytest.approx(-q_rev[0], abs=1e-12)
    assert q_fwd[0] == pytest.approx(q_rev[1], abs=1e-12)


def test_single_qubit_model_shape():
    spec = single_qubit_model(energy=2.0, temperature=0.5)
    assert spec.alpha == 0.0
    assert spec.interactions == []
    assert spec.baths[0].beta == pytest.approx(2.0)
    with pytest.raises(ValueError):
        single_qubit_model(energy=0.0)


def test_custom_spectral_model_propagates():
    ohmic = SpectralModel(kind="ohmic", coupling_scale=0.2, cutoff=5.0)
    spec = two_qubit_model(TwoQubitParams(spectral=ohmic))
    assert all(b.spectral is ohmic for b in spec.baths)
    chain = qubit_chain_model(3, [1.0] * 3, [1.0] * 3, spectral=ohmic)
    assert all(b.spectral is ohmic for b in chain.baths)


def reference_chain(energies):
    """A chain's Hamiltonians and sigma_x sigma_x terms from Kronecker
    products of identities, built afresh."""
    n = len(energies)

    def site(op, k):
        return np.kron(np.kron(np.eye(2**k), op), np.eye(2 ** (n - k - 1)))

    hamiltonians = [0.5 * e * SIGMA_Z for e in energies]
    return hamiltonians, [site(SIGMA_X, k) @ site(SIGMA_X, k + 1) for k in range(n - 1)]


def test_chain_operators_match_a_fresh_reference():
    """Specs built in turn with other lengths and energies each get their own
    chain's operators, though the builders hand out shared ones."""
    cases = [[1.0, 1.5, 1.0], [2.0], [1.0, 1.0], [1.0, 1.5, 1.0, 0.5, 3.0], [1.5, 1.0, 1.0]]
    for energies in cases + cases[::-1]:
        spec = qubit_chain_model(len(energies), energies, [1.0] * len(energies))
        hamiltonians, interactions = reference_chain(energies)
        assert len(spec.interactions) == len(interactions)
        for sub, h in zip(spec.subsystems, hamiltonians):
            assert np.array_equal(sub.hamiltonian, h)
        for term, ref in zip(spec.interactions, interactions):
            assert np.array_equal(term, ref)


def test_chain_specs_share_read_only_operators():
    """Two specs of one chain hold the same operator objects in fresh lists,
    none of which can be written, and each spec runs every SystemSpec and
    BathSpec check: one Hermiticity check per interaction and per bath."""
    with (
        mock.patch.object(liouvillian, "require_hermitian") as terms,
        mock.patch.object(baths, "require_hermitian") as couplings,
    ):
        a = qubit_chain_model(3, [1.0, 1.5, 1.0], [2.0, 1.0, 0.5])
        b = qubit_chain_model(3, [1.0, 1.5, 1.0], [0.5, 1.0, 2.0])
    assert couplings.call_count == 6
    names = [call.kwargs["name"] for call in terms.call_args_list]
    assert names == ["interaction term 0", "interaction term 1"] * 2
    assert a.interactions is not b.interactions and a.subsystems is not b.subsystems

    def operators(spec):
        return [*spec.interactions, *(sub.hamiltonian for sub in spec.subsystems)]

    assert all(x is y for x, y in zip(operators(a), operators(b), strict=True))
    for op in operators(a):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 5.0
    # an energy not seen before is a new subsystem, checked as it is made
    with pytest.raises(NonHermitianError, match="non-finite"):
        qubit_chain_model(3, [1.0, float("nan"), 1.0], [1.0] * 3)
