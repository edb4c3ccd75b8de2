import re
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lindloc.errors import AmbiguousSpectrumError, DimensionMismatchError, LindlocError
from lindloc.linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z, hermitian_eig, kron
from lindloc.spectral import (
    decompose_operator,
    default_grouping_tol,
    group_levels,
    secular_filter,
    sparse_spectrum_diagnostics,
)

from conftest import component, rand_complex, rand_hermitian, rand_unitary


def levels_of(h, tol=1e-9):
    return group_levels(hermitian_eig(h), tol)


# -- level grouping -----------------------------------------------------------


def test_grouping_merges_degenerate_levels():
    eig = hermitian_eig(np.diag([0.0, 0.0, 1.0]).astype(complex))
    lv = group_levels(eig, 1e-9)
    assert lv.eig is eig
    assert (lv.count, lv.dim) == (2, 3)
    assert lv.energies.tolist() == [0.0, 1.0]
    # one level label per eigenvalue
    assert lv.labels.tolist() == [0, 0, 1]
    # entry (i, k) carries E_k - E_i, an index into the sorted frequencies
    assert lv.bohr_frequencies().tolist() == [-1.0, 0.0, 1.0]
    assert lv.frequency_labels.tolist() == [[1, 1, 2], [1, 1, 2], [0, 0, 1]]
    # the one clustering is cached and shared, so no caller may write to it
    assert not lv.bohr_frequencies().flags.writeable
    assert not lv.frequency_labels.flags.writeable


def test_grouping_near_degenerate_within_tol():
    lv = levels_of(np.diag([0.0, 1e-12, 1.0]).astype(complex), tol=1e-9)
    assert lv.count == 2


def test_grouping_rejects_smeared_cluster():
    # every consecutive gap is below tol but the chain spans more than 10 tol
    tol = 1e-3
    vals = np.arange(13) * (0.9 * tol)
    assert vals[-1] > 10 * tol
    with pytest.raises(AmbiguousSpectrumError, match="grouping tolerance"):
        levels_of(np.diag(vals).astype(complex), tol=tol)


@pytest.mark.parametrize(
    "values, message",
    [
        # a cluster's mean, and the gap between -1e308 and 1e308, overflow
        ([1e308, 1e308, 0.0], "H_s levels are not finite: grouping eigenvalues between 0 and 1e+308"),
        ([-1e308, 1e308], "H_s levels are not finite: grouping eigenvalues between -1e+308 and 1e+308"),
        # finite levels whose difference 2e308 overflows
        (
            [-1e308, 0.0, 1e308],
            "Bohr frequencies are not finite: grouping the differences of levels "
            "between -1e+308 and 1e+308",
        ),
    ],
)
def test_overflowing_levels_are_refused(values, message):
    """Levels or Bohr frequencies that overflow stop with one LindlocError
    naming them, before numpy warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LindlocError, match=f"^{re.escape(message)} overflows$"):
            levels_of(np.diag(values).astype(complex), tol=1.0).bohr_frequencies()


def test_grouping_tol_must_be_positive():
    with pytest.raises(ValueError):
        levels_of(np.diag([0.0, 1.0]).astype(complex), tol=0.0)


def test_default_grouping_tol_scales():
    assert default_grouping_tol(np.array([2.0, -4.0])) == pytest.approx(4e-9)
    assert default_grouping_tol(np.array([0.0, 0.0])) == 1e-15


def test_bohr_frequencies_resonant_pair():
    h = 0.5 * kron(SIGMA_Z, np.eye(2)) + 0.5 * kron(np.eye(2), SIGMA_Z)
    freqs = levels_of(h).bohr_frequencies()
    assert np.allclose(freqs, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=1e-12)


# -- operator decomposition ----------------------------------------------------


def test_sigma_x_splits_into_ladder_operators():
    lv = levels_of(0.5 * SIGMA_Z)
    terms = decompose_operator(SIGMA_X, lv)
    assert len(terms) == 2
    assert np.allclose([w for w, _ in terms], [-1.0, 1.0])
    # lowering the energy by 1 means raising in this basis ordering
    assert np.array_equal(component(terms, -1.0, 1e-9, SIGMA_X), SIGMA_PLUS)
    assert np.array_equal(component(terms, 1.0, 1e-9, SIGMA_X), SIGMA_MINUS)
    assert np.array_equal(component(terms, 3.0, 1e-9, SIGMA_X), np.zeros((2, 2)))


def test_decomposition_completeness_and_conjugation(rng):
    for d in range(2, 10):
        h = rand_hermitian(rng, d)
        lv = levels_of(h)
        a = rand_hermitian(rng, d)
        terms = decompose_operator(a, lv)
        scale = np.abs(a).max()
        assert np.abs(sum(op for _, op in terms) - a).max() <= 1e-10 * scale
        assert np.all(np.diff([w for w, _ in terms]) > 0)
        for w, op in terms:
            partner = component(terms, -w, 1e-7, a)
            assert np.abs(op.conj().T - partner).max() <= 1e-10 * scale


def test_decomposition_of_commuting_operator_is_single_term(rng):
    h = rand_hermitian(rng, 4)
    terms = decompose_operator(h @ h, levels_of(h))
    assert len(terms) == 1
    assert terms[0][0] == pytest.approx(0.0, abs=1e-12)


def test_decomposition_dimension_check():
    lv = levels_of(0.5 * SIGMA_Z)
    with pytest.raises(DimensionMismatchError):
        decompose_operator(np.eye(3, dtype=complex), lv)


# -- secular filter -------------------------------------------------------------


def test_filter_resonant_exchange_survives():
    h = 0.5 * kron(SIGMA_Z, np.eye(2)) + 0.5 * kron(np.eye(2), SIGMA_Z)
    filtered = secular_filter(kron(SIGMA_X, SIGMA_X), levels_of(h))
    expected = kron(SIGMA_PLUS, SIGMA_MINUS) + kron(SIGMA_MINUS, SIGMA_PLUS)
    assert np.abs(filtered - expected).max() <= 1e-15


def test_filter_detuned_coupling_vanishes():
    h = 0.5 * kron(SIGMA_Z, np.eye(2)) + 0.75 * kron(np.eye(2), SIGMA_Z)
    filtered = secular_filter(kron(SIGMA_X, SIGMA_X), levels_of(h))
    assert np.abs(filtered).max() <= 1e-15


def test_filter_output_commutes_with_hamiltonian(rng):
    for d in (3, 4, 6):
        h = rand_hermitian(rng, d)
        g = rand_hermitian(rng, d)
        lv = levels_of(h)
        f = secular_filter(g, lv)
        assert np.abs(f - f.conj().T).max() < 1e-12
        assert np.abs(h @ f - f @ h).max() < 1e-10
        # already-commuting input passes through unchanged
        c = h @ h
        assert np.abs(secular_filter(c, lv) - c).max() <= 1e-12 * np.abs(c).max()


def test_filter_rejects_non_hermitian(rng):
    lv = levels_of(0.5 * SIGMA_Z)
    with pytest.raises(Exception, match="Hermitian"):
        secular_filter(rand_complex(rng, 2), lv)


def test_filter_equals_zero_frequency_component(rng):
    h = rand_hermitian(rng, 5)
    g = rand_hermitian(rng, 5)
    lv = levels_of(h)
    terms = decompose_operator(g, lv)
    assert np.allclose(secular_filter(g, lv), component(terms, 0.0, 1e-8, g), atol=1e-12)


@seed(20261019)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    multiplicity=st.dictionaries(st.integers(0, 6), st.integers(1, 3), min_size=1, max_size=4),
    unit=st.floats(0.5, 2.0),
    draw=st.integers(0, 2**32 - 1),
)
def test_near_degenerate_levels_decompose_by_one_clustering(multiplicity, unit, draw):
    """Levels on a coarse grid, each eigenvalue jittered by up to 0.4 tol, in
    a random eigenbasis: the clusters are the drawn levels, and the
    components are the Bohr components of the grouped Hamiltonian."""
    rng = np.random.default_rng(draw)
    tol = 1e-12 * unit
    grid = sorted(multiplicity)
    counts = [multiplicity[k] for k in grid]
    w = np.repeat(unit * np.array(grid, dtype=float), counts)
    w = w + rng.uniform(-0.4, 0.4, w.size) * tol
    u = rand_unitary(rng, w.size)
    lv = levels_of((u * w) @ u.conj().T, tol)

    assert lv.labels.tolist() == np.repeat(np.arange(len(grid)), counts).tolist()
    assert np.abs(lv.energies - unit * np.array(grid)).max() <= 0.4 * tol + 1e-14 * unit

    a = rand_hermitian(rng, w.size)
    terms = decompose_operator(a, lv)
    v = lv.eig.eigenvectors
    h_bar = (v * lv.energies[lv.labels]) @ v.conj().T
    scale = np.abs(a).max() * max(1.0, np.abs(lv.energies).max())
    assert np.abs(sum(op for _, op in terms) - a).max() <= 1e-10 * scale
    for omega, op in terms:
        # two clusters of one grid frequency lie more than tol apart
        partner = component(terms, -omega, 0.5 * tol, a)
        assert np.abs(op.conj().T - partner).max() <= 1e-10 * scale
        assert np.abs(h_bar @ op - op @ h_bar + omega * op).max() <= 1e-10 * scale
    zero = component(terms, 0.0, 0.5 * tol, a)
    assert np.abs(secular_filter(a, lv) - zero).max() <= 1e-12 * np.abs(a).max()


# -- spectrum diagnostics --------------------------------------------------------


def resonant_levels():
    h = 0.5 * kron(SIGMA_Z, np.eye(2)) + 0.5 * kron(np.eye(2), SIGMA_Z)
    return levels_of(h)


def test_diagnostics_pass_warn_fail_bands():
    lv = resonant_levels()
    ok = sparse_spectrum_diagnostics(lv, 0.01)
    assert ok.status == "PASS"
    assert ok.min_nonzero_frequency == pytest.approx(1.0, abs=1e-12)
    assert ok.min_frequency_spacing == pytest.approx(1.0, abs=1e-12)
    assert ok.frequency_ratio == pytest.approx(100.0, rel=1e-9)

    assert sparse_spectrum_diagnostics(lv, 0.3).status == "WARN"
    assert sparse_spectrum_diagnostics(lv, 2.0).status == "FAIL"


def test_diagnostics_catch_near_resonant_detuning():
    # energy splittings 1 and 1.005 leave a Bohr gap of 0.005, far below the coupling
    h = 0.5 * kron(SIGMA_Z, np.eye(2)) + 0.5025 * kron(np.eye(2), SIGMA_Z)
    diag = sparse_spectrum_diagnostics(levels_of(h), 0.01)
    assert diag.status == "FAIL"
    assert diag.min_nonzero_frequency == pytest.approx(0.005, rel=1e-9)


def test_diagnostics_trivial_spectrum_passes():
    lv = levels_of(np.zeros((2, 2), dtype=complex))
    diag = sparse_spectrum_diagnostics(lv, 1.0)
    assert diag.status == "PASS"
    assert diag.min_nonzero_frequency == float("inf")


def test_diagnostics_requires_positive_coupling():
    with pytest.raises(ValueError):
        sparse_spectrum_diagnostics(resonant_levels(), 0.0)
