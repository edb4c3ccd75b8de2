import math

import numpy as np
import pytest

from lindloc.errors import DimensionMismatchError, NonHermitianError, PositivityError
from lindloc.linalg import (
    SIGMA_X,
    SIGMA_Z,
    embed,
    hermitian_eig,
    hermiticity_defect,
    kron,
)

from conftest import rand_density, rand_hermitian, rand_unitary, von_neumann_entropy


# -- kron ---------------------------------------------------------------------


def test_kron_2x2_block_oracle():
    # independent oracle: assemble the product block by block
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 5], [6, 7]], dtype=complex)
    expected = np.block([[a[0, 0] * b, a[0, 1] * b], [a[1, 0] * b, a[1, 1] * b]])
    assert np.array_equal(kron(a, b), expected)


def test_kron_dimension_and_associativity():
    # integer entries make associativity exact, no tolerance needed
    rng = np.random.default_rng(7)
    a = rng.integers(-3, 4, (2, 2)).astype(complex)
    b = rng.integers(-3, 4, (3, 3)).astype(complex)
    c = rng.integers(-3, 4, (2, 2)).astype(complex)
    assert kron(a, b).shape == (6, 6)
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    assert np.array_equal(kron(a, b, c), kron(a, kron(b, c)))


def test_embed_matches_explicit_kron():
    h = np.diag([1.0, -1.0]).astype(complex)
    dims = [2, 3, 2]
    expected = np.kron(np.kron(np.eye(2), np.eye(3)), h)
    assert np.array_equal(embed(h, 2, dims), expected)
    with pytest.raises(DimensionMismatchError):
        embed(h, 3, dims)
    with pytest.raises(DimensionMismatchError):
        embed(h, 1, dims)  # wrong factor dimension


def test_embed_is_identity_kron_at_every_index(rng):
    dims = [1, 2, 3, 2]
    for index, d in enumerate(dims):
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b, a = math.prod(dims[:index]), math.prod(dims[index + 1 :])
        assert np.array_equal(embed(op, index, dims), np.kron(np.eye(b), np.kron(op, np.eye(a))))


# -- hermitian_eig ------------------------------------------------------------


def test_eig_diagonal_matrix_sorted():
    es = hermitian_eig(np.diag([2.0, -1.0, 0.0]).astype(complex))
    assert np.array_equal(es.eigenvalues, [-1.0, 0.0, 2.0])


def test_eig_reconstruction_and_unitarity(rng):
    for d in (2, 3, 5, 8):
        h = rand_hermitian(rng, d)
        es = hermitian_eig(h)
        scale = np.abs(h).max()
        v = es.eigenvectors
        assert np.abs((v * es.eigenvalues) @ v.conj().T - h).max() <= 1e-10 * scale
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10
        assert np.all(np.diff(es.eigenvalues) >= 0)


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianError, match="asymmetry"):
        hermitian_eig(m)
    with pytest.raises(
        DimensionMismatchError, match=r"^eigensolver input must be square, got shape \(2, 3\)$"
    ):
        hermitian_eig(np.zeros((2, 3), dtype=complex))
    assert hermiticity_defect(m) == 1.0


# -- entropy -------------------------------------------------------------------


def test_entropy_frozen_value():
    # oracle: -sum p ln p evaluated termwise
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert expected == pytest.approx(0.5623351446188083, abs=1e-16)
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-14)


def test_entropy_pure_and_mixed_limits():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    d = 4
    assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(math.log(d), abs=1e-13)


def test_entropy_unitary_invariance(rng):
    for _ in range(10):
        rho = rand_density(rng, 4)
        u = rand_unitary(rng, 4)
        s0 = von_neumann_entropy(rho)
        s1 = von_neumann_entropy(u @ rho @ u.conj().T)
        assert s1 == pytest.approx(s0, abs=1e-11)


def test_entropy_validation():
    with pytest.raises(DimensionMismatchError):
        von_neumann_entropy(np.diag([0.5, 0.6]).astype(complex))
    with pytest.raises(PositivityError):
        von_neumann_entropy(np.diag([1.01, -0.01]).astype(complex))
    # eigenvalues inside the clip window are tolerated
    rho = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-8)


def test_pauli_constants():
    assert np.array_equal(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.array_equal(SIGMA_Z @ SIGMA_Z, np.eye(2))
