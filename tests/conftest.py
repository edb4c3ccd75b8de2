import math

import numpy as np
import pytest

from lindloc import liouvillian


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rand_hermitian(rng, d, scale=1.0):
    g = rand_complex(rng, d)
    return scale * 0.5 * (g + g.conj().T)


def rand_density(rng, d):
    g = rand_complex(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def rand_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def rand_unitary(rng, d):
    q, r = np.linalg.qr(rand_complex(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_entries(gen):
    """The triplets that gen.block_matrices are filled from: L with one
    G = -i H_eff, in the blocks' basis."""
    basis, pattern = gen.structure.block_triplets()
    values = gen._source(gen._block_g(basis), pattern)[0, pattern.source]
    return pattern.rows, pattern.cols, values, pattern.parts


def channel_rates(gen):
    """Each channel's scaled rate by (bath, omega), read from the structure's
    jumps, in whose order gen.rates holds them, and the generator's row 0."""
    keys = [(b, omega) for b, jumps in enumerate(gen.structure.jumps) for omega, _ in jumps]
    return dict(zip(keys, gen.rates[0].tolist(), strict=True))


def dissipator(gen, bath, rho):
    """D_i[rho] of bath i alone, summed from the product-basis triplets of its
    part, BATH + i, of row 0 (column-stacked: entry (i, j) at i + d j)."""
    p = gen.structure.product
    keep = p.parts == liouvillian.BATH + bath
    flat = rho.flatten(order="F")
    out = np.zeros(flat.size, dtype=complex)
    np.add.at(out, p.rows[keep], gen.product_values[0][keep] * flat[p.cols[keep]])
    return out.reshape(rho.shape, order="F")


def transpose_map(d):
    """tau: the column-stacked index i + d j of each entry (i, j) mapped to j + d i."""
    return np.array([j + d * i for j in range(d) for i in range(d)])


def hermitian_coordinates(idx, d):
    """The unitary V with V† M V the Hermitian-coordinate form of a block M on
    the column-stacked entries idx (closed under (a, b) -> (b, a)): column k
    is vec |a><a| for idx[k] = (a, a), vec (|a><b| + |b><a|)/sqrt2 for
    idx[k] = (a, b) with a > b, and vec i(|b><a| - |a><b|)/sqrt2 for
    idx[k] = (a, b) with a < b."""
    slot = {p: k for k, p in enumerate(idx)}
    v = np.zeros((len(idx), len(idx)), dtype=complex)
    for k, p in enumerate(idx):
        a, b = p % d, p // d
        t = slot[b + d * a]
        if a == b:
            v[k, k] = 1.0
        elif a > b:
            v[k, k] = v[t, k] = np.sqrt(0.5)
        else:
            v[t, k] = 1j * np.sqrt(0.5)
            v[k, k] = -1j * np.sqrt(0.5)
    return v


# a real block against the test-side V† M V, relative to the largest entry of
# the whole matrix: each coordinate entry adds at most four weighted entries
# of M, and the triplets summed into one entry are about as large as the
# Bohr frequencies, whose differences can cancel to far less within a block
REAL_BLOCK_ULPS = 4 * np.finfo(float).eps


def assert_block_matches(m, real, piece, d, idx, scale):
    """A stored block against the matching piece of the dense matrix, whose
    largest entry is scale: a pair block to 1e-18, a real block against the
    piece in Hermitian coordinates, whose imaginary part must then be as small."""
    if real:
        assert m.dtype == np.float64
        v = hermitian_coordinates(idx, d)
        assert np.abs(m - v.conj().T @ piece @ v).max() <= REAL_BLOCK_ULPS * scale
    else:
        assert np.abs(m - piece).max() <= 1e-18


def row_blocks(gen):
    """Row 0's matrix of each block of gen.structure.blocks."""
    return tuple(m[0] for m in gen.block_matrices)


def assert_blocks_are_the_matrix(gen, dense):
    """Row 0's blocks are the matching pieces of the dense matrix (in the
    blocks' basis), which is zero between them; a pair block's partner, never
    stored, holds the conjugates at the transposed entries."""
    view = gen.structure.blocks
    d = math.isqrt(dense.shape[0])
    tau = transpose_map(d)
    label = np.full(d * d, -1)
    for k, (idx, real) in enumerate(zip(view.indices, view.real)):
        label[idx] = k
        if not real:
            label[tau[idx]] = len(view.indices) + k
    assert (label >= 0).all()  # every index or its tau-image is covered
    assert np.abs(dense[label[:, None] != label[None, :]]).max() == 0.0
    for idx, m, real in zip(view.indices, row_blocks(gen), view.real):
        assert_block_matches(m, real, dense[np.ix_(idx, idx)], d, idx, np.abs(dense).max())
        if not real:
            assert np.abs(dense[np.ix_(tau[idx], tau[idx])] - m.conj()).max() <= 1e-18


def resonant_pair_current(omega, alpha, beta_coupling, t1, t2, spectral):
    """The closed form of the resonant pair's steady heat current under the
    local master equation (Levy & Kosloff, EPL 107, 20004 (2014); Hofer et
    al., NJP 19, 123037 (2017)): with g = alpha the filtered exchange
    coupling, Gamma_i = gamma_i(omega) + gamma_i(-omega) and p_i =
    gamma_i(-omega) / Gamma_i,

        Qdot_1 = -Qdot_2 = omega 4 g^2 G1 G2 / ((G1 + G2)(4 g^2 + G1 G2)) (p_1 - p_2).

    The rates are the golden rule's 2 pi h^2 (n + 1) and 2 pi h^2 n, written
    out here. Returns Qdot_1, its prefactor and (Gamma_1, Gamma_2)."""
    if spectral.kind == "flat":
        h2 = spectral.coupling_scale
    else:
        h2 = spectral.coupling_scale * omega * math.exp(-omega / spectral.cutoff)
    gammas, populations = [], []
    for t in (t1, t2):
        n = 1.0 / math.expm1(omega / t)
        down = beta_coupling**2 * 2.0 * math.pi * h2 * (n + 1.0)
        up = beta_coupling**2 * 2.0 * math.pi * h2 * n
        gammas.append(down + up)
        populations.append(up / (down + up))
    (g1, g2), (p1, p2), g = gammas, populations, alpha
    prefactor = omega * 4.0 * g * g * g1 * g2 / ((g1 + g2) * (4.0 * g * g + g1 * g2))
    return prefactor * (p1 - p2), prefactor, (g1, g2)
