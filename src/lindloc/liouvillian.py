"""Construction of local GKLS generators for bath-coupled subsystem networks.

The modified local generator acts as

    d rho / dt = -i [H_s + alpha * F(H_int), rho] + beta^2 * sum_i D_i[rho]

where H_s is the sum of embedded subsystem Hamiltonians, F is the secular
filter keeping only the part of the interaction that commutes with H_s, and
each D_i is a GKLS dissipator whose jump operators are the Bohr components of
bath i's coupling operator in its own subsystem eigenbasis, embedded into the
product space. The naive variant keeps the full interaction in the
commutator; its dissipators are identical.

L is written down once, as (row, col, value) triplets (Generator._entries):
its action, adjoint, dense form and norm are read from them, and the blocks
are the connected components of their pattern. The modified generator is
covariant under the free evolution, so in the H_s eigenbasis each component
lies inside one Bohr block (E_k - E_l = E_i - E_j); the naive generator of a
qubit chain conserves parity and splits into two halves in the product basis.
Both preserve Hermiticity, L[rho†] = L[rho]†, so the transpose of matrix
entries carries the components onto each other in conjugate pairs (the Bohr
blocks +omega and -omega): one block per pair is stored, and a component that
is its own partner is stored as a real matrix in Hermitian coordinates.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property
from math import inf, isqrt, prod
from typing import NamedTuple

import numpy as np

from .baths import BathSpec, rate
from .errors import DenseSpectrumError, DimensionMismatchError, LindlocError
from .linalg import (
    HermitianEigenSystem,
    embed,
    hermitian_eig,
    kron,
    require_hermitian,
    require_square,
)
from .spectral import (
    EnergyLevels,
    decompose_operator,
    default_grouping_tol,
    group_levels,
    secular_filter,
    sparse_spectrum_diagnostics,
    SpectrumDiagnostics,
)

log = logging.getLogger("lindloc")


@dataclass(frozen=True)
class Subsystem:
    label: str
    hamiltonian: np.ndarray
    dim: int

    def __post_init__(self):
        d = require_square(self.hamiltonian, f"subsystem {self.label!r} Hamiltonian")
        if d != self.dim:
            raise DimensionMismatchError(
                f"subsystem {self.label!r}: Hamiltonian is {d}x{d} but dim = {self.dim}"
            )
        require_hermitian(self.hamiltonian, name=f"subsystem {self.label!r} Hamiltonian")


@dataclass
class SystemSpec:
    """A network of subsystems, their couplings, and one bath per subsystem."""

    subsystems: list[Subsystem]
    interactions: list[np.ndarray]
    alpha: float
    baths: list[BathSpec]
    beta_coupling: float
    grouping_tol: float | None = None

    def __post_init__(self):
        if not self.subsystems:
            raise DimensionMismatchError("a system needs at least one subsystem")
        if not 0.0 <= self.alpha < inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not 0.0 <= self.beta_coupling < inf:
            raise ValueError(
                f"beta_coupling must be finite and >= 0, got {self.beta_coupling!r}"
            )
        if len(self.baths) != len(self.subsystems):
            raise DimensionMismatchError(
                f"{len(self.baths)} baths for {len(self.subsystems)} subsystems; "
                "baths pair one-to-one with subsystems"
            )
        full = self.dimension
        for k, h in enumerate(self.interactions):
            d = require_square(h, f"interaction term {k}")
            if d != full:
                raise DimensionMismatchError(
                    f"interaction term {k} has dimension {d}, full space has {full}"
                )
            require_hermitian(h, name=f"interaction term {k}")
        for sub, bath in zip(self.subsystems, self.baths):
            d = bath.coupling_op.shape[0]
            if d != sub.dim:
                raise DimensionMismatchError(
                    f"bath {bath.label!r} coupling op has dimension {d}, "
                    f"subsystem {sub.label!r} has {sub.dim}"
                )
        if self.grouping_tol is not None and not 0.0 < self.grouping_tol < inf:
            raise ValueError(
                f"grouping_tol must be finite and positive, got {self.grouping_tol!r}"
            )

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.subsystems]

    @property
    def dimension(self) -> int:
        return prod(self.dims)

    def free_hamiltonian(self) -> np.ndarray:
        """Sum of the embedded subsystem Hamiltonians."""
        dims = self.dims
        h = np.zeros((self.dimension, self.dimension), dtype=complex)
        for k, sub in enumerate(self.subsystems):
            h = h + embed(sub.hamiltonian, k, dims)
        return h

    def interaction_sum(self) -> np.ndarray:
        h = np.zeros((self.dimension, self.dimension), dtype=complex)
        for term in self.interactions:
            h = h + term
        return h


@dataclass(frozen=True)
class Channel:
    """One jump operator with its (beta^2-scaled) rate."""

    omega: float
    op: np.ndarray
    rate: float


def _dissipator_g(bath: list[Channel], like: np.ndarray) -> np.ndarray:
    """G = -K_i/2 of one bath's D_i, K_i = sum gamma A†A over its channels."""
    return sum((-0.5 * ch.rate * (ch.op.conj().T @ ch.op) for ch in bath), np.zeros_like(like))


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: [[a, b], [c, d]] -> (a, c, b, d)."""
    require_square(rho, "state")
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    d = isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatchError(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, work that cannot fit in physical memory."""
    if nbytes > PHYSICAL_MEMORY:
        raise LindlocError(
            f"{what} would need {nbytes / 1e9:.3g} GB, more than the "
            f"{PHYSICAL_MEMORY / 1e9:.3g} GB of physical memory"
        )


def _scatter(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Flat complex array of length size holding the sum of values at each key."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(keys, values.real, size)
    out.imag = np.bincount(keys, values.imag, size)
    return out


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component label of each of n nodes joined by edges (rows, cols), numbered
    by smallest node: roots hook onto the smaller root across each edge, and
    paths are compressed, until every edge joins nodes with one root."""
    root = np.arange(n)
    while True:
        a, b = root[rows], root[cols]
        if np.array_equal(a, b):
            return np.unique(root, return_inverse=True)[1]
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        while not np.array_equal(up := root[root], root):
            root = up


def _transpose(d: int) -> np.ndarray:
    """tau: the column-stacked index i + d j of each entry (i, j) mapped to j + d i."""
    return np.arange(d * d).reshape(d, d).ravel(order="F")


SQRT2 = np.sqrt(2.0)
SQRT_HALF = np.sqrt(0.5)
# Re(i^k v) for k quarter turns is an exact sign and swap of v's parts
QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])
# the product of two weights' magnitudes, by how many are off the diagonal
WEIGHT_PRODUCTS = np.array([1.0, SQRT_HALF, 0.5])


def _hermitian_triplets(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (row, col, value) triplets, in Hermitian coordinates (see BlockView),
    of the part of L on tau-closed blocks, from its complex triplets.

    Entry p feeds the coordinate at p with weight 1, 1/sqrt2 or -i/sqrt2
    (p = tau p, p < tau p, p > tau p) and, off the diagonal, the coordinate at
    tau p with weight i/sqrt2 (p < tau p) or 1/sqrt2 (p > tau p). A triplet
    (r, c, v) adds Re(conj(w_r) v w_c) to each of the at most four coordinate
    pairs it feeds; the imaginary parts cancel between r, c and tau r, tau c."""
    scale = WEIGHT_PRODUCTS[(rows != tau[rows]).astype(int) + (cols != tau[cols])]

    def feeds(p):  # (slot, quarter turns of the weight, whether it is fed)
        t = tau[p]
        return (p, 3 * (p > t), np.ones(p.size, dtype=bool)), (t, 1 * (p < t), p != t)

    out = []
    for r, turns_r, fed_r in feeds(rows):
        for c, turns_c, fed_c in feeds(cols):
            k = fed_r & fed_c
            phase = QUARTER_TURNS[(turns_c[k] - turns_r[k]) % 4]
            out.append((r[k], c[k], scale[k] * (phase * vals[k]).real))
    return tuple(np.concatenate(part) for part in zip(*out))


# the parts of L that the triplets are labelled with: -i[H_s, .], -i[V, .]
# and, for bath i, D_i at BATH + i
FREE, INTERACTION, BATH = 0, 1, 2


class _Layout(NamedTuple):
    """The column-stacked indices behind a BlockView's two vectors, and where
    each sits in them: the real blocks' diagonal slots, their slots (a, b)
    with a > b and the tau images (b, a) of those, and the pair entries with
    their tau images."""

    diag: np.ndarray
    diag_at: np.ndarray
    low: np.ndarray
    high: np.ndarray
    low_at: np.ndarray
    high_at: np.ndarray
    entries: np.ndarray
    images: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockView:
    """A Hermiticity-preserving generator written as a direct sum of blocks.

    Blocks act on the column-stacked entries of a matrix written in `basis`
    (the product basis when basis is None). L[rho†] = L[rho]†, so the
    transpose map tau: i + d j <-> j + d i carries each block onto a block,
    with conjugated entries. One block of each pair of distinct blocks is
    kept, the one with the lower smallest index, as a complex matrix on its
    entries indices[k] (ascending); its partner holds the conjugates at
    tau(indices[k]) and is not stored. A block that tau maps onto itself is
    kept as a real matrix on the Hermitian coordinates of its entries: at
    index p = (a, b), rho_p if a = b, sqrt2 Re rho_ab if a > b and
    sqrt2 Im rho_ba if a < b, the coefficients of |a><a|,
    (|a><b| + |b><a|)/sqrt2 and i(|a><b| - |b><a|)/sqrt2 (a > b). That change
    of basis is unitary, so a real block has the singular values of the
    complex one.

    A Hermitian state travels as two vectors: the real blocks' coordinates
    (float64) and the kept pair blocks' entries (complex), one block after
    another in each.
    """

    basis: np.ndarray | None
    dimension: int
    indices: tuple[np.ndarray, ...]
    matrices: tuple[np.ndarray, ...]

    @cached_property
    def real(self) -> tuple[bool, ...]:
        """Which blocks are self-conjugate, held in Hermitian coordinates."""
        return tuple(m.dtype == np.float64 for m in self.matrices)

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """Where each block sits in its vector, the real or the complex one."""
        out, end = [], {True: 0, False: 0}
        for real, idx in zip(self.real, self.indices):
            out.append(slice(end[real], end[real] + idx.size))
            end[real] += idx.size
        return tuple(out)

    @cached_property
    def zero(self) -> int:
        """The block holding entry (0, 0), and with a unique steady state every
        population: a second block with populations would have its own trace."""
        return next(k for k, idx in enumerate(self.indices) if idx[0] == 0)

    @cached_property
    def _layout(self) -> _Layout:
        d = self.dimension
        tau = _transpose(d)
        real = [idx for r, idx in zip(self.real, self.indices) if r]
        pair = [idx for r, idx in zip(self.real, self.indices) if not r]
        slots = np.concatenate(real)
        at = np.empty(d * d, dtype=np.intp)
        at[slots] = np.arange(slots.size)
        diag = slots[slots == tau[slots]]
        low = slots[slots < tau[slots]]
        entries = np.concatenate(pair) if pair else np.empty(0, dtype=np.intp)
        return _Layout(diag, at[diag], low, tau[low], at[low], at[tau[low]], entries, tau[entries])

    def zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """The real coordinates and the pair entries of the zero matrix."""
        s = self._layout
        return np.zeros(s.diag.size + 2 * s.low.size), np.zeros(s.entries.size, dtype=complex)

    def to_vector(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The real coordinates and the pair entries of rho's Hermitian part."""
        u = self.basis
        if u is not None:
            rho = u.conj().T @ rho @ u
        f = vectorize(0.5 * (rho + rho.conj().T))
        s = self._layout
        x, _ = self.zeros()
        x[s.diag_at] = f[s.diag].real
        x[s.low_at] = SQRT2 * f[s.low].real
        x[s.high_at] = SQRT2 * f[s.low].imag
        return x, f[s.entries]

    def to_state(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The Hermitian matrix of real coordinates x and pair entries z, or a
        stack of matrices for stacks of both."""
        d, s = self.dimension, self._layout
        full = np.empty((*x.shape[:-1], d * d), dtype=complex)
        full[..., s.diag] = x[..., s.diag_at]
        w = (x[..., s.low_at] + 1j * x[..., s.high_at]) * SQRT_HALF
        full[..., s.low] = w
        full[..., s.high] = w.conj()
        full[..., s.entries] = z
        full[..., s.images] = z.conj()
        # column stacking: entry (i, j) sits at i + d j
        rho = full.reshape(*x.shape[:-1], d, d).swapaxes(-1, -2)
        u = self.basis
        if u is None:
            return rho
        rho = u @ rho @ u.conj().T
        return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


class Generator:
    """A built local generator: Hamiltonian pieces plus per-bath jump channels.

    L's parts are one cached list of (part, G): -i H_s, -i V and bath i's
    -K_i/2. The blocks read L's triplets with their sum, G = -i H_eff, in the
    Bohr blocks of `levels` (H_s's eigensystem and frequencies); every other
    use reads one cached product-basis pass whose triplets carry their part.
    L_p, the partial generator fixing the product of local Gibbs states,
    leaves out V.
    """

    def __init__(
        self,
        spec: SystemSpec,
        kind: str,
        h_free: np.ndarray,
        h_interaction: np.ndarray,
        channels: list[list[Channel]],
        levels: EnergyLevels,
        diagnostics: SpectrumDiagnostics | None,
    ):
        self.spec = spec
        self.kind = kind
        self.h_free = h_free
        self.h_interaction = h_interaction  # already scaled by alpha
        self.channels = channels
        self.levels = levels
        self.diagnostics = diagnostics

    @property
    def eig(self) -> HermitianEigenSystem:
        """The H_s eigensystem the levels were grouped from."""
        return self.levels.eig

    @property
    def dimension(self) -> int:
        return self.h_free.shape[0]

    @property
    def hamiltonian(self) -> np.ndarray:
        """H_s plus the (filtered or full) interaction term."""
        return self.h_free + self.h_interaction

    def _entries(
        self, terms: list[tuple[int, np.ndarray]], basis: np.ndarray | None
    ) -> tuple[np.ndarray, ...]:
        """(row, col, value, part) triplets of the column-stacked L, in `basis`
        (product basis if None), entry (i, j) at i + d j; repeats add. Each (part,
        G) of terms gives G rho + rho G†, and bath i's jumps are part BATH + i.

        G rho gives ((i,j), (k,j), G_ik), rho G† gives ((i,j), (i,l), conj G_jl)
        and gamma a rho a† gives ((i,j), (k,l), gamma a_ik conj a_jl). In the H_s
        eigenbasis only entries keeping the Bohr frequency stay, which drops the
        rounding noise of the rotation; jump entries are paired only within one
        transition frequency, so a dense eigenbasis pairs no more. Entries at
        (r, c) and (tau r, tau c), tau: i + d j -> j + d i, are added from exact
        conjugates in the same order, so L[rho†] = L[rho]† holds entry by entry."""
        d = self.dimension
        labels = np.array([p for p, _ in terms])
        g = np.array([g for _, g in terms])
        chan = [(BATH + b, ch) for b, bath in enumerate(self.channels) for ch in bath]
        part_of = np.array([p for p, _ in chan], dtype=int)
        rate = np.array([ch.rate for _, ch in chan])
        a = np.array([ch.op for _, ch in chan]).reshape(-1, d, d)
        freq = np.zeros(d * d, dtype=int)
        if basis is not None:
            ud = basis.conj().T
            g, a = ud @ g @ basis, ud @ a @ basis
            freq = self.levels.frequency_labels.ravel()

        j = np.arange(d)[:, None]
        t, i, k = np.nonzero(g)
        v = np.broadcast_to(g[t, i, k], (d, i.size)).ravel()
        label = np.broadcast_to(labels[t], (d, i.size)).ravel()
        rows = [(i + d * j).ravel(), (j + d * i).ravel()]
        cols = [(k + d * j).ravel(), (j + d * k).ravel()]
        vals = [v, v.conj()]
        parts = [label, label]
        # the jump operators' nonzeros in groups of one channel and one
        # transition frequency, and every ordered pair (x, y) within a group
        c, i, k = np.nonzero(a)
        group = c * (freq.max() + 1) + freq[i + d * k]
        order = np.argsort(group, kind="stable")
        c, i, k = c[order], i[order], k[order]
        _, first, size = np.unique(group[order], return_index=True, return_counts=True)
        pairs = size * size
        m, start = np.repeat(size, pairs), np.repeat(first, pairs)
        rank = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        x, y = start + rank // m, start + rank % m
        # a_x conj(a_y) in real arithmetic: (x, y) and (y, x) are exact conjugates
        re, im = a[c, i, k].real, a[c, i, k].imag
        outer = re[x] * re[y] + im[x] * im[y] + 1j * (im[x] * re[y] - im[y] * re[x])
        rows.append(i[x] + d * i[y])
        cols.append(k[x] + d * k[y])
        vals.append(rate[c[x]] * outer)
        parts.append(part_of[c[x]])
        out = tuple(np.concatenate(e) for e in (rows, cols, vals, parts))
        if basis is None:
            return out
        keep = freq[out[0]] == freq[out[1]]
        return tuple(e[keep] for e in out)

    @cached_property
    def _terms(self) -> list[tuple[int, np.ndarray]]:
        """(part, G) of each part of L: -i H_s, -i V and bath i's -K_i/2."""
        return [(FREE, -1j * self.h_free), (INTERACTION, -1j * self.h_interaction)] + [
            (BATH + b, _dissipator_g(bath, self.h_free)) for b, bath in enumerate(self.channels)
        ]

    @cached_property
    def _product(self) -> tuple[np.ndarray, ...]:
        """The triplets of L by part, in the product basis."""
        return self._entries(self._terms, None)

    def _plan(self, second: np.ndarray) -> tuple[np.ndarray, ...]:
        """The triplets as _act applies them into two matrices, the second taking
        those where `second` is True: each one's diagonal and other triplets."""
        n = self.dimension**2
        rows, cols, vals, _ = self._product
        keys, on = rows + n * second, rows == cols
        diagonal = _scatter(keys[on], vals[on], 2 * n).reshape(2, n)
        return diagonal, keys[~on], cols[~on], vals[~on]

    def _act(self, rho: np.ndarray, plan: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The two matrices of a plan's action on a matrix or a (T, d, d) stack."""
        d, n = self.dimension, self.dimension**2
        if rho.shape[-2:] != (d, d):
            raise DimensionMismatchError(
                f"state shape {rho.shape} does not match generator dimension {d}"
            )
        diagonal, keys, cols, vals = plan
        flat = rho.swapaxes(-1, -2).reshape(-1, n)  # column-stacked
        keys = keys + 2 * n * np.arange(len(flat))[:, None]
        w = np.take(flat, cols, axis=1) * vals
        out = _scatter(keys.ravel(), w.ravel(), 2 * n * len(flat)).reshape(-1, 2, n)
        out += flat[:, None, :] * diagonal
        out = out.reshape(*rho.shape[:-2], 2, d, d).swapaxes(-1, -2)
        return out[..., 0, :, :], out[..., 1, :, :]

    @cached_property
    def _terms_plan(self) -> tuple[np.ndarray, ...]:
        return self._plan(self._product[3] == INTERACTION)

    def dissipator(self, bath_index: int, rho: np.ndarray) -> np.ndarray:
        """beta^2-scaled dissipator of one bath applied to a matrix."""
        return self._act(rho, self._plan(self._product[3] != BATH + bath_index))[0]

    def terms(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The partial L_p[rho] and the full L[rho], of one matrix or a stack."""
        partial, commutator = self._act(rho, self._terms_plan)
        return partial, partial + commutator

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Full generator action on a matrix (need not be a state)."""
        return self.terms(rho)[1]

    def apply_partial(self, rho: np.ndarray) -> np.ndarray:
        """Generator action without the interaction commutator."""
        return self.terms(rho)[0]

    @cached_property
    def rate_operators(self) -> np.ndarray:
        """Heisenberg-picture operators of the rates linear in rho, stacked:
        D_i†[H_s] for each bath, then L†[H_s], then L_p†[ln rho_G], so that
        tr(op rho) is Qdot_i, Edot and tr(L_p[rho] ln rho_G) in turn. A triplet
        (r, c, v) adds v X_r to entry c of L†[X]^T, column-stacked as X^T is."""
        d, n, count = self.dimension, self.dimension**2, BATH + len(self.channels)
        rows, cols, vals, part = self._product

        def adjoint(x):  # the adjoint of every part, one bincount
            w = vals * x.ravel()[rows]
            return _scatter(part * n + cols, w, count * n).reshape(count, d, d)

        h, g = adjoint(self.h_free), adjoint(self.log_product_gibbs)
        spohn = np.delete(g, INTERACTION, axis=0).sum(axis=0)
        return np.concatenate((h[BATH:], h.sum(axis=0)[None], spohn[None]))

    def _dense(self, partial: bool) -> np.ndarray:
        """Column-stacked matrix of L, or of L_p if partial, in the product basis,
        scattered from the triplets on each call."""
        n = self.dimension**2
        # the matrix and one real bincount buffer
        _require_memory(24 * n * n, f"the dense {n} x {n} superoperator")
        rows, cols, vals, part = self._product
        keep = part != INTERACTION if partial else slice(None)
        return _scatter((rows * n + cols)[keep], vals[keep], n * n).reshape(n, n)

    @property
    def superop(self) -> np.ndarray:
        return self._dense(partial=False)

    @property
    def partial_superop(self) -> np.ndarray:
        return self._dense(partial=True)

    @cached_property
    def blocks(self) -> BlockView:
        """L as a direct sum over the connected components of its nonzero pattern,
        in the H_s eigenbasis for the modified generator, else the product basis:
        one complex block per conjugate pair and one real block per
        self-conjugate component (see BlockView), filled by one bincount."""
        d = self.dimension
        basis = self.eig.eigenvectors if self.kind == "modified" else None
        g = -1j * self.hamiltonian + sum(t for part, t in self._terms if part >= BATH)
        rows, cols, vals, _ = self._entries([(FREE, g)], basis)
        label = _components(d * d, rows, cols)
        sizes = np.bincount(label)
        order = np.argsort(label, kind="stable")
        start = np.cumsum(sizes) - sizes
        tau = _transpose(d)
        # tau carries component k onto component partner[k]; k is kept if partner[k] >= k
        block = np.arange(sizes.size)
        partner = label[tau[order[start]]]
        real = partner == block
        # float64 words of each kept block: a pair entry is two, a partner none
        words = np.where(real, 1, 2 * (partner > block)) * sizes**2
        kept = np.flatnonzero(words)
        # the blocks, and evolve's RK4 step and stride matrix for each
        _require_memory(
            24 * int(words.sum()),
            f"{kept.size} generator blocks of up to {sizes[kept].max()} rows",
        )
        pos = np.empty_like(label)
        pos[order] = np.arange(label.size) - np.repeat(start, sizes)
        offset = np.cumsum(words) - words

        def key(r, c, width):  # where entry (r, c) of its block starts in the words
            k = label[r]
            return offset[k] + width * (pos[r] * sizes[k] + pos[c])

        at = label[rows]
        self_conjugate = real[at]
        hr, hc, hv = _hermitian_triplets(
            rows[self_conjugate], cols[self_conjugate], vals[self_conjugate], tau
        )
        pair = partner[at] > at
        entry, v = key(rows[pair], cols[pair], 2), vals[pair]
        flat = np.bincount(
            np.concatenate((key(hr, hc, 1), entry, entry + 1)),
            np.concatenate((hv, v.real, v.imag)),
            int(words.sum()),
        )
        indices = np.split(order, start[1:])
        return BlockView(
            basis,
            d,
            tuple(indices[k] for k in kept),
            tuple(
                flat[offset[k] : offset[k] + words[k]]
                .view(np.float64 if real[k] else np.complex128)
                .reshape(sizes[k], sizes[k])
                for k in kept
            ),
        )

    def stability_norm(self) -> float:
        """||L||_inf in the product basis, from the cached triplets with
        repeats added first, without the dense matrix."""
        n = self.dimension**2
        rows, cols, vals, _ = self._product
        keys, at = np.unique(rows * n + cols, return_inverse=True)
        entries = _scatter(at, vals, keys.size)
        return float(np.bincount(keys // n, np.abs(entries), n).max())

    @cached_property
    def log_product_gibbs(self) -> np.ndarray:
        """ln of the product of local Gibbs states, from the exponent directly."""
        spec = self.spec
        x = np.zeros_like(self.h_free)
        for k, (sub, bath) in enumerate(zip(spec.subsystems, spec.baths)):
            x = x - bath.beta * embed(sub.hamiltonian, k, spec.dims)
        # subtract ln(partition function) so that exp(result) has unit trace
        w = np.linalg.eigvalsh(x)
        shift = w.max()
        ln_z = shift + np.log(np.exp(w - shift).sum())
        return x - ln_z * np.eye(spec.dimension, dtype=complex)

    def min_rate(self) -> float:
        """Smallest scaled channel rate; +inf when there are no channels."""
        rates = [ch.rate for channels in self.channels for ch in channels]
        return min(rates) if rates else float("inf")


def _bath_channels(spec: SystemSpec) -> list[list[Channel]]:
    dims = spec.dims
    per_bath: list[list[Channel]] = []
    for index, (sub, bath) in enumerate(zip(spec.subsystems, spec.baths)):
        local_eig = hermitian_eig(sub.hamiltonian)
        tol = spec.grouping_tol or default_grouping_tol(local_eig.eigenvalues)
        local_levels = group_levels(local_eig, tol)
        decomp = decompose_operator(bath.coupling_op, local_levels)
        channels = []
        for omega, comp in decomp.terms:
            g = rate(omega, bath)
            if g == 0.0:
                continue
            channels.append(
                Channel(omega=omega, op=embed(comp, index, dims), rate=spec.beta_coupling**2 * g)
            )
        per_bath.append(channels)
    return per_bath


def _build(spec: SystemSpec, filtered: bool) -> Generator:
    h_free = spec.free_hamiltonian()
    eig = hermitian_eig(h_free)
    tol = spec.grouping_tol or default_grouping_tol(eig.eigenvalues)
    levels = group_levels(eig, tol)

    diagnostics = None
    strength = max(spec.alpha, spec.beta_coupling)
    if strength > 0.0:
        diagnostics = sparse_spectrum_diagnostics(levels, strength)
        if diagnostics.status == "FAIL":
            raise DenseSpectrumError(
                "Bohr spectrum too dense for the coupling: min nonzero frequency "
                f"{diagnostics.min_nonzero_frequency:.3e}, min spacing "
                f"{diagnostics.min_frequency_spacing:.3e}, coupling {strength:.3e}"
            )
        if diagnostics.status == "WARN":
            log.warning(
                "Bohr spectrum margin is thin: min(frequency, spacing)/coupling = %.3g",
                min(diagnostics.frequency_ratio, diagnostics.spacing_ratio),
            )

    h_int_bare = spec.interaction_sum()
    if filtered:
        h_int = spec.alpha * secular_filter(h_int_bare, levels)
        kind = "modified"
    else:
        h_int = spec.alpha * h_int_bare
        kind = "naive"

    return Generator(
        spec=spec,
        kind=kind,
        h_free=h_free,
        h_interaction=h_int,
        channels=_bath_channels(spec),
        levels=levels,
        diagnostics=diagnostics,
    )


def build_modified_local(spec: SystemSpec) -> Generator:
    """Local generator with the secular-filtered interaction commutator."""
    return _build(spec, filtered=True)


def build_naive_local(spec: SystemSpec) -> Generator:
    """Baseline local generator keeping the full interaction commutator."""
    return _build(spec, filtered=False)


def product_gibbs(spec: SystemSpec) -> np.ndarray:
    """Tensor product of local Gibbs states at each bath's temperature."""
    factors = []
    for sub, bath in zip(spec.subsystems, spec.baths):
        es = hermitian_eig(sub.hamiltonian)
        w = -bath.beta * es.eigenvalues
        w = w - w.max()  # avoid overflow; normalization removes the shift
        p = np.exp(w)
        p = p / p.sum()
        v = es.eigenvectors
        factors.append((v * p) @ v.conj().T)
    return kron(*factors) if len(factors) > 1 else factors[0]
