"""Construction of local GKLS generators for bath-coupled subsystem networks.

The modified local generator acts as

    d rho / dt = -i [H_s + alpha * F(H_int), rho] + beta^2 * sum_i D_i[rho]

where H_s is the sum of embedded subsystem Hamiltonians, F is the secular
filter keeping only the part of the interaction that commutes with H_s, and
each D_i is a GKLS dissipator whose jump operators are the Bohr components of
bath i's coupling operator in its own subsystem eigenbasis, embedded into the
product space. The naive variant keeps the full interaction in the
commutator; its dissipators are identical. A component's rate is the scaled
rate beta^2 gamma(omega), which _scaled_rates alone evaluates and refuses if
it is not finite; a component whose rate is exactly zero is no channel.

L is written down once, as (row, col, value) triplets (_triplets): its
action, adjoint and norm are read from them, and the blocks are the
connected components of their pattern. Where the triplets go is a
Structure, which generators that differ only in rates share; a Generator
fills it with its values, one row per generator, so the points of a sweep
that share a structure are filled as one stack. The modified generator is
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
from math import inf, isfinite, isqrt, prod
from typing import NamedTuple

import numpy as np

from .baths import BathSpec, rate
from .errors import DenseSpectrumError, DimensionMismatchError, LindlocError, SpecError
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

    def __post_init__(self):
        require_hermitian(self.hamiltonian, name=f"subsystem {self.label!r} Hamiltonian")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


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
            raise SpecError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not 0.0 <= self.beta_coupling < inf:
            raise SpecError(
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
            raise SpecError(
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


def _dissipator_g(rates: np.ndarray, products: np.ndarray, like: np.ndarray) -> np.ndarray:
    """G = -K_i/2 of one bath's D_i under each generator, K_i = sum gamma A†A
    over its channels, given their rates under each, (P, channels), and the
    A†A of each; like is a (P, d, d) array."""
    terms = (-0.5 * r[:, None, None] * p for r, p in zip(rates.T, products))
    return sum(terms, np.zeros_like(like))


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: [[a, b], [c, d]] -> (a, c, b, d)."""
    require_square(rho, "state")
    return np.asarray(rho, dtype=complex).flatten(order="F")


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
# the product of two weights' magnitudes, by how many are off the diagonal
WEIGHT_PRODUCTS = np.array([1.0, SQRT_HALF, 0.5])
# Re(i^q v) for q quarter turns is SIGNS[q] times the part q % 2 of v
SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _hermitian_triplets(
    rows: np.ndarray, cols: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Real (row, col) triplets, in Hermitian coordinates (see BlockView), of
    the part of L on tau-closed blocks, from its complex triplets' (row, col):
    each one's complex triplet, the part of that value it takes (0 real, 1
    imaginary) and the factor it takes it with.

    Entry p feeds the coordinate at p with weight 1, 1/sqrt2 or -i/sqrt2
    (p = tau p, p < tau p, p > tau p) and, off the diagonal, the coordinate at
    tau p with weight i/sqrt2 (p < tau p) or 1/sqrt2 (p > tau p). A triplet
    (r, c, v) adds Re(conj(w_r) v w_c) to each of the at most four coordinate
    pairs it feeds; the imaginary parts cancel between r, c and tau r, tau c.
    conj(w_r) w_c is a magnitude times i^q, and Re(i^q v) is +-Re v or +-Im v."""
    scale = WEIGHT_PRODUCTS[(rows != tau[rows]).astype(int) + (cols != tau[cols])]

    def feeds(p):  # (slot, quarter turns of the weight, whether it is fed)
        t = tau[p]
        return (p, 3 * (p > t), np.ones(p.size, dtype=bool)), (t, 1 * (p < t), p != t)

    out = []
    for r, turns_r, fed_r in feeds(rows):
        for c, turns_c, fed_c in feeds(cols):
            k = np.flatnonzero(fed_r & fed_c)
            q = (turns_c[k] - turns_r[k]) % 4
            out.append((r[k], c[k], k, q % 2, scale[k] * SIGNS[q]))
    return tuple(np.concatenate(part) for part in zip(*out))


# the parts of L that the triplets are labelled with: -i[H_s, .], -i[V, .]
# and, for bath i, D_i at BATH + i
FREE, INTERACTION, BATH = 0, 1, 2


class _Triplets(NamedTuple):
    """Where L's column-stacked triplets go, entry (i, j) at i + d j, and what
    each one's value is: entry source[k] of Generator._source's values, which
    are the G entries at pos, their conjugates, and each jump entry e's
    channel rate times outer[e]."""

    pos: tuple[np.ndarray, ...]
    rows: np.ndarray
    cols: np.ndarray
    parts: np.ndarray
    source: np.ndarray
    channel: np.ndarray
    outer: np.ndarray


def _triplets(
    nonzero: np.ndarray, a: np.ndarray, bath: np.ndarray, freq: np.ndarray | None = None
) -> _Triplets:
    """The triplets of L from where its G's are nonzero, (T, d, d) with G t
    labelled t, and its jump operators a, (m, d, d) with jump c part
    BATH + bath[c]. With the Bohr frequency `freq` of each entry (in the H_s
    eigenbasis), only triplets whose row and column have one are kept.

    Each G gives G rho + rho G†: G rho gives ((i,j), (k,j), G_ik), rho G†
    gives ((i,j), (i,l), conj G_jl) and gamma a rho a† gives ((i,j), (k,l),
    gamma a_ik conj a_jl). In the H_s eigenbasis only entries keeping the
    Bohr frequency stay, which drops the rounding noise of the rotation; jump
    entries are paired only within one transition frequency, so a dense
    eigenbasis pairs no more. Entries at (r, c) and (tau r, tau c),
    tau: i + d j -> j + d i, come from exact conjugates in the same order, so
    L[rho†] = L[rho]† holds entry by entry."""
    d = nonzero.shape[-1]
    j = np.arange(d)[:, None]
    t, i, k = pos = np.nonzero(nonzero)
    e = np.broadcast_to(np.arange(t.size), (d, t.size)).ravel()
    g_rows = np.concatenate(((i + d * j).ravel(), (j + d * i).ravel()))
    g_cols = np.concatenate(((k + d * j).ravel(), (j + d * k).ravel()))
    g_parts = np.concatenate((t[e], t[e]))
    g_source = np.concatenate((e, e + t.size))
    # the jump operators' nonzeros in groups of one channel and one
    # transition frequency, and every ordered pair (x, y) within a group
    c, i, k = np.nonzero(a)
    group = c if freq is None else c * (freq.max() + 1) + freq[i + d * k]
    order = np.argsort(group, kind="stable")
    c, i, k = c[order], i[order], k[order]
    _, first, size = np.unique(group[order], return_index=True, return_counts=True)
    pairs = size * size
    m, start = np.repeat(size, pairs), np.repeat(first, pairs)
    rank = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    x, y = start + rank // m, start + rank % m
    a_rows, a_cols = i[x] + d * i[y], k[x] + d * k[y]
    g = slice(None)
    if freq is not None:
        g, jump = freq[g_rows] == freq[g_cols], freq[a_rows] == freq[a_cols]
        x, y, a_rows, a_cols = x[jump], y[jump], a_rows[jump], a_cols[jump]
    # a_x conj(a_y) in real arithmetic: (x, y) and (y, x) are exact conjugates
    re, im = a[c, i, k].real, a[c, i, k].imag
    outer = re[x] * re[y] + im[x] * im[y] + 1j * (im[x] * re[y] - im[y] * re[x])
    return _Triplets(
        pos,
        np.concatenate((g_rows[g], a_rows)),
        np.concatenate((g_cols[g], a_cols)),
        np.concatenate((g_parts[g], BATH + bath[c[x]])),
        np.concatenate((g_source[g], 2 * t.size + np.arange(x.size))),
        c[x],
        outer,
    )


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
    """A Hermiticity-preserving generator's layout as a direct sum of blocks,
    and where its values go in them.

    Blocks act on the column-stacked entries of a matrix written in `basis`
    (the product basis when basis is None). L[rho†] = L[rho]†, so the
    transpose map tau: i + d j <-> j + d i carries each block onto a block,
    with conjugated entries. One block of each pair of distinct blocks is
    kept, the one with the lower smallest index, as a complex matrix on its
    entries indices[k] (ascending); its partner holds the conjugates at
    tau(indices[k]) and is not stored. A block that tau maps onto itself
    (`real`) is kept as a real matrix on the Hermitian coordinates of its
    entries: at index p = (a, b), rho_p if a = b, sqrt2 Re rho_ab if a > b
    and sqrt2 Im rho_ba if a < b, the coefficients of |a><a|,
    (|a><b| + |b><a|)/sqrt2 and i(|a><b| - |b><a|)/sqrt2 (a > b). That change
    of basis is unitary, so a real block has the singular values of the
    complex one.

    A generator's matrices (Generator.block_matrices) are `size` float64
    words, block k's from offsets[k] on; one bincount fills them, adding
    factor times the word `gather` of the source (pos, channel and outer,
    see _Triplets) at each key. A Hermitian state travels as two vectors: the
    real blocks' coordinates (float64) and the kept pair blocks' entries
    (complex), one block after another in each.
    """

    basis: np.ndarray | None
    dimension: int
    indices: tuple[np.ndarray, ...]
    real: tuple[bool, ...]
    offsets: tuple[int, ...]
    pos: tuple[np.ndarray, ...]
    channel: np.ndarray
    outer: np.ndarray
    keys: np.ndarray
    gather: np.ndarray
    factor: np.ndarray
    size: int

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
    def trace_row(self) -> np.ndarray:
        """The trace as a row on the zero block's coordinates: the sum of the
        populations', those at i + d i."""
        return self.indices[self.zero] % (self.dimension + 1) == 0

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

    def zeros(self, *stack: int) -> tuple[np.ndarray, np.ndarray]:
        """The real coordinates and the pair entries of the zero matrix, or of
        a stack of shape `stack` of them."""
        s = self._layout
        x = np.zeros((*stack, s.diag.size + 2 * s.low.size))
        return x, np.zeros((*stack, s.entries.size), dtype=complex)

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


class _Gapped(NamedTuple):
    """A modified generator's pair blocks off the zero Bohr frequency, each
    B = F + A with F = -i(E_i - E_k) on its diagonal at entry (i, k): the
    stored blocks they are, ordered by size, and each one's min |E_i - E_k|;
    for their rows, one block after another, the E_i - E_k of each diagonal
    entry, where that entry and where each row start among the entries, and
    where each block's rows start; for their entries, row-major, where each
    block's entries start; each block's entries and rows as slices, and for
    each size m, the entries and rows of the blocks of that size."""

    blocks: np.ndarray
    gap: np.ndarray
    omega: np.ndarray
    diag: np.ndarray
    row_at: np.ndarray
    block_rows: np.ndarray
    block_entries: np.ndarray
    spans: tuple[tuple[slice, slice], ...]
    sizes: tuple[tuple[int, slice, slice], ...]


@dataclass(eq=False)
class Structure:
    """What a generator's rates leave unchanged: the H_s levels, the (filtered
    or full) interaction, each bath's channels as (omega, jump operator) and,
    built on first use, where each value of L goes, in the product-basis
    triplets and in the blocks. A Generator fills it with its values, so
    generators that differ only in rates share one structure (see
    _reusable). `silent` holds each bath's Bohr frequencies whose rate is
    zero, or None for a structure made by hand, which no build reuses."""

    kind: str
    h_free: np.ndarray
    h_interaction: np.ndarray
    levels: EnergyLevels
    jumps: list[list[tuple[float, np.ndarray]]]
    silent: list[list[float]] | None = None

    @property
    def dimension(self) -> int:
        return self.h_free.shape[0]

    def _stack(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump operators stacked, (m, d, d), and the bath of each."""
        d = self.dimension
        ops = np.array([op for jumps in self.jumps for _, op in jumps]).reshape(-1, d, d)
        return ops, np.array([b for b, jumps in enumerate(self.jumps) for _ in jumps], dtype=int)

    @cached_property
    def products(self) -> list[np.ndarray]:
        """Each bath's A†A of its channels, stacked."""
        ops, bath = self._stack()
        products = ops.conj().swapaxes(-1, -2) @ ops
        return [products[bath == b] for b in range(len(self.jumps))]

    @cached_property
    def product(self) -> _Triplets:
        """The triplets of L by part, in the product basis: -i H_s, -i V and,
        for each bath, where any of its channels' A†A is nonzero."""
        nonzero = [self.h_free != 0, self.h_interaction != 0]
        nonzero += [(p != 0).any(axis=0) for p in self.products]
        return _triplets(np.array(nonzero), *self._stack())

    @cached_property
    def terms_plan(self) -> tuple[np.ndarray, ...]:
        """Where the product triplets go as _act applies them into two
        matrices, L_p[rho] and the interaction's -i[V, rho]: which are
        diagonal and their keys, and the keys and columns of the others."""
        n = self.dimension**2
        rows, cols = self.product.rows, self.product.cols
        keys, on = rows + n * (self.product.parts == INTERACTION), rows == cols
        return on, keys[on], keys[~on], cols[~on]

    @property
    def point_bytes(self) -> int:
        """Bytes of the largest row that a generator of this structure adds
        to a stacked Generator's arrays: its product triplets' values, or a
        complex d x d matrix if that is larger."""
        return 16 * max(self.dimension**2, self.product.rows.size)

    def block_triplets(self) -> tuple[np.ndarray | None, _Triplets]:
        """The blocks' basis, the H_s eigenbasis for the modified generator
        and the product basis (None) for the naive one, and the triplets of L
        there with one G = -i H_eff - sum_i K_i/2, taken as nonzero wherever
        H_eff is or some channel's A†A can be."""
        d = self.dimension
        ops, bath = self._stack()
        h = -1j * (self.h_free + self.h_interaction)
        basis = freq = None
        if self.kind == "modified":
            basis = self.levels.eig.eigenvectors
            ud = basis.conj().T
            h, ops = ud @ h @ basis, ud @ ops @ basis
            freq = self.levels.frequency_labels.ravel()
        # A†A can be nonzero at (k, l) where some row of A is at k and at l:
        # one product of the stacked 0/1 patterns covers every channel
        stacked = (ops != 0).reshape(-1, d).astype(float)
        nonzero = (h != 0) | (stacked.T @ stacked > 0)
        return basis, _triplets(nonzero[None], ops, bath, freq)

    @cached_property
    def blocks(self) -> BlockView:
        """L's blocks, the connected components of the block triplets'
        pattern: one complex block per conjugate pair and one real block per
        self-conjugate component (see BlockView)."""
        d = self.dimension
        basis, tr = self.block_triplets()
        rows, cols = tr.rows, tr.cols
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
        self_conjugate = np.flatnonzero(real[at])
        hr, hc, k, part, factor = _hermitian_triplets(
            rows[self_conjugate], cols[self_conjugate], tau
        )
        pair = np.flatnonzero(partner[at] > at)
        entry = key(rows[pair], cols[pair], 2)
        # a triplet's value is two float64 words of the source: real, imaginary
        word = 2 * tr.source
        indices = np.split(order, start[1:])
        return BlockView(
            basis,
            d,
            tuple(indices[k] for k in kept),
            tuple(real[kept].tolist()),
            tuple(offset[kept].tolist()),
            tr.pos,
            tr.channel,
            tr.outer,
            np.concatenate((key(hr, hc, 1), entry, entry + 1)),
            np.concatenate((word[self_conjugate][k] + part, word[pair], word[pair] + 1)),
            np.concatenate((factor, np.ones(2 * pair.size))),
            int(words.sum()),
        )

    @cached_property
    def gapped(self) -> _Gapped:
        """The blocks whose smallest singular value steady_states bounds
        instead of factoring (see _Gapped): none for the naive generator."""
        view, d = self.blocks, self.dimension
        freq = self.levels.frequency_labels.ravel()
        blocks = [
            k
            for k, (real, idx) in enumerate(zip(view.real, view.indices))
            if self.kind == "modified" and not real and freq[idx[0]] != freq[0]
        ]
        blocks.sort(key=lambda k: view.indices[k].size)  # the blocks of one size consecutive
        idx = [view.indices[k] for k in blocks]
        m = np.array([i.size for i in idx], dtype=np.intp)
        e = self.levels.eig.eigenvalues
        where = np.concatenate(idx) if idx else np.empty(0, dtype=np.intp)
        omega = e[where % d] - e[where // d]
        block_rows, block_entries = np.cumsum(m) - m, np.cumsum(m * m) - m * m
        # each row's block, and its place in the block
        of_row = np.repeat(np.arange(m.size), m)
        local = np.arange(where.size) - block_rows[of_row]
        row_at = block_entries[of_row] + local * m[of_row]
        spans = tuple(
            (slice(a, a + n * n), slice(r, r + n))
            for a, r, n in zip(block_entries.tolist(), block_rows.tolist(), m.tolist())
        )
        # m is sorted: each size, its first block and how many blocks have it
        size, first, count = np.unique(m, return_index=True, return_counts=True)
        starts = zip(block_entries[first].tolist(), block_rows[first].tolist())
        sizes = tuple(
            (n, slice(a, a + c * n * n), slice(r, r + c * n))
            for n, c, (a, r) in zip(size.tolist(), count.tolist(), starts)
        )
        gap = np.minimum.reduceat(np.abs(omega), block_rows) if idx else np.empty(0)
        return _Gapped(
            np.array(blocks, dtype=np.intp),
            gap,
            omega,
            row_at + local,
            row_at,
            block_rows,
            block_entries,
            spans,
            sizes,
        )


def _act(rho: np.ndarray, plan: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The two matrices of a plan's action (_fill_plan) on a matrix or a
    (T, d, d) stack, each matrix under the plan's values for it, or under
    its one set of values for all."""
    diagonal, keys, cols, vals = plan
    n = diagonal.shape[-1]
    d = isqrt(n)
    if rho.shape[-2:] != (d, d):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match generator dimension {d}"
        )
    flat = rho.swapaxes(-1, -2).reshape(-1, n)  # column-stacked
    keys = keys + 2 * n * np.arange(len(flat))[:, None]
    w = np.take(flat, cols, axis=1) * vals
    out = _scatter(keys.ravel(), w.ravel(), 2 * n * len(flat)).reshape(-1, 2, n)
    out += flat[:, None, :] * diagonal
    out = out.reshape(*rho.shape[:-2], 2, d, d).swapaxes(-1, -2)
    return out[..., 0, :, :], out[..., 1, :, :]


def _fill_plan(pattern: tuple, values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """A plan (Structure.terms_plan) on d^2 = n entries with each row's
    values of the product triplets, (P, triplets): each matrix's diagonal,
    (P, 2, n), and the keys, columns and values, (P, ...), of the others."""
    on, keys_on, keys, cols = pattern
    count = len(values)
    diagonal = _scatter(_offsets(keys_on, 2 * n, count), values[:, on].ravel(), 2 * n * count)
    return diagonal.reshape(count, 2, n), keys, cols, values[:, ~on]


def _offsets(keys: np.ndarray, size: int, count: int) -> np.ndarray:
    """keys of `count` rows, each one's shifted by size past the last's."""
    return (keys + size * np.arange(count)[:, None]).ravel()


class Generator:
    """A built local generator, or a stack of generators that share one
    Structure (typically the points of a sweep), one row per generator.

    The Structure says where each value of L goes; a generator holds what
    sets the values, each channel's scaled rate in the order of
    structure.jumps, (P, channels), and each bath's inverse temperature,
    (P, baths), and fills them stacked along a leading axis, so that a step
    over every row is one numpy call: each gather and bincount takes every
    row's values at once, with its keys shifted per row. L's parts are
    -i H_s, -i V and bath i's -K_i/2; the block matrices read L with their
    sum, G = -i H_eff, in the Bohr blocks of structure.levels (H_s's
    eigensystem and frequencies); and one product-basis pass, whose triplets
    carry their part, serves `terms`, `rate_operators` and `stability_norm`
    (which reads row 0; a build gives one row). L_p, the partial generator
    fixing the product of local Gibbs states, leaves out V.
    """

    def __init__(
        self,
        structure: Structure,
        spec: SystemSpec,
        rates: np.ndarray,
        betas: np.ndarray,
        diagnostics: SpectrumDiagnostics | None = None,
    ):
        self.structure, self.spec = structure, spec
        self.rates, self.betas = rates, betas
        self.diagnostics = diagnostics

    @classmethod
    def stack(cls, gens: list[Generator]) -> Generator:
        """The rows of generators that share one structure, joined; refuses
        an empty list and any generator whose structure is not the first's."""
        if not gens:
            raise DimensionMismatchError("Generator.stack takes at least one generator")
        for i, g in enumerate(gens):
            if g.structure is not gens[0].structure:
                raise DimensionMismatchError(
                    f"Generator.stack: row {i} ({g.kind}) does not share the structure "
                    f"of row 0 ({gens[0].kind})"
                )
        rates = np.concatenate([g.rates for g in gens])
        betas = np.concatenate([g.betas for g in gens])
        return cls(gens[0].structure, gens[0].spec, rates, betas, gens[0].diagnostics)

    def __len__(self) -> int:
        return len(self.rates)

    @property
    def kind(self) -> str:
        return self.structure.kind

    @property
    def eig(self) -> HermitianEigenSystem:
        """The H_s eigensystem the levels were grouped from."""
        return self.structure.levels.eig

    @property
    def dimension(self) -> int:
        return self.structure.dimension

    def _source(self, g: np.ndarray, pattern: _Triplets | BlockView) -> np.ndarray:
        """The values a pattern's triplets take theirs from (see _Triplets),
        for each row, given its stack of G's in the pattern's basis,
        (P, G's, d, d)."""
        t, i, k = pattern.pos
        v = g[:, t, i, k]
        jumps = self.rates[:, pattern.channel] * pattern.outer
        return np.concatenate((v, v.conj(), jumps), axis=1)

    @cached_property
    def _terms(self) -> np.ndarray:
        """G of each part of L, -i H_s, -i V and bath i's -K_i/2, for each
        row, (P, parts, d, d)."""
        s = self.structure
        d, ends = s.dimension, np.cumsum([len(jumps) for jumps in s.jumps])
        g = np.empty((len(self), BATH + len(s.jumps), d, d), dtype=complex)
        g[:, FREE] = -1j * s.h_free
        g[:, INTERACTION] = -1j * s.h_interaction
        for b, (end, products) in enumerate(zip(ends, s.products)):
            rates = self.rates[:, end - len(products) : end]
            g[:, BATH + b] = _dissipator_g(rates, products, g[:, FREE])
        return g

    @cached_property
    def product_values(self) -> np.ndarray:
        """The values of the product triplets (Structure.product), (P, triplets)."""
        p = self.structure.product
        return self._source(self._terms, p)[:, p.source]

    @cached_property
    def _terms_plan(self) -> tuple[np.ndarray, ...]:
        s = self.structure
        return _fill_plan(s.terms_plan, self.product_values, s.dimension**2)

    def terms(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L_p[rho] and L[rho] of a matrix or a (T, d, d) stack, each matrix
        under its own row when there are T of them, else under the one."""
        partial, commutator = _act(rho, self._terms_plan)
        return partial, partial + commutator

    @cached_property
    def log_product_gibbs(self) -> np.ndarray:
        """ln of each row's product of local Gibbs states, (P, d, d), from
        the exponent directly."""
        spec = self.spec
        d = spec.dimension
        x = np.zeros((len(self), d, d), dtype=complex)
        for k, sub in enumerate(spec.subsystems):
            x = x - self.betas[:, k, None, None] * embed(sub.hamiltonian, k, spec.dims)
        # subtract ln(partition function) so that exp(result) has unit trace
        w = np.linalg.eigvalsh(x)
        shift = w.max(axis=1)
        ln_z = shift + np.log(np.exp(w - shift[:, None]).sum(axis=1))
        return x - ln_z[:, None, None] * np.eye(d, dtype=complex)

    @cached_property
    def rate_operators(self) -> np.ndarray:
        """Heisenberg-picture operators of the rates linear in rho, for each
        row, (P, rates, d, d): D_i†[H_s] for each bath, then L†[H_s], then
        L_p†[ln rho_G], so that tr(op rho) is Qdot_i, Edot and
        tr(L_p[rho] ln rho_G) in turn. A triplet (r, c, v) adds v X_r to
        entry c of L†[X]^T, column-stacked as X^T is."""
        s = self.structure
        d, n, count = s.dimension, s.dimension**2, BATH + len(s.jumps)
        p, vals = s.product, self.product_values
        keys = _offsets(p.parts * n + p.cols, count * n, len(self))

        def adjoint(x):  # the adjoint of every part of each row, one bincount
            w = vals * x.reshape(len(x), n)[:, p.rows]
            return _scatter(keys, w.ravel(), len(self) * count * n).reshape(-1, count, d, d)

        h, g = adjoint(s.h_free[None]), adjoint(self.log_product_gibbs)
        spohn = np.delete(g, INTERACTION, axis=1).sum(axis=1)
        return np.concatenate((h[:, BATH:], h.sum(axis=1)[:, None], spohn[:, None]), axis=1)

    def stability_norm(self) -> float:
        """||L||_inf in the product basis, from row 0's triplets with repeats
        added first, without the dense matrix."""
        p, n = self.structure.product, self.dimension**2
        keys, at = np.unique(p.rows * n + p.cols, return_inverse=True)
        entries = _scatter(at, self.product_values[0], keys.size)
        return float(np.bincount(keys // n, np.abs(entries), n).max())

    def _block_g(self, basis: np.ndarray | None) -> np.ndarray:
        """The blocks' G = -i H_eff, H_eff = H - i sum_i K_i/2, the sum of
        the parts' G's, of each row in `basis` (the product basis if None),
        (P, 1, d, d)."""
        g = self._terms.sum(axis=1, keepdims=True)
        return g if basis is None else basis.conj().T @ g @ basis

    @cached_property
    def block_matrices(self) -> tuple[np.ndarray, ...]:
        """The matrices of each block of structure.blocks, (P, m, m), filled
        by one bincount."""
        s = self.structure.blocks
        words = np.ascontiguousarray(self._source(self._block_g(s.basis), s)).view(np.float64)
        keys = _offsets(s.keys, s.size, len(self))
        flat = np.bincount(keys, (s.factor * words[:, s.gather]).ravel(), len(self) * s.size)
        flat = flat.reshape(len(self), s.size)
        return tuple(
            flat[:, offset : offset + (1 if real else 2) * idx.size**2]
            .view(np.float64 if real else np.complex128)
            .reshape(-1, idx.size, idx.size)
            for idx, real, offset in zip(s.indices, s.real, s.offsets)
        )


def _require_one_row(gen: Generator, caller: str) -> None:
    """Refuse a stack of generators where `caller` takes one generator."""
    if len(gen) != 1:
        raise DimensionMismatchError(
            f"{caller} takes one generator, got a stack of {len(gen)} rows"
        )


def _scaled_rates(spec: SystemSpec, bath: BathSpec, omegas: list[float]) -> list[float]:
    """The scaled rate beta^2 gamma(omega) of one of spec's baths at each of
    its Bohr frequencies, the one place a build evaluates them. A rate that
    overflows or is not a finite number is refused, naming the bath."""
    what = f"bath {bath.label!r}: scaled rate beta_coupling**2 * gamma(omega)"
    try:
        beta2 = spec.beta_coupling**2
    except OverflowError:  # a float power raises where a product gives inf
        raise LindlocError(f"{what} overflows") from None
    rates = [beta2 * rate(omega, bath) for omega in omegas]
    for omega, r in zip(omegas, rates):
        if not isfinite(r):
            raise LindlocError(f"{what} at omega = {omega!r} is {r!r}, not a finite number")
    return rates


def _reusable(previous: Generator | None, spec: SystemSpec, kind: str) -> list[float] | None:
    """spec's channel rates, if spec's generator of this kind has the
    structure of `previous`, so that only its values change: the same kind,
    exactly equal subsystem Hamiltonians, bath coupling operators,
    interaction terms, alpha and grouping_tol, and the same channels, the
    Bohr components with a nonzero scaled rate. None if it has not."""
    if previous is None or previous.kind != kind or previous.structure.silent is None:
        return None

    def inputs(s):  # the numbers and the operators a structure is built from
        ops = [*(x.hamiltonian for x in s.subsystems), *(b.coupling_op for b in s.baths)]
        return (len(ops), len(s.interactions), s.alpha, s.grouping_tol), ops + s.interactions

    (numbers, ops), (new_numbers, new_ops) = inputs(previous.spec), inputs(spec)
    # a chain builder hands every spec the same operator objects (models._chain)
    same = all(a is b or np.array_equal(a, b) for a, b in zip(ops, new_ops))
    if numbers != new_numbers or not same:
        return None
    s, rates = previous.structure, []
    for jumps, silent, bath in zip(s.jumps, s.silent, spec.baths):
        scaled = _scaled_rates(spec, bath, [omega for omega, _ in jumps] + silent)
        live, off = scaled[: len(jumps)], scaled[len(jumps) :]
        if 0.0 in live or any(off):
            return None
        rates += live
    return rates


def _structure(spec: SystemSpec, kind: str, h_free: np.ndarray, levels: EnergyLevels) -> tuple:
    """The structure of spec's generator of this kind (the interaction, and
    each bath's Bohr components in its subsystem's eigenbasis, embedded, that
    have a nonzero scaled rate, with the frequencies of the others) and their rates."""
    h_int = spec.interaction_sum()
    if kind == "modified":
        h_int = secular_filter(h_int, levels)
    jumps, silent, rates = [], [], []
    for index, (sub, bath) in enumerate(zip(spec.subsystems, spec.baths)):
        local_eig = hermitian_eig(sub.hamiltonian)
        tol = spec.grouping_tol or default_grouping_tol(local_eig.eigenvalues)
        terms = decompose_operator(bath.coupling_op, group_levels(local_eig, tol))
        scaled = _scaled_rates(spec, bath, [omega for omega, _ in terms])
        jumps.append(
            [(omega, embed(comp, index, spec.dims)) for (omega, comp), r in zip(terms, scaled) if r]
        )
        silent.append([omega for (omega, _), r in zip(terms, scaled) if not r])
        rates += [r for r in scaled if r]
    return Structure(kind, h_free, spec.alpha * h_int, levels, jumps, silent), rates


def _build(spec: SystemSpec, kind: str, previous: Generator | None) -> Generator:
    """spec's generator of this kind: previous's structure if spec has it
    (see _reusable), else a new one, filled with spec's rates."""
    rates = _reusable(previous, spec, kind)
    structure = None if rates is None else previous.structure
    if structure is None:
        # H_s, its eigenvectors, the interaction, the labels and secular_filter's three temporaries
        # (7 d x d arrays), and a jump operator per channel, at most d_k (d_k - 1) for subsystem k
        d, channels = spec.dimension, sum(k * (k - 1) for k in spec.dims)
        _require_memory(16 * d * d * (7 + channels), f"a generator build of dimension {d}")
        h_free = spec.free_hamiltonian()
        eig = hermitian_eig(h_free)
        levels = group_levels(eig, spec.grouping_tol or default_grouping_tol(eig.eigenvalues))
    else:
        h_free, levels = structure.h_free, structure.levels

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

    if structure is None:
        structure, rates = _structure(spec, kind, h_free, levels)
    betas = [b.beta for b in spec.baths]
    return Generator(structure, spec, np.array([rates]), np.array([betas]), diagnostics)


def build_modified_local(spec: SystemSpec, previous: Generator | None = None) -> Generator:
    """Local generator with the secular-filtered interaction commutator. A
    `previous` generator lends its structure when spec differs from its
    spec only in rates (see _reusable)."""
    return _build(spec, "modified", previous)


def build_naive_local(spec: SystemSpec, previous: Generator | None = None) -> Generator:
    """Baseline local generator keeping the full interaction commutator; see
    build_modified_local for `previous`."""
    return _build(spec, "naive", previous)


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
