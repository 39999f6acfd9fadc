"""Circulant matrices of 2x2 blocks.

A block circulant is stored as its first block-row (N blocks of shape 2x2,
total dimension 2N).  Two ensembles are provided:

* Gaussian form: every block is [[a, -b], [c, a]] with i.i.d. Gaussian
  a, b, c.  The full 2N x 2N matrix is then real and pseudo-orthogonal with
  respect to the block generalized parity Sigma (the scalar parity pattern
  with each 1 replaced by the symmetric Pauli matrix [[0,1],[1,0]]), and its
  spacing statistics reproduce the scalar circulant laws.

* Coupled-chain form: first block row (A, B, B, ..., B^dagger) with
  A = [[a1, i a2], [-i a2, a1]] Hermitian and B = [[-1/2, i b1],
  [i b2, -1/2]], the block shapes of a nearest-neighbour transfer matrix.
  The parameter distribution is a run parameter (standard normal by
  default).

Eigenvalues come from the block Fourier reduction: the 2x2 transform blocks
Ahat_l = sum_p A_p exp(2 pi i p l / N) are diagonalized independently, which
matches a dense eigensolver on the full matrix.  Both ensembles have spectra
closed under conjugation mode by mode (mode N-l holds the conjugates of mode
l), so only modes 0..N/2 are solved and mode N-l is written as the exact
conjugates of mode l.  Every rc and generic spacing then has a twin of the
same bits, and ``classify_block_batch`` stores each such pair of twins once.
An eigenvalue counts as real within a tolerance relative to its spectrum;
every other eigenvalue's conjugate partner is its twin, read from its index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import Spectrum, _moduli, _pair_numbers, _step_rows, generalized_parity
from .pseudo2x2 import eigenvalues2

__all__ = [
    "BlockCirculant",
    "sigma_parity",
    "pseudo_orthogonality_residual_block",
    "eigenvalues_block",
    "batch_block_spectra",
    "sample_gaussian_blocks",
    "sample_ising_blocks",
    "classify_block_batch",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# Relative tolerance of the real axis: an eigenvalue with |Im| <= _RTOL *
# max |eigenvalue| of its spectrum counts as real, so which eigenvalues are
# real does not depend on the unit of the spectrum.
_RTOL = 1e-9


@dataclass(frozen=True)
class BlockCirculant:
    """Block-cyclic matrix stored as its first block-row, shape (N, 2, 2)."""

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(self.blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[1:] != (2, 2) or blocks.shape[0] < 2:
            raise ValueError("blocks must have shape (N >= 2, 2, 2)")
        if not np.all(np.isfinite(blocks.view(float))):
            raise ValueError("block entries must be finite")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    def dense(self) -> np.ndarray:
        """Full 2N x 2N matrix; block-row r is the right-shift by r blocks."""
        n = self.n_blocks
        i, j = np.indices((n, n))
        return self.blocks[(j - i) % n].transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def sigma_parity(n: int) -> np.ndarray:
    """Block generalized parity: scalar parity pattern with sigma_x blocks.

    Symmetric and an involution, exactly like its scalar counterpart.
    """
    return np.kron(generalized_parity(n), PAULI_X)


def pseudo_orthogonality_residual_block(b: BlockCirculant) -> float:
    """Max-entry |Sigma B Sigma^-1 - B^dagger|.

    Vanishes for the Gaussian-form ensemble (real blocks with equal
    diagonal); a block violating that structure shows up as a nonzero
    residual.
    """
    m = b.dense()
    sig = sigma_parity(b.n_blocks)
    return float(np.max(np.abs(sig @ m @ sig - m.conj().T)))


def batch_block_spectra(blocks: np.ndarray) -> np.ndarray:
    """Spectra of many block circulants: (count, N, 2, 2) -> (count, 2N),
    with eigenvalue E+ of mode l at index 2l and E- at 2l + 1.

    With U and V the real-input transforms of the real and imaginary parts
    of the entries, mode l <= N/2 is Ahat_l = conj(U_l) + i conj(V_l) and
    mode N-l is U_l + i V_l.  Only modes 0..N/2 are solved.  Mode N-l is
    written as the conjugates of mode l, in the same (E+, E-) order, where
    its trace and determinant are exactly the conjugates of mode l's (see
    ``_conjugate_rows``), as in real blocks and in the coupled chain, whose
    D_(N-l) is conj(D_l).  Then every twin is exact.  A row where some mode
    is not has its upper modes solved as they are, so its spectrum is right
    and its twins are not exact.  In modes 0 and N/2, U_l and V_l are real,
    so an entry part that is exactly zero in every block stays exactly zero
    there.

    The stack is transformed and solved in steps of rows, so beyond its
    spectra a call holds one step's temporaries; a row's eigenvalues depend
    on that row alone, so the steps do not change a bit of them.
    """
    blocks = np.ascontiguousarray(blocks, dtype=complex)
    if blocks.ndim != 4 or blocks.shape[2:] != (2, 2):
        raise ValueError("expected shape (count, N, 2, 2)")
    count, n = blocks.shape[:2]
    h = n // 2 + 1  # modes 0..N/2 are solved
    k = n - h  # modes h..N-1 are the twins of modes k..1
    eigs = np.empty((count, n, 2), dtype=complex)
    step = _step_rows(4 * n)  # block entries per row
    for start in range(0, count, step):
        x = blocks[start : start + step]
        # one transform of the eight entry parts: real parts at even lanes
        f = np.fft.rfft(x.view(float).reshape(len(x), n, 8), axis=1)
        u, v = f[..., ::2].reshape(-1, h, 2, 2), f[..., 1::2].reshape(-1, h, 2, 2)
        lower = np.empty_like(u)
        np.add(u.real, v.imag, out=lower.real)
        np.subtract(v.real, u.imag, out=lower.imag)
        e = eigs[start : start + step]
        e[:, :h, 0], e[:, :h, 1] = eigenvalues2(lower)
        np.conjugate(e[:, k:0:-1], out=e[:, h:])
        solve = np.flatnonzero(~_conjugate_rows(f[:, 1 : k + 1]))
        if solve.size:
            upper = u[solve, k:0:-1] + 1j * v[solve, k:0:-1]
            e[solve, h:, 0], e[solve, h:, 1] = eigenvalues2(upper)
    return eigs.reshape(count, -1)


def _conjugate_rows(f: np.ndarray) -> np.ndarray:
    """Rows of a (rows, modes, 8) stack of lane transforms (U00, V00, U01,
    V01, U10, V10, U11, V11) at modes l in which every mode N-l, U + i V,
    has exactly the conjugate trace and determinant of mode l,
    conj(U) + i conj(V), so conjugate eigenvalues.  The traces differ by
    2i (V00 + V11) and the determinants by 2i (U00 V11 + V00 U11 - U01 V10
    - V01 U10); both vanish where V00 and V11 are 0 and each of U01 V10 and
    V01 U10 has a factor 0.  Real blocks have V = 0, and in the chain the
    lanes V00, V11, U01 and U10 are 0 in every block, so in every mode.  A
    difference that is only small is no test: near a double root the
    eigenvalues move by about its square root."""
    _, v00, u01, v01, u10, v10, _, v11 = np.moveaxis(f == 0, -1, 0)
    return (v00 & v11 & (u01 | v10) & (v01 | u10)).all(axis=1)


def eigenvalues_block(b: BlockCirculant) -> Spectrum:
    """All 2N eigenvalues via the block Fourier reduction, each paired with
    itself if it counts as real and with its twin if not (see
    ``_pair_rows``, which refuses a spectrum without exact twins)."""
    eigs = batch_block_spectra(b.blocks[None])
    partner, _ = _pair_rows(eigs, 0, *_twin_maps(eigs.shape[1]))
    return Spectrum(eigs=eigs[0], partner=partner[0])


def sample_gaussian_blocks(
    n: int, count: int, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """(count, N, 2, 2) stack of blocks [[a, -b], [c, a]] with i.i.d. normals."""
    if n < 2:
        raise ValueError("need n >= 2 blocks")
    if count < 1:
        raise ValueError("need count >= 1")
    a, b, c = rng.normal(0.0, scale, size=(3, count, n))
    blocks = np.zeros((count, n, 2, 2), dtype=complex)
    blocks[..., 0, 0] = a
    blocks[..., 1, 1] = a
    blocks[..., 0, 1] = -b
    blocks[..., 1, 0] = c
    return blocks


def sample_ising_blocks(
    n: int, count: int, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """(count, N, 2, 2) stack with block row (A, B, B, ..., B^dagger).

    A = [[a1, i a2], [-i a2, a1]] (Hermitian), B = [[-1/2, i b1],
    [i b2, -1/2]]; a1, a2, b1, b2 are i.i.d. zero-mean Gaussians of the given
    scale, drawn once per realization.  Needs n >= 3 so the row actually
    contains A, at least one B, and B^dagger; at n = 3 the row
    (A, B, B^dagger) is that of a Hermitian matrix, so every eigenvalue is
    real.
    """
    if n < 3:
        raise ValueError("coupled-chain row (A, B, ..., B^dagger) needs n >= 3 blocks")
    if count < 1:
        raise ValueError("need count >= 1")
    a1, a2, b1, b2 = rng.normal(0.0, scale, size=(4, count))
    blocks = np.zeros((count, n, 2, 2), dtype=complex)
    blocks[:, 0, 0, 0] = a1
    blocks[:, 0, 1, 1] = a1
    blocks[:, 0, 0, 1] = 1j * a2
    blocks[:, 0, 1, 0] = -1j * a2
    bmat = np.zeros((count, 2, 2), dtype=complex)
    bmat[:, 0, 0] = -0.5
    bmat[:, 1, 1] = -0.5
    bmat[:, 0, 1] = 1j * b1
    bmat[:, 1, 0] = 1j * b2
    blocks[:, 1 : n - 1] = bmat[:, None]
    blocks[:, n - 1] = np.conj(np.swapaxes(bmat, 1, 2))
    return blocks


def _twin_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The twin maps of spectra of n = 2N eigenvalues laid out as
    ``batch_block_spectra`` gives them, one row per choice for the
    self-paired modes 0 and N/2, and the indices of those modes' E+.

    The twin of eigenvalue 2l + s is 2(N-l) + s.  In a self-paired mode it
    is itself if its imaginary part is 0, and the other eigenvalue of its
    mode if not; choice bit b is set when the mode of ``lead[b]`` swaps.
    """
    mode, sign = np.divmod(np.arange(n), 2)
    lead = np.flatnonzero((mode == -mode % (n // 2)) & (sign == 0))
    flip = np.arange(2**lead.size)[:, None] >> np.arange(lead.size) & 1
    twins = np.tile(2 * (-mode % (n // 2)) + sign, (len(flip), 1))
    twins[:, lead] += flip
    twins[:, lead + 1] -= flip
    return twins, lead


def _pair_rows(rows, start, twins, lead) -> tuple[np.ndarray, np.ndarray]:
    """Partners of a step of block spectra, rows ``start``, ``start + 1``,
    ... of their batch, and the number of each row's twin map in ``twins``.

    An eigenvalue with |Im| <= _RTOL * max|e| of its row is real, its own
    partner; every other eigenvalue's partner is its twin, its conjugate bit
    for bit.  A twin and its eigenvalue have the same |Im|, so they are real
    or complex together.  ValueError naming the row by its batch index if a
    row has a non-finite entry or twins that are not conjugates bit for bit:
    every ensemble here has spectra closed under conjugation mode by mode,
    and ``batch_block_spectra`` writes them so.
    """
    which = (rows[:, lead].imag != 0) @ (1 << np.arange(lead.size))
    mates = twins[which]
    bad = ~np.isfinite(rows).all(axis=1)
    bad |= (np.take_along_axis(rows, mates, 1) != rows.conj()).any(axis=1)
    if bad.any():
        raise ValueError(
            f"spectrum row {start + np.argmax(bad)} cannot be paired: an entry is not finite, "
            "or eigenvalue 2(N-l)+s is not the conjugate of 2l+s bit for bit, as "
            "batch_block_spectra gives them"
        )
    real = np.abs(rows.imag) <= _RTOL * np.max(np.abs(rows), axis=1, keepdims=True)
    return np.where(real, np.arange(rows.shape[1]), mates), which


def classify_block_batch(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (cc, rc, generic) spacings, pooled over a (count, 2N) batch of
    block spectra laid out as ``batch_block_spectra`` gives them.

    Each row is paired by ``_pair_rows``, and every cc pair is kept.  The
    twin of an rc or generic pair {i, j} is {twin i, twin j}, another pair
    of its class with the same spacing; of the two only the one whose pair
    number is no larger is kept, so each rc and generic value stands for two
    pairs.  The twin is never the partner of an eigenvalue that counts as
    real: the chain's modes N/3 and 2N/3 hold eigenvalues within the
    tolerance of the real axis, whose twins are in the other mode.  Values
    come by row, then in (i, j) row-major order, as from the oracle
    ``classify_spacings`` in ``tests/oracles.py`` at the pairs kept, from a
    table of ``|e_i - e_j|`` over the step's rows and pairs ``i < j``.

    Every row is paired, in row steps, before the classes are allocated, so
    a ValueError from ``_pair_rows`` comes before any modulus is taken.
    """
    spectra = np.ascontiguousarray(spectra, dtype=complex)
    count, n = spectra.shape
    if n % 2:
        raise ValueError("block spectra hold 2N eigenvalues a row")
    twins, lead = _twin_maps(n)
    iu, ju, col = _pair_numbers(n)
    idx = np.arange(n)
    # whether each pair comes no later than its twin, under each map
    first = np.arange(iu.size) <= col[twins[:, iu], twins[:, ju]]
    step = _step_rows(iu.size)
    # class sizes of a row with c complex and n - c real eigenvalues; every
    # rc and generic pair has a twin other than itself, so half are kept
    sizes = [0, 0, 0]
    for start in range(0, count, step):
        partner, _ = _pair_rows(spectra[start : start + step], start, twins, lead)
        c = np.count_nonzero(partner != idx, axis=1)
        for k, size in enumerate((c // 2, (n - c) * c // 2, c * (c - 2) // 4)):
            sizes[k] += int(size.sum())
    out = [np.empty(size) for size in sizes]
    filled = [0, 0, 0]
    table = np.empty((min(step, count), iu.size))
    scratch = np.empty(table.size, dtype=complex)
    for start in range(0, count, step):
        rows = spectra[start : start + step]
        part, which = _pair_rows(rows, start, twins, lead)
        t = table[: len(rows)]
        _moduli(rows, iu, ju, t, scratch)
        comp = part != idx
        keep = first[which]
        row, i = np.nonzero(idx < part)
        cc = row, col[i, part[row, i]]
        # each real eigenvalue against the complex ones of its row
        row, i = np.nonzero(~comp)
        pick, j = np.nonzero(comp[row])
        row, q = row[pick], col[i[pick], j]
        kept = keep[row, q]
        rc = row[kept], q[kept]
        generic = comp.take(iu, 1)
        generic &= comp.take(ju, 1)
        generic[cc] = False
        generic &= keep
        for k, values in enumerate((t[cc], t[rc], t[generic])):
            out[k][filled[k] : filled[k] + values.size] = values
            filled[k] += values.size
    return tuple(out)
