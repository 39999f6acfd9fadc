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
Which eigenvalues count as real, and the cc partners, are still detected
numerically, within a tolerance relative to the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import SpacingSample, Spectrum, _moduli, _pair_numbers, _step_rows, generalized_parity
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

# Relative tolerance of conjugate pairing: an eigenvalue is real, and two
# eigenvalues are conjugates, within _RTOL * max |eigenvalue| of its spectrum,
# so the pairing does not depend on the unit of the spectrum.
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
    """All 2N eigenvalues via the block Fourier reduction, with numerically
    detected conjugation pairing (see ``_pair_batch``)."""
    eigs = batch_block_spectra(b.blocks[None])[0]
    return Spectrum(eigs=eigs, partner=_pair_batch(eigs[None])[0])


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


def _pair_batch(spectra: np.ndarray) -> np.ndarray:
    """Partner arrays of a (count, n) batch of spectra.

    With tol = _RTOL * max|e| over a row, an eigenvalue with |Im| <= tol is
    real (its own partner).  Every other eigenvalue is paired with its
    nearest conjugate, which must be mutual, strictly nearer than the second
    nearest, and within tol.  A row that fails this (a tie, a complex
    eigenvalue without a partner, a non-finite entry) raises ``ValueError``
    naming the row: every ensemble handled here has spectra closed under
    conjugation, so such a row has no pairing that is not arbitrary.

    Only pairs within tol of each other in real part are compared: the
    modulus of e_j - conj(e_i) is at least its real part's, so any other
    pair is further than tol apart (see docs/decisions.md).
    """
    count, n = spectra.shape
    partner = np.empty((count, n), dtype=np.int32)  # every index is below n
    # a step holds about eight arrays the length of its rows' eigenvalues
    # (sort keys, order, flat indices, sorted values, tolerances, nearest
    # distances, mates)
    step = _step_rows(8 * n)
    for start in range(0, count, step):
        rows = spectra[start : start + step]
        size = rows.size
        tol = _RTOL * np.max(np.abs(rows), axis=1, keepdims=True)
        real = np.abs(rows.imag) <= tol
        key = np.where(real, np.inf, rows.real)  # reals sort after every complex one
        order = np.argsort(key, axis=1)
        # flat indices of each row sorted by real part, and the sorted values
        idx = (order + np.arange(0, size, n)[:, None]).ravel()
        x, e = key.ravel()[idx], rows.ravel()[idx]
        tols = np.repeat(tol.ravel(), n)
        # sorted positions p and p + k of one row within tol in real part, for
        # k = 1, 2, ...: a pair at offset k has one at k - 1 from the same p
        # (the computed gap grows with k), so only those p are tried, and the
        # offsets stop at the first without a pair.  Pairs within tol as
        # conjugates are kept.  A row with non-finite entries is refused, so
        # inf - inf and NaN here are never used, and a difference that
        # overflows is no partner.
        lo, hi, dist = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
        p = np.arange(size)
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(1, n):
                p = p[p % n < n - k]
                p = p[x[p + k] - x[p] <= tols[p]]
                if not p.size:
                    break
                d = np.abs(e[p + k] - np.conj(e[p]))  # bitwise the same both ways
                keep = d <= tols[p]
                lo.append(p[keep])
                hi.append(p[keep] + k)
                dist.append(d[keep])
        at, to, d = np.concatenate(lo + hi), np.concatenate(hi + lo), np.concatenate(dist * 2)
        # each eigenvalue's nearest conjugate within tol, and whether it is unique
        nearest = np.full(size, np.inf)
        np.minimum.at(nearest, at, d)
        hit = d == nearest[at]
        mate = np.arange(size)
        mate[at[hit]] = to[hit]
        unique = np.bincount(at[hit], minlength=size) == 1
        ok = real.ravel()[idx] | (unique & (mate[mate] == np.arange(size)))
        bad = np.flatnonzero(~(ok.reshape(rows.shape).all(axis=1) & np.isfinite(rows).all(axis=1)))
        if bad.size:
            raise ValueError(
                f"spectrum row {start + bad[0]} cannot be paired: a complex eigenvalue has no "
                "conjugate partner that is unique, mutual and within tolerance, or an entry "
                "is not finite"
            )
        partner[start : start + len(rows)].reshape(-1)[idx] = order.ravel()[mate]
    return partner


def classify_block_batch(spectra: np.ndarray) -> tuple[SpacingSample, SpacingSample, SpacingSample]:
    """The (cc, rc, generic) spacing samples, pooled over a (count, 2N) batch
    of block spectra laid out as ``batch_block_spectra`` gives them.

    Pairing is re-detected per realization (see ``_pair_batch``), and every
    cc pair is kept.  The twin of eigenvalue 2l + s is 2(N-l) + s; in the
    self-paired modes 0 and N/2 it is itself if its imaginary part is 0, and
    the other eigenvalue of its mode if not.  It is never the tolerance
    partner: the chain's modes N/3 and 2N/3 hold eigenvalues the tolerance
    calls real, whose twins are in the other mode.  The twin of an rc or
    generic pair {i, j} is {twin i, twin j}, another pair of its class with
    the same spacing; of the two only the one whose pair number is no larger
    is kept, with multiplicity 2.  Values come by row, then in (i, j)
    row-major order, as from the oracle ``classify_spacings`` in
    ``tests/oracles.py`` at the pairs kept, from a table of ``|e_i - e_j|``
    over the step's rows and pairs ``i < j``.

    ValueError if a row's twins are not conjugates bit for bit, since then a
    twin's spacing is not the kept pair's; each step of rows is checked
    before its moduli are taken.
    """
    spectra = np.ascontiguousarray(spectra, dtype=complex)
    partner = _pair_batch(spectra)
    count, n = spectra.shape
    if n % 2:
        raise ValueError("block spectra hold 2N eigenvalues a row")
    iu, ju, col = _pair_numbers(n)
    idx = np.arange(n)
    # the twin maps: 2l + s -> 2(N-l) + s, with each self-paired mode's two
    # eigenvalues mapped to themselves or to each other, one map per choice
    mode, sign = np.divmod(idx, 2)
    lead = np.flatnonzero((mode == -mode % (n // 2)) & (sign == 0))  # E+ of modes 0, N/2
    flip = np.arange(2**lead.size)[:, None] >> np.arange(lead.size) & 1
    twins = np.tile(2 * (-mode % (n // 2)) + sign, (len(flip), 1))
    twins[:, lead] += flip
    twins[:, lead + 1] -= flip
    # whether each pair comes no later than its twin, under each map
    first = np.arange(iu.size) <= col[twins[:, iu], twins[:, ju]]
    # class sizes of a row with c complex and n - c real eigenvalues; every
    # rc and generic pair has a twin other than itself, so half are kept
    c = np.count_nonzero(partner != idx, axis=1)
    sizes = (c // 2, (n - c) * c // 2, c * (c - 2) // 4)
    out = [np.empty(int(size.sum())) for size in sizes]
    filled = [0, 0, 0]
    step = _step_rows(iu.size)
    table = np.empty((min(step, count), iu.size))
    scratch = np.empty(table.size, dtype=complex)
    for start in range(0, count, step):
        rows = spectra[start : start + step]
        # a self-paired mode maps to itself when its E+ is real
        which = (rows[:, lead].imag != 0) @ (1 << np.arange(lead.size))
        mates = np.take_along_axis(rows, twins[which], 1)
        inexact = np.flatnonzero((mates != rows.conj()).any(axis=1))
        if inexact.size:
            raise ValueError(
                f"spectrum row {start + inexact[0]} has no exact twins: eigenvalue 2(N-l)+s "
                "must be the conjugate of 2l+s bit for bit, as batch_block_spectra gives them"
            )
        t = table[: len(rows)]
        _moduli(rows, iu, ju, t, scratch)
        part = partner[start : start + len(rows)]
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
    cc, rc, generic = out
    return SpacingSample(cc), SpacingSample(rc, 2), SpacingSample(generic, 2)
