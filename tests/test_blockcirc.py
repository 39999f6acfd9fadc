import tracemalloc

import numpy as np
import pytest

import oracles
from phrmt import blockcirc, circulant, pseudo2x2, seeding, stats
from phrmt.blockcirc import BlockCirculant


def _gauss_instance(n, rng):
    return BlockCirculant(blockcirc.sample_gaussian_blocks(n, 1, rng)[0])


def _ising_instance(n, rng):
    return BlockCirculant(blockcirc.sample_ising_blocks(n, 1, rng)[0])


class TestSigmaParity:
    def test_n2_block_positions(self):
        sig = blockcirc.sigma_parity(2)
        z = np.zeros((2, 2))
        assert np.array_equal(sig[0:2, 0:2], blockcirc.PAULI_X)
        assert np.array_equal(sig[2:4, 2:4], blockcirc.PAULI_X)
        assert np.array_equal(sig[0:2, 2:4], z)
        assert np.array_equal(sig[2:4, 0:2], z)

    def test_involution_and_symmetry(self):
        for n in range(2, 7):
            sig = blockcirc.sigma_parity(n)
            assert np.array_equal(sig @ sig, np.eye(2 * n))
            assert np.array_equal(sig, sig.T)


class TestPseudoOrthogonality:
    def test_gaussian_form_residual(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            b = _gauss_instance(3, rng)
            assert blockcirc.pseudo_orthogonality_residual_block(b) <= 1e-14

    def test_zero_blocks(self):
        b = BlockCirculant(np.zeros((3, 2, 2)))
        assert blockcirc.pseudo_orthogonality_residual_block(b) == 0.0

    def test_complex_diagonal_breaks_structure(self):
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[0, 0, 0] = 1.0 + 0.5j  # complex instead of real
        blocks[0, 1, 1] = 1.0 + 0.5j
        b = BlockCirculant(blocks)
        assert blockcirc.pseudo_orthogonality_residual_block(b) > 0.1


class TestEigenvaluesBlock:
    def test_identity_blocks(self):
        blocks = np.zeros((4, 2, 2), dtype=complex)
        blocks[0] = np.eye(2)
        spec = blockcirc.eigenvalues_block(BlockCirculant(blocks))
        assert np.allclose(spec.eigs, np.ones(8), atol=1e-12)

    def test_n2_pair_of_equal_blocks(self):
        # transform blocks are 2A and the zero matrix
        rng = np.random.default_rng(51)
        a = blockcirc.sample_gaussian_blocks(2, 1, rng)[0, 0]
        blocks = np.stack([a, a])
        spec = blockcirc.eigenvalues_block(BlockCirculant(blocks))
        dense = np.linalg.eigvals(BlockCirculant(blocks).dense())
        assert oracles.multiset_distance(spec.eigs, dense) < 1e-12
        two_a = np.linalg.eigvals(2.0 * a)
        assert oracles.multiset_distance(spec.eigs, np.concatenate([two_a, [0, 0]])) < 1e-12

    def test_gaussian_spectrum_conjugation_closed(self):
        rng = np.random.default_rng(52)
        spec = blockcirc.eigenvalues_block(_gauss_instance(5, rng))
        assert oracles.multiset_distance(spec.eigs, np.conj(spec.eigs)) < 1e-10

    def test_against_dense_oracle(self):
        # multiset match (not lexicographic sort: conjugate pairs share a real
        # part to roundoff, which makes sorted comparisons unstable)
        rng = np.random.default_rng(53)
        for n in (2, 3, 4, 6):
            for _ in range(100):
                b = _gauss_instance(n, rng)
                mine = blockcirc.eigenvalues_block(b).eigs
                ref = np.linalg.eigvals(b.dense())
                assert oracles.multiset_distance(mine, ref) <= 1e-9

    def test_degenerate_spectrum_is_refused(self):
        # (A, 0, 0, 0) has every transform block equal to A, whose eigenvalues
        # are +-i: four copies of each, so no conjugate pairing is unique
        blocks = np.zeros((4, 2, 2), dtype=complex)
        blocks[0] = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="spectrum row 0"):
            blockcirc.eigenvalues_block(BlockCirculant(blocks))

    def test_ising_against_dense_oracle(self):
        rng = np.random.default_rng(54)
        for n in (3, 4, 6):
            for _ in range(30):
                b = _ising_instance(n, rng)
                mine = blockcirc.eigenvalues_block(b).eigs
                ref = np.linalg.eigvals(b.dense())
                assert oracles.multiset_distance(mine, ref) <= 1e-9


_SAMPLERS = {
    "gaussian": blockcirc.sample_gaussian_blocks,
    "ising": blockcirc.sample_ising_blocks,
}


class TestSteppedSpectra:
    """The stack is transformed and solved in row steps, with the spectra of
    the whole-stack form, bit for bit, and one step's temporaries."""

    @pytest.mark.parametrize("n", [5, 25, 250])
    @pytest.mark.parametrize("ensemble", sorted(_SAMPLERS))
    def test_steps_match_the_whole_stack(self, ensemble, n):
        # two full steps and a partial one; a row of the second step is
        # scaled below the solver's unscaled range, so that step is solved
        # scaled, as the whole stack is, and the others are not
        step = circulant._step_rows(4 * n)
        blocks = _SAMPLERS[ensemble](n, 2 * step + 3, np.random.default_rng(n))
        blocks[step + 1] *= 2.0**-700
        got = blockcirc.batch_block_spectra(blocks)
        want = oracles.whole_stack_block_spectra(blocks, pseudo2x2.eigenvalues2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ensemble", sorted(_SAMPLERS))
    def test_scratch_is_one_step(self, ensemble):
        # one sampler chunk at N = 25: beyond its 6.25 MiB of spectra the call
        # holds about 0.9 MiB (15.6 MiB when the whole stack was solved at once)
        blocks = _SAMPLERS[ensemble](25, seeding.CHUNK, np.random.default_rng(8))
        tracemalloc.start()
        try:
            spectra = blockcirc.batch_block_spectra(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spectra.nbytes + 2 * 2**20


class TestSamplers:
    def test_gaussian_block_structure(self):
        rng = np.random.default_rng(55)
        blocks = blockcirc.sample_gaussian_blocks(4, 10, rng)
        assert np.array_equal(blocks[..., 0, 0], blocks[..., 1, 1])
        assert np.all(blocks.imag == 0)

    def test_gaussian_entry_means(self):
        rng = np.random.default_rng(56)
        blocks = blockcirc.sample_gaussian_blocks(4, 50_000, rng)
        n_draws = 4 * 50_000
        assert abs(blocks[..., 0, 0].real.mean()) < 4.0 / np.sqrt(n_draws)

    def test_deterministic_under_seed(self):
        a = blockcirc.sample_gaussian_blocks(3, 4, np.random.default_rng(77))
        b = blockcirc.sample_gaussian_blocks(3, 4, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_ising_row_pattern_n4(self):
        rng = np.random.default_rng(57)
        blocks = blockcirc.sample_ising_blocks(4, 1, rng)[0]
        a, b = blocks[0], blocks[1]
        assert np.allclose(a, a.conj().T)  # leading block is Hermitian
        assert np.array_equal(blocks[2], b)
        assert np.array_equal(blocks[3], b.conj().T)
        assert b[0, 0] == -0.5 and b[1, 1] == -0.5
        assert b[0, 1].real == 0 and b[1, 0].real == 0

    def test_ising_needs_three_blocks(self):
        with pytest.raises(ValueError):
            blockcirc.sample_ising_blocks(2, 1, np.random.default_rng(0))

    def test_tied_couplings_make_symmetric_block(self):
        # b1 == b2 gives B = B^T while the spectrum stays complex
        blocks = np.zeros((4, 2, 2), dtype=complex)
        blocks[0] = np.array([[0.7, 0.9j], [-0.9j, 0.7]])
        bmat = np.array([[-0.5, 1.2j], [1.2j, -0.5]])
        blocks[1] = bmat
        blocks[2] = bmat
        blocks[3] = bmat.conj().T
        assert np.array_equal(bmat, bmat.T)
        spec = blockcirc.eigenvalues_block(BlockCirculant(blocks))
        assert np.max(np.abs(spec.eigs.imag)) > 0.1


def _pair(eigs):
    return blockcirc._pair_batch(np.asarray(eigs, dtype=complex)[None])[0]


class TestConjugatePairing:
    def test_manual_spectrum(self):
        partner = _pair([2.0, 1.0 + 1.0j, 1.0 - 1.0j, -3.0])
        assert partner.tolist() == [0, 2, 1, 3]

    def test_tolerance_scale(self):
        assert _pair([1.0 + 1e-12j, 5.0]).tolist() == [0, 1]

    def test_tolerance_is_relative(self):
        # scaling a spectrum by a power of two is exact, so it must not
        # change the pairing, however small the scale
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(25, 50, np.random.default_rng(1))
        )
        want = blockcirc._pair_batch(spectra)
        assert np.any(want != np.arange(want.shape[1])), "the draw must have complex pairs"
        for power in (-20, -40, -100, -500):
            assert np.array_equal(blockcirc._pair_batch(spectra * 2.0**power), want)

    def test_unpaired_complex_rejected(self):
        with pytest.raises(ValueError):
            _pair([1.0 + 1.0j, 2.0])

    def test_classifier_matches_scalar_structural_path(self):
        # scalar circulant spectra run through the numeric classifier give
        # the same classes as the structural pairing
        rng = np.random.default_rng(58)
        row = rng.normal(size=7)
        spec = circulant.eigenvalues(circulant.Circulant(row))
        structural = oracles.classify_spacings(spec)
        numeric = oracles.classify_spacings(circulant.Spectrum(spec.eigs, _pair(spec.eigs)))
        for s, n in zip(structural, numeric):
            assert np.allclose(np.sort(s), np.sort(n), rtol=1e-10)


def _greedy_pairing(spectra):
    return np.array([oracles.pair_conjugates(row) for row in spectra])


def _greedy_classes(spectra):
    """Per-row greedy pairing and classification, concatenated in row order,
    with the rc and generic classes halved: of each such pair and its twin
    under ``oracles.block_twins``, only the first in row-major order is kept.
    Also the full pair count of each class."""
    parts, counts = [], [0, 0, 0]
    for row in spectra:
        spec = circulant.Spectrum(row, oracles.pair_conjugates(row))
        twin = oracles.block_twins(row)
        kept = []
        for k, (a, b) in enumerate(oracles.spacing_pairs(spec)):
            counts[k] += a.size
            if k:
                first = oracles.first_of_twins(twin, a, b)
                a, b = a[first], b[first]
            kept.append(np.abs(row[a] - row[b]))
        parts.append(kept)
    return [np.concatenate(samples) for samples in zip(*parts)], counts


def _assert_halved_greedy(got, spectra):
    """``got`` holds the halved greedy classes of ``spectra``, bit for bit,
    with multiplicities (1, 2, 2) that make up every pair of the oracle."""
    want, counts = _greedy_classes(spectra)
    for k, (sample, values) in enumerate(zip(got, want)):
        assert sample.values.tobytes() == values.tobytes(), k
    assert [sample.multiplicity for sample in got] == [1, 2, 2]
    assert [sample.multiplicity * sample.values.size for sample in got] == counts


class TestBatchedPairing:
    """The batched pairing must reproduce the greedy oracle
    ``oracles.pair_conjugates`` exactly on every row it accepts, and refuse
    the rows on which greedy's answer would be arbitrary."""

    @pytest.mark.parametrize(
        "sampler, n",
        [
            (blockcirc.sample_gaussian_blocks, 24),
            (blockcirc.sample_gaussian_blocks, 25),
            (blockcirc.sample_ising_blocks, 6),
            (blockcirc.sample_ising_blocks, 24),
            (blockcirc.sample_ising_blocks, 25),
        ],
    )
    def test_matches_greedy_row_by_row(self, sampler, n):
        # at N >= 24, 300 rows span several vectorised steps, the last partial
        spectra = blockcirc.batch_block_spectra(sampler(n, 300, np.random.default_rng(n)))
        assert np.array_equal(blockcirc._pair_batch(spectra), _greedy_pairing(spectra))
        _assert_halved_greedy(blockcirc.classify_block_batch(spectra), spectra)

    def test_rows_with_different_pairings(self):
        # one batch, one pairing per row: real eigenvalues at different
        # positions, partners in different orders, and a row with no complex
        # eigenvalue, which adds no value to any class.  Each row is laid out
        # as N = 3 modes: mode 0 is self-paired, mode 2 the conjugate of mode 1
        spectra = np.array(
            [
                [1 + 1j, 1 - 1j, 2.0, 3 + 2j, 2.0, 3 - 2j],
                [4.0, 3.0, 2.0, 1.0, 2.0, 1.0],
                [0.5, -1.0, 2 - 1j, -4 + 3j, 2 + 1j, -4 - 3j],
                [2 + 0.3j, 2 - 0.3j, 1 + 1j, 6 - 0.5j, 1 - 1j, 6 + 0.5j],
            ]
        )
        got = blockcirc.classify_block_batch(spectra)
        # per row (cc, rc, generic) pairs: (2, 8, 4), none, (2, 8, 4), (3, 0, 12),
        # of which half the rc and generic ones are stored
        assert [s.values.size for s in got] == [7, 8, 10]
        _assert_halved_greedy(got, spectra)

    def test_large_spectra_pair_in_small_steps(self):
        # at N = 260 blocks a step holds 7 rows, so 16 rows are two full
        # steps and a partial one, and the pairing scratch stays below one
        # row's distance matrix (24 bytes an entry) whatever the batch size
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_ising_blocks(260, 16, np.random.default_rng(260))
        )
        n = spectra.shape[1]
        assert circulant._step_rows(8 * n) == 7
        tracemalloc.start()
        try:
            partner = blockcirc._pair_batch(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 24 * n * n
        assert np.array_equal(partner, _greedy_pairing(spectra))
        _assert_halved_greedy(blockcirc.classify_block_batch(spectra), spectra)

    def test_near_real_pair_counts_as_real(self):
        # |Im| = 1e-12 is inside the tolerance 2e-9: two reals, as in greedy
        spectra = np.array([[1.0 + 1e-12j, 1.0 - 1e-12j, 2.0 + 1.0j, 2.0 - 1.0j]])
        assert blockcirc._pair_batch(spectra).tolist() == [[0, 1, 3, 2]]
        assert _greedy_pairing(spectra).tolist() == [[0, 1, 3, 2]]

    def test_tied_row_is_refused(self):
        # a duplicated conjugate pair: greedy would settle the tie by its
        # visiting order, so the batched rule names the row instead
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(6, 40, np.random.default_rng(5))
        )
        row = spectra[17]
        partner = oracles.pair_conjugates(row)
        i, k = np.flatnonzero(np.arange(row.size) < partner)[:2]  # two conjugate pairs
        row[k], row[partner[k]] = row[i], row[partner[i]]  # duplicate a conjugate pair
        with pytest.raises(ValueError, match="spectrum row 17 "):
            blockcirc._pair_batch(spectra)
        with pytest.raises(ValueError, match="spectrum row 17 "):
            blockcirc.classify_block_batch(spectra)
        # every other row is still paired as greedy pairs it
        rest = np.delete(spectra, 17, axis=0)
        assert np.array_equal(blockcirc._pair_batch(rest), _greedy_pairing(rest))

    def test_non_finite_rows_are_refused(self):
        for bad in (np.inf, np.nan, complex(0.0, np.inf)):
            spectra = np.array([[2.0, 1 + 1j, 1 - 1j], [bad, 1 + 1j, 1 - 1j]])
            with pytest.raises(ValueError, match="spectrum row 1 "):
                blockcirc._pair_batch(spectra)

    def test_row_not_closed_under_conjugation_raises(self):
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(6, 40, np.random.default_rng(6))
        )
        row = spectra[23]
        row[np.argmax(np.abs(row.imag))] *= 1.1
        with pytest.raises(ValueError, match="no conjugate partner"):
            blockcirc.classify_block_batch(spectra)

    def test_one_sided_nearest_conjugate_raises(self):
        # x1 -> y -> x2 -> y: every nearest conjugate is strict and within
        # tolerance but x1's is not mutual, and x2 has no partner left
        eps = 1e-9
        closed = [1 + 1j, 1 - 1j, 2.0, 3 + 2j, 3 - 2j]
        broken = [1 + 1j, 1 - 1j + eps, 1 + 1j + 1.5 * eps, 3 + 2j, 3 - 2j]
        with pytest.raises(ValueError, match="no conjugate partner"):
            blockcirc.classify_block_batch(np.array([closed, broken]))

    def test_mutual_tie_is_refused(self):
        # x's conjugate is exactly as near to y as to z, while y and z each
        # have a mutual nearest; only the strictness rule refuses this row
        delta = 2.0**-33  # exact in 1 +- delta, far inside the tolerance
        closed = [1 + 1j, 1 - 1j, 3 + 2j, 3 - 2j]
        tied = [1 + 1j, 1 - 1j + delta, 1 - 1j - delta, 1 + 1j - delta]
        with pytest.raises(ValueError, match="spectrum row 1 "):
            blockcirc._pair_batch(np.array([closed, tied]))
        assert blockcirc._pair_batch(np.array([closed])).tolist() == [[1, 0, 3, 2]]


def _chain_spectra(count, seed):
    return blockcirc.batch_block_spectra(
        blockcirc.sample_ising_blocks(25, count, np.random.default_rng(seed))
    )


def _wide_window_rows(spectra):
    """Rows in which a complex eigenvalue is within the pairing tolerance, in
    real part, of a complex eigenvalue other than its greedy partner."""
    wide = []
    for r, row in enumerate(spectra):
        tol = oracles.PAIRING_RTOL * np.max(np.abs(row))
        comp = np.flatnonzero(np.abs(row.imag) > tol)
        close = np.abs(row.real[comp, None] - row.real[comp]) <= tol
        close[np.arange(comp.size), np.arange(comp.size)] = False
        partner = oracles.pair_conjugates(row)
        close[np.arange(comp.size), np.searchsorted(comp, partner[comp])] = False
        if close.any():
            wide.append(r)
    return wide


class TestSortedScreen:
    """``_pair_batch`` sorts each row by real part and compares only the
    complex eigenvalues within tol of each other in real part, however many
    share that window; each row must get the greedy oracle's partners, and a
    refusal must name the row by its index in the whole batch."""

    def test_non_partners_with_close_real_parts_match_greedy(self):
        # tol is about 3e-9 here: the two pairs, and a third pair, have real
        # parts within it of each other
        spectra = np.array(
            [
                [1 + 1j, 1 - 1j, 1 + 5e-10 + 2j, 1 + 5e-10 - 2j, 3.0, -2.0],
                [1 + 1j, 1 + 1e-9 + 2j, 1 + 2e-9 - 1j, 1 + 1e-9 - 2j, 1 + 1j * 1e-12, 3.0],
            ]
        )
        assert _wide_window_rows(spectra) == [0, 1]
        assert np.array_equal(blockcirc._pair_batch(spectra), _greedy_pairing(spectra))

    def test_real_part_neighbour_that_is_no_conjugate_is_refused(self):
        # row 1's complex eigenvalues share their real part, so each is the
        # other's only close neighbour, but neither is the other's conjugate
        spectra = np.array([[1 + 1j, 1 - 1j, 3.0], [1 + 1j, 1 + 2j, 3.0]])
        with pytest.raises(ValueError, match="spectrum row 1 "):
            blockcirc._pair_batch(spectra)

    def test_chain_rows_with_equal_real_parts_across_blocks(self):
        # in these chain rows eigenvalues of two different blocks share
        # their real part to within tol
        spectra = _chain_spectra(300, 25)
        assert _wide_window_rows(spectra) == [31, 244]
        rows = spectra[[31, 244]]
        assert np.array_equal(blockcirc._pair_batch(rows), _greedy_pairing(rows))
        # and the same with the real parts made exactly equal
        row = spectra[0].copy()
        partner = oracles.pair_conjugates(row)
        i, k = np.flatnonzero(np.arange(row.size) < partner)[:2]
        row[[k, partner[k]]] = row[i].real + 1j * row[[k, partner[k]]].imag
        assert _wide_window_rows(row[None]) == [0]
        assert np.array_equal(_pair(row), oracles.pair_conjugates(row))

    def test_three_pairs_on_one_real_part(self):
        # six eigenvalues with one real part: every one is in the others' window
        row = np.array([1 - 2j, 4.0, 1 + 3j, 1 + 1j, 1 - 3j, -1.0, 1 + 2j, 1 - 1j])
        assert _pair(row).tolist() == [6, 1, 4, 7, 2, 5, 0, 3]
        assert np.array_equal(_pair(row), oracles.pair_conjugates(row))

    def test_partner_beyond_the_nearest_real_part(self):
        # sorted by real part: 1 + 1j, the other pair's two, then its partner
        # three places on; its nearest neighbour by real part is no conjugate
        row = np.array([1 + 1j, 1 + 1e-9 + 2j, 1 + 1e-9 - 2j, 1 + 2e-9 - 1j, 5.0])
        assert _pair(row).tolist() == [3, 2, 1, 0, 4]
        assert np.array_equal(_pair(row), oracles.pair_conjugates(row))

    def test_tie_in_a_wide_window_is_refused(self):
        # row 2 holds one conjugate pair twice among three pairs on one real
        # part: 1 + 2j has two conjugates at distance 0
        spectra = np.array(
            [
                [1 + 1j, 1 - 1j, 1 + 2j, 1 - 2j, 1 + 3j, 1 - 3j],
                [2.0, 1 + 1j, 1 - 1j, 3.0, 1 + 2j, 1 - 2j],
                [1 + 1j, 1 - 1j, 1 + 2j, 1 - 2j, 1 + 2j, 1 - 2j],
            ]
        )
        with pytest.raises(ValueError, match="spectrum row 2 "):
            blockcirc._pair_batch(spectra)
        assert np.array_equal(blockcirc._pair_batch(spectra[:2]), _greedy_pairing(spectra[:2]))

    @pytest.mark.parametrize("sampler", [blockcirc.sample_gaussian_blocks, blockcirc.sample_ising_blocks])
    def test_spectra_scaled_by_2_to_the_minus_500(self, sampler):
        spectra = blockcirc.batch_block_spectra(sampler(25, 300, np.random.default_rng(7)))
        tiny = spectra * 2.0**-500
        assert np.array_equal(blockcirc._pair_batch(tiny), _greedy_pairing(tiny))
        assert np.array_equal(blockcirc._pair_batch(tiny), blockcirc._pair_batch(spectra))

    @pytest.mark.parametrize("instance", [_gauss_instance, _ising_instance])
    def test_one_row_batch_through_eigenvalues_block(self, instance):
        spec = blockcirc.eigenvalues_block(instance(25, np.random.default_rng(3)))
        assert np.array_equal(spec.partner, oracles.pair_conjugates(spec.eigs))

    @pytest.mark.parametrize("instance", [_gauss_instance, _ising_instance])
    def test_one_row_batch_keeps_every_pair(self, instance):
        # a one-row batch has one pairing per row, not a shared one: every cc
        # pair and one of each rc and generic pair and its twin is kept, and
        # the multiplicities count every qualifying pair, as the oracle does
        spectra = blockcirc.eigenvalues_block(instance(25, np.random.default_rng(5))).eigs[None]
        _assert_halved_greedy(blockcirc.classify_block_batch(spectra), spectra)

    def test_tie_in_a_later_step_names_its_batch_row(self):
        # 81 rows a step at N = 25: row 417 is the 13th row of the sixth step
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(25, 600, np.random.default_rng(417))
        )
        assert circulant._step_rows(8 * spectra.shape[1]) == 81
        row = spectra[417]
        partner = oracles.pair_conjugates(row)
        i, k = np.flatnonzero(np.arange(row.size) < partner)[:2]
        row[k], row[partner[k]] = row[i], row[partner[i]]  # duplicate a conjugate pair
        with pytest.raises(ValueError, match="spectrum row 417 "):
            blockcirc._pair_batch(spectra)
        with pytest.raises(ValueError, match="spectrum row 417 "):
            blockcirc.classify_block_batch(spectra)

    @pytest.mark.parametrize(
        "sampler, low, high",
        [(blockcirc.sample_gaussian_blocks, 0, 0), (blockcirc.sample_ising_blocks, 1, 14)],
    )
    def test_share_of_rows_with_a_wide_window(self, sampler, low, high):
        # at most 14 of 300 (under 5 %); seed 25 gives 2 chain rows
        spectra = blockcirc.batch_block_spectra(sampler(25, 300, np.random.default_rng(25)))
        assert low <= len(_wide_window_rows(spectra)) <= high
        assert np.array_equal(blockcirc._pair_batch(spectra), _greedy_pairing(spectra))

    def test_scratch_grows_with_the_row_length(self):
        # 64 chain rows at N = 250: the pairing holds a few arrays of one
        # step's rows, far below one row's 500 x 500 distance matrix (5.7 MiB)
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_ising_blocks(250, 64, np.random.default_rng(7))
        )
        tracemalloc.start()
        try:
            partner = blockcirc._pair_batch(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(partner, _greedy_pairing(spectra))

    def test_partners_are_four_byte_indices(self):
        # every index is below 2N, and the partners stay alive through the
        # whole class split, so they take 4 bytes an eigenvalue, not 8
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_ising_blocks(25, 300, np.random.default_rng(9))
        )
        partner = blockcirc._pair_batch(spectra)
        assert partner.dtype.itemsize == 4
        assert np.array_equal(partner, _greedy_pairing(spectra))


class TestExactTwins:
    """Mode N-l is written as the conjugates of mode l, so every eigenvalue's
    twin (``oracles.block_twins``) is its conjugate bit for bit, and the class
    split refuses a row where it is not."""

    @pytest.mark.parametrize("n", [4, 10, 24, 25, 101])
    @pytest.mark.parametrize("ensemble", sorted(_SAMPLERS))
    def test_every_eigenvalue_has_an_exact_twin(self, ensemble, n):
        # through the complex transform the chain's mode N/2 (at N = 10) and
        # mode 0 (at N = 101) were real only to rounding; the real-input
        # transforms keep the entries' exact zeros in those modes
        blocks = _SAMPLERS[ensemble](n, 20, np.random.default_rng(n))
        for row in blockcirc.batch_block_spectra(blocks):
            assert np.array_equal(row[oracles.block_twins(row)], row.conj())

    @pytest.mark.parametrize("ensemble", sorted(_SAMPLERS))
    def test_twin_one_ulp_off_is_refused(self, ensemble):
        # 26 rows a step at N = 25: row 41 is in the second step.  One ulp is
        # far inside the pairing tolerance, so only the twin check refuses it
        spectra = blockcirc.batch_block_spectra(_SAMPLERS[ensemble](25, 60, np.random.default_rng(3)))
        assert circulant._step_rows(50 * 49 // 2) == 26
        row = spectra[41]
        row[48] = complex(np.nextafter(row[48].real, np.inf), row[48].imag)  # E+ of mode 24
        assert np.array_equal(blockcirc._pair_batch(spectra), _greedy_pairing(spectra))
        with pytest.raises(ValueError, match="spectrum row 41 has no exact twins"):
            blockcirc.classify_block_batch(spectra)

    def test_chain_twins_are_by_mode_not_by_tolerance(self):
        # at N = 24 the chain's modes 8 and 16 hold eigenvalues with |Im| near
        # 1e-16, which the tolerance calls real, so each is its own partner;
        # its twin is its conjugate in the other mode
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_ising_blocks(24, 40, np.random.default_rng(24))
        )
        partner = blockcirc._pair_batch(spectra)
        idx = np.arange(48)
        for row, part in zip(spectra, partner):
            moved = (part == idx) & (oracles.block_twins(row) != idx)
            assert np.flatnonzero(moved).tolist() == [16, 17, 32, 33]
        got = blockcirc.classify_block_batch(spectra)
        _assert_halved_greedy(got, spectra)
        # the same halving with the tolerance partner as the twin keeps other
        # rc pairs, whose dropped twins are not the kept values
        by_partner = []
        for row, part in zip(spectra, partner):
            a, b = oracles.spacing_pairs(circulant.Spectrum(row, part))[1]
            first = oracles.first_of_twins(part, a, b)
            by_partner.append(np.abs(row[a[first]] - row[b[first]]))
        assert got[1].values.tobytes() != np.concatenate(by_partner).tobytes()


class TestModesWithoutConjugates:
    """A complex block row whose spectrum is not closed under conjugation
    gets its upper modes solved as they are, not written as conjugates."""

    @staticmethod
    def _row():
        # random complex blocks 1-4, and block 0 such that the blocks sum to
        # diag(1, 3)
        rng = np.random.default_rng(11)
        blocks = np.empty((5, 2, 2), dtype=complex)
        blocks[1:] = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        blocks[0] = np.diag([1.0, 3.0]) - blocks[1:].sum(axis=0)
        return blocks

    def test_spectrum_matches_the_dense_one(self):
        blocks = self._row()
        dense = np.linalg.eigvals(BlockCirculant(blocks).dense())
        assert oracles.multiset_distance(dense, dense.conj()) > 1.0
        # alone, and as one row among chain rows, which keep their exact twins
        stack = blockcirc.sample_ising_blocks(5, 7, np.random.default_rng(12))
        stack[3] = blocks
        spectra = blockcirc.batch_block_spectra(stack)
        assert oracles.multiset_distance(spectra[3], dense) <= 1e-9
        alone = blockcirc.batch_block_spectra(blocks[None])[0]
        assert oracles.multiset_distance(alone, dense) <= 1e-9
        for row in np.delete(spectra, 3, axis=0):
            assert np.array_equal(row[oracles.block_twins(row)], row.conj())

    def test_eigenvalues_block_refuses_it(self):
        with pytest.raises(ValueError, match="spectrum row 0 cannot be paired"):
            blockcirc.eigenvalues_block(BlockCirculant(self._row()))

    def test_nearly_closed_row_is_solved(self):
        # every mode is the Jordan block [[1, 1], [0, 1]] plus i 1e-10 (w^l - 1)
        # in entry (1, 0): mode N-l is conjugate to mode l only to about
        # 1e-10, and its eigenvalues, 1 +- sqrt of that entry, to about 1e-5
        blocks = np.zeros((5, 2, 2), dtype=complex)
        blocks[0] = [[1.0, 1.0], [-1e-10j, 1.0]]
        blocks[1, 1, 0] = 1e-10j
        dense = np.linalg.eigvals(BlockCirculant(blocks).dense())
        assert oracles.multiset_distance(dense, dense.conj()) > 1e-6
        spectra = blockcirc.batch_block_spectra(blocks[None])[0]
        assert oracles.multiset_distance(spectra, dense) <= 1e-9
        with pytest.raises(ValueError, match="spectrum row 0 cannot be paired"):
            blockcirc.eigenvalues_block(BlockCirculant(blocks))


class TestGaussianBlockLaws:
    """Reduced-size law checks; the full-size run is in the acceptance suite."""

    def test_all_three_classes(self):
        rng = np.random.default_rng(59)
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(25, 1500, rng)
        )
        cc, rc, gen = blockcirc.classify_block_batch(spectra)
        laws = (stats.cdf_cc, stats.cdf_rc, stats.cdf_generic)
        for klass, sample, cdf in zip(("cc", "rc", "generic"), (cc, rc, gen), laws):
            z = stats.normalize_unit_mean(sample.values)
            rep = stats.ks_statistic(np.sort(z), cdf, 0.02)
            assert rep.passed, (klass, rep.ks_distance)


class TestIsingEnsembleStatistics:
    def test_spectrum_conjugation_closed(self):
        rng = np.random.default_rng(60)
        spec = blockcirc.eigenvalues_block(_ising_instance(25, rng))
        assert oracles.multiset_distance(spec.eigs, np.conj(spec.eigs)) < 1e-9

    def test_cc_class_matches_half_gaussian_law(self):
        """Coupled-chain cc spacings against the chain's closed-form law, KS < 0.05.

        Every block of a realization shares the same four draws (a1, a2, b1,
        b2), so the independent-Fourier-mode argument behind the scalar
        half-Gaussian law does not apply; the cc spacing of block l is
        2 |Im sqrt(D_l)| with D_l derived in docs/decisions.md (coupled-chain
        cc law).  The reference is an independent closed-form sample from
        ``oracles.coupled_chain_cc_spacings``.  The name keeps
        "half_gaussian" for history; the half-Gaussian distance (~0.32) is
        printed with the rc and generic tail diagnostics, recorded, not
        asserted.
        """
        rng = np.random.default_rng(61)
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_ising_blocks(25, 10_000, rng)
        )
        cc, rc, gen = blockcirc.classify_block_batch(spectra)
        diag = {}
        laws = (stats.cdf_rc, stats.cdf_generic, stats.cdf_cc)
        for klass, sample, cdf in zip(("rc", "generic", "cc"), (rc, gen, cc), laws):
            z = stats.normalize_unit_mean(sample.values)
            rep = stats.ks_statistic(np.sort(z), cdf, 1.0)
            tail_mass = float(np.mean(z > 3.0))
            diag[klass] = (rep.ks_distance, tail_mass)
        print(
            "coupled-chain (KS against the scalar law, tail mass) diagnostics "
            f"(recorded, not asserted): {diag}"
        )
        z = stats.normalize_unit_mean(cc.values)
        ref = oracles.coupled_chain_cc_spacings(25, 20_000, np.random.default_rng(161))
        ks = stats.ks_two_sample(z, ref / ref.mean())
        assert ks < 0.05, (
            f"cc-class two-sample KS {ks:.4f} >= 0.05 against the coupled-chain "
            "closed-form cc law"
        )


def _dense_cc(m):
    """cc spacings read off a dense spectrum: each conjugate pair has one
    member with positive imaginary part, and its spacing is twice that."""
    eigs = np.linalg.eigvals(m)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(eigs))))
    return np.sort(2.0 * eigs.imag[eigs.imag > tol])


class TestCoupledChainOracle:
    """The closed-form chain law in ``oracles`` against a dense eigensolver."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 24, 25])
    def test_closed_form_matches_dense(self, n):
        rng = np.random.default_rng(62)
        for a1, a2, b1, b2 in rng.normal(size=(6, 4)):
            m = oracles.coupled_chain_dense(n, a1, a2, b1, b2)
            eigs = oracles.coupled_chain_eigs(n, a1, a2, b1, b2)[0]
            assert oracles.multiset_distance(eigs, np.linalg.eigvals(m)) <= 1e-9
            cc = np.sort(oracles.coupled_chain_cc_from_params(n, a2, b1, b2))
            dense = _dense_cc(m)
            assert cc.size == dense.size
            assert np.allclose(cc, dense, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "params, real_blocks",
        [
            # uv > 0, uv + beta^2 > 0, D_0 < 0: blocks N/3, N/2, 2N/3 real
            ((0.3, 1.0, 0.1, 0.1), 3),
            # uv < 0, uv + beta^2 > 0, D_0 > 0: blocks 0, N/3, 2N/3 real
            ((0.3, 1.0, 2.0, -0.5), 3),
            # uv < 0, uv + beta^2 > 0, D_0 < 0: blocks N/3, 2N/3 real
            ((0.3, 0.1, 1.0, 0.3), 2),
        ],
    )
    def test_real_blocks_never_count_as_cc(self, params, real_blocks):
        # at N = 24 the exactly-real D_l are at blocks 0, 8, 12 and 16; 8 and
        # 16 share their eigenvalues (D = uv + beta^2 >= 0 always), and 12
        # pairs with itself
        a1, a2, b1, b2 = params
        m = oracles.coupled_chain_dense(24, a1, a2, b1, b2)
        d = oracles.coupled_chain_discriminants(24, a2, b1, b2)[0]
        special = d[[0, 8, 12, 16]]
        assert np.all(special.imag == 0.0)
        assert np.sum(special.real >= 0.0) == real_blocks
        cc = oracles.coupled_chain_cc_from_params(24, a2, b1, b2)
        assert cc.size == 24 - real_blocks
        assert np.all(cc > 0.0)
        assert np.allclose(np.sort(cc), _dense_cc(m), rtol=0.0, atol=1e-9)

    def test_n3_chain_is_hermitian_without_cc(self):
        rng = np.random.default_rng(63)
        for a1, a2, b1, b2 in rng.normal(size=(20, 4)):
            m = oracles.coupled_chain_dense(3, a1, a2, b1, b2)
            assert np.array_equal(m, m.conj().T)
            assert oracles.coupled_chain_cc_from_params(3, a2, b1, b2).size == 0

    def test_oracle_draws_match_sampler_layout(self):
        # same generator state, same (a1, a2, b1, b2) order: the oracle and
        # the sampler build the same matrices
        blocks = blockcirc.sample_ising_blocks(5, 3, np.random.default_rng(64))
        a1, a2, b1, b2 = np.random.default_rng(64).normal(size=(4, 3))
        for k in range(3):
            dense = oracles.coupled_chain_dense(5, a1[k], a2[k], b1[k], b2[k])
            assert np.array_equal(BlockCirculant(blocks[k]).dense(), dense)
