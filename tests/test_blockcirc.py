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

    def test_degenerate_spectrum_pairs_by_mode(self):
        # (A, 0, 0, 0) has every transform block equal to A, whose eigenvalues
        # are +-i: four copies of each, so nearest conjugates tie.  Each is
        # paired with its twin, and any pairing gives the same classes
        blocks = np.zeros((4, 2, 2), dtype=complex)
        blocks[0] = np.array([[0.0, -1.0], [1.0, 0.0]])
        b = BlockCirculant(blocks)
        spec = blockcirc.eigenvalues_block(b)
        assert oracles.multiset_distance(spec.eigs, np.linalg.eigvals(b.dense())) < 1e-12
        assert spec.partner.tolist() == [1, 0, 6, 7, 5, 4, 2, 3]
        got = blockcirc.classify_block_batch(spec.eigs[None])
        greedy = oracles.classify_spacings(
            circulant.Spectrum(spec.eigs, oracles.pair_conjugates(spec.eigs))
        )
        for values, want, pairs in zip(got, greedy, (1, 2, 2)):
            assert np.sort(np.repeat(values, pairs)).tobytes() == np.sort(want).tobytes()

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


def _two_mode_blocks(mode0, mode1):
    """N = 2 blocks (A0, A1) whose transform blocks are A0 + A1 = mode0
    and A0 - A1 = mode1."""
    mode0, mode1 = np.asarray(mode0, dtype=float), np.asarray(mode1, dtype=float)
    return BlockCirculant(np.stack([(mode0 + mode1) / 2, (mode0 - mode1) / 2]))


class TestConjugatePairing:
    def test_manual_spectrum(self):
        # mode 0 holds the reals 2 and -3, mode 1 the pair 1 +- i
        blocks = _two_mode_blocks(np.diag([2.0, -3.0]), [[1.0, -1.0], [1.0, 1.0]])
        spec = blockcirc.eigenvalues_block(blocks)
        assert oracles.multiset_distance(spec.eigs, [2.0, -3.0, 1 + 1j, 1 - 1j]) < 1e-15
        assert spec.partner.tolist() == [0, 1, 3, 2]

    def test_tolerance_scale(self):
        # +-1e-12 i is within the tolerance 5e-9 of the real axis
        near_real = [[0.0, -1e-12], [1e-12, 0.0]]
        spec = blockcirc.eigenvalues_block(_two_mode_blocks(near_real, 5.0 * np.eye(2)))
        assert np.all(spec.eigs.imag[:2] != 0)
        assert spec.partner.tolist() == [0, 1, 2, 3]

    def test_tolerance_is_relative(self):
        # scaling a spectrum by a power of two is exact, so it must not
        # change which eigenvalues are real, however small the scale; a cc
        # spacing, 2 |Im e|, scales exactly too
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(25, 50, np.random.default_rng(1))
        )
        want = blockcirc.classify_block_batch(spectra)
        assert want[0].size, "the draw must have complex pairs"
        for power in (-20, -40, -100, -500):
            got = blockcirc.classify_block_batch(spectra * 2.0**power)
            assert [values.size for values in got] == [values.size for values in want]
            assert got[0].tobytes() == (want[0] * 2.0**power).tobytes()

    def test_unpaired_complex_rejected(self):
        # one self-paired mode whose E+ is complex and whose E- is not its
        # conjugate
        with pytest.raises(ValueError, match="spectrum row 0 cannot be paired"):
            blockcirc.classify_block_batch(np.array([[1.0 + 1.0j, 2.0]]))


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
    and with a cc value standing for one pair and an rc or generic value
    for two they make up every pair of the oracle."""
    want, counts = _greedy_classes(spectra)
    for k, (values, expect) in enumerate(zip(got, want)):
        assert values.tobytes() == expect.tobytes(), k
    assert [pairs * values.size for pairs, values in zip((1, 2, 2), got)] == counts


class TestBatchedPairing:
    """Pairing by mode index must reproduce the greedy oracle
    ``oracles.pair_conjugates`` exactly, partners and class bytes alike, and
    refuse rows without exact twins or with a non-finite entry."""

    @pytest.mark.parametrize(
        "sampler, n",
        [
            (sampler, n)
            for sampler in (blockcirc.sample_gaussian_blocks, blockcirc.sample_ising_blocks)
            for n in (6, 24, 25, 26, 250)
        ],
    )
    def test_matches_greedy_row_by_row(self, sampler, n):
        # at N >= 24, 300 rows span several steps, the last partial (16 rows
        # at N = 250, two full steps and a partial one); the same rows scaled
        # by 2^-500 pair and split the same way
        blocks = sampler(n, 16 if n == 250 else 300, np.random.default_rng(n))
        spectra = blockcirc.batch_block_spectra(blocks)
        for b in blocks:
            spec = blockcirc.eigenvalues_block(BlockCirculant(b))
            assert np.array_equal(spec.partner, oracles.pair_conjugates(spec.eigs))
        _assert_halved_greedy(blockcirc.classify_block_batch(spectra), spectra)
        tiny = spectra * 2.0**-500
        _assert_halved_greedy(blockcirc.classify_block_batch(tiny), tiny)

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
        assert [values.size for values in got] == [7, 8, 10]
        _assert_halved_greedy(got, spectra)

    def test_near_real_pair_counts_as_real(self):
        # |Im| = 1e-12 is inside the tolerance 2e-9: two reals, as in greedy
        spectra = np.array([[1.0 + 1e-12j, 1.0 - 1e-12j, 2.0 + 1.0j, 2.0 - 1.0j]])
        assert oracles.pair_conjugates(spectra[0]).tolist() == [0, 1, 3, 2]
        got = blockcirc.classify_block_batch(spectra)
        assert [values.size for values in got] == [1, 2, 0]
        _assert_halved_greedy(got, spectra)

    def test_tied_row_pairs_by_mode(self):
        # a duplicated conjugate pair ties greedy's nearest conjugates; each
        # eigenvalue is paired with its twin, and the classes are greedy's
        # as multisets, whichever way greedy settles the tie
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(6, 40, np.random.default_rng(5))
        )
        row = spectra[17]
        partner = oracles.pair_conjugates(row)
        i, k = np.flatnonzero(np.arange(row.size) < partner)[:2]  # two conjugate pairs
        row[k], row[partner[k]] = row[i], row[partner[i]]  # duplicate a conjugate pair
        got = blockcirc.classify_block_batch(spectra)
        rest = np.delete(spectra, 17, axis=0)
        _assert_halved_greedy(blockcirc.classify_block_batch(rest), rest)
        want, _ = _greedy_classes(spectra)
        for values, expect in zip(got, want):
            assert values.size == expect.size
            assert np.sort(values).tobytes() == np.sort(expect).tobytes()

    @pytest.mark.parametrize("instance", [_gauss_instance, _ising_instance])
    def test_one_row_batch_keeps_every_pair(self, instance):
        # a one-row batch has one pairing per row, not a shared one: every cc
        # pair and one of each rc and generic pair and its twin is kept, and
        # the stored values count every qualifying pair, as the oracle does
        spectra = blockcirc.eigenvalues_block(instance(25, np.random.default_rng(5))).eigs[None]
        _assert_halved_greedy(blockcirc.classify_block_batch(spectra), spectra)

    def test_non_finite_rows_are_refused(self):
        # 26 rows a step at N = 25: row 41 is in the second step.  A
        # non-finite eigenvalue and its twin written as conjugates pass the
        # twin check, so only the finiteness check refuses the row
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(25, 60, np.random.default_rng(4))
        )
        assert circulant._step_rows(50 * 49 // 2) == 26
        for bad in (np.inf, np.nan, complex(0.0, np.inf)):
            rows = spectra.copy()
            rows[41, 2], rows[41, 48] = bad, np.conj(bad)  # E+ of modes 1 and 24
            with pytest.raises(ValueError, match="spectrum row 41 cannot be paired"):
                blockcirc.classify_block_batch(rows)

    def test_row_not_closed_under_conjugation_raises(self):
        spectra = blockcirc.batch_block_spectra(
            blockcirc.sample_gaussian_blocks(6, 40, np.random.default_rng(6))
        )
        row = spectra[23]
        row[np.argmax(np.abs(row.imag))] *= 1.1
        with pytest.raises(ValueError, match="spectrum row 23 cannot be paired"):
            blockcirc.classify_block_batch(spectra)

    @pytest.mark.parametrize("ensemble", sorted(_SAMPLERS))
    def test_class_split_scratch_at_readme_size(self, ensemble):
        # the README block run's 10,000 rows at N = 25: beyond its three
        # class arrays the split holds one step's table and scratch, and no
        # array over the whole batch (3.76 MiB with a 4-byte partner per
        # eigenvalue, 1.9 MiB of it the partners)
        spectra = blockcirc.batch_block_spectra(
            _SAMPLERS[ensemble](25, 10_000, np.random.default_rng(7))
        )
        tracemalloc.start()
        try:
            classes = blockcirc.classify_block_batch(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(values.nbytes for values in classes) + 2.5 * 2**20


class TestSortedScreen:
    """``_pair_rows`` must give the greedy oracle's partners whatever the
    batch size and the scale of the spectra: a one-row batch through
    ``eigenvalues_block``, and whole batches scaled far below 1."""

    @pytest.mark.parametrize("sampler", [blockcirc.sample_gaussian_blocks, blockcirc.sample_ising_blocks])
    def test_spectra_scaled_by_2_to_the_minus_500(self, sampler):
        spectra = blockcirc.batch_block_spectra(sampler(25, 300, np.random.default_rng(7)))
        tiny = spectra * 2.0**-500
        maps = blockcirc._twin_maps(spectra.shape[1])
        partner, _ = blockcirc._pair_rows(tiny, 0, *maps)
        assert np.array_equal(partner, [oracles.pair_conjugates(row) for row in tiny])
        assert np.array_equal(partner, blockcirc._pair_rows(spectra, 0, *maps)[0])

    @pytest.mark.parametrize("instance", [_gauss_instance, _ising_instance])
    def test_one_row_batch_through_eigenvalues_block(self, instance):
        spec = blockcirc.eigenvalues_block(instance(25, np.random.default_rng(3)))
        assert np.array_equal(spec.partner, oracles.pair_conjugates(spec.eigs))


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
        # far inside the tolerance, and the greedy oracle pairs the row, but
        # the twin check refuses it
        spectra = blockcirc.batch_block_spectra(_SAMPLERS[ensemble](25, 60, np.random.default_rng(3)))
        assert circulant._step_rows(50 * 49 // 2) == 26
        row = spectra[41]
        row[48] = complex(np.nextafter(row[48].real, np.inf), row[48].imag)  # E+ of mode 24
        oracles.pair_conjugates(row)
        with pytest.raises(ValueError, match="spectrum row 41 cannot be paired"):
            blockcirc.classify_block_batch(spectra)

    def test_chain_twins_are_by_mode_not_by_tolerance(self):
        # at N = 24 the chain's modes 8 and 16 hold eigenvalues with |Im| near
        # 1e-16, which the tolerance calls real, so each is its own partner;
        # its twin is its conjugate in the other mode
        blocks = blockcirc.sample_ising_blocks(24, 40, np.random.default_rng(24))
        spectra = blockcirc.batch_block_spectra(blocks)
        partner = [blockcirc.eigenvalues_block(BlockCirculant(b)).partner for b in blocks]
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
        assert got[1].tobytes() != np.concatenate(by_partner).tobytes()


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
            z = stats.normalize_unit_mean(sample)
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
            z = stats.normalize_unit_mean(sample)
            rep = stats.ks_statistic(np.sort(z), cdf, 1.0)
            tail_mass = float(np.mean(z > 3.0))
            diag[klass] = (rep.ks_distance, tail_mass)
        print(
            "coupled-chain (KS against the scalar law, tail mass) diagnostics "
            f"(recorded, not asserted): {diag}"
        )
        z = stats.normalize_unit_mean(cc)
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
