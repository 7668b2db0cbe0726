import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmetro import correlations as co
from qmetro import fock, kraus

R1 = math.asinh(1.0)  # sinh^2 r = 1


def ket(entries, cutoff, modes=1):
    if modes == 1:
        amps = np.zeros(cutoff + 1, dtype=complex)
    else:
        amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for index, value in entries.items():
        amps[index] = value
    return fock.PureState(amps)


class TestCoherent:
    def test_vacuum_limit(self):
        state = fock.coherent(0.0, 4)
        assert state.amplitudes[0] == 1.0
        assert state.norm_squared == 1.0

    def test_ground_amplitude(self):
        state = fock.coherent(1.0, 20)
        assert state.amplitudes[0].real == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_poisson_distribution(self):
        alpha = 1.0
        dist = fock.number_distribution(fock.coherent(alpha, 25))
        expected = [
            math.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / math.factorial(n)
            for n in range(26)
        ]
        np.testing.assert_allclose(dist, expected, atol=1e-15)

    def test_truncation_overflow(self):
        # Poisson(4) mass beyond n=3 is 1 - e^-4 (1 + 4 + 8 + 32/6) ~ 0.567.
        deficit = 1.0 - math.exp(-4.0) * (1.0 + 4.0 + 8.0 + 32.0 / 6.0)
        assert deficit > 1e-6
        with pytest.raises(fock.TruncationOverflowError):
            fock.coherent(2.0, 3)

    def test_moderate_deficit_is_recorded_not_fatal(self):
        # between the 1e-10 default and the 1e-6 failure line the state is
        # returned with a tolerance that covers its measured loss
        state = fock.coherent(2.0, 19)
        assert 1e-10 < state.norm_deficit < 1e-6
        assert state.truncation_tol >= state.norm_deficit


def loop_coherent(alpha, cutoff):
    """The numpy-scalar loop fock.coherent ran before its Python-float recurrence."""
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps


def loop_squeezed_vacuum(r, phi, cutoff):
    """The numpy-scalar loop the squeezed-vacuum amplitudes ran before.

    Seeded with the standard library's cosh and tanh, as the recurrence now
    is: numpy's own differ from them by an ulp at about a quarter of r.
    """
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0 / np.sqrt(math.cosh(r))
    t = np.float64(math.tanh(r))
    rot = np.exp(2j * phi)
    for j in range(1, cutoff // 2 + 1):
        two_j = 2 * j
        amps[two_j] = -amps[two_j - 2] * t * rot * np.sqrt(two_j * (two_j - 1)) / two_j
    return amps


class TestRecurrences:
    # The Python-float recurrences give the numpy-scalar loops' values to the
    # last bit (array_equal: a zero may differ in sign), so no Fock row moves.

    @pytest.mark.parametrize("n_bar", [0.0, 1e-3, 0.5, 1.0, 4.0, 20.0, 100.0, 400.0, 1000.0, 1400.0])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, math.pi])
    def test_coherent_is_the_loop_bit_for_bit(self, n_bar, theta):
        alpha = math.sqrt(n_bar) * (1.0 if theta == 0.0 else complex(math.cos(theta), math.sin(theta)))
        cutoff = int(n_bar + 12.0 * math.sqrt(n_bar) + 18.0)
        assert np.array_equal(fock.coherent(alpha, cutoff).amplitudes, loop_coherent(alpha, cutoff))

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, R1, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("phi", [0.0, 0.3])
    def test_squeezed_vacuum_is_the_loop_bit_for_bit(self, r, phi):
        for cutoff in (2, 3, 10, 61, 127, 400, 800):
            assert np.array_equal(
                np.array(kraus.squeezed_vacuum_amplitudes(r, phi, cutoff), dtype=complex),
                loop_squeezed_vacuum(r, phi, cutoff),
            ), cutoff

    @pytest.mark.parametrize("n_bar", [1460.0, 1600.0, 3000.0])
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi])
    def test_bright_coherent_states_are_normalised(self, n_bar, theta):
        # e^{-n_bar/2} is subnormal above ~1417 and 0 above ~1490: the loop
        # from c_0 gave a squared norm 1 + 3.6e-7 at 1460 and 0 at 1600
        alpha = math.sqrt(n_bar) * (1.0 if theta == 0.0 else complex(math.cos(theta), math.sin(theta)))
        state = fock.coherent(alpha, co.oracle_cutoff("entangled_coherent", n_bar))
        assert abs(state.norm_squared - 1.0) <= 1e-12
        assert state.truncation_tol == fock.DEFAULT_TRUNCATION_TOL

    def test_bright_coherent_amplitudes_match_mpmath(self):
        mpmath.mp.dps = 40
        n_bar, cutoff = 1460.0, 1937
        amps = fock.coherent(math.sqrt(n_bar), cutoff).amplitudes
        for n in (900, 1300, 1459, 1460, 1461, 1700, cutoff):
            exact = mpmath.exp(-mpmath.mpf(n_bar) / 2 + n * mpmath.log(n_bar) / 2
                               - mpmath.loggamma(n + 1) / 2)
            assert abs(amps[n].real / float(exact) - 1.0) <= 1e-12, n
            assert amps[n].imag == 0.0

    def test_a_cutoff_below_a_bright_mean_is_refused_by_its_deficit(self):
        with pytest.raises(fock.TruncationOverflowError, match=r"deficit 1\.000e\+00 .*increase"):
            fock.coherent(40.0, 1000)
        with pytest.raises(fock.TruncationOverflowError, match="increase the cutoff"):
            fock.coherent(40.0, 1600)
        assert fock.coherent(40.0, 2099).norm_deficit <= 1e-12


class TestSqueezedVacuum:
    def test_known_amplitudes(self):
        state = fock.squeezed_vacuum(R1, 0.0, 40)
        # cosh r = sqrt(2), tanh r = 1/sqrt(2)
        assert state.amplitudes[0].real == pytest.approx(2.0 ** -0.25, rel=1e-13)
        assert state.amplitudes[2].real == pytest.approx(-0.5 * 2.0 ** -0.25, rel=1e-13)

    def test_zero_squeezing_is_vacuum(self):
        state = fock.squeezed_vacuum(0.0, 0.7, 8)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_odd_levels_empty(self):
        state = fock.squeezed_vacuum(0.9, 0.3, 50)
        assert np.max(np.abs(state.amplitudes[1::2])) < 1e-14

    def test_mean_occupation_is_sinh_squared(self):
        state = fock.squeezed_vacuum(R1, 0.0, 80)
        assert ladder_moments(state, 0.0)[0] == pytest.approx(1.0, abs=1e-9)

    def test_phase_matches_number_rotation(self):
        direct = fock.squeezed_vacuum(0.7, 0.4, 40)
        rotated = fock.phase_shift(fock.squeezed_vacuum(0.7, 0.0, 40), 0.4)
        np.testing.assert_allclose(direct.amplitudes, rotated.amplitudes, atol=1e-14)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            fock.squeezed_vacuum(-0.2, 0.0, 10)


class TestTwoModeConstructors:
    def test_noon(self):
        state = fock.noon(4, 6)
        assert state.amplitudes[4, 0] == pytest.approx(1 / math.sqrt(2))
        assert state.amplitudes[0, 4] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(state.amplitudes) == 2
        assert co.probe_statistics(fock.noon(2, 4)).mean_n_a == pytest.approx(1.0)

    def test_noon_needs_room(self):
        with pytest.raises(ValueError):
            fock.noon(5, 4)

    def test_twin_fock(self):
        # |1,1> leaves the beam splitter as i (|2,0> + |0,2>)/sqrt2
        state = fock.twin_fock(1, 3)
        amps = state.amplitudes
        assert abs(amps[2, 0] - 1j / math.sqrt(2)) <= 1e-15
        assert abs(amps[0, 2] - 1j / math.sqrt(2)) <= 1e-15
        assert np.count_nonzero(amps) == 2

    def test_twin_fock_is_the_beam_split_twin_number_state(self):
        for m in range(1, 61):
            split = fock.beam_splitter(ket({(m, m): 1.0}, 2 * m, modes=2))
            assert np.max(np.abs(fock.twin_fock(m, 2 * m).amplitudes - split.amplitudes)) <= 1e-14, m

    def test_entangled_coherent_norm(self):
        alpha = 1.2
        state = fock.entangled_coherent(alpha, 30)
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)
        # the two branches overlap through <alpha|0>
        overlap = math.exp(-abs(alpha) ** 2)
        assert state.amplitudes[0, 0] == pytest.approx(
            2.0 * math.exp(-abs(alpha) ** 2 / 2) / math.sqrt(2.0 * (1.0 + overlap))
        )

    def test_entangled_coherent_degenerate_guard(self):
        with pytest.raises(ValueError):
            fock.entangled_coherent(1e-5, 10)

    def test_tmsv_schmidt_series(self):
        state = fock.two_mode_squeezed_vacuum(R1, 40)
        n = np.arange(41)
        expected = (1 / math.sqrt(2)) * (1 / math.sqrt(2)) ** n
        np.testing.assert_allclose(np.diag(state.amplitudes), expected, atol=1e-14)
        off_diagonal = state.amplitudes - np.diag(np.diag(state.amplitudes))
        assert np.max(np.abs(off_diagonal)) == 0.0


def eigh_beam_splitter(amps):
    """i^N exp[-i pi/4 (a^dag b + a b^dag)] block by block, one eigh per block."""
    c = amps.shape[0] - 1
    out = np.zeros_like(amps)
    for total in range(2 * c + 1):
        idx_a = np.arange(max(0, total - c), min(total, c) + 1)
        block = amps[idx_a, total - idx_a]
        n_a = idx_a[:-1]
        off = np.sqrt((n_a + 1.0) * (total - n_a))
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        rotated = (v * np.exp(-1j * math.pi / 4 * w)) @ (v.T @ block)
        out[idx_a, total - idx_a] = 1j ** (total % 4) * rotated
    return out


def bordered_multiplets(top):
    """R_T for T = 0..top by fock._multiplets' recursion, with R_{T-1} bordered by zeros."""
    rot = np.ones((1, 1))
    yield rot
    for total in range(1, top + 1):
        root = np.sqrt(np.arange(total + 1.0))
        rev = root[::-1]
        padded = np.zeros((total + 2, total + 2))  # padded[i + 1, j + 1] = R[i, j]
        padded[1:-1, 1:-1] = rot
        above = padded[:-1, :-1] * root - padded[:-1, 1:] * rev
        level = padded[1:, :-1] * root + padded[1:, 1:] * rev
        scale = 1.0 / (total * math.sqrt(2.0))
        rot = (scale * root)[:, None] * above + (scale * rev)[:, None] * level
        yield rot


def random_ket(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps)


class TestBeamSplitter:
    def test_hong_ou_mandel(self):
        out = fock.beam_splitter(ket({(1, 1): 1.0}, 4, modes=2))
        target = ket({(2, 0): 1 / math.sqrt(2), (0, 2): 1 / math.sqrt(2)}, 4, modes=2)
        assert fock.fidelity(target, out) == pytest.approx(1.0, abs=1e-13)
        assert abs(out.amplitudes[1, 1]) < 1e-13

    def test_vacuum_invariant(self):
        out = fock.beam_splitter(fock.product(fock.vacuum(5), fock.vacuum(5)))
        assert out.amplitudes[0, 0] == pytest.approx(1.0)

    def test_coherent_identity(self):
        alpha = 1.0
        out = fock.beam_splitter(fock.product(fock.coherent(alpha, 30), fock.vacuum(30)))
        target = fock.product(
            fock.coherent(1j * alpha / math.sqrt(2), 30),
            fock.coherent(alpha / math.sqrt(2), 30),
        )
        np.testing.assert_allclose(target.amplitudes, out.amplitudes, atol=1e-12)

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            fock.beam_splitter(fock.coherent(0.5, 10))

    def test_clipped_block_weight_is_recorded(self):
        # |1,1> at cutoff 1: its whole weight sits in the total-2 block, which
        # the cutoff cannot hold; cutoff 2 would hold it
        state = ket({(1, 1): 1.0}, 1, modes=2)
        assert fock.beam_splitter_overflow(state) == (1.0, 2)
        assert fock.beam_splitter(state).truncation_tol >= 1.0

    def test_small_clipped_weight_is_folded_into_the_tolerance(self):
        weight = 1e-8
        state = ket({(0, 0): math.sqrt(1.0 - weight), (2, 2): math.sqrt(weight)}, 2, modes=2)
        clipped, _ = fock.beam_splitter_overflow(state)
        assert clipped == pytest.approx(weight, rel=1e-12)
        out = fock.beam_splitter(state)
        assert out.truncation_tol == pytest.approx(state.truncation_tol + weight, rel=1e-12)

    def test_unclipped_input_keeps_its_tolerance(self):
        state = fock.product(fock.coherent(1.0, 30), fock.vacuum(30))
        assert fock.beam_splitter_overflow(state)[0] == 0.0
        assert fock.beam_splitter(state).truncation_tol == state.truncation_tol

    def test_clipped_weight_is_measured_only_when_a_clipped_block_is_occupied(
        self, monkeypatch
    ):
        calls = []
        measure = fock.beam_splitter_overflow

        def counting(state):
            calls.append(state.cutoff)
            return measure(state)

        monkeypatch.setattr(fock, "beam_splitter_overflow", counting)
        # the catalogue oracle measures its input once, and zeroes the
        # clipped blocks, so the splitter itself need not measure again
        co.oracle_probe(co.ProbeFamily.CAVES, 4.0)
        assert len(calls) == 1
        calls.clear()
        fock.beam_splitter(ket({(1, 1): 1.0}, 1, modes=2))
        assert len(calls) == 1

    def test_twin_fock_matches_per_block_eigh(self):
        # one occupied block, T = 2, among 65 complete ones that rotate to zero
        state = ket({(1, 1): 1.0}, 64, modes=2)
        out = fock.beam_splitter(state).amplitudes
        assert np.max(np.abs(out - eigh_beam_splitter(state.amplitudes))) <= 1e-15
        n = np.arange(65)
        assert np.all(out[n[:, None] + n[None, :] != 2] == 0.0)

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 64, 127, 200])
    def test_matches_per_block_eigh(self, cutoff):
        # every block, complete (the recursion) and clipped (eigh),
        # is applied to a random input; the clipped windows have every length
        # from 1 to the cutoff, odd and even
        amps = random_ket(np.random.default_rng(cutoff), (cutoff + 1, cutoff + 1))
        out = fock.beam_splitter(fock.PureState(amps)).amplitudes
        assert np.max(np.abs(out - eigh_beam_splitter(amps))) <= 1e-13

    def test_complete_blocks_are_orthogonal_up_to_total_400(self):
        for total, rot in enumerate(fock._multiplets(400)):
            assert rot.shape == (total + 1, total + 1)
            if total % 8 == 0:  # every eighth block keeps the test fast
                assert np.max(np.abs(rot.T @ rot - np.eye(total + 1))) <= 1e-13

    def test_recursion_is_bitwise_the_bordered_one_up_to_total_200(self):
        # the column-scaled copies form the same products and sums as the
        # zero-bordered recursion, so the factors agree to the bit
        pairs = zip(fock._multiplets(200), bordered_multiplets(200), strict=True)
        for total, (rot, reference) in enumerate(pairs):
            assert np.array_equal(rot, reference), total

    def test_recursion_stays_accurate_at_total_400(self):
        # A random vector in the complete block of total 400.  A recurrence
        # that builds the block column by column from (i a^dag + b^dag)/sqrt2
        # alone is not isometric: its error grows with the total and it
        # diverges before 400.
        cutoff = 400
        k = np.arange(cutoff + 1)
        amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        amps[k, cutoff - k] = random_ket(np.random.default_rng(400), cutoff + 1)
        out = fock.beam_splitter(fock.PureState(amps)).amplitudes
        off = np.sqrt((k[:-1] + 1.0) * (cutoff - k[:-1]))
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        expected = (v * np.exp(-1j * math.pi / 4 * w)) @ (v.T @ amps[k, cutoff - k])
        assert np.max(np.abs(out[k, cutoff - k] - expected)) <= 1e-13

    def test_empty_blocks_skipped_without_changing_the_accounting(self):
        # input in one complete and one clipped block only; every other block,
        # including those between them, is exactly zero and must stay zero:
        # an empty complete block is rotated to zero, an empty clipped one skipped
        cutoff = 6
        amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        amps[1, 2] = math.sqrt(0.5)
        amps[4, 5] = math.sqrt(0.5)
        state = fock.PureState(amps)
        assert fock.beam_splitter_overflow(state) == (pytest.approx(0.5), 9)
        out = fock.beam_splitter(state)
        assert out.truncation_tol == state.truncation_tol + fock.beam_splitter_overflow(state)[0]
        np.testing.assert_allclose(out.amplitudes, eigh_beam_splitter(amps), atol=1e-15)
        n = np.arange(cutoff + 1)
        totals = n[:, None] + n[None, :]
        assert np.all(out.amplitudes[(totals != 3) & (totals != 9)] == 0.0)


class TestPhaseShift:
    def test_identity(self):
        state = fock.coherent(0.7, 15)
        out = fock.phase_shift(state, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_two_photon_sign_flip(self):
        out = fock.phase_shift(ket({2: 1.0}, 4), math.pi / 2)
        assert out.amplitudes[2] == pytest.approx(-1.0)

    def test_convention_mode_mismatch(self):
        # the phase is single-mode: a two-mode ket or a mixed state is refused
        # as squeeze and loss refuse them, not by an AttributeError
        for state in (fock.loss(fock.vacuum(4), 0.5), fock.noon(1, 3)):
            with pytest.raises(ValueError, match=r"phase_shift\(\) acts on single-mode kets"):
                fock.phase_shift(state, 0.1)


class TestSqueeze:
    def test_vacuum_matches_constructor(self):
        out = fock.squeeze(fock.vacuum(64), R1)
        target = fock.squeezed_vacuum(R1, 0.0, 64)
        np.testing.assert_allclose(out.amplitudes, target.amplitudes, atol=1e-10)

    def test_zero_is_identity(self):
        state = fock.coherent(0.5, 20)
        assert fock.squeeze(state, 0.0) is state

    def test_unsqueeze_returns_vacuum(self):
        state = fock.squeezed_vacuum(R1, 0.0, 64)
        out = fock.squeeze(state, -R1)
        assert fock.fidelity(fock.vacuum(64), out) >= 1.0 - 1e-8

    def test_cutoff_headroom_enforced(self):
        with pytest.raises(fock.TruncationOverflowError):
            fock.squeeze(fock.vacuum(12), 1.5)

    def test_keeps_the_padded_weight_past_the_cutoff_as_the_spill(self):
        # squeeze() applies the unitary on 2 (cutoff + 1) levels and keeps
        # the first cutoff + 1; the weight above them is its truncation deficit
        state = fock.squeezed_vacuum(0.5, 0.2, 64)
        full = fock._apply_squeeze(np.pad(state.amplitudes, (0, 65)), 0.5)
        spill = np.sum(np.abs(full[65:]) ** 2)
        assert spill > 1e-10
        restricted = fock.squeeze(state, 0.5)
        np.testing.assert_array_equal(restricted.amplitudes, full[:65])
        assert restricted.truncation_tol >= spill

    def test_refuses_density_matrices(self):
        # a density matrix given as an array is refused, not squeezed as a ket
        with pytest.raises(ValueError, match="single-mode kets"):
            fock.squeeze(np.eye(9) / 9.0, 0.2)

    def test_refuses_branch_states(self):
        mixed = fock.loss(fock.coherent(1.0, 20), 0.5)
        with pytest.raises(ValueError, match="not mixed states"):
            fock.squeeze(mixed, 0.2)


def mp_squeezed_vacuum(r, size):
    """c_{2j} = (-1)^j sqrt((2j)!) / (2^j j!) tanh(r)^j / sqrt(cosh r), to 40 digits."""
    out = np.zeros(size, dtype=complex)
    with mpmath.workdps(40):
        t = mpmath.tanh(mpmath.mpf(r))
        c = 1 / mpmath.sqrt(mpmath.cosh(mpmath.mpf(r)))
        for j in range((size + 1) // 2):
            out[2 * j] = float(c)
            c *= -t * mpmath.sqrt((2 * j + 1) * (2 * j + 2)) / (2 * j + 2)
    return out


def schrodinger_moments(state, r):
    """<n>, <n^2> and <a^2> after squeeze(-r), by anti-squeezing the kets themselves.

    The Schroedinger-picture readout, kept as the reference for the
    Heisenberg one: every ket (or branch ket) is un-squeezed in a working
    basis that doubles until the population at its edge is below 1e-24, and
    the moments are read from the evolved kets.  An edge of 1e-9, which
    bounds weight rather than fourth moments, leaves <n^2> up to 1e-7 off.
    """
    array = state.branches if isinstance(state, fock.MixedState) else state.amplitudes
    dim = array.shape[0]
    work = 2 * max(dim, 32)
    while True:
        padded = np.zeros((work,) + array.shape[1:], dtype=complex)
        padded[:dim] = array
        out = fock._apply_squeeze(padded, -r)
        weights = np.abs(out) ** 2
        if out.ndim == 2:
            weights = weights.sum(axis=1)
        if weights[-4:].sum() <= 1e-24:
            break
        assert work < 8192, "no convergence below dimension 8192"
        work *= 2
    n = np.arange(work, dtype=float)
    coeff = np.sqrt(n[2:] * n[1:-1]).reshape((-1,) + (1,) * (out.ndim - 1))
    return n @ weights, (n**2) @ weights, complex(np.sum(out[:-2].conj() * coeff * out[2:]))


def ladder_moments(state, r):
    """<n>, <n^2> and <a^2> after squeeze(-r), read in the Heisenberg picture with numpy.

    squeeze(-r) sends a to b = a cosh r + a^dag sinh r, so for the kets phi_k
    of a ket or of a :class:`fock.MixedState` the moments are the sums over k
    of ||b phi_k||^2, ||b^dag b phi_k||^2 and <b^dag phi_k|b phi_k>, taken on
    phi_k padded by the two levels b^dag b raises it by.  The reference for
    :mod:`qmetro.kraus`'s readout, itself checked against the Schroedinger
    readout.
    """
    array = state.branches if isinstance(state, fock.MixedState) else state.amplitudes
    padded = np.pad(array, [(0, 2)] + [(0, 0)] * (array.ndim - 1))
    ch, sh = math.cosh(r), math.sinh(r)
    b = ladder(padded, ch, sh)
    a2 = complex(np.vdot(ladder(padded, sh, ch), b))
    bdag_b = ladder(b, sh, ch)
    return float(np.vdot(b, b).real), float(np.vdot(bdag_b, bdag_b).real), a2


def ladder(x, lower, upper):
    """(lower a + upper a^dag) x over the rows of x, exact while its last row is zero."""
    root = np.sqrt(np.arange(1.0, x.shape[0])).reshape((-1,) + (1,) * (x.ndim - 1))
    out = np.zeros_like(x)
    out[:-1] = (lower * root) * x[1:]
    out[1:] += (upper * root) * x[:-1]
    return out


def unsqueeze_reference_states():
    probe = fock.phase_shift(fock.squeezed_vacuum(0.8814, 0.0, 64), -0.3)
    return {
        "coherent": fock.coherent(1.0, 40),
        "squeezed": probe,
        "random": fock.PureState(np.pad(random_ket(np.random.default_rng(5), 6), (0, 34))),
        "branches": fock.loss(probe, 0.7),
        "coherent-branches": fock.loss(fock.coherent(1.2, 40), 0.6),
    }


class TestUnsqueezedMoments:
    """The Heisenberg-picture reference readout against the Schroedinger one."""

    @pytest.mark.parametrize("name", list(unsqueeze_reference_states()))
    @pytest.mark.parametrize("r", [0.5, -0.5, 0.8814, 1.44])
    def test_matches_the_schrodinger_readout(self, name, r):
        state = unsqueeze_reference_states()[name]
        got = ladder_moments(state, r)
        for a, b in zip(got, schrodinger_moments(state, r)):
            assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)

    def test_undoing_the_squeeze_of_the_padded_probe_gives_vacuum(self):
        # the probe's tail past its cutoff weighs ~1e-10, but <n^2> after the
        # un-squeeze weights it by about (e^{2r} n)^2: cut off, it leaves 2e-7
        padded = fock.PureState(np.array(kraus.padded_probe(R1, 64)[0], dtype=complex))
        assert max(np.abs(ladder_moments(padded, R1))) <= 1e-11
        _, n2, _ = ladder_moments(fock.squeeze(fock.vacuum(64), R1), R1)
        assert n2 > 1e-7


def padded_generator(r, dim):
    """(r/2)(a^2 - a^dag^2) on ``dim`` levels, dense."""
    g = np.zeros((dim, dim))
    n = np.arange(2, dim)
    g[n - 2, n] = 0.5 * r * np.sqrt(n * (n - 1.0))
    g[n, n - 2] = -g[n - 2, n]
    return g


class TestSqueezeUnitary:
    """The eigendecomposition route against a matrix exponential of the generator."""

    @pytest.mark.parametrize("dim", [64, 122, 202, 402])
    @pytest.mark.parametrize("r", [0.5, -0.5, 1.44, -1.44, 2.5])
    def test_matches_expm(self, dim, r):
        expm = pytest.importorskip("scipy.linalg").expm
        u = fock._apply_squeeze(np.eye(dim, dtype=complex), r)
        reference = expm(padded_generator(r, dim))
        # squeeze() pads the basis to twice the state's dimension, so the state
        # occupies the first half of the columns.  Beyond them the comparison
        # is limited by expm's own error (its unitarity defect reaches ~1e-11
        # at dim 402, against ~2e-15 here).
        half = dim // 2
        assert np.max(np.abs(u[:, :half] - reference[:, :half])) <= 1e-12

    @pytest.mark.parametrize("dim", [64, 402])
    @pytest.mark.parametrize("r", [0.5, 1.44, 2.5])
    def test_unitary_and_transposed_inverse(self, dim, r):
        u = fock._apply_squeeze(np.eye(dim, dtype=complex), r)
        inverse = fock._apply_squeeze(np.eye(dim, dtype=complex), -r)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-13
        # the generator is real antisymmetric, so U(-r) = U(r)^T
        assert np.max(np.abs(inverse - u.T)) <= 1e-12


def kraus_loss(matrix, eta):
    """sum_j K_j rho K_j^dag for a density matrix, one Kraus operator at a time.

    The reference for :func:`fock.loss`, valid for every eta in [0, 1]: the
    powers carry the edges, where 0^0 = 1.
    """
    dim = matrix.shape[0]
    out = np.zeros_like(matrix)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    for j in range(dim):
        n = np.arange(j, dim)
        binom = np.exp(0.5 * (log_fact[n] - log_fact[n - j] - log_fact[j]))
        g = binom * (1.0 - eta) ** (0.5 * j) * eta ** (0.5 * (n - j))
        out[: dim - j, : dim - j] += np.outer(g, g) * matrix[j:, j:]
    return 0.5 * (out + out.conj().T)


def density(state):
    """rho = sum_k |phi_k><phi_k| of a ket or a mixed state."""
    array = state.branches if isinstance(state, fock.MixedState) else state.amplitudes[:, None]
    return array @ array.conj().T


def density_moments(rho):
    """<n>, <n^2> and <a^2> of a single-mode density matrix."""
    n = np.arange(rho.shape[0], dtype=float)
    pop = np.diag(rho).real
    a2 = complex(np.sum(np.sqrt(n[2:] * n[1:-1]) * np.diagonal(rho, offset=-2)))
    return float(n @ pop), float((n**2) @ pop), a2


def overlap(ket, mixed):
    """<a|rho|a> of a ket against a mixed state."""
    return float(np.sum(np.abs(ket.amplitudes.conj() @ mixed.branches) ** 2))


class TestLoss:
    @pytest.mark.parametrize("eta", [1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-9])
    def test_matches_kraus_sum(self, eta):
        rng = np.random.default_rng(7)
        for dim in range(1, 71):
            psi = random_ket(rng, dim)
            out = fock.loss(fock.PureState(psi), eta)
            reference = kraus_loss(np.outer(psi, psi.conj()), eta)
            assert np.max(np.abs(density(out) - reference)) <= 1e-14 * np.max(np.abs(reference))
            assert out.trace == pytest.approx(1.0, abs=1e-13)

    def test_full_transmission_is_identity(self):
        state = fock.coherent(1.0, 25)
        out = fock.loss(state, 1.0)
        np.testing.assert_allclose(density(out), density(state), atol=1e-14)

    def test_zero_transmission_gives_vacuum(self):
        out = fock.loss(fock.coherent(1.0, 25), 0.0)
        assert overlap(fock.vacuum(25), out) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_stays_coherent(self):
        out = fock.loss(fock.coherent(1.0, 25), 0.64)
        assert overlap(fock.coherent(0.8, 25), out) >= 1.0 - 1e-10

    def test_eta_range(self):
        with pytest.raises(ValueError):
            fock.loss(fock.vacuum(4), 1.2)

    def test_kraus_completeness(self):
        # sum_j K_j^dag K_j = 1 on the truncated space: the channel keeps the
        # trace of every number state, which it sends to Binomial(n, eta)
        for eta in (0.0, 0.3, 0.77, 1.0):
            for n in range(15):
                out = fock.loss(ket({n: 1.0}, 14), eta)
                assert out.trace == pytest.approx(1.0, abs=1e-12)
                binomial = [math.comb(n, k) * eta**k * (1 - eta) ** (n - k) for k in range(n + 1)]
                np.testing.assert_allclose(
                    np.diag(density(out)).real, binomial + [0.0] * (14 - n), atol=1e-12)


def reference_branches(state, eta):
    """phi_k[m] = B[m, m + k] psi[m + k] for every k, from the whole Kraus band."""
    psi = state.amplitudes
    dim = psi.size
    band = fock._loss_band(eta, fock._log_factorials(dim), 0, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        out[: dim - k, k] = band[k, : dim - k] * psi[k:]
    return out


class TestLossBranches:
    @pytest.mark.parametrize("eta", [0.0, 1e-6, 0.3, 0.9, 1.0])
    def test_branches_sum_to_the_loss_channel(self, eta):
        state = fock.squeezed_vacuum(0.8814, 0.3, 64)
        reference = kraus_loss(density(state), eta)
        assert np.max(np.abs(density(fock.loss(state, eta)) - reference)) <= 1e-14

    def test_dropped_branch_weight_leaves_the_trace(self):
        state = fock.squeezed_vacuum(0.8814, 0.3, 64)
        out = fock.loss(state, 0.9)
        kept = out.branches.shape[1]
        reference = reference_branches(state, 0.9)
        np.testing.assert_array_equal(out.branches, reference[:, :kept])
        weights = np.sum(np.abs(reference) ** 2, axis=0)
        dropped = math.fsum(weights[kept:])
        assert kept < 65 and 0.0 < dropped <= 1e-16
        # the trace counts the kept branches only, so the dropped weight is
        # part of trace_deficit, and the tolerance covers it
        assert out.trace == pytest.approx(math.fsum(weights[:kept]), abs=1e-14)
        assert out.trace_deficit == max(0.0, 1.0 - out.trace)
        assert out.truncation_tol >= state.norm_deficit + dropped

    def test_moments_match_the_density_matrix(self):
        state = fock.squeezed_vacuum(0.8814, 0.3, 64)
        n, n2, a2 = ladder_moments(fock.loss(state, 0.7), 0.0)
        ref_n, ref_n2, ref_a2 = density_moments(kraus_loss(density(state), 0.7))
        for value, expected in zip((n, n2, a2, n2 - n), (ref_n, ref_n2, ref_a2, ref_n2 - ref_n)):
            assert value == pytest.approx(expected, rel=1e-13)

    def test_branch_state_is_immutable(self):
        state = fock.loss(fock.coherent(1.0, 20), 0.5)
        with pytest.raises(AttributeError):
            state.branches = np.zeros((21, 1))
        with pytest.raises(ValueError):
            state.branches[0, 0] = 0.0
        with pytest.raises(ValueError, match="trace"):
            fock.MixedState(2.0 * state.branches)

    @pytest.mark.parametrize("eta,kept", [(0.9, 81), (0.5, 333)])
    def test_peak_memory_is_within_twice_the_branches(self, eta, kept):
        # n_bar 9 at cutoff 400, the protocol's probe: the branches are
        # written once, C-ordered, and handed to the state without a copy
        # (the transposed band product, copied and ravelled twice by the
        # trace, once peaked at 4x)
        probe = fock.PureState(np.array(kraus.padded_probe(math.asinh(3.0), 400)[0], dtype=complex))
        state = fock.phase_shift(probe, -0.3)
        fock.loss(state, eta)  # warm: the first call's allocations are not the loss's own
        tracemalloc.start()
        try:
            out = fock.loss(state, eta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        branches = out.branches
        assert branches.shape == (656, kept)
        assert branches.flags.c_contiguous and not branches.flags.writeable
        assert peak <= 2 * branches.nbytes
        # bitwise the branches of the band product B[k, m] psi[m + k]
        psi = state.amplitudes
        shifted = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([psi, np.zeros(psi.size - 1)]), psi.size
        )
        band = fock._loss_band(eta, fock._log_factorials(psi.size), 0, kept)
        expected = (band * shifted[:kept]).T
        assert branches.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_constructor_copies_its_callers_branches(self):
        branches = np.zeros((3, 1), dtype=complex)
        branches[0, 0] = 1.0
        state = fock.MixedState(branches)
        branches[0, 0] = 0.5
        assert state.branches[0, 0] == 1.0
        assert not np.shares_memory(state.branches, branches)

    def test_needs_a_single_mode_ket(self):
        with pytest.raises(ValueError):
            fock.loss(fock.loss(fock.vacuum(4), 0.5), 0.5)
        with pytest.raises(ValueError):
            fock.loss(fock.noon(1, 3), 0.5)


class TestMeasurements:
    # single-mode moments are read by ladder_moments at r = 0, two-mode ones
    # by correlations.probe_statistics

    def test_mean_photon_squeezed(self):
        n, _, _ = ladder_moments(fock.squeezed_vacuum(R1, 0.0, 80), 0.0)
        assert n == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_second_moment(self):
        assert ladder_moments(fock.vacuum(6), 0.0)[1] == 0.0

    def test_cross_nn_on_even_pair(self):
        state = ket({(2, 0): 1 / math.sqrt(2), (0, 2): 1 / math.sqrt(2)}, 4, modes=2)
        stats = co.probe_statistics(state)
        # <n_a n_b> = 0, so the covariance is -<n_a><n_b>
        assert stats.cov_nn + stats.mean_n_a * stats.mean_n_b == 0.0

    def test_a_squared_on_squeezed(self):
        # <a^2> of a squeezed vacuum is -cosh(r) sinh(r)
        state = fock.squeezed_vacuum(0.6, 0.0, 50)
        expected = -math.cosh(0.6) * math.sinh(0.6)
        _, _, a2 = ladder_moments(state, 0.0)
        assert a2 == pytest.approx(expected, rel=1e-10)

    def test_observable_moments_bundle(self):
        stats = co.probe_statistics(fock.noon(2, 4))
        assert (stats.mean_n_a, stats.mean_n_b) == pytest.approx((1.0, 1.0))
        assert stats.var_n_a == pytest.approx(1.0)


class TestProjection:
    def test_twin_squeezed_two_photon_sector(self):
        one = fock.squeezed_vacuum(0.6, 0.0, 30)
        projected = fock.project_total_photon(fock.product(one, one), 2)
        target = ket({(2, 0): 1 / math.sqrt(2), (0, 2): 1 / math.sqrt(2)}, 30, modes=2)
        assert fock.fidelity(target, projected) >= 1.0 - 1e-12

    def test_noon_is_eigenstate(self):
        state = fock.noon(4, 6)
        projected = fock.project_total_photon(state, 4)
        assert fock.fidelity(state, projected) == pytest.approx(1.0, abs=1e-14)

    def test_empty_sector(self):
        one = fock.squeezed_vacuum(0.6, 0.0, 30)
        with pytest.raises(fock.EmptyProjectionError):
            fock.project_total_photon(fock.product(one, one), 3)


class TestDistributions:
    def test_squeezed_odd_levels(self):
        dist = fock.number_distribution(fock.squeezed_vacuum(0.8, 0.0, 40))
        assert np.max(dist[1::2]) < 1e-28

    def test_vacuum(self):
        dist = fock.number_distribution(fock.vacuum(4))
        np.testing.assert_array_equal(dist, [1, 0, 0, 0, 0])


class TestStateInvariants:
    def test_norm_window_enforced(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 0.9
        with pytest.raises(ValueError):
            fock.PureState(amps)

    def test_amplitudes_read_only(self):
        state = fock.vacuum(4)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_tensor_shape_enforced(self):
        with pytest.raises(ValueError):
            fock.PureState(np.ones((2, 2, 2)) / math.sqrt(8))
        with pytest.raises(ValueError):
            fock.PureState(np.ones((2, 3)) / math.sqrt(6))


class TestArgumentValidation:
    def test_product_needs_matching_cutoffs(self):
        with pytest.raises(ValueError):
            fock.product(fock.vacuum(4), fock.vacuum(5))
        with pytest.raises(ValueError):
            fock.product(fock.noon(1, 3), fock.vacuum(3))

    def test_squeeze_rejects_two_modes(self):
        with pytest.raises(ValueError):
            fock.squeeze(fock.noon(1, 3), 0.2)

    @pytest.mark.parametrize(
        "route",
        [
            lambda state: fock.loss(state, 0.5),
            # a two-mode ket laid out as the one branch of a mixed state
            lambda state: fock.MixedState(state.amplitudes[:, :, None]),
        ],
        ids=["loss", "MixedState"],
    )
    def test_density_matrices_are_single_mode(self, route):
        with pytest.raises(ValueError):
            route(fock.noon(2, 3))

    def test_tmsv_rejects_negative_r(self):
        with pytest.raises(ValueError):
            fock.two_mode_squeezed_vacuum(-0.1, 10)

    def test_noon_needs_a_photon(self):
        with pytest.raises(ValueError):
            fock.noon(0, 3)


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def random_pure(draw, dim_shape, scale=1.0):
    values = draw(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False, width=32),
                st.floats(-1, 1, allow_nan=False, width=32),
            ),
            min_size=int(np.prod(dim_shape)),
            max_size=int(np.prod(dim_shape)),
        )
    )
    raw = np.array([complex(a, b) for a, b in values]).reshape(dim_shape)
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw.flat[0] += 1.0
        norm = np.linalg.norm(raw)
    return raw / norm


@st.composite
def one_mode_states(draw, cutoff=10):
    return fock.PureState(random_pure(draw, (cutoff + 1,)))


@st.composite
def two_mode_states(draw, cutoff=5):
    return fock.PureState(random_pure(draw, (cutoff + 1, cutoff + 1)))


@st.composite
def low_occupancy_states(draw, support=3, cutoff=96):
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[: support + 1] = random_pure(draw, (support + 1,))
    return fock.PureState(amps)


squeeze_parameters = st.sampled_from(tuple(np.linspace(-0.9, 0.9, 25).tolist()))


@given(one_mode_states(), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_loss_preserves_trace(state, eta):
    out = fock.loss(state, eta)
    assert abs(out.trace - state.norm_squared) < 1e-12


@given(two_mode_states())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_beam_splitter_conserves_photon_number(state):
    before = np.abs(state.amplitudes) ** 2
    after = np.abs(fock.beam_splitter(state).amplitudes) ** 2
    n = np.arange(state.cutoff + 1)
    totals = n[:, None] + n[None, :]
    for total in range(2 * state.cutoff + 1):
        mask = totals == total
        assert abs(before[mask].sum() - after[mask].sum()) < 1e-12


@given(low_occupancy_states(), squeeze_parameters)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_squeeze_roundtrip(state, r):
    back = fock.squeeze(fock.squeeze(state, r), -r)
    overlap = abs(np.vdot(state.amplitudes, back.amplitudes)) ** 2
    assert overlap >= 1.0 - 1e-8


@given(one_mode_states(), st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_phase_roundtrip(state, phi):
    back = fock.phase_shift(fock.phase_shift(state, phi), -phi)
    overlap = abs(np.vdot(state.amplitudes, back.amplitudes)) ** 2
    assert overlap >= 1.0 - 1e-12
