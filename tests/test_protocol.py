import math
import time

import numpy as np
import pytest

from qmetro import cli, fock, gaussian, protocol
from qmetro import correlations as co
from test_fock import density, density_moments, kraus_loss

R1 = math.asinh(1.0)


class TestProtocolConfig:
    def test_requires_one_of_nbar_r(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig(phi=0.1)

    def test_consistent_pair_refused(self):
        # exactly one of the two, as the CLI requires
        with pytest.raises(ValueError, match="exactly one of n_bar and r"):
            protocol.ProtocolConfig(phi=0.1, n_bar=1.0, r=R1)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="exactly one of n_bar and r"):
            protocol.ProtocolConfig(phi=0.1, n_bar=1.0, r=0.5)

    def test_negative_r_rejected_even_with_a_matching_n_bar(self):
        # a negative r would have the Fock engine squeeze along the other
        # axis: paired with a matching n_bar, which the Gaussian engine read,
        # its <a^2> once came out negated (moment_aa_deviation 2.0)
        with pytest.raises(ValueError, match="exactly one of n_bar and r"):
            protocol.ProtocolConfig(phi=0.3, n_bar=math.sinh(0.5) ** 2, r=-0.5)
        for r in (-0.5, 0.0):
            with pytest.raises(ValueError, match="r must be positive"):
                protocol.ProtocolConfig(phi=0.3, r=r)

    def test_conversion(self):
        config = protocol.ProtocolConfig(phi=0.1, r=0.5)
        assert config.n_bar_value == pytest.approx(math.sinh(0.5) ** 2)
        config = protocol.ProtocolConfig(phi=0.1, n_bar=2.0)
        assert config.r_value == pytest.approx(math.asinh(math.sqrt(2.0)))

    def test_ranges(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig(phi=0.1, n_bar=1.0, eta1=1.5)
        # gaussian.check_phi owns the phase domain
        outside, infinite = r"outside \[0, pi/2\]", "is not a finite number"
        for phi, match in ((-0.1, outside), (2.0, outside), (math.nan, infinite),
                           (math.inf, infinite)):
            with pytest.raises(ValueError, match=rf"^phi={phi!r} {match}"):
                protocol.ProtocolConfig(phi=phi, n_bar=1.0)
        with pytest.raises(ValueError, match="1e-150"):
            protocol.ProtocolConfig(phi=1e-200, n_bar=1.0)
        for kwargs in ({"n_bar": 1e-200}, {"r": 1e-160}):
            with pytest.raises(ValueError, match="smallest mean photon number 1e-150"):
                protocol.ProtocolConfig(phi=0.1, **kwargs)

    def test_default_cutoff_policy(self):
        # the smallest even cutoff whose squeezed-vacuum tail is <= 1e-10
        limit = fock.SQUEEZE_DEFICIT_LIMIT / 100.0
        for n_bar, expected in ((0.01, 8), (0.1, 16), (1.0, 60), (2.0, 102)):
            assert protocol.default_cutoff(n_bar) == expected
            r = math.asinh(math.sqrt(n_bar))
            assert fock.squeezed_vacuum(r, 0.0, expected).norm_deficit <= limit
            assert fock.squeezed_vacuum(r, 0.0, expected - 2).norm_deficit > limit
        assert protocol.ProtocolConfig(phi=0.1, n_bar=1.0).cutoff_value == 60
        assert protocol.ProtocolConfig(phi=0.1, n_bar=1.0, cutoff=30).cutoff_value == 30

    def test_default_cutoff_cap(self):
        with pytest.raises(fock.TruncationOverflowError, match=r"cutoff of 418254.*--cutoff"):
            protocol.default_cutoff(1e4)
        with pytest.raises(fock.TruncationOverflowError, match="more than"):
            protocol.default_cutoff(1e10)

    def test_squeeze_cutoff_has_no_cap(self):
        assert protocol.squeeze_cutoff(1.0) == (60, True)
        assert protocol.squeeze_cutoff(1e4) == (418254, True)
        needed, found = protocol.squeeze_cutoff(1e10)
        assert not found and needed >= protocol._CUTOFF_SEARCH_LIMIT

    def test_squeeze_overflow_names_a_cutoff_that_works(self):
        def config(cutoff):
            return protocol.ProtocolConfig(phi=0.3, n_bar=1.0, eta1=0.9, eta2=0.9, cutoff=cutoff)

        with pytest.raises(
            fock.TruncationOverflowError, match=r"^squeeze stage: .*use a cutoff of at least 60$"
        ):
            protocol.run_fock(config(30))
        result = protocol.run_fock(config(60))
        assert result.trace_deficit <= protocol.TRACE_DEFICIT_LIMIT


class TestRunGaussian:
    def test_reference_point(self):
        result = protocol.run_gaussian(protocol.ProtocolConfig(phi=math.pi / 2, n_bar=1.0))
        assert result.signal == pytest.approx(8.0, rel=1e-12)
        assert result.variance == pytest.approx(144.0, rel=1e-12)
        assert result.phase_error is None  # signal extremum

    def test_zero_phase_lossless(self):
        result = protocol.run_gaussian(protocol.ProtocolConfig(phi=0.0, n_bar=1.0))
        assert result.signal == pytest.approx(0.0, abs=1e-12)
        assert result.variance == pytest.approx(0.0, abs=1e-12)
        assert result.phase_error == 0.25
        assert result.phase_error_is_limit

    def test_zero_phase_with_loss_refused(self):
        with pytest.raises(gaussian.SingularOperatingPointError):
            protocol.run_gaussian(protocol.ProtocolConfig(phi=0.0, n_bar=1.0, eta1=0.9, eta2=0.9))

    def test_unequal_etas_use_error_propagation(self):
        # the closed form equals error propagation along the moment-map curve
        config = protocol.ProtocolConfig(phi=0.3, n_bar=1.0, eta1=0.95, eta2=0.85)
        result = protocol.run_gaussian(config)
        propagated = protocol.error_propagation(protocol.gaussian_signal_curve(config), 0.3)
        assert result.phase_error == pytest.approx(propagated, rel=1e-6)


HALF_PI = math.pi / 2


@pytest.mark.parametrize(
    "phi,eta1,eta2,expected",
    [
        (HALF_PI, 1.0, 1.0, None),  # signal maximum: sin 2phi is ~1e-16 there, not 0
        (HALF_PI, 0.9, 0.9, None),
        (HALF_PI, 0.9, 0.8, None),
        (0.3, 0.0, 0.9, None),  # the phase never reaches the detector
        (0.3, 0.0, 0.0, ValueError),  # `--eta 0`: no light reaches the detector
        (0.0, 1.0, 1.0, "limit"),
        (0.0, 0.9, 0.9, gaussian.SingularOperatingPointError),
        (0.0, 1.0, 0.9, gaussian.SingularOperatingPointError),
    ],
)
def test_edge_operating_points(phi, eta1, eta2, expected):
    n_bar = 2.0
    config = protocol.ProtocolConfig(phi=phi, n_bar=n_bar, eta1=eta1, eta2=eta2)
    etas = ("--eta", repr(eta1)) if eta1 == eta2 else ("--eta1", repr(eta1), "--eta2", repr(eta2))
    argv = ["protocol", "--nbar", repr(n_bar), "--phi", repr(phi), *etas]
    if isinstance(expected, type):
        with pytest.raises(expected):
            protocol.run_gaussian(config)
        assert cli.main(argv) == 2
        return
    result = protocol.run_gaussian(config)
    if expected == "limit":
        assert result.phase_error == 1.0 / math.sqrt(8.0 * n_bar * (n_bar + 1.0))
        assert result.phase_error_is_limit
    else:
        assert result.phase_error is None and not result.phase_error_is_limit
    assert cli.main(argv) == 0


class TestRunFock:
    def test_zero_phase_returns_vacuum(self):
        result = protocol.run_fock(protocol.ProtocolConfig(phi=0.0, r=R1, cutoff=64))
        assert result.signal == pytest.approx(0.0, abs=1e-8)
        assert result.trace_deficit < 1e-8

    def test_reference_signal(self):
        result = protocol.run_fock(protocol.ProtocolConfig(phi=math.pi / 2, r=R1, cutoff=96))
        assert result.signal == pytest.approx(8.0, rel=1e-8)

    def test_final_state_is_vacuum_at_zero_phase(self):
        state = fock.squeeze(fock.squeeze(fock.vacuum(64), R1), -R1)
        assert fock.fidelity(fock.vacuum(64), state) >= 1.0 - 1e-8

    def test_truncation_diagnostics_name_the_stage(self):
        with pytest.raises(fock.TruncationOverflowError, match="squeeze stage"):
            protocol.run_fock(protocol.ProtocolConfig(phi=0.1, n_bar=4.0, cutoff=12))

    def test_unequal_etas_match_moment_engine(self):
        config = protocol.ProtocolConfig(phi=0.2, r=0.5, eta1=0.95, eta2=0.9, cutoff=60)
        report = protocol.run_both(config)
        assert report.rel_deviation("signal") < 1e-6
        assert report.rel_deviation("variance") < 1e-6

    @pytest.mark.parametrize("eta1,eta2", [(1.0, 0.9), (0.9, 1.0), (0.95, 0.8)])
    def test_unequal_eta_pairs_match_moment_engine(self, eta1, eta2):
        config = protocol.ProtocolConfig(phi=0.3, r=0.5, eta1=eta1, eta2=eta2, cutoff=60)
        report = protocol.run_both(config)
        assert report.rel_deviation("signal") < 1e-6
        assert report.rel_deviation("variance") < 1e-6
        assert report.moment_aa_deviation() < 1e-6

    def test_zero_phase_moments_agree_even_with_loss(self):
        # only the phase error is singular at phi = 0; the moments are not
        for r in (0.2, 0.5, 0.8814):
            for eta in (1.0, 0.95, 0.8):
                expected = gaussian.protocol_moments(r, 0.0, eta, eta)
                state, _ = fock.padded_squeezed_vacuum(r, 60)
                if eta < 1.0:
                    state = fock.loss(state, eta)
                n, _, a2 = fock.unsqueezed_moments(state, r)
                # the readout loss thins the moments: <n> -> eta <n>, <a^2> -> eta <a^2>
                m_n = eta * n
                m_aa = eta * a2
                assert abs(expected.m_n - m_n) <= 1e-6 * max(abs(m_n), 1.0)
                assert abs(expected.m_aa - m_aa) <= 1e-6 * max(abs(m_aa), 1.0)

    def test_outputs_stay_gaussian(self):
        # normally ordered fourth moment factorises: <a+a+aa> = 2 m_n^2 + |m_aa|^2
        for r, phi, eta in [(0.5, 0.3, 1.0), (0.8814, 1.0, 0.95), (0.2, 0.05, 0.8)]:
            state, _ = fock.padded_squeezed_vacuum(r, 60)
            state = fock.phase_shift(state, -phi)
            if eta < 1.0:
                state = fock.loss(state, eta)
            n, n2, a2 = fock.unsqueezed_moments(state, r)
            # the readout loss thins <a^dag^k a^k> to eta^k <a^dag^k a^k>
            fourth = eta**2 * (n2 - n)
            m_n = eta * n
            m_aa = eta * a2
            factorised = 2.0 * m_n**2 + abs(m_aa) ** 2
            assert abs(fourth - factorised) <= 1e-6 * max(abs(fourth), abs(factorised), 1.0)

    def test_trace_deficit_monotone_in_cutoff(self):
        deficits = [
            protocol.run_fock(
                protocol.ProtocolConfig(phi=0.3, r=0.8814, eta1=0.9, eta2=0.9, cutoff=c)
            ).trace_deficit
            for c in (48, 64, 96)
        ]
        assert deficits[0] >= deficits[1] >= deficits[2]

    def test_loss_commutes_with_phase(self):
        # placing the first loss before or after the phase shift is equivalent
        state = fock.squeezed_vacuum(0.6, 0.0, 40)
        after = fock.loss(fock.phase_shift(state, 0.37), 0.8)
        phase = np.exp(0.37j * np.arange(41))
        before = (phase[:, None] * density(fock.loss(state, 0.8))) * phase.conj()
        np.testing.assert_allclose(density(after), before, atol=1e-14)


    def test_default_cutoff_matches_the_gaussian_engine(self):
        # the probe keeps its tail past the cutoff, whose fourth moment the
        # readout weights by about (e^{2r} n)^2; cut off, the variance is
        # 1.4e-6 away here
        config = protocol.ProtocolConfig(phi=0.05, n_bar=2.0, eta1=0.95, eta2=0.8)
        report = protocol.run_both(config)
        assert report.cutoff == 102
        for attr in ("signal", "variance", "moments.m_aa"):
            assert report.rel_deviation(attr) <= 1e-9, attr

    @pytest.mark.parametrize("cutoff", [60, None])
    @pytest.mark.parametrize("eta", [1.0, 0.9])
    def test_runs_without_an_eigendecomposition(self, monkeypatch, eta, cutoff):
        # the probe is the closed-form squeezed vacuum and the readout is
        # read in the Heisenberg picture, so no matrix is diagonalised
        def refuse(*args, **kwargs):
            raise AssertionError("the protocol diagonalised a matrix")

        fock._squeeze_eigen.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        config = protocol.ProtocolConfig(phi=0.3, n_bar=1.0, eta1=eta, eta2=eta, cutoff=cutoff)
        report = protocol.run_both(config)
        assert report.rel_deviation("variance") <= 1e-9

    def test_large_phase_readout_is_bounded(self):
        # the anti-squeezed output is never formed, so a large phi costs no
        # more than a small one (it once grew an 8192-level basis: 61 s)
        config = protocol.ProtocolConfig(phi=1.5, n_bar=9.1, eta1=0.9, eta2=0.9)
        start = time.perf_counter()
        report = protocol.run_both(config)
        assert time.perf_counter() - start < 5.0
        assert report.cutoff == 400
        assert report.rel_deviation("variance") <= 1e-9


def density_matrix_moments(config):
    """<n>, <n^2> and <a^2> of the protocol output, through the density matrix.

    The reference for run_fock's lossy pipeline: from the same padded probe,
    rho after the first loss is anti-squeezed as U rho U^H, with U on a
    working basis that doubles until its edge holds at most 1e-24 (an edge
    of 1e-9 bounds weight, not fourth moments), and both losses are the
    Kraus sum of ``test_fock.kraus_loss``.
    """
    r = config.r_value
    probe, _ = fock.padded_squeezed_vacuum(r, config.cutoff)
    rho = kraus_loss(density(fock.phase_shift(probe, -config.phi)), config.eta1)
    dim = rho.shape[0]
    work = 2 * max(dim, 32)
    while True:
        u = fock._apply_squeeze(np.eye(work, dtype=complex)[:, :dim], -r)
        sigma = u @ rho @ u.conj().T
        if np.sum(np.diag(sigma).real[-4:]) <= 1e-24:
            break
        work *= 2
    return density_moments(kraus_loss(sigma, config.eta2))


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize(
    "eta1,eta2", [(0.9, 0.9), (1.0, 0.9), (0.9, 1.0), (0.95, 0.8), (0.0, 0.9), (0.9, 0.0)]
)
def test_branch_pipeline_matches_density_matrix(eta1, eta2):
    config = protocol.ProtocolConfig(phi=0.3, r=0.8814, eta1=eta1, eta2=eta2, cutoff=60)
    result = protocol.run_fock(config)
    n, n2, a2 = density_matrix_moments(config)
    assert rel(result.signal, n) <= 1e-12
    assert rel(result.moments.m_aa, a2) <= 1e-12
    assert rel(result.variance, n2 - n**2) <= 1e-10


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_readout_thinning_matches_the_loss_channel(eta):
    rng = np.random.default_rng(17)
    for dim in (1, 5, 40):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        before = density_moments(rho)
        after = density_moments(kraus_loss(rho, eta))
        for thinned, exact in zip(protocol._thinned(eta, *before), after):
            assert abs(thinned - exact) <= 1e-13 * max(abs(exact), 1.0)


class TestComparisonReport:
    def test_deviations_recomputed(self):
        report = protocol.run_both(
            protocol.ProtocolConfig(phi=0.3, r=0.5, eta1=0.9, eta2=0.9, cutoff=60)
        )
        g, f = report.gaussian_result, report.fock_result
        assert report.rel_deviation("signal") == abs(g.signal - f.signal) / max(
            abs(g.signal), abs(f.signal))
        assert report.rel_deviation("signal") < 1e-6
        assert report.moment_aa_deviation() < 1e-6
        assert report.trace_deficit < 1e-8
        assert report.cutoff == 60


class TestErrorPropagation:
    def test_lossless_limit(self):
        curve = protocol.gaussian_signal_curve(protocol.ProtocolConfig(phi=1e-4, n_bar=1.0))
        assert protocol.error_propagation(curve, 1e-4) == pytest.approx(0.25, rel=1e-4)

    def test_brighter_probe(self):
        curve = protocol.gaussian_signal_curve(protocol.ProtocolConfig(phi=1e-4, n_bar=5.0))
        assert protocol.error_propagation(curve, 1e-4) == pytest.approx(
            1.0 / math.sqrt(240.0), rel=1e-4
        )

    def test_bright_probe_refusal_names_the_cancellation(self):
        # <n> ~ 0.04 is a difference of terms ~1e6, so rounding breaks the bound
        curve = protocol.gaussian_signal_curve(protocol.ProtocolConfig(phi=1e-4, n_bar=1e3))
        with pytest.raises(ValueError, match=r"cancels.*gaussian\.phase_error"):
            protocol.error_propagation(curve, 1e-4)

    def test_extremum_has_no_information(self):
        curve = protocol.gaussian_signal_curve(protocol.ProtocolConfig(phi=0.3, n_bar=1.0))
        with pytest.raises(protocol.VanishingDerivativeError):
            protocol.error_propagation(curve, math.pi / 2)

    def test_matches_closed_form_chain(self):
        # propagated error along the moment curve equals the closed form
        for phi in (0.1, 0.4, 0.7):
            config = protocol.ProtocolConfig(phi=phi, n_bar=1.0)
            curve = protocol.gaussian_signal_curve(config)
            propagated = protocol.error_propagation(curve, phi)
            closed = gaussian.phase_error(1.0, phi, 1.0)
            assert propagated == pytest.approx(closed, rel=1e-4)

    def test_fock_curve_route(self):
        config = protocol.ProtocolConfig(phi=0.2, r=0.5, eta1=0.9, eta2=0.9, cutoff=48)

        def fock_curve(phi):
            moved = protocol.ProtocolConfig(phi, r=0.5, eta1=0.9, eta2=0.9, cutoff=48)
            result = protocol.run_fock(moved)
            return result.signal, result.variance

        propagated = protocol.error_propagation(fock_curve, 0.2)
        closed = gaussian.phase_error(config.n_bar_value, 0.2, 0.9)
        assert propagated == pytest.approx(closed, rel=1e-5)


class TestIntensityMeasurementOptimality:
    def test_photon_counting_reaches_quantum_bound(self):
        config = protocol.ProtocolConfig(phi=0.01, n_bar=1.0, cutoff=96)
        curve = protocol.lossless_output_distribution(config)
        fisher = co.classical_fisher_information(curve, 0.01)
        assert fisher == pytest.approx(16.0, rel=1e-2)
