import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmetro import gaussian as ga

R1 = math.asinh(1.0)
SQRT2 = math.sqrt(2.0)

#: The one refusal of each bad mean photon number, as ``check_n_bar`` words it
#: under its default name (keyed by repr, so NaN can be looked up).
N_BAR_REFUSALS = {
    "nan": "n_bar=nan is not a finite number",
    "inf": "n_bar=inf is not a finite number",
    "-1.0": "n_bar=-1.0 outside [0, inf)",
    "0.0": "n_bar=0.0 is below the smallest mean photon number 1e-150, where the signal "
           "slope underflows; use n_bar >= 1e-150",
}


class TestInputChecks:
    """One check per input, sharing check_value's words, under the caller's name."""

    @pytest.mark.parametrize("check,args", [
        (ga.check_n_bar, ()), (ga.check_r, ()), (ga.check_phi, ()), (ga.check_eta, ()),
        (ga.check_value, ()), (ga.check_value, (0.0, 1.0)),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_is_refused_in_one_wording(self, check, args, value):
        with pytest.raises(ValueError) as info:
            check(value, "--x", *args)
        assert str(info.value) == f"--x={value!r} is not a finite number"

    @pytest.mark.parametrize("check,name,value,expected", [
        (ga.check_eta, "eta", -0.1, "{}=-0.1 outside [0, 1]"),
        (ga.check_eta, "eta", 1.5, "{}=1.5 outside [0, 1]"),
        (ga.check_phi, "phi", -0.1, "{}=-0.1 outside [0, pi/2]"),
        (ga.check_phi, "phi", 2.0, "{}=2.0 outside [0, pi/2]"),
        (ga.check_phi, "phi", 1e-200, "{0}=1e-200 is below the smallest nonzero phase 1e-150, "
                                      "where sin^2 phi underflows; use {0} >= 1e-150"),
        (ga.check_n_bar, "n_bar", -1.0, "{}=-1.0 outside [0, inf)"),
        (ga.check_n_bar, "n_bar", 0.0, "{0}=0.0 is below the smallest mean photon number "
                                       "1e-150, where the signal slope underflows; "
                                       "use {0} >= 1e-150"),
        (ga.check_r, "r", -0.5, "{}=-0.5 outside [0, inf)"),
        (ga.check_r, "r", 1e-160, "{0}=1e-160 is below the smallest squeezing parameter "
                                  "1.0000000000000001e-75, where sinh^2 r < 1e-150; "
                                  "use {0} >= 1.0000000000000001e-75"),
        (ga.check_r, "r", 400.0, "{}=400.0 is too large: sinh^2 r overflows"),
        (ga.check_cutoff, "cutoff", 1, "{}=1 outside [2, inf)"),
    ])
    def test_a_value_outside_the_domain_is_refused_by_name(self, check, name, value, expected):
        for given, args in ((name, ()), ("--opt", ("--opt",))):
            with pytest.raises(ValueError) as info:
                check(value, *args)
            assert str(info.value) == expected.format(given)

    def test_n_bar_refusals_table(self):
        for key, expected in N_BAR_REFUSALS.items():
            with pytest.raises(ValueError) as info:
                ga.check_n_bar(float(key))
            assert str(info.value) == expected

    def test_domain_edges_are_accepted(self):
        for value in (0.0, ga.PHI_FLOOR, ga.HALF_PI):
            ga.check_phi(value)
        for value in (0.0, 1.0):
            ga.check_eta(value)
        ga.check_n_bar(ga.N_BAR_FLOOR)
        ga.check_cutoff(1, least=1)
        ga.check_cutoff(10**400)  # an int past every double is still a cutoff

    def test_r_floor_refuses_what_the_n_bar_floor_refuses(self):
        # R_FLOOR is the least double r whose sinh^2 r reaches N_BAR_FLOOR
        below = math.nextafter(ga.R_FLOOR, 0.0)
        assert math.sinh(ga.R_FLOOR) ** 2 >= ga.N_BAR_FLOOR > math.sinh(below) ** 2
        ga.check_r(ga.R_FLOOR)
        with pytest.raises(ValueError, match="smallest squeezing parameter"):
            ga.check_r(below)

    def test_r_overflow_edge(self):
        largest = 355.58450362725193  # the largest r whose sinh^2 r is a double
        ga.check_r(largest)
        with pytest.raises(ValueError, match=r"too large: sinh\^2 r overflows"):
            ga.check_r(math.nextafter(largest, math.inf))


class TestMomentVector:
    def test_adad_is_the_conjugate(self):
        v = ga.MomentVector(0.3 - 0.2j, 0.9)
        assert v.m_adad == 0.3 + 0.2j
        assert type(v).__slots__ == ("m_aa", "m_n")

    def test_uncertainty_bound_enforced(self):
        # |<a^2>| can reach sqrt(n(n+1)) but not exceed it
        ga.MomentVector(math.sqrt(2.0) * 1.0000000, 1.0)
        with pytest.raises(ValueError, match="unphysical"):
            ga.MomentVector(1.5, 1.0)

    def test_negative_occupation_refused(self):
        with pytest.raises(ValueError, match="negative occupation"):
            ga.MomentVector(0.0, -1e-9)

    @pytest.mark.parametrize("m_aa,m_n", [(math.nan, 1.0), (complex(0.0, math.inf), 1.0),
                                          (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_moments_refused(self, m_aa, m_n):
        # NaN fails every comparison, so the bounds alone would let it through
        with pytest.raises(ValueError, match="non-finite moments"):
            ga.MomentVector(m_aa, m_n)


class TestStages:
    def test_squeeze_identity_at_zero(self):
        args = (0.3 - 0.2j, 0.9, -0.1 + 0.4j, 0.7)
        assert ga._squeeze(0.0, *args) == args

    def test_squeeze_translation_from_vacuum(self):
        aa, n, d_aa, d_n = ga._squeeze(R1, 0j, 0.0, 0j, 0.0)
        assert aa == pytest.approx(-SQRT2, rel=1e-14)
        assert n == pytest.approx(1.0, rel=1e-14)
        assert (d_aa, d_n) == (0j, 0.0)  # the derivative carries no translation

    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2, 1.3])
    def test_rotation_turns_aa_and_keeps_occupation(self, phi):
        # undoing the anti-squeeze of a lossless run leaves the rotated probe:
        # <a^2> = -sqrt(n(n+1)) e^{-2i phi} and <n> = n, the squeezed vacuum's
        r = math.asinh(math.sqrt(0.8))
        v = ga.protocol_moments(r, phi)
        aa, n, _, _ = ga._squeeze(r, v.m_aa, v.m_n, 0j, 0.0)
        assert aa == pytest.approx(-math.sqrt(0.8 * 1.8) * cmath.exp(-2j * phi), abs=1e-14)
        assert n == pytest.approx(0.8, rel=1e-14)

    def test_loss_scaling(self):
        lossless = ga.protocol_moments(R1, 0.3)
        out = ga.protocol_moments(R1, 0.3, 1.0, 0.9)
        assert out.m_aa == 0.9 * lossless.m_aa
        assert out.m_n == 0.9 * lossless.m_n
        assert ga.protocol_moments(R1, 0.3, 1.0, 0.0).m_n == 0.0

    @pytest.mark.parametrize("etas,expected", [
        ((1.1, 1.0), "eta1=1.1 outside [0, 1]"), ((1.0, 1.1), "eta2=1.1 outside [0, 1]"),
        ((-0.1, 1.0), "eta1=-0.1 outside [0, 1]"),
        ((1.0, math.nan), "eta2=nan is not a finite number"),
    ], ids=["eta1-above-1", "eta2-above-1", "negative", "nan"])
    def test_loss_range(self, etas, expected):
        with pytest.raises(ValueError) as info:
            ga.protocol_moments(R1, 0.3, *etas)
        assert str(info.value) == expected


class TestProtocolMoments:
    def test_lossless_zero_phase_returns_vacuum(self):
        v = ga.protocol_moments(R1, 0.0)
        assert abs(v.m_aa) < 1e-13
        assert abs(v.m_n) < 1e-13

    def test_lossless_signal_form(self):
        for n_bar, phi in [(0.5, 0.3), (1.0, math.pi / 2), (2.0, 1.1)]:
            v = ga.protocol_moments(math.asinh(math.sqrt(n_bar)), phi)
            assert v.m_n == pytest.approx(
                4.0 * n_bar * (n_bar + 1.0) * math.sin(phi) ** 2, rel=1e-12, abs=1e-13
            )

    def test_closed_form_moments_with_loss(self):
        for n_bar, phi, eta in [(1.0, 0.3, 0.9), (2.0, 1.2, 0.5), (0.3, 0.05, 0.99)]:
            v = ga.protocol_moments(math.asinh(math.sqrt(n_bar)), phi, eta, eta)
            m_n = eta * n_bar * (
                1 + eta + 2 * n_bar * eta - 2 * (n_bar + 1) * eta * math.cos(2 * phi)
            )
            m_aa = (
                eta
                * math.sqrt(n_bar * (n_bar + 1))
                * (
                    eta * n_bar * (2 - np.exp(2j * phi))
                    - eta * (n_bar + 1) * np.exp(-2j * phi)
                    + 1
                )
            )
            assert v.m_n == pytest.approx(m_n, rel=1e-12)
            assert v.m_aa == pytest.approx(m_aa, rel=1e-12)


class TestSignalAndVariance:
    def test_signal_values(self):
        assert ga.signal(1.0, math.pi / 2, 1.0) == pytest.approx(8.0)
        assert ga.signal(1.0, 0.0, 1.0) == 0.0
        assert ga.signal(1.0, math.pi / 2, 0.5) == pytest.approx(2.25)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, 1e-200, 3.0, -0.5])
    @pytest.mark.parametrize("view", [ga.signal, ga.signal_slope], ids=["signal", "slope"])
    def test_views_refuse_a_phase_outside_the_kernels_domain(self, view, phi):
        # refused by name, not by an n_bar overflow, a math domain error or a
        # variance underflow, and never evaluated outside [0, pi/2]
        with pytest.raises(ValueError, match=f"phi={phi!r}"):
            view(1.0, phi)

    def test_vacuum_variance(self):
        assert ga.number_variance(ga.MomentVector(0.0, 0.0)) == 0.0

    def test_lossless_variance_value(self):
        v = ga.protocol_moments(R1, math.pi / 2)
        assert ga.number_variance(v) == pytest.approx(144.0, rel=1e-12)

    def test_squeezed_vacuum_variance(self):
        v = ga.MomentVector(-SQRT2, 1.0)
        assert ga.number_variance(v) == pytest.approx(4.0)


class TestPhaseError:
    def test_lossless_limit(self):
        assert ga.phase_error(1.0, 0.0, 1.0) == 0.25

    def test_small_angle_matches_limit(self):
        value = ga.phase_error(5.0, 1e-4, 1.0)
        assert value == pytest.approx(1.0 / math.sqrt(240.0), rel=1e-6)

    def test_zero_phase_with_loss_is_singular(self):
        with pytest.raises(ga.SingularOperatingPointError):
            ga.phase_error(1.0, 0.0, 0.9)

    def test_extremum_is_singular(self):
        with pytest.raises(ga.SingularOperatingPointError):
            ga.phase_error(1.0, math.pi / 2, 0.9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ga.phase_error(0.0, 0.1, 0.9)
        with pytest.raises(ValueError):
            ga.phase_error(1.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="1e-150"):
            ga.phase_error(1.0, 1e-160, 0.9)

    @pytest.mark.parametrize("n_bar,phi,name,pass_name", [
        (math.nan, 0.3, "n_bar", "r"), (math.inf, 0.3, "n_bar", "r"),
        (1.0, math.inf, "phi", "phi"), (1.0, math.nan, "phi", "phi"),
    ])
    def test_moment_route_refuses_non_finite_input_by_name(self, n_bar, phi, name, pass_name):
        # not a NaN result, nor a bare "math domain error"
        value = n_bar if name == "n_bar" else phi
        with pytest.raises(ValueError) as info:
            ga.phase_error_from_moments(n_bar, phi, 0.9)
        assert str(info.value) == f"{name}={value!r} is not a finite number"
        with pytest.raises(ValueError) as info:
            ga.protocol_moments(math.asinh(math.sqrt(n_bar)), phi, 0.9, 0.9)
        assert str(info.value) == f"{pass_name}={value!r} is not a finite number"

    def test_moment_route_names_an_overflow(self):
        with pytest.raises(ValueError, match="non-finite moments"):
            ga.phase_error_from_moments(1e300, 0.3, 0.9)

    def test_n_bar_floor_keeps_the_slope_representable(self):
        ga.check_n_bar(ga.N_BAR_FLOOR)
        with pytest.raises(ValueError, match="1e-150"):
            ga.check_n_bar(1e-151)
        # at both floors the slope, 8e-300, does not underflow, so the kernel
        # sees the underflowing variance and refuses it instead of leaving
        # the phase error empty
        with pytest.raises(ValueError, match="variance underflows"):
            ga.protocol_point(ga.N_BAR_FLOOR, ga.PHI_FLOOR)
        # the views refuse a nonzero n_bar below the floor by name, before the
        # kernel: no 3.6e149 phase error, and no phase-error message for a signal
        for view, args in ((ga.phase_error, (1e-300, 0.1)), (ga.signal, (1e-200, 1e-100))):
            with pytest.raises(ValueError, match="smallest mean photon number 1e-150"):
                view(*args)
        assert ga.signal(0.0, 0.1) == 0.0

    def test_transcription_against_moment_route(self):
        rng = np.random.default_rng(20240811)
        for _ in range(100):
            r = rng.uniform(0.1, 1.2)
            phi = rng.uniform(0.05, 1.45)
            eta = rng.uniform(0.1, 1.0)
            n_bar = math.sinh(r) ** 2
            a = ga.phase_error(n_bar, phi, eta)
            b = ga.phase_error_from_moments(n_bar, phi, eta)
            assert abs(a - b) <= 1e-10 * max(a, b)


class TestSnlRatio:
    def test_lossless_small_angle(self):
        assert ga.snl_ratio(1.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert ga.snl_ratio(1.0, 1e-4, 1.0) == pytest.approx(2.0, rel=1e-6)

    def test_bright_probe_claims(self):
        assert ga.snl_ratio(1.5e4, 1e-3, 0.99) == pytest.approx(5.0, rel=0.10)
        assert ga.snl_ratio(2e4, 1e-3, 0.95) == pytest.approx(3.0, rel=0.10)

    def test_ratio_shape_at_unit_transmission(self):
        # at eta = 1 and small phi the ratio approaches sqrt(2 (n + 1)); the
        # exact value falls below it by ~ n^2 phi^2 relative
        for n_bar in (1.0, 4.0, 10.0):
            assert ga.snl_ratio(n_bar, 1e-5, 1.0) == pytest.approx(
                math.sqrt(2.0 * (n_bar + 1.0)), rel=1e-6
            )

    def test_opaque_channel_kills_sensitivity(self):
        assert ga.snl_ratio(100.0, 1e-3, 1e-4) < 1e-2


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


@st.composite
def moment_vectors(draw):
    m_n = draw(st.floats(0.0, 4.0, allow_nan=False))
    fraction = draw(st.floats(0.0, 0.999, allow_nan=False))
    angle = draw(st.floats(0.0, 2.0 * math.pi, allow_nan=False))
    magnitude = math.sqrt(m_n * (m_n + 1.0)) * fraction
    return ga.MomentVector(cmath.rect(magnitude, angle), m_n)


@given(moment_vectors(), st.floats(-1.5, 1.5, allow_nan=False))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_squeeze_inverse_composition(v, r):
    # the moments and, through the linear part alone, a derivative come back
    back = ga._squeeze(-r, *ga._squeeze(r, v.m_aa, v.m_n, v.m_aa, v.m_n))
    scale = max(1.0, abs(v.m_aa), v.m_n)
    for got, want in zip(back, (v.m_aa, v.m_n) * 2):
        assert abs(got - want) <= 1e-12 * scale * math.cosh(2 * r) ** 2


@given(
    st.floats(0.05, 1.3, allow_nan=False),
    st.floats(0.0, math.pi / 2, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_protocol_moments_remain_physical(r, phi, eta1, eta2):
    v = ga.protocol_moments(r, phi, eta1, eta2)  # constructor enforces the bound
    assert v.m_n >= -1e-12
    assert v.m_n * (v.m_n + 1.0) - abs(v.m_aa) ** 2 >= -1e-10


@given(
    st.floats(0.1, 3.0, allow_nan=False),
    st.floats(0.01, 1.5, allow_nan=False),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_phase_error_never_improves_with_more_loss(n_bar, phi):
    errors = [ga.phase_error(n_bar, phi, eta) for eta in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a >= b - 1e-12 * abs(b) for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# closed-form kernel against a high-precision moment-map composition
# ---------------------------------------------------------------------------

HALF_PI = math.pi / 2
#: Relative tolerance of the kernel against the 50-digit reference: 8 eps
#: (1.8e-15), over a worst case of 4.7 eps seen on 6000 random points.
KERNEL_TOL = 8 * 2**-52


def _mp_protocol(n_bar, phi, eta1, eta2):
    """(signal, variance, <a^2>, phase error, slope) from the moment maps at 50 digits.

    The state (<a^2>, <a^dag a>) and its phi-derivative are pushed through
    squeeze(r), rotate(phi), damp(eta1), squeeze(-r), damp(eta2) from the
    vacuum, with cosh^2 r = n + 1 and sinh^2 r = n; <a^dag^2> is the conjugate
    of <a^2> throughout.
    """
    with mpmath.workdps(50):
        n = mpmath.mpf(n_bar)
        c2, s2, cs = n + 1, n, mpmath.sqrt(n * (n + 1))

        def squeeze(aa, m, d_aa, d_m, cs):
            # a -> a ch r - a^dag sh r; the inverse flips the sign of cs
            return (
                c2 * aa + s2 * mpmath.conj(aa) - 2 * cs * m - cs,
                -2 * cs * mpmath.re(aa) + (c2 + s2) * m + s2,
                c2 * d_aa + s2 * mpmath.conj(d_aa) - 2 * cs * d_m,
                -2 * cs * mpmath.re(d_aa) + (c2 + s2) * d_m,
            )

        turn = mpmath.expj(-2 * mpmath.mpf(phi))
        aa, m, d_aa, d_m = squeeze(mpmath.mpc(0), mpmath.mpf(0), mpmath.mpc(0), mpmath.mpf(0), cs)
        aa, d_aa = aa * turn, (d_aa - 2j * aa) * turn
        eta1, eta2 = mpmath.mpf(eta1), mpmath.mpf(eta2)
        aa, m, d_aa, d_m = squeeze(eta1 * aa, eta1 * m, eta1 * d_aa, eta1 * d_m, -cs)
        aa, m, d_m = eta2 * aa, eta2 * m, eta2 * d_m
        variance = m * m + m + abs(aa) ** 2
        return m, variance, aa, mpmath.sqrt(variance) / abs(d_m), d_m


def _assert_kernel_matches_reference(n_bar, phi, eta1, eta2):
    point = ga.protocol_point(n_bar, phi, eta1, eta2)
    signal, variance, m_aa, error, _ = _mp_protocol(n_bar, phi, eta1, eta2)
    with mpmath.workdps(50):
        devs = {
            "signal": abs(point.signal - signal) / signal,
            "variance": abs(point.variance - variance) / variance,
            "m_aa": abs(point.moments.m_aa - m_aa) / abs(m_aa),
            "phase_error": abs(point.phase_error - error) / error,
        }
    for name, dev in devs.items():
        assert dev <= KERNEL_TOL, (name, float(dev), (n_bar, phi, eta1, eta2))


# (0, 1] down to 1e-100: below that eta1 eta2 n (n+1) sin 2phi leaves the
# double range, which no physical transmission reaches
_transmissions = st.one_of(
    st.floats(0.5, 1.0), st.floats(-100.0, 0.0).map(lambda e: 10.0**e)
)


@given(
    st.floats(-2.0, 10.0).map(lambda e: 10.0**e),
    st.floats(-9.0, math.log10(HALF_PI)).map(lambda e: 10.0**e).filter(lambda p: p < HALF_PI),
    _transmissions,
    _transmissions,
)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_kernel_matches_high_precision_maps_on_full_domain(n_bar, phi, eta1, eta2):
    _assert_kernel_matches_reference(n_bar, phi, eta1, eta2)


@pytest.mark.parametrize(
    "n_bar,phi,eta",
    [  # points where the cancelling closed form drifted or the map route raised
        (1.5e4, 1e-3, 0.99),
        (1e4, 1e-5, 1.0),
        (1e6, 1e-5, 0.999),
        (100.0, 1e-6, 1.0),
        (1e7, 1e-3, 0.99),
        (1e8, 1e-5, 0.99),
    ],
)
def test_kernel_at_formerly_failing_points(n_bar, phi, eta):
    _assert_kernel_matches_reference(n_bar, phi, eta, eta)
    assert ga.phase_error(n_bar, phi, eta) == ga.protocol_point(n_bar, phi, eta, eta).phase_error


#: Relative tolerance of the float moment pass against the 50-digit reference,
#: where its sums cancel at most ~100-fold (phi >= 0.05, eta >= 0.1).
PASS_TOL = 1e-12


@given(
    st.floats(0.05, 1.3),
    st.floats(0.05, 1.45),
    st.floats(0.1, 1.0),
    st.floats(0.1, 1.0),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_moment_pass_matches_high_precision_maps(r, phi, eta1, eta2):
    moments, slope = ga._protocol_pass(r, phi, eta1, eta2)
    signal, _, m_aa, _, d_m = _mp_protocol(math.sinh(r) ** 2, phi, eta1, eta2)
    with mpmath.workdps(50):
        devs = {
            "m_n": abs(moments.m_n - signal) / signal,
            "m_aa": abs(moments.m_aa - m_aa) / abs(m_aa),
            "slope": abs(slope - d_m) / abs(d_m),
        }
    for name, dev in devs.items():
        assert dev <= PASS_TOL, (name, float(dev), (r, phi, eta1, eta2))


# ---------------------------------------------------------------------------
# row kernel against the one-point form, bit for bit
# ---------------------------------------------------------------------------


def _one_point(n_bar, phi, eta1, eta2):
    """The closed form evaluated one point at a time, with every term formed
    per point: the arithmetic :func:`ga.protocol_row` hoists out of its eta
    loop, kept as the reference it must reproduce bit for bit."""
    n1 = n_bar + 1.0
    sin_phi = math.sin(phi)
    sin_sq = sin_phi * sin_phi
    sin_2phi = math.sin(2.0 * phi)
    lost = 1.0 - eta1
    signal = eta2 * n_bar * (lost + 4.0 * eta1 * n1 * sin_sq)
    amplitude = eta2 * math.sqrt(n_bar * n1)
    aa_re = amplitude * (lost + 2.0 * eta1 * (2.0 * n_bar + 1.0) * sin_sq)
    aa_im = amplitude * eta1 * sin_2phi
    variance = signal * signal + signal + aa_re * aa_re + aa_im * aa_im
    if not math.isfinite(variance):
        raise ValueError(
            f"n_bar={n_bar!r} is too large: the photon-number variance overflows a double"
        )
    slope = 4.0 * eta1 * eta2 * n_bar * n1 * sin_2phi
    error = None
    is_limit = False
    if slope != 0.0 and phi != HALF_PI:
        error = math.sqrt(variance) / abs(slope)
    elif phi == 0.0 and eta1 == 1.0 and eta2 == 1.0 and n_bar > 0.0:
        error = 1.0 / math.sqrt(8.0 * n_bar * n1)
        is_limit = True
    return (signal, variance, complex(aa_re, aa_im), slope, error, is_limit)


def _bits(fields):
    """The exact bit patterns of a kernel tuple (-0.0 and 0.0 differ)."""
    out = []
    for value in fields:
        if isinstance(value, complex):
            out.extend((value.real.hex(), value.imag.hex()))
        elif isinstance(value, float):
            out.append(value.hex())
        else:
            out.append(value)
    return out


def _record_fields(result):
    """A ProtocolResult's fields in the kernel tuple's order."""
    return (result.signal, result.variance, result.moments.m_aa, result.slope,
            result.phase_error, result.phase_error_is_limit)


def _assert_row_is_bitwise_one_point(n_bar, phi, pairs):
    row = ga.protocol_row(n_bar, phi, pairs)
    assert len(row) == len(pairs)
    for fields, (eta1, eta2) in zip(row, pairs):
        assert type(fields) is tuple and len(fields) == 6
        expected = _one_point(n_bar, phi, eta1, eta2)
        assert _bits(fields) == _bits(expected), (n_bar, phi, eta1, eta2)
        point = ga.protocol_point(n_bar, phi, eta1, eta2)
        assert _bits(_record_fields(point)) == _bits(expected)


def _random_eta(rng):
    pick = rng.random()
    if pick < 0.1:
        return 1.0
    if pick < 0.15:
        return 0.0
    if pick < 0.25:
        return 10.0 ** rng.uniform(-100.0, 0.0)
    return rng.uniform(0.5, 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_row_kernel_is_bitwise_the_one_point_form_on_random_grids(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n_bar = 10.0 ** rng.uniform(-2.0, 10.0)
        phi = rng.choice([0.0, HALF_PI, 10.0 ** rng.uniform(-9.0, math.log10(HALF_PI))])
        # equal pairs, as a sweep passes them, and unequal ones
        pairs = [(eta, eta) for eta in (_random_eta(rng) for _ in range(5))]
        pairs += [(_random_eta(rng), _random_eta(rng)) for _ in range(5)]
        _assert_row_is_bitwise_one_point(n_bar, phi, pairs)


@pytest.mark.parametrize("n_bar,phi,pairs", [
    (3.0, 0.0, [(1.0, 1.0), (0.9, 0.9), (1.0, 0.5)]),  # lossless limit, and none
    (3.0, HALF_PI, [(1.0, 1.0), (0.7, 0.9)]),  # the signal maximum: no error
    (3.0, 0.4, [(0.0, 0.0), (0.0, 0.8), (0.8, 0.0), (1e-320, 1e-320)]),  # no slope
    (0.0, 0.4, [(1.0, 1.0), (0.9, 0.9)]),  # vacuum probe
    (2.5e-3, 1e-9, [(0.3, 0.99), (0.99, 0.3), (1.0, 1.0)]),
])
def test_row_kernel_is_bitwise_the_one_point_form_at_edges(n_bar, phi, pairs):
    _assert_row_is_bitwise_one_point(n_bar, phi, pairs)


@pytest.mark.parametrize("pairs", [[(0.9, 0.9)], [(0.0, 0.0)], [(1.0, 1.0), (0.5, 0.5)]])
def test_row_kernel_refuses_an_overflowing_nbar_like_the_one_point_form(pairs):
    for eta1, eta2 in pairs:
        with pytest.raises(ValueError, match="too large"):
            _one_point(1e200, 0.3, eta1, eta2)
    with pytest.raises(ValueError, match="too large"):
        ga.protocol_row(1e200, 0.3, pairs)


def test_row_kernel_refuses_an_underflowing_variance():
    # the one-point form gives delta_phi 0.0 here; the true value is
    # ~1/sqrt(8 n_bar) = 7e99
    assert _one_point(1e-200, 1e-100, 1.0, 1.0)[4] == 0.0
    with pytest.raises(ValueError, match=r"n_bar=1e-200 and phi=1e-100"):
        ga.protocol_row(1e-200, 1e-100, [(1.0, 1.0)])
    with pytest.raises(ValueError, match="underflows"):
        ga.protocol_point(1e-200, 1e-100)
    # a slope that underflows itself leaves the phase error undefined instead
    assert ga.protocol_point(1e-300, 1e-100).phase_error is None
