"""Closed-form Gaussian engine for the squeeze / rotate / lose / unsqueeze loop.

A zero-mean single-mode Gaussian state is fully described by its normally
ordered second moments <a^2> and <a^dag a> (<a^dag^2> is the conjugate of
<a^2>).  Loss scales these moments and adds nothing to them, so the protocol
squeeze(r), rotate(phi), damp(eta1), squeeze(-r), damp(eta2) has an exact
closed form for general (eta1, eta2).  :func:`protocol_row` evaluates it with every sum made of
terms of one sign, so it keeps full double precision at any brightness and
at the smallest angles.  It is the one closed-form kernel and the only
Gaussian arithmetic on the runtime path of ``protocol`` and ``sweep``: it
takes one (n_bar, phi) and any number of (eta1, eta2) pairs, so ``sweep``
calls it once per (n_bar, phi) row, once :func:`qmetro.cmd_sweep.check_grid`
has found no row it would refuse.  :func:`protocol_point` is its one-pair
view, as a :class:`ProtocolResult` (what :func:`qmetro.protocol.run_gaussian`
returns), and :func:`signal`, :func:`signal_slope`, :func:`phase_error` and
:func:`snl_ratio` are views of that.

The independent reference the kernel is checked against, by the tests and
by ``validate``, is a forward-mode pass (:func:`_protocol_pass`): it pushes
(<a^2>, <a^dag a>) and their phi-derivative from the vacuum through the five
stages one at a time.  :func:`protocol_moments` and
:func:`phase_error_from_moments` are its views.  The module uses only the
standard library: two moments gain nothing from numpy, and Gaussian
commands never import it.

It is also the bottom of the package's import graph, so it holds what every
engine shares: one check per input (:func:`check_n_bar`, :func:`check_r`,
:func:`check_phi`, :func:`check_eta`, :func:`check_cutoff`), each naming the
value as its caller spells it, all worded by :func:`check_value`;
:func:`relative_deviation` (the one measure by which qmetro compares two
values: the cross-engine report, ``validate``'s budgets and ``table``'s
``max_rel_dev``), the squeeze budget ``SQUEEZE_DEFICIT_LIMIT``, the error
types, :class:`Frozen` (the base of the immutable value classes) and the
records both engines fill, :class:`MomentVector` and :class:`ProtocolResult`.
"""

from __future__ import annotations

import math
import sys

#: Uncertainty bound slack: m_n (m_n + 1) - |m_aa|^2 >= -PHYSICALITY_SLACK.
PHYSICALITY_SLACK = 1e-10
#: Smallest nonzero phase accepted: below it sin^2 phi and the squared terms
#: of the variance underflow, and the phase error comes out wrong or infinite.
PHI_FLOOR = 1e-150
#: Smallest mean photon number accepted: with n_bar and phi at least their
#: floors, the slope's factor n (n+1) sin 2phi >= 2e-300 does not underflow.
N_BAR_FLOOR = 1e-150
#: Smallest squeezing parameter accepted: the least double r with sinh^2 r >= N_BAR_FLOOR.
R_FLOOR = 1.0000000000000001e-75
#: Squeezing refuses when the result spills more weight than this past the
#: cutoff.  The Fock oracle enforces it (:mod:`qmetro.fock` binds the same
#: value); the protocol's default cutoff is derived from it.
SQUEEZE_DEFICIT_LIMIT = 1e-8

HALF_PI = math.pi / 2.0
#: Smallest normal double: a variance below it has lost its precision.
_SMALLEST_NORMAL = sys.float_info.min


class SingularOperatingPointError(ValueError):
    """Phase-error request at a point where the signal slope vanishes."""


class TruncationOverflowError(RuntimeError):
    """A truncated-basis operation lost more weight than its budget allows.

    Raised by the Fock oracle (:mod:`qmetro.fock` binds the same class) and
    by the protocol's cutoff policy; defined here so that catching it loads
    no Fock code.
    """


def check_value(value: float, name: str, low: float = -math.inf, high: float = math.inf) -> None:
    """Refuse, by ``name``, a value that is not a finite number or lies outside [low, high]."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name}={value!r} is not a finite number")
    if not low <= value <= high:
        top = "inf)" if high == math.inf else "pi/2]" if high == HALF_PI else f"{high:g}]"
        raise ValueError(f"{name}={value!r} outside [{low:g}, {top}")


def _floor(name: str, value: float, what: str, floor: float, why: str) -> ValueError:
    return ValueError(f"{name}={value!r} is below the smallest {what} {floor!r}, where {why}; "
                      f"use {name} >= {floor!r}")


def check_eta(eta: float, name: str = "eta") -> None:
    """Refuse a transmissivity outside [0, 1]."""
    check_value(eta, name, 0.0, 1.0)


def check_phi(phi: float, name: str = "phi") -> None:
    """Refuse a phase outside [0, pi/2] or below ``PHI_FLOOR``; phi = 0 has an analytic limit."""
    check_value(phi, name, 0.0, HALF_PI)
    if 0.0 < phi < PHI_FLOOR:
        raise _floor(name, phi, "nonzero phase", PHI_FLOOR, "sin^2 phi underflows")


def check_n_bar(n_bar: float, name: str = "n_bar") -> None:
    """Refuse a mean photon number below ``N_BAR_FLOOR``, 0 included."""
    check_value(n_bar, name, 0.0)
    if n_bar < N_BAR_FLOOR:
        raise _floor(name, n_bar, "mean photon number", N_BAR_FLOOR, "the signal slope underflows")


def check_r(r: float, name: str = "r") -> None:
    """Refuse a squeezing parameter below ``R_FLOOR``, or so large that sinh^2 r overflows."""
    check_value(r, name, 0.0)
    if r < R_FLOOR:
        raise _floor(name, r, "squeezing parameter", R_FLOOR, f"sinh^2 r < {N_BAR_FLOOR!r}")
    try:
        math.sinh(r) ** 2
    except OverflowError:
        raise ValueError(f"{name}={r!r} is too large: sinh^2 r overflows") from None


def check_cutoff(cutoff: int, name: str = "cutoff", least: int = 2) -> None:
    """Refuse a Fock cutoff below ``least``: 2 holds a squeezed vacuum, 1 a catalogue probe."""
    check_value(cutoff, name, least)


def relative_deviation(a: complex, b: complex) -> float:
    """|a - b| / max(|a|, |b|, 1): relative above magnitude 1, absolute below it."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def shot_noise_limit(n_bar: float) -> float:
    """Single-mode shot-noise limit 1/sqrt(4 n_bar)."""
    check_n_bar(n_bar)
    return 1.0 / math.sqrt(4.0 * n_bar)


class Frozen:
    """Base of the immutable value classes: named fields, set once.

    A subclass lists its fields in ``__slots__`` and stores them with
    :meth:`_init` in its ``__init__``; afterwards any assignment raises.  A
    plain class rather than a frozen dataclass: creating a dataclass compiles
    its generated methods, and :mod:`dataclasses` imports ``inspect``, costs
    that every command would pay at start-up.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class MomentVector(Frozen):
    """Normally ordered second moments <a^2> and <a^dag a>.

    <a^dag^2> is the conjugate of <a^2>, read as :attr:`m_adad`.
    """

    __slots__ = ("m_aa", "m_n")

    def __init__(self, m_aa: complex, m_n: float) -> None:
        self._init(m_aa, m_n)
        if not all(map(math.isfinite, (m_aa.real, m_aa.imag, m_n))):
            raise ValueError(f"non-finite moments <a^2>={m_aa!r}, <n>={m_n!r}")
        if self.m_n < -1e-12:
            raise ValueError(f"negative occupation {self.m_n!r}")
        # slack scales with the bound itself so bright-probe rounding passes
        bound = self.m_n * (self.m_n + 1.0)
        if bound - abs(self.m_aa) ** 2 < -PHYSICALITY_SLACK * max(1.0, bound):
            raise ValueError(
                "unphysical moments: |<a^2>|^2 exceeds <n>(<n>+1) "
                f"({abs(self.m_aa)**2!r} vs {bound!r})"
            )

    @property
    def m_adad(self) -> complex:
        return self.m_aa.conjugate()


class ProtocolResult(Frozen):
    """Detector statistics of one protocol operating point, in either engine.

    The signal <n> is stored once, as ``moments.m_n``, and read as
    :attr:`signal`.  ``slope`` is the kernel's d signal / d phi, None for
    the Fock engine.  ``phase_error`` is sqrt(Var n) / |slope|; it is None
    where the slope vanishes (the signal extremum phi = pi/2, eta1 = 0, or
    a slope that underflows a double, as at eta 1e-170) and on every Fock
    result.  ``phase_error_is_limit`` marks the analytic phi -> 0 lossless
    limit.  ``trace_deficit`` is, for the Fock engine, the weight the
    probe's squeeze moves past the cutoff (kept in the padded basis, but
    what the cutoff would have cost) plus the weight the pipeline dropped:
    Kraus branches and padded levels of at most 1e-16 each.  It is 0 for
    the Gaussian engine.  ``cutoff`` is the Fock cutoff the run used, and
    None for the Gaussian engine.
    """

    __slots__ = (
        "moments", "variance", "slope", "phase_error", "phase_error_is_limit", "trace_deficit",
        "cutoff",
    )

    def __init__(
        self,
        moments: MomentVector,
        variance: float,
        slope: float | None,
        phase_error: float | None,
        phase_error_is_limit: bool = False,
        trace_deficit: float = 0.0,
        cutoff: int | None = None,
    ) -> None:
        self._init(
            moments, variance, slope, phase_error, phase_error_is_limit, trace_deficit, cutoff
        )

    @property
    def signal(self) -> float:
        return self.moments.m_n


# ---------------------------------------------------------------------------
# closed-form kernel
# ---------------------------------------------------------------------------


def protocol_row(n_bar: float, phi: float, eta_pairs) -> list[tuple]:
    """The closed-form kernel: one (n_bar, phi) for every (eta1, eta2) pair.

    Returns one plain tuple per pair: (signal, variance, <a^2>, slope,
    phase error, phase-error-is-limit).
    With n = n_bar and s = sin^2 phi:

    - signal = eta2 n [(1 - eta1) + 4 eta1 (n+1) s]
    - <a^2>  = eta2 sqrt(n(n+1)) [(1 - eta1) + 2 eta1 (2n+1) s + i eta1 sin 2phi]
    - Var n  = signal^2 + signal + |<a^2>|^2
    - d signal / d phi = 4 eta1 eta2 n (n+1) sin 2phi

    For phi in [0, pi/2] no sum cancels, so every value is good to a few ulps.
    The phase error is sqrt(Var n) / |d signal / d phi|.  At phi = 0 without
    loss it is the analytic limit 1/sqrt(8 n (n+1)), flagged by
    ``phase_error_is_limit``; it is None wherever else the slope vanishes
    (phi = 0 with loss, the signal maximum phi = pi/2, eta1 = 0 or eta2 = 0,
    or a slope that underflows a double).

    The terms that depend on n_bar or phi alone (n + 1, sqrt(n(n+1)),
    2n + 1, sin^2 phi and sin 2phi) are evaluated once per call, so a sweep
    pays one call per (n_bar, phi) row and only the eta-dependent products
    per point.  Each expression keeps the operation order of the one-point
    form, so a row's values do not depend on which pairs it holds.

    The arguments are not validated here: callers run the checks above once
    (``ProtocolConfig``, the sweep axes, the views below; n_bar = 0 allowed).
    Raises ValueError when n_bar is so large that the variance overflows a
    double, or when the slope is nonzero but the variance underflows (tiny
    n_bar and phi), where the phase error would come out as 0.
    """
    n1 = n_bar + 1.0
    sin_phi = math.sin(phi)
    sin_sq = sin_phi * sin_phi
    sin_2phi = math.sin(2.0 * phi)
    root = math.sqrt(n_bar * n1)
    two_n1 = 2.0 * n_bar + 1.0
    off_peak = phi != HALF_PI
    at_zero = phi == 0.0 and n_bar > 0.0
    row = []
    for eta1, eta2 in eta_pairs:
        lost = 1.0 - eta1
        signal = eta2 * n_bar * (lost + 4.0 * eta1 * n1 * sin_sq)
        amplitude = eta2 * root
        aa_re = amplitude * (lost + 2.0 * eta1 * two_n1 * sin_sq)
        aa_im = amplitude * eta1 * sin_2phi
        variance = signal * signal + signal + aa_re * aa_re + aa_im * aa_im
        if not math.isfinite(variance):
            raise ValueError(
                f"n_bar={n_bar!r} is too large: the photon-number variance overflows a double"
            )
        slope = 4.0 * eta1 * eta2 * n_bar * n1 * sin_2phi
        error = None
        is_limit = False
        if slope != 0.0:
            if variance < _SMALLEST_NORMAL:
                raise ValueError(
                    f"n_bar={n_bar!r} and phi={phi!r} are too small: the photon-number "
                    f"variance underflows a double (eta1={eta1!r}, eta2={eta2!r}), so the "
                    "phase error would come out as 0; raise n_bar or phi"
                )
            if off_peak:
                error = math.sqrt(variance) / abs(slope)
        elif at_zero and eta1 == 1.0 and eta2 == 1.0:
            error = 1.0 / math.sqrt(8.0 * n_bar * n1)
            is_limit = True
        row.append((signal, variance, complex(aa_re, aa_im), slope, error, is_limit))
    return row


def protocol_point(
    n_bar: float, phi: float, eta1: float = 1.0, eta2: float = 1.0
) -> ProtocolResult:
    """One operating point of :func:`protocol_row`, as a :class:`ProtocolResult`."""
    signal, variance, m_aa, slope, error, is_limit = protocol_row(n_bar, phi, ((eta1, eta2),))[0]
    return ProtocolResult(MomentVector(m_aa, signal), variance, slope, error, is_limit)


def _view(n_bar: float, phi: float, eta: float) -> ProtocolResult:
    """The views' point, refused by the checks above (n_bar = 0 allowed)."""
    if n_bar != 0.0:
        check_n_bar(n_bar)
    check_phi(phi)
    check_eta(eta)
    return protocol_point(n_bar, phi, eta, eta)


def signal(n_bar: float, phi: float, eta: float = 1.0) -> float:
    """Detector photon count eta n [(1 - eta) + 4 eta (n+1) sin^2 phi].

    With eta = 1 this reduces to 4 n (n+1) sin^2(phi).
    """
    return _view(n_bar, phi, eta).signal


def signal_slope(n_bar: float, phi: float, eta: float = 1.0) -> float:
    """d signal / d phi = 4 eta^2 n (n+1) sin 2phi."""
    return _view(n_bar, phi, eta).slope


def phase_error(n_bar: float, phi: float, eta: float = 1.0) -> float:
    """Error-propagation phase uncertainty of the intensity readout.

    For 0 < phi < pi/2 this is sqrt(Var n) / |d signal / d phi|.  At phi = 0
    the lossless (eta = 1) analytic limit 1/sqrt(8 n (n+1)) is returned;
    with loss the slope of the signal vanishes there and the error diverges,
    so the call is refused, as it is at the signal maximum phi = pi/2.
    """
    error = _view(n_bar, phi, eta).phase_error
    if n_bar == 0.0 or eta == 0.0:
        raise ValueError("n_bar and eta must be positive")
    if error is None:
        raise SingularOperatingPointError(
            f"the signal slope vanishes at phi={phi!r} with eta={eta!r}, so the phase "
            "error diverges; operate at a small nonzero phi"
        )
    return error


def snl_ratio(n_bar: float, phi: float, eta: float = 1.0) -> float:
    """Single-mode shot-noise limit 1/sqrt(4 n) divided by the phase error.

    Values above 1 indicate sub-shot-noise sensitivity.
    """
    return shot_noise_limit(n_bar) / phase_error(n_bar, phi, eta)


# ---------------------------------------------------------------------------
# forward-mode moment reference
# ---------------------------------------------------------------------------


def _squeeze(r: float, aa: complex, n: float, d_aa: complex, d_n: float) -> tuple:
    """Squeeze(r) on (<a^2>, <n>), and by its linear part on their phi-derivative.

    The mode map is a -> a ch r - a^dag sh r; squeeze(-r) undoes it.
    """
    c, s = math.cosh(r), math.sinh(r)
    s2, c2 = math.sinh(2.0 * r), math.cosh(2.0 * r)
    cc, ss, cs = c * c, s * s, c * s
    return (
        cc * aa + ss * aa.conjugate() - s2 * n - cs,
        (-cs * aa - cs * aa.conjugate() + c2 * n).real + ss,
        cc * d_aa + ss * d_aa.conjugate() - s2 * d_n,
        (-cs * d_aa - cs * d_aa.conjugate() + c2 * d_n).real,
    )


def _protocol_pass(r: float, phi: float, eta1: float, eta2: float) -> tuple[MomentVector, float]:
    """Moments after squeeze(r), rotate(phi), damp(eta1), squeeze(-r), damp(eta2), and d<n>/d phi.

    (<a^2>, <n>) start at the vacuum.  Only the rotation a -> a e^{-i phi}
    depends on phi, so the derivative starts there and is carried through
    the linear part of each later stage; loss scales both moments by eta.
    """
    check_value(r, "r")
    check_value(phi, "phi")
    check_eta(eta1, "eta1")
    check_eta(eta2, "eta2")
    aa, n, _, _ = _squeeze(r, 0j, 0.0, 0j, 0.0)
    turn = complex(math.cos(2.0 * phi), -math.sin(2.0 * phi))
    d_aa = -2j * turn * aa
    aa = turn * aa
    aa, n, d_aa, d_n = _squeeze(-r, eta1 * aa, eta1 * n, eta1 * d_aa, 0.0)
    try:
        return MomentVector(eta2 * aa, eta2 * n), eta2 * d_n
    except ValueError as exc:
        if not math.isfinite(abs(aa) + n):  # overflow: MomentVector names it
            raise
        # the pass is exact in real arithmetic, so only rounding breaks the bound
        raise ValueError(
            f"the float moment pass cancels at r={r!r}, phi={phi!r}: <n> is a "
            f"difference of terms ~{math.sinh(2.0 * r) ** 2 / 2.0:.1e}, so rounding left "
            "unphysical moments; for a bright probe near phi = 0 with little loss, use "
            "the closed form gaussian.phase_error"
        ) from exc


def protocol_moments(r: float, phi: float, eta1: float = 1.0, eta2: float = 1.0) -> MomentVector:
    """Moments after squeeze(r), rotate(phi), damp(eta1), squeeze(-r), damp(eta2)."""
    return _protocol_pass(r, phi, eta1, eta2)[0]


def number_variance(moments: MomentVector) -> float:
    """Var(n) = m_n^2 + m_n + |m_aa|^2, using the zero-mean Gaussian factorisation
    <a^dag a^dag a a> = 2 <a^dag a>^2 + <a^2><a^dag^2>."""
    return moments.m_n**2 + moments.m_n + abs(moments.m_aa) ** 2


def phase_error_from_moments(n_bar: float, phi: float, eta: float = 1.0) -> float:
    """Phase error recomputed as sqrt(Var n)/|d signal/d phi|, both from the moment pass.

    Independent route used to guard the closed-form kernel against
    transcription slips; the two must agree to high accuracy.
    """
    check_n_bar(n_bar)
    moments, slope = _protocol_pass(math.asinh(math.sqrt(n_bar)), phi, eta, eta)
    if slope == 0.0:
        raise SingularOperatingPointError("signal slope vanishes at this operating point")
    return math.sqrt(number_variance(moments)) / abs(slope)
