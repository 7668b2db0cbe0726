"""Full squeeze -> phase -> loss -> unsqueeze -> loss -> intensity pipeline.

Runs the protocol in either engine (closed-form Gaussian moments or the exact
truncated Fock oracle), propagates phase estimates by error propagation, and
packages cross-engine comparisons.  A :class:`ProtocolConfig` holds only the
operating point; the caller picks the engine by calling :func:`run_gaussian`,
:func:`run_fock` or :func:`run_both`.  Both engines return the one record of a
point, :class:`gaussian.ProtocolResult`.  :func:`error_propagation` reads any
(signal, variance) curve at phi for the variance and at phi +- 5e-5 for the
slope, the central difference :func:`correlations.central_derivative`;
its Gaussian curve (:func:`gaussian_signal_curve`) is the forward-mode moment
pass :func:`gaussian.protocol_moments`, not the closed-form kernel.  Runs are
pure functions of their config, so concurrent evaluation of many configs is
safe.

The Gaussian path needs this module and :mod:`qmetro.gaussian` only:
:mod:`qmetro.fock` and :mod:`qmetro.correlations` are read only inside the
functions that use them, so they load on the first Fock run or finite
difference.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from . import correlations, fock, gaussian
from .gaussian import Frozen, ProtocolResult, SingularOperatingPointError, TruncationOverflowError

if TYPE_CHECKING:
    import numpy as np

#: run_fock refuses to report results that lost more trace than this.
TRACE_DEFICIT_LIMIT = 1e-8
#: Slope magnitudes below this count as a vanished derivative.
SLOPE_FLOOR = 1e-12
#: default_cutoff refuses to pick a cutoff above this; pass one explicitly.
#: At it (n_bar 9.1) a cold lossy run_fock takes ~0.06 s at any phi, and
#: 0.18 s at cutoff 800 (2-vCPU x86 VM, one BLAS thread); the readout adds no
#: basis.  Kept at 400 so that the same inputs are refused.
DEFAULT_CUTOFF_CAP = 400
#: default_cutoff stops searching at this cutoff.
_CUTOFF_SEARCH_LIMIT = 1 << 20


class ProtocolConfig(Frozen):
    """One protocol operating point.

    Exactly one of ``n_bar`` (mean probe photons sinh^2 r) and ``r`` is
    given; the other is derived from it on construction, and both are
    stored.  Each value is refused by its ``gaussian`` check, by keyword
    (cutoff >= 2).  ``cutoff`` only affects the Fock engine; when omitted,
    :func:`default_cutoff` supplies it (:attr:`cutoff_value`, resolved on
    first read, because the default may refuse).
    """

    __slots__ = ("phi", "n_bar", "r", "eta1", "eta2", "cutoff")

    def __init__(
        self,
        phi: float,
        n_bar: float | None = None,
        r: float | None = None,
        eta1: float = 1.0,
        eta2: float = 1.0,
        cutoff: int | None = None,
    ) -> None:
        if (n_bar is None) == (r is None):
            raise ValueError("give exactly one of n_bar and r")
        if n_bar is None:
            gaussian.check_r(r)
            n_bar = math.sinh(r) ** 2
        else:
            gaussian.check_n_bar(n_bar)
            r = math.asinh(math.sqrt(n_bar))
        gaussian.check_eta(eta1, "eta1")
        gaussian.check_eta(eta2, "eta2")
        gaussian.check_phi(phi)
        if cutoff is not None:
            gaussian.check_cutoff(cutoff)
        self._init(phi, n_bar, r, eta1, eta2, cutoff)

    @property
    def cutoff_value(self) -> int:
        return self.cutoff if self.cutoff is not None else default_cutoff(self.n_bar)


class ComparisonReport(Frozen):
    """The two engines' results for one config, and their deviations."""

    __slots__ = ("gaussian_result", "fock_result")

    def __init__(self, gaussian_result: ProtocolResult, fock_result: ProtocolResult) -> None:
        self._init(gaussian_result, fock_result)

    def rel_deviation(self, attr: str) -> float:
        """:func:`gaussian.relative_deviation` of a (dotted) result attribute."""
        get = attrgetter(attr)
        return gaussian.relative_deviation(get(self.gaussian_result), get(self.fock_result))


def default_cutoff(n_bar: float) -> int:
    """Smallest even cutoff whose squeezed-vacuum tail is <= SQUEEZE_DEFICIT_LIMIT / 100.

    The squeeze stage of a Fock run then meets its budget by construction.
    The cutoff comes from :func:`squeeze_cutoff`.  Raises
    TruncationOverflowError, before any Fock work, when it exceeds
    DEFAULT_CUTOFF_CAP.
    """
    cutoff, found = squeeze_cutoff(n_bar)
    if cutoff > DEFAULT_CUTOFF_CAP:
        needed = cutoff if found else f"more than {cutoff}"
        raise TruncationOverflowError(
            f"n_bar={n_bar!r} needs a cutoff of {needed} to keep the squeezed-vacuum tail "
            f"below {gaussian.SQUEEZE_DEFICIT_LIMIT / 100.0:g}, above the default cap "
            f"{DEFAULT_CUTOFF_CAP}; pass --cutoff explicitly"
        )
    return cutoff


def squeeze_cutoff(n_bar: float) -> tuple[int, bool]:
    """Smallest even cutoff whose exact squeezed-vacuum tail is <= SQUEEZE_DEFICIT_LIMIT / 100.

    With sinh^2 r = n_bar the squeezed vacuum's photon-number probabilities
    are P(0) = 1/cosh r and P(2m) = P(2m-2) tanh^2 r (2m-1)/(2m); the tail
    past a cutoff is 1 minus their running sum.  The search stops at
    ``_CUTOFF_SEARCH_LIMIT``; the flag tells whether the returned cutoff
    meets the limit or is only where the search stopped.  Refuses an n_bar
    that :func:`gaussian.check_n_bar` refuses.
    """
    gaussian.check_n_bar(n_bar)
    limit = gaussian.SQUEEZE_DEFICIT_LIMIT / 100.0
    tanh_sq = n_bar / (n_bar + 1.0)
    p = total = 1.0 / math.sqrt(n_bar + 1.0)
    m = 0
    while 1.0 - total > limit and 2 * m < _CUTOFF_SEARCH_LIMIT:
        m += 1
        p *= tanh_sq * (2 * m - 1) / (2 * m)
        total += p
    return max(2, 2 * m), 1.0 - total <= limit


def run_gaussian(config: ProtocolConfig) -> ProtocolResult:
    """Protocol in the Gaussian engine: one evaluation of :func:`gaussian.protocol_point`.

    Refuses phi = 0 with loss, where the signal carries no phase information
    to first order, and eta2 = 0, where no light reaches the detector.
    """
    phi, eta1, eta2 = config.phi, config.eta1, config.eta2
    if phi == 0.0 and (eta1 < 1.0 or eta2 < 1.0):
        raise SingularOperatingPointError(
            "phi = 0 with loss: the signal carries no phase information to first order; "
            "operate at a small nonzero phi"
        )
    if eta2 == 0.0:
        raise ValueError(
            "eta2 = 0: no light reaches the detector, so the phase error is undefined"
        )
    return gaussian.protocol_point(config.n_bar, phi, eta1, eta2)


def run_fock(config: ProtocolConfig) -> ProtocolResult:
    """Protocol as exact Fock evolution of the probe, read out in the Heisenberg picture.

    The probe is the closed-form squeezed vacuum of
    :func:`fock.padded_squeezed_vacuum`, which keeps its tail past the
    cutoff; the weight there must stay below
    ``SQUEEZE_DEFICIT_LIMIT``.  The first loss splits the ket into one ket
    per number of photons lost (:func:`fock.loss`, a :class:`fock.MixedState`
    of Kraus branches, one branch without loss), so no density matrix is
    formed.  The anti-squeeze and the readout loss act on the detector's
    moments only: :func:`fock.unsqueezed_moments` gives them after the
    anti-squeeze, exactly, and :func:`_thinned` applies the loss.
    The number-basis rotation is applied with the same orientation the
    moment engine uses (a -> a e^{-i phi}), so the two engines agree on the
    complex <a^2>, not just on its modulus.
    """
    r, phi = config.r, config.phi
    cutoff = config.cutoff_value

    try:
        probe, spill = fock.padded_squeezed_vacuum(r, cutoff)
    except TruncationOverflowError as exc:
        needed, found = squeeze_cutoff(config.n_bar)
        raise TruncationOverflowError(
            f"squeeze stage: {exc}; use a cutoff of {'at least' if found else 'more than'} "
            f"{needed}"
        ) from exc
    state = fock.loss(fock.phase_shift(probe, -phi), config.eta1)
    deficit = spill + state.trace_deficit
    if deficit > TRACE_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"final state lost weight {deficit:.3e} > {TRACE_DEFICIT_LIMIT:g}; "
            f"increase the cutoff (currently {cutoff})"
        )
    sig, n2, m_aa = _thinned(config.eta2, *fock.unsqueezed_moments(state, r))
    moments = gaussian.MomentVector(m_aa, sig)
    return ProtocolResult(moments, n2 - sig**2, None, None, trace_deficit=deficit, cutoff=cutoff)


def _thinned(eta: float, n: float, n2: float, a2: complex) -> tuple[float, float, complex]:
    """<n>, <n^2> and <a^2> after loss eta, from their values before it.

    Loss keeps each photon with probability eta independently (binomial
    thinning), so for any state <n> -> eta <n>,
    <n^2> -> eta^2 <n^2> + eta (1 - eta) <n> and <a^2> -> eta <a^2>.
    """
    return eta * n, eta * eta * n2 + eta * (1.0 - eta) * n, eta * a2


def run_both(config: ProtocolConfig) -> ComparisonReport:
    return ComparisonReport(run_gaussian(config), run_fock(config))


# ---------------------------------------------------------------------------
# error propagation
# ---------------------------------------------------------------------------


def error_propagation(signal_curve: Callable[[float], tuple[float, float]], phi: float) -> float:
    """Phase error sqrt(Var)/|dS/dphi| from a (signal, variance) curve.

    The slope is :func:`correlations.central_derivative` of the signal.
    """
    _, variance = signal_curve(phi)
    if variance < 0:
        raise ValueError(f"negative variance {variance!r} at phi={phi!r}")
    d = correlations.central_derivative(lambda x: signal_curve(x)[0], phi)
    if abs(d) <= SLOPE_FLOOR:
        raise SingularOperatingPointError(
            f"signal slope {d:.3e} at phi={phi!r} is numerically zero; "
            "this operating point carries no first-order phase information"
        )
    return math.sqrt(variance) / abs(d)


def gaussian_signal_curve(config: ProtocolConfig) -> Callable[[float], tuple[float, float]]:
    """phi -> (signal, variance) through the forward-mode moment pass at fixed (r, etas)."""
    r, eta1, eta2 = config.r, config.eta1, config.eta2

    def curve(phi: float) -> tuple[float, float]:
        moments = gaussian.protocol_moments(r, phi, eta1, eta2)
        return moments.m_n, gaussian.number_variance(moments)

    return curve


def lossless_output_distribution(config: ProtocolConfig) -> Callable[[float], np.ndarray]:
    """phi -> photon-number distribution of the lossless protocol output.

    The probability curve fed to the classical Fisher information when
    checking that the intensity measurement saturates the quantum bound.
    """
    if config.eta1 != 1.0 or config.eta2 != 1.0:
        raise ValueError("the distribution curve is for the lossless protocol")
    r = config.r
    probe = fock.squeezed_vacuum(r, 0.0, config.cutoff_value)

    def curve(phi: float) -> np.ndarray:
        return fock.number_distribution(fock.squeeze(fock.phase_shift(probe, -phi), -r))

    return curve
