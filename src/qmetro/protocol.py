"""Full squeeze -> phase -> loss -> unsqueeze -> loss -> intensity pipeline.

Runs the protocol in either engine (closed-form Gaussian moments or the exact
truncated Fock oracle), propagates phase estimates by error propagation, and
packages cross-engine comparisons.  A :class:`ProtocolConfig` holds only the
operating point; the caller picks the engine by calling :func:`run_gaussian`,
:func:`run_fock` or :func:`run_both`.  Error propagation differences the
Gaussian signal of :func:`gaussian.protocol_moments`, the forward-mode moment
pass, not the closed-form kernel.  Runs are pure functions of their config,
so concurrent evaluation of many configs is safe.

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
from .gaussian import Frozen, MomentVector, SingularOperatingPointError, TruncationOverflowError

if TYPE_CHECKING:
    import numpy as np

#: run_fock refuses to report results that lost more trace than this.
TRACE_DEFICIT_LIMIT = 1e-8
#: Finite-difference step for error propagation (radians).
DEFAULT_STEP = 1e-4
#: Slope magnitudes below this count as a vanished derivative.
SLOPE_FLOOR = 1e-12
#: default_cutoff refuses to pick a cutoff above this; pass one explicitly.
#: At it (n_bar 9.1) a cold lossy run_fock takes ~0.06 s at any phi, and
#: 0.18 s at cutoff 800 (2-vCPU x86 VM, one BLAS thread); the readout adds no
#: basis.  Kept at 400 so that the same inputs are refused.
DEFAULT_CUTOFF_CAP = 400
#: default_cutoff stops searching at this cutoff.
_CUTOFF_SEARCH_LIMIT = 1 << 20


class VanishingDerivativeError(ValueError):
    """Error propagation attempted where the signal slope vanishes."""


class ProtocolConfig(Frozen):
    """One protocol operating point.

    Exactly one of ``n_bar`` (mean probe photons sinh^2 r) and ``r`` is
    given; the other is derived from it.  ``r`` must be positive: a negative
    r would squeeze the Fock probe along the other axis.  ``cutoff`` only
    affects the Fock engine; when omitted, :func:`default_cutoff` supplies
    it (:attr:`cutoff_value`).
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
        self._init(phi, n_bar, r, eta1, eta2, cutoff)
        for name in ("n_bar", "r", "eta1", "eta2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if (self.n_bar is None) == (self.r is None):
            raise ValueError("give exactly one of n_bar and r")
        if self.r is not None and self.r <= 0:
            raise ValueError("r must be positive")
        if self.n_bar is not None and self.n_bar <= 0:
            raise ValueError("n_bar must be positive")
        try:
            n_bar = self.n_bar_value
        except OverflowError:
            raise ValueError(f"r={self.r!r} is too large: sinh^2 r overflows") from None
        gaussian.check_n_bar(n_bar)
        gaussian.check_eta(self.eta1)
        gaussian.check_eta(self.eta2)
        gaussian.check_phi(self.phi)
        if self.cutoff is not None and self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")

    @property
    def n_bar_value(self) -> float:
        return self.n_bar if self.n_bar is not None else math.sinh(self.r) ** 2

    @property
    def r_value(self) -> float:
        return self.r if self.r is not None else math.asinh(math.sqrt(self.n_bar))

    @property
    def cutoff_value(self) -> int:
        return self.cutoff if self.cutoff is not None else default_cutoff(self.n_bar_value)


class ProtocolResult(Frozen):
    """Signal, its variance, and the propagated phase error of one run.

    ``phase_error`` is None exactly at the signal extremum phi = pi/2 where
    the slope vanishes; ``phase_error_is_limit`` marks the analytic phi -> 0
    lossless limit.  ``trace_deficit`` is, for the Fock engine, the weight
    the probe's squeeze moves past the cutoff (kept in the padded basis, but
    what the cutoff would have cost) plus the weight the pipeline dropped:
    Kraus branches and padded levels of at most 1e-16 each.  It is 0 for
    the Gaussian engine.
    """

    __slots__ = (
        "moments", "signal", "variance", "phase_error", "phase_error_is_limit", "trace_deficit",
    )

    def __init__(
        self,
        moments: MomentVector,
        signal: float,
        variance: float,
        phase_error: float | None,
        phase_error_is_limit: bool = False,
        trace_deficit: float = 0.0,
    ) -> None:
        self._init(moments, signal, variance, phase_error, phase_error_is_limit, trace_deficit)


class ComparisonReport(Frozen):
    """Cross-engine deviations for one config, recomputed from stored results."""

    __slots__ = ("config", "gaussian_result", "fock_result", "cutoff")

    def __init__(
        self,
        config: ProtocolConfig,
        gaussian_result: ProtocolResult,
        fock_result: ProtocolResult,
        cutoff: int,
    ) -> None:
        self._init(config, gaussian_result, fock_result, cutoff)

    def rel_deviation(self, attr: str) -> float:
        """|g - f| / max(|g|, |f|) of a (dotted) result attribute."""
        get = attrgetter(attr)
        a, b = get(self.gaussian_result), get(self.fock_result)
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    def moment_aa_deviation(self) -> float:
        return self.rel_deviation("moments.m_aa")

    @property
    def trace_deficit(self) -> float:
        return self.fock_result.trace_deficit


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
    meets the limit or is only where the search stopped.
    """
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
    point = gaussian.protocol_point(config.n_bar_value, phi, eta1, eta2)
    return ProtocolResult(
        MomentVector(point.m_aa, point.signal),
        point.signal,
        point.variance,
        point.phase_error,
        point.phase_error_is_limit,
    )


def run_fock(config: ProtocolConfig) -> ProtocolResult:
    """Protocol as exact Fock evolution of the probe, read out in the Heisenberg picture.

    The probe is the closed-form squeezed vacuum of
    :func:`fock.padded_squeezed_vacuum`, which keeps its tail past the
    cutoff; the weight there must stay below
    ``SQUEEZE_DEFICIT_LIMIT``.  The first loss splits the ket into one ket
    per number of photons lost (:func:`fock.loss`, a :class:`fock.MixedState`
    of Kraus branches), so no density matrix is formed.  The anti-squeeze
    and the readout loss act on the detector's moments only:
    :func:`fock.unsqueezed_moments` gives them after the anti-squeeze,
    exactly, and :func:`_thinned` applies the loss.
    The number-basis rotation is applied with the same orientation the
    moment engine uses (a -> a e^{-i phi}), so the two engines agree on the
    complex <a^2>, not just on its modulus.
    """
    r, phi = config.r_value, config.phi
    cutoff = config.cutoff_value

    try:
        probe, spill = fock.padded_squeezed_vacuum(r, cutoff)
    except TruncationOverflowError as exc:
        needed, found = squeeze_cutoff(config.n_bar_value)
        raise TruncationOverflowError(
            f"squeeze stage: {exc}; use a cutoff of {'at least' if found else 'more than'} "
            f"{needed}"
        ) from exc
    state = fock.phase_shift(probe, -phi)
    if config.eta1 < 1.0:
        state = fock.loss(state, config.eta1)

    lost = state.norm_deficit if isinstance(state, fock.PureState) else state.trace_deficit
    deficit = spill + lost
    if deficit > TRACE_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"final state lost weight {deficit:.3e} > {TRACE_DEFICIT_LIMIT:g}; "
            f"increase the cutoff (currently {cutoff})"
        )
    sig, n2, m_aa = _thinned(config.eta2, *fock.unsqueezed_moments(state, r))
    return ProtocolResult(
        MomentVector(m_aa, sig), sig, n2 - sig**2, None, trace_deficit=deficit
    )


def _thinned(eta: float, n: float, n2: float, a2: complex) -> tuple[float, float, complex]:
    """<n>, <n^2> and <a^2> after loss eta, from their values before it.

    Loss keeps each photon with probability eta independently (binomial
    thinning), so for any state <n> -> eta <n>,
    <n^2> -> eta^2 <n^2> + eta (1 - eta) <n> and <a^2> -> eta <a^2>.
    """
    return eta * n, eta * eta * n2 + eta * (1.0 - eta) * n, eta * a2


def run_both(config: ProtocolConfig) -> ComparisonReport:
    return ComparisonReport(
        config=config,
        gaussian_result=run_gaussian(config),
        fock_result=run_fock(config),
        cutoff=config.cutoff_value,
    )


# ---------------------------------------------------------------------------
# error propagation
# ---------------------------------------------------------------------------


def error_propagation(
    signal_curve: Callable[[float], tuple[float, float]],
    phi: float,
    step: float = DEFAULT_STEP,
) -> float:
    """Phase error sqrt(Var)/|dS/dphi| from a (signal, variance) curve.

    The slope is estimated by central differences at ``step`` and ``step/2``,
    refined by :func:`correlations.richardson` when they disagree.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, variance = signal_curve(phi)
    if variance < 0:
        raise ValueError(f"negative variance {variance!r} at phi={phi!r}")

    def slope(h: float) -> float:
        s_plus, _ = signal_curve(phi + h)
        s_minus, _ = signal_curve(phi - h)
        return (s_plus - s_minus) / (2.0 * h)

    d, _ = correlations.richardson(slope(step), slope(step / 2.0), float)
    if abs(d) <= SLOPE_FLOOR:
        raise VanishingDerivativeError(
            f"signal slope {d:.3e} at phi={phi!r} is numerically zero; "
            "this operating point carries no first-order phase information"
        )
    return math.sqrt(variance) / abs(d)


def gaussian_signal_curve(config: ProtocolConfig) -> Callable[[float], tuple[float, float]]:
    """phi -> (signal, variance) through the forward-mode moment pass at fixed (r, etas)."""
    r, eta1, eta2 = config.r_value, config.eta1, config.eta2

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
    r = config.r_value
    probe = fock.squeezed_vacuum(r, 0.0, config.cutoff_value)

    def curve(phi: float) -> np.ndarray:
        return fock.number_distribution(fock.squeeze(fock.phase_shift(probe, -phi), -r))

    return curve
