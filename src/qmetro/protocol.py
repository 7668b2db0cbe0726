"""Full squeeze -> phase -> loss -> unsqueeze -> loss -> intensity pipeline.

Runs the protocol in either engine (closed-form Gaussian moments or the exact
truncated Fock oracle), propagates phase estimates by error propagation, and
packages cross-engine comparisons.  Runs are pure functions of their config;
concurrent evaluation of many configs is safe, and ``ProtocolConfig.digest``
gives a stable key for result caching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from . import fock, gaussian
from .fock import MixedState, PureState, TruncationOverflowError
from .gaussian import MomentVector, SingularOperatingPointError

if TYPE_CHECKING:
    import numpy as np

ENGINES = ("gaussian", "fock", "both")

#: run_fock refuses to report results that lost more trace than this.
TRACE_DEFICIT_LIMIT = 1e-8
#: Finite-difference step for error propagation (radians).
DEFAULT_STEP = 1e-4
#: Slope magnitudes below this count as a vanished derivative.
SLOPE_FLOOR = 1e-12


class VanishingDerivativeError(ValueError):
    """Error propagation attempted where the signal slope vanishes."""


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol operating point.

    Exactly one of ``n_bar`` (mean probe photons sinh^2 r) and ``r`` may be
    given, or both if they agree.  ``cutoff`` only affects the Fock engine;
    when omitted, :func:`default_cutoff` supplies it.
    """

    phi: float
    n_bar: float | None = None
    r: float | None = None
    eta1: float = 1.0
    eta2: float = 1.0
    cutoff: int | None = None
    engine: str = "gaussian"

    def __post_init__(self) -> None:
        for name in ("n_bar", "r", "phi", "eta1", "eta2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.n_bar is None and self.r is None:
            raise ValueError("give n_bar or r")
        if self.r is not None:
            try:
                implied = math.sinh(self.r) ** 2
            except OverflowError:
                raise ValueError(f"r={self.r!r} is too large: sinh^2 r overflows") from None
            if self.n_bar is not None and abs(implied - self.n_bar) > 1e-10 * max(
                1.0, abs(self.n_bar)
            ):
                raise ValueError(
                    f"n_bar={self.n_bar} inconsistent with r={self.r} (sinh^2 r = {implied})"
                )
        if self.n_bar is not None and self.n_bar <= 0:
            raise ValueError("n_bar must be positive")
        if self.r is not None and self.r <= 0 and self.n_bar is None:
            raise ValueError("r must be positive")
        for eta in (self.eta1, self.eta2):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"transmissivity {eta!r} outside [0, 1]")
        if not 0.0 <= self.phi <= math.pi / 2.0:
            raise ValueError("phi must lie in [0, pi/2]")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick one of {ENGINES}")
        if self.cutoff is not None and self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")

    @property
    def n_bar_value(self) -> float:
        return self.n_bar if self.n_bar is not None else math.sinh(self.r) ** 2

    @property
    def r_value(self) -> float:
        return self.r if self.r is not None else math.asinh(math.sqrt(self.n_bar))

    def digest(self) -> str:
        """Stable hash of the physical operating point, for result keying."""
        import hashlib

        key = (
            f"{self.n_bar_value!r}|{self.phi!r}|{self.eta1!r}|{self.eta2!r}"
            f"|{self.cutoff!r}|{self.engine}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ProtocolResult:
    """Signal, its variance, and the propagated phase error of one run.

    ``phase_error`` is None exactly at the signal extremum phi = pi/2 where
    the slope vanishes; ``phase_error_is_limit`` marks the analytic phi -> 0
    lossless limit.  ``trace_deficit`` is the weight the Fock pipeline lost
    to truncation (0 for the Gaussian engine).
    """

    moments: MomentVector
    signal: float
    variance: float
    phase_error: float | None
    phase_error_is_limit: bool = False
    trace_deficit: float = 0.0


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-engine deviations for one config, recomputed from stored results."""

    config: ProtocolConfig
    gaussian_result: ProtocolResult
    fock_result: ProtocolResult
    cutoff: int

    def _pair(self, attr: str) -> tuple[float, float]:
        return getattr(self.gaussian_result, attr), getattr(self.fock_result, attr)

    def abs_deviation(self, attr: str) -> float:
        a, b = self._pair(attr)
        return abs(a - b)

    def rel_deviation(self, attr: str) -> float:
        a, b = self._pair(attr)
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    def moment_aa_deviation(self) -> float:
        a = self.gaussian_result.moments.m_aa
        b = self.fock_result.moments.m_aa
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    @property
    def trace_deficit(self) -> float:
        return self.fock_result.trace_deficit


def default_cutoff(n_bar: float) -> int:
    """Smallest even cutoff >= 8 (n_bar + 1), capped at 128.

    A deliberately small starting policy: every Fock run re-checks its actual
    truncation loss and fails loudly when this is not enough, at which point
    the caller should pass an explicit cutoff.
    """
    c = max(2, math.ceil(8.0 * (n_bar + 1.0)))
    return min(128, c + (c % 2))


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
        MomentVector.from_pair(point.m_aa, point.signal),
        point.signal,
        point.variance,
        point.phase_error,
        point.phase_error_is_limit,
    )


def run_fock(config: ProtocolConfig) -> ProtocolResult:
    """Protocol as exact (density-matrix, when lossy) Fock evolution.

    The pipeline stays a ket while no loss has acted and becomes a density
    matrix at the first lossy element.  The number-basis rotation is applied
    with the same orientation the moment engine uses (a -> a e^{-i phi}), so
    the two engines agree on the complex <a^2>, not just on its modulus.
    """
    r, phi = config.r_value, config.phi
    cutoff = config.cutoff if config.cutoff is not None else default_cutoff(config.n_bar_value)

    state: PureState | MixedState = fock.vacuum(cutoff)
    state = _staged(fock.squeeze, state, r, stage="squeeze")
    state = fock.phase_shift(state, -phi)
    if config.eta1 < 1.0:
        state = fock.loss(state, config.eta1)
    # The probe lives at the configured cutoff; the unsqueezed state handed to
    # the detector can be much larger, so the readout stage grows its basis
    # instead of clipping weight.
    state = _staged(fock.squeeze, state, -r, grow=True, stage="anti-squeeze")
    if config.eta2 < 1.0:
        state = fock.loss(state, config.eta2)

    deficit = state.norm_deficit if isinstance(state, PureState) else state.trace_deficit
    if deficit > TRACE_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"final state lost weight {deficit:.3e} > {TRACE_DEFICIT_LIMIT:g}; "
            f"increase the cutoff (currently {cutoff})"
        )
    sig = fock.expectation(state, "n")
    var = fock.expectation(state, "n2") - sig**2
    m_aa = fock.expectation(state, "a2")
    return ProtocolResult(
        MomentVector.from_pair(m_aa, sig), sig, var, None, trace_deficit=deficit
    )


def _staged(op, state, *args, stage: str, **kwargs):
    try:
        return op(state, *args, **kwargs)
    except TruncationOverflowError as exc:
        raise TruncationOverflowError(f"{stage} stage: {exc}") from exc


def run_both(config: ProtocolConfig) -> ComparisonReport:
    cutoff = config.cutoff if config.cutoff is not None else default_cutoff(config.n_bar_value)
    return ComparisonReport(
        config=config,
        gaussian_result=run_gaussian(config),
        fock_result=run_fock(replace(config, cutoff=cutoff)),
        cutoff=cutoff,
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

    The slope is estimated by central differences at ``step`` and ``step/2``
    with Richardson refinement when they disagree beyond 1e-4 relative.
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

    d_h, d_h2 = slope(step), slope(step / 2.0)
    if abs(d_h - d_h2) > 1e-4 * max(abs(d_h2), 1e-300):
        d = (4.0 * d_h2 - d_h) / 3.0
    else:
        d = d_h2
    if abs(d) <= SLOPE_FLOOR:
        raise VanishingDerivativeError(
            f"signal slope {d:.3e} at phi={phi!r} is numerically zero; "
            "this operating point carries no first-order phase information"
        )
    return math.sqrt(variance) / abs(d)


def gaussian_signal_curve(config: ProtocolConfig) -> Callable[[float], tuple[float, float]]:
    """phi -> (signal, variance) through the moment maps at fixed (r, etas)."""
    r, eta1, eta2 = config.r_value, config.eta1, config.eta2

    def curve(phi: float) -> tuple[float, float]:
        moments = gaussian.protocol_moments(r, phi, eta1, eta2)
        return moments.m_n, gaussian.number_variance(moments)

    return curve


def fock_signal_curve(config: ProtocolConfig) -> Callable[[float], tuple[float, float]]:
    """phi -> (signal, variance) through the exact Fock pipeline."""

    def curve(phi: float) -> tuple[float, float]:
        result = run_fock(replace(config, phi=phi))
        return result.signal, result.variance

    return curve


def lossless_output_distribution(config: ProtocolConfig) -> Callable[[float], np.ndarray]:
    """phi -> photon-number distribution of the lossless protocol output.

    The probability curve fed to the classical Fisher information when
    checking that the intensity measurement saturates the quantum bound.
    """
    if config.eta1 != 1.0 or config.eta2 != 1.0:
        raise ValueError("the distribution curve is for the lossless protocol")
    r = config.r_value
    cutoff = config.cutoff if config.cutoff is not None else default_cutoff(config.n_bar_value)

    def curve(phi: float) -> np.ndarray:
        state = fock.squeeze(fock.vacuum(cutoff), r)
        state = fock.phase_shift(state, -phi)
        state = fock.squeeze(state, -r)
        return fock.number_distribution(state)

    return curve
