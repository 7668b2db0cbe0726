"""Photon-statistics correlation parameters and Fisher-information tools.

Covers the Mandel Q parameter, the two-mode number-correlation coefficient J,
classical Fisher information of a measured probability curve, and the
closed-form (Q, J, QFI) catalogue for the standard interferometer probe
states together with their exact Fock-space counterparts.  It also holds
the package's one finite-difference derivative, :func:`central_derivative`,
a single central difference that reads its curve at phi +- DERIVATIVE_STEP/2,
which the Fisher information and :func:`qmetro.protocol.error_propagation`
both take.  A two-mode ket's number statistics (means, variances,
covariance, hence Q, J and the QFI) are read here, by
:func:`probe_statistics`, in one pass over its weights.
The shot-noise limit the CLI reports is
:func:`qmetro.gaussian.shot_noise_limit`.

The closed forms (:func:`table_row`, :class:`ProbeFamily`) use only the
standard library, so ``table`` without ``--oracle`` imports no numpy: the
functions that need it import it themselves, and :mod:`qmetro.fock` loads on
the first oracle or state-based call.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable

from . import fock
from .gaussian import Frozen, check_n_bar, relative_deviation

if TYPE_CHECKING:
    import numpy as np

    from .fock import PureState

#: Outcomes with probability below this are skipped by the Fisher sum.
FISHER_PROBABILITY_FLOOR = 1e-12
#: Step (radians) of :func:`central_derivative`, which reads phi +- h/2.
DERIVATIVE_STEP = 1e-4


class UndefinedStatisticError(ValueError):
    """A statistic was requested where it is undefined (e.g. Q at <n> = 0)."""


def central_derivative(curve: Callable, phi: float):
    """d curve / d phi as the central difference (curve(phi + h/2) - curve(phi - h/2)) / h.

    h is ``DERIVATIVE_STEP``, so the error is (h/2)^2 f'''(phi)/6.  ``curve``
    may return a float or a numpy array.  A ValueError from ``curve`` (a
    stencil phase outside its domain, say) is raised again naming ``phi``
    and h, with the curve's message.
    """
    h = DERIVATIVE_STEP
    try:
        return (curve(phi + h / 2.0) - curve(phi - h / 2.0)) / h
    except ValueError as exc:
        raise ValueError(
            f"cannot differentiate at phi={phi!r}: the curve refused a phase half of "
            f"DERIVATIVE_STEP={h!r} from it: {exc}"
        ) from exc


def mandel_q(mean_n: float, var_n: float) -> float:
    """(Var n - <n>) / <n>: 0 for Poissonian light, -1 for a number state."""
    if mean_n <= 0:
        raise UndefinedStatisticError(f"Mandel Q undefined at mean photon number {mean_n!r}")
    return (var_n - mean_n) / mean_n


def mode_correlation(var_a: float, var_b: float, cov: float) -> float | None:
    """Cov[n_a, n_b] / (dn_a dn_b), or None when either variance vanishes."""
    if var_a <= 0 or var_b <= 0:
        return None
    return cov / math.sqrt(var_a * var_b)


class ProbeStatistics(Frozen):
    """Number statistics of a two-mode probe, plus its quantum Fisher information.

    ``j`` is None when either mode has zero number variance; ``qfi`` is the
    variance of the half photon-number difference times four, i.e. the pure
    state value for the interferometer generator (n_a - n_b)/2.
    """

    __slots__ = ("mean_n_a", "mean_n_b", "var_n_a", "var_n_b", "cov_nn", "q_a", "q_b", "j", "qfi")

    def __init__(
        self,
        mean_n_a: float,
        mean_n_b: float,
        var_n_a: float,
        var_n_b: float,
        cov_nn: float,
        q_a: float | None,
        q_b: float | None,
        j: float | None,
        qfi: float,
    ) -> None:
        self._init(mean_n_a, mean_n_b, var_n_a, var_n_b, cov_nn, q_a, q_b, j, qfi)
        if self.var_n_a < -1e-10 or self.var_n_b < -1e-10:
            raise ValueError("negative number variance")
        if self.j is not None and abs(self.j) > 1.0 + 1e-10:
            raise ValueError(f"|J| = {abs(self.j)!r} violates the Cauchy-Schwarz bound")
        if self.qfi < -1e-10:
            raise ValueError(f"negative quantum Fisher information {self.qfi!r}")

    @property
    def n_bar(self) -> float:
        return self.mean_n_a + self.mean_n_b


def probe_statistics(state: PureState) -> ProbeStatistics:
    """Number statistics of a two-mode ket, from its weights W = |psi[n_a, n_b]|^2.

    Each mode's <n> and <n^2> come from the row sums of W (mode a) or of W^T
    (mode b), and <n_a n_b> = n W n.
    """
    if state.modes != 2:
        raise ValueError("probe statistics need a two-mode state")
    import numpy as np

    weights = np.abs(state.amplitudes) ** 2
    n = np.arange(state.cutoff + 1, dtype=float)

    def moments(pop: np.ndarray) -> tuple[float, float]:
        mean = float(n @ pop)
        return mean, float(n**2 @ pop) - mean**2

    mean_a, var_a = moments(weights.sum(axis=1))
    mean_b, var_b = moments(weights.T.sum(axis=1))
    cov = float(n @ weights @ n) - mean_a * mean_b
    return ProbeStatistics(
        mean_n_a=mean_a,
        mean_n_b=mean_b,
        var_n_a=var_a,
        var_n_b=var_b,
        cov_nn=cov,
        q_a=mandel_q(mean_a, var_a) if mean_a > 0 else None,
        q_b=mandel_q(mean_b, var_b) if mean_b > 0 else None,
        j=mode_correlation(var_a, var_b, cov),
        qfi=var_a + var_b - 2.0 * cov,
    )


def path_symmetric_qfi(n_bar: float, q: float, j: float) -> float:
    """n_bar (1 + Q)(1 - J), the QFI of an arm-exchange-symmetric probe."""
    if q < -1.0:
        raise ValueError("Mandel Q cannot be below -1")
    if abs(j) > 1.0 + 1e-10:
        raise ValueError("|J| cannot exceed 1")
    return n_bar * (1.0 + q) * (1.0 - j)


# ---------------------------------------------------------------------------
# classical Fisher information and benchmarks
# ---------------------------------------------------------------------------


def classical_fisher_information(prob_curve: Callable[[float], np.ndarray], phi: float) -> float:
    """Fisher information sum_i (dp_i/dphi)^2 / p_i, by :func:`central_derivative`.

    Each probability vector the differences read is checked: no entry below
    -1e-14 (the rest of the rounding is clipped to 0), and a total within
    1e-8 of the one at ``phi``.  Outcomes with probability below
    ``FISHER_PROBABILITY_FLOOR`` at ``phi`` are skipped.
    """
    import numpy as np

    def nonnegative(x: float) -> np.ndarray:
        p = np.asarray(prob_curve(x), dtype=float)
        if p.min() < -1e-14:
            raise ValueError(f"negative probability {p.min():.3e} at phi={x!r}")
        return np.clip(p, 0.0, None)

    p0 = nonnegative(phi)
    total = p0.sum()
    mask = p0 >= FISHER_PROBABILITY_FLOOR

    def probabilities(x: float) -> np.ndarray:
        p = nonnegative(x)
        if abs(p.sum() - total) > 1e-8:
            raise ValueError(
                f"probability curve does not conserve total probability: {p.sum()!r} at "
                f"phi={x!r} against {total!r} at phi={phi!r}"
            )
        return p

    d = central_derivative(probabilities, phi)
    return float(np.sum(d[mask] ** 2 / p0[mask]))


# ---------------------------------------------------------------------------
# probe-state catalogue: closed forms and Fock realisations
# ---------------------------------------------------------------------------


class ProbeFamily(str, Enum):
    """The catalogued interferometer probe states."""

    LASER = "laser"
    NOON = "noon"
    TWIN_SQUEEZED = "twin_squeezed_vacuum"
    CAVES = "caves"
    AMPLIFIED_BELL = "amplified_bell"
    TWIN_FOCK = "twin_fock"
    TMSV = "two_mode_squeezed_vacuum"
    ECS = "entangled_coherent"


#: Families with no direct Fock construction here (closed forms only).
FORMULA_ONLY = frozenset({ProbeFamily.AMPLIFIED_BELL})

#: The entangled-coherent closed forms assume e^{-n_bar} is negligible.
ECS_ASSUMPTION_LIMIT = 1e-6
#: Largest n_bar the catalogue's closed forms take.  Above ~6e153 the
#: amplified-Bell J's 5 n_bar^2 overflows a double (J comes out -0.0), and
#: above ~9e153 QFIs come out infinite or raise OverflowError.
TABLE_NBAR_LIMIT = 5e153


class TableRow(Frozen):
    """Closed-form (Q, J, QFI) of one probe family at mean photon number n_bar."""

    __slots__ = ("state_id", "n_bar", "q", "j", "qfi")

    def __init__(self, state_id: ProbeFamily, n_bar: float, q: float, j: float, qfi: float):
        self._init(state_id, n_bar, q, j, qfi)

    def max_deviation(self, other: "TableRow") -> float:
        """Worst :func:`relative_deviation` of Q, J and QFI against another row."""
        return max(
            relative_deviation(self.q, other.q),
            relative_deviation(self.j, other.j),
            relative_deviation(self.qfi, other.qfi),
        )


def check_table_n_bar(n_bar: float, name: str = "n_bar") -> None:
    """Refuse an n_bar that :func:`gaussian.check_n_bar` refuses, or above TABLE_NBAR_LIMIT."""
    check_n_bar(n_bar, name)
    if n_bar > TABLE_NBAR_LIMIT:
        raise ValueError(
            f"{name}={n_bar!r} is too large: the closed forms overflow a double above "
            f"{TABLE_NBAR_LIMIT:g}"
        )


def table_row(state_id: ProbeFamily | str, n_bar: float) -> TableRow:
    """Exact closed-form Mandel Q, mode correlation J and QFI of a probe family.

    ``n_bar`` is the total mean photon number of the probe, except for the
    two-mode squeezed vacuum where it is the per-mode occupancy sinh^2(r)
    (the standard convention for that state, and the only reading consistent
    with its Q = n_bar row).  The entangled-coherent row additionally
    requires e^{-n_bar} < 1e-6, the regime its closed forms assume, and the
    amplified-Bell row n_bar >= 1 (the Bell pair itself at 1): below 1 its
    Q and J leave their physical ranges.
    """
    family = ProbeFamily(state_id)
    check_table_n_bar(n_bar)
    n = float(n_bar)
    if family is ProbeFamily.LASER:
        return TableRow(family, n, 0.0, 0.0, n)
    if family is ProbeFamily.NOON:
        return TableRow(family, n, n / 2.0 - 1.0, -1.0, n**2)
    if family is ProbeFamily.TWIN_SQUEEZED:
        return TableRow(family, n, n + 1.0, 0.0, n**2 + 2.0 * n)
    if family is ProbeFamily.CAVES:
        s = math.sqrt(n * (n + 2.0))
        return TableRow(
            family,
            n,
            (1.0 + 2.0 * n + s) / 4.0,
            (1.0 - s) / (5.0 + 2.0 * n + s),
            (2.0 * n + n * s + n**2) / 2.0,
        )
    if family is ProbeFamily.AMPLIFIED_BELL:
        if n < 1.0:
            raise ValueError(f"amplified-Bell closed forms need n_bar >= 1; got n_bar={n}")
        return TableRow(
            family,
            n,
            (5.0 * n - 11.0 / n + 2.0) / 8.0,
            -((n + 1.0) ** 2) / (5.0 * n**2 + 10.0 * n - 11.0),
            (3.0 * n**2 + 6.0 * n - 5.0) / 4.0,
        )
    if family is ProbeFamily.TWIN_FOCK:
        return TableRow(family, n, (n / 2.0 - 1.0) / 2.0, -1.0, n**2 / 2.0 + n)
    if family is ProbeFamily.TMSV:
        return TableRow(family, n, n, 1.0, 0.0)
    if family is ProbeFamily.ECS:
        if math.exp(-n) >= ECS_ASSUMPTION_LIMIT:
            raise ValueError(
                f"entangled-coherent closed forms need e^(-n_bar) < {ECS_ASSUMPTION_LIMIT:g}; "
                f"got n_bar={n}"
            )
        return TableRow(family, n, n / 2.0, -1.0 / (1.0 + 2.0 / n), n**2 + n)
    raise ValueError(f"unknown probe family {state_id!r}")  # pragma: no cover


def _as_integer(x: float, what: str) -> int:
    if abs(x - round(x)) > 1e-9:
        raise ValueError(f"{what} requires an integer photon number, got {x}")
    return int(round(x))


def _poisson_cutoff(mean: float) -> int:
    return int(math.ceil(mean + 12.0 * math.sqrt(mean + 1.0) + 18.0))


def _geometric_cutoff(mean_per_mode: float) -> int:
    # (m/(m+1))^c < e^-48: a tail below 1e-20 for a distribution that falls
    # by m/(m+1) per photon, ~4e-12 for one that falls by it per photon pair
    # (oracle_cutoff).
    ratio = mean_per_mode / (mean_per_mode + 1.0)
    return int(math.ceil(48.0 / -math.log(ratio))) + 8


def oracle_cutoff(state_id: ProbeFamily | str, n_bar: float) -> int:
    """Default per-mode cutoff of a family's Fock realisation.

    The weight each arm's number distribution leaves above the cutoff:

    - two-mode squeezed vacuum: (m/(m+1))^(c+1) < e^-48 ~ 1.4e-21 per mode,
      m = n_bar;
    - twin squeezed vacuum and the squeezed arm of Caves (m = n_bar / 2): a
      squeezed vacuum falls by m/(m+1) per photon *pair*, so the same
      geometric cutoff leaves it ~erfc(sqrt 24) ~ 4.3e-12, approached from
      below as n_bar grows (1.7e-14, 6.5e-13 and 2.6e-12 at n_bar 1, 4
      and 20);
    - entangled coherent (m = n_bar), and each arm of the laser's coherent
      pair and the coherent arm of Caves (m = n_bar / 2): a Poisson tail 12
      standard deviations plus 18 photons above the mean m, below 1e-30;
    - NOON and twin Fock: none (the cutoff is the photon number).
    """
    family = ProbeFamily(state_id)
    if family is ProbeFamily.LASER:
        return _poisson_cutoff(n_bar / 2.0)
    if family in (ProbeFamily.NOON, ProbeFamily.TWIN_FOCK):
        return _as_integer(n_bar, family.value)
    if family is ProbeFamily.TWIN_SQUEEZED:
        return _geometric_cutoff(n_bar / 2.0)
    if family is ProbeFamily.CAVES:
        return max(_geometric_cutoff(n_bar / 2.0), _poisson_cutoff(n_bar / 2.0))
    if family is ProbeFamily.TMSV:
        return _geometric_cutoff(n_bar)
    if family is ProbeFamily.ECS:
        return _poisson_cutoff(n_bar)
    raise ValueError(f"no Fock construction for {family.value}")


def oracle_probe(state_id: ProbeFamily | str, n_bar: float, cutoff: int | None = None) -> PureState:
    """Exact in-interferometer Fock state for a catalogued probe family.

    The interferometer prepares the laser, Caves and twin Fock probes from its
    inputs.  Only Caves is built by passing its inputs through the 50:50 beam
    splitter.  The laser's input |sqrt(n_bar), 0> leaves it as the coherent
    pair |i a, a>, a = sqrt(n_bar / 2) (see :func:`fock.beam_splitter`), and
    the twin-Fock input |m, m> as the closed form of :func:`fock.twin_fock`;
    both are built directly, as are the other families.
    """
    family = ProbeFamily(state_id)
    if family in FORMULA_ONLY:
        raise ValueError(f"{family.value} has no Fock construction; its row is formula-only")
    check_table_n_bar(n_bar)
    c = cutoff if cutoff is not None else oracle_cutoff(family, n_bar)
    import numpy as np

    # every probe is a two-mode ket: one that the OS refuses to allocate
    # raises MemoryError here, before its single-mode factors are built
    np.empty((c + 1, c + 1), dtype=complex)

    if family is ProbeFamily.LASER:
        a = math.sqrt(n_bar / 2.0)
        return fock.product(fock.coherent(1j * a, c), fock.coherent(a, c))
    if family is ProbeFamily.NOON:
        return fock.noon(_as_integer(n_bar, "noon"), c)
    if family is ProbeFamily.TWIN_SQUEEZED:
        r = math.asinh(math.sqrt(n_bar / 2.0))
        one = fock.squeezed_vacuum(r, 0.0, c)
        return fock.product(one, one)
    if family is ProbeFamily.CAVES:
        # Equal intensities in both inputs; real laser amplitude against the
        # r > 0 squeezing axis is the phase choice that minimises the QFI
        # denominator, i.e. the canonical operating point.
        alpha = math.sqrt(n_bar / 2.0)
        r = math.asinh(math.sqrt(n_bar / 2.0))
        return _beam_splitter(
            fock.product(fock.coherent(alpha, c), fock.squeezed_vacuum(r, 0.0, c))
        )
    if family is ProbeFamily.TWIN_FOCK:
        n_total = _as_integer(n_bar, "twin_fock")
        if n_total % 2:
            raise ValueError("twin Fock needs an even total photon number")
        return fock.twin_fock(n_total // 2, c)
    if family is ProbeFamily.TMSV:
        return fock.two_mode_squeezed_vacuum(math.asinh(math.sqrt(n_bar)), c)
    if family is ProbeFamily.ECS:
        return fock.entangled_coherent(math.sqrt(n_bar), c)
    raise ValueError(f"unknown probe family {state_id!r}")  # pragma: no cover


def _beam_splitter(state: PureState) -> PureState:
    # The beam splitter acts exactly only below the cutoff in total photon
    # number; a probe must not rest on the clipped blocks above it.  The
    # weight it may leave there is dropped before the split and added to the
    # tolerance, so only complete blocks are rotated (no eigendecompositions).
    clipped, needed = fock.beam_splitter_overflow(state)
    if clipped > fock.CONSTRUCTOR_DEFICIT_LIMIT:
        raise fock.TruncationOverflowError(
            f"beam splitter at cutoff {state.cutoff}: input weight {clipped:.3e} lies in "
            f"total-photon blocks above the cutoff (limit {fock.CONSTRUCTOR_DEFICIT_LIMIT:g}); "
            f"use a cutoff of at least {needed}"
        )
    if clipped > 0.0:
        import numpy as np

        n = np.arange(state.cutoff + 1)
        complete = np.add.outer(n, n) <= state.cutoff
        state = fock.PureState(
            np.where(complete, state.amplitudes, 0.0),
            truncation_tol=state.truncation_tol + clipped,
        )
    return fock.beam_splitter(state)


def oracle_row(state_id: ProbeFamily | str, n_bar: float, cutoff: int | None = None) -> TableRow:
    """(Q, J, QFI) measured on the exact Fock realisation of a probe family."""
    stats = probe_statistics(oracle_probe(state_id, n_bar, cutoff))
    if stats.q_a is None or stats.j is None:
        raise UndefinedStatisticError(f"{state_id}: oracle statistics undefined")
    return TableRow(ProbeFamily(state_id), n_bar, stats.q_a, stats.j, stats.qfi)
