"""Truncated Fock-space states, linear-optics unitaries, and photon loss.

Kets of one or two bosonic modes are dense complex amplitude tensors over the
number basis |0>, ..., |cutoff>.  Photon loss turns a single-mode ket into a
mixed state, which is kept as the kets of its Kraus branches,
rho = sum_k |phi_k><phi_k| (:class:`MixedState`), so no density matrix is
ever formed.  No Fock operation grows its basis.  The squeeze, phase and
loss act on one mode; two-mode kets are the probe catalogue's, and their
number statistics are read by :func:`qmetro.correlations.probe_statistics`.
Every state records how much probability weight truncation is allowed to
have cost it (``truncation_tol``), and every operation either preserves
weight exactly or measures what it discarded and fails loudly when that
exceeds its budget.  This module is the slow, exact oracle that the
closed-form machinery elsewhere in the package is checked against, so
correctness is preferred over speed throughout.

All states are immutable values and all operations are pure functions; they
are safe to call concurrently.  The module needs numpy and the standard
library only.  The package registers it to load on first use, so the
Gaussian commands never run it and never import numpy; nor does the
protocol's Fock run, whose pass is :mod:`qmetro.kraus`, on Python floats.
This module takes the squeezed-vacuum amplitudes and the trim rule of its
loss branches from there.  The closed-form constructors run their
recurrences in Python floats; those that truncate a series return through
:func:`_check_constructor_deficit`.  The squeeze of a general ket
(:func:`squeeze`) is the oracle's independent numerical route: its unitary
comes from one eigendecomposition of the generator per basis size, shared by
every squeezing parameter, so no matrix exponential is ever taken.  The loss
branches come from the Kraus matrix elements, evaluated in log space a band
of 64 at a time.  The beam splitter rotates every complete total-photon
block, its unitary from the previous block's by a stable recursion; only the
blocks that the cutoff clips, and only those that hold weight, are
diagonalised.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .gaussian import SQUEEZE_DEFICIT_LIMIT, Frozen, TruncationOverflowError, check_eta, check_value
from .kraus import squeezed_vacuum_amplitudes, trim

DEFAULT_TRUNCATION_TOL = 1e-10
# Constructors refuse to return a state missing more weight than this.
CONSTRUCTOR_DEFICIT_LIMIT = 1e-6

_BS_ANGLE = math.pi / 4


class EmptyProjectionError(ValueError):
    """Projection onto a subspace the state has numerically no support on."""


def _frozen(array: np.ndarray, copy: bool = True) -> np.ndarray:
    out = np.array(array, dtype=complex) if copy else np.asarray(array, dtype=complex)
    out.flags.writeable = False
    return out


def _tol_for(deficit: float, base: float = DEFAULT_TRUNCATION_TOL) -> float:
    # Small slack so the recorded tolerance always covers the measured
    # deficit despite rounding in the norm sum itself (~dim * eps).
    return max(base, deficit * (1.0 + 1e-6) + 1e-12)


class PureState(Frozen):
    """Ket over the truncated number basis of one or two modes.

    ``amplitudes`` has shape ``(cutoff + 1,)`` or ``(cutoff + 1, cutoff + 1)``
    and squared norm in ``[1 - truncation_tol, 1]``.
    """

    __slots__ = ("amplitudes", "truncation_tol")

    def __init__(self, amplitudes: np.ndarray, truncation_tol: float = DEFAULT_TRUNCATION_TOL):
        amps = _frozen(amplitudes)
        if amps.ndim not in (1, 2):
            raise ValueError(f"expected a 1- or 2-mode amplitude tensor, got ndim={amps.ndim}")
        if amps.ndim == 2 and amps.shape[0] != amps.shape[1]:
            raise ValueError(f"two-mode tensor must be square, got shape {amps.shape}")
        if amps.shape[0] < 1:
            raise ValueError("cutoff must be >= 0")
        self._init(amps, truncation_tol)
        norm_sq = self.norm_squared
        if not 1.0 - truncation_tol <= norm_sq <= 1.0 + 1e-12:
            raise ValueError(f"squared norm {norm_sq!r} outside [1 - {truncation_tol:g}, 1]")

    @property
    def modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def norm_deficit(self) -> float:
        return max(0.0, 1.0 - self.norm_squared)


class MixedState(Frozen):
    """Single-mode mixed state rho = sum_k |phi_k><phi_k| held as its branch kets.

    ``branches`` has shape ``(cutoff + 1, K)``; column k is the unnormalised
    ket phi_k, and the squared norms sum to the trace, which must lie in
    ``[1 - truncation_tol, 1]``.  Held this way rho is Hermitian and positive
    by construction, and never formed.  :func:`loss` makes one from a ket.
    Immutable like the other states: the constructor copies ``branches``,
    except from :func:`loss`, which hands over a complex array it owns.
    """

    __slots__ = ("branches", "truncation_tol")
    modes = 1

    def __init__(self, branches: np.ndarray, truncation_tol: float = DEFAULT_TRUNCATION_TOL,
                 *, _owned: bool = False):
        branches = _frozen(branches, copy=not _owned)
        if branches.ndim != 2 or 0 in branches.shape:
            raise ValueError(f"expected a (cutoff + 1, K) branch array, got {branches.shape}")
        self._init(branches, truncation_tol)
        tr = self.trace
        if not 1.0 - truncation_tol <= tr <= 1.0 + 1e-12:
            raise ValueError(f"trace {tr!r} outside [1 - {truncation_tol:g}, 1]")

    @property
    def trace(self) -> float:
        return float(np.vdot(self.branches, self.branches).real)

    @property
    def trace_deficit(self) -> float:
        return max(0.0, 1.0 - self.trace)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def vacuum(cutoff: int) -> PureState:
    """Single-mode vacuum |0>."""
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    return PureState(amps)


def _check_constructor_deficit(amps: np.ndarray, what: str) -> PureState:
    """The ket of a constructor's amplitudes, refused if they miss more than
    ``CONSTRUCTOR_DEFICIT_LIMIT`` of the weight; the deficit is its tolerance."""
    deficit = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    if deficit > CONSTRUCTOR_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"{what}: truncated norm deficit {deficit:.3e} exceeds "
            f"{CONSTRUCTOR_DEFICIT_LIMIT:g}; increase the cutoff"
        )
    return PureState(amps, truncation_tol=_tol_for(deficit))


def coherent(alpha: complex, cutoff: int) -> PureState:
    """Coherent state with amplitude alpha, c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    The recurrence c_n = c_{n-1} alpha / sqrt(n) starts at c_0, unless
    e^{-|a|^2/2} is not a normal double (|a|^2 above ~1417: it would lose
    digits, and underflow to 0 above ~1490).  It then starts at the most
    probable level m = floor(|a|^2), or at the cutoff if that is lower, with
    |c_m| from Stirling's series in a form that cancels nothing, and runs
    down to c_0 as well as up to the cutoff.
    """
    x = abs(alpha) ** 2
    amp = complex(np.exp(-x / 2.0))
    m = int(min(x, cutoff)) if amp.real < sys.float_info.min else 0
    if m:
        # log(e^{-x/2} x^{m/2} / sqrt(m!)), log m! = m log m - m + log(2 pi m)/2 + ...
        log_mod = ((m - x) / 2.0 + m / 2.0 * math.log1p((x - m) / m)
                   - math.log(2.0 * math.pi * m) / 4.0
                   - (1.0 / (12.0 * m) - 1.0 / (360.0 * m**3)) / 2.0)
        theta = m * math.atan2(alpha.imag, alpha.real)
        amp = math.exp(log_mod) * complex(math.cos(theta), math.sin(theta))
    amps = [0j] * (cutoff + 1)
    amps[m] = down = amp
    for n in range(m, 0, -1):
        down = down * (math.sqrt(n) / alpha)
        amps[n - 1] = down
    for n in range(m + 1, cutoff + 1):
        # times the reciprocal, as numpy's complex division by a real rounds
        amp = amp * alpha * (1.0 / math.sqrt(n))
        amps[n] = amp
    return _check_constructor_deficit(
        np.array(amps), f"coherent(alpha={alpha!r}, cutoff={cutoff})"
    )


def squeezed_vacuum(r: float, phi: float, cutoff: int) -> PureState:
    """Single-mode squeezed vacuum; only even number states are populated.

    The even amplitudes are
    ``c_{2j} = (-1)^j sqrt((2j)!)/(2^j j!) tanh(r)^j / sqrt(cosh r) e^{2 i j phi}``,
    which is what exp[(r/2)(a^2 - a^dag^2)] produces from vacuum followed by a
    number-basis phase rotation.
    """
    return _check_constructor_deficit(
        np.array(squeezed_vacuum_amplitudes(r, phi, cutoff), dtype=complex),
        f"squeezed_vacuum(r={r}, cutoff={cutoff})",
    )


def noon(n: int, cutoff: int) -> PureState:
    """Path-entangled (|n,0> + |0,n>)/sqrt(2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cutoff < n:
        raise ValueError(f"cutoff {cutoff} < photon number {n}")
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[n, 0] = amps[0, n] = 1.0 / np.sqrt(2.0)
    return PureState(amps)


def twin_fock(n_half: int, cutoff: int) -> PureState:
    """The twin-Fock probe, |m, m> after the 50:50 :func:`beam_splitter` (m = n_half):
    i^m sum_j sqrt(C(2j, j) C(2m - 2j, m - j)) / 2^m |2j, 2m - 2j> (Holland and Burnett,
    PRL 71, 1355 (1993)), from amp_0^2 = prod_i (2i - 1)/(2i) by its amplitudes' ratios."""
    m = n_half
    if m < 0:
        raise ValueError("n_half must be >= 0")
    if cutoff < 2 * m:
        raise ValueError(f"twin_fock(n_half={m}, cutoff={cutoff}): use a cutoff of at least {2 * m}")
    amp = 1j ** (m % 4) * math.sqrt(math.prod((2 * i - 1) / (2 * i) for i in range(1, m + 1)))
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[0, 2 * m] = amp
    for j in range(m):
        amp *= math.sqrt((2 * j + 1) * (m - j) / ((j + 1) * (2 * m - 2 * j - 1)))
        amps[2 * j + 2, 2 * m - 2 * j - 2] = amp
    return PureState(amps)


def entangled_coherent(alpha: complex, cutoff: int) -> PureState:
    """(|alpha,0> + |0,alpha>)/N with N from the exact <alpha|0> overlap."""
    if abs(alpha) ** 2 < 1e-8:
        raise ValueError("|alpha|^2 < 1e-8: the normalisation degenerates near vacuum")
    coh = coherent(alpha, cutoff)
    vac = np.zeros(cutoff + 1, dtype=complex)
    vac[0] = 1.0
    raw = np.multiply.outer(coh.amplitudes, vac) + np.multiply.outer(vac, coh.amplitudes)
    norm = np.sqrt(2.0 * (1.0 + np.exp(-abs(alpha) ** 2)))
    return _check_constructor_deficit(
        raw / norm, f"entangled_coherent(alpha={alpha!r}, cutoff={cutoff})"
    )


def two_mode_squeezed_vacuum(r: float, cutoff: int) -> PureState:
    """Schmidt series sum_n tanh(r)^n / cosh(r) |n,n>."""
    check_value(r, "r", 0.0)
    n = np.arange(cutoff + 1)
    schmidt = np.tanh(r) ** n / np.cosh(r)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[n, n] = schmidt
    return _check_constructor_deficit(amps, f"two_mode_squeezed_vacuum(r={r}, cutoff={cutoff})")


def product(a: PureState, b: PureState) -> PureState:
    """Two-mode product state a x b from two single-mode states."""
    if a.modes != 1 or b.modes != 1:
        raise ValueError("product() takes two single-mode states")
    if a.cutoff != b.cutoff:
        raise ValueError("both factors must share one cutoff")
    amps = np.multiply.outer(a.amplitudes, b.amplitudes)
    tol = _tol_for(a.norm_deficit + b.norm_deficit, base=max(a.truncation_tol, b.truncation_tol))
    return PureState(amps, truncation_tol=tol)


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------


def beam_splitter(state: PureState) -> PureState:
    """50:50 beam splitter sending |alpha> x |0> to |i alpha/sqrt2> x |alpha/sqrt2>.

    Realised as i^N exp[-i pi/4 (a^dag b + a b^dag)], whose mode map is
    (a, b) -> ((i a + b)/sqrt2, (a + i b)/sqrt2).  The generator conserves
    total photon number, so the unitary is applied exactly within each
    total-number block.  A block whose total is at most the per-mode cutoff
    is complete, and its unitary comes from the previous block's by the
    recursion of :func:`_multiplets`.  A block whose total exceeds the cutoff
    is only partly representable and is rotated within its clipped span, by
    an eigendecomposition of the clipped generator; the input weight in such
    blocks (:func:`beam_splitter_overflow`) bounds what the result gets wrong
    there, and is added to its ``truncation_tol``.  Every complete block is
    rotated, an empty one to zero; a clipped block is rotated only if its
    input holds weight, and only then is that weight measured.  Every block
    is read and written as a strided slice of the C-ordered amplitudes, where
    |k, T - k> sits at T + k cutoff, so no index array is built; the gauge
    diag(i^k) of the complete blocks is built once per call.
    """
    if not isinstance(state, PureState) or state.modes != 2:
        raise ValueError("beam_splitter() acts on two-mode pure states")
    c = state.cutoff
    amps = state.amplitudes
    flat = np.ravel(amps)  # C order: block T is flat[T + k c], k = 0..T
    out = np.zeros_like(flat)
    gauge = _gauge(c + 1)
    # i^N as 1j ** (N % 4): Python's 1j ** N is off by ~1e-14 for N > 100
    for total, orthogonal in enumerate(_multiplets(c)):
        block = slice(total, total * (c + 1) + 1, max(c, 1))
        phases = gauge[: total + 1]
        rotated = orthogonal @ (phases.conj() * flat[block])
        out[block] = 1j ** (total % 4) * phases * rotated
    held = False
    for total in range(c + 1, 2 * c + 1):
        # k = total - c..c
        block = slice(total + (total - c) * c, total + c * c + 1, c)
        if not flat[block].any():
            continue
        held = True
        n_a = np.arange(total - c, c)
        off = np.sqrt((n_a + 1.0) * (total - n_a))
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        rotated = (v * np.exp(-1j * _BS_ANGLE * w)) @ (v.T @ flat[block])
        out[block] = 1j ** (total % 4) * rotated
    clipped = beam_splitter_overflow(state)[0] if held else 0.0
    return PureState(out.reshape(amps.shape), truncation_tol=state.truncation_tol + clipped)


def _multiplets(top: int):
    """Real orthogonal factors R_T of the beam splitter on complete blocks T = 0..top.

    Block T is spanned by |k, T - k>, k = 0..T, a spin-T/2 multiplet.  With
    the gauge D = diag(i^k) the unitary there is i^T D R_T D^*, where R_T is
    the real Wigner rotation exp(pi/4 A), A real antisymmetric with
    A[k, k + 1] = sqrt((k + 1)(T - k)).  Since a^dag a + b^dag b = T on the
    block, U_T = (1/T) sum_{c in a, b} (U c^dag U^dag) U_{T-1} c, which in
    this gauge reads

        R_T[k', k] = (sqrt(k' k) R[k'-1, k-1] - sqrt(k' (T-k)) R[k'-1, k]
                      + sqrt((T-k') k) R[k', k-1] + sqrt((T-k')(T-k)) R[k', k])
                     / (T sqrt2)

    with R = R_{T-1} (Risbo's spin-1/2 coupling for Wigner d-matrices,
    J. Geodesy 70, 383 (1996)).  Its outer factors are a co-isometry and an
    isometry, so rounding does not grow with T.  The one-sided vector
    recurrence built from (i a^dag + b^dag)/sqrt2 alone lacks this: its error
    grows with T and it diverges before T = 400.  The inner sums come from two
    column-scaled copies of R, each T x (T + 1), holding R[k', k-1] sqrt(k)
    and R[k', k] sqrt(T-k); no zero-bordered copy of R is made.
    """
    rot = np.ones((1, 1))
    yield rot
    for total in range(1, top + 1):
        root = np.sqrt(np.arange(total + 1.0))  # sqrt(k), k = 0..T
        rev = root[::-1]  # sqrt(T - k)
        # shift[k', k] = R[k', k-1] sqrt(k), keep[k', k] = R[k', k] sqrt(T-k)
        shift = np.zeros((total, total + 1))
        shift[:, 1:] = rot * root[1:]
        keep = np.zeros((total, total + 1))
        keep[:, :-1] = rot * rev[:-1]
        scale = 1.0 / (total * math.sqrt(2.0))
        rot = np.zeros((total + 1, total + 1))
        rot[1:] = (scale * root[1:])[:, None] * (shift - keep)
        rot[:-1] += (scale * rev[:-1])[:, None] * (shift + keep)
        yield rot


def beam_splitter_overflow(state: PureState) -> tuple[float, int]:
    """Weight of a two-mode ket in total-photon blocks above its cutoff.

    Returns that weight and the smallest cutoff that leaves at most
    ``CONSTRUCTOR_DEFICIT_LIMIT`` of it above, i.e. the cutoff at which the
    beam splitter would act exactly on all but that much of the state.
    """
    c = state.cutoff
    n = np.arange(c + 1)
    per_total = np.bincount(
        (n[:, None] + n[None, :]).ravel(), weights=(np.abs(state.amplitudes) ** 2).ravel()
    )
    beyond = np.append(np.cumsum(per_total[::-1])[::-1][1:], 0.0)  # weight at totals > T
    return float(beyond[c]), int(np.argmax(beyond <= CONSTRUCTOR_DEFICIT_LIMIT))


def phase_shift(state: PureState, phi: float) -> PureState:
    """Number-basis phase e^{i phi n} of a single-mode ket."""
    _check_single_mode_ket(state, "phase_shift")
    factors = np.exp(1j * phi * np.arange(state.cutoff + 1))
    return PureState(factors * state.amplitudes, truncation_tol=state.truncation_tol)


@lru_cache(maxsize=4)
def _squeeze_eigen(dim: int) -> tuple:
    """Eigendecomposition of the squeeze generator on ``dim`` levels, per parity.

    (1/2)(a^2 - a^dag^2) couples n only to n +- 2, so it splits into the even
    and the odd chain n = p, p + 2, ...  On a chain indexed by k the gauge
    D = diag(i^k) turns it into i T with T real symmetric tridiagonal
    (off-diagonal sqrt(n (n - 1)) / 2), hence
    exp[(r/2)(a^2 - a^dag^2)] = D V e^{i r Lambda} V^T D^* with T = V Lambda V^T.
    One decomposition serves every r, squeeze and un-squeeze alike.
    """
    chains = []
    for parity in (0, 1):
        n = np.arange(parity, dim, 2, dtype=float)
        off = 0.5 * np.sqrt(n[1:] * (n[1:] - 1.0))
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        gauge = _gauge(n.size)
        for array in (w, v, gauge):
            array.flags.writeable = False
        chains.append((w, v, gauge))
    return tuple(chains)


def _gauge(size: int) -> np.ndarray:
    """diag(i^k), k = 0..size - 1, as a vector."""
    return np.array([1, 1j, -1, -1j])[np.arange(size) % 4]


def _apply_squeeze(block: np.ndarray, r: float) -> np.ndarray:
    """exp[(r/2)(a^2 - a^dag^2)] @ block over the first ``block.shape[0]`` levels."""
    out = np.empty_like(block)
    column = (-1,) + (1,) * (block.ndim - 1)
    for parity, (w, v, gauge) in enumerate(_squeeze_eigen(block.shape[0])):
        x = v.T @ (gauge.conj().reshape(column) * block[parity::2])
        x *= np.exp(1j * r * w).reshape(column)
        out[parity::2] = gauge.reshape(column) * (v @ x)
    return out


def squeeze(state: PureState, r: float) -> PureState:
    """Single-mode squeeze exp[(r/2)(a^2 - a^dag^2)] of a ket; negative r un-squeezes.

    The unitary acts in a basis padded to 2 max(cutoff + 1, 32) levels, and
    the result is restricted back to the ket's cutoff: the weight it held
    above the cutoff (the spill) is the truncation deficit.  A spill above
    ``SQUEEZE_DEFICIT_LIMIT``, or weight at the pad's edge, raises
    TruncationOverflowError.
    """
    _check_single_mode_ket(state, "squeeze")
    if r == 0.0:
        return state
    dim = state.cutoff + 1
    padded = np.zeros(2 * max(dim, 32), dtype=complex)
    padded[:dim] = state.amplitudes
    out = _apply_squeeze(padded, r)
    weights = np.abs(out) ** 2
    spill = float(weights[dim:].sum())
    edge = float(weights[-4:].sum())
    if spill > SQUEEZE_DEFICIT_LIMIT or edge > 0.1 * SQUEEZE_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"squeeze(r={r:+.4f}) at cutoff {state.cutoff} spills weight {spill:.3e} "
            f"past the cutoff (pad edge {edge:.3e}); increase the cutoff"
        )
    return PureState(
        out[:dim], truncation_tol=_tol_for(state.norm_deficit + spill, base=state.truncation_tol)
    )


def _check_single_mode_ket(state: object, caller: str) -> None:
    if not isinstance(state, PureState) or state.modes != 1:
        raise ValueError(
            f"{caller}() acts on single-mode kets, not mixed states or two-mode kets"
        )


# ---------------------------------------------------------------------------
# photon loss channel
# ---------------------------------------------------------------------------


def _log_factorials(dim: int) -> np.ndarray:
    """log j! for j = 0..dim - 1, then dim - 1 entries -inf: the source of
    :func:`_loss_band`'s Hankel view, built once per :func:`loss` call."""
    return np.array([math.lgamma(j + 1.0) for j in range(dim)] + [-math.inf] * (dim - 1))


def _loss_band(eta: float, log_fact: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows k = start..stop - 1 of band[k, m] = B[m, m + k] = <m|K_k|m + k>, 0 for m + k >= dim.

    B[m, n] = sqrt(C(n, n-m)) (1-eta)^{(n-m)/2} eta^{m/2} for 0 < eta < 1,
    evaluated in log space in one pass; log (m + k)! enters as a Hankel view
    of ``log_fact`` (:func:`_log_factorials` of dim), whose -inf padding
    makes the entries past the basis come out as exp(-inf) = 0.
    """
    dim = (log_fact.size + 1) // 2
    stop = min(stop, dim)
    head = log_fact[:dim]
    log_b = np.lib.stride_tricks.sliding_window_view(log_fact, dim)[start:stop] - head
    log_b -= head[start:stop, None]
    log_b += (np.arange(start, stop) * np.log1p(-eta))[:, None]
    log_b += np.arange(dim) * np.log(eta)
    log_b *= 0.5
    return np.exp(log_b, out=log_b)


def loss(state: PureState, eta: float) -> MixedState:
    """Amplitude damping of a single-mode ket, kept as its Kraus branches.

    The Kraus operators are ``K_k[n-k, n] = sqrt(C(n, k)) (1-eta)^{k/2}
    eta^{(n-k)/2}``; they satisfy sum_k K_k^dag K_k = 1 exactly on the
    truncated space (binomial identity).  The output is
    rho = sum_k |phi_k><phi_k| with phi_k = K_k psi, i.e.
    phi_k[m] = B[m, m + k] psi[m + k] (:func:`_loss_band`): the ket left when
    k photons are lost, whose squared norm is the probability of that.  The
    leading branches are kept by the rule of :func:`qmetro.kraus.trim`; the dropped
    ones' weight leaves the trace, so it shows in ``trace_deficit``.  B is
    evaluated 64 rows at a time, from log-factorials built once per call, so
    nothing of size (cutoff + 1)^2 is formed, and the branches are written
    once, C-ordered, and not copied again.
    """
    check_eta(eta)
    _check_single_mode_ket(state, "loss")
    psi = state.amplitudes
    dim = psi.size
    dropped = 0.0
    if eta == 1.0:
        branches = psi[:, None]
    elif eta == 0.0:
        branches = np.zeros((dim, 1))
        branches[0] = math.sqrt(state.norm_squared)
    else:
        # shifted[k, m] = psi[m + k], 0 past the cutoff (a view)
        shifted = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([psi, np.zeros(dim - 1)]), dim
        )
        log_fact = _log_factorials(dim)
        weights = np.concatenate([
            np.einsum("km,km->k", _loss_band(eta, log_fact, k, k + 64) ** 2,
                      np.abs(shifted[k : k + 64]) ** 2)
            for k in range(0, dim, 64)
        ])
        keep, dropped = trim(weights, 1)
        branches = np.multiply(_loss_band(eta, log_fact, 0, keep).T, shifted[:keep].T,
                               order="C")
    return MixedState(
        branches, truncation_tol=_tol_for(state.norm_deficit + dropped, base=state.truncation_tol),
        _owned=True,
    )


# ---------------------------------------------------------------------------
# measurements and projections
# ---------------------------------------------------------------------------


def project_total_photon(state: PureState, n_total: int) -> PureState:
    """Renormalised restriction of a two-mode ket to n_a + n_b = n_total."""
    if not isinstance(state, PureState) or state.modes != 2:
        raise ValueError("project_total_photon() acts on two-mode pure states")
    if n_total < 0:
        raise ValueError("n_total must be >= 0")
    c = state.cutoff
    n = np.arange(c + 1)
    mask = (n[:, None] + n[None, :]) == n_total
    projected = np.where(mask, state.amplitudes, 0.0)
    weight = float(np.vdot(projected, projected).real)
    if weight <= 1e-12:
        raise EmptyProjectionError(
            f"state has weight {weight:.3e} <= 1e-12 in the {n_total}-photon subspace"
        )
    return PureState(projected / np.sqrt(weight))


def number_distribution(state: PureState) -> np.ndarray:
    """Photon-number probabilities of a ket: vector (one mode) or matrix (two modes)."""
    return np.abs(state.amplitudes) ** 2


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 of two kets on the same truncated basis."""
    if not isinstance(a, PureState) or not isinstance(b, PureState):
        raise ValueError("fidelity() takes two kets")
    if b.amplitudes.shape != a.amplitudes.shape:
        raise ValueError("states live on different truncated bases")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
