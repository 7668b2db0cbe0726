"""The protocol's Fock oracle on Python floats: probe, first loss and readout.

:func:`qmetro.protocol.run_fock` runs one pass of this module
(:func:`readout`).  The probe is the closed-form squeezed vacuum on padded
levels (:func:`padded_probe`).  The first loss is its Kraus sum,
t_k[m] = B[m, m + k] s[m + k] for the ket left when k photons are lost
(:func:`loss`).  The un-squeeze and the intensity readout are read in the
Heisenberg picture (:class:`Readout`).

The probe is real up to the phase e^{-i phi n}, so after the loss
rho[m, m + j] = e^{i phi j} R_j[m] with R_j[m] = sum_k t_k[m] t_k[m + j]
real.  The readout needs only j = 0, 2 and 4, and the probe holds only even
n = m + k, so each R_j lives on two lattices of m, one per parity of k.  The
pass accumulates those three real diagonals: it forms no branch matrix and
no density matrix, and its memory is O(cutoff).  The first few branches,
which hold nearly all the weight of a nearly lossless run, are read as kets
instead: that run's readout cancels most of what the diagonals would hold,
and read level by level it keeps the precision of a ket readout.  Nothing
the pass keeps depends on phi, so one pass serves every phase.

Only the standard library is needed.  The package registers this module to
load on first use, so the Gaussian commands never run it; :mod:`qmetro.fock`
takes its squeezed-vacuum amplitudes and its trim rule from here.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, sub

from .gaussian import SQUEEZE_DEFICIT_LIMIT, TruncationOverflowError, check_value

#: trim drops a tail of at most this weight.
TRIM_TAIL = 1e-16


def squeezed_vacuum_amplitudes(r: float, phi: float, cutoff: int) -> list:
    """c_0..c_cutoff of the squeezed vacuum, by the ratio recurrence of its even amplitudes.

    ``c_{2j} = (-1)^j sqrt((2j)!)/(2^j j!) tanh(r)^j / sqrt(cosh r) e^{2 i j phi}``;
    complex, or real floats when phi = 0.
    """
    check_value(r, "r", 0.0)  # the axis is set by phi
    if cutoff < 2 and r > 0:
        raise ValueError("cutoff must be >= 2 to hold a squeezed vacuum")
    amp = 1.0 / math.sqrt(math.cosh(r))
    t = math.tanh(r)
    rot = 1.0
    if phi != 0.0:
        amp, rot = complex(amp), cmath.exp(2j * phi)
    amps = [0.0 * amp] * (cutoff + 1)
    amps[0] = amp
    for two_j in range(2, cutoff + 1, 2):  # 1 / two_j as a reciprocal, as in coherent
        amp = -amp * t * rot * math.sqrt(two_j * (two_j - 1)) * (1.0 / two_j)
        amps[two_j] = amp
    return amps


def trim(weights, least: int) -> tuple[int, float]:
    """How many leading entries to keep, at least ``least``, and the weight of the rest.

    Every entry that carries weight is kept; only a tail of at most
    ``TRIM_TAIL`` is dropped.
    """
    tail = [*accumulate(reversed(weights))][::-1]
    first = next((i for i, rest in enumerate(tail) if rest <= TRIM_TAIL), len(tail))
    keep = max(least, min(len(tail), first + 1))
    return keep, tail[keep] if keep < len(tail) else 0.0


def padded_probe(r: float, cutoff: int) -> tuple[list, float]:
    """The protocol's probe, the real squeezed vacuum past the cutoff, and the weight there.

    The amplitudes are evaluated on 2 max(cutoff + 1, 32) levels.  A weight
    past the cutoff (the spill), or past the padded levels (the closed form's
    weights sum to 1), above ``SQUEEZE_DEFICIT_LIMIT`` raises
    TruncationOverflowError.  The probe keeps every padded level that
    carries weight (:func:`trim`); what it lacks is missing from the trace.
    """
    dim = cutoff + 1
    amps = squeezed_vacuum_amplitudes(r, 0.0, 2 * max(dim, 32) - 1)
    weights = [*map(mul, amps, amps)]
    spill = math.fsum(weights[dim:])
    if spill > SQUEEZE_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"squeeze(r={r:+.4f}) at cutoff {cutoff} spills weight {spill:.3e} "
            "past the cutoff; increase the cutoff"
        )
    beyond = 1.0 - math.fsum(weights)
    if beyond > SQUEEZE_DEFICIT_LIMIT:
        raise TruncationOverflowError(
            f"squeeze(r={r:+.4f}) at cutoff {cutoff} leaves weight {beyond:.3e} "
            f"past its {len(weights)} padded levels; increase the cutoff"
        )
    keep, _ = trim(weights, dim)
    return amps[:keep], spill


class Branches:
    """The probe after the first loss, rho = sum_k |phi_k><phi_k|.

    The branches are phi_k[m] = e^{-i phi (m + k)} t_k[m], t_k real.

    ``kets`` holds the leading branches t_0, t_1, .. as (p, t_k) with
    t_k[i] at m = p + 2i, p the parity of k.  ``diagonals`` holds R_0, R_2
    and R_4 of the other kept branches, R_j[m] = sum_k t_k[m] t_k[m + j],
    each as a pair of lists with R_j[p][i] at m = p + 2i.  ``trace`` is the
    weight of all kept branches.
    """

    __slots__ = ("kets", "diagonals", "trace")

    def __init__(self, kets: list, diagonals: tuple, trace: float) -> None:
        self.kets, self.diagonals, self.trace = kets, diagonals, trace


#: loss keeps this many leading branches as kets, for the readout to read level by level.
KET_BRANCHES = 8
#: _kept_branches leaves unweighed the branches whose weight together is below this.
NEGLIGIBLE_TAIL = 1e-30
_NO_DIAGONALS = (([], []), ([], []), ([], []))


def loss(probe: list, eta: float) -> Branches:
    """Amplitude damping of the real probe ``probe`` (zero at odd levels), kept as Kraus branches.

    Branch k is t_k[m] = B[m, m + k] s[m + k], with
    B[m, n] = sqrt(C(n, k)) (1 - eta)^{k/2} eta^{m/2}, the ket left when k
    photons are lost.  The leading branches are kept by the rule of
    :func:`trim` (:func:`_kept_branches`).  The first ``KET_BRANCHES`` are
    run along m, by B's ratio eta sqrt((n + 1)(n + 2) / ((m + 1)(m + 2))).
    The others are run along k, one row t_k[m] per level m, by B's ratio
    (1 - eta) sqrt((n + 1)(n + 2) / ((k + 1)(k + 2))), and each R_j[m] is the
    dot product of the rows at m and m + j.  eta = 1 keeps the probe as its
    one branch, and eta = 0 the vacuum with the probe's weight.
    """
    even = probe[::2]
    size = len(even)
    if eta == 1.0:
        return Branches([(0, even)], _NO_DIAGONALS, sum(map(mul, even, even)))
    if eta == 0.0:
        weight = sum(map(mul, even, even))
        return Branches([(0, [math.sqrt(weight)])], _NO_DIAGONALS, weight)
    lost = 1.0 - eta
    keep = _kept_branches(even, len(probe), eta)
    roots = _pair_roots(0, size)  # sqrt((n + 1)(n + 2)) at n = 0, 2, 4, ...
    # B's ratio from m to m + 2 is roots[n] eta / sqrt((m + 1)(m + 2))
    down = tuple([eta / root for root in _pair_roots(p, size)] for p in (0, 1))
    kets = []
    for k in range(min(keep, KET_BRANCHES)):
        p = k & 1
        start = (k + p) >> 1  # n = k + p, the branch's first level
        # B[p, p + k] = (1 - eta)^{k/2}, times sqrt((k + 1) eta) when p = 1
        b = math.pow(lost, 0.5 * k) * (math.sqrt((k + 1) * eta) if p else 1.0)
        ratios = map(mul, roots[start:size - 1], down[p])
        kets.append((p, [*map(mul, accumulate(ratios, mul, initial=b), even[start:])]))
    diagonals = (([], []), ([], []), ([], []))
    for p in (0, 1):
        first_k = KET_BRANCHES + (KET_BRANCHES + p) % 2  # the first k past the kets at parity p
        if keep <= first_k:
            continue
        # B's ratio from k to k + 2 is roots[n] (1 - eta) / sqrt((k + 1)(k + 2))
        across = [lost / root for root in _pair_roots(p, size)][first_k >> 1:]
        width = (keep - 1 - first_k) // 2 + 1  # the kept k on this lattice
        r0, r2, r4 = (diagonal[p] for diagonal in diagonals)
        before = last = None
        # B[m, m + first_k] = sqrt(C(m + first_k, first_k) (1 - eta)^first_k) eta^{m/2}
        scale = math.pow(lost, 0.5 * first_k)
        for m in range(p, 2 * size - first_k, 2):
            start = (m + first_k) >> 1  # n = m + first_k on the even lattice
            b = math.sqrt(math.comb(m + first_k, first_k)) * scale * math.pow(eta, 0.5 * m)
            if b == 0.0:
                break  # eta^{m/2} underflowed, and the rows past it are zero too
            stop = start + min(width, size - start)
            ratios = map(mul, roots[start:stop - 1], across)
            row = [*map(mul, accumulate(ratios, mul, initial=b), even[start:stop])]
            r0.append(sum(map(mul, row, row)))
            if last is not None:
                r2.append(sum(map(mul, last, row)))
            if before is not None:
                r4.append(sum(map(mul, before, row)))
            before, last = last, row
    trace = sum(sum(map(mul, t, t)) for _, t in kets) + sum(diagonals[0][0]) + sum(diagonals[0][1])
    return Branches(kets, diagonals, trace)


def _kept_branches(even: list, levels: int, eta: float) -> int:
    """How many leading branches of the loss the :func:`trim` rule keeps.

    ``even`` is the probe on its even levels, of ``levels`` in all.  The
    branches are weighed from the most photons lost down, each weight one
    pass of the ratio recurrence of B^2 along m,
    eta^2 (n + 1)(n + 2) / ((m + 1)(m + 2)) at n = m + k, until the weight
    from there on passes ``TRIM_TAIL``.  The weighing starts where the
    branches above weigh at most ``NEGLIGIBLE_TAIL`` together, by the bound
    sum_{j >= k} w_j <= G(z) / z^k for z >= 1, G(z) = sum_n |s[n]|^2
    (eta + (1 - eta) z)^n the generating function of the weights.
    """
    size = len(even)
    lost = 1.0 - eta
    weights = [*map(mul, even, even)]
    top = levels - 1
    for z in (2.0, 8.0, 32.0, 128.0):
        g = sum(map(mul, weights, accumulate(repeat((eta + lost * z) ** 2, size - 1), mul,
                                             initial=1.0)))
        if g < math.inf:  # not an overflow, which leaves inf or nan
            top = min(top, math.ceil((math.log(g) - math.log(NEGLIGIBLE_TAIL)) / math.log(z)))
    products = _pair_products(0, size)  # (n + 1)(n + 2) at n = 0, 2, 4, ...
    down = tuple([eta * eta / q for q in _pair_products(p, size)] for p in (0, 1))
    tail = 0.0
    for k in range(top, -1, -1):
        p = k & 1
        start = (k + p) >> 1  # n = k + p, the branch's first level
        # B[p, p + k]^2 = (1 - eta)^k, times (k + 1) eta when p = 1
        first = math.pow(lost, k) * ((k + 1) * eta if p else 1.0)
        if first and start < size:
            b2 = accumulate(map(mul, products[start:size - 1], down[p]), mul, initial=first)
            tail += sum(map(mul, b2, weights[start:]))
            if tail > TRIM_TAIL:
                # the first branch whose tail is at most TRIM_TAIL, k + 1, is kept too
                return min(levels, k + 2)
    return 1


@lru_cache(maxsize=4)
def _pair_products(parity: int, size: int) -> list:
    """(m + 1)(m + 2) at m = parity, parity + 2, .., ``size`` entries."""
    return [(m + 1.0) * (m + 2.0) for m in range(parity, parity + 2 * size, 2)]


@lru_cache(maxsize=4)
def _pair_roots(parity: int, size: int) -> list:
    """sqrt((m + 1)(m + 2)) = <m + 2|a^dag^2|m> at m = parity, parity + 2, .., ``size`` entries."""
    return [*map(math.sqrt, _pair_products(parity, size))]


@lru_cache(maxsize=4)
def _bands(size: int) -> tuple:
    """The readout's band coefficients on each lattice m = p + 2i, i < size, per parity p.

    m and m^2 for R_0; v[m] and v[m] (m + 1) for R_2; v[m] v[m + 2] for R_4;
    with v = :func:`_pair_roots`.
    """
    bands = []
    for p in (0, 1):
        m = [float(p + 2 * i) for i in range(size)]
        v = _pair_roots(p, size + 1)
        bands.append((m, [*map(mul, m, m)], v[:size], [*map(mul, v, [x + 1.0 for x in m])],
                      [*map(mul, v, v[1:])]))
    return tuple(bands)


@lru_cache(maxsize=4)
def _roots(size: int) -> list:
    """sqrt(l) at l = 0, 1, 2, .., ``size`` entries."""
    return [*map(math.sqrt, range(size))]


class Readout:
    """<n>, <n^2> and <a^2> after the un-squeeze squeeze(-r), read in the Heisenberg picture.

    squeeze(-r) sends a to b = a cosh r + a^dag sinh r, so b^dag b = Y with
    Y[m, m] = cosh(2r) m + sinh^2 r and Y[m + 2, m] = cosh r sinh r v[m].
    The phase enters only as e^{i phi j} on the diagonals and as the phase
    of each ket's levels, so the readout keeps sums that do not depend on
    it and :meth:`at` reads them at any phi.  Of the diagonals, the sums of
    R_0, m R_0 and m^2 R_0, of v R_2 and v (m + 1) R_2 and of
    v[m] v[m + 2] R_4 (:func:`_bands`).  Of each ket, b phi_k, b^dag phi_k
    and Y phi_k are formed level by level, and their norms are kept apart
    by the power of sin phi they take.
    """

    __slots__ = ("r", "trace", "_diagonal", "_kets")

    def __init__(self, branches: Branches, r: float) -> None:
        self.r, self.trace = r, branches.trace
        ch, sh = math.cosh(r), math.sinh(r)
        r0, r2, r4 = branches.diagonals
        bands = _bands(max(len(r0[0]), len(r0[1]), *(len(t) for _, t in branches.kets)) + 1)
        s0 = s1 = s2 = a0 = a1 = q = 0.0
        for (m, m2, v, vm, vv), d0, d2, d4 in zip(bands, r0, r2, r4):
            s0 += sum(d0)
            s1 += sum(map(mul, m, d0))
            s2 += sum(map(mul, m2, d0))
            a0 += sum(map(mul, v, d2))
            a1 += sum(map(mul, vm, d2))
            q += sum(map(mul, vv, d4))
        self._diagonal = s0, s1, s2, a0, a1, q
        kets = [0.0] * 10
        for p, t in branches.kets:
            for i, value in enumerate(_ket_sums(t, bands[p], p, ch, sh)):
                kets[i] += value
        self._kets = kets

    def at(self, phi: float) -> tuple[float, float, complex]:
        """<n>, <n^2> and <a^2> of the state at phase phi."""
        ch, sh = math.cosh(self.r), math.sinh(self.r)
        chsh, sh2 = ch * sh, sh * sh
        c2 = ch * ch + sh2
        cos, sin = math.cos(phi), math.sin(phi)
        cos2 = math.cos(2.0 * phi)
        s0, s1, s2, a0, a1, q = self._diagonal
        # <Y> = sum R_0 Y[m, m] + 2 cos 2phi sum R_2 Y[m + 2, m]; <Y^2> from (Y^2)[m + j, m]
        n = c2 * s1 + sh2 * s0 + 2.0 * cos2 * chsh * a0
        n2 = (c2 * c2 * s2 + 2.0 * c2 * sh2 * s1 + sh2 * sh2 * s0
              + 2.0 * chsh * chsh * (s2 + s1 + s0)
              + 4.0 * cos2 * chsh * (c2 * a1 + sh2 * a0)
              + 2.0 * math.cos(4.0 * phi) * chsh * chsh * q)
        a2 = (chsh * (2.0 * s1 + s0)
              + (ch * ch * cmath.exp(-2j * phi) + sh2 * cmath.exp(2j * phi)) * a0)
        xx, zz, lx, hx, lz, hz, gg, gs, ss, dd = self._kets
        n += cos * cos * xx + sin * sin * zz
        n2 += gg - 4.0 * sin * sin * gs + 4.0 * sin**4 * ss + (2.0 * sin * cos) ** 2 * dd
        a2 += complex(cos * cos * (ch * lx + sh * hx) + sin * sin * (ch * lz - sh * hz),
                      cos * sin * (ch * lz + sh * hz - ch * lx + sh * hx))
        return n, n2, a2


def _ket_sums(t: list, band: tuple, p: int, ch: float, sh: float) -> tuple:
    """The phase-free sums of one ket branch phi[m] = e^{-i phi m} t[i], m = p + 2i.

    b phi and b^dag phi live on the levels m' = 1 - p + 2j, where they are
    e^{-i phi m'} times cos phi (c L + d H) + i sin phi (c L - d H), with
    L = sqrt(m') t(m' - 1), H = sqrt(m' + 1) t(m' + 1) and (c, d) = (sh, ch)
    for b, (ch, sh) for b^dag: so with X = sh L + ch H and Z = sh L - ch H,
    ||b phi||^2 = cos^2 sum X^2 + sin^2 sum Z^2, and <b^dag phi|b phi> is
    read from the sums of L X, H X, L Z and H Z.  Y phi at m is e^{-i phi m}
    times G - 2 sin^2 phi S + i sin 2phi D, with G = Y[m, m] t + S the
    readout at phi = 0, S = U- + U+ and D = U- - U+, for
    U- = Y[m, m - 2] t(m - 2) and U+ = Y[m, m + 2] t(m + 2).  Returns the
    sums of X^2, Z^2, L X, H X, L Z, H Z, G^2, G S, S^2 and D^2.
    """
    padded = [0.0, *t, 0.0, 0.0]
    roots = _roots(2 * len(t) + 3)
    # m' = 1 - p + 2j: t(m' - 1) is padded[j + 1 - p], t(m' + 1) is padded[j + 2 - p]
    low = [*map(mul, roots[1 - p::2], padded[1 - p:])]
    high = [*map(mul, roots[2 - p::2], padded[2 - p:])]
    x = [*map(add, map(sh.__mul__, low), map(ch.__mul__, high))]
    z = [*map(sub, map(sh.__mul__, low), map(ch.__mul__, high))]
    m, _, v, _, _ = band
    chsh, sh2 = ch * sh, sh * sh
    u = [*map(chsh.__mul__, v)]
    below = [*map(mul, [0.0, *u], padded)]
    above = [*map(mul, u, padded[2:])]
    side = [*map(add, below, above)]
    diagonal = map(add, map((ch * ch + sh2).__mul__, m), repeat(sh2))
    g = [*map(add, map(mul, diagonal, padded[1:]), side)]
    d = [*map(sub, below, above)]
    return (sum(map(mul, x, x)), sum(map(mul, z, z)), sum(map(mul, low, x)),
            sum(map(mul, high, x)), sum(map(mul, low, z)), sum(map(mul, high, z)),
            sum(map(mul, g, g)), sum(map(mul, g, side)), sum(map(mul, side, side)),
            sum(map(mul, d, d)))


@lru_cache(maxsize=8)
def readout(r: float, cutoff: int, eta: float) -> tuple[Readout, float]:
    """The readout of the probe after loss eta (:func:`loss`), and the probe's spill.

    Phase-free, so the points of a curve in phi at one (r, cutoff, eta)
    share one pass.
    """
    probe, spill = padded_probe(r, cutoff)
    return Readout(loss(probe, eta), r), spill
