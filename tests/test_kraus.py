"""The protocol's Fock pass on Python floats against the numpy oracle.

The reference is :func:`qmetro.fock.loss` on the same probe, read out by the
numpy ladder readout ``test_fock.ladder_moments``, which ``test_fock``
checks against the Schroedinger-picture readout.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from qmetro import fock, gaussian, kraus, protocol
from test_fock import ladder_moments, mp_squeezed_vacuum

R1 = math.asinh(1.0)  # sinh^2 r = 1


def reference(r, phi, eta, cutoff):
    """<n>, <n^2>, <a^2> after the un-squeeze and the trace deficit, by fock.loss."""
    probe = fock.PureState(np.array(kraus.padded_probe(r, cutoff)[0], dtype=complex))
    state = fock.loss(fock.phase_shift(probe, -phi), eta)
    return (*ladder_moments(state, r), state.trace_deficit)


def kraus_pass(r, phi, eta, cutoff):
    probe, _ = kraus.padded_probe(r, cutoff)
    branches = kraus.loss(probe, eta)
    return (*kraus.Readout(branches, r).at(phi), max(0.0, 1.0 - branches.trace))


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


#: (r, cutoff): from one level past the vacuum to the default cap, each probe
#: near the most its cutoff holds
PROBES = [(1e-3, 2), (0.1, 8), (0.5, 24), (R1, 60), (1.2, 100), (1.5, 200), (math.asinh(3.0), 400)]
ETAS = [1e-6, 0.5, 0.95, 1.0 - 1e-12, 1.0]


class TestPaddedProbe:
    def test_keeps_all_weight(self):
        # the probe keeps the levels past the cutoff that carry weight, loses
        # at most a 1e-16 tail, and counts the weight past the cutoff as spill
        out, spill = kraus.padded_probe(0.95, 64)
        full = fock.squeezed_vacuum(0.95, 0.0, 129).amplitudes
        keep = len(out)
        assert 65 < keep < 130
        np.testing.assert_array_equal(out, full[:keep].real)
        assert np.sum(np.abs(full[keep:]) ** 2) <= 1e-16
        assert spill == pytest.approx(np.sum(np.abs(full[65:]) ** 2), rel=1e-14)
        assert spill > 1e-10

    @pytest.mark.parametrize("n_bar,cutoff", [(2.0, 100), (4.5, 200)])
    def test_matches_the_exact_amplitudes(self, n_bar, cutoff):
        # the tail past the cutoff as well: the readout's fourth moment
        # weights it by about (e^{2r} n)^2
        r = math.asinh(math.sqrt(n_bar))
        probe, spill = kraus.padded_probe(r, cutoff)
        assert 0.0 < spill <= gaussian.SQUEEZE_DEFICIT_LIMIT
        exact = mp_squeezed_vacuum(r, len(probe))
        assert np.max(np.abs(np.array(probe) - exact)) <= 1e-15

    def test_refusals_name_the_spill_and_the_padded_edge(self):
        with pytest.raises(gaussian.TruncationOverflowError,
                           match=r"^squeeze\(r=\+1\.5000\) at cutoff 12 spills weight 1\.003e-01 "
                                 r"past the cutoff; increase the cutoff$"):
            kraus.padded_probe(1.5, 12)
        # at r = 25 the weight is spread so thin that little of it lies
        # between the cutoff and the padded edge
        with pytest.raises(gaussian.TruncationOverflowError,
                           match=r"^squeeze\(r=\+25\.0000\) at cutoff 60 leaves weight 1\.000e\+00 "
                                 r"past its 122 padded levels; increase the cutoff$"):
            kraus.padded_probe(25.0, 60)


class TestAgainstTheNumpyOracle:
    @pytest.mark.parametrize("r,cutoff", PROBES)
    @pytest.mark.parametrize("eta", ETAS)
    def test_moments_match_fock_loss_and_the_ladder_readout(self, r, cutoff, eta):
        for phi in (0.01, 0.3, 1.0, 1.5):
            got = kraus_pass(r, phi, eta, cutoff)
            expected = reference(r, phi, eta, cutoff)
            for name, a, b in zip(("n", "n2", "a2"), got, expected):
                assert rel(a, b) <= 1e-11, (name, phi, a, b)

    @pytest.mark.parametrize("r,cutoff", PROBES)
    @pytest.mark.parametrize("eta", ETAS)
    def test_trace_deficit_matches_fock_loss(self, r, cutoff, eta):
        # fock.loss's deficit on the probe without its phase, which rotates
        # the branches by rounded factors e^{-i phi n}.  At cutoff 400 its
        # log-space Kraus elements leave fock.loss's own deficit 1.2e-14 from
        # a 40-digit sum at eta 0.5, where this pass's is within 1e-15 (the
        # next test), so the bound there is fock.loss's
        bound = 1e-14 if cutoff <= 200 else 2e-14
        assert abs(kraus_pass(r, 0.0, eta, cutoff)[3] - reference(r, 0.0, eta, cutoff)[3]) <= bound

    @pytest.mark.parametrize("eta", [0.5, 0.9])
    def test_trace_deficit_matches_a_40_digit_sum(self, eta):
        # the weight that leaves the trace: what the kept branches miss of
        # the probe's own weight, to 40 digits, plus the branches dropped
        probe, _ = kraus.padded_probe(math.asinh(3.0), 400)
        branches = kraus.loss(probe, eta)
        kept = kraus._kept_branches(probe[::2], len(probe), eta)
        with mpmath.workdps(40):
            lost, stay = mpmath.mpf(1) - mpmath.mpf(eta), mpmath.mpf(eta)
            dropped = mpmath.fsum(
                mpmath.mpf(a) ** 2 * mpmath.binomial(n, k) * lost**k * stay ** (n - k)
                for n, a in enumerate(probe) if a for k in range(kept, n + 1))
            exact = 1 - mpmath.fsum(mpmath.mpf(a) ** 2 for a in probe) + dropped
        assert abs((1.0 - branches.trace) - float(exact)) <= 1e-15

    @pytest.mark.parametrize("eta", [0.3, 0.8, 0.99])
    def test_keeps_the_branches_fock_loss_keeps(self, eta):
        probe, _ = kraus.padded_probe(math.asinh(3.0), 400)
        kept = kraus._kept_branches(probe[::2], len(probe), eta)
        state = fock.loss(fock.PureState(np.array(probe, dtype=complex)), eta)
        assert kept == state.branches.shape[1]

    def test_a_small_phase_agrees_to_the_readouts_rounding(self):
        # at phi = 1e-3 the un-squeezed output is nearly vacuum, and the
        # readout's sums cancel to it: the two readouts round differently
        for eta in (0.9, 0.95, 0.99):
            got = kraus_pass(math.asinh(3.0), 1e-3, eta, 400)
            expected = reference(math.asinh(3.0), 1e-3, eta, 400)
            for a, b in zip(got[:3], expected[:3]):
                assert rel(a, b) <= 1e-10


class TestPass:
    def test_memory_stays_flat_past_the_default_cap(self):
        # n_bar 20 at cutoff 856: the pass holds O(cutoff) floats, where the
        # branch matrix of fock.loss held ~100 MB
        config = protocol.ProtocolConfig(phi=0.3, n_bar=20.0, eta1=0.5, eta2=0.5, cutoff=856)
        kraus.readout.cache_clear()
        tracemalloc.start()
        try:
            result = protocol.run_fock(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        assert result.trace_deficit <= protocol.TRACE_DEFICIT_LIMIT

    def test_points_of_one_phase_curve_share_the_pass(self):
        kraus.readout.cache_clear()
        for phi in (0.3, 0.3 + 5e-5, 0.3 - 5e-5):
            protocol.run_fock(protocol.ProtocolConfig(phi=phi, n_bar=1.0, eta1=0.9, eta2=0.8,
                                                      cutoff=60))
        info = kraus.readout.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_lossless_and_fully_lossy_runs_are_single_branches(self):
        probe, _ = kraus.padded_probe(R1, 60)
        lossless, dark = kraus.loss(probe, 1.0), kraus.loss(probe, 0.0)
        assert [len(t) for _, t in lossless.kets] == [len(probe[::2])]
        assert dark.kets == [(0, [math.sqrt(sum(a * a for a in probe[::2]))])]
        # all light lost: the vacuum, whose un-squeezed <n> is sinh^2 r
        n, _, a2 = kraus.Readout(dark, R1).at(0.3)
        assert n == pytest.approx(1.0, rel=1e-12)
        assert a2 == pytest.approx(math.cosh(R1) * math.sinh(R1), rel=1e-12)
