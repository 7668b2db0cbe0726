import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmetro import correlations as co
from qmetro import fock, gaussian
from test_gaussian import N_BAR_REFUSALS

R1 = math.asinh(1.0)
#: Maximum norm deficit a state may carry into a QFI evaluation.
QFI_NORM_DEFICIT_LIMIT = 1e-6
GENERATORS = ("n", "n_diff", "half_n_diff")


def rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def pure_state_qfi(state, generator: str) -> float:
    """4 Var(G) for a number-diagonal generator G: the pure-state QFI reference.

    ``generator``: ``n`` (one mode), ``n_diff`` = n_a - n_b, or
    ``half_n_diff`` = (n_a - n_b)/2 (the interferometer convention).
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; pick one of {GENERATORS}")
    if state.norm_deficit > QFI_NORM_DEFICIT_LIMIT:
        raise ValueError(
            f"state norm deficit {state.norm_deficit:.3e} too large for a QFI evaluation"
        )
    weights = np.abs(state.amplitudes) ** 2
    n = np.arange(state.cutoff + 1, dtype=float)
    if generator == "n":
        if state.modes != 1:
            raise ValueError("generator 'n' needs a one-mode state")
        values = n
    else:
        if state.modes != 2:
            raise ValueError(f"generator {generator!r} needs a two-mode state")
        values = n[:, None] - n[None, :]
        if generator == "half_n_diff":
            values = 0.5 * values
    mean = float(np.sum(values * weights))
    mean_sq = float(np.sum(values**2 * weights))
    return 4.0 * (mean_sq - mean**2)


class TestMandelQ:
    def test_poissonian_is_zero(self):
        assert co.mandel_q(2.5, 2.5) == 0.0

    def test_squeezed_mode(self):
        # single squeezed mode with mean m has variance 2 m (m + 1)
        m = 1.3
        assert co.mandel_q(m, 2 * m * (m + 1)) == pytest.approx(2 * m + 1)

    def test_number_state_floor(self):
        assert co.mandel_q(3.0, 0.0) == pytest.approx(-1.0)

    def test_undefined_at_zero_mean(self):
        with pytest.raises(co.UndefinedStatisticError):
            co.mandel_q(0.0, 0.0)


class TestModeCorrelation:
    def test_perfect_anticorrelation(self):
        stats = co.probe_statistics(fock.noon(3, 5))
        assert stats.j == pytest.approx(-1.0, abs=1e-12)

    def test_product_coherent_uncorrelated(self):
        state = fock.product(fock.coherent(0.9, 25), fock.coherent(1.1, 25))
        stats = co.probe_statistics(state)
        assert stats.j == pytest.approx(0.0, abs=1e-10)

    def test_twin_beam_correlation(self):
        stats = co.probe_statistics(fock.two_mode_squeezed_vacuum(R1, 60))
        assert stats.j == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_flagged(self):
        assert co.mode_correlation(0.0, 1.0, 0.0) is None
        twin = np.zeros((5, 5), dtype=complex)
        twin[2, 2] = 1.0
        stats = co.probe_statistics(fock.PureState(twin))
        assert stats.j is None


def expectation(state, observable, mode=0):
    """One number moment of a two-mode ket from its own pass over the weights."""
    n = np.arange(state.cutoff + 1, dtype=float)
    weights = np.abs(state.amplitudes if mode == 0 else state.amplitudes.T) ** 2
    if observable == "cross_nn":
        return float(n @ weights @ n)
    return float((n if observable == "n" else n**2) @ weights.sum(axis=1))


def reference_statistics(state):
    """probe_statistics by five separate expectation values, one per moment."""
    means, variances = [], []
    for mode in (0, 1):
        m1 = expectation(state, "n", mode)
        m2 = expectation(state, "n2", mode)
        means.append(m1)
        variances.append(m2 - m1**2)
    (mean_a, mean_b), (var_a, var_b) = means, variances
    cov = expectation(state, "cross_nn") - mean_a * mean_b
    return co.ProbeStatistics(
        mean_a, mean_b, var_a, var_b, cov,
        co.mandel_q(mean_a, var_a) if mean_a > 0 else None,
        co.mandel_q(mean_b, var_b) if mean_b > 0 else None,
        co.mode_correlation(var_a, var_b, cov),
        var_a + var_b - 2.0 * cov,
    )


def bits(stats):
    values = [getattr(stats, name) for name in stats.__slots__]
    return [None if v is None else float.hex(v) for v in values]


class TestProbeStatistics:
    @pytest.mark.parametrize("n_bar", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("family", sorted(set(co.ProbeFamily) - co.FORMULA_ONLY))
    def test_catalogue_matches_the_expectation_route_bit_for_bit(self, family, n_bar):
        try:
            state = co.oracle_probe(family, n_bar)
        except ValueError:
            pytest.skip(f"{family.value} has no Fock realisation at n_bar {n_bar}")
        assert bits(co.probe_statistics(state)) == bits(reference_statistics(state))

    def test_random_kets_match_the_expectation_route_bit_for_bit(self):
        rng = np.random.default_rng(20240811)
        for _ in range(300):
            size = int(rng.integers(1, 25))
            raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            state = fock.PureState(raw / np.linalg.norm(raw))
            assert bits(co.probe_statistics(state)) == bits(reference_statistics(state))

    def test_needs_a_two_mode_ket(self):
        for state in (fock.vacuum(4), fock.loss(fock.vacuum(4), 0.5)):
            with pytest.raises(ValueError, match="two-mode"):
                co.probe_statistics(state)


class TestPureStateQfi:
    def test_noon_reaches_squared_scaling(self):
        assert pure_state_qfi(fock.noon(4, 6), "half_n_diff") == pytest.approx(16.0)

    def test_vacuum_carries_nothing(self):
        assert pure_state_qfi(fock.vacuum(6), "n") == 0.0

    def test_squeezed_vacuum_number_generator(self):
        # 4 Var(n) = 8 m (m + 1) at mean m = 1
        state = fock.squeezed_vacuum(R1, 0.0, 80)
        assert pure_state_qfi(state, "n") == pytest.approx(16.0, rel=1e-8)

    def test_generator_mode_count(self):
        with pytest.raises(ValueError):
            pure_state_qfi(fock.vacuum(4), "n_diff")
        with pytest.raises(ValueError):
            pure_state_qfi(fock.noon(1, 3), "n")

    def test_rejects_unnormalised(self):
        amps = np.zeros(40, dtype=complex)
        amps[0] = math.sqrt(1 - 1e-4)
        state = fock.PureState(amps, truncation_tol=2e-4)
        with pytest.raises(ValueError):
            pure_state_qfi(state, "n")


class TestPathSymmetricQfi:
    def test_shot_noise_level(self):
        assert co.path_symmetric_qfi(4.0, 0.0, 0.0) == 4.0

    def test_twin_squeezed_point(self):
        assert co.path_symmetric_qfi(2.0, 3.0, 0.0) == 8.0

    def test_number_state_factor_kills_it(self):
        assert co.path_symmetric_qfi(5.0, -1.0, 0.7) == 0.0


class TestCentralDerivative:
    def test_half_step_branch(self):
        # the cube's third derivative is 6, so the difference at phi +- h/2
        # is off by (h/2)^2 exactly
        h = co.DERIVATIVE_STEP
        assert co.central_derivative(lambda t: t**3, 1.0) == pytest.approx(
            3.0 + h**2 / 4.0, abs=1e-11
        )


class TestClassicalFisher:
    def test_binomial_model(self):
        # p = (cos^2(phi/2), sin^2(phi/2)) has F = 1 for every phi
        curve = lambda p: np.array([math.cos(p / 2) ** 2, math.sin(p / 2) ** 2])
        assert co.classical_fisher_information(curve, math.pi / 2) == pytest.approx(
            1.0, rel=1e-8
        )

    def test_constant_curve(self):
        assert co.classical_fisher_information(lambda p: np.array([0.3, 0.7]), 0.4) == 0.0

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            co.classical_fisher_information(lambda p: np.array([-0.1, 1.1]), 0.2)

    def test_reads_the_curve_at_three_phases(self):
        # phi for the probabilities it weighs, and phi +- DERIVATIVE_STEP/2
        phases = []

        def curve(p):
            phases.append(p)
            return np.array([math.cos(p / 2) ** 2, math.sin(p / 2) ** 2])

        co.classical_fisher_information(curve, 0.4)
        h = co.DERIVATIVE_STEP
        assert phases == [0.4, 0.4 + h / 2, 0.4 - h / 2]

    def test_leaky_curve_rejected(self):
        with pytest.raises(ValueError):
            co.classical_fisher_information(lambda p: np.array([0.5 + p, 0.5]), 0.2)

    def test_diagnostics(self):
        # the outcome of probability 0 is skipped, not divided by
        curve = lambda p: np.array([math.cos(p / 2) ** 2, math.sin(p / 2) ** 2, 0.0])
        assert co.classical_fisher_information(curve, 0.8) == pytest.approx(1.0, rel=1e-8)


class TestBenchmarks:
    def test_shot_noise_conventions(self):
        # one convention, the single-mode 1/sqrt(4 n_bar) the CLI reports;
        # correlations carries no second one
        assert gaussian.shot_noise_limit(1.5e4) == pytest.approx(1.0 / math.sqrt(6e4))
        assert gaussian.shot_noise_limit(4.0) == 0.25
        assert not hasattr(co, "shot_noise_limit")
        assert not hasattr(co, "SNL_CONVENTIONS")

    def test_single_mode_shot_noise_is_the_gaussian_one(self):
        for n_bar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as info:
                gaussian.shot_noise_limit(n_bar)
            assert str(info.value) == N_BAR_REFUSALS[repr(n_bar)]


class TestTableRows:
    def test_noon_row(self):
        row = co.table_row("noon", 4.0)
        assert (row.q, row.j, row.qfi) == (1.0, -1.0, 16.0)

    def test_caves_row(self):
        row = co.table_row("caves", 2.0)
        assert row.qfi == pytest.approx(4.0 + 2.0 * math.sqrt(2.0), rel=1e-14)

    def test_twin_fock_row(self):
        row = co.table_row("twin_fock", 2.0)
        assert (row.q, row.j, row.qfi) == (0.0, -1.0, 4.0)

    def test_ecs_needs_bright_probe(self):
        with pytest.raises(ValueError):
            co.table_row("entangled_coherent", 5.0)
        co.table_row("entangled_coherent", 20.0)

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            co.table_row("bell", 2.0)

    def test_nonpositive_n_bar(self):
        with pytest.raises(ValueError):
            co.table_row("noon", 0.0)
        with pytest.raises(ValueError, match="^n_bar=nan is not a finite number$"):
            co.table_row("noon", math.nan)
        # the table takes n_bar from the floor the protocol does
        with pytest.raises(ValueError, match="smallest mean photon number 1e-150"):
            co.table_row("noon", 1e-200)

    def test_n_bar_above_the_overflow_limit(self):
        for family in co.ProbeFamily:
            row = co.table_row(family, co.TABLE_NBAR_LIMIT)
            assert all(math.isfinite(x) for x in (row.q, row.j, row.qfi)), family
            with pytest.raises(ValueError, match="too large"):
                co.table_row(family, 1.3e154)

    def test_rows_satisfy_path_symmetric_identity(self):
        for family in co.ProbeFamily:
            for n_bar in (1.0, 2.0, 4.0, 11.5, 40.0):
                try:
                    row = co.table_row(family, n_bar)
                except ValueError:
                    continue
                identity = co.path_symmetric_qfi(row.n_bar, row.q, row.j)
                assert rel_dev(row.qfi, identity) < 1e-12, family


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "family,n_bar",
        [
            ("laser", 4.0),
            ("laser", 1460.0),  # cutoff 1937: built as its pair, never beam-split
            ("noon", 3.0),
            ("twin_squeezed_vacuum", 1.0),
            ("caves", 2.0),
            ("twin_fock", 4.0),
            ("two_mode_squeezed_vacuum", 1.0),
        ],
    )
    def test_row_matches_oracle(self, family, n_bar):
        row = co.table_row(family, n_bar)
        oracle = co.oracle_row(family, n_bar)
        assert rel_dev(row.q, oracle.q) < 1e-8
        assert rel_dev(row.j, oracle.j) < 1e-8
        assert rel_dev(row.qfi, oracle.qfi) < 1e-8

    def test_oracle_beam_splitter_rotates_complete_blocks_only(self, monkeypatch):
        # the probe's little weight above the cutoff in total photon number is
        # dropped and counted in the tolerance: no clipped block is rotated
        c = 12
        state = fock.product(fock.coherent(1.0, c), fock.squeezed_vacuum(0.3, 0.0, c))
        clipped, _ = fock.beam_splitter_overflow(state)
        assert 0.0 < clipped <= fock.CONSTRUCTOR_DEFICIT_LIMIT
        full = fock.beam_splitter(state)

        def no_eigendecomposition(matrix):
            raise AssertionError("a clipped block was diagonalised")

        monkeypatch.setattr(np.linalg, "eigh", no_eigendecomposition)
        out = co._beam_splitter(state)
        n = np.arange(c + 1)
        complete = np.add.outer(n, n) <= c
        assert np.array_equal(out.amplitudes[complete], full.amplitudes[complete])
        assert not out.amplitudes[~complete].any()
        assert out.truncation_tol == state.truncation_tol + clipped
        assert out.norm_squared == pytest.approx(state.norm_squared - clipped, abs=1e-15)

    @pytest.mark.parametrize("n_bar", [1.0, 2.0, 4.0])
    def test_laser_oracle_is_its_coherent_pair(self, n_bar, monkeypatch):
        # the beam splitter's output |i a, a> is built directly: none is run
        def no_beam_splitter(state):
            raise AssertionError("the laser oracle ran the beam splitter")

        monkeypatch.setattr(fock, "beam_splitter", no_beam_splitter)
        assert co.oracle_row("laser", n_bar).max_deviation(co.table_row("laser", n_bar)) < 1e-13

    @pytest.mark.parametrize("n_bar", [math.nan, math.inf, -1.0])
    def test_oracle_refuses_n_bar_by_name(self, n_bar):
        # refused before the family's cutoff is computed from it
        with pytest.raises(ValueError) as info:
            co.oracle_row("laser", n_bar)
        assert str(info.value) == N_BAR_REFUSALS[repr(n_bar)]

    def test_amplified_bell_needs_one_photon(self):
        # at n_bar 1 the closed forms give the Bell pair's own values; below 1
        # they leave the physical range: J -1.76 at 0.9, -16.2 at 0.8 (its
        # denominator vanishes at 0.789), +1.86 at 0.7, and Q -2.19 with QFI
        # -0.3125 at 0.5, all of which path_symmetric_qfi refuses
        row = co.table_row("amplified_bell", 1.0)
        assert (row.q, row.j, row.qfi) == (-0.5, -1.0, 1.0)
        assert co.path_symmetric_qfi(row.n_bar, row.q, row.j) == row.qfi
        for n_bar in (0.9999999999999999, 0.9, 0.8, 0.7, 0.5, 1e-3, 1e-150):
            with pytest.raises(ValueError) as info:
                co.table_row("amplified_bell", n_bar)
            assert str(info.value) == (
                f"amplified-Bell closed forms need n_bar >= 1; got n_bar={n_bar}"
            )

    def test_amplified_bell_is_formula_only(self):
        with pytest.raises(ValueError):
            co.oracle_probe("amplified_bell", 4.0)

    def test_oracle_states_are_path_symmetric(self):
        for family, n_bar in [("caves", 2.0), ("twin_fock", 2.0), ("laser", 1.0)]:
            stats = co.probe_statistics(co.oracle_probe(family, n_bar))
            assert abs(stats.mean_n_a - stats.mean_n_b) < 1e-10
            assert rel_dev(stats.var_n_a, stats.var_n_b) < 1e-10

    def test_eq3_equals_eq5_on_oracle_states(self):
        # variance-covariance QFI vs n(1+Q)(1-J) on exchange-symmetric probes
        for family, n_bar in [
            ("laser", 2.0),
            ("noon", 4.0),
            ("twin_squeezed_vacuum", 2.0),
            ("caves", 2.0),
        ]:
            stats = co.probe_statistics(co.oracle_probe(family, n_bar))
            direct = stats.qfi
            factored = co.path_symmetric_qfi(stats.n_bar, stats.q_a, stats.j)
            assert rel_dev(direct, factored) < 1e-8

    def test_generator_route_agrees(self):
        state = co.oracle_probe("noon", 4.0)
        assert pure_state_qfi(state, "half_n_diff") == pytest.approx(16.0)

    def test_classical_fisher_bounded_by_qfi(self):
        # photon counting after an extra half phase cannot beat the quantum bound
        state = co.oracle_probe("twin_fock", 2.0)
        qfi = pure_state_qfi(state, "half_n_diff")
        n = np.arange(state.cutoff + 1)
        half_diff = 0.5 * (n[:, None] - n[None, :])

        def curve(phi):
            # the relative phase e^{i phi (n_a - n_b)/2}
            shifted = fock.PureState(np.exp(1j * phi * half_diff) * state.amplitudes)
            return fock.number_distribution(fock.beam_splitter(shifted)).reshape(-1)

        fisher = co.classical_fisher_information(curve, 0.4)
        assert fisher <= qfi + 1e-6


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def normalized(raw: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw.flat[0] += 1.0
        norm = np.linalg.norm(raw)
    return raw / norm


@st.composite
def two_mode_states(draw, cutoff=5):
    size = (cutoff + 1) ** 2
    values = draw(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False, width=32),
                st.floats(-1, 1, allow_nan=False, width=32),
            ),
            min_size=size,
            max_size=size,
        )
    )
    raw = np.array([complex(a, b) for a, b in values]).reshape(cutoff + 1, cutoff + 1)
    return fock.PureState(normalized(raw))


@st.composite
def path_symmetric_states(draw, cutoff=5):
    state = draw(two_mode_states(cutoff))
    symmetric = normalized(state.amplitudes + state.amplitudes.T)
    return fock.PureState(symmetric)


@given(two_mode_states())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mode_correlation_within_cauchy_schwarz(state):
    stats = co.probe_statistics(state)
    assume(stats.j is not None)
    assert abs(stats.j) <= 1.0 + 1e-10


@given(path_symmetric_states())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_covariance_qfi_equals_path_symmetric_form(state):
    stats = co.probe_statistics(state)
    assume(stats.j is not None and stats.q_a is not None)
    factored = co.path_symmetric_qfi(stats.n_bar, stats.q_a, stats.j)
    assert abs(stats.qfi - factored) <= 1e-8 * max(abs(stats.qfi), abs(factored), 1.0)


@given(two_mode_states())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_interferometer_qfi_routes_agree(state):
    # 4 Var((n_a - n_b)/2) must equal Var(n_a) + Var(n_b) - 2 Cov
    stats = co.probe_statistics(state)
    generator = pure_state_qfi(state, "half_n_diff")
    assert abs(stats.qfi - generator) <= 1e-10 * max(1.0, abs(stats.qfi))


# ---------------------------------------------------------------------------
# default oracle cutoffs against each family's number-distribution tail
# ---------------------------------------------------------------------------


def _squeezed_tail(mean, cutoff):
    """Weight of a squeezed vacuum of this mean photon number above the cutoff."""
    with mpmath.workdps(60):
        t = mpmath.mpf(mean) / (mpmath.mpf(mean) + 1)
        p = kept = mpmath.sqrt(1 - t)  # P(0) = 1 / cosh r
        for j in range(1, cutoff // 2 + 1):
            p *= t * (2 * j - 1) / (2 * j)  # P(2j) / P(2j - 2)
            kept += p
        return 1 - kept


def _poisson_tail(mean, cutoff):
    with mpmath.workdps(60):
        return mpmath.gammainc(cutoff + 1, 0, mean, regularized=True)


TAIL_NBARS = (0.1, 1.0, 2.0, 4.0, 8.0, 20.0, 100.0)


@pytest.mark.parametrize("n_bar", TAIL_NBARS)
def test_oracle_cutoff_meets_each_familys_stated_tail(n_bar):
    # the bounds of the oracle_cutoff docstring
    c = co.oracle_cutoff("two_mode_squeezed_vacuum", n_bar)
    assert (mpmath.mpf(n_bar) / (n_bar + 1)) ** (c + 1) < math.exp(-48.0)
    # a squeezed vacuum falls per photon pair: the same geometric cutoff
    # leaves it a tail below erfc(sqrt 24) ~ 4.3e-12, not e^-48
    squeezed_bound = math.erfc(math.sqrt(24.0))
    c = co.oracle_cutoff("twin_squeezed_vacuum", n_bar)
    assert _squeezed_tail(n_bar / 2.0, c) < squeezed_bound
    c = co.oracle_cutoff("caves", n_bar)
    assert _squeezed_tail(n_bar / 2.0, c) < squeezed_bound
    assert _poisson_tail(n_bar / 2.0, c) < 1e-30
    # each arm of the laser's coherent pair holds n_bar / 2
    assert _poisson_tail(n_bar / 2.0, co.oracle_cutoff("laser", n_bar)) < 1e-30
    assert _poisson_tail(n_bar, co.oracle_cutoff("entangled_coherent", n_bar)) < 1e-30


def test_laser_arms_are_cut_at_their_own_mean():
    assert co.oracle_cutoff("laser", 1460.0) == 1073


@pytest.mark.parametrize("n_bar", [2.0, 4.0, 8.0, 800.0])
def test_twin_fock_oracle_splits_nothing(monkeypatch, n_bar):
    def refuse(state):
        raise AssertionError("the twin-Fock oracle ran the beam splitter")

    monkeypatch.setattr(fock, "beam_splitter", refuse)
    row = co.oracle_row("twin_fock", n_bar)
    assert row.max_deviation(co.table_row("twin_fock", n_bar)) <= 1e-13


def test_squeezed_tail_is_the_squeezed_constructors_deficit():
    # the tail above reads the same as the norm a truncated squeezed vacuum misses
    c = co.oracle_cutoff("twin_squeezed_vacuum", 8.0)
    state = fock.squeezed_vacuum(math.asinh(2.0), 0.0, c)
    assert state.norm_deficit == pytest.approx(float(_squeezed_tail(4.0, c)), rel=1e-2)


@pytest.mark.parametrize("family", ["noon", "twin_fock"])
def test_number_state_families_have_no_tail(family):
    for n_bar in (2.0, 4.0, 8.0, 20.0):
        assert co.oracle_cutoff(family, n_bar) == n_bar
